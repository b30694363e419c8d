//! GLK configuration parameters and their paper defaults.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use gls_runtime::SystemLoadMonitor;

use super::mode::GlkMode;

/// Which blocking implementation GLK's mutex mode (and GLK-RW's blocking
/// mode) uses when the lock must sleep instead of spin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlockingBackend {
    /// A `Mutex + Condvar` pair embedded in every lock
    /// ([`MutexLock`](gls_locks::MutexLock) /
    /// [`RwMutexLock`](gls_locks::RwMutexLock)): no shared state between
    /// locks, ~2 cache lines of per-lock wait-queue state. Fastest when a
    /// handful of hot locks block.
    PerLock,
    /// Word-sized futex locks ([`FutexLock`](gls_locks::FutexLock) /
    /// [`FutexRwLock`](gls_locks::FutexRwLock)) parked on the shared
    /// [`ParkingLot`](gls_locks::ParkingLot): one `AtomicU32` per lock, all
    /// wait queues held centrally — the right choice when a service manages
    /// thousands to millions of live locks.
    ParkingLot,
    /// Pick per lock, at runtime: each lock chooses (and **migrates**)
    /// between the per-lock and parking-lot implementations based on the
    /// live count of blocking-mode locks tracked by [`BlockingDensity`] —
    /// embedded state while few locks block, the shared lot past
    /// [`GlkConfig::blocking_density_threshold`]. Migration happens on
    /// release, by the (momentarily exclusive) holder, with waiters of the
    /// old backend draining themselves through the acquire-recheck-retry
    /// protocol — never while parked threads still need the old queue. This
    /// removes the static-knob choice entirely and is the default.
    #[default]
    Auto,
}

/// Default for [`GlkConfig::blocking_density_threshold`]: past this many
/// live blocking-mode locks the embedded `Mutex + Condvar` pairs (~2 cache
/// lines each) dominate the footprint and the shared parking lot wins.
pub const DEFAULT_BLOCKING_DENSITY_THRESHOLD: usize = 64;

/// Live count of blocking-mode locks, shared by every lock of one scope
/// (one [`GlsService`](crate::GlsService), or the process for standalone
/// GLK locks). GLK increments it when a lock enters its mutex/blocking
/// mode and decrements it on leaving; the [`BlockingBackend::Auto`]
/// heuristic reads it to pick per-lock vs parking-lot blocking state.
#[derive(Debug, Default)]
pub struct BlockingDensity {
    live: AtomicUsize,
}

impl BlockingDensity {
    /// Creates a zeroed density tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of locks currently in a blocking mode.
    pub fn live(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Records a lock entering blocking mode.
    pub fn enter(&self) {
        self.live.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a lock leaving blocking mode.
    pub fn leave(&self) {
        self.live.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One lock's CAS-guarded membership in a [`BlockingDensity`] population:
/// `enter`/`leave` pair exactly no matter how adaptation, free/resurrect
/// and drop interleave (none of which exclude each other), so the live
/// count can never drift or underflow.
#[derive(Debug, Default)]
pub(crate) struct PopulationMembership {
    counted: std::sync::atomic::AtomicBool,
}

impl PopulationMembership {
    /// A membership record, optionally already counted (the caller must
    /// then have bumped the tracker itself, e.g. at lock construction).
    pub(crate) fn new(counted: bool) -> Self {
        Self {
            counted: std::sync::atomic::AtomicBool::new(counted),
        }
    }

    /// Joins `density` (at most once until the matching leave).
    pub(crate) fn enter(&self, density: &BlockingDensity) {
        if self
            .counted
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            density.enter();
        }
    }

    /// Leaves `density` (at most once per enter).
    pub(crate) fn leave(&self, density: &BlockingDensity) {
        if self
            .counted
            .compare_exchange(true, false, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            density.leave();
        }
    }
}

/// Which [`BlockingDensity`] tracker a GLK lock reports to and the Auto
/// backend heuristic reads.
#[derive(Debug, Clone, Default)]
pub enum DensityHandle {
    /// The process-wide tracker (standalone GLK locks).
    #[default]
    Global,
    /// A dedicated tracker — every [`GlsService`](crate::GlsService) wires
    /// one in so the heuristic sees *that service's* lock population.
    Custom(Arc<BlockingDensity>),
}

impl DensityHandle {
    /// Resolves the handle to a tracker reference.
    pub fn density(&self) -> &BlockingDensity {
        match self {
            DensityHandle::Global => {
                static GLOBAL: OnceLock<BlockingDensity> = OnceLock::new();
                GLOBAL.get_or_init(BlockingDensity::default)
            }
            DensityHandle::Custom(d) => d,
        }
    }
}

/// Configuration of a GLK lock.
///
/// The defaults are the values chosen by the paper's sensitivity analysis
/// (§3.1) and used throughout its evaluation:
///
/// * adaptation every **4096** critical sections,
/// * queue sampling every **128** critical sections (32 samples/adaptation),
/// * ticket → mcs when the smoothed queue exceeds **3.0**,
/// * mcs → ticket when it drops below **2.0**,
/// * multiprogramming polled roughly every **100 µs** by the shared monitor,
/// * locks with close-to-zero contention never switch to mutex,
/// * exponentially more calm observations required to leave mutex mode after
///   each bounce.
///
/// # Example
///
/// ```
/// use gls::glk::GlkConfig;
///
/// let config = GlkConfig::default()
///     .with_adaptation_period(1024)
///     .with_sampling_period(64);
/// assert_eq!(config.adaptation_period, 1024);
/// ```
#[derive(Debug, Clone)]
pub struct GlkConfig {
    /// Attempt adaptation every this many completed critical sections.
    ///
    /// A power of two (the boundary test is a mask, not a division), or
    /// `u64::MAX` to disable adaptation ([`without_adaptation`]). GLK locks
    /// panic at construction otherwise.
    ///
    /// [`without_adaptation`]: Self::without_adaptation
    pub adaptation_period: u64,
    /// Sample the queue length every this many completed critical sections.
    ///
    /// A power of two, like [`adaptation_period`](Self::adaptation_period);
    /// ignored while adaptation is disabled.
    pub sampling_period: u64,
    /// Switch ticket → mcs when the smoothed queue exceeds this value.
    pub ticket_to_mcs_queue: f64,
    /// Switch mcs → ticket when the smoothed queue drops below this value.
    pub mcs_to_ticket_queue: f64,
    /// Smoothing factor of the exponential moving average over per-window
    /// average queue lengths.
    pub ema_alpha: f64,
    /// Locks whose smoothed queue is below this value stay in (or return to)
    /// ticket mode even under multiprogramming: "locks that face
    /// close-to-zero contention do not cause a problem on multiprogramming".
    pub min_queue_for_mutex: f64,
    /// Initial number of calm monitor observations required before a lock may
    /// leave mutex mode; doubled after every departure to damp oscillation.
    pub initial_calm_rounds: u64,
    /// Upper bound for the exponentially growing calm requirement.
    pub max_calm_rounds: u64,
    /// The mode a fresh lock starts in.
    pub initial_mode: GlkMode,
    /// Record mode transitions so they can be inspected/printed (§4.3).
    pub record_transitions: bool,
    /// How long the shared system-load monitor sleeps between polls (only
    /// used when this configuration spawns its own monitor).
    pub monitor_interval: Duration,
    /// Which blocking implementation the lock's sleeping mode uses.
    pub blocking_backend: BlockingBackend,
    /// For [`BlockingBackend::Auto`]: switch a lock's blocking state to the
    /// shared parking lot when at least this many blocking-mode locks are
    /// live (and back to per-lock state below half of it — the hysteresis
    /// band damps migration churn around the threshold).
    pub blocking_density_threshold: usize,
    /// The blocking-density tracker consulted by the Auto heuristic.
    pub density: DensityHandle,
    /// Topology-aware handoff for parking-lot releases: when a futex release
    /// hands the lock off, prefer a waiter parked from the releaser's cache
    /// domain (bounded by the bypass budget so remote waiters cannot
    /// starve — see `gls_locks::cohort`). On single-domain machines this is
    /// identical to plain FIFO handoff; disable it to force strict FIFO on
    /// multi-socket boxes too.
    pub cohort_handoff: bool,
}

impl Default for GlkConfig {
    fn default() -> Self {
        Self {
            adaptation_period: 4096,
            sampling_period: 128,
            ticket_to_mcs_queue: 3.0,
            mcs_to_ticket_queue: 2.0,
            ema_alpha: 0.5,
            min_queue_for_mutex: 1.5,
            initial_calm_rounds: 2,
            max_calm_rounds: 1 << 20,
            initial_mode: GlkMode::Ticket,
            record_transitions: false,
            monitor_interval: Duration::from_micros(100),
            blocking_backend: BlockingBackend::default(),
            blocking_density_threshold: DEFAULT_BLOCKING_DENSITY_THRESHOLD,
            density: DensityHandle::default(),
            cohort_handoff: true,
        }
    }
}

impl GlkConfig {
    /// Sets the adaptation period (in completed critical sections).
    ///
    /// # Panics
    ///
    /// Panics if `period` is not a power of two (zero included).
    pub fn with_adaptation_period(mut self, period: u64) -> Self {
        assert!(
            period.is_power_of_two(),
            "adaptation period must be a power of two, got {period}"
        );
        self.adaptation_period = period;
        self
    }

    /// Sets the queue sampling period (in completed critical sections).
    ///
    /// # Panics
    ///
    /// Panics if `period` is not a power of two (zero included).
    pub fn with_sampling_period(mut self, period: u64) -> Self {
        assert!(
            period.is_power_of_two(),
            "sampling period must be a power of two, got {period}"
        );
        self.sampling_period = period;
        self
    }

    /// Sets the ticket→mcs and mcs→ticket queue thresholds.
    ///
    /// # Panics
    ///
    /// Panics if `to_mcs < to_ticket` (the hysteresis band would be inverted).
    pub fn with_queue_thresholds(mut self, to_mcs: f64, to_ticket: f64) -> Self {
        assert!(
            to_mcs >= to_ticket,
            "ticket->mcs threshold must not be below mcs->ticket threshold"
        );
        self.ticket_to_mcs_queue = to_mcs;
        self.mcs_to_ticket_queue = to_ticket;
        self
    }

    /// Sets the initial mode of the lock.
    pub fn with_initial_mode(mut self, mode: GlkMode) -> Self {
        self.initial_mode = mode;
        self
    }

    /// Enables or disables transition recording.
    pub fn with_transition_recording(mut self, enabled: bool) -> Self {
        self.record_transitions = enabled;
        self
    }

    /// Selects the blocking implementation used when the lock sleeps:
    /// per-lock `Mutex + Condvar` state, word-sized futex locks parked on
    /// the shared parking lot, or the density-driven [`BlockingBackend::Auto`]
    /// (default).
    pub fn with_blocking_backend(mut self, backend: BlockingBackend) -> Self {
        self.blocking_backend = backend;
        self
    }

    /// Sets the live-blocking-lock count past which [`BlockingBackend::Auto`]
    /// moves blocking state onto the shared parking lot.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero.
    pub fn with_blocking_density_threshold(mut self, threshold: usize) -> Self {
        assert!(threshold > 0, "density threshold must be positive");
        self.blocking_density_threshold = threshold;
        self
    }

    /// Sets the blocking-density tracker the Auto heuristic consults.
    pub fn with_density(mut self, density: DensityHandle) -> Self {
        self.density = density;
        self
    }

    /// Enables or disables topology-aware (cohort) handoff on parking-lot
    /// releases. Enabled by default; a no-op on single-domain machines.
    pub fn with_cohort_handoff(mut self, enabled: bool) -> Self {
        self.cohort_handoff = enabled;
        self
    }

    /// Disables adaptation entirely: the lock stays in its initial mode.
    /// (Used by the paper's overhead experiments, Figure 7.)
    pub fn without_adaptation(mut self) -> Self {
        self.adaptation_period = u64::MAX;
        self.sampling_period = u64::MAX;
        self
    }

    /// Whether adaptation is effectively disabled.
    pub fn adaptation_disabled(&self) -> bool {
        self.adaptation_period == u64::MAX
    }

    /// Panics unless both periods are powers of two or adaptation is
    /// disabled. The fields are public, so GLK locks re-check at
    /// construction what the builders check.
    pub(crate) fn assert_periods(&self) {
        assert!(
            self.adaptation_disabled()
                || (self.adaptation_period.is_power_of_two()
                    && self.sampling_period.is_power_of_two()),
            "GLK periods must be powers of two (adaptation_period {}, sampling_period {})",
            self.adaptation_period,
            self.sampling_period
        );
    }

    /// Whether the `n`-th acquisition samples the queue. Adaptation must be
    /// enabled (callers return early on [`adaptation_disabled`]).
    ///
    /// [`adaptation_disabled`]: Self::adaptation_disabled
    #[inline]
    pub(crate) fn samples_at(&self, n: u64) -> bool {
        n & (self.sampling_period - 1) == 0
    }

    /// Whether the `n`-th acquisition ends an adaptation window. Adaptation
    /// must be enabled, as for [`samples_at`](Self::samples_at).
    #[inline]
    pub(crate) fn adapts_at(&self, n: u64) -> bool {
        n & (self.adaptation_period - 1) == 0
    }
}

/// Which system-load monitor a GLK lock consults for multiprogramming.
#[derive(Debug, Clone, Default)]
pub enum MonitorHandle {
    /// The process-wide monitor ([`SystemLoadMonitor::global`]); this is what
    /// the paper does — one background thread shared by all GLK locks.
    #[default]
    Global,
    /// A dedicated monitor, typically a manually polled one in tests or a
    /// per-experiment monitor in the benchmark harness.
    Custom(Arc<SystemLoadMonitor>),
}

impl MonitorHandle {
    /// Resolves the handle to a monitor reference.
    pub fn monitor(&self) -> &SystemLoadMonitor {
        match self {
            MonitorHandle::Global => SystemLoadMonitor::global(),
            MonitorHandle::Custom(m) => m,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = GlkConfig::default();
        assert_eq!(c.adaptation_period, 4096);
        assert_eq!(c.sampling_period, 128);
        assert_eq!(c.ticket_to_mcs_queue, 3.0);
        assert_eq!(c.mcs_to_ticket_queue, 2.0);
        assert_eq!(c.initial_mode, GlkMode::Ticket);
        assert_eq!(c.adaptation_period / c.sampling_period, 32);
        // The blocking backend is no longer a static knob by default: Auto
        // picks (and migrates) per lock based on blocking-lock density.
        assert_eq!(c.blocking_backend, BlockingBackend::Auto);
        assert_eq!(
            c.blocking_density_threshold,
            DEFAULT_BLOCKING_DENSITY_THRESHOLD
        );
        // Topology-aware handoff is on by default (harmless single-domain).
        assert!(c.cohort_handoff);
    }

    #[test]
    fn cohort_handoff_is_selectable() {
        let c = GlkConfig::default().with_cohort_handoff(false);
        assert!(!c.cohort_handoff);
        let c = c.with_cohort_handoff(true);
        assert!(c.cohort_handoff);
    }

    #[test]
    fn blocking_backend_is_selectable() {
        let c = GlkConfig::default().with_blocking_backend(BlockingBackend::ParkingLot);
        assert_eq!(c.blocking_backend, BlockingBackend::ParkingLot);
        let c = c.with_blocking_backend(BlockingBackend::PerLock);
        assert_eq!(c.blocking_backend, BlockingBackend::PerLock);
    }

    #[test]
    fn density_tracker_counts_and_resolves() {
        let density = Arc::new(BlockingDensity::new());
        assert_eq!(density.live(), 0);
        density.enter();
        density.enter();
        density.leave();
        assert_eq!(density.live(), 1);
        let handle = DensityHandle::Custom(Arc::clone(&density));
        assert_eq!(handle.density().live(), 1);
        // The global handle resolves to a process-wide singleton.
        assert!(std::ptr::eq(
            DensityHandle::Global.density(),
            DensityHandle::Global.density()
        ));
        density.leave();
    }

    #[test]
    #[should_panic(expected = "density threshold")]
    fn zero_density_threshold_rejected() {
        let _ = GlkConfig::default().with_blocking_density_threshold(0);
    }

    #[test]
    fn builder_methods_apply() {
        let c = GlkConfig::default()
            .with_adaptation_period(512)
            .with_sampling_period(16)
            .with_queue_thresholds(5.0, 1.0)
            .with_initial_mode(GlkMode::Mcs)
            .with_transition_recording(true);
        assert_eq!(c.adaptation_period, 512);
        assert_eq!(c.sampling_period, 16);
        assert_eq!(c.ticket_to_mcs_queue, 5.0);
        assert_eq!(c.mcs_to_ticket_queue, 1.0);
        assert_eq!(c.initial_mode, GlkMode::Mcs);
        assert!(c.record_transitions);
    }

    #[test]
    #[should_panic(expected = "adaptation period")]
    fn zero_adaptation_period_rejected() {
        let _ = GlkConfig::default().with_adaptation_period(0);
    }

    #[test]
    #[should_panic(expected = "adaptation period must be a power of two")]
    fn non_power_of_two_adaptation_period_rejected() {
        let _ = GlkConfig::default().with_adaptation_period(100);
    }

    #[test]
    #[should_panic(expected = "sampling period must be a power of two")]
    fn non_power_of_two_sampling_period_rejected() {
        let _ = GlkConfig::default().with_sampling_period(24);
    }

    #[test]
    fn period_masks_match_division() {
        let c = GlkConfig::default()
            .with_adaptation_period(64)
            .with_sampling_period(1);
        c.assert_periods();
        for n in 1..=1024u64 {
            assert_eq!(c.adapts_at(n), n % 64 == 0, "n = {n}");
            assert!(c.samples_at(n), "period 1 samples every acquisition");
        }
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn inverted_thresholds_rejected() {
        let _ = GlkConfig::default().with_queue_thresholds(1.0, 3.0);
    }

    #[test]
    fn without_adaptation_disables() {
        let c = GlkConfig::default().without_adaptation();
        assert!(c.adaptation_disabled());
    }

    #[test]
    fn monitor_handle_resolves() {
        let global = MonitorHandle::Global;
        let _ = global.monitor();
        let custom = MonitorHandle::Custom(Arc::new(SystemLoadMonitor::manual(Default::default())));
        assert_eq!(custom.monitor().registered_runnable(), 0);
    }
}
