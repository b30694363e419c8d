//! GLK-RW: the adaptive reader-writer lock.
//!
//! Kyoto Cabinet and SQLite protect their main structures with reader-writer
//! locks (§5.2), so rw locking deserves the same adaptivity GLK gives plain
//! mutual exclusion. GLK-RW switches between two underlying implementations:
//!
//! * **spin** — the TTAS-based [`RwTtasRaw`] (the paper's pthread-rwlock
//!   replacement, footnote 7) while the machine has spare hardware contexts;
//! * **blocking** — the parking [`RwMutexLock`] when the system-load monitor
//!   reports multiprogramming and the lock sees real contention, so waiters
//!   release their contexts to the OS.
//!
//! The acquisition protocol mirrors [`GlkLock`](crate::glk::GlkLock)
//! (paper Figure 4): read the mode, acquire that low-level lock, re-check the
//! mode and retry if it changed. Only a *write* holder — momentarily
//! exclusive — folds the sampled queue lengths into the EMA and flips the
//! mode, so adaptation is race-free; readers only bump the shared counters.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};

use gls_locks::{
    FutexRwLock, QueueInformed, RawLock, RawRwLock, RawTryLock, RwMutexLock, RwTtasRaw,
};
use gls_runtime::LockStats;

use super::config::{
    BlockingBackend, BlockingDensity, GlkConfig, MonitorHandle, PopulationMembership,
};
#[cfg(test)]
use super::lock::AUTO_PER_LOCK;
use super::lock::{decide_backend, AutoCore, AUTO_PARKING, AUTO_UNDECIDED};

/// The rw counterpart of [`AutoBlockingMutex`](super::AutoBlockingMutex),
/// sharing its [`AutoCore`] (backend selection, lazy per-lock box,
/// migrate-on-release): migrates between an embedded [`RwMutexLock`] and
/// the word-sized [`FutexRwLock`], driven by blocking-lock density.
/// Backend flips happen only under a held **write** lock (momentarily
/// exclusive, like GLK-RW's mode flips): readers pin the backend for the
/// duration of their hold, so `read_unlock` always releases the backend
/// the reader acquired. Write releases migrate in-line; a *released*
/// reader that notices the density decision has flipped try-acquires the
/// write slot of the current backend and, if it wins (momentarily
/// exclusive), migrates there — the same trick GLK-RW's reader-side EMA
/// adaptation uses — so a 100%-read phase no longer keeps a stale backend
/// until the next write arrives. Unlike the mutex flavor, no broadcast is needed on
/// migration: condvar waiters are never requeued onto rw words (see
/// `LockEntry::park_addr`), so every futex-rw waiter is native and drains
/// through acquire-recheck-release-retry.
#[derive(Debug, Default)]
struct AutoBlockingRw {
    core: AutoCore<RwMutexLock>,
    futex: FutexRwLock,
}

impl AutoBlockingRw {
    fn read_lock(&self, density: &BlockingDensity, threshold: usize) {
        loop {
            let backend = self.core.backend_or_decide(density, threshold);
            if backend == AUTO_PARKING {
                self.futex.read_lock();
            } else {
                self.core.per_lock_backend().read_lock();
            }
            if self.core.backend() == backend {
                return;
            }
            self.read_unlock_backend(backend);
        }
    }

    fn try_read_lock(&self, density: &BlockingDensity, threshold: usize) -> bool {
        loop {
            let backend = self.core.backend_or_decide(density, threshold);
            let acquired = if backend == AUTO_PARKING {
                self.futex.try_read_lock()
            } else {
                self.core.per_lock_backend().try_read_lock()
            };
            if !acquired {
                return false;
            }
            if self.core.backend() == backend {
                return true;
            }
            self.read_unlock_backend(backend);
        }
    }

    #[inline]
    fn read_unlock_backend(&self, backend: u8) {
        if backend == AUTO_PARKING {
            self.futex.read_unlock();
        } else {
            self.core.per_lock_backend().read_unlock();
        }
    }

    /// Releases shared access. A reader's hold pins the backend (flipping
    /// requires the write lock of the current backend), so the value read
    /// here names the backend actually held. After releasing, a reader
    /// that notices the density decision flipped runs the migration itself
    /// (guarded by a try-acquired write slot); without this a 100%-read
    /// workload would keep a stale backend until the next write release.
    fn read_unlock(&self, density: &BlockingDensity, threshold: usize) {
        let backend = self.core.backend();
        self.read_unlock_backend(backend);
        if backend != AUTO_UNDECIDED && decide_backend(density, threshold, backend) != backend {
            self.migrate_from_reader(density, threshold);
        }
    }

    /// Runs the backend migration from the read-side release path, guarded
    /// by a try-acquired write slot on the current backend (which makes the
    /// caller momentarily exclusive, exactly like a write release). Losing
    /// the race is fine: some holder is active and its release — or a later
    /// reader's — picks the decision up.
    #[cold]
    fn migrate_from_reader(&self, density: &BlockingDensity, threshold: usize) {
        let current = self.core.backend();
        if !self.try_write_lock_backend(current) {
            return;
        }
        if self.core.backend() == current {
            let (held, _) = self.core.migrate_on_release(density, threshold);
            debug_assert_eq!(held, current);
            self.write_unlock_backend(held);
        } else {
            // The backend flipped between the load and the slot win: we
            // hold (and must release) the stale backend, nothing to do.
            self.write_unlock_backend(current);
        }
    }

    fn write_lock(&self, density: &BlockingDensity, threshold: usize) {
        loop {
            let backend = self.core.backend_or_decide(density, threshold);
            if backend == AUTO_PARKING {
                self.futex.lock();
            } else {
                self.core.per_lock_backend().lock();
            }
            if self.core.backend() == backend {
                return;
            }
            self.write_unlock_backend(backend);
        }
    }

    #[inline]
    fn try_write_lock_backend(&self, backend: u8) -> bool {
        if backend == AUTO_PARKING {
            self.futex.try_lock()
        } else {
            self.core.per_lock_backend().try_lock()
        }
    }

    fn try_write_lock(&self, density: &BlockingDensity, threshold: usize) -> bool {
        loop {
            let backend = self.core.backend_or_decide(density, threshold);
            if !self.try_write_lock_backend(backend) {
                return false;
            }
            if self.core.backend() == backend {
                return true;
            }
            self.write_unlock_backend(backend);
        }
    }

    #[inline]
    fn write_unlock_backend(&self, backend: u8) {
        if backend == AUTO_PARKING {
            self.futex.unlock();
        } else {
            self.core.per_lock_backend().unlock();
        }
    }

    /// Releases exclusive access, migrating the backend first when the
    /// density heuristic says so (the write holder is exclusive, so the
    /// flip is race-free and lands before the release).
    fn write_unlock(&self, density: &BlockingDensity, threshold: usize) {
        let (current, _) = self.core.migrate_on_release(density, threshold);
        self.write_unlock_backend(current);
    }

    fn is_locked(&self) -> bool {
        self.futex.is_locked()
            || self
                .core
                .per_lock_allocated()
                .is_some_and(RwMutexLock::is_locked)
    }

    fn queue_length(&self) -> u64 {
        self.futex.queue_length()
            + self
                .core
                .per_lock_allocated()
                .map_or(0, RwMutexLock::queue_length)
    }
}

/// The low-level lock behind [`GlkRwMode::Blocking`], chosen by
/// [`GlkConfig::blocking_backend`].
#[derive(Debug)]
enum BlockingRw {
    /// Per-lock `Mutex + Condvar` parking state.
    PerLock(RwMutexLock),
    /// One `AtomicU32`; waiters park in [`gls_locks::ParkingLot::global`].
    Parking(FutexRwLock),
    /// Migrates between the two based on blocking-lock density.
    Auto(AutoBlockingRw),
}

impl BlockingRw {
    fn new(backend: BlockingBackend) -> Self {
        match backend {
            BlockingBackend::PerLock => BlockingRw::PerLock(RwMutexLock::new()),
            BlockingBackend::ParkingLot => BlockingRw::Parking(FutexRwLock::new()),
            BlockingBackend::Auto => BlockingRw::Auto(AutoBlockingRw::default()),
        }
    }

    #[inline]
    fn read_lock(&self, config: &GlkConfig) {
        match self {
            BlockingRw::PerLock(l) => l.read_lock(),
            BlockingRw::Parking(l) => l.read_lock(),
            BlockingRw::Auto(l) => {
                l.read_lock(config.density.density(), config.blocking_density_threshold)
            }
        }
    }

    #[inline]
    fn try_read_lock(&self, config: &GlkConfig) -> bool {
        match self {
            BlockingRw::PerLock(l) => l.try_read_lock(),
            BlockingRw::Parking(l) => l.try_read_lock(),
            BlockingRw::Auto(l) => {
                l.try_read_lock(config.density.density(), config.blocking_density_threshold)
            }
        }
    }

    #[inline]
    fn read_unlock(&self, config: &GlkConfig) {
        match self {
            BlockingRw::PerLock(l) => l.read_unlock(),
            BlockingRw::Parking(l) => l.read_unlock(),
            BlockingRw::Auto(l) => {
                l.read_unlock(config.density.density(), config.blocking_density_threshold)
            }
        }
    }

    #[inline]
    fn write_lock(&self, config: &GlkConfig) {
        match self {
            BlockingRw::PerLock(l) => l.lock(),
            BlockingRw::Parking(l) => l.lock(),
            BlockingRw::Auto(l) => {
                l.write_lock(config.density.density(), config.blocking_density_threshold)
            }
        }
    }

    #[inline]
    fn try_write_lock(&self, config: &GlkConfig) -> bool {
        match self {
            BlockingRw::PerLock(l) => l.try_lock(),
            BlockingRw::Parking(l) => l.try_lock(),
            BlockingRw::Auto(l) => {
                l.try_write_lock(config.density.density(), config.blocking_density_threshold)
            }
        }
    }

    #[inline]
    fn write_unlock(&self, config: &GlkConfig) {
        match self {
            BlockingRw::PerLock(l) => l.unlock(),
            BlockingRw::Parking(l) => l.unlock(),
            BlockingRw::Auto(l) => {
                l.write_unlock(config.density.density(), config.blocking_density_threshold)
            }
        }
    }

    fn is_locked(&self) -> bool {
        match self {
            BlockingRw::PerLock(l) => l.is_locked(),
            BlockingRw::Parking(l) => l.is_locked(),
            BlockingRw::Auto(l) => l.is_locked(),
        }
    }

    fn queue_length(&self) -> u64 {
        match self {
            BlockingRw::PerLock(l) => l.queue_length(),
            BlockingRw::Parking(l) => l.queue_length(),
            BlockingRw::Auto(l) => l.queue_length(),
        }
    }
}

/// The two operating modes of [`GlkRwLock`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GlkRwMode {
    /// TTAS-based spinning readers and writers.
    Spin,
    /// Parking readers and writers (multiprogrammed systems).
    Blocking,
}

impl GlkRwMode {
    pub(crate) fn as_raw(self) -> u8 {
        match self {
            GlkRwMode::Spin => 0,
            GlkRwMode::Blocking => 1,
        }
    }

    pub(crate) fn from_raw(raw: u8) -> Self {
        match raw {
            0 => GlkRwMode::Spin,
            _ => GlkRwMode::Blocking,
        }
    }

    /// Display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            GlkRwMode::Spin => "rw-spin",
            GlkRwMode::Blocking => "rw-blocking",
        }
    }
}

/// The adaptive reader-writer lock (GLK-RW).
///
/// # Example
///
/// ```
/// use gls::glk::{GlkRwLock, GlkRwMode};
///
/// let lock = GlkRwLock::new();
/// lock.read_lock();
/// assert_eq!(lock.mode(), GlkRwMode::Spin); // fresh locks spin
/// lock.read_unlock();
/// lock.write_lock();
/// lock.write_unlock();
/// ```
#[derive(Debug)]
pub struct GlkRwLock {
    /// Current mode (the rw counterpart of the paper's `lock_type`).
    mode: AtomicU8,
    /// Low-level lock used in [`GlkRwMode::Spin`].
    spin: RwTtasRaw,
    /// Low-level lock used in [`GlkRwMode::Blocking`] (backend per
    /// [`GlkConfig::blocking_backend`]).
    blocking: BlockingRw,
    /// Acquisition counts and queue samples (reads and writes combined).
    stats: LockStats,
    /// Exponential moving average of per-window queue lengths (f64 bits).
    ema_bits: AtomicU64,
    /// Consecutive calm monitor observations required to leave blocking
    /// mode; doubles after every departure, as for GLK's mutex mode.
    required_calm: AtomicU64,
    /// Raised when the acquisition count crosses an adaptation boundary on
    /// the *read* side; the next reader to win a try-acquired write slot on
    /// release runs the adaptation check. Without this, a 100%-read
    /// workload would never adapt (only write holders fold the EMA).
    adapt_pending: AtomicBool,
    /// This lock's membership in the blocking-density population (exact
    /// across racing adaptation, free/resurrect and drop, as in
    /// `GlkLock`).
    population: PopulationMembership,
    config: GlkConfig,
    monitor: MonitorHandle,
}

impl Default for GlkRwLock {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for GlkRwLock {
    fn drop(&mut self) {
        // A lock dying in blocking mode leaves the blocking population.
        self.leave_population();
    }
}

impl GlkRwLock {
    /// Creates a GLK-RW lock with the paper-default configuration and the
    /// process-wide system-load monitor.
    pub fn new() -> Self {
        Self::with_config(GlkConfig::default())
    }

    /// Creates a GLK-RW lock with a custom configuration.
    pub fn with_config(config: GlkConfig) -> Self {
        Self::with_config_and_monitor(config, MonitorHandle::Global)
    }

    /// Creates a GLK-RW lock with a custom configuration and system-load
    /// monitor.
    ///
    /// # Panics
    ///
    /// Panics if `config`'s periods are not powers of two (see
    /// [`GlkConfig::adaptation_period`]).
    pub fn with_config_and_monitor(config: GlkConfig, monitor: MonitorHandle) -> Self {
        config.assert_periods();
        Self {
            mode: AtomicU8::new(GlkRwMode::Spin.as_raw()),
            spin: RwTtasRaw::new(),
            blocking: BlockingRw::new(config.blocking_backend),
            stats: LockStats::new(),
            ema_bits: AtomicU64::new(0f64.to_bits()),
            required_calm: AtomicU64::new(config.initial_calm_rounds),
            adapt_pending: AtomicBool::new(false),
            population: PopulationMembership::new(false),
            config,
            monitor,
        }
    }

    /// Joins the blocking-density population (at most once until the
    /// matching leave).
    fn enter_population(&self) {
        self.population.enter(self.config.density.density());
    }

    /// Leaves the blocking-density population (at most once per enter).
    fn leave_population(&self) {
        self.population.leave(self.config.density.density());
    }

    /// Called when this lock's GLS entry is freed: retired locks leave the
    /// live blocking population the Auto backend heuristic reads.
    pub(crate) fn note_retired(&self) {
        self.leave_population();
    }

    /// Called when this lock's GLS entry is resurrected: a lock that
    /// retired in blocking mode rejoins the population.
    pub(crate) fn note_resurrected(&self) {
        if self.mode() == GlkRwMode::Blocking {
            self.enter_population();
        }
    }

    /// The mode the lock currently operates in.
    pub fn mode(&self) -> GlkRwMode {
        GlkRwMode::from_raw(self.mode.load(Ordering::Acquire))
    }

    /// Acquisition and queuing statistics (reads and writes combined).
    pub fn stats(&self) -> &LockStats {
        &self.stats
    }

    /// Number of completed acquisitions, shared and exclusive.
    pub fn acquisitions(&self) -> u64 {
        self.stats.acquisitions()
    }

    /// Smoothed queue length currently driving adaptation decisions.
    pub fn smoothed_queue(&self) -> f64 {
        f64::from_bits(self.ema_bits.load(Ordering::Relaxed))
    }

    /// Holders plus waiters over both low-level locks: during a mode
    /// transition waiters still drain from the previous mode's lock yet keep
    /// queuing behind *this* lock.
    pub fn queue_length(&self) -> u64 {
        self.spin.queue_length() + self.blocking.queue_length()
    }

    /// Whether some thread holds the lock in either mode (racy; diagnostics
    /// only).
    pub fn is_locked(&self) -> bool {
        self.spin.is_locked() || self.blocking.is_locked()
    }

    #[inline]
    fn read_lock_mode(&self, mode: GlkRwMode) {
        match mode {
            GlkRwMode::Spin => self.spin.read_lock(),
            GlkRwMode::Blocking => self.blocking.read_lock(&self.config),
        }
    }

    #[inline]
    fn try_read_lock_mode(&self, mode: GlkRwMode) -> bool {
        match mode {
            GlkRwMode::Spin => self.spin.try_read_lock(),
            GlkRwMode::Blocking => self.blocking.try_read_lock(&self.config),
        }
    }

    #[inline]
    fn read_unlock_mode(&self, mode: GlkRwMode) {
        match mode {
            GlkRwMode::Spin => self.spin.read_unlock(),
            GlkRwMode::Blocking => self.blocking.read_unlock(&self.config),
        }
    }

    #[inline]
    fn write_lock_mode(&self, mode: GlkRwMode) {
        match mode {
            GlkRwMode::Spin => self.spin.lock(),
            GlkRwMode::Blocking => self.blocking.write_lock(&self.config),
        }
    }

    #[inline]
    fn try_write_lock_mode(&self, mode: GlkRwMode) -> bool {
        match mode {
            GlkRwMode::Spin => self.spin.try_lock(),
            GlkRwMode::Blocking => self.blocking.try_write_lock(&self.config),
        }
    }

    #[inline]
    fn write_unlock_mode(&self, mode: GlkRwMode) {
        match mode {
            GlkRwMode::Spin => self.spin.unlock(),
            GlkRwMode::Blocking => self.blocking.write_unlock(&self.config),
        }
    }

    /// Acquires shared (read) access.
    pub fn read_lock(&self) {
        loop {
            let current = self.mode();
            self.read_lock_mode(current);
            if self.mode() == current {
                // Readers never fold the EMA themselves (they are not
                // exclusive); they pace the counter, sample the queue, and
                // flag crossed adaptation boundaries for the release path.
                self.note_read_acquisition();
                return;
            }
            self.read_unlock_mode(current);
        }
    }

    /// Attempts to acquire shared access without waiting.
    pub fn try_read_lock(&self) -> bool {
        loop {
            let current = self.mode();
            if !self.try_read_lock_mode(current) {
                return false;
            }
            if self.mode() == current {
                self.note_read_acquisition();
                return true;
            }
            self.read_unlock_mode(current);
        }
    }

    /// Releases shared access.
    ///
    /// A reader in its critical section pins the mode — flipping it requires
    /// the write lock of the current mode — so reading the mode here always
    /// names the lock the reader actually holds.
    pub fn read_unlock(&self) {
        self.read_unlock_mode(self.mode());
        // Reader-side adaptation: if a read acquisition crossed an
        // adaptation boundary, the first released reader to win a
        // try-acquired write slot runs the check. Without this, a 100%-read
        // workload would never adapt — e.g. never switch to the blocking
        // rwlock under oversubscription — because only write holders fold
        // the EMA.
        if self.adapt_pending.load(Ordering::Relaxed) {
            self.adapt_from_reader();
        }
    }

    /// Statistics bookkeeping done by every successful shared acquisition.
    ///
    /// Readers hold the lock together, so the counter has many writers at
    /// once: it stays a locked read-modify-write
    /// ([`LockStats::record_acquisition`]), unlike `GlkLock`'s holder-only
    /// store, or concurrent reads would lose counts.
    fn note_read_acquisition(&self) {
        let acquisitions = self.stats.record_acquisition();
        if self.config.adaptation_disabled() {
            return;
        }
        if self.config.samples_at(acquisitions) {
            self.stats.record_queue_sample(self.queue_length());
        }
        if self.config.adapts_at(acquisitions) {
            self.adapt_pending.store(true, Ordering::Relaxed);
        }
    }

    /// Runs the adaptation check from the read-side release path, guarded by
    /// a try-acquired write slot (which makes the caller momentarily
    /// exclusive, so folding the EMA and flipping the mode stay race-free).
    #[cold]
    fn adapt_from_reader(&self) {
        let current = self.mode();
        if !self.try_write_lock_mode(current) {
            // Another holder is active; the pending flag stays raised and a
            // later release (or a real writer's boundary) picks it up.
            return;
        }
        if self.mode() == current {
            self.adapt_pending.store(false, Ordering::Relaxed);
            self.adapt_exclusive(current);
        }
        // If the mode changed, `adapt_exclusive` stored it *before* this
        // release, exactly like the write path: unlock the lock we hold.
        self.write_unlock_mode(current);
    }

    /// Acquires exclusive (write) access.
    pub fn write_lock(&self) {
        loop {
            let current = self.mode();
            self.write_lock_mode(current);
            if self.mode() == current && !self.try_adapt(current) {
                return;
            }
            self.write_unlock_mode(current);
        }
    }

    /// Attempts to acquire exclusive access without waiting.
    pub fn try_write_lock(&self) -> bool {
        loop {
            let current = self.mode();
            if !self.try_write_lock_mode(current) {
                return false;
            }
            if self.mode() == current && !self.try_adapt(current) {
                return true;
            }
            self.write_unlock_mode(current);
        }
    }

    /// Releases exclusive access. Only the write holder may have changed the
    /// mode, and it did so *before* releasing, so the mode read here always
    /// names the lock actually held.
    pub fn write_unlock(&self) {
        self.write_unlock_mode(self.mode());
    }

    /// Statistics collection and adaptation, performed by the thread that
    /// just acquired the write lock of `current` (and therefore excludes
    /// every reader and writer of that mode). Returns `true` if the mode was
    /// changed, in which case the caller must release and retry.
    fn try_adapt(&self, current: GlkRwMode) -> bool {
        // Readers share this counter (see `note_read_acquisition`), so the
        // write path counts with the same read-modify-write.
        if self.config.adaptation_disabled() {
            self.stats.record_acquisition();
            return false;
        }
        let acquisitions = self.stats.record_acquisition();

        if self.config.samples_at(acquisitions) {
            self.stats.record_queue_sample(self.queue_length());
        }
        if !self.config.adapts_at(acquisitions) {
            return false;
        }
        self.adapt_exclusive(current)
    }

    /// Folds the sampled window into the EMA and applies the mode decision.
    /// The caller must hold the write lock of `current` (and therefore be
    /// exclusive), making the read-modify-write below race-free. Returns
    /// `true` if the mode changed (the caller must release and retry).
    fn adapt_exclusive(&self, current: GlkRwMode) -> bool {
        let window_avg = self.stats.average_queue();
        let previous = self.smoothed_queue();
        let smoothed = if self.stats.queue_samples() == 0 {
            previous
        } else if self.stats.acquisitions() <= self.config.adaptation_period {
            window_avg
        } else {
            self.config.ema_alpha * window_avg + (1.0 - self.config.ema_alpha) * previous
        };
        self.ema_bits.store(smoothed.to_bits(), Ordering::Relaxed);
        self.stats.reset_queue_window();

        let monitor = self.monitor.monitor();
        let target = self.decide_mode(current, smoothed, monitor);
        if target == current {
            return false;
        }
        self.stats.record_transition();
        gls_runtime::flight::record(
            gls_runtime::flight::FlightEventKind::ModeTransition,
            self as *const _ as usize,
            (u64::from(current.as_raw()) << 8) | u64::from(target.as_raw()),
        );
        self.mode.store(target.as_raw(), Ordering::Release);
        // Maintain the blocking-lock density the Auto backend heuristic
        // reads — after publishing the mode, so a racing
        // `note_resurrected` cannot re-count a lock that is just leaving
        // blocking mode; the CAS-guarded pairing tolerates a racing
        // free/resurrect.
        if target == GlkRwMode::Blocking {
            self.enter_population();
        } else if current == GlkRwMode::Blocking {
            self.leave_population();
        }
        true
    }

    /// The adaptation policy: blocking under multiprogramming (for locks
    /// with real contention), spinning otherwise, with the same exponential
    /// calm requirement GLK uses to leave mutex mode without bouncing.
    fn decide_mode(
        &self,
        current: GlkRwMode,
        smoothed: f64,
        monitor: &gls_runtime::SystemLoadMonitor,
    ) -> GlkRwMode {
        if monitor.is_multiprogrammed() {
            return if smoothed >= self.config.min_queue_for_mutex {
                GlkRwMode::Blocking
            } else {
                GlkRwMode::Spin
            };
        }
        if current == GlkRwMode::Blocking {
            let required = self.required_calm.load(Ordering::Relaxed);
            if monitor.calm_ticks() < required {
                return GlkRwMode::Blocking;
            }
            let next = required.saturating_mul(2).min(self.config.max_calm_rounds);
            self.required_calm.store(next, Ordering::Relaxed);
        }
        GlkRwMode::Spin
    }
}

#[cfg(test)]
// Raw std sync and wall-clock sleeps are fine in stress tests: they pace
// real threads, not modeled ones (see clippy.toml).
#[allow(clippy::disallowed_types, clippy::disallowed_methods)]
mod tests {
    use super::*;
    use gls_runtime::sysload::{SystemLoadConfig, SystemLoadMonitor};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    fn fast_config() -> GlkConfig {
        GlkConfig::default()
            .with_adaptation_period(256)
            .with_sampling_period(16)
    }

    fn manual_monitor() -> Arc<SystemLoadMonitor> {
        Arc::new(SystemLoadMonitor::manual(SystemLoadConfig::default()))
    }

    #[test]
    fn starts_spinning_and_counts_acquisitions() {
        let lock = GlkRwLock::new();
        assert_eq!(lock.mode(), GlkRwMode::Spin);
        for _ in 0..50 {
            lock.read_lock();
            lock.read_unlock();
            lock.write_lock();
            lock.write_unlock();
        }
        assert_eq!(lock.acquisitions(), 100);
        assert_eq!(lock.mode(), GlkRwMode::Spin);
    }

    #[test]
    #[should_panic(expected = "powers of two")]
    fn non_power_of_two_period_rejected_at_construction() {
        let mut config = fast_config();
        config.adaptation_period = 100;
        let _ = GlkRwLock::with_config(config);
    }

    #[test]
    fn try_variants_respect_holders() {
        let lock = GlkRwLock::new();
        assert!(lock.try_read_lock());
        assert!(!lock.try_write_lock());
        lock.read_unlock();
        assert!(lock.try_write_lock());
        assert!(!lock.try_read_lock());
        assert!(!lock.try_write_lock());
        lock.write_unlock();
        assert!(!lock.is_locked());
    }

    #[test]
    fn queue_length_reports_holders() {
        let lock = GlkRwLock::new();
        assert_eq!(lock.queue_length(), 0);
        lock.read_lock();
        lock.read_lock();
        assert_eq!(lock.queue_length(), 2);
        lock.read_unlock();
        lock.read_unlock();
        assert_eq!(lock.queue_length(), 0);
    }

    #[test]
    fn switches_to_blocking_under_multiprogramming() {
        let monitor = manual_monitor();
        let hw = gls_runtime::hardware_contexts();
        let guards: Vec<_> = (0..hw * 2 + 1).map(|_| monitor.runnable_guard()).collect();
        monitor.poll_once();
        assert!(monitor.is_multiprogrammed());

        let lock = Arc::new(GlkRwLock::with_config_and_monitor(
            fast_config(),
            MonitorHandle::Custom(Arc::clone(&monitor)),
        ));
        let stop = Arc::new(AtomicBool::new(false));
        let handles: Vec<_> = (0..6)
            .map(|t| {
                let lock = Arc::clone(&lock);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        if t % 2 == 0 {
                            lock.write_lock();
                            gls_runtime::spin_cycles(300);
                            lock.write_unlock();
                        } else {
                            lock.read_lock();
                            gls_runtime::spin_cycles(300);
                            lock.read_unlock();
                        }
                    }
                })
            })
            .collect();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while lock.mode() != GlkRwMode::Blocking && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            lock.mode(),
            GlkRwMode::Blocking,
            "multiprogrammed contended rw lock must adapt to blocking (queue {:.2})",
            lock.smoothed_queue()
        );
        drop(guards);
    }

    #[test]
    fn pure_read_workload_adapts_to_blocking_under_multiprogramming() {
        // Regression test for the reader-side adaptation gap (ROADMAP PR 2):
        // with only write holders running the adaptation check, a 100%-read
        // oversubscribed workload never switches to the blocking rwlock.
        // The reader-side trigger (boundary flag + try-acquired write slot
        // on release) must flip it.
        let monitor = manual_monitor();
        let hw = gls_runtime::hardware_contexts();
        let guards: Vec<_> = (0..hw * 2 + 1).map(|_| monitor.runnable_guard()).collect();
        monitor.poll_once();
        assert!(monitor.is_multiprogrammed());

        let lock = Arc::new(GlkRwLock::with_config_and_monitor(
            fast_config(),
            MonitorHandle::Custom(Arc::clone(&monitor)),
        ));
        let stop = Arc::new(AtomicBool::new(false));
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        lock.read_lock();
                        gls_runtime::spin_cycles(300);
                        lock.read_unlock();
                    }
                })
            })
            .collect();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while lock.mode() != GlkRwMode::Blocking && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            lock.mode(),
            GlkRwMode::Blocking,
            "100%-read oversubscribed workload must adapt via the reader-side \
             trigger (smoothed queue {:.2})",
            lock.smoothed_queue()
        );
        drop(guards);
    }

    #[test]
    fn parking_backend_serves_blocking_mode() {
        use super::super::config::BlockingBackend;
        let lock = GlkRwLock::with_config(
            fast_config().with_blocking_backend(BlockingBackend::ParkingLot),
        );
        assert!(matches!(lock.blocking, BlockingRw::Parking(_)));
        // Exercise the blocking lock directly through the mode dispatchers.
        lock.blocking.read_lock(&lock.config);
        assert!(!lock.blocking.try_write_lock(&lock.config));
        lock.blocking.read_unlock(&lock.config);
        lock.blocking.write_lock(&lock.config);
        assert!(lock.blocking.is_locked());
        assert!(!lock.blocking.try_read_lock(&lock.config));
        lock.blocking.write_unlock(&lock.config);
        assert_eq!(lock.blocking.queue_length(), 0);
    }

    #[test]
    fn auto_backend_rw_roundtrip_and_migration() {
        use super::super::config::{BlockingDensity, DensityHandle};
        use std::sync::Arc;
        let density = Arc::new(BlockingDensity::new());
        let lock = GlkRwLock::with_config(
            fast_config()
                .with_blocking_backend(BlockingBackend::Auto)
                .with_blocking_density_threshold(4)
                .with_density(DensityHandle::Custom(Arc::clone(&density))),
        );
        let BlockingRw::Auto(auto) = &lock.blocking else {
            panic!("Auto config must build the auto backend");
        };
        // Low density: the first blocking use decides per-lock state.
        auto.read_lock(&density, 4);
        assert_eq!(auto.core.backend(), AUTO_PER_LOCK);
        assert!(!auto.try_write_lock(&density, 4));
        auto.read_unlock(&density, 4);
        // Raise the density past the threshold: the next write release
        // migrates the backend to the parking lot...
        for _ in 0..4 {
            density.enter();
        }
        auto.write_lock(&density, 4);
        auto.write_unlock(&density, 4);
        assert_eq!(auto.core.backend(), AUTO_PARKING);
        // ...and both sides keep excluding across the migration.
        auto.write_lock(&density, 4);
        assert!(!auto.try_read_lock(&density, 4));
        // Dropping below half the threshold migrates back on release.
        for _ in 0..4 {
            density.leave();
        }
        auto.write_unlock(&density, 4);
        assert_eq!(auto.core.backend(), AUTO_PER_LOCK);
        assert!(!auto.is_locked());
        assert_eq!(auto.queue_length(), 0);
    }

    #[test]
    fn read_only_workload_migrates_backends_in_both_directions() {
        // Regression test for the write-side-only migration trigger: with
        // migration running only in `write_unlock`, a 100%-read blocking
        // workload kept its backend until the next write arrived. A released
        // reader that wins the momentarily-exclusive write slot must fold
        // the density decision itself.
        use super::super::config::{BlockingDensity, DensityHandle};
        use std::sync::Arc;
        let density = Arc::new(BlockingDensity::new());
        let lock = GlkRwLock::with_config(
            fast_config()
                .with_blocking_backend(BlockingBackend::Auto)
                .with_blocking_density_threshold(4)
                .with_density(DensityHandle::Custom(Arc::clone(&density))),
        );
        let BlockingRw::Auto(auto) = &lock.blocking else {
            panic!("Auto config must build the auto backend");
        };
        // First blocking use under low density decides per-lock state.
        auto.read_lock(&density, 4);
        auto.read_unlock(&density, 4);
        assert_eq!(auto.core.backend(), AUTO_PER_LOCK);
        // Density crosses the threshold while only readers run: the next
        // read release must migrate to the parking lot — no writer needed.
        for _ in 0..4 {
            density.enter();
        }
        auto.read_lock(&density, 4);
        auto.read_unlock(&density, 4);
        assert_eq!(
            auto.core.backend(),
            AUTO_PARKING,
            "read release must fold the density decision"
        );
        // ...and back below half the threshold, still read-only.
        for _ in 0..4 {
            density.leave();
        }
        auto.read_lock(&density, 4);
        auto.read_unlock(&density, 4);
        assert_eq!(
            auto.core.backend(),
            AUTO_PER_LOCK,
            "read release must migrate back under the hysteresis floor"
        );
        // A concurrent holder suppresses the migration (the try-acquired
        // write slot loses): the decision is simply deferred.
        for _ in 0..4 {
            density.enter();
        }
        auto.read_lock(&density, 4);
        auto.read_lock(&density, 4);
        auto.read_unlock(&density, 4);
        assert_eq!(
            auto.core.backend(),
            AUTO_PER_LOCK,
            "a still-held read lock defers migration"
        );
        auto.read_unlock(&density, 4);
        assert_eq!(auto.core.backend(), AUTO_PARKING);
        for _ in 0..4 {
            density.leave();
        }
        assert!(!auto.is_locked());
        assert_eq!(auto.queue_length(), 0);
    }

    #[test]
    fn oversubscribed_read_only_churn_migrates_backends_live() {
        // The threaded flavor of the reader-side migration fix: more reader
        // threads than hardware contexts hammer the Auto backend while the
        // density crosses the threshold in both directions. No writer ever
        // runs, yet the backend must follow the decision within the deadline.
        use super::super::config::BlockingDensity;
        use std::sync::Arc;
        let density = Arc::new(BlockingDensity::new());
        let auto = Arc::new(AutoBlockingRw::default());
        let threshold = 4;
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..gls_runtime::hardware_contexts() + 2)
            .map(|_| {
                let auto = Arc::clone(&auto);
                let density = Arc::clone(&density);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        auto.read_lock(&density, threshold);
                        gls_runtime::spin_cycles(200);
                        auto.read_unlock(&density, threshold);
                    }
                })
            })
            .collect();
        let wait_for = |target: u8, what: &str| {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while auto.core.backend() != target && std::time::Instant::now() < deadline {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            assert_eq!(auto.core.backend(), target, "{what}");
        };
        for _ in 0..threshold {
            density.enter();
        }
        wait_for(AUTO_PARKING, "read-only churn must migrate to parking");
        for _ in 0..threshold {
            density.leave();
        }
        wait_for(AUTO_PER_LOCK, "read-only churn must migrate back");
        stop.store(true, Ordering::Relaxed);
        for h in readers {
            h.join().unwrap();
        }
        assert!(!auto.is_locked());
    }

    #[test]
    fn readers_and_writers_stay_consistent_across_mode_flips() {
        struct Shared(std::cell::UnsafeCell<(u64, u64)>);
        // SAFETY: the cell is only touched while holding the lock under
        // test; that exclusion is exactly what the test verifies.
        unsafe impl Sync for Shared {}
        // Aggressive adaptation so the test exercises the transition
        // protocol; the monitor flips multiprogramming on and off.
        let monitor = manual_monitor();
        let lock = Arc::new(GlkRwLock::with_config_and_monitor(
            GlkConfig::default()
                .with_adaptation_period(64)
                .with_sampling_period(8),
            MonitorHandle::Custom(Arc::clone(&monitor)),
        ));
        let shared = Arc::new(Shared(std::cell::UnsafeCell::new((0, 0))));
        let stop = Arc::new(AtomicBool::new(false));
        let flipper = {
            let monitor = Arc::clone(&monitor);
            let stop = Arc::clone(&stop);
            let hw = gls_runtime::hardware_contexts();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let guards: Vec<_> =
                        (0..hw * 2 + 1).map(|_| monitor.runnable_guard()).collect();
                    monitor.poll_once();
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    drop(guards);
                    monitor.poll_once();
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
            })
        };
        let writers: Vec<_> = (0..3)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    for _ in 0..5_000 {
                        lock.write_lock();
                        // SAFETY: written while holding the write lock under test.
                        unsafe {
                            (*shared.0.get()).0 += 1;
                            (*shared.0.get()).1 += 1;
                        }
                        lock.write_unlock();
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    for _ in 0..5_000 {
                        lock.read_lock();
                        // SAFETY: read under the read lock; writers are excluded.
                        let (a, b) = unsafe { *shared.0.get() };
                        assert_eq!(a, b, "reader overlapped a writer across a mode flip");
                        lock.read_unlock();
                    }
                })
            })
            .collect();
        for h in writers.into_iter().chain(readers) {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        flipper.join().unwrap();
        // SAFETY: all worker threads are joined; nothing races this read.
        assert_eq!(unsafe { (*shared.0.get()).0 }, 15_000);
    }
}
