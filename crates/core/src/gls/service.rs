//! The GLS service: mapping arbitrary addresses to lock objects.

use gls_sync::atomic::{AtomicU64, Ordering};
use gls_sync::sync::Mutex as StdMutex;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use gls_clht::{Clht, ClhtStats};
use gls_locks::LockKind;
use gls_runtime::{cycles, ThreadId};

use crate::error::GlsError;
use crate::glk::ModeTransition;

use super::cache;
use super::condvar::{GlsCondvar, WaitOutcome};
use super::config::{GlsConfig, GlsMode};
use super::debug::{DeadlockTrail, DebugState};
use super::entry::{AlgorithmLock, LockEntry};
use super::profiler::{LockProfile, ProfileReport};
use super::sampler;
use super::telemetry::{
    DeadlockTelemetry, HistogramSummary, LockTelemetry, TelemetryPublisher, TelemetrySnapshot,
};

/// Monotonic id generator so per-thread lock caches can tell services apart.
static NEXT_SERVICE_ID: AtomicU64 = AtomicU64::new(1);

/// The generic locking service (GLS).
///
/// GLS provides the classic lock interface but accepts **any address** (any
/// value, except 0/NULL) as the lock identifier; the service transparently
/// maps the address to a lock object through a CLHT hash table and a
/// per-thread lock cache. The default interface uses the adaptive GLK
/// algorithm; explicit per-algorithm interfaces are available through
/// [`GlsService::lock_with`] (paper Table 1).
///
/// # Interface summary (paper Table 1, extended with reader-writer locking)
///
/// | Interface | Methods | Entry algorithm |
/// |---|---|---|
/// | Default | [`lock`](Self::lock), [`try_lock`](Self::try_lock), [`unlock`](Self::unlock), [`guard`](Self::guard) | GLK (adaptive) |
/// | Explicit | [`lock_with`](Self::lock_with), [`try_lock_with`](Self::try_lock_with), [`unlock_with`](Self::unlock_with) | caller-chosen [`LockKind`] |
/// | Reader-writer | [`read_lock`](Self::read_lock), [`write_lock`](Self::write_lock), [`try_read_lock`](Self::try_read_lock), [`try_write_lock`](Self::try_write_lock), [`read_unlock`](Self::read_unlock), [`write_unlock`](Self::write_unlock), [`read_guard`](Self::read_guard), [`write_guard`](Self::write_guard) | GLK-RW (adaptive rw) |
/// | Condition variables | [`wait`](Self::wait), [`wait_timeout`](Self::wait_timeout) with a [`GlsCondvar`] | any mutex entry |
/// | Management | [`free`](Self::free), [`lock_count`](Self::lock_count), [`issues`](Self::issues), [`profile_report`](Self::profile_report) | — |
///
/// The rw interface shares everything the mutex interface has: address-based
/// mapping, the per-thread lock cache, profiling (queue/latency statistics)
/// and the debug mode — including deadlock detection that understands shared
/// holders (a waiting writer waits on *all* current readers). Mixing the rw
/// and mutex interfaces on one address degrades shared acquisitions of
/// non-rw entries to exclusive ones (safe, merely pessimistic); the debug
/// mode flags the mismatch.
///
/// # Example
///
/// ```
/// use gls::GlsService;
///
/// let service = GlsService::new();
/// let account_balance = 100u64; // any object can act as the lock identity
///
/// service.lock(&account_balance).unwrap();
/// // ... critical section protecting the balance ...
/// service.unlock(&account_balance).unwrap();
///
/// // Or, RAII style:
/// {
///     let _guard = service.guard(&account_balance).unwrap();
///     // critical section
/// }
/// ```
#[derive(Debug)]
pub struct GlsService {
    id: u64,
    table: Clht,
    config: GlsConfig,
    debug: DebugState,
    /// Entries removed via `free`, kept allocated until the service is
    /// dropped so concurrent (buggy) users can never observe freed memory,
    /// and resurrected as-is when the same address is re-created so
    /// lock/free churn does not leak. The map doubles as the
    /// **pending-free marker**: `free` publishes the entry here *before*
    /// removing it from the table (and a resurrecting create clears the
    /// stale marker only *after* re-publishing the entry in the table), so
    /// a release path that misses the table is deterministically guaranteed
    /// to find the entry here — there is no remove→park window and the
    /// release paths never sleep. Invalidation of per-thread cache slots is
    /// *precise*: `free` bumps only the freed entry's epoch (see
    /// `LockEntry::epoch`), so no other address's cached mapping is
    /// disturbed anywhere in the process.
    retired: StdMutex<RetiredSet>,
}

/// A pending-free marker / parked allocation: the entry pointer plus the
/// (live, even) epoch the claiming `free` observed. The epoch stamp lets a
/// resurrecting create distinguish its own stale marker (strictly older
/// than the resurrected epoch) from a fresh marker published by the *next*
/// free of the same address.
#[derive(Debug, Clone, Copy)]
struct PendingFree {
    ptr: usize,
    epoch: u64,
}

/// The parked allocations of freed addresses.
#[derive(Debug, Default)]
struct RetiredSet {
    /// addr → pending-free record, one per freed (or mid-free) address;
    /// `entry_for` resurrects from here, keyed lookups so free/recreate
    /// churn over many addresses stays O(1) per operation.
    parked: HashMap<usize, PendingFree>,
    /// Defensive holding pen for allocations displaced from `parked`.
    /// With the pending-free protocol the per-address allocation is stable
    /// (a create always resurrects the parked entry — the marker is
    /// published before the address is ever unmapped — so no duplicate
    /// allocation can arise); entries land here only if that invariant is
    /// ever violated, and are reclaimed when the service drops.
    displaced: Vec<usize>,
}

impl Default for GlsService {
    fn default() -> Self {
        Self::new()
    }
}

impl GlsService {
    /// Creates a service with the default configuration (GLK locks, normal
    /// mode). This is the Rust equivalent of `gls_init()`.
    pub fn new() -> Self {
        Self::with_config(GlsConfig::default())
    }

    /// Creates a service with a custom configuration.
    pub fn with_config(mut config: GlsConfig) -> Self {
        // The blocking-backend heuristic reads the live count of *this
        // service's* blocking-mode locks: give the service its own density
        // tracker unless the caller wired a custom one.
        if matches!(config.glk.density, crate::glk::DensityHandle::Global) {
            config.glk.density = crate::glk::DensityHandle::Custom(std::sync::Arc::new(
                crate::glk::BlockingDensity::new(),
            ));
        }
        Self {
            id: NEXT_SERVICE_ID.fetch_add(1, Ordering::Relaxed),
            table: Clht::with_capacity(config.initial_capacity),
            config,
            debug: DebugState::new(),
            retired: StdMutex::new(RetiredSet::default()),
        }
    }

    /// The process-wide default service used by the free-function interface.
    pub fn global() -> &'static GlsService {
        static GLOBAL: OnceLock<GlsService> = OnceLock::new();
        GLOBAL.get_or_init(GlsService::new)
    }

    /// The configuration this service runs with.
    pub fn config(&self) -> &GlsConfig {
        &self.config
    }

    /// Converts a reference into the address key GLS uses internally.
    pub fn address_of<T: ?Sized>(m: &T) -> usize {
        m as *const T as *const () as usize
    }

    // ------------------------------------------------------------------
    // Default interface (gls_lock / gls_trylock / gls_unlock)
    // ------------------------------------------------------------------

    /// Acquires the lock associated with the address of `m`, creating it on
    /// first use with the service's default algorithm (GLK unless
    /// reconfigured).
    ///
    /// # Errors
    ///
    /// In debug mode, returns the detected issue (double locking, deadlock)
    /// without acquiring. In normal and profile mode this never fails.
    pub fn lock<T: ?Sized>(&self, m: &T) -> Result<(), GlsError> {
        self.lock_addr(Self::address_of(m))
    }

    /// [`GlsService::lock`] for a raw address (e.g. `gls_lock(17)`).
    #[inline]
    pub fn lock_addr(&self, addr: usize) -> Result<(), GlsError> {
        self.lock_impl(addr, self.config.default_kind)
    }

    /// Attempts to acquire the lock associated with `m` without waiting.
    ///
    /// # Errors
    ///
    /// In debug mode, returns the detected issue (e.g. double locking).
    pub fn try_lock<T: ?Sized>(&self, m: &T) -> Result<bool, GlsError> {
        self.try_lock_addr(Self::address_of(m))
    }

    /// [`GlsService::try_lock`] for a raw address.
    pub fn try_lock_addr(&self, addr: usize) -> Result<bool, GlsError> {
        self.try_lock_impl(addr, self.config.default_kind)
    }

    /// Releases the lock associated with `m`.
    ///
    /// # Errors
    ///
    /// Returns [`GlsError::UninitializedLock`] if the address was never
    /// locked; in debug mode additionally detects releasing a free lock and
    /// releasing a lock owned by another thread.
    pub fn unlock<T: ?Sized>(&self, m: &T) -> Result<(), GlsError> {
        self.unlock_addr(Self::address_of(m))
    }

    /// [`GlsService::unlock`] for a raw address.
    #[inline]
    pub fn unlock_addr(&self, addr: usize) -> Result<(), GlsError> {
        self.unlock_impl(addr, None)
    }

    // ------------------------------------------------------------------
    // Explicit per-algorithm interface (gls_A_lock / gls_A_unlock)
    // ------------------------------------------------------------------

    /// Acquires the lock for `addr`, creating it with algorithm `kind` if it
    /// does not exist yet.
    ///
    /// # Errors
    ///
    /// Same as [`GlsService::lock`].
    pub fn lock_with(&self, kind: LockKind, addr: usize) -> Result<(), GlsError> {
        self.lock_impl(addr, kind)
    }

    /// Attempts to acquire the lock for `addr` using algorithm `kind`.
    ///
    /// # Errors
    ///
    /// Same as [`GlsService::try_lock`].
    pub fn try_lock_with(&self, kind: LockKind, addr: usize) -> Result<bool, GlsError> {
        self.try_lock_impl(addr, kind)
    }

    /// Releases the lock for `addr`, checking (in debug mode) that it was
    /// created with algorithm `kind`.
    ///
    /// # Errors
    ///
    /// Same as [`GlsService::unlock`].
    pub fn unlock_with(&self, kind: LockKind, addr: usize) -> Result<(), GlsError> {
        self.unlock_impl(addr, Some(kind))
    }

    // ------------------------------------------------------------------
    // RAII interface
    // ------------------------------------------------------------------

    /// Acquires the lock for `m` and returns a guard that releases it when
    /// dropped.
    ///
    /// # Errors
    ///
    /// Same as [`GlsService::lock`].
    pub fn guard<'a, T: ?Sized>(&'a self, m: &T) -> Result<GlsGuard<'a>, GlsError> {
        self.guard_addr(Self::address_of(m))
    }

    /// [`GlsService::guard`] for a raw address.
    pub fn guard_addr(&self, addr: usize) -> Result<GlsGuard<'_>, GlsError> {
        self.lock_addr(addr)?;
        Ok(GlsGuard {
            service: self,
            addr,
        })
    }

    // ------------------------------------------------------------------
    // Reader-writer interface (gls_read_lock / gls_write_lock / ...)
    // ------------------------------------------------------------------

    /// Acquires shared (read) access to the lock associated with `m`,
    /// creating an adaptive reader-writer entry on first use.
    ///
    /// # Errors
    ///
    /// In debug mode, returns the detected issue (double locking, deadlock)
    /// without acquiring. In normal and profile mode this never fails.
    pub fn read_lock<T: ?Sized>(&self, m: &T) -> Result<(), GlsError> {
        self.read_lock_addr(Self::address_of(m))
    }

    /// [`GlsService::read_lock`] for a raw address.
    pub fn read_lock_addr(&self, addr: usize) -> Result<(), GlsError> {
        self.read_lock_impl(addr)
    }

    /// Acquires exclusive (write) access to the lock associated with `m`,
    /// creating an adaptive reader-writer entry on first use.
    ///
    /// # Errors
    ///
    /// Same as [`GlsService::read_lock`].
    pub fn write_lock<T: ?Sized>(&self, m: &T) -> Result<(), GlsError> {
        self.write_lock_addr(Self::address_of(m))
    }

    /// [`GlsService::write_lock`] for a raw address.
    pub fn write_lock_addr(&self, addr: usize) -> Result<(), GlsError> {
        // Exclusive access on an rw entry *is* the classic lock operation,
        // so the write side reuses the whole lock/profile/debug machinery.
        self.lock_impl(addr, LockKind::Rw)
    }

    /// Attempts to acquire shared access without waiting.
    ///
    /// # Errors
    ///
    /// In debug mode, returns the detected issue (e.g. double locking).
    pub fn try_read_lock<T: ?Sized>(&self, m: &T) -> Result<bool, GlsError> {
        self.try_read_lock_addr(Self::address_of(m))
    }

    /// [`GlsService::try_read_lock`] for a raw address.
    pub fn try_read_lock_addr(&self, addr: usize) -> Result<bool, GlsError> {
        self.try_read_lock_impl(addr)
    }

    /// Attempts to acquire exclusive access without waiting.
    ///
    /// # Errors
    ///
    /// Same as [`GlsService::try_read_lock`].
    pub fn try_write_lock<T: ?Sized>(&self, m: &T) -> Result<bool, GlsError> {
        self.try_write_lock_addr(Self::address_of(m))
    }

    /// [`GlsService::try_write_lock`] for a raw address.
    pub fn try_write_lock_addr(&self, addr: usize) -> Result<bool, GlsError> {
        self.try_lock_impl(addr, LockKind::Rw)
    }

    /// Releases shared access to the lock associated with `m`.
    ///
    /// # Errors
    ///
    /// Returns [`GlsError::UninitializedLock`] if the address was never
    /// locked; in debug mode additionally detects releasing shared access
    /// the calling thread does not hold.
    pub fn read_unlock<T: ?Sized>(&self, m: &T) -> Result<(), GlsError> {
        self.read_unlock_addr(Self::address_of(m))
    }

    /// [`GlsService::read_unlock`] for a raw address.
    pub fn read_unlock_addr(&self, addr: usize) -> Result<(), GlsError> {
        self.read_unlock_impl(addr)
    }

    /// Releases exclusive access to the lock associated with `m`.
    ///
    /// # Errors
    ///
    /// Same as [`GlsService::unlock`].
    pub fn write_unlock<T: ?Sized>(&self, m: &T) -> Result<(), GlsError> {
        self.write_unlock_addr(Self::address_of(m))
    }

    /// [`GlsService::write_unlock`] for a raw address.
    pub fn write_unlock_addr(&self, addr: usize) -> Result<(), GlsError> {
        self.unlock_impl(addr, None)
    }

    /// Acquires shared access to `m` and returns a guard releasing it on
    /// drop.
    ///
    /// # Errors
    ///
    /// Same as [`GlsService::read_lock`].
    pub fn read_guard<'a, T: ?Sized>(&'a self, m: &T) -> Result<GlsReadGuard<'a>, GlsError> {
        self.read_guard_addr(Self::address_of(m))
    }

    /// [`GlsService::read_guard`] for a raw address.
    pub fn read_guard_addr(&self, addr: usize) -> Result<GlsReadGuard<'_>, GlsError> {
        self.read_lock_addr(addr)?;
        Ok(GlsReadGuard {
            service: self,
            addr,
        })
    }

    /// Acquires exclusive access to `m` and returns a guard releasing it on
    /// drop.
    ///
    /// # Errors
    ///
    /// Same as [`GlsService::write_lock`].
    pub fn write_guard<'a, T: ?Sized>(&'a self, m: &T) -> Result<GlsWriteGuard<'a>, GlsError> {
        self.write_guard_addr(Self::address_of(m))
    }

    /// [`GlsService::write_guard`] for a raw address.
    pub fn write_guard_addr(&self, addr: usize) -> Result<GlsWriteGuard<'_>, GlsError> {
        self.write_lock_addr(addr)?;
        Ok(GlsWriteGuard {
            service: self,
            addr,
        })
    }

    // ------------------------------------------------------------------
    // Condition variables (gls_wait / gls_wait_timeout)
    // ------------------------------------------------------------------

    /// Atomically releases the GLS mutex associated with `m` and parks the
    /// calling thread on `cv` until notified, then re-acquires the mutex
    /// before returning. The caller must hold the mutex; always re-check
    /// the waited-on predicate in a loop (spurious wakeups are possible).
    ///
    /// In debug mode the sleeper is invisible to the deadlock detector (it
    /// owns nothing and publishes no waits-for edge while parked), so a
    /// condvar wait can never produce a phantom deadlock report; only the
    /// re-acquisition runs the ordinary deadlock-checked lock path. In
    /// profile mode the re-acquisition is profiled like any lock call.
    ///
    /// # Errors
    ///
    /// In debug mode, returns [`GlsError::WrongOwner`] or
    /// [`GlsError::ReleaseFreeLock`] (recorded in the issue log) when the
    /// calling thread does not hold the mutex — waiting with a lock you do
    /// not own is the same class of bug as releasing one. Errors from the
    /// re-acquisition are propagated.
    pub fn wait<T: ?Sized>(&self, cv: &GlsCondvar, m: &T) -> Result<(), GlsError> {
        self.wait_addr(cv, Self::address_of(m))
    }

    /// [`GlsService::wait`] for a raw address.
    pub fn wait_addr(&self, cv: &GlsCondvar, addr: usize) -> Result<(), GlsError> {
        self.wait_impl(cv, addr, None).map(|_| ())
    }

    /// Like [`GlsService::wait`], but gives up after `timeout` and reports
    /// which way the wait ended. The mutex is re-acquired either way.
    ///
    /// # Errors
    ///
    /// Same as [`GlsService::wait`].
    pub fn wait_timeout<T: ?Sized>(
        &self,
        cv: &GlsCondvar,
        m: &T,
        timeout: Duration,
    ) -> Result<WaitOutcome, GlsError> {
        self.wait_timeout_addr(cv, Self::address_of(m), timeout)
    }

    /// [`GlsService::wait_timeout`] for a raw address.
    pub fn wait_timeout_addr(
        &self,
        cv: &GlsCondvar,
        addr: usize,
        timeout: Duration,
    ) -> Result<WaitOutcome, GlsError> {
        self.wait_impl(cv, addr, Some(timeout))
    }

    fn wait_impl(
        &self,
        cv: &GlsCondvar,
        addr: usize,
        timeout: Option<Duration>,
    ) -> Result<WaitOutcome, GlsError> {
        // Debug mode checks ownership *before* parking: once enqueued the
        // unlock must not fail, or the thread would sleep still holding the
        // mutex it promised to release.
        if self.config.mode == GlsMode::Debug {
            let me = ThreadId::current();
            match self.find_entry(addr).and_then(|e| e.owner()) {
                Some(owner) if owner == me => {}
                Some(owner) => {
                    let issue = GlsError::WrongOwner {
                        addr,
                        owner,
                        caller: me,
                    };
                    self.debug.record(issue.clone());
                    return Err(issue);
                }
                None => {
                    let issue = GlsError::ReleaseFreeLock { addr };
                    self.debug.record(issue.clone());
                    return Err(issue);
                }
            }
        }
        let mut relock_result = Ok(());
        // The mutex is released in `before_sleep`, i.e. *after* the waiter
        // is enqueued under the condvar's address: a notifier that acquires
        // the mutex after this release is guaranteed to see the waiter.
        let outcome = cv.wait_with(
            || {
                let _ = self.unlock_addr(addr);
            },
            || relock_result = self.lock_addr(addr),
            timeout,
        );
        relock_result.map(|()| outcome)
    }

    /// Notifies one waiter of `cv`, requeueing it directly onto the mutex
    /// associated with `m` when that mutex currently blocks through the
    /// shared parking lot and is held: the waiter then skips the
    /// wake-then-block hop and is woken straight by the mutex's release.
    /// Falls back to a plain [`GlsCondvar::notify_one`] for mutexes with
    /// per-lock blocking state (nothing to requeue onto) or a free mutex
    /// (the waiter can take it immediately). Returns whether a waiter was
    /// notified.
    pub fn notify_one<T: ?Sized>(&self, cv: &GlsCondvar, m: &T) -> bool {
        self.notify_one_addr(cv, Self::address_of(m))
    }

    /// [`GlsService::notify_one`] for a raw address.
    pub fn notify_one_addr(&self, cv: &GlsCondvar, addr: usize) -> bool {
        match self.find_entry(addr).and_then(|e| e.park_addr()) {
            // SAFETY: the park address belongs to this entry's futex word;
            // entry allocations are never reclaimed while the service
            // lives (see `entry_ref`), so the word outlives the call. The
            // revalidation (under the bucket locks) re-resolves the park
            // address so a waiter is never requeued onto a word the mutex
            // stopped parking under (backend migration, mode change).
            Some(target) => unsafe {
                cv.notify_one_requeue(target, || {
                    self.find_entry(addr).and_then(|e| e.park_addr()) == Some(target)
                })
            },
            None => cv.notify_one(),
        }
    }

    /// Notifies every waiter of `cv`, requeueing them onto the mutex
    /// associated with `m` when it is futex-backed (wait-morphing
    /// broadcast: the mutex's successive releases wake them one at a time,
    /// with no thundering herd re-contending the mutex). Returns how many
    /// waiters were notified.
    pub fn notify_all<T: ?Sized>(&self, cv: &GlsCondvar, m: &T) -> usize {
        self.notify_all_addr(cv, Self::address_of(m))
    }

    /// [`GlsService::notify_all`] for a raw address.
    pub fn notify_all_addr(&self, cv: &GlsCondvar, addr: usize) -> usize {
        match self.find_entry(addr).and_then(|e| e.park_addr()) {
            // SAFETY: as in `notify_one_addr` — the futex word lives as
            // long as the service, and the revalidation closes the stale
            // -address race.
            Some(target) => unsafe {
                cv.notify_all_requeue(target, || {
                    self.find_entry(addr).and_then(|e| e.park_addr()) == Some(target)
                })
            },
            None => cv.notify_all(),
        }
    }

    // ------------------------------------------------------------------
    // Management, debugging, profiling
    // ------------------------------------------------------------------

    /// Removes the lock object for `m` from the service (`gls_free`).
    /// Returns `true` if a lock object existed.
    pub fn free<T: ?Sized>(&self, m: &T) -> bool {
        self.free_addr(Self::address_of(m))
    }

    /// [`GlsService::free`] for a raw address.
    ///
    /// The free runs the **pending-free protocol**: the entry is published
    /// in the retired map (the pending-free marker) and its epoch is
    /// retired *before* the address is unmapped from the table, all under
    /// the retired mutex. The epoch-parity check under that mutex makes
    /// one free the unique claimant per live cycle (a concurrent free of
    /// the same address observes the odd epoch and reports `false`), and
    /// the marker-before-remove order means a release path that misses the
    /// table always finds the entry in the marker map — deterministically,
    /// with no remove→park window and no sleeps anywhere (see
    /// `entry_for_release`).
    pub fn free_addr(&self, addr: usize) -> bool {
        let Some(ptr) = self.table.get(addr) else {
            return false;
        };
        let entry = Self::entry_ref(ptr);
        {
            let Ok(mut retired) = self.retired.lock() else {
                return false;
            };
            let epoch = entry.epoch();
            if !LockEntry::epoch_is_live(epoch) {
                // A concurrent free already claimed this cycle (and does —
                // or did — the table removal).
                return false;
            }
            // Precise invalidation: bump only *this* entry's epoch. Any
            // per-thread cache slot holding this mapping fails its next
            // epoch validation and drops itself; cached mappings for every
            // other address — on every thread — stay hot. The allocation
            // itself is never reclaimed (or reinitialized) while the
            // service lives: it is parked here and resurrected as-is if
            // the same address is re-created (see `entry_for`), so racing
            // users never observe freed or repurposed memory, and a holder
            // caught by a racing free still releases through the marker.
            entry.retire();
            if let Some(previous) = retired.parked.insert(addr, PendingFree { ptr, epoch }) {
                if previous.ptr != ptr {
                    // Defensive only: per-address allocations are stable
                    // under the pending-free protocol, so a previous marker
                    // can only name the same pointer (re-stamped epoch).
                    retired.displaced.push(previous.ptr);
                }
            }
        }
        // A retired lock serves no traffic: drop it from the live
        // blocking-lock population the Auto backend heuristic reads
        // (re-entered on resurrection; CAS-guarded against a racing
        // holder's adaptation).
        entry.lock.note_retired();
        // The claimant's removal cannot miss: every other free of this
        // cycle bailed on the odd epoch above, and a re-create cannot run
        // until the address is unmapped (`put_if_absent` holds the bucket
        // lock across its existence check and insert).
        let removed = self.table.remove(addr);
        debug_assert_eq!(removed, Some(ptr), "pending-free claimant lost its removal");
        true
    }

    /// Number of retired (freed, not yet resurrected) lock entries parked in
    /// the service: one per freed address that has not been re-created.
    /// Lock/free churn over a working set of addresses therefore stays
    /// bounded by that working set instead of growing per free.
    pub fn retired_count(&self) -> usize {
        self.retired
            .lock()
            .map(|r| r.parked.len() + r.displaced.len())
            .unwrap_or(0)
    }

    /// Number of lock objects currently managed by the service.
    pub fn lock_count(&self) -> usize {
        self.table.len()
    }

    /// Number of this service's locks currently operating in a blocking
    /// mode (GLK mutex mode, GLK-RW blocking mode). This is the density
    /// signal the [`BlockingBackend::Auto`](crate::glk::BlockingBackend)
    /// heuristic reads to migrate blocking state between per-lock
    /// `Mutex + Condvar` pairs and the shared parking lot.
    pub fn blocking_lock_count(&self) -> usize {
        self.config.glk.density.density().live()
    }

    /// Issues detected so far (debug mode).
    pub fn issues(&self) -> Vec<GlsError> {
        self.debug.issues()
    }

    /// Total candidate deadlock cycles produced by debug-mode detection
    /// walks so far — confirmed *and* phantom. A high rate with an empty
    /// issue log means the workload keeps assembling phantom cycles
    /// (adversarial churn) and paying confirmation waits; the coalescing of
    /// same-cycle confirmations bounds each cycle's cost at one grace
    /// period regardless of this rate.
    pub fn deadlock_candidates(&self) -> u64 {
        self.debug.candidate_count()
    }

    /// Clears the recorded issues.
    pub fn clear_issues(&self) {
        self.debug.clear_issues();
    }

    /// Statistics of the underlying address → lock table.
    pub fn table_stats(&self) -> ClhtStats {
        self.table.stats()
    }

    /// Builds a profiler report over every lock object (meaningful when the
    /// service runs in [`GlsMode::Profile`]).
    pub fn profile_report(&self) -> ProfileReport {
        let mut locks = Vec::new();
        self.table.for_each(|_, ptr| {
            let entry = Self::entry_ref(ptr);
            // Fold the per-thread stat shards (profile mode) and the base
            // stats (debug mode) into one profile per lock.
            let totals = entry.profile_totals();
            locks.push(LockProfile {
                addr: entry.addr,
                algorithm: entry.lock.kind(),
                acquisitions: totals.acquisitions,
                avg_queue: totals.avg_queue(),
                avg_lock_latency: totals.avg_lock_latency(),
                avg_cs_latency: totals.avg_cs_latency(),
            });
        });
        ProfileReport::new(locks)
    }

    /// Collects the GLK mode transitions of every adaptive lock (only
    /// populated when the GLK configuration enables transition recording).
    pub fn glk_transitions(&self) -> Vec<(usize, Vec<ModeTransition>)> {
        let mut out = Vec::new();
        self.table.for_each(|addr, ptr| {
            let entry = Self::entry_ref(ptr);
            if let Some(glk) = entry.lock.as_glk() {
                let transitions = glk.transitions();
                if !transitions.is_empty() {
                    out.push((addr, transitions));
                }
            }
        });
        out
    }

    /// Flight-recorder trails dumped by confirmed deadlocks (debug mode):
    /// one per confirmed cycle, holding the confirming thread's most recent
    /// lock events. Empty until a deadlock has been confirmed.
    pub fn deadlock_trails(&self) -> Vec<DeadlockTrail> {
        self.debug.trails()
    }

    /// Captures a [`TelemetrySnapshot`]: per-lock profiles with latency
    /// distributions, cache/parking/cohort/migration counters and
    /// deadlock-detector activity. Cheap enough to call periodically — one
    /// table walk plus relaxed counter reads; concurrent updates may or may
    /// not be included (the same racy-snapshot semantics every report here
    /// has).
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        let mut locks = Vec::new();
        let mut glk_transitions = 0;
        self.table.for_each(|_, ptr| {
            let entry = Self::entry_ref(ptr);
            let totals = entry.profile_totals();
            let transitions = entry.lock.transition_count();
            glk_transitions += transitions;
            locks.push(LockTelemetry {
                addr: entry.addr,
                algorithm: entry.lock.kind(),
                acquisitions: totals.acquisitions,
                avg_queue: totals.avg_queue(),
                avg_lock_latency: totals.avg_lock_latency(),
                avg_cs_latency: totals.avg_cs_latency(),
                lock_latency: HistogramSummary::of(&entry.lock_latency_histogram()),
                cs_latency: HistogramSummary::of(&entry.cs_latency_histogram()),
                transitions,
            });
        });
        locks.sort_by(|a, b| {
            b.avg_queue
                .partial_cmp(&a.avg_queue)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let confirmed = self
            .debug
            .issues()
            .iter()
            .filter(|i| matches!(i, GlsError::Deadlock { .. }))
            .count() as u64;
        TelemetrySnapshot {
            mode: self.config.mode,
            sampling_budget: self.config.sampling_budget,
            lock_count: self.lock_count(),
            retired_count: self.retired_count(),
            locks,
            cache: cache::aggregated_cache_stats(),
            parking_lot: gls_locks::ParkingLot::global().stats(),
            cohort: gls_locks::cohort_stats(),
            auto_migrations: crate::glk::auto_migration_stats(),
            glk_transitions,
            deadlock: DeadlockTelemetry {
                candidates: self.debug.candidate_count(),
                confirmed,
            },
        }
    }

    /// Spawns a background thread that publishes a fresh
    /// [`TelemetrySnapshot`] to `sink` every `interval`. The returned
    /// handle stops and joins the thread when dropped (or via
    /// [`TelemetryPublisher::stop`]).
    pub fn spawn_telemetry_publisher(
        self: &Arc<Self>,
        interval: Duration,
        sink: impl FnMut(&TelemetrySnapshot) + Send + 'static,
    ) -> TelemetryPublisher {
        TelemetryPublisher::spawn(Arc::clone(self), interval, sink)
    }

    /// The lock algorithm currently associated with `addr`, if any.
    pub fn algorithm_of(&self, addr: usize) -> Option<LockKind> {
        self.find_entry(addr).map(|e| e.lock.kind())
    }

    /// The thread currently recorded as owner of `addr` (debug mode only).
    pub fn owner_of(&self, addr: usize) -> Option<ThreadId> {
        self.find_entry(addr).and_then(|e| e.owner())
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn entry_ref<'a>(ptr: usize) -> &'a LockEntry {
        // SAFETY: entry allocations are only reclaimed when the service is
        // dropped — free() retires the entry and entry_for() resurrects it
        // untouched for the same address; neither deallocates or rewrites —
        // so any pointer obtained from the table or the cache stays valid
        // for the service lifetime, which outlives every `&self` borrow
        // handing it out.
        unsafe { &*(ptr as *const LockEntry) }
    }

    /// Probes the calling thread's lock cache for `addr`. A candidate slot
    /// is validated against the entry's **own** liveness epoch, read at hit
    /// time: the token travels with the entry, so there is no window in
    /// which a racing `free` can slip between a stale validity check and
    /// the cached deref. The whole hit path is load → compare → deref →
    /// load → compare — no atomic read-modify-write, no shared store.
    #[inline]
    fn cache_probe(&self, addr: usize) -> Option<&LockEntry> {
        if !self.config.lock_cache {
            return None;
        }
        cache::lookup(self.id, addr, |ptr, cached_epoch| {
            Self::entry_ref(ptr).epoch() == cached_epoch
        })
        .map(Self::entry_ref)
    }

    /// Caches `addr → entry`, stamping the epoch observed *after* the entry
    /// was obtained from the table. If the entry was retired in the
    /// meantime (odd epoch), nothing is cached: a slot must never hold a
    /// mapping that was already stale when it was stored.
    #[inline]
    fn cache_insert(&self, addr: usize, ptr: usize) {
        if !self.config.lock_cache {
            return;
        }
        let epoch = Self::entry_ref(ptr).epoch();
        if LockEntry::epoch_is_live(epoch) {
            cache::store(self.id, addr, ptr, epoch);
        }
    }

    /// Finds the entry for `addr` without creating it.
    #[inline]
    fn find_entry(&self, addr: usize) -> Option<&LockEntry> {
        if let Some(entry) = self.cache_probe(addr) {
            return Some(entry);
        }
        let ptr = self.table.get(addr)?;
        self.cache_insert(addr, ptr);
        Some(Self::entry_ref(ptr))
    }

    /// Finds the pending-free / retired entry for `addr`, if one is
    /// published. Used by the release paths so a `free` racing with a lock
    /// holder can never strand the holder: its release still lands on the
    /// marked entry.
    fn pending_entry(&self, addr: usize) -> Option<&LockEntry> {
        self.retired
            .lock()
            .ok()
            .and_then(|retired| retired.parked.get(&addr).map(|pending| pending.ptr))
            .map(Self::entry_ref)
    }

    /// Resolves `addr` for a release: the live entry, or the one a racing
    /// (or completed) `free` published as a pending-free marker. The
    /// marker protocol makes this **deterministic and sleep-free**: a free
    /// publishes the marker *before* unmapping the table entry, and a
    /// resurrecting create clears the stale marker only *after*
    /// re-publishing the entry — so at every instant a created-and-not
    /// -freed-forever address is findable in the table or in the marker
    /// map. A table miss followed by a marker miss can therefore only mean
    /// "genuinely uninitialized" or "resurrected between the two probes";
    /// the final table re-check distinguishes them, and each loop
    /// iteration requires another full free+re-create cycle to have
    /// interleaved — progress is bounded by the application's own churn,
    /// never by the scheduler.
    fn entry_for_release(&self, addr: usize) -> Option<&LockEntry> {
        loop {
            if let Some(entry) = self.find_entry(addr) {
                return Some(entry);
            }
            if let Some(entry) = self.pending_entry(addr) {
                return Some(entry);
            }
            // Genuinely uninitialized unless the entry was resurrected
            // between the probes — then the table has it and the next
            // iteration finds it.
            self.table.get(addr)?;
        }
    }

    /// Finds or creates the entry for `addr` using algorithm `kind`.
    #[inline]
    fn entry_for(&self, addr: usize, kind: LockKind) -> &LockEntry {
        assert_ne!(addr, 0, "GLS does not accept NULL (address 0) as a lock");
        if let Some(entry) = self.cache_probe(addr) {
            return entry;
        }
        let mut resurrected = false;
        let ptr = self.table.put_if_absent(addr, || {
            // Resurrect the retired entry for this address if one exists:
            // the entry is reinserted *untouched* except for its liveness
            // epoch (its allocation is never dropped or rewritten while the
            // service lives, so even a racing user — or the deadlock
            // detector's owner walk — holding a stale pointer only ever
            // sees a valid entry for this address). This keeps lock/free
            // churn at a bounded footprint: repeated cycles reuse the same
            // allocation instead of leaking one per free. The marker is
            // only *peeked*, not removed — it keeps covering releases that
            // race this resurrection until the entry is back in the table;
            // the stale marker is cleared after `put_if_absent` returns.
            // Note the algorithm chosen at first creation is resurrected
            // with it; as with `put_if_absent` generally, the first
            // creation of an address wins and debug mode flags kind
            // mismatches.
            let recycled = self
                .retired
                .lock()
                .ok()
                .and_then(|retired| retired.parked.get(&addr).map(|pending| pending.ptr));
            match recycled {
                Some(ptr) => {
                    // Back to even *before* the pointer is re-published, so
                    // no thread can cache the entry mid-transition. The
                    // factory runs at most once per key (under the table's
                    // bucket lock), so resurrection cannot double-run.
                    let entry = Self::entry_ref(ptr);
                    entry.resurrect();
                    // A lock that retired in a blocking mode rejoins the
                    // live blocking population.
                    entry.lock.note_resurrected();
                    resurrected = true;
                    ptr
                }
                None => {
                    let lock = AlgorithmLock::new(kind, &self.config.glk, &self.config.monitor);
                    Box::into_raw(Box::new(LockEntry::new(addr, lock))) as usize
                }
            }
        });
        if resurrected {
            self.clear_stale_marker(addr, ptr);
        }
        self.cache_insert(addr, ptr);
        Self::entry_ref(ptr)
    }

    /// After a resurrection re-published `ptr` in the table, clears the
    /// now-stale pending-free marker — but only if it is *provably* stale:
    /// same allocation, entry currently live, and the marker's epoch stamp
    /// strictly older than the entry's (a fresh marker published by the
    /// *next* free of this address carries the resurrected epoch or newer,
    /// or finds the entry already retired again — both kept).
    fn clear_stale_marker(&self, addr: usize, ptr: usize) {
        if let Ok(mut retired) = self.retired.lock() {
            let current = Self::entry_ref(ptr).epoch();
            let stale = retired.parked.get(&addr).is_some_and(|pending| {
                pending.ptr == ptr && LockEntry::epoch_is_live(current) && pending.epoch < current
            });
            if stale {
                retired.parked.remove(&addr);
            }
        }
    }

    #[inline]
    fn lock_impl(&self, addr: usize, kind: LockKind) -> Result<(), GlsError> {
        let entry = self.entry_for(addr, kind);
        match self.config.mode {
            GlsMode::Normal => {
                entry.lock.lock();
                Ok(())
            }
            GlsMode::Profile => {
                // All statistics go to the calling thread's cache-padded
                // shard: contended acquirers no longer serialize on a
                // shared stat cacheline before even reaching the lock word.
                let shards = entry.profile_shards();
                let slot = shards.slot();
                if sampler::should_sample(self.config.sampling_budget) {
                    slot.record_queue_sample(entry.lock.queue_length());
                    let start = cycles::now();
                    entry.lock.lock();
                    let acquired = cycles::now();
                    let waited = acquired.wrapping_sub(start);
                    slot.record_lock_latency(waited);
                    shards.record_lock_latency_hist(waited);
                    // Fresh stamp *after* the latency bookkeeping: the
                    // critical-section measurement must not include the
                    // recording work above, which is warm when every
                    // acquisition is measured but cold (and several times
                    // slower) at 1-in-N sampling — a systematic bias the
                    // sampling-fidelity test catches.
                    entry.stamp_acquired(cycles::now());
                } else {
                    // Unmeasured acquisition: no cycle reads, no queue
                    // probe, no stamp (so the matching release also skips
                    // its cycle read) — but the count stays exact.
                    entry.lock.lock();
                }
                slot.record_acquisition();
                Ok(())
            }
            GlsMode::Debug => self.debug_acquire(entry, addr, kind, false),
        }
    }

    fn read_lock_impl(&self, addr: usize) -> Result<(), GlsError> {
        let entry = self.entry_for(addr, LockKind::Rw);
        match self.config.mode {
            GlsMode::Normal => {
                entry.lock.read_lock();
                Ok(())
            }
            GlsMode::Profile => {
                let shards = entry.profile_shards();
                let slot = shards.slot();
                if sampler::should_sample(self.config.sampling_budget) {
                    slot.record_queue_sample(entry.lock.queue_length());
                    let start = cycles::now();
                    entry.lock.read_lock();
                    let acquired = cycles::now();
                    let waited = acquired.wrapping_sub(start);
                    slot.record_lock_latency(waited);
                    shards.record_lock_latency_hist(waited);
                    // No critical-section stamp: shared holders overlap, and
                    // two readers may share a stat shard, so their sections
                    // are not individually timed.
                } else {
                    entry.lock.read_lock();
                }
                slot.record_acquisition();
                Ok(())
            }
            GlsMode::Debug => self.debug_acquire(entry, addr, LockKind::Rw, true),
        }
    }

    fn try_read_lock_impl(&self, addr: usize) -> Result<bool, GlsError> {
        let entry = self.entry_for(addr, LockKind::Rw);
        match self.config.mode {
            GlsMode::Normal => Ok(entry.lock.try_read_lock()),
            GlsMode::Profile => {
                let shards = entry.profile_shards();
                let slot = shards.slot();
                if sampler::should_sample(self.config.sampling_budget) {
                    slot.record_queue_sample(entry.lock.queue_length());
                    let start = cycles::now();
                    let acquired = entry.lock.try_read_lock();
                    if acquired {
                        let now = cycles::now();
                        let waited = now.wrapping_sub(start);
                        slot.record_lock_latency(waited);
                        shards.record_lock_latency_hist(waited);
                        slot.record_acquisition();
                    }
                    Ok(acquired)
                } else {
                    let acquired = entry.lock.try_read_lock();
                    if acquired {
                        slot.record_acquisition();
                    }
                    Ok(acquired)
                }
            }
            GlsMode::Debug => {
                let me = ThreadId::current();
                if entry.owner() == Some(me) || entry.has_reader(me) {
                    let issue = GlsError::DoubleLock { addr, thread: me };
                    self.debug.record(issue.clone());
                    return Err(issue);
                }
                let acquired = entry.lock.try_read_lock();
                if acquired {
                    entry.add_reader(me);
                    entry.stats.record_acquisition();
                }
                Ok(acquired)
            }
        }
    }

    fn read_unlock_impl(&self, addr: usize) -> Result<(), GlsError> {
        // Same racing-free fallback as `unlock_impl`: a shared holder's
        // release lands on the retired entry rather than stranding it.
        let Some(entry) = self.entry_for_release(addr) else {
            let issue = GlsError::UninitializedLock { addr };
            if self.config.mode == GlsMode::Debug {
                self.debug.record(issue.clone());
            }
            return Err(issue);
        };
        if self.config.mode == GlsMode::Debug {
            let me = ThreadId::current();
            if !entry.remove_reader(me) {
                // Non-rw entries degrade shared acquisitions to exclusive
                // ones, recorded as ownership; release that instead.
                if !entry.lock.is_rw() && entry.owner() == Some(me) {
                    entry.clear_owner();
                } else {
                    let issue = match entry.holders().first() {
                        Some(&holder) => GlsError::WrongOwner {
                            addr,
                            owner: holder,
                            caller: me,
                        },
                        None => GlsError::ReleaseFreeLock { addr },
                    };
                    self.debug.record(issue.clone());
                    return Err(issue);
                }
            }
        }
        entry.lock.read_unlock();
        Ok(())
    }

    /// The debug-mode acquisition path, for exclusive (`shared == false`)
    /// and shared (`shared == true`) requests alike.
    ///
    /// Deadlock detection piggybacks on the real blocking acquire instead of
    /// polling `try_lock`, which would both destroy the FIFO admission order
    /// of ticket/MCS/CLH entries and burn a hardware context:
    ///
    /// 1. publish the waits-for edge, then attempt a single `try_lock`;
    /// 2. on contention, walk the owner/waits-for graph. A candidate cycle
    ///    is re-validated after [`GlsConfig::deadlock_check_after`] — real
    ///    deadlocks are frozen, phantom cycles assembled from a non-atomic
    ///    walk dissolve — and only a confirmed cycle is reported;
    /// 3. with no cycle in sight, commit to the lock's own blocking acquire
    ///    (queue entry, spin-then-yield or parking — whatever the algorithm
    ///    does). A deadlock formed *later* must be closed by another thread
    ///    publishing its own waits-for edge, and that thread's walk — every
    ///    edge store and load is SeqCst — sees this thread's edge and
    ///    reports the cycle, breaking it by not blocking.
    fn debug_acquire(
        &self,
        entry: &LockEntry,
        addr: usize,
        kind: LockKind,
        shared: bool,
    ) -> Result<(), GlsError> {
        let me = ThreadId::current();
        if entry.owner() == Some(me) || entry.has_reader(me) {
            // Re-entry in any holder role is flagged: rw entries are
            // writer-preferring, so even a recursive read can self-deadlock
            // behind a writer that waits on the first read hold.
            let issue = GlsError::DoubleLock { addr, thread: me };
            self.debug.record(issue.clone());
            return Err(issue);
        }
        if kind != entry.lock.kind() {
            self.debug.record(GlsError::AlgorithmMismatch {
                addr,
                created: entry.lock.kind(),
                requested: kind,
            });
        }
        self.debug.set_waiting(me, addr);
        let try_acquire = || {
            if shared {
                entry.lock.try_read_lock()
            } else {
                entry.lock.try_lock()
            }
        };
        if !try_acquire() {
            // Contended debug-mode acquire: leave a trail for the flight
            // recorder before (possibly) blocking, so a later confirmed
            // deadlock can show which contended acquisitions led up to it.
            gls_runtime::flight::record(
                gls_runtime::flight::FlightEventKind::SlowPathAcquire,
                addr,
                0,
            );
            loop {
                let Some(candidate) = self
                    .debug
                    .detect_deadlock(me, addr, |a| self.holders_of_uncached(a))
                else {
                    // No cycle in sight: hand over to the real blocking
                    // acquire of the underlying algorithm.
                    if shared {
                        entry.lock.read_lock();
                    } else {
                        entry.lock.lock();
                    }
                    break;
                };
                // Confirmations of the same cycle are coalesced onto one
                // shared deadline: every participant (and every
                // re-detection under adversarial churn) waits out at most
                // the *remainder* of one grace period instead of stacking
                // a fresh full period per candidate.
                let wait = self
                    .debug
                    .confirmation_wait(&candidate, self.config.deadlock_check_after);
                if !wait.is_zero() {
                    // A wall-clock grace period is the detector's contract
                    // (deadlock_check_after); nothing can signal it early.
                    #[allow(clippy::disallowed_methods)]
                    std::thread::sleep(wait);
                }
                // The lock may have been released while we slept.
                if try_acquire() {
                    self.debug.finish_confirmation(&candidate);
                    break;
                }
                let deadlocked = self
                    .debug
                    .still_deadlocked(&candidate, |a| self.holders_of_uncached(a));
                self.debug.finish_confirmation(&candidate);
                if deadlocked {
                    self.debug.clear_waiting(me);
                    // Dump this thread's flight-recorder trail: the events
                    // leading up to a confirmed deadlock are exactly the
                    // trail an operator needs to replay how it formed.
                    gls_runtime::flight::record(
                        gls_runtime::flight::FlightEventKind::DeadlockCandidate,
                        addr,
                        candidate.cycle.len() as u64,
                    );
                    let trail = DeadlockTrail {
                        thread: me,
                        cycle: candidate.cycle.clone(),
                        events: gls_runtime::flight::drain(),
                    };
                    eprintln!(
                        "[GLS] confirmed deadlock ({} threads); dumping {} flight events of thread {}",
                        candidate.cycle.len().saturating_sub(1),
                        trail.events.len(),
                        me.as_u32(),
                    );
                    for event in &trail.events {
                        eprintln!(
                            "[GLS]   {} addr={:#x} info={} at={}",
                            event.kind.as_str(),
                            event.addr,
                            event.info,
                            event.at,
                        );
                    }
                    self.debug.record_trail(trail);
                    let issue = GlsError::Deadlock {
                        cycle: candidate.cycle,
                    };
                    self.debug.record(issue.clone());
                    return Err(issue);
                }
                // Phantom cycle: something moved in the meantime; re-walk.
            }
        }
        self.debug.clear_waiting(me);
        if shared {
            entry.add_reader(me);
        } else {
            entry.set_owner(me);
        }
        // Shared holders of an rw entry count here at the same time, so
        // this stays a read-modify-write, not the holder-only store.
        entry.stats.record_acquisition();
        Ok(())
    }

    /// Holder lookup that bypasses the per-thread cache (the deadlock
    /// detector inspects other threads' locks, which would otherwise evict
    /// the caller's cached entry). Returns every holder: the exclusive owner
    /// or, for rw entries, all shared readers.
    fn holders_of_uncached(&self, addr: usize) -> Vec<ThreadId> {
        match self.table.get(addr) {
            Some(ptr) => Self::entry_ref(ptr).holders(),
            None => Vec::new(),
        }
    }

    fn try_lock_impl(&self, addr: usize, kind: LockKind) -> Result<bool, GlsError> {
        let entry = self.entry_for(addr, kind);
        match self.config.mode {
            GlsMode::Normal => Ok(entry.lock.try_lock()),
            GlsMode::Profile => {
                let shards = entry.profile_shards();
                let slot = shards.slot();
                if sampler::should_sample(self.config.sampling_budget) {
                    slot.record_queue_sample(entry.lock.queue_length());
                    let start = cycles::now();
                    let acquired = entry.lock.try_lock();
                    if acquired {
                        let now = cycles::now();
                        let waited = now.wrapping_sub(start);
                        slot.record_lock_latency(waited);
                        shards.record_lock_latency_hist(waited);
                        // Fresh stamp after the bookkeeping (see lock_impl).
                        entry.stamp_acquired(cycles::now());
                        slot.record_acquisition();
                    }
                    Ok(acquired)
                } else {
                    let acquired = entry.lock.try_lock();
                    if acquired {
                        slot.record_acquisition();
                    }
                    Ok(acquired)
                }
            }
            GlsMode::Debug => {
                let me = ThreadId::current();
                if entry.owner() == Some(me) {
                    let issue = GlsError::DoubleLock { addr, thread: me };
                    self.debug.record(issue.clone());
                    return Err(issue);
                }
                let acquired = entry.lock.try_lock();
                if acquired {
                    entry.set_owner(me);
                    entry.stats.record_acquisition();
                }
                Ok(acquired)
            }
        }
    }

    #[inline]
    fn unlock_impl(&self, addr: usize, expected_kind: Option<LockKind>) -> Result<(), GlsError> {
        // A `free` racing with a lock holder must never strand the holder:
        // if the address is gone from the table but its entry is parked in
        // the retired set, the release lands on the parked entry (debug
        // mode still applies its ownership checks to it).
        let Some(entry) = self.entry_for_release(addr) else {
            let issue = GlsError::UninitializedLock { addr };
            if self.config.mode == GlsMode::Debug {
                self.debug.record(issue.clone());
            }
            return Err(issue);
        };
        if self.config.mode == GlsMode::Debug {
            let me = ThreadId::current();
            match entry.owner() {
                None => {
                    let issue = GlsError::ReleaseFreeLock { addr };
                    self.debug.record(issue.clone());
                    return Err(issue);
                }
                Some(owner) if owner != me => {
                    let issue = GlsError::WrongOwner {
                        addr,
                        owner,
                        caller: me,
                    };
                    self.debug.record(issue.clone());
                    return Err(issue);
                }
                Some(_) => {}
            }
            if let Some(kind) = expected_kind {
                if kind != entry.lock.kind() {
                    self.debug.record(GlsError::AlgorithmMismatch {
                        addr,
                        created: entry.lock.kind(),
                        requested: kind,
                    });
                }
            }
            entry.clear_owner();
        }
        if self.config.mode == GlsMode::Profile {
            // The stamp is consumed from the entry (see `stamp_acquired`),
            // so cross-thread releases are timed correctly; the sample
            // itself goes to the releasing thread's shard.
            let acquired_at = entry.take_acquired();
            if acquired_at != 0 {
                let now = cycles::now();
                let held = now.wrapping_sub(acquired_at);
                let shards = entry.profile_shards();
                shards.slot().record_cs_latency(held);
                shards.record_cs_latency_hist(held);
            }
        }
        entry.lock.unlock();
        Ok(())
    }
}

impl Drop for GlsService {
    fn drop(&mut self) {
        // Reclaim every live entry and every retired entry. `&mut self`
        // guarantees no concurrent access. A pending-free marker may name
        // an entry that is *also* live in the table (the marker is
        // published before the removal and cleared after a resurrection),
        // so the pointer list must be deduplicated before freeing.
        let mut pointers = Vec::new();
        self.table.for_each(|_, ptr| pointers.push(ptr));
        if let Ok(mut retired) = self.retired.lock() {
            pointers.extend(retired.parked.drain().map(|(_, pending)| pending.ptr));
            pointers.append(&mut retired.displaced);
        }
        pointers.sort_unstable();
        pointers.dedup();
        for ptr in pointers {
            // SAFETY: entries were allocated with Box::into_raw and the
            // dedup above guarantees each allocation is freed exactly once.
            unsafe { drop(Box::from_raw(ptr as *mut LockEntry)) };
        }
    }
}

/// RAII guard returned by [`GlsService::guard`]; releases the lock on drop.
#[derive(Debug)]
pub struct GlsGuard<'a> {
    service: &'a GlsService,
    addr: usize,
}

impl GlsGuard<'_> {
    /// The address this guard protects.
    pub fn addr(&self) -> usize {
        self.addr
    }
}

impl Drop for GlsGuard<'_> {
    fn drop(&mut self) {
        // Releasing a lock we acquired cannot fail in normal mode; in debug
        // mode a failure would itself be recorded in the issue log.
        let _ = self.service.unlock_addr(self.addr);
    }
}

/// RAII guard for shared access, returned by [`GlsService::read_guard`];
/// releases the read hold on drop.
#[derive(Debug)]
pub struct GlsReadGuard<'a> {
    service: &'a GlsService,
    addr: usize,
}

impl GlsReadGuard<'_> {
    /// The address this guard protects.
    pub fn addr(&self) -> usize {
        self.addr
    }
}

impl Drop for GlsReadGuard<'_> {
    fn drop(&mut self) {
        let _ = self.service.read_unlock_addr(self.addr);
    }
}

/// RAII guard for exclusive access, returned by
/// [`GlsService::write_guard`]; releases the write hold on drop.
#[derive(Debug)]
pub struct GlsWriteGuard<'a> {
    service: &'a GlsService,
    addr: usize,
}

impl GlsWriteGuard<'_> {
    /// The address this guard protects.
    pub fn addr(&self) -> usize {
        self.addr
    }
}

impl Drop for GlsWriteGuard<'_> {
    fn drop(&mut self) {
        let _ = self.service.write_unlock_addr(self.addr);
    }
}

#[cfg(test)]
// Raw std sync and wall-clock sleeps are fine in stress tests: they pace
// real threads, not modeled ones (see clippy.toml).
#[allow(clippy::disallowed_types, clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::glk::GlkConfig;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn lock_unlock_arbitrary_values() {
        let svc = GlsService::new();
        // Any non-zero value works as a lock identity, like gls_lock(17).
        svc.lock_addr(17).unwrap();
        svc.unlock_addr(17).unwrap();
        assert_eq!(svc.lock_count(), 1);
    }

    #[test]
    fn unlock_of_unknown_address_reports_uninitialized() {
        let svc = GlsService::new();
        let err = svc.unlock_addr(0x1234).unwrap_err();
        assert_eq!(err.category(), "uninitialized-lock");
    }

    #[test]
    #[should_panic(expected = "NULL")]
    fn null_address_is_rejected() {
        GlsService::new().lock_addr(0).unwrap();
    }

    #[test]
    fn guard_releases_on_drop() {
        let svc = GlsService::new();
        let data = 5u32;
        {
            let _g = svc.guard(&data).unwrap();
            assert!(!svc.try_lock(&data).unwrap());
        }
        assert!(svc.try_lock(&data).unwrap());
        svc.unlock(&data).unwrap();
    }

    #[test]
    fn explicit_interface_creates_requested_algorithm() {
        let svc = GlsService::new();
        svc.lock_with(LockKind::Mcs, 0x10).unwrap();
        svc.unlock_with(LockKind::Mcs, 0x10).unwrap();
        assert_eq!(svc.algorithm_of(0x10), Some(LockKind::Mcs));
        svc.lock_with(LockKind::Ticket, 0x20).unwrap();
        svc.unlock_with(LockKind::Ticket, 0x20).unwrap();
        assert_eq!(svc.algorithm_of(0x20), Some(LockKind::Ticket));
        // The default interface creates GLK entries.
        svc.lock_addr(0x30).unwrap();
        svc.unlock_addr(0x30).unwrap();
        assert_eq!(svc.algorithm_of(0x30), Some(LockKind::Glk));
    }

    #[test]
    fn free_removes_lock_object() {
        let svc = GlsService::new();
        svc.lock_addr(0x40).unwrap();
        svc.unlock_addr(0x40).unwrap();
        assert_eq!(svc.lock_count(), 1);
        assert!(svc.free_addr(0x40));
        assert!(!svc.free_addr(0x40));
        assert_eq!(svc.lock_count(), 0);
        // The address can be re-created afterwards.
        svc.lock_addr(0x40).unwrap();
        svc.unlock_addr(0x40).unwrap();
        assert_eq!(svc.lock_count(), 1);
    }

    #[test]
    fn many_threads_many_locks_mutual_exclusion() {
        let svc = Arc::new(GlsService::new());
        let slots: Arc<Vec<std::sync::atomic::AtomicU64>> = Arc::new(
            (0..16)
                .map(|_| std::sync::atomic::AtomicU64::new(0))
                .collect(),
        );
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let svc = Arc::clone(&svc);
                let slots = Arc::clone(&slots);
                std::thread::spawn(move || {
                    for i in 0..5_000usize {
                        let slot = (t * 31 + i) % slots.len();
                        let addr = 0x1000 + slot;
                        svc.lock_addr(addr).unwrap();
                        // Read-modify-write that would lose updates without
                        // mutual exclusion per address.
                        let v = slots[slot].load(Ordering::Relaxed);
                        slots[slot].store(v + 1, Ordering::Relaxed);
                        svc.unlock_addr(addr).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total: u64 = slots.iter().map(|s| s.load(Ordering::Relaxed)).sum();
        assert_eq!(total, 8 * 5_000);
        assert_eq!(svc.lock_count(), 16);
    }

    #[test]
    fn debug_mode_detects_double_lock_and_release_free() {
        let svc = GlsService::with_config(GlsConfig::debug());
        let obj = 1u8;
        svc.lock(&obj).unwrap();
        let err = svc.lock(&obj).unwrap_err();
        assert_eq!(err.category(), "double-lock");
        svc.unlock(&obj).unwrap();
        let err = svc.unlock(&obj).unwrap_err();
        assert_eq!(err.category(), "release-free-lock");
        let categories: Vec<_> = svc.issues().iter().map(|i| i.category()).collect();
        assert!(categories.contains(&"double-lock"));
        assert!(categories.contains(&"release-free-lock"));
    }

    #[test]
    fn debug_mode_detects_wrong_owner() {
        let svc = Arc::new(GlsService::with_config(GlsConfig::debug()));
        svc.lock_addr(0x99).unwrap();
        let svc2 = Arc::clone(&svc);
        let err = std::thread::spawn(move || svc2.unlock_addr(0x99).unwrap_err())
            .join()
            .unwrap();
        assert_eq!(err.category(), "wrong-owner");
        svc.unlock_addr(0x99).unwrap();
    }

    #[test]
    fn debug_mode_records_algorithm_mismatch() {
        let svc = GlsService::with_config(GlsConfig::debug());
        svc.lock_with(LockKind::Ticket, 0x77).unwrap();
        svc.unlock_with(LockKind::Ticket, 0x77).unwrap();
        svc.lock_with(LockKind::Mcs, 0x77).unwrap();
        svc.unlock_with(LockKind::Mcs, 0x77).unwrap();
        assert!(svc
            .issues()
            .iter()
            .any(|i| i.category() == "algorithm-mismatch"));
    }

    #[test]
    fn profile_mode_collects_latencies() {
        let svc = GlsService::with_config(GlsConfig::profile());
        for i in 0..100 {
            svc.lock_addr(0x200 + (i % 4)).unwrap();
            gls_runtime::spin_cycles(200);
            svc.unlock_addr(0x200 + (i % 4)).unwrap();
        }
        let report = svc.profile_report();
        assert_eq!(report.len(), 4);
        for lock in &report.locks {
            assert!(lock.acquisitions >= 25);
            assert!(lock.avg_cs_latency > 0.0, "cs latency should be recorded");
        }
    }

    #[test]
    fn glk_transitions_surface_through_service() {
        let config = GlsConfig::default().with_glk(
            GlkConfig::default()
                .with_adaptation_period(128)
                .with_sampling_period(8)
                .with_transition_recording(true),
        );
        let svc = Arc::new(GlsService::with_config(config));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let svc = Arc::clone(&svc);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        svc.lock_addr(0xabc).unwrap();
                        gls_runtime::spin_cycles(400);
                        svc.unlock_addr(0xabc).unwrap();
                    }
                })
            })
            .collect();
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while svc.glk_transitions().is_empty() && Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        let transitions = svc.glk_transitions();
        assert!(
            !transitions.is_empty(),
            "contended GLK lock should have adapted at least once"
        );
    }

    #[test]
    fn rw_interface_roundtrip_and_sharing() {
        let svc = GlsService::new();
        let data = [0u64; 4];
        svc.read_lock(&data).unwrap();
        svc.read_lock(&data).unwrap();
        assert!(
            !svc.try_write_lock(&data).unwrap(),
            "readers exclude writers"
        );
        assert!(svc.try_read_lock(&data).unwrap(), "readers share");
        svc.read_unlock(&data).unwrap();
        svc.read_unlock(&data).unwrap();
        svc.read_unlock(&data).unwrap();
        svc.write_lock(&data).unwrap();
        assert!(
            !svc.try_read_lock(&data).unwrap(),
            "writer excludes readers"
        );
        svc.write_unlock(&data).unwrap();
        assert_eq!(
            svc.algorithm_of(GlsService::address_of(&data)),
            Some(LockKind::Rw)
        );
    }

    #[test]
    fn rw_guards_release_on_drop() {
        let svc = GlsService::new();
        {
            let _r1 = svc.read_guard_addr(0x500).unwrap();
            let _r2 = svc.read_guard_addr(0x500).unwrap();
            assert!(!svc.try_write_lock_addr(0x500).unwrap());
        }
        {
            let _w = svc.write_guard_addr(0x500).unwrap();
            assert!(!svc.try_read_lock_addr(0x500).unwrap());
        }
        assert!(svc.try_write_lock_addr(0x500).unwrap());
        svc.write_unlock_addr(0x500).unwrap();
    }

    #[test]
    fn rw_read_unlock_of_unknown_address_reports_uninitialized() {
        let svc = GlsService::new();
        let err = svc.read_unlock_addr(0x7777).unwrap_err();
        assert_eq!(err.category(), "uninitialized-lock");
    }

    #[test]
    fn profile_mode_reports_rw_entries() {
        let svc = GlsService::with_config(GlsConfig::profile());
        for _ in 0..50 {
            svc.read_lock_addr(0x600).unwrap();
            svc.read_unlock_addr(0x600).unwrap();
        }
        for _ in 0..10 {
            svc.write_lock_addr(0x600).unwrap();
            gls_runtime::spin_cycles(200);
            svc.write_unlock_addr(0x600).unwrap();
        }
        let report = svc.profile_report();
        let rw = report
            .locks
            .iter()
            .find(|l| l.addr == 0x600)
            .expect("rw entry must appear in the profiler report");
        assert_eq!(rw.algorithm, LockKind::Rw);
        assert_eq!(rw.acquisitions, 60);
        assert!(rw.avg_cs_latency > 0.0, "write sections are timed");
    }

    #[test]
    fn debug_mode_detects_rw_misuse() {
        let svc = GlsService::with_config(GlsConfig::debug());
        svc.read_lock_addr(0x700).unwrap();
        // Recursive read is flagged: rw entries are writer-preferring, so a
        // second read hold can self-deadlock behind a waiting writer.
        let err = svc.read_lock_addr(0x700).unwrap_err();
        assert_eq!(err.category(), "double-lock");
        svc.read_unlock_addr(0x700).unwrap();
        // Releasing shared access nobody holds.
        let err = svc.read_unlock_addr(0x700).unwrap_err();
        assert_eq!(err.category(), "release-free-lock");
        // A thread that holds nothing cannot release another's read hold.
        let svc = Arc::new(svc);
        svc.read_lock_addr(0x700).unwrap();
        let svc2 = Arc::clone(&svc);
        let err = std::thread::spawn(move || svc2.read_unlock_addr(0x700).unwrap_err())
            .join()
            .unwrap();
        assert_eq!(err.category(), "wrong-owner");
        svc.read_unlock_addr(0x700).unwrap();
    }

    #[test]
    fn debug_mode_tracks_shared_holders_concurrently() {
        let svc = Arc::new(GlsService::with_config(GlsConfig::debug()));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let svc = Arc::clone(&svc);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        svc.read_lock_addr(0x800).unwrap();
                        svc.read_unlock_addr(0x800).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(
            svc.issues().is_empty(),
            "well-formed shared locking must record no issues: {:?}",
            svc.issues()
        );
    }

    #[test]
    fn repeated_lock_free_cycles_keep_retired_list_bounded() {
        let svc = GlsService::new();
        // Churn over a 7-address working set: the retired list may hold at
        // most one parked entry per address, never one per free.
        for round in 0..1_000usize {
            let addr = 0x9000 + (round % 7) * 8;
            svc.lock_addr(addr).unwrap();
            svc.unlock_addr(addr).unwrap();
            assert!(svc.free_addr(addr));
            assert!(
                svc.retired_count() <= 7,
                "lock/free churn must resurrect entries, found {} retired after round {round}",
                svc.retired_count()
            );
        }
        assert_eq!(svc.lock_count(), 0);
        // Re-creating the working set drains the retired list entirely.
        for slot in 0..7usize {
            svc.lock_addr(0x9000 + slot * 8).unwrap();
            svc.unlock_addr(0x9000 + slot * 8).unwrap();
        }
        assert_eq!(svc.retired_count(), 0, "all parked entries resurrected");
        assert_eq!(svc.lock_count(), 7);
    }

    #[test]
    fn racing_free_never_strands_a_release() {
        // Stress of the pending-free protocol: lockers hammer one address
        // while a freer continuously free()s it. Every release must land —
        // the marker is published before the table removal, so there is no
        // window in which a holder's release can miss the entry — and the
        // per-address allocation stays stable, so mutual exclusion holds
        // across free/resurrect cycles (asserted by the non-atomic
        // counter). No sleeps anywhere on the release path.
        struct Shared(std::cell::UnsafeCell<u64>);
        // SAFETY: the cell is only touched while holding the lock under
        // test; that exclusion is exactly what the test verifies.
        unsafe impl Sync for Shared {}
        let svc = Arc::new(GlsService::new());
        let shared = Arc::new(Shared(std::cell::UnsafeCell::new(0)));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let freer = {
            let svc = Arc::clone(&svc);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut frees = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    if svc.free_addr(0xF5EE) {
                        frees += 1;
                    }
                }
                frees
            })
        };
        let lockers: Vec<_> = (0..3)
            .map(|_| {
                let svc = Arc::clone(&svc);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    for _ in 0..20_000 {
                        svc.lock_addr(0xF5EE).unwrap();
                        // SAFETY: written while holding the lock under test.
                        unsafe { *shared.0.get() += 1 };
                        svc.unlock_addr(0xF5EE)
                            .expect("a racing free must never strand a holder's release");
                    }
                })
            })
            .collect();
        for h in lockers {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        let frees = freer.join().unwrap();
        assert!(frees > 0, "the freer must have raced at least once");
        // SAFETY: all worker threads are joined; nothing races this read.
        assert_eq!(unsafe { *shared.0.get() }, 60_000);
        assert!(
            svc.retired_count() <= 2,
            "churn on one address keeps at most its one allocation parked \
             (found {})",
            svc.retired_count()
        );
    }

    #[test]
    fn pending_free_marker_covers_the_unmap_window() {
        // White-box: after free() returns, the entry must be reachable via
        // the marker map even though the table no longer has it, and a
        // re-create must clear the stale marker only after re-publishing.
        let svc = GlsService::new();
        svc.lock_addr(0xAB1E).unwrap();
        svc.unlock_addr(0xAB1E).unwrap();
        let live = svc.find_entry(0xAB1E).unwrap() as *const LockEntry;
        assert!(svc.free_addr(0xAB1E));
        assert!(svc.find_entry(0xAB1E).is_none(), "unmapped from the table");
        let pending = svc.pending_entry(0xAB1E).expect("marker present") as *const LockEntry;
        assert_eq!(live, pending, "the marker names the same allocation");
        // A release through the marker still works (normal mode).
        svc.lock_addr(0xAB1E).unwrap(); // resurrects
        assert_eq!(
            svc.pending_entry(0xAB1E).map(|e| e as *const LockEntry),
            None,
            "resurrection cleared the stale marker"
        );
        assert_eq!(
            svc.find_entry(0xAB1E).map(|e| e as *const LockEntry),
            Some(live),
            "resurrection reuses the allocation"
        );
        svc.unlock_addr(0xAB1E).unwrap();
    }

    #[test]
    fn freed_address_resurrects_with_its_original_algorithm() {
        // Resurrection reinserts the parked entry untouched, so the
        // algorithm chosen at first creation survives a free/re-create
        // cycle (first creation wins, as with put_if_absent generally).
        let svc = GlsService::new();
        svc.lock_with(LockKind::Mcs, 0xA000).unwrap();
        svc.unlock_with(LockKind::Mcs, 0xA000).unwrap();
        assert!(svc.free_addr(0xA000));
        assert_eq!(svc.retired_count(), 1);
        svc.lock_addr(0xA000).unwrap();
        svc.unlock_addr(0xA000).unwrap();
        assert_eq!(svc.algorithm_of(0xA000), Some(LockKind::Mcs));
        assert_eq!(svc.retired_count(), 0, "parked entry was resurrected");
    }

    #[test]
    fn notify_one_requeues_onto_a_held_futex_mutex() {
        use gls_locks::ParkingLot;
        let svc = Arc::new(GlsService::new());
        let cv = Arc::new(GlsCondvar::new());
        let addr = 0xC0DE;
        // Create a futex-backed mutex entry (always exposes a park address).
        svc.lock_with(LockKind::Futex, addr).unwrap();
        svc.unlock_with(LockKind::Futex, addr).unwrap();
        let waiter = {
            let (svc, cv) = (Arc::clone(&svc), Arc::clone(&cv));
            std::thread::spawn(move || {
                svc.lock_addr(addr).unwrap();
                svc.wait_addr(&cv, addr).unwrap();
                svc.unlock_addr(addr).unwrap();
            })
        };
        while cv.waiters() == 0 {
            std::thread::yield_now();
        }
        // Hold the mutex, then notify: the waiter must be requeued onto
        // the mutex's park address instead of waking into a block.
        svc.lock_addr(addr).unwrap();
        let mutex_park = svc
            .find_entry(addr)
            .unwrap()
            .park_addr()
            .expect("futex entries expose a park address");
        assert!(svc.notify_one_addr(&cv, addr));
        assert_eq!(
            ParkingLot::global().parked_count(mutex_park),
            1,
            "the waiter sleeps under the mutex address now"
        );
        assert_eq!(cv.waits(), 0, "requeued, not woken");
        // The mutex release is what wakes it.
        svc.unlock_addr(addr).unwrap();
        waiter.join().unwrap();
        assert_eq!(cv.waits(), 1);
        assert_eq!(cv.notifies(), 1);
    }

    #[test]
    fn notify_falls_back_to_plain_wake_without_a_park_address() {
        // A fresh GLK entry spins (ticket mode): no park address, so the
        // service notify degrades to the ordinary wake path.
        let svc = Arc::new(GlsService::new());
        let cv = Arc::new(GlsCondvar::new());
        let addr = 0xFA11;
        svc.lock_addr(addr).unwrap();
        svc.unlock_addr(addr).unwrap();
        assert_eq!(svc.find_entry(addr).unwrap().park_addr(), None);
        let waiter = {
            let (svc, cv) = (Arc::clone(&svc), Arc::clone(&cv));
            std::thread::spawn(move || {
                svc.lock_addr(addr).unwrap();
                svc.wait_addr(&cv, addr).unwrap();
                svc.unlock_addr(addr).unwrap();
            })
        };
        while cv.waiters() == 0 {
            std::thread::yield_now();
        }
        assert!(svc.notify_one_addr(&cv, addr));
        waiter.join().unwrap();
        assert_eq!(cv.waits(), 1);
        // Notifying with nobody waiting reports so.
        assert!(!svc.notify_one_addr(&cv, addr));
        assert_eq!(svc.notify_all_addr(&cv, addr), 0);
    }

    #[test]
    fn notify_all_morphs_the_broadcast_onto_the_mutex() {
        use gls_locks::ParkingLot;
        let svc = Arc::new(GlsService::new());
        let cv = Arc::new(GlsCondvar::new());
        let addr = 0xB0CA;
        svc.lock_with(LockKind::Futex, addr).unwrap();
        svc.unlock_with(LockKind::Futex, addr).unwrap();
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let (svc, cv) = (Arc::clone(&svc), Arc::clone(&cv));
                std::thread::spawn(move || {
                    svc.lock_addr(addr).unwrap();
                    svc.wait_addr(&cv, addr).unwrap();
                    svc.unlock_addr(addr).unwrap();
                })
            })
            .collect();
        while cv.waiters() < 4 {
            std::thread::yield_now();
        }
        svc.lock_addr(addr).unwrap();
        let mutex_park = svc.find_entry(addr).unwrap().park_addr().unwrap();
        assert_eq!(svc.notify_all_addr(&cv, addr), 4);
        // Held mutex: the whole broadcast morphs onto the mutex queue; no
        // thundering herd re-contends while we still hold it.
        assert_eq!(ParkingLot::global().parked_count(mutex_park), 4);
        assert_eq!(cv.waits(), 0);
        svc.unlock_addr(addr).unwrap();
        for w in waiters {
            w.join().unwrap();
        }
        assert_eq!(cv.waits(), 4);
        assert_eq!(ParkingLot::global().parked_count(mutex_park), 0);
    }

    #[test]
    fn freed_blocking_locks_leave_the_density_population() {
        use crate::glk::GlkMode;
        let config = GlsConfig::default().with_glk(
            GlkConfig::default()
                .with_initial_mode(GlkMode::Mutex)
                .without_adaptation(),
        );
        let svc = GlsService::with_config(config);
        svc.lock_addr(0xD100).unwrap();
        svc.unlock_addr(0xD100).unwrap();
        assert_eq!(svc.blocking_lock_count(), 1);
        // A freed (retired) lock serves no traffic: it must not keep
        // steering the Auto backend heuristic.
        assert!(svc.free_addr(0xD100));
        assert_eq!(
            svc.blocking_lock_count(),
            0,
            "retired blocking locks leave the population"
        );
        // Resurrection brings it back.
        svc.lock_addr(0xD100).unwrap();
        assert_eq!(
            svc.blocking_lock_count(),
            1,
            "resurrected blocking locks rejoin the population"
        );
        svc.unlock_addr(0xD100).unwrap();
    }

    #[test]
    fn global_service_is_singleton() {
        let a = GlsService::global() as *const _;
        let b = GlsService::global() as *const _;
        assert_eq!(a, b);
    }

    #[test]
    fn table_stats_reflect_lock_count() {
        let svc = GlsService::new();
        for i in 1..=50 {
            svc.lock_addr(i * 8).unwrap();
            svc.unlock_addr(i * 8).unwrap();
        }
        let stats = svc.table_stats();
        assert_eq!(stats.elements, 50);
        assert_eq!(svc.lock_count(), 50);
    }
}
