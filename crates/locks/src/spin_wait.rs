//! Spin-then-yield waiting for unbounded busy-wait loops.
//!
//! A waiter that spins with [`std::hint::spin_loop`] alone burns its entire
//! scheduler timeslice when the thread it waits for is preempted — on a
//! machine with fewer free hardware contexts than waiters (CI runners, the
//! paper's multiprogrammed scenarios) lock handover then crawls at the rate
//! of involuntary context switches. [`SpinWait`] keeps the cheap spin phase
//! for the common short wait and degrades to [`std::thread::yield_now`] once
//! the wait is clearly long, so progress is never bound to timeslice expiry.
//!
//! # Waiting policy
//!
//! Which waiter a lock uses depends on what its waiters race for once the
//! word they watch changes.
//!
//! * **Poll** ([`SpinWait::poll`]) — the FIFO queue locks
//!   ([`TicketLock`](crate::TicketLock), [`McsLock`](crate::McsLock),
//!   [`ClhLock`](crate::ClhLock)). A waiter's place in line is fixed when it
//!   enqueues, and it re-reads a word that only its predecessor's release
//!   changes: nobody races it for the lock, so there is no stampede to damp.
//!   It re-checks after every pause and sees the handoff within one pause of
//!   the release. Backing off would only add latency: with doubling rounds
//!   of ~16 ns pauses a waiter re-checks at ~16, 48, 112, 240, 496 ns, so a
//!   ~300 ns critical section is seen at ~500 ns.
//! * **Back off** ([`SpinWait::spin`]) — the TAS/TTAS locks, the
//!   writer-intent rwlock and CLHT's resize wait. Every waiter that sees
//!   the word change races for it with an RMW or CAS; the exponentially
//!   growing rounds (1, 2, 4, … pauses, ~1000 in total) spread those
//!   attempts out so a release does not set off a coherence storm.
//! * **Spin then park** ([`SpinWait::spin_bounded`]) — the blocking locks
//!   ([`MutexLock`](crate::MutexLock), [`FutexLock`](crate::FutexLock),
//!   [`FutexRwLock`](crate::FutexRwLock)). A short backed-off spin that never
//!   yields, because the fallback for a long wait is sleeping, not yielding.
//!
//! Poll and back-off waiters spend the same budget, about `2^SPIN_ROUNDS`
//! pause instructions, and then yield on every wait, mirroring the adaptive
//! scheme used by production lock libraries.

/// Escalating waiter for spin loops: fixed-rate polling or exponential
/// spinning, then yielding.
///
/// # Example
///
/// ```
/// use gls_locks::SpinWait;
///
/// let mut wait = SpinWait::new();
/// for _ in 0..3 {
///     wait.spin(); // cheap pause-based spinning at first
/// }
/// assert!(!wait.is_yielding());
/// ```
#[derive(Debug, Clone, Default)]
pub struct SpinWait {
    round: u32,
    polls: u32,
}

impl SpinWait {
    /// Number of exponential spin rounds before the waiter starts yielding
    /// its timeslice (total ≈ `2^SPIN_ROUNDS` pause instructions, the same
    /// budget [`poll`](Self::poll) spends one pause at a time).
    pub const SPIN_ROUNDS: u32 = 10;

    /// Creates a waiter at the start of its spin phase.
    pub const fn new() -> Self {
        Self { round: 0, polls: 0 }
    }

    /// How many pause instructions round `round` issues. Under the model
    /// every pause is a scheduling point, so one per round is enough to
    /// expose the interleavings — 2^round of them would only multiply the
    /// state space without adding behaviors.
    #[inline]
    fn pauses(round: u32) -> u32 {
        #[cfg(gls_model)]
        {
            let _ = round;
            1
        }
        #[cfg(not(gls_model))]
        {
            1u32 << round
        }
    }

    /// Waits one round: a short exponentially growing spin early on, a
    /// scheduler yield once the spin budget is exhausted.
    #[inline]
    pub fn spin(&mut self) {
        if self.round < Self::SPIN_ROUNDS {
            for _ in 0..Self::pauses(self.round) {
                gls_sync::hint::spin_loop();
            }
            self.round += 1;
        } else {
            gls_sync::thread::yield_now();
        }
    }

    /// Waits one pause, then yields on every call once `2^SPIN_ROUNDS`
    /// polls are spent — the same wall-clock budget as [`spin`](Self::spin)
    /// but with a re-check after every pause. For FIFO queue waiters that
    /// wait on a word only their predecessor's release will change, where
    /// backing off adds latency and damps no contention. Under the model
    /// each call is one scheduling point, like a `spin` round.
    #[inline]
    pub fn poll(&mut self) {
        if self.polls < 1 << Self::SPIN_ROUNDS {
            gls_sync::hint::spin_loop();
            self.polls += 1;
        } else {
            gls_sync::thread::yield_now();
        }
    }

    /// Waits one round without ever yielding: the delay grows exponentially
    /// and then stays at the `2^SPIN_ROUNDS`-pause cap. For spin-then-park
    /// locks ([`MutexLock`](crate::MutexLock)) whose bounded spin phase must
    /// not donate its timeslice — the fallback there is sleeping, not
    /// yielding.
    #[inline]
    pub fn spin_bounded(&mut self) {
        for _ in 0..Self::pauses(self.round.min(Self::SPIN_ROUNDS)) {
            gls_sync::hint::spin_loop();
        }
        if self.round < Self::SPIN_ROUNDS {
            self.round += 1;
        }
    }

    /// Whether the spin budget is exhausted and further waits yield.
    pub fn is_yielding(&self) -> bool {
        self.round >= Self::SPIN_ROUNDS || self.polls >= 1 << Self::SPIN_ROUNDS
    }

    /// Restarts the spin phase (call after a successful acquisition).
    pub fn reset(&mut self) {
        *self = Self::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spins_before_yielding() {
        let mut w = SpinWait::new();
        for _ in 0..SpinWait::SPIN_ROUNDS {
            assert!(!w.is_yielding());
            w.spin();
        }
        assert!(w.is_yielding());
        // Further rounds stay in the yielding regime without panicking.
        w.spin();
        w.spin();
        assert!(w.is_yielding());
    }

    #[test]
    fn polls_before_yielding() {
        let mut w = SpinWait::new();
        for _ in 0..1u32 << SpinWait::SPIN_ROUNDS {
            assert!(!w.is_yielding());
            w.poll();
        }
        assert!(w.is_yielding());
        // Further polls stay in the yielding regime without panicking.
        w.poll();
        w.poll();
        assert!(w.is_yielding());
    }

    #[test]
    fn reset_restores_poll_phase() {
        let mut w = SpinWait::new();
        for _ in 0..=1u32 << SpinWait::SPIN_ROUNDS {
            w.poll();
        }
        assert!(w.is_yielding());
        w.reset();
        assert!(!w.is_yielding());
        w.poll();
        assert!(!w.is_yielding());
    }

    #[test]
    fn reset_restores_spin_phase() {
        let mut w = SpinWait::new();
        for _ in 0..=SpinWait::SPIN_ROUNDS {
            w.spin();
        }
        w.reset();
        assert!(!w.is_yielding());
    }

    #[test]
    fn bounded_spin_never_enters_yield_regime_prematurely() {
        let mut w = SpinWait::new();
        for _ in 0..3 * SpinWait::SPIN_ROUNDS {
            w.spin_bounded();
        }
        // The counter saturates at the cap; subsequent rounds keep spinning
        // at the maximum delay (no panic, no overflow).
        assert!(w.is_yielding());
        w.spin_bounded();
    }
}
