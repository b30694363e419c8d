//! Per-lock statistics counters shared by GLK adaptation and the GLS profiler.
//!
//! The GLK structure (paper Fig. 3) carries two counters — `num_acquired`
//! (completed critical sections) and `queue_total` (accumulated queuing behind
//! the lock) — which together yield the average queuing used by the
//! adaptation policy. The GLS profiler (§4.3) additionally reports per-lock
//! lock-acquisition latency and critical-section duration.

use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-local statistics, updated on the acquisition path and read by the
/// adaptation logic and the profiler.
///
/// All fields are plain atomics with relaxed ordering: the values feed
/// heuristics, not correctness-critical decisions, exactly as in the paper.
/// The recording methods are read-modify-writes, safe from any number of
/// threads at once, except [`record_holder_acquisition`], which is a plain
/// load and store for callers that are the counter's only writer.
///
/// [`record_holder_acquisition`]: Self::record_holder_acquisition
#[derive(Debug, Default)]
pub struct LockStats {
    /// Number of completed critical sections (paper: `num_acquired`).
    acquisitions: AtomicU64,
    /// Sum of queue-length samples (paper: `queue_total`).
    queue_total: AtomicU64,
    /// Number of queue-length samples contributing to `queue_total`.
    queue_samples: AtomicU64,
    /// Sum of lock-acquisition latencies in cycles (profiler).
    lock_latency_total: AtomicU64,
    /// Number of latency samples.
    lock_latency_samples: AtomicU64,
    /// Sum of critical-section durations in cycles (profiler).
    cs_latency_total: AtomicU64,
    /// Number of critical-section samples.
    cs_latency_samples: AtomicU64,
    /// Number of mode transitions performed (GLK diagnostics).
    transitions: AtomicU64,
}

impl LockStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completed acquisition and returns the *new* total.
    ///
    /// A locked read-modify-write: exact even when acquisitions overlap, as
    /// shared (reader) holders do.
    #[inline]
    pub fn record_acquisition(&self) -> u64 {
        self.acquisitions.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Records one completed acquisition on behalf of the counter's only
    /// writer and returns the *new* total: a Relaxed load and a Relaxed
    /// store, the paper's plain `num_acquired++`, with no locked
    /// read-modify-write.
    ///
    /// Exact only while calls are serialized by happens-before, so that
    /// each call's load sees the previous call's store. An exclusive lock
    /// does that for its holders: the release that ends one critical
    /// section synchronizes with the acquire that starts the next.
    /// Overlapping calls lose counts; nothing else breaks. Locks whose
    /// holders overlap (readers of an rwlock) must use
    /// [`record_acquisition`](Self::record_acquisition).
    #[inline]
    pub fn record_holder_acquisition(&self) -> u64 {
        let next = self.acquisitions.load(Ordering::Relaxed) + 1;
        self.acquisitions.store(next, Ordering::Relaxed);
        next
    }

    /// Total completed acquisitions.
    #[inline]
    pub fn acquisitions(&self) -> u64 {
        self.acquisitions.load(Ordering::Relaxed)
    }

    /// Records one sample of the queue length behind the lock.
    #[inline]
    pub fn record_queue_sample(&self, queued: u64) {
        self.queue_total.fetch_add(queued, Ordering::Relaxed);
        self.queue_samples.fetch_add(1, Ordering::Relaxed);
    }

    /// Average queue length over the samples recorded so far (`0.0` if none).
    pub fn average_queue(&self) -> f64 {
        let samples = self.queue_samples.load(Ordering::Relaxed);
        if samples == 0 {
            0.0
        } else {
            self.queue_total.load(Ordering::Relaxed) as f64 / samples as f64
        }
    }

    /// Number of queue samples recorded.
    pub fn queue_samples(&self) -> u64 {
        self.queue_samples.load(Ordering::Relaxed)
    }

    /// Sum of queue-length samples (the numerator of [`average_queue`]).
    ///
    /// [`average_queue`]: Self::average_queue
    pub fn queue_total(&self) -> u64 {
        self.queue_total.load(Ordering::Relaxed)
    }

    /// Resets the queue statistics (done after each adaptation decision so
    /// the next decision sees a fresh window).
    pub fn reset_queue_window(&self) {
        self.queue_total.store(0, Ordering::Relaxed);
        self.queue_samples.store(0, Ordering::Relaxed);
    }

    /// Records a lock-acquisition latency sample (profiler).
    #[inline]
    pub fn record_lock_latency(&self, cycles: u64) {
        self.lock_latency_total.fetch_add(cycles, Ordering::Relaxed);
        self.lock_latency_samples.fetch_add(1, Ordering::Relaxed);
    }

    /// Sum of lock-acquisition latency samples, in cycles.
    pub fn lock_latency_total(&self) -> u64 {
        self.lock_latency_total.load(Ordering::Relaxed)
    }

    /// Number of lock-acquisition latency samples recorded.
    pub fn lock_latency_samples(&self) -> u64 {
        self.lock_latency_samples.load(Ordering::Relaxed)
    }

    /// Average lock-acquisition latency in cycles.
    pub fn average_lock_latency(&self) -> f64 {
        let n = self.lock_latency_samples.load(Ordering::Relaxed);
        if n == 0 {
            0.0
        } else {
            self.lock_latency_total.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// Records a critical-section duration sample (profiler).
    #[inline]
    pub fn record_cs_latency(&self, cycles: u64) {
        self.cs_latency_total.fetch_add(cycles, Ordering::Relaxed);
        self.cs_latency_samples.fetch_add(1, Ordering::Relaxed);
    }

    /// Sum of critical-section duration samples, in cycles.
    pub fn cs_latency_total(&self) -> u64 {
        self.cs_latency_total.load(Ordering::Relaxed)
    }

    /// Number of critical-section samples recorded.
    pub fn cs_latency_samples(&self) -> u64 {
        self.cs_latency_samples.load(Ordering::Relaxed)
    }

    /// Average critical-section duration in cycles.
    pub fn average_cs_latency(&self) -> f64 {
        let n = self.cs_latency_samples.load(Ordering::Relaxed);
        if n == 0 {
            0.0
        } else {
            self.cs_latency_total.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// Records one GLK mode transition.
    #[inline]
    pub fn record_transition(&self) {
        self.transitions.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of GLK mode transitions so far.
    pub fn transitions(&self) -> u64 {
        self.transitions.load(Ordering::Relaxed)
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        self.acquisitions.store(0, Ordering::Relaxed);
        self.queue_total.store(0, Ordering::Relaxed);
        self.queue_samples.store(0, Ordering::Relaxed);
        self.lock_latency_total.store(0, Ordering::Relaxed);
        self.lock_latency_samples.store(0, Ordering::Relaxed);
        self.cs_latency_total.store(0, Ordering::Relaxed);
        self.cs_latency_samples.store(0, Ordering::Relaxed);
        self.transitions.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquisitions_count_up() {
        let s = LockStats::new();
        assert_eq!(s.record_acquisition(), 1);
        assert_eq!(s.record_acquisition(), 2);
        assert_eq!(s.acquisitions(), 2);
    }

    #[test]
    fn holder_acquisitions_continue_the_shared_count() {
        let s = LockStats::new();
        assert_eq!(s.record_holder_acquisition(), 1);
        assert_eq!(s.record_acquisition(), 2);
        assert_eq!(s.record_holder_acquisition(), 3);
        assert_eq!(s.acquisitions(), 3);
    }

    #[test]
    fn average_queue_over_samples() {
        let s = LockStats::new();
        assert_eq!(s.average_queue(), 0.0);
        s.record_queue_sample(2);
        s.record_queue_sample(4);
        assert_eq!(s.queue_samples(), 2);
        assert!((s.average_queue() - 3.0).abs() < 1e-9);
        s.reset_queue_window();
        assert_eq!(s.average_queue(), 0.0);
        assert_eq!(s.queue_samples(), 0);
    }

    #[test]
    fn latencies_average_correctly() {
        let s = LockStats::new();
        s.record_lock_latency(100);
        s.record_lock_latency(300);
        s.record_cs_latency(50);
        assert!((s.average_lock_latency() - 200.0).abs() < 1e-9);
        assert!((s.average_cs_latency() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn transitions_and_reset() {
        let s = LockStats::new();
        s.record_transition();
        s.record_transition();
        s.record_acquisition();
        assert_eq!(s.transitions(), 2);
        s.reset();
        assert_eq!(s.transitions(), 0);
        assert_eq!(s.acquisitions(), 0);
        assert_eq!(s.average_lock_latency(), 0.0);
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let s = std::sync::Arc::new(LockStats::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let s = std::sync::Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        s.record_acquisition();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(s.acquisitions(), 80_000);
    }
}
