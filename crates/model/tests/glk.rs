//! Model check of GLK's mode-transition loop (paper Fig. 4) and of the
//! argument behind its plain-store acquisition counter.
//!
//! `GlkLock::lock` reads the mode, acquires that mode's low-level lock,
//! rechecks the mode and only then counts the acquisition, with a plain
//! load and store rather than a locked read-modify-write. That is exact
//! only if no two threads ever count at once: every counting thread must
//! hold the current mode's lock, and every flip must be published before
//! the flipper lets go of the old mode's lock.
//!
//! The model runs two threads through three critical sections, with a
//! queue sample on every acquisition, an adaptation check on every second
//! one and thresholds that send the lock from ticket to mcs at the first
//! check. On every schedule explored, a [`ModelCell`] written in each
//! critical section must see no race (mutual exclusion across the flip,
//! including a waiter queued in ticket mode while the flip happens), and
//! the final count must be one per returned `lock()` plus one per flip
//! (the flipping acquisition is counted, released and retried).
//!
//! Run with `RUSTFLAGS="--cfg gls_model" cargo test -p gls_model --test
//! glk`.

#![cfg(gls_model)]

use std::sync::Arc;

use gls::glk::{GlkConfig, GlkLock, GlkMode, MonitorHandle};
use gls_model::Explorer;
use gls_runtime::sysload::{SystemLoadConfig, SystemLoadMonitor};
use gls_sync::cell::ModelCell;
use gls_sync::thread;

/// Critical sections per modeled thread: with three in all, one thread
/// can wait in ticket mode while the second acquisition flips the lock to
/// mcs. A fourth section would only grow the tree.
const SECTIONS: [u64; 2] = [2, 1];

#[test]
fn glk_excludes_and_counts_exactly_across_a_ticket_to_mcs_flip() {
    Explorer::exhaustive().check("glk-flip", || {
        // The queue is at least 1 (the holder) whenever it is sampled, so
        // a 0.5 threshold flips ticket -> mcs at the first check and never
        // back. The manual monitor never reports multiprogramming.
        let config = GlkConfig::default()
            .with_sampling_period(1)
            .with_adaptation_period(2)
            .with_queue_thresholds(0.5, 0.5);
        let monitor = Arc::new(SystemLoadMonitor::manual(SystemLoadConfig::default()));
        let lock = Arc::new(GlkLock::with_config_and_monitor(
            config,
            MonitorHandle::Custom(monitor),
        ));
        let sections = Arc::new(ModelCell::new(0u64));
        let workers: Vec<_> = SECTIONS
            .iter()
            .map(|&sections_here| {
                let lock = Arc::clone(&lock);
                let sections = Arc::clone(&sections);
                thread::spawn(move || {
                    for _ in 0..sections_here {
                        lock.lock();
                        // SAFETY: serialized by the GLK lock under test —
                        // the claim the race detector verifies.
                        sections.with_mut(|p| unsafe { *p += 1 });
                        lock.unlock();
                    }
                })
            })
            .collect();
        for worker in workers {
            worker.join().expect("model worker panicked");
        }
        // SAFETY: every writer has joined.
        let total = sections.with(|p| unsafe { *p });
        let expected: u64 = SECTIONS.iter().sum();
        assert_eq!(total, expected, "a critical section was lost");
        assert_eq!(lock.mode(), GlkMode::Mcs, "the first check must flip");
        assert_eq!(lock.stats().transitions(), 1);
        assert_eq!(
            lock.acquisitions(),
            expected + lock.stats().transitions(),
            "the holder-only counter lost or gained a count"
        );
        assert!(!lock.is_locked(), "lock left held after drain");
        assert_eq!(lock.queue_length(), 0, "waiters left queued after drain");
    });
}
