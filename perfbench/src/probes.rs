//! Per-layer probes of the traced run: short timed loops over one layer's
//! public functions, on threads pinned like the workers. Each batch of
//! calls is one span; a probe reports the median over its batches.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use gls_locks::ParkingLot;
use gls_runtime::topology;

use crate::clock::{now, Clock};
use crate::trace::{Tracer, NO_PARENT};
use crate::workload::{Rng, KEYS};

const BATCHES: usize = 15;
/// Length of one contended handoff window, and how many are run.
const HANDOFF_WINDOW: Duration = Duration::from_millis(25);
const HANDOFF_WINDOWS: usize = 5;
/// Park/unpark round trips timed by the wake probe.
const WAKES: usize = 150;

pub struct Probes<'a> {
    pub clock: &'a Clock,
    pub tracer: &'a Tracer,
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Runs `f` on a thread pinned like worker `w`.
fn on_pinned<R: Send>(w: usize, f: impl FnOnce() -> R + Send) -> R {
    thread::scope(|s| {
        s.spawn(move || {
            topology::pin_worker(w);
            f()
        })
        .join()
        .expect("probe thread panicked")
    })
}

// Probe windows are wall-clock time by definition.
#[allow(clippy::disallowed_methods)]
fn sleep(d: Duration) {
    thread::sleep(d);
}

impl Probes<'_> {
    /// Median nanoseconds per call of `f(i)` over batches of `per_batch`
    /// calls on a pinned thread.
    pub fn per_call(
        &self,
        name: &'static str,
        per_batch: usize,
        mut f: impl FnMut(usize) + Send,
    ) -> f64 {
        let tracer = self.tracer;
        let ticks = on_pinned(0, move || {
            let mut buf = tracer.buffer(BATCHES + 1);
            let outer = buf.open(name, NO_PARENT, 0, now());
            // One untimed batch warms caches and lazily created state.
            (0..per_batch).for_each(&mut f);
            let per_batch_ticks = (0..BATCHES)
                .map(|b| {
                    let t0 = now();
                    (b * per_batch..(b + 1) * per_batch).for_each(&mut f);
                    let t1 = now();
                    buf.record("probe.batch", outer, b as u64, t0, t1);
                    (t1 - t0) as f64 / per_batch as f64
                })
                .collect();
            buf.close(outer, now());
            tracer.submit(buf);
            median(per_batch_ticks)
        });
        self.clock.ns(ticks)
    }

    /// Handoff cost of a lock with a HamsterDB-sized critical section (one
    /// `BTreeMap` lookup in a 50k-key map): the time per acquisition when
    /// two pinned threads contend, minus the time per acquisition of one
    /// thread alone.
    pub fn handoff_ns<L: Sync>(
        &self,
        name: &'static str,
        lock: &L,
        acquire: impl Fn(&L) + Sync,
        release: impl Fn(&L) + Sync,
    ) -> f64 {
        let table: BTreeMap<u64, u64> = (0..KEYS).map(|k| (k, k)).collect();
        let mut rng = Rng::new(KEYS);
        let keys: Vec<u64> = (0..1024).map(|_| rng.below(KEYS)).collect();
        let critical = |i: usize| {
            acquire(lock);
            black_box(table.get(&keys[i & 1023]));
            release(lock);
        };
        let solo = self.per_call(name, 2_000, critical);
        let periods = (0..HANDOFF_WINDOWS)
            .map(|_| {
                let stop = AtomicBool::new(false);
                let barrier = Barrier::new(3);
                thread::scope(|s| {
                    let handles: Vec<_> = (0..2)
                        .map(|w| {
                            let (stop, barrier, critical) = (&stop, &barrier, &critical);
                            s.spawn(move || {
                                topology::pin_worker(w);
                                barrier.wait();
                                let mut n = 0usize;
                                while !stop.load(Ordering::Relaxed) {
                                    critical(n + w * 512);
                                    n += 1;
                                }
                                n
                            })
                        })
                        .collect();
                    barrier.wait();
                    let t0 = Instant::now();
                    sleep(HANDOFF_WINDOW);
                    stop.store(true, Ordering::Relaxed);
                    let wall = t0.elapsed().as_nanos() as f64;
                    let total: usize = handles
                        .into_iter()
                        .map(|h| h.join().expect("handoff thread panicked"))
                        .sum();
                    wall / total.max(1) as f64
                })
            })
            .collect();
        median(periods) - solo
    }

    /// Park → unpark → running latency through the global parking lot,
    /// between two pinned threads: the waker lets the sleeper settle in
    /// the kernel, then times from `unpark_one` to the sleeper running.
    pub fn park_wake_ns(&self) -> f64 {
        let slot = AtomicU64::new(0);
        let addr = &slot as *const AtomicU64 as usize;
        let woke_at = AtomicU64::new(0);
        let lot = ParkingLot::global();
        let samples = thread::scope(|s| {
            s.spawn(|| {
                topology::pin_worker(1);
                for _ in 0..WAKES {
                    while !lot
                        .park(addr, 0, || true, || {}, Some(Duration::from_secs(1)))
                        .is_unparked()
                    {}
                    woke_at.store(now(), Ordering::Release);
                }
            });
            on_pinned(0, || {
                (0..WAKES)
                    .map(|_| {
                        while lot.parked_count(addr) == 0 {
                            std::hint::spin_loop();
                        }
                        let settle = Instant::now();
                        while settle.elapsed() < Duration::from_micros(50) {
                            std::hint::spin_loop();
                        }
                        let t0 = now();
                        lot.unpark_one(addr, 0, |_| {});
                        let mut t1 = woke_at.load(Ordering::Acquire);
                        while t1 == 0 {
                            std::hint::spin_loop();
                            t1 = woke_at.load(Ordering::Acquire);
                        }
                        woke_at.store(0, Ordering::Relaxed);
                        t1.saturating_sub(t0) as f64
                    })
                    .collect::<Vec<_>>()
            })
        });
        self.clock.ns(median(samples))
    }
}
