//! The benchmark's time base: the TSC, read around every op, converted to
//! nanoseconds with a rate calibrated against the monotonic clock.

use std::time::{Duration, Instant};

pub use gls_runtime::cycles_now as now;

pub struct Clock {
    start_tick: u64,
    ns_per_tick: f64,
}

impl Clock {
    /// Calibrates over three 10 ms windows and keeps the median rate.
    pub fn calibrate() -> Self {
        let start_tick = now();
        let mut rates: Vec<f64> = (0..3)
            .map(|_| {
                let (t0, c0) = (Instant::now(), now());
                while t0.elapsed() < Duration::from_millis(10) {
                    std::hint::spin_loop();
                }
                let (ns, c1) = (t0.elapsed().as_nanos() as f64, now());
                ns / (c1 - c0) as f64
            })
            .collect();
        rates.sort_by(f64::total_cmp);
        Self {
            start_tick,
            ns_per_tick: rates[1],
        }
    }

    pub fn ns(&self, ticks: f64) -> f64 {
        ticks * self.ns_per_tick
    }

    pub fn since_start_ns(&self, tick: u64) -> f64 {
        self.ns(tick.saturating_sub(self.start_tick) as f64)
    }
}
