//! Log-linear latency histogram with a resolution of 1/64 of the value.
//!
//! Values below 64 get a bucket each; above that every power of two is
//! split into 64 equal sub-buckets, so a bucket is at most 1.6 % wide.
//! Percentiles interpolate linearly inside their bucket. Values are TSC
//! ticks; callers convert to nanoseconds.

const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

fn index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    let sub = (v >> shift) as usize & (SUB - 1);
    (shift as usize + 1) * SUB + sub
}

/// `[lo, hi)` value range of bucket `i`.
fn bounds(i: usize) -> (f64, f64) {
    if i < SUB {
        return (i as f64, i as f64 + 1.0);
    }
    let shift = (i / SUB - 1) as u32;
    let lo = ((SUB + i % SUB) as u64) << shift;
    (lo as f64, (lo + (1u64 << shift)) as f64)
}

impl Histogram {
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[index(v)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (0 < q < 1), or `None` for an empty histogram.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = q * self.total as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (below + c) as f64 >= rank {
                let (lo, hi) = bounds(i);
                let frac = ((rank - below as f64) / c as f64).clamp(0.0, 1.0);
                return Some(lo + (hi - lo) * frac);
            }
            below += c;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_values_within_their_bounds() {
        for v in [0u64, 1, 63, 64, 65, 127, 128, 1000, 123_456, u64::MAX / 3] {
            let (lo, hi) = bounds(index(v));
            assert!(lo <= v as f64 && (v as f64) < hi, "{v}: [{lo}, {hi})");
            assert!(
                hi - lo <= (lo / SUB as f64).max(1.0),
                "{v}: bucket too wide"
            );
        }
        assert!(index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn quantiles_are_within_a_bucket_of_exact() {
        let mut h = Histogram::default();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!((p50 - 5_000.0).abs() / 5_000.0 < 0.02, "{p50}");
        assert!((p99 - 9_900.0).abs() / 9_900.0 < 0.02, "{p99}");
        assert_eq!(h.count(), 10_000);
    }
}
