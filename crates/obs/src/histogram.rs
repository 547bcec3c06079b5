//! Fixed log-bucketed histograms over `u64` microsecond values.
//!
//! Buckets are powers of two: bucket 0 holds the value 0, bucket *i* (i ≥ 1)
//! holds values whose bit length is *i*, i.e. `[2^(i-1), 2^i - 1]`. Bucketing
//! by bit length makes `observe` a handful of integer ops with no float math,
//! so recording is deterministic across platforms and cheap enough for task
//! completion paths.
//!
//! Quantiles are integer-only and order-independent: [`Histogram::quantile`]
//! finds the bucket holding the requested rank and interpolates linearly
//! within it, spreading the bucket's observations uniformly across its span
//! so reported p50/p99 values land *inside* the bucket instead of
//! saturating at its upper bound `2^i - 1`.

/// Number of buckets: one for zero plus one per possible bit length.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed log-bucketed histogram of `u64` values (conventionally µs).
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// Bucket index of a value: 0 for 0, otherwise its bit length.
fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (64 - value.leading_zeros()) as usize
    }
}

/// Inclusive upper bound of a bucket.
pub fn bucket_upper(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one observation.
    pub fn observe(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observed value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// Raw bucket counts, indexed by [`bucket_upper`].
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Inclusive lower bound of a bucket.
    fn bucket_lower(index: usize) -> u64 {
        match index {
            0 => 0,
            i => 1u64 << (i - 1),
        }
    }

    /// Quantile estimate with within-bucket linear interpolation.
    ///
    /// `q` is an integer percentage in `0..=100`. The bucket holding the
    /// observation of rank `ceil(count * q / 100)` is located, then its `n`
    /// observations are assumed uniformly spread over the bucket span
    /// `[2^(i-1), 2^i - 1]` and the estimate is read off at the rank's
    /// position. This keeps tail quantiles from collapsing onto bucket
    /// boundaries: with wide high buckets the bucket's upper bound is the
    /// same `2^i - 1` for every quantile that lands in it, while this
    /// estimate moves through the bucket with the rank. The result is
    /// clamped to the observed `[min, max]` and stays integer-only (and thus
    /// bit-identical across platforms and observation orders).
    pub fn quantile(&self, q: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count * q).div_ceil(100)).max(1);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let before = cumulative;
            cumulative += n;
            if cumulative >= rank {
                let lower = Self::bucket_lower(i);
                let span = bucket_upper(i) - lower;
                // Position of the rank inside this bucket, 1..=n; the n-th
                // observation sits at the bucket's upper bound.
                let pos = rank - before;
                let est = lower + span.saturating_mul(pos) / n;
                return est.clamp(self.min(), self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_by_bit_length() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(10), 1023);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn observe_tracks_count_sum_min_max() {
        let mut h = Histogram::new();
        for v in [5u64, 100, 7, 0, 900] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1012);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 900);
    }

    #[test]
    fn interpolated_quantiles_land_inside_the_bucket() {
        // The saturation case from the bench: most observations share one
        // wide bucket, whose upper bound 2^i - 1 every quantile would
        // collapse onto, while the interpolated estimate moves with the rank.
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.observe(10); // bucket 4, span [8, 15]
        }
        h.observe(1000); // bucket 10
        // rank 50 of 99 in-bucket observations: 8 + 7 * 50 / 99 = 11.
        assert_eq!(h.quantile(50), 11);
        // rank 99 of 99: 8 + 7 * 99 / 99 = 15, inside the observed range.
        assert_eq!(h.quantile(99), 15);
        assert_eq!(h.quantile(100), 1000, "clamped to observed max");

        // Spread within one bucket: 33, 40, 50, 60 all land in [32, 63].
        let mut h = Histogram::new();
        for v in [33u64, 40, 50, 60] {
            h.observe(v);
        }
        assert_eq!(h.quantile(25), 39); // 32 + 31 * 1 / 4
        assert_eq!(h.quantile(50), 47); // 32 + 31 * 2 / 4
        assert_eq!(h.quantile(99), 60); // 32 + 31 * 4 / 4 = 63, clamped to max
        // A single-valued histogram clamps every quantile onto that value.
        let mut h = Histogram::new();
        for _ in 0..4 {
            h.observe(40);
        }
        for q in [1, 50, 99, 100] {
            assert_eq!(h.quantile(q), 40);
        }
        assert_eq!(Histogram::new().quantile(50), 0);
    }

    #[test]
    fn quantiles_are_order_independent() {
        let values = [3u64, 99, 1_000_000, 17, 0, 42, 42, 8191];
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in values {
            a.observe(v);
        }
        for v in values.iter().rev() {
            b.observe(*v);
        }
        for q in [0, 10, 50, 90, 99, 100] {
            assert_eq!(a.quantile(q), b.quantile(q));
        }
        assert_eq!(a.buckets(), b.buckets());
    }
}
