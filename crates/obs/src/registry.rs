//! Global metrics registry: named counters, gauges and log-bucketed
//! histograms.
//!
//! Recording goes through free functions ([`counter_add`],
//! [`gauge_set`], [`histogram_record`]) that no-op — before taking any
//! lock or allocating — when telemetry is disabled. Names are
//! `&'static str` so the hot path never builds keys on the heap.
//!
//! Histograms are logarithmic: [`SUB_BUCKETS`] buckets per power of
//! two, which bounds the relative quantile error at
//! `2^(1/SUB_BUCKETS) − 1 ≈ 19%` per readout while keeping memory and
//! record cost constant. This is the standard shape for latency
//! distributions (HDR-histogram style), where stages range from
//! sub-microsecond pool regions to multi-second epochs.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Log-histogram resolution: buckets per power of two.
pub const SUB_BUCKETS: usize = 4;

/// A log-bucketed histogram of non-negative samples.
///
/// Bucket 0 holds values in `[0, 1)`; bucket `i ≥ 1` holds values in
/// `[2^((i−1)/SUB), 2^(i/SUB))` with `SUB =` [`SUB_BUCKETS`]. For stage
/// timers samples are nanoseconds, so bucket 0 is "under 1 ns" and the
/// scheme covers any realistic duration.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram::default()
    }

    /// The bucket index a value lands in. Negative and non-finite
    /// values are clamped into bucket 0 (recording rejects them
    /// anyway).
    #[must_use]
    pub fn bucket_index(v: f64) -> usize {
        if v.is_finite() && v >= 1.0 {
            (v.log2() * SUB_BUCKETS as f64).floor() as usize + 1
        } else {
            0
        }
    }

    /// The `[lower, upper)` boundaries of bucket `i`.
    #[must_use]
    pub fn bucket_bounds(i: usize) -> (f64, f64) {
        if i == 0 {
            return (0.0, 1.0);
        }
        let exp = |k: usize| 2f64.powf(k as f64 / SUB_BUCKETS as f64);
        (exp(i - 1), exp(i))
    }

    /// Records one sample. Non-finite or negative samples are dropped
    /// (the JSONL contract forbids propagating them).
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() || v < 0.0 {
            return;
        }
        let idx = Self::bucket_index(v);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.sum += v;
        self.min = if self.count == 0 { v } else { self.min.min(v) };
        self.max = if self.count == 0 { v } else { self.max.max(v) };
        self.count += 1;
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Per-bucket sample counts, indexed by [`Histogram::bucket_index`]
    /// (trailing all-zero buckets are not materialised). The exposition
    /// layer folds these into cumulative Prometheus `_bucket` series.
    #[must_use]
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Sum of recorded samples.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of recorded samples (`0.0` when empty — never non-finite).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest recorded sample (`0.0` when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (`0.0` when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Resets the histogram to empty, keeping allocated bucket storage
    /// for reuse (the windowed-rotation hot path).
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.count = 0;
        self.sum = 0.0;
        self.min = 0.0;
        self.max = 0.0;
    }

    /// Folds another histogram into this one. Bucket-exact: merging
    /// then reading a quantile equals recording every sample into one
    /// histogram (buckets are a fixed global grid).
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (dst, src) in self.counts.iter_mut().zip(&other.counts) {
            *dst += src;
        }
        self.min = if self.count == 0 {
            other.min
        } else {
            self.min.min(other.min)
        };
        self.max = if self.count == 0 {
            other.max
        } else {
            self.max.max(other.max)
        };
        self.sum += other.sum;
        self.count += other.count;
    }

    /// Quantile readout: the upper boundary of the bucket holding the
    /// `q`-quantile sample, clamped to the exact observed `[min, max]`
    /// range. `q` is clamped to `[0, 1]`; an empty histogram reads
    /// `0.0`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // The extremes are tracked exactly; interpolate only inside.
        if q <= 0.0 {
            return self.min;
        }
        if q >= 1.0 {
            return self.max;
        }
        // Rank of the target sample, 1-based.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (_, upper) = Self::bucket_bounds(i);
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// The registry's metric families.
#[derive(Default)]
struct Inner {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

static REGISTRY: Mutex<Option<Inner>> = Mutex::new(None);

fn with_inner<R>(f: impl FnOnce(&mut Inner) -> R) -> R {
    let mut guard = REGISTRY.lock().expect("obs registry poisoned");
    f(guard.get_or_insert_with(Inner::default))
}

/// Adds `delta` to the named counter. No-op when telemetry is off.
/// Debug builds assert the name follows the exposition convention
/// ([`crate::expose::validate_metric_name`]).
pub fn counter_add(name: &'static str, delta: u64) {
    if !crate::enabled() {
        return;
    }
    crate::expose::debug_check_name(name);
    with_inner(|r| *r.counters.entry(name).or_insert(0) += delta);
}

/// Sets the named gauge to `v`. No-op when telemetry is off or `v` is
/// non-finite.
pub fn gauge_set(name: &'static str, v: f64) {
    if !crate::enabled() || !v.is_finite() {
        return;
    }
    crate::expose::debug_check_name(name);
    with_inner(|r| {
        r.gauges.insert(name, v);
    });
}

/// Records `v` into the named histogram. No-op when telemetry is off.
pub fn histogram_record(name: &'static str, v: f64) {
    if !crate::enabled() {
        return;
    }
    crate::expose::debug_check_name(name);
    with_inner(|r| r.histograms.entry(name).or_default().record(v));
}

/// A point-in-time copy of every metric.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram copies by name.
    pub histograms: BTreeMap<String, Histogram>,
}

/// Copies the current registry contents (works even while disabled, so
/// a run can be inspected after `set_enabled(false)`).
#[must_use]
pub fn snapshot() -> Snapshot {
    with_inner(|r| Snapshot {
        counters: r
            .counters
            .iter()
            .map(|(k, v)| ((*k).to_string(), *v))
            .collect(),
        gauges: r
            .gauges
            .iter()
            .map(|(k, v)| ((*k).to_string(), *v))
            .collect(),
        histograms: r
            .histograms
            .iter()
            .map(|(k, v)| ((*k).to_string(), v.clone()))
            .collect(),
    })
}

/// Clears every metric. Intended for tests isolating runs.
pub fn reset() {
    with_inner(|r| *r = Inner::default());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_follow_the_log_grid() {
        // Bucket 0 is [0, 1); bucket i ≥ 1 is [2^((i-1)/4), 2^(i/4)).
        assert_eq!(Histogram::bucket_index(0.0), 0);
        assert_eq!(Histogram::bucket_index(0.999), 0);
        assert_eq!(Histogram::bucket_index(1.0), 1);
        assert_eq!(Histogram::bucket_index(2.0), SUB_BUCKETS + 1);
        assert_eq!(Histogram::bucket_index(4.0), 2 * SUB_BUCKETS + 1);
        assert_eq!(Histogram::bucket_index(1024.0), 10 * SUB_BUCKETS + 1);
        // Every value lands inside its bucket's bounds.
        for v in [0.0, 0.5, 1.0, 1.5, 3.0, 7.7, 1e6, 1e12] {
            let i = Histogram::bucket_index(v);
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert!(
                lo <= v && v < hi,
                "value {v} outside bucket {i} [{lo}, {hi})"
            );
        }
        // Buckets tile the line: bucket i's upper bound is i+1's lower.
        for i in 0..64 {
            assert_eq!(
                Histogram::bucket_bounds(i).1,
                Histogram::bucket_bounds(i + 1).0
            );
        }
    }

    #[test]
    fn bucket_relative_width_is_bounded() {
        let factor = 2f64.powf(1.0 / SUB_BUCKETS as f64);
        for i in 1..100 {
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert!((hi / lo - factor).abs() < 1e-12);
        }
    }

    #[test]
    fn quantiles_read_within_one_bucket_of_truth() {
        let mut h = Histogram::new();
        for v in 1..=1000 {
            h.record(f64::from(v));
        }
        assert_eq!(h.count(), 1000);
        assert!((h.mean() - 500.5).abs() < 1e-9);
        let factor = 2f64.powf(1.0 / SUB_BUCKETS as f64);
        for (q, truth) in [(0.5, 500.0), (0.9, 900.0), (0.99, 990.0)] {
            let est = h.quantile(q);
            assert!(
                est >= truth * 0.999 && est <= truth * factor * 1.001,
                "q{q}: estimate {est} vs truth {truth}"
            );
        }
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(1.0), 1000.0);
    }

    #[test]
    fn quantile_error_bound_holds_on_random_streams() {
        // Property: for any stream of samples ≥ 1 (where the log grid
        // gives a relative guarantee — bucket 0 is absolute [0, 1)),
        // the estimate brackets the exact-sort oracle from above
        // within one bucket width: truth ≤ est ≤ truth · 2^(1/SUB).
        let factor = 2f64.powf(1.0 / SUB_BUCKETS as f64);
        let mut state = 0x853C_49E6_748F_EA9Bu64; // fixed seed
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..50 {
            let n = 1 + (next() % 300) as usize;
            // Spread magnitudes across many decades so every trial
            // exercises a different slice of the bucket grid.
            let scale = 10f64.powi((next() % 9) as i32);
            let mut h = Histogram::new();
            let mut values = Vec::with_capacity(n);
            for _ in 0..n {
                let v = 1.0 + scale * (next() % 10_000) as f64 / 997.0;
                h.record(v);
                values.push(v);
            }
            values.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for q in [0.5, 0.9, 0.95, 0.99] {
                // The histogram's own rank rule, applied to the truth.
                let rank = ((q * n as f64).ceil() as usize).max(1);
                let truth = values[rank - 1];
                let est = h.quantile(q);
                assert!(
                    est >= truth * (1.0 - 1e-9) && est <= truth * factor * (1.0 + 1e-9),
                    "trial {trial}: q={q} n={n} estimate {est} outside \
                     [{truth}, {truth} · {factor}]"
                );
            }
            // The exact extremes are tracked outside the grid.
            assert_eq!(h.quantile(0.0), values[0]);
            assert_eq!(h.quantile(1.0), values[n - 1]);
        }
        // Single-bucket edge: identical samples collapse the clamp
        // range to a point, so every quantile is exact.
        let mut h = Histogram::new();
        for _ in 0..17 {
            h.record(42.0);
        }
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 42.0);
        }
        // Empty edge: the oracle has no answer; the histogram reads 0.
        assert_eq!(Histogram::new().quantile(0.99), 0.0);
    }

    #[test]
    fn quantile_clamps_to_observed_range() {
        let mut h = Histogram::new();
        h.record(10.0);
        // A single sample: every quantile is that sample.
        for q in [0.0, 0.25, 0.5, 1.0] {
            assert_eq!(h.quantile(q), 10.0);
        }
    }

    #[test]
    fn empty_histogram_reads_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn non_finite_and_negative_samples_are_dropped() {
        let mut h = Histogram::new();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(-1.0);
        assert_eq!(h.count(), 0);
        h.record(3.0);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn merge_is_bucket_exact_and_clear_resets() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for v in 1..=100 {
            let v = f64::from(v);
            if v <= 40.0 {
                a.record(v);
            } else {
                b.record(v);
            }
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.sum(), whole.sum());
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        for q in [0.1, 0.5, 0.95, 0.99] {
            assert_eq!(a.quantile(q), whole.quantile(q));
        }
        // Merging an empty histogram is a no-op (min/max untouched).
        let before = a.clone();
        a.merge(&Histogram::new());
        assert_eq!(a.count(), before.count());
        assert_eq!(a.min(), before.min());
        // Merging INTO an empty histogram adopts the other's extremes.
        let mut e = Histogram::new();
        e.merge(&whole);
        assert_eq!(e.min(), 1.0);
        assert_eq!(e.max(), 100.0);
        a.clear();
        assert_eq!(a.count(), 0);
        assert_eq!(a.quantile(0.5), 0.0);
        a.record(2.0);
        assert_eq!(a.count(), 1);
    }

    #[test]
    fn registry_round_trip() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        reset();
        counter_add("test.counter", 2);
        counter_add("test.counter", 3);
        gauge_set("test.gauge", 1.25);
        gauge_set("test.nan_gauge", f64::NAN);
        histogram_record("test.hist", 5.0);
        let snap = snapshot();
        crate::set_enabled(false);
        assert_eq!(snap.counters.get("test.counter"), Some(&5));
        assert_eq!(snap.gauges.get("test.gauge"), Some(&1.25));
        assert!(!snap.gauges.contains_key("test.nan_gauge"));
        assert_eq!(
            snap.histograms.get("test.hist").map(Histogram::count),
            Some(1)
        );
        reset();
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let _guard = crate::test_lock();
        crate::set_enabled(false);
        reset();
        counter_add("test.off", 1);
        histogram_record("test.off_hist", 1.0);
        let snap = snapshot();
        assert!(snap.counters.is_empty() && snap.histograms.is_empty());
    }
}
