//! Rotating sliding-window histograms.
//!
//! A [`WindowedHistogram`] keeps the last `window` worth of samples in
//! `slots` rotating [`Histogram`] segments of `window / slots` each.
//! Recording lands in the segment covering "now"; segments older than
//! the window are cleared lazily as time advances, so both record and
//! readout are O(slots) worst case with no timer thread. Readout
//! ([`WindowedHistogram::merged`]) folds the live segments into one
//! [`Histogram`], from which the usual count/mean/quantile readers
//! apply — quantiles inherit the registry's log-bucket relative error
//! bound of `2^(1/SUB_BUCKETS) − 1 ≈ 19%`.
//!
//! The window is **approximate by one slot**: a merged readout covers
//! between `window − slot` and `window` of history depending on where
//! "now" falls inside the current slot. With the default 15 slots over
//! 60 s that is ±4 s — the right trade for live serving quantiles.
//!
//! Time is injectable: the `*_at_ns` methods take explicit
//! nanoseconds-since-anchor so tests drive rotation deterministically;
//! the plain methods use a per-histogram [`Instant`] anchor.

use std::time::{Duration, Instant};

use crate::registry::Histogram;

/// Default number of rotating segments.
pub const DEFAULT_SLOTS: usize = 15;

/// Default window length for registry-managed windowed histograms.
pub const DEFAULT_WINDOW: Duration = Duration::from_secs(60);

/// One retained sample linking a recorded value to the trace id of the
/// request that produced it — the OpenMetrics exemplar exposed on
/// `/metrics`, so a quantile spike on a dashboard links to a loadable
/// trace of the offending request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Exemplar {
    /// The observed value (same unit as the histogram's samples).
    pub value: f64,
    /// Trace id of the request that produced it (never 0).
    pub trace_id: u64,
}

/// A sliding-window histogram of non-negative samples (see module
/// docs for semantics).
///
/// Each rotating slot additionally retains **one exemplar**: the
/// max-value traced observation recorded while the slot was current
/// ([`WindowedHistogram::record_traced`]). Exemplars expire with their
/// slot, so the one surfaced by [`WindowedHistogram::exemplar`] is
/// always from inside the live window.
#[derive(Clone, Debug)]
pub struct WindowedHistogram {
    slots: Vec<Histogram>,
    /// Per-slot max-value traced observation (parallel to `slots`).
    exemplars: Vec<Option<Exemplar>>,
    /// Nanoseconds covered by one slot.
    slot_ns: u64,
    /// Absolute slot number (`ns / slot_ns`) last observed; slots in
    /// `(cur_slot - slots.len(), cur_slot]` are live.
    cur_slot: u64,
    anchor: Instant,
}

impl WindowedHistogram {
    /// A windowed histogram covering `window` in `slots` segments.
    /// Both are clamped to at least 1 ms / 1 slot.
    #[must_use]
    pub fn new(window: Duration, slots: usize) -> Self {
        let slots = slots.max(1);
        let window_ns = (window.as_nanos() as u64).max(1_000_000 * slots as u64);
        WindowedHistogram {
            slots: vec![Histogram::new(); slots],
            exemplars: vec![None; slots],
            slot_ns: window_ns / slots as u64,
            cur_slot: 0,
            anchor: Instant::now(),
        }
    }

    /// A windowed histogram with the default window and slot count.
    #[must_use]
    pub fn with_defaults() -> Self {
        WindowedHistogram::new(DEFAULT_WINDOW, DEFAULT_SLOTS)
    }

    /// The configured window length.
    #[must_use]
    pub fn window(&self) -> Duration {
        Duration::from_nanos(self.slot_ns * self.slots.len() as u64)
    }

    fn now_ns(&self) -> u64 {
        self.anchor.elapsed().as_nanos() as u64
    }

    /// Rotates to the slot covering `ns`, clearing every segment whose
    /// coverage expired since the last observation.
    fn advance(&mut self, ns: u64) {
        let target = ns / self.slot_ns;
        if target <= self.cur_slot {
            return; // same slot, or a stale timestamp from a racer
        }
        let n = self.slots.len() as u64;
        let steps = (target - self.cur_slot).min(n);
        for i in 1..=steps {
            let idx = ((self.cur_slot + i) % n) as usize;
            self.slots[idx].clear();
            self.exemplars[idx] = None;
        }
        self.cur_slot = target;
    }

    /// Records one sample at an explicit anchor-relative time.
    pub fn record_at_ns(&mut self, ns: u64, v: f64) {
        self.record_traced_at_ns(ns, v, 0);
    }

    /// Records one sample "now".
    pub fn record(&mut self, v: f64) {
        self.record_at_ns(self.now_ns(), v);
    }

    /// Records one sample carrying the trace id of the request that
    /// produced it (`0` = untraced: identical to [`record`]). A traced
    /// sample that is the slot's maximum so far becomes the slot's
    /// exemplar.
    ///
    /// [`record`]: WindowedHistogram::record
    pub fn record_traced(&mut self, v: f64, trace_id: u64) {
        self.record_traced_at_ns(self.now_ns(), v, trace_id);
    }

    /// [`record_traced`] at an explicit anchor-relative time.
    ///
    /// [`record_traced`]: WindowedHistogram::record_traced
    pub fn record_traced_at_ns(&mut self, ns: u64, v: f64, trace_id: u64) {
        self.advance(ns);
        let idx = (self.cur_slot % self.slots.len() as u64) as usize;
        self.slots[idx].record(v);
        if trace_id != 0
            && v.is_finite()
            && v >= 0.0
            && self.exemplars[idx].is_none_or(|e| v > e.value)
        {
            self.exemplars[idx] = Some(Exemplar { value: v, trace_id });
        }
    }

    /// Folds the segments live at an explicit anchor-relative time
    /// into one [`Histogram`].
    #[must_use]
    pub fn merged_at_ns(&mut self, ns: u64) -> Histogram {
        self.advance(ns);
        let mut out = Histogram::new();
        for s in &self.slots {
            out.merge(s);
        }
        out
    }

    /// Folds the currently live segments into one [`Histogram`].
    #[must_use]
    pub fn merged(&mut self) -> Histogram {
        self.merged_at_ns(self.now_ns())
    }

    /// The max-value exemplar across the segments live at an explicit
    /// anchor-relative time (`None` when no traced sample is inside
    /// the window).
    #[must_use]
    pub fn exemplar_at_ns(&mut self, ns: u64) -> Option<Exemplar> {
        self.advance(ns);
        self.exemplars
            .iter()
            .flatten()
            .copied()
            .max_by(|a, b| a.value.total_cmp(&b.value))
    }

    /// The max-value exemplar across the currently live segments.
    #[must_use]
    pub fn exemplar(&mut self) -> Option<Exemplar> {
        self.exemplar_at_ns(self.now_ns())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    fn wh(window_ms: u64, slots: usize) -> WindowedHistogram {
        WindowedHistogram::new(Duration::from_millis(window_ms), slots)
    }

    #[test]
    fn samples_within_the_window_are_all_visible() {
        let mut w = wh(100, 10);
        for i in 0..50 {
            w.record_at_ns(i * MS, f64::from(u32::try_from(i).unwrap()) + 1.0);
        }
        let h = w.merged_at_ns(50 * MS);
        assert_eq!(h.count(), 50);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 50.0);
    }

    #[test]
    fn old_samples_rotate_out() {
        let mut w = wh(100, 10);
        w.record_at_ns(0, 5.0);
        // Still visible just inside the window...
        assert_eq!(w.merged_at_ns(95 * MS).count(), 1);
        // ...gone once its slot expires.
        assert_eq!(w.merged_at_ns(101 * MS).count(), 0);
    }

    #[test]
    fn big_time_jumps_clear_everything_once() {
        let mut w = wh(100, 10);
        for i in 0..10 {
            w.record_at_ns(i * 10 * MS, 1.0);
        }
        assert_eq!(w.merged_at_ns(99 * MS).count(), 10);
        // A jump many windows forward must not wrap into live slots.
        assert_eq!(w.merged_at_ns(100_000 * MS).count(), 0);
        w.record_at_ns(100_001 * MS, 2.0);
        assert_eq!(w.merged_at_ns(100_001 * MS).count(), 1);
    }

    #[test]
    fn stale_timestamps_never_unrotate() {
        let mut w = wh(100, 10);
        w.record_at_ns(50 * MS, 1.0);
        // A racer's older timestamp lands in the current slot instead
        // of resurrecting an expired one.
        w.record_at_ns(10 * MS, 2.0);
        assert_eq!(w.merged_at_ns(50 * MS).count(), 2);
    }

    #[test]
    fn merged_quantiles_match_single_histogram() {
        let mut w = wh(1_000, 10);
        let mut h = Histogram::new();
        for i in 1..=500u32 {
            let v = f64::from(i);
            w.record_at_ns(u64::from(i) * MS, v);
            h.record(v);
        }
        let m = w.merged_at_ns(500 * MS);
        assert_eq!(m.count(), h.count());
        assert_eq!(m.sum(), h.sum());
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(m.quantile(q), h.quantile(q));
        }
    }

    #[test]
    fn exemplar_tracks_the_max_traced_sample_and_expires() {
        let mut w = wh(100, 10);
        w.record_traced_at_ns(0, 5.0, 11);
        w.record_traced_at_ns(MS, 9.0, 22);
        w.record_traced_at_ns(2 * MS, 7.0, 33);
        // Untraced samples never become exemplars, even when larger.
        w.record_at_ns(3 * MS, 100.0);
        let e = w.exemplar_at_ns(3 * MS).expect("traced sample retained");
        assert_eq!(
            e,
            Exemplar {
                value: 9.0,
                trace_id: 22
            }
        );
        // A later slot's smaller max coexists; the window max wins.
        w.record_traced_at_ns(50 * MS, 6.0, 44);
        assert_eq!(w.exemplar_at_ns(50 * MS).unwrap().trace_id, 22);
        // Once the early slots rotate out, the survivor takes over.
        assert_eq!(w.exemplar_at_ns(130 * MS).unwrap().trace_id, 44);
        // And it too expires with its slot.
        assert_eq!(w.exemplar_at_ns(200 * MS), None);
    }

    #[test]
    fn exemplar_ignores_non_finite_and_zero_ids() {
        let mut w = wh(100, 10);
        w.record_traced_at_ns(0, f64::NAN, 7);
        w.record_traced_at_ns(0, 3.0, 0);
        assert_eq!(w.exemplar_at_ns(0), None);
        w.record_traced_at_ns(0, 3.0, 7);
        assert_eq!(w.exemplar_at_ns(0).unwrap().trace_id, 7);
    }

    #[test]
    fn wall_clock_path_records() {
        let mut w = WindowedHistogram::with_defaults();
        w.record(3.0);
        w.record(4.0);
        let h = w.merged();
        assert_eq!(h.count(), 2);
        assert!(w.window() >= Duration::from_secs(59));
    }
}
