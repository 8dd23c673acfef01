//! The stage timer: one clock reading per stage boundary, fanned out
//! to every sink that wants it.
//!
//! A [`Stage`] holds the `Instant` its stage started at — read by
//! [`Stage::start`], or a boundary the caller already holds, passed to
//! [`Stage::at`] so adjacent stages share one reading. [`Stage::end`]
//! reads the clock once more and returns that end `Instant` with the
//! stage's [`Duration`]; the same two readings feed
//!
//! * the histogram named by [`Stage::metric`] (nanoseconds), recorded
//!   only when [`crate::enabled`] (`AMOE_OBS`);
//! * the trace event tagged by [`Stage::trace`], recorded only when
//!   [`crate::trace::enabled`] and its trace or batch id is non-zero.
//!
//! So a caller's own accounting (`serving::Stats`, the server's stage
//! windows), the histogram and the trace event all report the same
//! duration. A stage has no thread-local state and never allocates:
//! with both gates off, `end` is one clock read and two relaxed loads.
//!
//! [`StageScope`] is the RAII form for callers that only feed a
//! histogram: it times from [`StageScope::enter`] to drop, and when
//! `AMOE_OBS` is off at entry it is inert and reads no clock at all.

use std::time::{Duration, Instant};

use crate::{registry, trace};

/// A trace event's tag: stage name, trace id, batch id and payload.
#[derive(Clone, Copy, Debug)]
struct TraceTag {
    stage: &'static str,
    trace_id: u64,
    batch_id: u64,
    aux: u64,
}

/// One timed stage (see the module docs). `Copy`, so a stage can be
/// ended from inside a closure that captured it.
#[derive(Clone, Copy, Debug)]
#[must_use = "a stage records nothing until it is ended"]
pub struct Stage {
    start: Instant,
    metric: Option<&'static str>,
    trace: Option<TraceTag>,
}

impl Stage {
    /// Starts a stage now: one clock read.
    pub fn start() -> Stage {
        Stage::at(Instant::now())
    }

    /// Starts a stage at a boundary the caller already read, such as
    /// the end of the previous stage.
    pub fn at(start: Instant) -> Stage {
        Stage {
            start,
            metric: None,
            trace: None,
        }
    }

    /// Feeds the duration, in nanoseconds, to the histogram `name`
    /// when `AMOE_OBS` is on.
    pub fn metric(self, name: &'static str) -> Stage {
        Stage {
            metric: Some(name),
            ..self
        }
    }

    /// Records the stage as the trace event `stage` when tracing is on
    /// and `trace_id` or `batch_id` is non-zero. `aux` is the event's
    /// stage-specific payload ([`trace::TraceEvent::aux`]).
    pub fn trace(self, stage: &'static str, trace_id: u64, batch_id: u64, aux: u64) -> Stage {
        Stage {
            trace: Some(TraceTag {
                stage,
                trace_id,
                batch_id,
                aux,
            }),
            ..self
        }
    }

    /// The stage's start boundary.
    #[must_use]
    pub fn started(&self) -> Instant {
        self.start
    }

    /// Ends the stage: reads the clock once, records the sinks that
    /// are on, and returns the end boundary with the duration.
    pub fn end(self) -> (Instant, Duration) {
        let end = Instant::now();
        let elapsed = end.duration_since(self.start);
        if let Some(name) = self.metric {
            registry::histogram_record(name, elapsed.as_nanos() as f64);
        }
        if let Some(t) = self.trace {
            if (t.trace_id != 0 || t.batch_id != 0) && trace::enabled() {
                trace::record(
                    t.trace_id,
                    t.batch_id,
                    t.stage,
                    trace::instant_ns(self.start),
                    trace::instant_ns(end),
                    t.aux,
                );
            }
        }
        (end, elapsed)
    }
}

/// RAII histogram timer: records the time from [`StageScope::enter`]
/// to drop into the named histogram. Inert (no clock read) when
/// `AMOE_OBS` is off at entry.
#[must_use = "the scope times until it is dropped"]
pub struct StageScope(Option<Stage>);

impl StageScope {
    /// Opens a scope feeding the histogram `name`.
    pub fn enter(name: &'static str) -> StageScope {
        StageScope(crate::enabled().then(|| Stage::start().metric(name)))
    }
}

impl Drop for StageScope {
    fn drop(&mut self) {
        if let Some(stage) = self.0 {
            stage.end();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_reading_feeds_the_duration_and_the_histogram() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        registry::reset();
        let first = Stage::start().metric("test.stage_first");
        let (boundary, a) = first.end();
        // The next stage starts at the previous stage's end reading.
        let second = Stage::at(boundary).metric("test.stage_second");
        assert_eq!(second.started(), boundary);
        let (end, b) = second.end();
        let snap = registry::snapshot();
        crate::set_enabled(false);
        assert_eq!(end.duration_since(first.started()), a + b);
        let sum = |name: &str| snap.histograms.get(name).map(registry::Histogram::sum);
        assert_eq!(sum("test.stage_first"), Some(a.as_nanos() as f64));
        assert_eq!(sum("test.stage_second"), Some(b.as_nanos() as f64));
        registry::reset();
    }

    #[test]
    fn disabled_stages_record_nothing() {
        let _guard = crate::test_lock();
        crate::set_enabled(false);
        registry::reset();
        Stage::start().metric("test.stage_off").end();
        drop(StageScope::enter("test.scope_off"));
        assert!(registry::snapshot().histograms.is_empty());
    }

    #[test]
    fn scope_records_on_drop_when_enabled() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        registry::reset();
        drop(StageScope::enter("test.scope_on"));
        let snap = registry::snapshot();
        crate::set_enabled(false);
        assert_eq!(
            snap.histograms.get("test.scope_on").map(|h| h.count()),
            Some(1)
        );
        registry::reset();
    }
}
