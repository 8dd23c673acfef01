#![warn(missing_docs)]

//! Unified telemetry for the Adv & HSC-MoE stack.
//!
//! The workspace builds offline with no external crates, so this crate
//! carries its own minimal versions of the observability primitives
//! the ROADMAP's perf work needs:
//!
//! * a **metrics registry** ([`registry`]) of named counters, gauges and
//!   log-bucketed histograms with quantile readout;
//! * one **stage timer** ([`stage`]) — reads the clock once per stage
//!   boundary and fans that reading out to the caller's own duration,
//!   a named histogram and a trace event, so every sink reports the
//!   same time for one stage;
//! * a **structured JSONL sink** ([`sink`], [`json`]) emitting one JSON
//!   object per event (training epochs, serving calls, bench rows, run
//!   manifests) to the file named by the `AMOE_OBS` environment
//!   variable;
//! * **sliding-window histograms** ([`window`]) — rotating segments
//!   over the last N seconds, which the serving stack owns for its
//!   live p50/p95/p99 readout (`/vars`, `/metrics`);
//! * a **request trace ring** ([`trace`]) — lock-sharded bounded
//!   buffer of per-request stage events, exportable as Chrome
//!   trace-event JSON (`AMOE_TRACE=path`, sampled via
//!   `AMOE_TRACE_SAMPLE=1/N`), independent of the `AMOE_OBS` gate;
//! * a **Prometheus text exposition layer** ([`expose`]) — renders
//!   registry snapshots and the server's windowed histograms (with
//!   OpenMetrics exemplars) under the `amoe_*` naming convention, plus the
//!   `validate_exposition` linter that CI runs against live scrapes.
//!
//! # Cost model
//!
//! Telemetry must be ≈ free when off. Every recording entry point
//! checks [`enabled`] first — a single relaxed atomic load — and
//! returns before allocating, locking, or touching thread-locals.
//! Stage/metric names are `&'static str` so the disabled path performs
//! **zero heap allocations** (asserted by the `obs_noalloc`
//! integration test).
//!
//! # Enabling
//!
//! Telemetry turns on automatically when `AMOE_OBS` is set to a
//! writable file path (conventionally `*.jsonl`); the first recording
//! call performs the one-time initialisation. Tests and embedders can
//! force the state with [`set_enabled`] and redirect the sink with
//! [`sink::set_sink_path`].
//!
//! # JSONL guarantees
//!
//! Every emitted line is a self-contained JSON object with at least
//! `event` (record type), `ts` (seconds since process start) and
//! `thread` fields. Numbers are always finite: non-finite floats are
//! serialised as `null` by construction (see [`json::write_f64`]).

pub mod expose;
pub mod json;
pub mod registry;
pub mod sink;
pub mod stage;
pub mod trace;
pub mod window;

pub use registry::{counter_add, gauge_set, histogram_record, snapshot, Snapshot};
pub use sink::{emit, emit_metrics_snapshot, Event};
pub use stage::{Stage, StageScope};
pub use window::{Exemplar, WindowedHistogram};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Tri-state: 0 = uninitialised, 1 = disabled, 2 = enabled.
static STATE: AtomicU8 = AtomicU8::new(0);

/// Whether telemetry is on. The hot-path gate: one relaxed atomic load
/// after the first call. The first call resolves the `AMOE_OBS`
/// environment variable (and opens the sink if it names a path).
#[inline]
#[must_use]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_from_env(),
    }
}

/// Forces telemetry on or off, overriding the environment. Intended
/// for tests and embedders; production code should set `AMOE_OBS`.
pub fn set_enabled(on: bool) {
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Cold path of [`enabled`]: consult `AMOE_OBS` exactly once.
#[cold]
fn init_from_env() -> bool {
    let path = std::env::var("AMOE_OBS").ok().filter(|p| !p.is_empty());
    let on = path.is_some();
    if let Some(p) = path {
        sink::set_sink_path(Some(std::path::Path::new(&p)));
    }
    // set_sink_path(Some) already stored "enabled"; make the unset case
    // sticky too. A concurrent set_enabled wins the race harmlessly.
    let _ = STATE.compare_exchange(
        0,
        if on { 2 } else { 1 },
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
    on
}

/// Seconds elapsed since the first telemetry call of the process — the
/// `ts` field of every JSONL record.
#[must_use]
pub fn process_time_secs() -> f64 {
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Serialises tests that toggle the global enabled state / registry /
/// sink, which would otherwise race under the parallel test runner.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_enabled_round_trips() {
        let _guard = test_lock();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }

    #[test]
    fn process_time_is_monotone() {
        let a = process_time_secs();
        let b = process_time_secs();
        assert!(b >= a && a >= 0.0);
    }
}
