//! Request-scoped tracing: a lock-sharded, bounded, overwrite-oldest
//! ring of stage events, exportable as Chrome trace-event JSON.
//!
//! The serving stack records one [`TraceEvent`] per pipeline stage an
//! admitted request passes through (`admitted`, `enqueued`,
//! `queue_exit`, `batch_assembled`, `gate`, `expert`, `scatter`,
//! `reply_written`, plus `pool.*` region events from the worker pool).
//! Events carry the request's **trace id**, the **batch id** that
//! carried it through compute, the recording thread, and monotonic
//! nanosecond timestamps from a process-wide anchor.
//!
//! # Cost model
//!
//! Tracing is independent of the metrics/JSONL gate ([`crate::enabled`])
//! and follows the same contract: when off, every entry point returns
//! after a single relaxed atomic load, without allocating, locking, or
//! touching thread-locals (asserted by `tests/obs_noalloc.rs`). When
//! on, [`record`] takes one of [`SHARDS`] short mutexes chosen by the
//! recording thread and writes into a preallocated slot —
//! overwrite-oldest, so the hot path never blocks on a full buffer and
//! never grows it.
//!
//! # Sampling
//!
//! Server-assigned trace ids come from [`next_trace_id`], which keeps
//! 1-in-N ids (`AMOE_TRACE_SAMPLE=1/N` or `=N`, default every
//! request). Client-supplied ids bypass sampling: an explicit id is a
//! request to be traced.
//!
//! # Enabling and export
//!
//! `AMOE_TRACE=path` turns tracing on; the process (conventionally the
//! server, at drain) calls [`dump_if_env`] to write the ring as Chrome
//! trace-event JSON loadable by Perfetto (`ui.perfetto.dev`) or
//! `chrome://tracing`. Tests and embedders force the state with
//! [`set_enabled`] / [`set_sample`] and read back via [`events`] or
//! [`chrome_json`].

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json;

/// Number of independently locked ring shards. Threads hash to a shard
/// by a process-unique thread ordinal, so the short critical section in
/// [`record`] rarely contends.
pub const SHARDS: usize = 8;

/// Events retained per shard before overwrite-oldest kicks in
/// (`SHARDS * SHARD_CAP` events process-wide, ~448 KiB).
pub const SHARD_CAP: usize = 8192;

/// One recorded stage event. `start_ns`/`end_ns` are nanoseconds since
/// the process-wide trace anchor; instantaneous events have
/// `start_ns == end_ns`.
///
/// `trace_id == 0` marks a batch-scoped event (gate/expert/scatter/pool
/// phases cover a whole batch, not one request); `batch_id == 0` marks
/// a request-scoped event recorded before batch assembly. `aux` is a
/// stage-specific payload: row counts for admission/batch events, the
/// expert index for `expert`, task counts for pool regions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Request trace id (`0` for batch-scoped events).
    pub trace_id: u64,
    /// Batch id (`0` before batch assembly).
    pub batch_id: u64,
    /// Stage name (static: the recording sites own the vocabulary).
    pub stage: &'static str,
    /// Start, nanoseconds since the trace anchor.
    pub start_ns: u64,
    /// End, nanoseconds since the trace anchor (`== start_ns` for
    /// instantaneous events).
    pub end_ns: u64,
    /// Ordinal of the recording thread (process-unique, starts at 1).
    pub thread: u64,
    /// Stage-specific payload (rows, expert index, task count, ...).
    pub aux: u64,
}

/// Tri-state: 0 = uninitialised, 1 = disabled, 2 = enabled.
static STATE: AtomicU8 = AtomicU8::new(0);
/// Keep-1-in-N sampling divisor for server-assigned ids (≥ 1).
static SAMPLE: AtomicU64 = AtomicU64::new(1);
/// Monotone allocator for server-assigned trace ids.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
/// The batch currently in compute (`0` = none). Owned by whichever
/// batcher wins [`try_claim_active_batch`] (or by a single-owner
/// embedder via [`set_active_batch`]); read by the forward path and
/// the pool.
static ACTIVE_BATCH: AtomicU64 = AtomicU64::new(0);
/// Export path from `AMOE_TRACE` (or [`set_trace_path`]).
static DUMP_PATH: Mutex<Option<PathBuf>> = Mutex::new(None);
/// Process-unique thread ordinals for shard selection and the `tid`
/// field of exported events.
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_ORD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

struct Shard {
    /// Ring storage; grows once to `SHARD_CAP`, then wraps.
    buf: Vec<TraceEvent>,
    /// Next write position once `buf` is full.
    next: usize,
    /// Total events ever written (`> buf.len()` implies overwrites).
    written: u64,
}

impl Shard {
    const fn new() -> Self {
        Shard {
            buf: Vec::new(),
            next: 0,
            written: 0,
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() < SHARD_CAP {
            if self.buf.capacity() == 0 {
                // One-time reservation so steady-state recording never
                // reallocates; only reached with tracing enabled.
                self.buf.reserve_exact(SHARD_CAP);
            }
            self.buf.push(ev);
        } else {
            // Overwrite-oldest: never blocks, never grows.
            self.buf[self.next] = ev;
            self.next = (self.next + 1) % SHARD_CAP;
        }
        self.written += 1;
    }

    fn clear(&mut self) {
        self.buf.clear();
        self.next = 0;
        self.written = 0;
    }
}

#[allow(clippy::declare_interior_mutable_const)]
const SHARD_INIT: Mutex<Shard> = Mutex::new(Shard::new());
static RING: [Mutex<Shard>; SHARDS] = [SHARD_INIT; SHARDS];

fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide trace anchor. Monotone.
#[must_use]
pub fn now_ns() -> u64 {
    anchor().elapsed().as_nanos() as u64
}

/// Converts an [`Instant`] captured elsewhere to anchor-relative
/// nanoseconds, so recording sites can reuse timestamps they already
/// took for metrics instead of reading the clock twice.
#[must_use]
pub fn instant_ns(t: Instant) -> u64 {
    t.saturating_duration_since(anchor()).as_nanos() as u64
}

/// Whether tracing is on: one relaxed atomic load after the first
/// call. The first call resolves `AMOE_TRACE` / `AMOE_TRACE_SAMPLE`.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_from_env(),
    }
}

/// Forces tracing on or off, overriding the environment. Intended for
/// tests and embedders; production code should set `AMOE_TRACE`.
pub fn set_enabled(on: bool) {
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Sets the keep-1-in-N sampling divisor (`0` is treated as `1`).
pub fn set_sample(n: u64) {
    SAMPLE.store(n.max(1), Ordering::Relaxed);
}

/// Current keep-1-in-N sampling divisor.
#[must_use]
pub fn sample() -> u64 {
    SAMPLE.load(Ordering::Relaxed)
}

/// Sets (or clears) the Chrome-trace export path used by
/// [`dump_if_env`], and enables tracing when a path is given.
pub fn set_trace_path(path: Option<&Path>) {
    *DUMP_PATH.lock().expect("trace path poisoned") = path.map(Path::to_path_buf);
    if path.is_some() {
        set_enabled(true);
    }
}

/// Parses `AMOE_TRACE_SAMPLE`: either `1/N` or a bare `N`; anything
/// unparseable (or zero) falls back to 1 (trace everything).
fn parse_sample(s: &str) -> u64 {
    let tail = s.strip_prefix("1/").unwrap_or(s);
    tail.trim()
        .parse::<u64>()
        .ok()
        .filter(|&n| n > 0)
        .unwrap_or(1)
}

/// Cold path of [`enabled`]: consult the environment exactly once.
#[cold]
fn init_from_env() -> bool {
    if let Ok(s) = std::env::var("AMOE_TRACE_SAMPLE") {
        set_sample(parse_sample(&s));
    }
    let path = std::env::var("AMOE_TRACE").ok().filter(|p| !p.is_empty());
    let on = path.is_some();
    if let Some(p) = path {
        set_trace_path(Some(Path::new(&p))); // also stores "enabled"
    }
    let _ = STATE.compare_exchange(
        0,
        if on { 2 } else { 1 },
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
    on
}

/// Allocates a server-side trace id, honouring sampling: returns
/// `Some(id)` for the kept 1-in-N requests, `None` (don't trace) for
/// the rest or when tracing is off. Ids are process-unique and never 0.
#[must_use]
pub fn next_trace_id() -> Option<u64> {
    if !enabled() {
        return None;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let n = sample();
    (n == 1 || id.is_multiple_of(n)).then_some(id)
}

/// Marks `batch_id` as the batch currently in compute (`0` = none), so
/// the gate/expert/scatter forward path and the worker pool can tag
/// their events without plumbing an id through every signature. Only
/// sound when a single thread owns the compute pipeline (benches,
/// tests); a server's batcher must use [`try_claim_active_batch`] /
/// [`release_active_batch`] instead.
pub fn set_active_batch(batch_id: u64) {
    if !enabled() {
        return;
    }
    ACTIVE_BATCH.store(batch_id, Ordering::Relaxed);
}

/// Attempts to claim the compute marker for `batch_id` (CAS `0 →
/// batch_id`). Returns `true` when this batch now owns the marker and
/// must eventually call [`release_active_batch`]. The marker is
/// process-wide, and one process can run several servers whose
/// batchers compute at once (the test binaries, `load_sweep`); only
/// one batch holds the marker at a time, and a losing batch's forward
/// events simply go untagged (`batch_id` 0) instead of being
/// mis-attributed to another server's batch.
#[must_use]
pub fn try_claim_active_batch(batch_id: u64) -> bool {
    if !enabled() || batch_id == 0 {
        return false;
    }
    ACTIVE_BATCH
        .compare_exchange(0, batch_id, Ordering::Relaxed, Ordering::Relaxed)
        .is_ok()
}

/// Releases the compute marker if `batch_id` still holds it; a no-op
/// for non-owners, so paired claim/release never clobbers another
/// batcher's claim.
pub fn release_active_batch(batch_id: u64) {
    let _ = ACTIVE_BATCH.compare_exchange(batch_id, 0, Ordering::Relaxed, Ordering::Relaxed);
}

/// The batch currently in compute (`0` = none / tracing off).
#[inline]
#[must_use]
pub fn active_batch() -> u64 {
    if !enabled() {
        return 0;
    }
    ACTIVE_BATCH.load(Ordering::Relaxed)
}

/// Records a spanned stage event. No-op when tracing is off; never
/// blocks on a full ring (overwrite-oldest).
pub fn record(
    trace_id: u64,
    batch_id: u64,
    stage: &'static str,
    start_ns: u64,
    end_ns: u64,
    aux: u64,
) {
    if !enabled() {
        return;
    }
    let thread = THREAD_ORD.with(|t| *t);
    let ev = TraceEvent {
        trace_id,
        batch_id,
        stage,
        start_ns,
        end_ns: end_ns.max(start_ns),
        thread,
        aux,
    };
    let shard = (thread as usize) % SHARDS;
    RING[shard].lock().expect("trace shard poisoned").push(ev);
}

/// Records an instantaneous stage event at the current time.
pub fn record_instant(trace_id: u64, batch_id: u64, stage: &'static str, aux: u64) {
    if !enabled() {
        return;
    }
    let t = now_ns();
    record(trace_id, batch_id, stage, t, t, aux);
}

/// Snapshots the ring: every retained event, sorted by start time.
/// Works while tracing is off, so a run can be inspected after
/// `set_enabled(false)`.
#[must_use]
pub fn events() -> Vec<TraceEvent> {
    let mut out = Vec::new();
    for shard in &RING {
        out.extend_from_slice(&shard.lock().expect("trace shard poisoned").buf);
    }
    out.sort_by_key(|e| (e.start_ns, e.end_ns, e.thread));
    out
}

/// Total events ever recorded (including ones since overwritten).
#[must_use]
pub fn events_written() -> u64 {
    RING.iter()
        .map(|s| s.lock().expect("trace shard poisoned").written)
        .sum()
}

/// Clears the ring and the active-batch marker. Intended for tests and
/// embedders isolating runs; does not touch the enabled state, the
/// sampling divisor, or the id allocator.
pub fn reset() {
    for shard in &RING {
        shard.lock().expect("trace shard poisoned").clear();
    }
    ACTIVE_BATCH.store(0, Ordering::Relaxed);
}

/// Serialises events as Chrome trace-event JSON (the `traceEvents`
/// array-of-objects format Perfetto and `chrome://tracing` load).
/// Timestamps and durations are microseconds with nanosecond decimals;
/// every number is finite by construction.
#[must_use]
pub fn to_chrome_json(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 128 + 64);
    out.push_str("{\"traceEvents\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        json::write_str(&mut out, ev.stage);
        out.push_str(",\"cat\":\"amoe\",\"ph\":\"X\",\"ts\":");
        json::write_f64(&mut out, ev.start_ns as f64 / 1e3);
        out.push_str(",\"dur\":");
        json::write_f64(&mut out, (ev.end_ns - ev.start_ns) as f64 / 1e3);
        out.push_str(",\"pid\":1,\"tid\":");
        out.push_str(&ev.thread.to_string());
        out.push_str(",\"args\":{\"trace_id\":");
        out.push_str(&ev.trace_id.to_string());
        out.push_str(",\"batch_id\":");
        out.push_str(&ev.batch_id.to_string());
        out.push_str(",\"aux\":");
        out.push_str(&ev.aux.to_string());
        out.push_str("}}");
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// [`to_chrome_json`] over the current ring contents.
#[must_use]
pub fn chrome_json() -> String {
    to_chrome_json(&events())
}

/// Writes the current ring to `path` as Chrome trace JSON, returning
/// the number of exported events.
pub fn dump_to_path(path: &Path) -> std::io::Result<usize> {
    let evs = events();
    let mut f = std::fs::File::create(path)?;
    f.write_all(to_chrome_json(&evs).as_bytes())?;
    f.flush()?;
    Ok(evs.len())
}

/// Dumps the ring to the `AMOE_TRACE` path if one is configured.
/// Returns `Some((path, events))` on success, `None` when no path is
/// set; write errors are reported on stderr rather than propagated so
/// a drain path never fails on telemetry.
pub fn dump_if_env() -> Option<(PathBuf, usize)> {
    let path = DUMP_PATH.lock().expect("trace path poisoned").clone()?;
    match dump_to_path(&path) {
        Ok(n) => Some((path, n)),
        Err(e) => {
            eprintln!("amoe-obs: trace dump to {} failed: {e}", path.display());
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises tests toggling the global trace state.
    fn trace_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let _g = trace_lock();
        set_enabled(false);
        reset();
        record_instant(7, 0, "admitted", 1);
        record(7, 1, "gate", 10, 20, 0);
        assert!(events().is_empty());
        assert_eq!(next_trace_id(), None);
        set_active_batch(9);
        assert_eq!(active_batch(), 0);
    }

    #[test]
    fn active_batch_claim_is_exclusive_and_release_is_owner_only() {
        let _g = trace_lock();
        set_enabled(true);
        reset();
        assert!(try_claim_active_batch(7), "first claim wins");
        assert!(!try_claim_active_batch(9), "second claim loses");
        assert_eq!(active_batch(), 7);
        // A non-owner release must not clobber the holder's claim.
        release_active_batch(9);
        assert_eq!(active_batch(), 7);
        release_active_batch(7);
        assert_eq!(active_batch(), 0);
        // Claiming batch id 0 (= "none") is meaningless and refused.
        assert!(!try_claim_active_batch(0));
        set_enabled(false);
        assert!(!try_claim_active_batch(3), "disabled tracing never claims");
        reset();
    }

    #[test]
    fn record_and_snapshot_round_trip() {
        let _g = trace_lock();
        set_enabled(true);
        reset();
        record(3, 0, "admitted", 5, 5, 2);
        record(3, 1, "gate", 10, 40, 0);
        record(0, 1, "expert", 12, 30, 4);
        let evs = events();
        set_enabled(false);
        assert_eq!(evs.len(), 3);
        // Sorted by start time.
        assert_eq!(evs[0].stage, "admitted");
        assert_eq!(evs[1].stage, "gate");
        assert_eq!(evs[2].aux, 4);
        assert!(evs.iter().all(|e| e.end_ns >= e.start_ns));
        reset();
    }

    #[test]
    fn ring_overwrites_oldest_beyond_capacity() {
        let _g = trace_lock();
        set_enabled(true);
        reset();
        // All from this thread → one shard; exceed its capacity.
        let n = SHARD_CAP + 100;
        for i in 0..n {
            record(i as u64 + 1, 0, "enqueued", i as u64, i as u64, 0);
        }
        let evs = events();
        set_enabled(false);
        assert_eq!(evs.len(), SHARD_CAP);
        assert_eq!(events_written(), n as u64);
        // The oldest 100 events were overwritten.
        let min_id = evs.iter().map(|e| e.trace_id).min().unwrap();
        assert_eq!(min_id, 101);
        reset();
    }

    #[test]
    fn sampling_keeps_one_in_n() {
        let _g = trace_lock();
        set_enabled(true);
        set_sample(4);
        let kept = (0..64).filter(|_| next_trace_id().is_some()).count();
        set_sample(1);
        set_enabled(false);
        assert_eq!(kept, 16);
    }

    #[test]
    fn sample_spec_parsing() {
        assert_eq!(parse_sample("1/16"), 16);
        assert_eq!(parse_sample("16"), 16);
        assert_eq!(parse_sample("1"), 1);
        assert_eq!(parse_sample("0"), 1);
        assert_eq!(parse_sample("bogus"), 1);
        assert_eq!(parse_sample("1/0"), 1);
    }

    #[test]
    fn chrome_json_shape() {
        let evs = [
            TraceEvent {
                trace_id: 1,
                batch_id: 2,
                stage: "gate",
                start_ns: 1500,
                end_ns: 3500,
                thread: 3,
                aux: 8,
            },
            TraceEvent {
                trace_id: 4,
                batch_id: 0,
                stage: "admitted",
                start_ns: 4000,
                end_ns: 4000,
                thread: 1,
                aux: 2,
            },
        ];
        let body = to_chrome_json(&evs);
        let v = json::parse(&body).expect("chrome json parses");
        let arr = v.get("traceEvents").and_then(json::Value::as_arr).unwrap();
        assert_eq!(arr.len(), 2);
        let first = &arr[0];
        assert_eq!(
            first.get("name").and_then(json::Value::as_str),
            Some("gate")
        );
        assert_eq!(first.get("ph").and_then(json::Value::as_str), Some("X"));
        assert_eq!(first.get("ts").and_then(json::Value::as_f64), Some(1.5));
        assert_eq!(first.get("dur").and_then(json::Value::as_f64), Some(2.0));
        let args = first.get("args").unwrap();
        assert_eq!(
            args.get("trace_id").and_then(json::Value::as_f64),
            Some(1.0)
        );
        assert_eq!(
            args.get("batch_id").and_then(json::Value::as_f64),
            Some(2.0)
        );
        assert_eq!(args.get("aux").and_then(json::Value::as_f64), Some(8.0));
        // Empty ring still serialises to a loadable document.
        assert!(json::parse(&to_chrome_json(&[])).is_ok());
    }

    #[test]
    fn dump_writes_parseable_file() {
        let _g = trace_lock();
        set_enabled(true);
        reset();
        record(1, 1, "gate", 0, 10, 0);
        let path =
            std::env::temp_dir().join(format!("amoe_trace_test_{}.json", std::process::id()));
        let n = dump_to_path(&path).expect("dump succeeds");
        set_enabled(false);
        assert_eq!(n, 1);
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(json::parse(&body).is_ok());
        let _ = std::fs::remove_file(&path);
        reset();
    }
}
