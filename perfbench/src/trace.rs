//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer (nothing is timed inside the program). Each span has a name,
//! start, end, parent span and a key: the request id for per-request
//! spans, the tick for loop spans, 0 for replays. Threads collect spans
//! in a local `Vec` and hand them over when they finish, so recording
//! takes no lock on the hot path. Everything stays in memory until the
//! run ends and is then written as Chrome trace-event JSON.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use amoe_obs::json::{write_f64, write_str};

/// Per-request spans beyond this many request trees are left out of
/// the written trace (a saturated run issues hundreds of thousands);
/// metrics are still computed over every span.
const MAX_WRITTEN_REQUESTS: u64 = 20_000;

/// One recorded interval.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Unique id (≥ 1).
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    /// Layer call the span wraps.
    pub name: &'static str,
    /// Request id, tick, or 0.
    pub key: u64,
    /// Recording thread, as a small benchmark-chosen number.
    pub tid: u32,
    /// True for per-request spans, which are thinned when written.
    pub per_request: bool,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans for one run.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Reserves a span id, so children can name their parent before the
    /// parent span is closed.
    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Builds a span (with a fresh id when `id` is 0) without storing it.
    #[allow(clippy::too_many_arguments)]
    pub fn span(
        &self,
        id: u64,
        parent: u64,
        name: &'static str,
        key: u64,
        tid: u32,
        start: Instant,
        end: Instant,
    ) -> Span {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        Span {
            id: if id == 0 { self.new_id() } else { id },
            parent,
            name,
            key,
            tid,
            per_request: false,
            start_ns: ns(start),
            end_ns: ns(end),
        }
    }

    /// Stores one span.
    pub fn push(&self, span: Span) {
        self.spans.lock().expect("tracer lock poisoned").push(span);
    }

    /// Stores a thread's collected spans.
    pub fn extend(&self, spans: Vec<Span>) {
        self.spans
            .lock()
            .expect("tracer lock poisoned")
            .extend(spans);
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<R>(&self, parent: u64, name: &'static str, key: u64, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.push(self.span(0, parent, name, key, 0, start, end));
        out
    }

    /// Self time in microseconds of every span named `name`: its
    /// duration minus the time its direct children cover.
    pub fn self_times_us(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("tracer lock poisoned");
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *child_ns.entry(s.parent).or_default() += s.dur_ns();
        }
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let own = s
                    .dur_ns()
                    .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
                own as f64 / 1e3
            })
            .collect()
    }

    /// Chrome trace-event JSON (complete events, sorted by start, at
    /// most `max_events` of them) with `other` (a JSON object) as the
    /// document's `otherData`. Request trees beyond
    /// [`MAX_WRITTEN_REQUESTS`] are thinned by key stride.
    pub fn chrome_json(&self, other: &str, max_events: usize) -> String {
        let spans = self.spans.lock().expect("tracer lock poisoned");
        let requests = spans
            .iter()
            .filter(|s| s.per_request && s.parent == 0)
            .count() as u64;
        let stride = requests.div_ceil(MAX_WRITTEN_REQUESTS).max(1);
        let mut kept: Vec<&Span> = spans
            .iter()
            .filter(|s| !s.per_request || s.key % stride == 0)
            .collect();
        kept.sort_by_key(|s| (s.start_ns, s.id));
        kept.truncate(max_events);
        let mut out = String::with_capacity(kept.len() * 160 + other.len() + 64);
        out.push_str("{\"traceEvents\":[");
        for (i, s) in kept.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            write_str(&mut out, s.name);
            out.push_str(",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":");
            write_f64(&mut out, s.start_ns as f64 / 1e3);
            out.push_str(",\"dur\":");
            write_f64(&mut out, s.dur_ns() as f64 / 1e3);
            out.push_str(&format!(
                ",\"pid\":1,\"tid\":{},\"args\":{{\"trace_id\":{},\"batch_id\":0,\"aux\":{},\"span_id\":{},\"parent\":{}}}}}",
                s.tid, s.key, s.parent, s.id, s.parent
            ));
        }
        out.push_str("],\"displayTimeUnit\":\"ms\",\"otherData\":");
        out.push_str(other);
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_direct_children() {
        let t0 = Instant::now();
        let tracer = Tracer::new(t0);
        let at = |us: u64| t0 + Duration::from_micros(us);
        let parent = tracer.new_id();
        tracer.push(tracer.span(0, parent, "child", 1, 0, at(10), at(30)));
        tracer.push(tracer.span(0, parent, "child", 1, 0, at(40), at(50)));
        tracer.push(tracer.span(parent, 0, "parent", 1, 0, at(0), at(100)));
        assert_eq!(tracer.self_times_us("parent"), vec![70.0]);
        assert_eq!(tracer.self_times_us("child"), vec![20.0, 10.0]);
    }

    #[test]
    fn chrome_export_passes_the_workspace_validator() {
        let t0 = Instant::now();
        let tracer = Tracer::new(t0);
        let at = |us: u64| t0 + Duration::from_micros(us);
        let root = tracer.new_id();
        let mut child = tracer.span(0, root, "late", 7, 2, at(5), at(6));
        child.per_request = true;
        let mut req = tracer.span(root, 0, "request", 7, 1, at(5), at(9));
        req.per_request = true;
        tracer.extend(vec![child, req]);
        let json = tracer.chrome_json("{}", usize::MAX);
        assert_eq!(amoe_bench::obs_check::validate_chrome_trace(&json), Ok(2));
    }
}
