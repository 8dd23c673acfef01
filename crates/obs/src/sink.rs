//! The structured JSONL sink: one JSON object per line, appended to
//! the file named by `AMOE_OBS` (or set programmatically for tests).
//!
//! Events are built with the [`Event`] field builder, which guarantees
//! the schema invariants: every record carries `event`, `ts` and
//! `thread` fields, and every number is finite (non-finite floats
//! serialise as `null`, see [`crate::json::write_f64`]).

use std::fmt::Write as _;
use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;

use crate::json;

/// The open sink: an append-mode file handle.
static SINK: Mutex<Option<std::fs::File>> = Mutex::new(None);

/// Points the JSONL sink at `path` (append mode; the file is created
/// if missing), or closes it with `None`. Setting a path also enables
/// telemetry; clearing it disables it. Intended for tests and
/// embedders — production runs set the `AMOE_OBS` environment
/// variable instead.
pub fn set_sink_path(path: Option<&Path>) {
    let mut sink = SINK.lock().expect("obs sink poisoned");
    match path {
        None => {
            *sink = None;
            crate::set_enabled(false);
        }
        Some(p) => match OpenOptions::new().create(true).append(true).open(p) {
            Ok(file) => {
                *sink = Some(file);
                crate::set_enabled(true);
            }
            Err(e) => {
                eprintln!(
                    "amoe-obs: cannot open sink {}: {e}; telemetry disabled",
                    p.display()
                );
                *sink = None;
                crate::set_enabled(false);
            }
        },
    }
}

/// One field value of an event record.
#[derive(Clone, Debug)]
enum FieldValue {
    Str(String),
    U64(u64),
    F64(f64),
    U64Arr(Vec<u64>),
    F64Arr(Vec<f64>),
}

/// A structured telemetry record under construction.
///
/// ```
/// let e = amoe_obs::Event::new("train_epoch")
///     .str("model", "Adv & HSC-MoE")
///     .u64("epoch", 1)
///     .f64("loss", 0.693);
/// amoe_obs::emit(&e);
/// ```
#[derive(Clone, Debug)]
pub struct Event {
    kind: &'static str,
    fields: Vec<(&'static str, FieldValue)>,
}

impl Event {
    /// Starts a record of type `kind` (the `event` field).
    #[must_use]
    pub fn new(kind: &'static str) -> Event {
        Event {
            kind,
            fields: Vec::new(),
        }
    }

    /// Adds a string field.
    #[must_use]
    pub fn str(mut self, key: &'static str, v: impl Into<String>) -> Event {
        self.fields.push((key, FieldValue::Str(v.into())));
        self
    }

    /// Adds an unsigned-integer field.
    #[must_use]
    pub fn u64(mut self, key: &'static str, v: u64) -> Event {
        self.fields.push((key, FieldValue::U64(v)));
        self
    }

    /// Adds a float field (`null` in the JSON if non-finite).
    #[must_use]
    pub fn f64(mut self, key: &'static str, v: f64) -> Event {
        self.fields.push((key, FieldValue::F64(v)));
        self
    }

    /// Adds an array-of-integers field (e.g. per-expert dispatch
    /// counts).
    #[must_use]
    pub fn u64_array(mut self, key: &'static str, v: impl IntoIterator<Item = u64>) -> Event {
        self.fields
            .push((key, FieldValue::U64Arr(v.into_iter().collect())));
        self
    }

    /// Adds an array-of-floats field.
    #[must_use]
    pub fn f64_array(mut self, key: &'static str, v: impl IntoIterator<Item = f64>) -> Event {
        self.fields
            .push((key, FieldValue::F64Arr(v.into_iter().collect())));
        self
    }

    /// The record type.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        self.kind
    }

    /// Serialises the record as one JSON object, prepending the
    /// standard `event` / `ts` / `thread` envelope fields.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128);
        out.push_str("{\"event\":");
        json::write_str(&mut out, self.kind);
        let _ = write!(out, ",\"ts\":");
        json::write_f64(&mut out, crate::process_time_secs());
        out.push_str(",\"thread\":");
        json::write_str(&mut out, std::thread::current().name().unwrap_or("unnamed"));
        for (key, value) in &self.fields {
            out.push(',');
            json::write_str(&mut out, key);
            out.push(':');
            match value {
                FieldValue::Str(s) => json::write_str(&mut out, s),
                FieldValue::U64(v) => {
                    let _ = write!(out, "{v}");
                }
                FieldValue::F64(v) => json::write_f64(&mut out, *v),
                FieldValue::U64Arr(vs) => {
                    out.push('[');
                    for (i, v) in vs.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{v}");
                    }
                    out.push(']');
                }
                FieldValue::F64Arr(vs) => {
                    out.push('[');
                    for (i, v) in vs.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        json::write_f64(&mut out, *v);
                    }
                    out.push(']');
                }
            }
        }
        out.push('}');
        out
    }

    /// A compact single-line human rendering of the same fields, used
    /// by verbose/stderr modes so the console and the JSONL stay in
    /// sync field-for-field.
    #[must_use]
    pub fn to_human(&self) -> String {
        let mut out = String::with_capacity(96);
        let _ = write!(out, "[{}]", self.kind);
        for (key, value) in &self.fields {
            match value {
                FieldValue::Str(s) => {
                    let _ = write!(out, " {key}={s}");
                }
                FieldValue::U64(v) => {
                    let _ = write!(out, " {key}={v}");
                }
                FieldValue::F64(v) => {
                    let _ = write!(out, " {key}={v:.5}");
                }
                FieldValue::U64Arr(vs) => {
                    let _ = write!(out, " {key}={vs:?}");
                }
                FieldValue::F64Arr(vs) => {
                    let _ = write!(out, " {key}=[");
                    for (i, v) in vs.iter().enumerate() {
                        let _ = write!(out, "{}{v:.4}", if i > 0 { "," } else { "" });
                    }
                    out.push(']');
                }
            }
        }
        out
    }
}

/// Writes `event` as one line to the sink. No-op when telemetry is
/// disabled or no sink file is open (e.g. enabled via
/// [`crate::set_enabled`] for registry-only use).
pub fn emit(event: &Event) {
    if !crate::enabled() {
        return;
    }
    let line = event.to_json();
    let mut sink = SINK.lock().expect("obs sink poisoned");
    if let Some(file) = sink.as_mut() {
        // Single write_all of line+\n under the lock keeps lines whole
        // even with events emitted from pool worker threads.
        let mut buf = line;
        buf.push('\n');
        if let Err(e) = file.write_all(buf.as_bytes()) {
            eprintln!("amoe-obs: sink write failed ({e}); closing sink");
            *sink = None;
        }
    }
}

/// Emits a `metrics_snapshot` event summarising every registry metric:
/// counters and gauges verbatim, histograms as
/// `<name>.count/.mean/.p50/.p90/.max` (nanosecond-valued for stage
/// histograms). Call at the end of a run so per-phase stage timings
/// land in the JSONL next to the per-event records.
pub fn emit_metrics_snapshot() {
    if !crate::enabled() {
        return;
    }
    let snap = crate::registry::snapshot();
    let mut event = Event::new("metrics_snapshot");
    for (name, v) in &snap.counters {
        event.fields.push((leak_name(name), FieldValue::U64(*v)));
    }
    for (name, v) in &snap.gauges {
        event.fields.push((leak_name(name), FieldValue::F64(*v)));
    }
    for (name, h) in &snap.histograms {
        let stats = [
            ("count", h.count() as f64),
            ("mean", h.mean()),
            ("p50", h.quantile(0.5)),
            ("p90", h.quantile(0.9)),
            ("max", h.max()),
        ];
        for (suffix, value) in stats {
            event.fields.push((
                leak_name(&format!("{name}.{suffix}")),
                FieldValue::F64(value),
            ));
        }
    }
    emit(&event);
}

/// Interns a dynamic metric name. Snapshot emission is a cold path
/// (once per run) over a bounded metric namespace, so leaking the
/// handful of composed keys is the pragmatic way to satisfy the
/// `&'static str` field keys that keep the hot path allocation-free.
fn leak_name(name: &str) -> &'static str {
    Box::leak(name.to_string().into_boxed_str())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    #[test]
    fn event_json_is_valid_and_ordered() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        let e = Event::new("test_event")
            .str("model", "MoE \"quoted\"")
            .u64("epoch", 3)
            .f64("loss", 0.5)
            .f64("bad", f64::NAN)
            .u64_array("dispatch", [1, 2, 3])
            .f64_array("times", [0.1, 0.2]);
        let doc = parse(&e.to_json()).expect("event serialises to valid JSON");
        crate::set_enabled(false);
        assert_eq!(doc.get("event").and_then(Value::as_str), Some("test_event"));
        assert!(doc.get("ts").and_then(Value::as_f64).is_some());
        assert!(doc.get("thread").and_then(Value::as_str).is_some());
        assert_eq!(
            doc.get("model").and_then(Value::as_str),
            Some("MoE \"quoted\"")
        );
        assert_eq!(doc.get("epoch").and_then(Value::as_f64), Some(3.0));
        assert_eq!(doc.get("bad"), Some(&Value::Null));
        assert_eq!(
            doc.get("dispatch")
                .and_then(Value::as_arr)
                .map(<[Value]>::len),
            Some(3)
        );
    }

    #[test]
    fn human_rendering_mentions_every_field() {
        let e = Event::new("test_event")
            .str("model", "MoE")
            .u64("epoch", 3)
            .f64("loss", 0.5);
        let h = e.to_human();
        assert!(h.contains("[test_event]") && h.contains("model=MoE"));
        assert!(h.contains("epoch=3") && h.contains("loss=0.50000"));
    }

    #[test]
    fn sink_appends_parseable_lines() {
        let _guard = crate::test_lock();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("amoe_obs_sink_test_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        set_sink_path(Some(&path));
        assert!(crate::enabled());
        emit(&Event::new("test_a").u64("n", 1));
        emit(&Event::new("test_b").f64("x", 2.5));
        set_sink_path(None);
        assert!(!crate::enabled());
        let body = std::fs::read_to_string(&path).expect("sink file exists");
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            parse(line).expect("every sink line parses");
        }
        let _ = std::fs::remove_file(&path);
    }
}
