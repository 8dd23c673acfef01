//! Prometheus / OpenMetrics text exposition for the registry.
//!
//! The registry records under the workspace's **dotted** names
//! (`serve.requests`, `pool.region`, `serve.queue_depth`) so
//! JSONL consumers keep the schema they have depended on since PR 2.
//! This module is the compatibility layer that maps those names onto a
//! consistent Prometheus naming scheme at scrape time:
//!
//! * every family is prefixed `amoe_` and dots become underscores
//!   (`serve.requests` → `amoe_serve_requests`);
//! * counters get the `_total` unit suffix;
//! * time-valued families are **rescaled to base units**: a `_us`,
//!   `_ms` or `_ns` suffix becomes `_seconds` and every exported
//!   number (bucket bounds, sums, gauge values) is multiplied by the
//!   matching power of ten — dashboards never see mixed units;
//! * log-bucketed histograms export as cumulative `_bucket` /
//!   `_sum` / `_count` series on the registry's global grid, and a
//!   windowed histogram's retained [`Exemplar`] renders as an
//!   OpenMetrics exemplar on the bucket containing it.
//!
//! [`validate_metric_name`] is the recording-side half of the
//! convention: registry entry points `debug_assert!` it, so a new
//! dotted name that cannot be exposed cleanly (uppercase, empty
//! segments, stray characters) fails loudly in tests
//! while release binaries keep recording.
//!
//! [`validate_exposition`] is the scrape-side half: a linter for the
//! rendered text (grammar, finite values, monotone cumulative buckets,
//! exemplar syntax) used by `amoe_bench` and CI so the `/metrics`
//! endpoint cannot silently rot.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::registry::{Histogram, Snapshot};
use crate::window::Exemplar;

/// Checks a dotted registry name against the recording convention:
/// non-empty `.`-separated segments of `[a-z0-9_]` starting with a
/// letter, at most 100 bytes.
///
/// # Errors
/// Describes the first violation.
pub fn validate_metric_name(name: &str) -> Result<(), String> {
    if name.is_empty() {
        return Err("metric name is empty".into());
    }
    if name.len() > 100 {
        return Err(format!("metric name {name:?} exceeds 100 bytes"));
    }
    for segment in name.split('.') {
        if segment.is_empty() {
            return Err(format!("metric name {name:?} has an empty segment"));
        }
        if !segment.as_bytes()[0].is_ascii_lowercase() {
            return Err(format!(
                "metric name {name:?}: segment {segment:?} must start with a lowercase letter"
            ));
        }
        if let Some(bad) = segment
            .chars()
            .find(|c| !(c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '_'))
        {
            return Err(format!(
                "metric name {name:?}: segment {segment:?} contains {bad:?} \
                 (want [a-z0-9_], '.'-separated)"
            ));
        }
    }
    Ok(())
}

/// Debug-assert wrapper used by the registry entry points.
pub(crate) fn debug_check_name(name: &str) {
    debug_assert!(
        validate_metric_name(name).is_ok(),
        "{}",
        validate_metric_name(name).unwrap_err()
    );
}

/// What a dotted registry name exposes as.
#[derive(Clone, Debug, PartialEq)]
pub struct PromName {
    /// Prometheus family name (`amoe_*`, unit-suffixed).
    pub family: String,
    /// Multiplier applied to every exported value (unit rescaling).
    pub scale: f64,
}

/// Maps a dotted registry name to its Prometheus family and unit
/// scale. `counter` appends `_total` (the counter unit suffix).
#[must_use]
pub fn prom_name(raw: &str, counter: bool) -> PromName {
    let mut family: String = raw
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    // Unit suffixes: time rescales to seconds, the base unit.
    let mut scale = 1.0;
    for (suffix, replacement, s) in [
        ("_us", "_seconds", 1e-6),
        ("_ms", "_seconds", 1e-3),
        ("_ns", "_seconds", 1e-9),
        ("_secs", "_seconds", 1.0),
    ] {
        if let Some(stripped) = family.strip_suffix(suffix) {
            family = format!("{stripped}{replacement}");
            scale = s;
            break;
        }
    }
    if counter && !family.ends_with("_total") {
        family.push_str("_total");
    }
    if !family.starts_with("amoe_") {
        family = format!("amoe_{family}");
    }
    PromName { family, scale }
}

fn write_label_set(out: &mut String, labels: &[(&str, &str)]) {
    if labels.is_empty() {
        return;
    }
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                other => out.push(other),
            }
        }
        out.push('"');
    }
    out.push('}');
}

/// Formats an exposition float: finite shortest-roundtrip decimal
/// (non-finite values must never reach the page — callers guard).
fn fmt_value(v: f64) -> String {
    debug_assert!(v.is_finite(), "non-finite exposition value");
    if v == v.trunc() && v.abs() < 1e15 {
        // Integral values print without an exponent or trailing zeros.
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Incremental builder for one exposition page.
///
/// Callers append families (a `# TYPE` line is emitted once per
/// family, on first use — keep a family's series together) and close
/// the page with [`Renderer::finish`], which appends the OpenMetrics
/// `# EOF` terminator.
#[derive(Default)]
pub struct Renderer {
    out: String,
    typed: BTreeSet<String>,
}

impl Renderer {
    /// An empty page.
    #[must_use]
    pub fn new() -> Renderer {
        Renderer::default()
    }

    fn type_line(&mut self, family: &str, kind: &str) {
        if self.typed.insert(family.to_string()) {
            let _ = writeln!(self.out, "# TYPE {family} {kind}");
        }
    }

    /// Renders a counter (dotted `raw` name, `_total` suffix applied).
    pub fn counter(&mut self, raw: &str, v: u64) {
        let name = prom_name(raw, true);
        self.type_line(&name.family, "counter");
        let _ = writeln!(self.out, "{} {v}", name.family);
    }

    /// Renders a gauge (dotted `raw` name, unit-rescaled).
    pub fn gauge(&mut self, raw: &str, v: f64) {
        if !v.is_finite() {
            return;
        }
        let name = prom_name(raw, false);
        self.type_line(&name.family, "gauge");
        let _ = writeln!(self.out, "{} {}", name.family, fmt_value(v * name.scale));
    }

    /// Renders a gauge with explicit labels. Used for
    /// `amoe_build_info`.
    pub fn gauge_with(&mut self, raw: &str, labels: &[(&str, &str)], v: f64) {
        if !v.is_finite() {
            return;
        }
        let name = prom_name(raw, false);
        self.type_line(&name.family, "gauge");
        self.out.push_str(&name.family);
        write_label_set(&mut self.out, labels);
        let _ = writeln!(self.out, " {}", fmt_value(v * name.scale));
    }

    /// Renders a log-bucketed histogram as cumulative `_bucket` /
    /// `_sum` / `_count` series (unit-rescaled). Only buckets that
    /// change the cumulative count are emitted — the grid is global,
    /// so sparse emission stays `histogram_quantile`-compatible. A
    /// windowed exemplar renders on the first bucket containing it.
    pub fn histogram(&mut self, raw: &str, h: &Histogram, exemplar: Option<Exemplar>) {
        let name = prom_name(raw, false);
        self.type_line(&name.family, "histogram");
        let mut exemplar = exemplar.filter(|e| e.value.is_finite() && e.trace_id != 0);
        let mut cumulative = 0u64;
        for (i, &c) in h.bucket_counts().iter().enumerate() {
            if c == 0 {
                continue;
            }
            cumulative += c;
            let (_, upper) = Histogram::bucket_bounds(i);
            let le = upper * name.scale;
            self.out.push_str(&name.family);
            self.out.push_str("_bucket");
            write_label_set(&mut self.out, &[("le", &fmt_value(le))]);
            let _ = write!(self.out, " {cumulative}");
            // The exemplar belongs to the first bucket whose upper
            // bound covers it (OpenMetrics: exemplar value ≤ le).
            if let Some(e) = exemplar {
                if e.value * name.scale <= le {
                    let _ = write!(
                        self.out,
                        " # {{trace_id=\"{}\"}} {}",
                        e.trace_id,
                        fmt_value(e.value * name.scale)
                    );
                    exemplar = None;
                }
            }
            self.out.push('\n');
        }
        // The +Inf bucket always closes the series (and catches an
        // exemplar larger than every finite bound).
        self.out.push_str(&name.family);
        self.out.push_str("_bucket");
        write_label_set(&mut self.out, &[("le", "+Inf")]);
        let _ = write!(self.out, " {}", h.count());
        if let Some(e) = exemplar {
            let _ = write!(
                self.out,
                " # {{trace_id=\"{}\"}} {}",
                e.trace_id,
                fmt_value(e.value * name.scale)
            );
        }
        self.out.push('\n');
        let _ = writeln!(
            self.out,
            "{}_sum {}",
            name.family,
            fmt_value(h.sum() * name.scale)
        );
        let _ = writeln!(self.out, "{}_count {}", name.family, h.count());
    }

    /// Renders every family of a registry [`Snapshot`]: counters,
    /// gauges, lifetime histograms, and windowed histograms (already
    /// folded over their live window).
    pub fn snapshot(&mut self, snap: &Snapshot) {
        for (name, v) in &snap.counters {
            self.counter(name, *v);
        }
        for (name, v) in &snap.gauges {
            self.gauge(name, *v);
        }
        for (name, h) in &snap.histograms {
            self.histogram(name, h, None);
        }
        for (name, h) in &snap.windows {
            self.histogram(name, h, None);
        }
    }

    /// The families rendered so far. Callers mixing native and
    /// registry sources use this to skip registry families they have
    /// already rendered authoritatively (duplicate series in one
    /// family would make real Prometheus servers reject the scrape).
    #[must_use]
    pub fn families(&self) -> BTreeSet<String> {
        self.typed.clone()
    }

    /// Closes the page with the OpenMetrics `# EOF` terminator.
    #[must_use]
    pub fn finish(mut self) -> String {
        self.out.push_str("# EOF\n");
        self.out
    }
}

// ---------------------------------------------------------------------------
// Exposition linter
// ---------------------------------------------------------------------------

/// A parsed sample line: name, label pairs, and the value remainder.
type SampleParts<'a> = (&'a str, Vec<(String, String)>, &'a str);

/// Splits `name{labels} rest` into its parts; labels may be absent.
fn split_sample(line: &str) -> Result<SampleParts<'_>, String> {
    let name_end = line.find(['{', ' ']).ok_or("sample has no value")?;
    let name = &line[..name_end];
    if !line[name_end..].starts_with('{') {
        return Ok((name, Vec::new(), line[name_end..].trim_start()));
    }
    let mut labels = Vec::new();
    let bytes = line.as_bytes();
    let mut i = name_end + 1;
    loop {
        if i >= bytes.len() {
            return Err("unterminated label set".into());
        }
        if bytes[i] == b'}' {
            i += 1;
            break;
        }
        let key_start = i;
        while i < bytes.len() && bytes[i] != b'=' {
            i += 1;
        }
        let key = &line[key_start..i];
        if key.is_empty() || i + 1 >= bytes.len() || bytes[i + 1] != b'"' {
            return Err(format!("malformed label near {key:?}"));
        }
        i += 2; // skip ="
        let mut value = String::new();
        loop {
            if i >= bytes.len() {
                return Err("unterminated label value".into());
            }
            match bytes[i] {
                b'"' => {
                    i += 1;
                    break;
                }
                b'\\' => {
                    if i + 1 >= bytes.len() {
                        return Err("dangling escape in label value".into());
                    }
                    value.push(match bytes[i + 1] {
                        b'n' => '\n',
                        other => other as char,
                    });
                    i += 2;
                }
                other => {
                    value.push(other as char);
                    i += 1;
                }
            }
        }
        labels.push((key.to_string(), value));
        if i < bytes.len() && bytes[i] == b',' {
            i += 1;
        }
    }
    Ok((name, labels, line[i..].trim_start()))
}

fn valid_family_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .next()
            .is_some_and(|b| b.is_ascii_alphabetic() || b == b'_' || b == b':')
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b':')
}

/// The family a sample series belongs to for `# TYPE` matching:
/// histogram sample suffixes fold back onto the declared family.
fn family_of<'a>(name: &'a str, typed: &BTreeSet<String>) -> &'a str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(stripped) = name.strip_suffix(suffix) {
            if typed.contains(stripped) {
                return stripped;
            }
        }
    }
    name
}

fn parse_finite(s: &str, what: &str, lineno: usize) -> Result<f64, String> {
    let v: f64 = s
        .parse()
        .map_err(|_| format!("line {lineno}: {what} {s:?} is not a number"))?;
    if !v.is_finite() {
        return Err(format!("line {lineno}: {what} {s:?} is not finite"));
    }
    Ok(v)
}

/// Per-series state for cumulative-bucket checking.
#[derive(Default)]
struct BucketSeries {
    last_le: Option<f64>,
    last_cumulative: Option<f64>,
    inf_value: Option<f64>,
    count_value: Option<f64>,
}

/// Lints a rendered exposition page: line grammar, `amoe_`-prefixed
/// family names declared by a `# TYPE` before their first sample,
/// finite non-negative sample values, strictly-increasing `le` bounds
/// with non-decreasing cumulative bucket counts ending in `+Inf`,
/// `_count` consistent with the `+Inf` bucket, well-formed exemplars
/// (value within its bucket's bound), and a final `# EOF`.
///
/// Returns the number of sample lines.
///
/// # Errors
/// Describes the first violation, with its line number.
pub fn validate_exposition(body: &str) -> Result<usize, String> {
    let mut typed: BTreeSet<String> = BTreeSet::new();
    let mut kinds: std::collections::BTreeMap<String, String> = std::collections::BTreeMap::new();
    let mut buckets: std::collections::BTreeMap<String, BucketSeries> = Default::default();
    let mut samples = 0usize;
    let mut saw_eof = false;
    for (idx, line) in body.lines().enumerate() {
        let lineno = idx + 1;
        if line.is_empty() {
            continue;
        }
        if saw_eof {
            return Err(format!("line {lineno}: content after # EOF"));
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if comment == "EOF" {
                saw_eof = true;
                continue;
            }
            if let Some(rest) = comment.strip_prefix("TYPE ") {
                let mut parts = rest.split_whitespace();
                let (Some(family), Some(kind), None) = (parts.next(), parts.next(), parts.next())
                else {
                    return Err(format!("line {lineno}: malformed # TYPE"));
                };
                if !valid_family_name(family) {
                    return Err(format!("line {lineno}: bad family name {family:?}"));
                }
                if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&kind) {
                    return Err(format!("line {lineno}: unknown metric type {kind:?}"));
                }
                if !typed.insert(family.to_string()) {
                    return Err(format!("line {lineno}: duplicate # TYPE for {family}"));
                }
                kinds.insert(family.to_string(), kind.to_string());
                continue;
            }
            if comment.starts_with("HELP ") {
                continue;
            }
            return Err(format!("line {lineno}: unrecognised comment {line:?}"));
        }
        // Sample line.
        samples += 1;
        let (name, labels, rest) = split_sample(line).map_err(|e| format!("line {lineno}: {e}"))?;
        if !valid_family_name(name) {
            return Err(format!("line {lineno}: bad metric name {name:?}"));
        }
        if !name.starts_with("amoe_") {
            return Err(format!(
                "line {lineno}: {name:?} violates the amoe_ naming convention"
            ));
        }
        let family = family_of(name, &typed).to_string();
        if !typed.contains(&family) {
            return Err(format!(
                "line {lineno}: sample {name:?} precedes its # TYPE declaration"
            ));
        }
        let kind = kinds.get(&family).map(String::as_str).unwrap_or("untyped");
        // Value, optionally followed by an exemplar after " # ".
        let (value_part, exemplar_part) = match rest.split_once(" # ") {
            Some((v, e)) => (v.trim(), Some(e.trim())),
            None => (rest.trim(), None),
        };
        let value = parse_finite(value_part, "sample value", lineno)?;
        if (kind == "counter" || kind == "histogram") && value < 0.0 && !name.ends_with("_sum") {
            return Err(format!("line {lineno}: negative cumulative value {value}"));
        }
        // Histogram bucket bookkeeping.
        if kind == "histogram" && name.ends_with("_bucket") {
            let le_raw = labels
                .iter()
                .find(|(k, _)| k == "le")
                .map(|(_, v)| v.clone())
                .ok_or(format!("line {lineno}: bucket without le label"))?;
            let mut series_key = format!("{family}|");
            for (k, v) in labels.iter().filter(|(k, _)| k != "le") {
                let _ = write!(series_key, "{k}={v},");
            }
            let state = buckets.entry(series_key).or_default();
            let le = if le_raw == "+Inf" {
                f64::INFINITY
            } else {
                parse_finite(&le_raw, "le bound", lineno)?
            };
            if let Some(prev) = state.last_le {
                if le <= prev {
                    return Err(format!(
                        "line {lineno}: le bounds not increasing ({le} after {prev})"
                    ));
                }
            }
            if let Some(prev) = state.last_cumulative {
                if value < prev {
                    return Err(format!(
                        "line {lineno}: cumulative bucket count decreased ({value} < {prev})"
                    ));
                }
            }
            state.last_le = Some(le);
            state.last_cumulative = Some(value);
            if le.is_infinite() {
                state.inf_value = Some(value);
            }
            if let Some(ex) = exemplar_part {
                let ex_line = format!("x{ex}");
                let (_, ex_labels, ex_rest) =
                    split_sample(&ex_line).map_err(|e| format!("line {lineno}: {e}"))?;
                if ex_labels.is_empty() {
                    return Err(format!("line {lineno}: exemplar without labels"));
                }
                let mut parts = ex_rest.split_whitespace();
                let ex_value =
                    parse_finite(parts.next().unwrap_or_default(), "exemplar value", lineno)?;
                if let Some(ts) = parts.next() {
                    parse_finite(ts, "exemplar timestamp", lineno)?;
                }
                if parts.next().is_some() {
                    return Err(format!("line {lineno}: trailing exemplar tokens"));
                }
                if ex_value > le {
                    return Err(format!(
                        "line {lineno}: exemplar value {ex_value} exceeds bucket le {le}"
                    ));
                }
            }
        } else if exemplar_part.is_some() && kind != "counter" {
            return Err(format!(
                "line {lineno}: exemplar on a non-bucket, non-counter sample"
            ));
        } else if kind == "histogram" && name.ends_with("_count") {
            let mut series_key = format!("{family}|");
            for (k, v) in &labels {
                let _ = write!(series_key, "{k}={v},");
            }
            buckets.entry(series_key).or_default().count_value = Some(value);
        }
    }
    if !saw_eof {
        return Err("page is missing the # EOF terminator".into());
    }
    for (series, state) in &buckets {
        match (state.inf_value, state.count_value) {
            (None, _) if state.last_le.is_some() => {
                return Err(format!("series {series}: no +Inf bucket"));
            }
            (Some(inf), Some(count)) if inf != count => {
                return Err(format!(
                    "series {series}: _count {count} disagrees with +Inf bucket {inf}"
                ));
            }
            _ => {}
        }
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_convention_accepts_the_existing_vocabulary() {
        for name in [
            "serve.requests",
            "serve.request_latency_us",
            "serve.queue_depth",
            "pool.region_reuse",
            "pool.spawn_ns",
            "span.train_epoch",
            "trainer.epoch",
        ] {
            assert!(validate_metric_name(name).is_ok(), "{name} should pass");
        }
    }

    #[test]
    fn name_convention_rejects_violations() {
        for name in [
            "",
            "Serve.requests",
            "serve..requests",
            "serve.requests.",
            "serve.latency ms",
            "serve.9lives",
        ] {
            assert!(validate_metric_name(name).is_err(), "{name:?} should fail");
        }
        assert!(validate_metric_name(&"x".repeat(101)).is_err());
    }

    #[test]
    fn prom_name_mapping() {
        let n = prom_name("serve.requests", true);
        assert_eq!(n.family, "amoe_serve_requests_total");
        assert_eq!(n.scale, 1.0);

        let n = prom_name("serve.request_latency_us", false);
        assert_eq!(n.family, "amoe_serve_request_latency_seconds");
        assert_eq!(n.scale, 1e-6);

        let n = prom_name("pool.spawn_ns", false);
        assert_eq!(n.family, "amoe_pool_spawn_seconds");
        assert_eq!(n.scale, 1e-9);

        let n = prom_name("serve.queue_depth", false);
        assert_eq!(n.family, "amoe_serve_queue_depth");

        // Already-conforming names are left alone.
        let n = prom_name("amoe_uptime_seconds", false);
        assert_eq!(n.family, "amoe_uptime_seconds");
    }

    #[test]
    fn rendered_page_passes_the_linter() {
        let mut h = Histogram::new();
        for v in [10.0, 200.0, 3000.0, 3000.0] {
            h.record(v);
        }
        let mut r = Renderer::new();
        r.counter("serve.requests", 41);
        r.counter("serve.batches", 40);
        r.gauge("serve.queue_depth", 3.0);
        r.gauge_with(
            "amoe_build_info",
            &[("version", "0.1.0"), ("quantized", "false")],
            1.0,
        );
        r.histogram(
            "serve.window.request_latency_us",
            &h,
            Some(Exemplar {
                value: 3000.0,
                trace_id: 77,
            }),
        );
        let page = r.finish();
        let samples = validate_exposition(&page).expect("page lints clean");
        // 2 counters + 2 gauges + (3 buckets + Inf + sum + count).
        assert_eq!(samples, 10);
        assert!(page.contains("amoe_serve_batches_total 40"));
        assert!(page.contains("amoe_build_info{version=\"0.1.0\",quantized=\"false\"} 1"));
        assert!(page.contains("# TYPE amoe_serve_window_request_latency_seconds histogram"));
        assert!(page.contains("trace_id=\"77\""));
        assert!(page.ends_with("# EOF\n"));
        // The exemplar landed on a bucket whose le covers 3000 µs.
        let ex_line = page
            .lines()
            .find(|l| l.contains("trace_id"))
            .expect("exemplar line");
        assert!(ex_line.contains("_bucket"), "exemplar on a bucket line");
    }

    #[test]
    fn empty_histogram_renders_consistently() {
        let mut r = Renderer::new();
        r.histogram("serve.window.compute_us", &Histogram::new(), None);
        let page = r.finish();
        // +Inf bucket, _sum, _count.
        assert_eq!(validate_exposition(&page), Ok(3));
        assert!(page.contains("amoe_serve_window_compute_seconds_bucket{le=\"+Inf\"} 0"));
        assert!(page.contains("amoe_serve_window_compute_seconds_count 0"));
    }

    #[test]
    fn snapshot_rendering_covers_every_family() {
        let snap = Snapshot {
            counters: [("serve.requests".to_string(), 7u64)].into(),
            gauges: [("serve.queue_depth".to_string(), 2.0f64)].into(),
            histograms: [("serve.request_latency_us".to_string(), {
                let mut h = Histogram::new();
                h.record(500.0);
                h
            })]
            .into(),
            windows: [("serve.win_us".to_string(), {
                let mut h = Histogram::new();
                h.record(40.0);
                h
            })]
            .into(),
        };
        let mut r = Renderer::new();
        r.snapshot(&snap);
        let page = r.finish();
        assert!(validate_exposition(&page).is_ok());
        for family in [
            "amoe_serve_requests_total",
            "amoe_serve_queue_depth",
            "amoe_serve_request_latency_seconds_sum",
            "amoe_serve_win_seconds_count",
        ] {
            assert!(page.contains(family), "missing {family} in:\n{page}");
        }
    }

    #[test]
    fn linter_rejects_violations() {
        // No # EOF.
        assert!(validate_exposition("# TYPE amoe_x counter\namoe_x_total 1\n").is_err());
        // Sample before TYPE.
        assert!(validate_exposition("amoe_x_total 1\n# EOF\n").is_err());
        // Non-amoe name.
        assert!(validate_exposition("# TYPE other_x counter\nother_x 1\n# EOF\n").is_err());
        // Non-finite value.
        assert!(validate_exposition("# TYPE amoe_x gauge\namoe_x NaN\n# EOF\n").is_err());
        // Unparseable value.
        assert!(validate_exposition("# TYPE amoe_x gauge\namoe_x abc\n# EOF\n").is_err());
        // Decreasing cumulative buckets.
        let bad = "# TYPE amoe_h histogram\n\
                   amoe_h_bucket{le=\"1\"} 5\n\
                   amoe_h_bucket{le=\"2\"} 3\n\
                   amoe_h_bucket{le=\"+Inf\"} 5\n\
                   amoe_h_sum 4\namoe_h_count 5\n# EOF\n";
        assert!(validate_exposition(bad).is_err());
        // Non-increasing le bounds.
        let bad = "# TYPE amoe_h histogram\n\
                   amoe_h_bucket{le=\"2\"} 1\n\
                   amoe_h_bucket{le=\"1\"} 2\n\
                   amoe_h_bucket{le=\"+Inf\"} 2\n# EOF\n";
        assert!(validate_exposition(bad).is_err());
        // Missing +Inf bucket.
        let bad = "# TYPE amoe_h histogram\namoe_h_bucket{le=\"1\"} 1\n# EOF\n";
        assert!(validate_exposition(bad).is_err());
        // _count disagrees with +Inf.
        let bad = "# TYPE amoe_h histogram\n\
                   amoe_h_bucket{le=\"+Inf\"} 3\n\
                   amoe_h_sum 1\namoe_h_count 4\n# EOF\n";
        assert!(validate_exposition(bad).is_err());
        // Exemplar value beyond its bucket bound.
        let bad = "# TYPE amoe_h histogram\n\
                   amoe_h_bucket{le=\"1\"} 1 # {trace_id=\"9\"} 5\n\
                   amoe_h_bucket{le=\"+Inf\"} 1\n# EOF\n";
        assert!(validate_exposition(bad).is_err());
        // Exemplar on a gauge.
        let bad = "# TYPE amoe_g gauge\namoe_g 1 # {trace_id=\"9\"} 1\n# EOF\n";
        assert!(validate_exposition(bad).is_err());
        // Duplicate TYPE.
        let bad = "# TYPE amoe_x counter\n# TYPE amoe_x counter\n# EOF\n";
        assert!(validate_exposition(bad).is_err());
        // Content after EOF.
        assert!(validate_exposition("# EOF\namoe_x 1\n").is_err());
        // Unterminated label set.
        assert!(validate_exposition("# TYPE amoe_x gauge\namoe_x{a=\"b 1\n# EOF\n").is_err());
    }

    #[test]
    fn linter_accepts_exemplar_with_timestamp() {
        let body = "# TYPE amoe_h histogram\n\
                    amoe_h_bucket{le=\"+Inf\"} 1 # {trace_id=\"3\"} 0.5 1700000000.5\n\
                    amoe_h_sum 0.5\namoe_h_count 1\n# EOF\n";
        assert_eq!(validate_exposition(body), Ok(3));
    }
}
