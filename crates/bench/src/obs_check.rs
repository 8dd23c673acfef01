//! Validation of the Chrome trace-event JSON exported by `AMOE_TRACE`
//! and `GET /trace`.
//!
//! [`validate_chrome_trace`] checks the schema
//! (name/cat/ph/ts/dur/pid/tid/args), finiteness, non-negative
//! durations, and per-thread monotone timestamps. It returns
//! `Err(String)` rather than exiting so callers own the failure
//! policy.

use amoe_obs::json::{parse, Value};

/// Recursively checks that every number in `v` is finite and no value
/// is `null` (the writer's stand-in for non-finite floats).
fn check_finite(v: &Value, context: &str) -> Result<(), String> {
    match v {
        Value::Null => Err(format!(
            "{context}: null value (non-finite number emitted?)"
        )),
        Value::Num(n) if !n.is_finite() => Err(format!("{context}: non-finite number")),
        Value::Arr(items) => items.iter().try_for_each(|i| check_finite(i, context)),
        Value::Obj(map) => map.values().try_for_each(|i| check_finite(i, context)),
        _ => Ok(()),
    }
}

/// Validates a Chrome trace-event JSON document (the `AMOE_TRACE` /
/// `GET /trace` export format) and returns the number of events.
///
/// Checks, per event: the complete-event schema (`name`, `cat`, `ph`
/// == `"X"`, `ts`, `dur`, `pid`, `tid`, `args` with `trace_id` /
/// `batch_id` / `aux`), every number finite and non-negative where it
/// must be, and — per `tid` — non-decreasing start timestamps (the
/// export is globally sorted by start, so any per-thread order
/// violation is a clock bug).
pub fn validate_chrome_trace(body: &str) -> Result<usize, String> {
    let doc = parse(body).map_err(|e| format!("invalid trace JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or("trace document is missing 'traceEvents' array")?;
    let mut last_ts: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let ctx = format!("trace event {i}");
        check_finite(ev, &ctx)?;
        for field in ["name", "cat", "ph", "ts", "dur", "pid", "tid", "args"] {
            if ev.get(field).is_none() {
                return Err(format!("{ctx}: missing '{field}'"));
            }
        }
        if ev.get("ph").and_then(Value::as_str) != Some("X") {
            return Err(format!("{ctx}: ph must be \"X\" (complete event)"));
        }
        // Non-numeric ts/dur read as NaN; check_finite above already
        // rejected finite-but-NaN values, so `< 0.0 || is_nan` covers
        // both "negative" and "not a number at all".
        let ts = ev.get("ts").and_then(Value::as_f64).unwrap_or(f64::NAN);
        let dur = ev.get("dur").and_then(Value::as_f64).unwrap_or(f64::NAN);
        if ts < 0.0 || ts.is_nan() || dur < 0.0 || dur.is_nan() {
            return Err(format!(
                "{ctx}: ts/dur must be non-negative (ts={ts} dur={dur})"
            ));
        }
        let args = ev.get("args").ok_or_else(|| format!("{ctx}: no args"))?;
        for field in ["trace_id", "batch_id", "aux"] {
            if args.get(field).and_then(Value::as_f64).is_none() {
                return Err(format!("{ctx}: args missing numeric '{field}'"));
            }
        }
        let tid = ev.get("tid").and_then(Value::as_f64).unwrap_or(-1.0);
        if tid < 0.0 {
            return Err(format!("{ctx}: bad tid"));
        }
        let tid = tid as u64;
        if let Some(&prev) = last_ts.get(&tid) {
            if ts < prev {
                return Err(format!(
                    "{ctx}: timestamps not monotone on tid {tid} ({ts} < {prev})"
                ));
            }
        }
        last_ts.insert(tid, ts);
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_trace_round_trips_through_the_validator() {
        amoe_obs::trace::set_enabled(true);
        amoe_obs::trace::reset();
        amoe_obs::trace::record(1, 1, "gate", 100, 300, 4);
        amoe_obs::trace::record(1, 1, "scatter", 300, 400, 4);
        let body = amoe_obs::trace::chrome_json();
        amoe_obs::trace::set_enabled(false);
        amoe_obs::trace::reset();
        assert_eq!(validate_chrome_trace(&body), Ok(2));
        // The empty document is valid (zero events).
        assert_eq!(
            validate_chrome_trace("{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}"),
            Ok(0)
        );
    }

    #[test]
    fn chrome_trace_violations_detected() {
        // Missing args field.
        let bad = "{\"traceEvents\":[{\"name\":\"g\",\"cat\":\"amoe\",\"ph\":\"X\",\
                    \"ts\":1.0,\"dur\":1.0,\"pid\":1,\"tid\":1,\"args\":{}}]}";
        assert!(validate_chrome_trace(bad).is_err());
        // Non-monotone timestamps on one tid.
        let args = "{\"trace_id\":1,\"batch_id\":1,\"aux\":0}";
        let bad = format!(
            "{{\"traceEvents\":[\
             {{\"name\":\"a\",\"cat\":\"amoe\",\"ph\":\"X\",\"ts\":5.0,\"dur\":0.0,\"pid\":1,\"tid\":1,\"args\":{args}}},\
             {{\"name\":\"b\",\"cat\":\"amoe\",\"ph\":\"X\",\"ts\":4.0,\"dur\":0.0,\"pid\":1,\"tid\":1,\"args\":{args}}}]}}"
        );
        assert!(validate_chrome_trace(&bad).is_err());
        // Wrong phase type.
        let bad = format!(
            "{{\"traceEvents\":[{{\"name\":\"a\",\"cat\":\"amoe\",\"ph\":\"B\",\
             \"ts\":1.0,\"dur\":0.0,\"pid\":1,\"tid\":1,\"args\":{args}}}]}}"
        );
        assert!(validate_chrome_trace(&bad).is_err());
    }
}
