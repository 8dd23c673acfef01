//! End-to-end tests of the request-tracing and windowed-telemetry
//! pipeline added in the observability PR:
//!
//! - a traced request must leave the **full stage chain** (admitted →
//!   enqueued → queue_exit → batch_assembled → reply_written, plus the
//!   compute-side gate/expert/scatter events of its batch) with
//!   causally monotone timestamps, and the `/trace` export must
//!   round-trip through the same Chrome-trace validator CI uses, as
//!   must the file `Server::join` writes to the `AMOE_TRACE` path;
//! - windowed stage quantiles must agree with an exact-sort oracle
//!   within the log-bucket error bound `2^(1/4)`;
//! - scores must stay **bit-identical** with tracing on at any sample
//!   rate — telemetry may never perturb the model.
//!
//! The trace ring, its enable gate and the sample rate are process
//! globals, so every test that touches them runs under one mutex.

use std::path::Path;
use std::sync::Mutex;
use std::time::Duration;

use adv_hsc_moe::dataset::{generate, Batch, Dataset, GeneratorConfig};
use adv_hsc_moe::moe::config::TowerConfig;
use adv_hsc_moe::moe::ranker::{OptimConfig, Ranker};
use adv_hsc_moe::moe::serving::ServingMoe;
use adv_hsc_moe::moe::{MoeConfig, MoeModel};
use adv_hsc_moe::obs::json::{parse, Value};
use adv_hsc_moe::obs::registry::SUB_BUCKETS;
use adv_hsc_moe::obs::{trace, WindowedHistogram};
use adv_hsc_moe::online::daemon::feature_row;
use adv_hsc_moe::serve::{http_get, Client, FeatureRow, QuantileSummary, ServeConfig, Server};
use amoe_bench::obs_check::validate_chrome_trace;

/// Serialises tests that mutate the global trace state (enable gate,
/// sample rate, ring contents).
static TRACE_STATE: Mutex<()> = Mutex::new(());

fn trained_model(seed: u64, steps: usize) -> (Dataset, MoeModel) {
    let d = generate(&GeneratorConfig::tiny(41));
    let cfg = MoeConfig {
        n_experts: 6,
        top_k: 2,
        tower: TowerConfig {
            hidden: vec![12, 6],
        },
        seed,
        ..MoeConfig::default()
    };
    let mut m = MoeModel::new(&d.meta, cfg, OptimConfig::default());
    let batch = Batch::from_split(&d.train, &(0..128).collect::<Vec<_>>());
    for _ in 0..steps {
        m.train_step(&batch);
    }
    (d, m)
}

fn feature_rows(d: &Dataset, range: std::ops::Range<usize>) -> Vec<FeatureRow> {
    d.test.examples[range].iter().map(feature_row).collect()
}

/// Finds the start timestamp (µs) of `stage` among `events` filtered
/// by a numeric `args` field equal to `key`.
fn stage_ts(events: &[Value], field: &str, key: f64, stage: &str) -> Option<f64> {
    events
        .iter()
        .find(|e| {
            e.get("name").and_then(Value::as_str) == Some(stage)
                && e.get("args")
                    .and_then(|a| a.get(field))
                    .and_then(Value::as_f64)
                    == Some(key)
        })
        .and_then(|e| e.get("ts").and_then(Value::as_f64))
}

/// A traced request leaves the full stage chain with causally monotone
/// timestamps, and the `/trace` export passes the CI validator.
#[test]
fn traced_request_emits_full_stage_chain() {
    let _guard = TRACE_STATE.lock().unwrap_or_else(|e| e.into_inner());
    trace::set_enabled(true);
    trace::set_sample(1);
    trace::reset();

    let (d, model) = trained_model(901, 5);
    let config = ServeConfig {
        obs_addr: Some("127.0.0.1:0".into()),
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", model, d.meta.clone(), config).expect("server start");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let rows = feature_rows(&d, 0..8);
    for _ in 0..6 {
        client.score(&rows).expect("score");
    }
    const TRACE_ID: u64 = 0xE2E;
    client.score_traced(&rows, TRACE_ID).expect("score_traced");

    // The dump must round-trip through the validator CI uses.
    let obs = server.obs_addr().expect("obs listener is configured");
    let (status, dump) = http_get(obs, "/trace", Duration::from_secs(10)).expect("GET /trace");
    assert_eq!(status, 200);
    let n = validate_chrome_trace(&dump).expect("chrome trace contract");
    assert!(n > 0, "tracing on but dump is empty");

    let doc = parse(&dump).expect("dump parses");
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents")
        .to_vec();

    // Request-scoped chain, in causal order. Events live on different
    // threads (connection vs batcher) but share one clock anchor, so
    // the start timestamps must be non-decreasing along the chain.
    let id = TRACE_ID as f64;
    let mut prev = f64::NEG_INFINITY;
    for stage in [
        "admitted",
        "enqueued",
        "queue_exit",
        "batch_assembled",
        "reply_written",
    ] {
        let ts = stage_ts(&events, "trace_id", id, stage)
            .unwrap_or_else(|| panic!("trace id {TRACE_ID:#x} has no '{stage}' event"));
        assert!(
            ts >= prev,
            "'{stage}' ts {ts} precedes the previous stage ({prev})"
        );
        prev = ts;
    }

    // The batch that carried the request must have compute-side
    // events tagged with its id, all between assembly and reply.
    let assembled = events
        .iter()
        .find(|e| {
            e.get("name").and_then(Value::as_str) == Some("batch_assembled")
                && e.get("args")
                    .and_then(|a| a.get("trace_id"))
                    .and_then(Value::as_f64)
                    == Some(id)
        })
        .expect("batch_assembled event");
    let batch_id = assembled
        .get("args")
        .and_then(|a| a.get("batch_id"))
        .and_then(Value::as_f64)
        .expect("batch id");
    assert!(batch_id > 0.0, "batch_assembled carries no batch id");
    for stage in ["gate", "expert", "scatter"] {
        let ts = stage_ts(&events, "batch_id", batch_id, stage)
            .unwrap_or_else(|| panic!("batch {batch_id} has no '{stage}' event"));
        assert!(ts >= 0.0);
    }

    // Windowed stats are live: every score request of THIS server
    // landed in the always-on windows.
    let (snapshot, w) = (server.stats(), server.window_stats());
    assert_eq!(snapshot.ok, 7);
    assert_eq!(w.request_latency_us.count, 7);
    assert_eq!(w.queue_wait_us.count, 7);
    assert_eq!(w.reply_write_us.count, 7);
    assert!(w.compute_us.count >= 1, "at least one batch computed");
    assert!(
        w.request_latency_us.p50 <= w.request_latency_us.p95
            && w.request_latency_us.p95 <= w.request_latency_us.p99,
        "quantiles must be ordered"
    );
    assert!(w.window_secs > 0.0);

    client.shutdown().expect("shutdown");
    server.join();
    trace::set_enabled(false);
    trace::reset();
}

/// `Server::join` exports the trace ring to the `AMOE_TRACE` path once
/// every request is answered, and the file passes the same validator.
#[test]
fn join_writes_a_valid_trace_file_at_drain() {
    let _guard = TRACE_STATE.lock().unwrap_or_else(|e| e.into_inner());
    let path = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("amoe_trace_drain_{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    trace::set_trace_path(Some(&path)); // also enables tracing
    trace::set_sample(1);
    trace::reset();

    let (d, model) = trained_model(903, 5);
    let server = Server::start("127.0.0.1:0", model, d.meta.clone(), ServeConfig::default())
        .expect("server start");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let rows = feature_rows(&d, 0..8);
    for _ in 0..3 {
        client.score(&rows).expect("score");
    }
    client.shutdown().expect("shutdown");
    server.join();
    trace::set_trace_path(None);
    trace::set_enabled(false);
    trace::reset();

    let body = std::fs::read_to_string(&path).expect("join wrote no trace file");
    let n = validate_chrome_trace(&body).expect("chrome trace contract");
    assert!(n > 0, "drain-time trace file holds no events");
    let _ = std::fs::remove_file(&path);
}

/// Windowed p50/p95/p99 agree with an exact-sort oracle within the
/// log-bucket error bound: `truth ≤ estimate ≤ truth · 2^(1/4)`.
/// Seeded xorshift stream; covers the single-bucket and empty edges.
#[test]
fn windowed_quantiles_agree_with_exact_oracle() {
    let factor = 2f64.powf(1.0 / SUB_BUCKETS as f64);
    // Exact oracle with the histogram's rank rule (1-based ceil).
    let oracle = |sorted: &[f64], q: f64| {
        let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
        sorted[rank - 1]
    };

    let mut state = 0x9E37_79B9_7F4A_7C15u64; // fixed seed
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for trial in 0..20 {
        let n = 1 + (next() % 400) as usize;
        let mut w = WindowedHistogram::with_defaults();
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            // Latency-like magnitudes, ≥ 1 so the relative bound of
            // the log buckets applies (bucket 0 is absolute [0, 1)).
            let v = 1.0 + (next() % 1_000_000) as f64 / 7.0;
            values.push(v);
            w.record(v);
        }
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let s = QuantileSummary::from_histogram(&w.merged());
        assert_eq!(s.count, n as u64, "trial {trial}");
        for (q, est) in [(0.5, s.p50), (0.95, s.p95), (0.99, s.p99)] {
            let truth = oracle(&values, q);
            assert!(
                est >= truth * (1.0 - 1e-9) && est <= truth * factor * (1.0 + 1e-9),
                "trial {trial}: q={q} estimate {est} outside \
                 [{truth}, {truth} · {factor}]"
            );
        }
    }

    // Single-bucket edge: identical samples read back exactly (the
    // estimate clamps to the observed min == max).
    let mut w = WindowedHistogram::with_defaults();
    for _ in 0..32 {
        w.record(1234.5);
    }
    let s = QuantileSummary::from_histogram(&w.merged());
    assert_eq!((s.p50, s.p95, s.p99), (1234.5, 1234.5, 1234.5));

    // Empty edge: count 0, all quantiles 0.
    let s = QuantileSummary::from_histogram(&WindowedHistogram::with_defaults().merged());
    assert_eq!(s, QuantileSummary::default());
}

/// Tracing must be a pure observer: scores stay bit-identical to
/// direct in-process predict with tracing off, and with tracing on at
/// every sample rate.
#[test]
fn scores_bit_identical_with_tracing_on_at_any_sample_rate() {
    let _guard = TRACE_STATE.lock().unwrap_or_else(|e| e.into_inner());

    let (d, model) = trained_model(902, 8);
    let idx: Vec<usize> = (0..25).collect();
    let expected = ServingMoe::new(&model).predict(&Batch::from_split(&d.test, &idx));
    let rows = feature_rows(&d, 0..25);

    // (enabled, sample rate): off, every request, 1-in-4, 1-in-16.
    for (on, sample) in [(false, 1u64), (true, 1), (true, 4), (true, 16)] {
        trace::set_enabled(on);
        trace::set_sample(sample);
        trace::reset();
        let (d, model) = trained_model(902, 8);
        let server = Server::start("127.0.0.1:0", model, d.meta.clone(), ServeConfig::default())
            .expect("server start");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let got = client.score(&rows).expect("score");
        assert_eq!(
            got, expected,
            "tracing on={on} sample=1/{sample}: scores diverged from direct predict"
        );
        client.shutdown().expect("shutdown");
        server.join();
    }
    trace::set_enabled(false);
    trace::reset();
}
