//! Golden-record tests for the telemetry pipeline: one trainer epoch
//! plus one sparse serving call must produce schema-valid JSONL — a
//! stable field set with finite values — and toggling telemetry must
//! not change model behaviour.
//!
//! The JSONL sink and the enabled flag are process-global, so every
//! test takes `obs_lock()` to serialise against the others.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use adv_hsc_moe::dataset::{generate, Batch, GeneratorConfig};
use adv_hsc_moe::moe::config::TowerConfig;
use adv_hsc_moe::moe::ranker::OptimConfig;
use adv_hsc_moe::moe::serving::ServingMoe;
use adv_hsc_moe::moe::{MoeConfig, MoeModel, Ranker, TrainConfig, Trainer};
use adv_hsc_moe::obs::json::{parse, Value};
use adv_hsc_moe::obs::trace;
use adv_hsc_moe::online::daemon::feature_row;
use adv_hsc_moe::serve::{Client, FeatureRow, ServeConfig, Server};

fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn tiny_setup() -> (adv_hsc_moe::dataset::Dataset, MoeModel, Trainer) {
    let d = generate(&GeneratorConfig::tiny(61));
    let cfg = MoeConfig {
        n_experts: 6,
        top_k: 2,
        adversarial: true,
        hsc: true,
        ..MoeConfig::default()
    };
    let model = MoeModel::new(&d.meta, cfg, OptimConfig::default());
    let trainer = Trainer::new(TrainConfig {
        epochs: 1,
        batch_size: 128,
        ..TrainConfig::default()
    });
    (d, model, trainer)
}

/// Asserts every number in the record is finite and no `null` appears
/// (the writer serialises non-finite floats as `null`).
fn assert_all_finite(v: &Value, context: &str) {
    match v {
        Value::Null => panic!("{context}: null (a non-finite number was emitted)"),
        Value::Num(n) => assert!(n.is_finite(), "{context}: non-finite number"),
        Value::Arr(items) => items.iter().for_each(|i| assert_all_finite(i, context)),
        Value::Obj(map) => map.values().for_each(|i| assert_all_finite(i, context)),
        _ => {}
    }
}

#[test]
fn one_epoch_and_one_serving_call_produce_schema_valid_jsonl() {
    let _guard = obs_lock();
    let path = std::env::temp_dir().join(format!("amoe_obs_golden_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    adv_hsc_moe::obs::sink::set_sink_path(Some(&path));

    let (d, mut model, trainer) = tiny_setup();
    trainer.fit(&mut model, &d.train);
    let batch = Batch::from_split(&d.test, &(0..32).collect::<Vec<_>>());
    let (_logits, stats) = ServingMoe::new(&model).predict_logits_with_stats(&batch);
    adv_hsc_moe::obs::emit_metrics_snapshot();
    adv_hsc_moe::obs::sink::set_sink_path(None);

    // The Stats contract backing the JSONL: finite throughput always.
    assert!(stats.examples_per_sec().is_finite() && stats.examples_per_sec() >= 0.0);

    let body = std::fs::read_to_string(&path).expect("run log exists");
    let records: Vec<Value> = body
        .lines()
        .enumerate()
        .map(|(i, l)| parse(l).unwrap_or_else(|e| panic!("line {}: {e}", i + 1)))
        .collect();
    assert!(!records.is_empty(), "no telemetry records emitted");

    // Envelope + finiteness on every record.
    for (i, r) in records.iter().enumerate() {
        let ctx = format!("record {}", i + 1);
        assert!(
            r.get("event").and_then(Value::as_str).is_some(),
            "{ctx}: missing event"
        );
        assert!(
            r.get("ts").and_then(Value::as_f64).is_some(),
            "{ctx}: missing ts"
        );
        assert!(
            r.get("thread").and_then(Value::as_str).is_some(),
            "{ctx}: missing thread"
        );
        assert_all_finite(r, &ctx);
    }

    let by_kind = |kind: &str| -> Vec<&Value> {
        records
            .iter()
            .filter(|r| r.get("event").and_then(Value::as_str) == Some(kind))
            .collect()
    };

    // Golden schema: the one training epoch.
    let epochs = by_kind("train_epoch");
    assert_eq!(epochs.len(), 1, "exactly one train_epoch record");
    let e = epochs[0];
    for field in [
        "loss",
        "ce",
        "hsc",
        "adv",
        "load_balance",
        "gate_entropy",
        "epoch_secs",
    ] {
        assert!(
            e.get(field).and_then(Value::as_f64).is_some(),
            "train_epoch missing {field}"
        );
    }
    assert_eq!(
        e.get("model").and_then(Value::as_str),
        Some("Adv & HSC-MoE")
    );
    assert_eq!(e.get("epoch").and_then(Value::as_f64), Some(1.0));
    // Adv & HSC variant: both paper loss components are live.
    assert!(e.get("hsc").and_then(Value::as_f64).unwrap() > 0.0);
    let dispatch = e
        .get("dispatch")
        .and_then(Value::as_arr)
        .expect("dispatch array");
    assert_eq!(dispatch.len(), 6, "one dispatch slot per expert");
    // Each training example routes to K experts each step: counts sum
    // to K * examples-seen, which is positive after an epoch.
    let total: f64 = dispatch.iter().filter_map(Value::as_f64).sum();
    assert!(total > 0.0);

    // Golden schema: the one serving call.
    let calls = by_kind("serving_predict");
    assert_eq!(calls.len(), 1, "exactly one serving_predict record");
    let s = calls[0];
    assert_eq!(s.get("examples").and_then(Value::as_f64), Some(32.0));
    for field in [
        "threads",
        "gate_ns",
        "expert_ns",
        "scatter_ns",
        "total_ns",
        "examples_per_sec",
    ] {
        assert!(
            s.get(field).and_then(Value::as_f64).is_some(),
            "serving_predict missing {field}"
        );
    }
    let routed: f64 = s
        .get("dispatch")
        .and_then(Value::as_arr)
        .expect("dispatch array")
        .iter()
        .filter_map(Value::as_f64)
        .sum();
    assert_eq!(routed, 32.0 * 2.0, "serving dispatch sums to K * examples");

    // The end-of-run snapshot carries the per-phase span histograms.
    let snaps = by_kind("metrics_snapshot");
    assert_eq!(snaps.len(), 1);
    for metric in [
        "serving.gate.count",
        "serving.experts.count",
        "serving.scatter.count",
        "trainer.epoch.count",
    ] {
        assert!(
            snaps[0].get(metric).and_then(Value::as_f64).is_some(),
            "metrics_snapshot missing {metric}"
        );
    }

    let _ = std::fs::remove_file(&path);
}

#[test]
fn telemetry_toggle_does_not_change_predictions() {
    let _guard = obs_lock();
    // Telemetry must be observational only: training with the registry
    // enabled (no sink) yields bit-identical predictions to a run with
    // telemetry off.
    let run = |enabled: bool| -> Vec<f32> {
        adv_hsc_moe::obs::set_enabled(enabled);
        let (d, mut model, trainer) = tiny_setup();
        trainer.fit(&mut model, &d.train);
        let batch = Batch::from_split(&d.test, &(0..48).collect::<Vec<_>>());
        let out = model.predict(&batch);
        adv_hsc_moe::obs::set_enabled(false);
        out
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn gate_telemetry_drains_per_epoch() {
    let _guard = obs_lock();
    adv_hsc_moe::obs::set_enabled(true);
    let (d, mut model, _trainer) = tiny_setup();
    let batch = Batch::from_split(&d.train, &(0..64).collect::<Vec<_>>());
    model.train_step(&batch);
    model.train_step(&batch);
    let t = model
        .take_gate_telemetry()
        .expect("telemetry accumulated while enabled");
    adv_hsc_moe::obs::set_enabled(false);
    assert_eq!(t.steps, 2);
    assert_eq!(t.dispatch.len(), 6);
    assert_eq!(
        t.dispatch.iter().sum::<u64>(),
        2 * 64 * 2,
        "K experts per example per step"
    );
    // Top-2 of 6 experts: masked entropy is within (0, ln 2].
    assert!(t.mean_entropy() > 0.0 && t.mean_entropy() <= f64::from(2f32.ln()) + 1e-6);
    // Drained: a second take returns None until the next enabled step.
    assert!(model.take_gate_telemetry().is_none());
}

/// A `serve_batch` record's `queue_wait_us_max` runs from admission to
/// batch assembly, like the `/vars` queue-wait window, so it never
/// includes the batch's compute: wait plus the batch's `compute_us`
/// fit inside the client's round trip. The towers are wide so that
/// compute, counted twice, would overflow it.
#[test]
fn serve_batch_queue_wait_excludes_compute() {
    let _guard = obs_lock();
    let d = generate(&GeneratorConfig::tiny(61));
    let cfg = MoeConfig {
        n_experts: 4,
        top_k: 4,
        tower: TowerConfig {
            hidden: vec![64, 32],
        },
        ..MoeConfig::default()
    };
    let model = MoeModel::new(&d.meta, cfg, OptimConfig::default());
    let rows: Vec<FeatureRow> = d.test.examples[..d.test.len().min(256)]
        .iter()
        .map(feature_row)
        .collect();
    let path = std::env::temp_dir().join(format!("amoe_obs_qwait_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    adv_hsc_moe::obs::sink::set_sink_path(Some(&path));
    let server = Server::start("127.0.0.1:0", model, d.meta.clone(), ServeConfig::default())
        .expect("server start");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let round_trips_us: Vec<u64> = (0..2)
        .map(|_| {
            let t0 = Instant::now();
            client.score(&rows).expect("score");
            t0.elapsed().as_micros() as u64
        })
        .collect();
    client.shutdown().expect("shutdown");
    server.join();
    adv_hsc_moe::obs::sink::set_sink_path(None);

    let body = std::fs::read_to_string(&path).expect("run log exists");
    let _ = std::fs::remove_file(&path);
    let batches: Vec<Value> = body
        .lines()
        .map(|l| parse(l).expect("valid JSON"))
        .filter(|r| r.get("event").and_then(Value::as_str) == Some("serve_batch"))
        .collect();
    assert_eq!(batches.len(), round_trips_us.len(), "one batch per request");
    for (b, &rt) in batches.iter().zip(&round_trips_us) {
        let field = |k: &str| b.get(k).and_then(Value::as_f64).expect(k) as u64;
        let wait = field("queue_wait_us_max");
        let compute = field("compute_us");
        assert!(
            wait + compute <= rt,
            "queue wait {wait} us + compute {compute} us exceeds the {rt} us round trip"
        );
    }
}

/// One traced forward with `AMOE_OBS` on: each phase is timed from one
/// pair of clock readings, so `Stats`, the `serving.*` histograms and
/// the `gate` / `scatter` trace events agree to the nanosecond, and the
/// expert phase is exactly the gap between the gate's end and the
/// scatter's start.
#[test]
fn traced_forward_reports_one_duration_per_phase_to_every_sink() {
    const BATCH_ID: u64 = 4242;
    let _guard = obs_lock();
    let (d, model, _trainer) = tiny_setup();
    let batch = Batch::from_split(&d.test, &(0..32).collect::<Vec<_>>());
    adv_hsc_moe::obs::set_enabled(true);
    adv_hsc_moe::obs::registry::reset();
    trace::set_enabled(true);
    trace::reset();
    assert!(trace::try_claim_active_batch(BATCH_ID));
    let (_logits, stats) = ServingMoe::new(&model).predict_logits_with_stats(&batch);
    trace::release_active_batch(BATCH_ID);
    let events = trace::events();
    let snap = adv_hsc_moe::obs::snapshot();
    trace::set_enabled(false);
    adv_hsc_moe::obs::set_enabled(false);

    let event = |stage: &str| {
        *events
            .iter()
            .find(|e| e.batch_id == BATCH_ID && e.stage == stage)
            .unwrap_or_else(|| panic!("no {stage} event for the claimed batch"))
    };
    let ns = |d: Duration| d.as_nanos() as u64;
    let (gate, scatter) = (event("gate"), event("scatter"));
    assert_eq!(gate.end_ns - gate.start_ns, ns(stats.gate_time));
    assert_eq!(scatter.end_ns - scatter.start_ns, ns(stats.scatter_time));
    assert_eq!(scatter.start_ns - gate.end_ns, ns(stats.expert_time));
    for (metric, phase) in [
        ("serving.gate", stats.gate_time),
        ("serving.experts", stats.expert_time),
        ("serving.scatter", stats.scatter_time),
    ] {
        let h = snap.histograms.get(metric).expect(metric);
        assert_eq!(h.count(), 1, "{metric} samples");
        assert_eq!(h.sum(), phase.as_nanos() as f64, "{metric} sum");
    }
}
