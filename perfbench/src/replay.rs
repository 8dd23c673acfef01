//! Per-layer replays for the traced run. Each layer's public entry
//! point is called on inputs shaped like what the server saw during the
//! measured phase, every call inside its own span; the layer metric is
//! the median self time of those spans.

use std::path::Path;

use amoe_core::serving::ServingMoe;
use amoe_core::{MoeModel, Ranker};
use amoe_dataset::{Batch, DatasetMeta, Split};
use amoe_serve::protocol::{Request, Response};
use amoe_tensor::{matmul, pool, topk, Matrix};

use crate::alloc;
use crate::inputs::{self, Session};
use crate::stats::median;
use crate::trace::Tracer;
use crate::Metrics;

const FORWARD_ITERS: u64 = 200;
const TRAIN_ITERS: u64 = 20;
const KERNEL_ITERS: u64 = 300;
const POOL_ITERS: u64 = 2000;
const CHECKPOINT_ITERS: u64 = 10;
const WARMUP_ITERS: u64 = 3;
/// Rows of the training-step replay batch.
const TRAIN_ROWS: usize = 64;

/// What the replays need from the run.
pub struct Ctx<'a> {
    pub meta: &'a DatasetMeta,
    pub seed: u64,
    /// The served checkpoint, and a model loaded from it.
    pub ckpt: &'a Path,
    pub model: &'a MoeModel,
    pub test: &'a Split,
    pub sessions: &'a [Session],
    /// The server's mean batch shape over the measured phase.
    pub requests_per_batch: f64,
    pub rows_per_batch: f64,
    /// Scratch directory for checkpoint writes.
    pub dir: &'a Path,
}

fn median_self(tracer: &Tracer, name: &str) -> Result<f64, String> {
    median(&tracer.self_times_us(name)).ok_or_else(|| format!("no {name} spans recorded"))
}

/// Runs every replay and adds its metrics.
pub fn run(ctx: &Ctx<'_>, tracer: &Tracer, m: &mut Metrics) -> Result<(), String> {
    protocol(ctx, tracer, m)?;
    let parts = observed_batch(ctx);
    serving(ctx, &parts, tracer, m)?;
    models(ctx, &parts, tracer, m)?;
    tensor(ctx, &parts, tracer, m)?;
    dataset(&parts, tracer, m)?;
    checkpoints(ctx, tracer, m)
}

/// `requests_per_batch` consecutive sessions, like one batch the
/// server assembled.
fn observed_batch<'a>(ctx: &Ctx<'a>) -> Vec<&'a Batch> {
    let n = (ctx.requests_per_batch.round() as usize).max(1);
    (0..n)
        .map(|i| &ctx.sessions[i % ctx.sessions.len()].batch)
        .collect()
}

fn protocol(ctx: &Ctx<'_>, tracer: &Tracer, m: &mut Metrics) -> Result<(), String> {
    let root = tracer.new_id();
    let t0 = std::time::Instant::now();
    let serving = ServingMoe::new(ctx.model);
    for (i, s) in ctx.sessions.iter().enumerate() {
        let key = i as u64 + 1;
        let request = Request::Score {
            request_id: key,
            trace_id: 0,
            rows: s.rows.clone(),
        };
        let wire = tracer.time(root, "protocol.request_encode", key, || request.encode());
        let decoded = tracer.time(root, "protocol.request_decode", key, || {
            Request::decode(&wire)
        });
        if !matches!(&decoded, Ok(r) if *r == request) {
            return Err(format!("session {i}: request did not round-trip"));
        }
        let response = Response::Scores {
            request_id: key,
            scores: serving.predict(&s.batch),
        };
        let wire = tracer.time(root, "protocol.response_encode", key, || response.encode());
        let decoded = tracer.time(root, "protocol.response_decode", key, || {
            Response::decode(&wire)
        });
        if !matches!(&decoded, Ok(r) if *r == response) {
            return Err(format!("session {i}: response did not round-trip"));
        }
    }
    tracer.push(tracer.span(
        root,
        0,
        "replay.protocol",
        0,
        0,
        t0,
        std::time::Instant::now(),
    ));
    for name in [
        "protocol.request_encode",
        "protocol.request_decode",
        "protocol.response_encode",
        "protocol.response_decode",
    ] {
        m.add(&format!("{name}_us"), median_self(tracer, name)?, "us");
    }
    Ok(())
}

fn serving(
    ctx: &Ctx<'_>,
    parts: &[&Batch],
    tracer: &Tracer,
    m: &mut Metrics,
) -> Result<(), String> {
    let serving = ServingMoe::new(ctx.model);
    for _ in 0..WARMUP_ITERS {
        std::hint::black_box(serving.predict_many_with_stats(parts));
    }
    let root = tracer.new_id();
    let t0 = std::time::Instant::now();
    let (mut gate, mut expert, mut scatter, mut allocs) = (vec![], vec![], vec![], vec![]);
    for i in 0..FORWARD_ITERS {
        let ((out, stats), n) = tracer.time(root, "serving.forward", i + 1, || {
            alloc::count(|| serving.predict_many_with_stats(parts))
        });
        std::hint::black_box(out);
        gate.push(stats.gate_time.as_secs_f64() * 1e6);
        expert.push(stats.expert_time.as_secs_f64() * 1e6);
        scatter.push(stats.scatter_time.as_secs_f64() * 1e6);
        allocs.push(n as f64);
    }
    tracer.push(tracer.span(
        root,
        0,
        "replay.serving",
        0,
        0,
        t0,
        std::time::Instant::now(),
    ));
    let med = |v: &[f64]| median(v).expect("replay ran");
    m.add(
        "serving.forward_us",
        median_self(tracer, "serving.forward")?,
        "us",
    );
    m.add("serving.gate_us", med(&gate), "us");
    m.add("serving.expert_us", med(&expert), "us");
    m.add("serving.scatter_us", med(&scatter), "us");
    m.add("serving.allocs_per_forward", med(&allocs), "count");
    Ok(())
}

fn models(ctx: &Ctx<'_>, parts: &[&Batch], tracer: &Tracer, m: &mut Metrics) -> Result<(), String> {
    let batch = Batch::concat(parts);
    let model = ctx.model;
    let root = tracer.new_id();
    let t0 = std::time::Instant::now();
    for i in 0..FORWARD_ITERS {
        let (x, g) = tracer.time(root, "models.encode", i + 1, || {
            (
                model.encoder_input_infer(&batch),
                model.gate_input_infer(&batch),
            )
        });
        std::hint::black_box(x);
        let logits = tracer.time(root, "models.gate_logits", i + 1, || {
            model.gate_logits_infer(&g)
        });
        std::hint::black_box(logits);
    }

    let rows: Vec<usize> = (0..TRAIN_ROWS.min(ctx.test.len())).collect();
    let train_batch = Batch::from_split(ctx.test, &rows);
    let mut trained = inputs::load(ctx.meta, ctx.seed, ctx.ckpt)?;
    let mut allocs = Vec::new();
    for i in 0..WARMUP_ITERS + TRAIN_ITERS {
        if i < WARMUP_ITERS {
            trained.train_step(&train_batch);
            continue;
        }
        let (stats, n) = tracer.time(root, "models.train_step", i, || {
            alloc::count(|| trained.train_step(&train_batch))
        });
        std::hint::black_box(stats);
        allocs.push(n as f64);
    }
    for i in 0..TRAIN_ITERS {
        let stats = tracer.time(root, "models.grad", i + 1, || {
            trained.accumulate_gradients(&train_batch)
        });
        std::hint::black_box(stats);
    }
    tracer.push(tracer.span(
        root,
        0,
        "replay.models",
        0,
        0,
        t0,
        std::time::Instant::now(),
    ));
    m.add(
        "models.encode_us",
        median_self(tracer, "models.encode")?,
        "us",
    );
    m.add(
        "models.gate_logits_us",
        median_self(tracer, "models.gate_logits")?,
        "us",
    );
    m.add(
        "models.train_step_ms",
        median_self(tracer, "models.train_step")? / 1e3,
        "ms",
    );
    m.add(
        "models.grad_ms",
        median_self(tracer, "models.grad")? / 1e3,
        "ms",
    );
    m.add(
        "models.allocs_per_train_step",
        median(&allocs).expect("replay ran"),
        "count",
    );
    Ok(())
}

fn tensor(ctx: &Ctx<'_>, parts: &[&Batch], tracer: &Tracer, m: &mut Metrics) -> Result<(), String> {
    let model = ctx.model;
    let batch = Batch::concat(parts);
    let cfg = model.config();
    // One expert's share of an observed batch: rows × K / N.
    let rows =
        ((ctx.rows_per_batch * cfg.top_k as f64 / cfg.n_experts as f64).round() as usize).max(1);
    let x_all = model.encoder_input_infer(&batch);
    let idx: Vec<usize> = (0..rows).map(|r| r % x_all.rows()).collect();
    let x = x_all.gather_rows(&idx);
    let weights: Vec<&Matrix> = model.experts()[0]
        .layers()
        .iter()
        .map(|l| model.params().value(l.weight()))
        .collect();
    let (mut flops, mut bytes) = (0.0f64, 0.0f64);
    for w in &weights {
        let (k, n) = (w.rows() as f64, w.cols() as f64);
        flops += 2.0 * rows as f64 * k * n;
        bytes += 4.0 * (rows as f64 * k + k * n + rows as f64 * n);
    }
    let root = tracer.new_id();
    let t0 = std::time::Instant::now();
    for i in 0..KERNEL_ITERS {
        let out = tracer.time(root, "tensor.tower_matmul", i + 1, || {
            weights.iter().fold(x.clone(), |h, w| matmul::matmul(&h, w))
        });
        std::hint::black_box(out);
    }
    let logits = model.gate_logits_infer(&model.gate_input_infer(&batch));
    for i in 0..KERNEL_ITERS {
        let picked = tracer.time(root, "tensor.topk", i + 1, || {
            (0..logits.rows())
                .map(|r| topk::top_k_indices(logits.row(r), cfg.top_k).len())
                .sum::<usize>()
        });
        std::hint::black_box(picked);
    }
    let lanes = pool::threads();
    for i in 0..POOL_ITERS {
        tracer.time(root, "tensor.pool_region", i + 1, || {
            pool::for_each_task(lanes, |_| {})
        });
    }
    tracer.push(tracer.span(
        root,
        0,
        "replay.tensor",
        0,
        0,
        t0,
        std::time::Instant::now(),
    ));
    let matmul_us = median_self(tracer, "tensor.tower_matmul")?;
    m.add("tensor.tower_matmul_us", matmul_us, "us");
    m.add("tensor.tower_gflops", flops / (matmul_us * 1e3), "GFLOP/s");
    m.add(
        "tensor.topk_ns_per_row",
        median_self(tracer, "tensor.topk")? * 1e3 / logits.rows() as f64,
        "ns",
    );
    m.add(
        "tensor.pool_region_us",
        median_self(tracer, "tensor.pool_region")?,
        "us",
    );
    m.note("tower_rows", rows as f64);
    m.note("tower_flops", flops);
    m.note("tower_bytes", bytes);
    Ok(())
}

fn dataset(parts: &[&Batch], tracer: &Tracer, m: &mut Metrics) -> Result<(), String> {
    let root = tracer.new_id();
    let t0 = std::time::Instant::now();
    for i in 0..KERNEL_ITERS {
        let b = tracer.time(root, "dataset.batch_concat", i + 1, || Batch::concat(parts));
        std::hint::black_box(b);
    }
    tracer.push(tracer.span(
        root,
        0,
        "replay.dataset",
        0,
        0,
        t0,
        std::time::Instant::now(),
    ));
    m.add(
        "dataset.batch_concat_us",
        median_self(tracer, "dataset.batch_concat")?,
        "us",
    );
    Ok(())
}

fn checkpoints(ctx: &Ctx<'_>, tracer: &Tracer, m: &mut Metrics) -> Result<(), String> {
    let path = ctx.dir.join("replay.amoe");
    let root = tracer.new_id();
    let t0 = std::time::Instant::now();
    for i in 0..CHECKPOINT_ITERS {
        tracer
            .time(root, "nn.checkpoint_save", i + 1, || {
                ctx.model.params().save_atomic(&path)
            })
            .map_err(|e| format!("save {}: {e}", path.display()))?;
        let loaded = tracer.time(root, "nn.checkpoint_load", i + 1, || {
            inputs::load(ctx.meta, ctx.seed, &path)
        })?;
        std::hint::black_box(loaded);
    }
    tracer.push(tracer.span(root, 0, "replay.nn", 0, 0, t0, std::time::Instant::now()));
    m.add(
        "nn.checkpoint_save_ms",
        median_self(tracer, "nn.checkpoint_save")? / 1e3,
        "ms",
    );
    m.add(
        "nn.checkpoint_load_ms",
        median_self(tracer, "nn.checkpoint_load")? / 1e3,
        "ms",
    );
    Ok(())
}
