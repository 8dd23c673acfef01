//! The continuous micro-batcher: one batching loop, the single consumer
//! of the server's bounded admission queue.
//!
//! The batcher blocks for the first queued request, then takes every
//! request *already queued* behind it, without waiting, for as long as
//! the batch stays within `max_batch_rows` rows. There is no deadline:
//! an idle batcher computes a lone request at once, and under load
//! batches still grow, because requests pile up while the previous
//! batch computes. The collected requests are coalesced with
//! [`amoe_dataset::Batch::concat`] into **one**
//! `ServingMoe::predict_many` call, and the score vector is
//! scattered back to each request's reply lane: the writer thread of
//! the connection it came in on. The forward itself is parallelised by
//! [`amoe_tensor::pool`], the server's only source of parallelism.
//!
//! # Determinism contract
//!
//! Coalescing never changes scores: every inference path computes each
//! row independently (per-row top-K gating, row-blocked matmuls,
//! per-row scatter in fixed expert order), so a row's score is
//! bit-identical whether its request was predicted alone or inside any
//! coalesced batch, at any `AMOE_THREADS` setting. The `serve_loopback`
//! integration test asserts this end to end. Tracing observes the
//! pipeline without touching the data path, so the contract holds at
//! any sample rate.

use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

use amoe_core::serving::ServingMoe;
use amoe_dataset::Batch;
use amoe_obs::{trace, Stage};

use crate::protocol::Response;
use crate::server::Shared;

/// One admitted score request waiting for the batcher.
pub(crate) struct Pending {
    /// Decoded, validated feature rows.
    pub batch: Batch,
    /// The request's wire correlation id (echoed in the reply).
    pub request_id: u64,
    /// Request trace id (`0` = untraced).
    pub trace_id: u64,
    /// The reply lane this request's completion goes down. Holding a
    /// sender is also the drain guarantee on pipelined connections:
    /// the writer thread cannot exit before every admitted request has
    /// been answered or dropped.
    pub reply: mpsc::Sender<WriterMsg>,
    /// Admission time, for queue-wait accounting.
    pub enqueued: Instant,
}

/// A completed score travelling from the batcher to a reply lane.
pub(crate) struct ScoreDone {
    /// Echo of the request's correlation id.
    pub request_id: u64,
    /// Request trace id (`0` = untraced).
    pub trace_id: u64,
    /// Admission time, for end-to-end latency accounting.
    pub enqueued: Instant,
    /// The batch that computed the scores (trace correlation).
    pub batch_id: u64,
    /// One sigmoid score per submitted row, in row order.
    pub scores: Vec<f32>,
}

/// What flows down a connection's reply lane: completions from the
/// batcher, interleaved with in-order admin responses from the reader.
pub(crate) enum WriterMsg {
    /// A score request completed.
    Done(ScoreDone),
    /// An in-order admin (or correlated score-error) response.
    Admin(Response),
}

/// Runs the batching loop until the queue is closed and drained.
pub(crate) fn run(shared: &Arc<Shared>) {
    let queue = &shared.queue;
    let max_rows = shared.config.max_batch_rows;
    loop {
        // Block for the request that opens the next batch. `None`
        // means the queue is closed and fully drained: shut down.
        let Some(first) = queue.pop_wait() else {
            break;
        };
        note_queue_exit(&first);
        let mut rows = first.batch.len();
        let mut pending = vec![first];
        // Take what is already queued; the first request that would
        // overflow the row budget opens the next batch instead.
        while let Some(p) = queue.try_pop_if(|p| rows + p.batch.len() <= max_rows) {
            note_queue_exit(&p);
            rows += p.batch.len();
            pending.push(p);
        }

        if let Some(delay) = shared.config.batcher_delay {
            std::thread::sleep(delay);
        }

        // Batch ids are allocated per assembled batch (≥ 1; 0 stays
        // "no batch" in trace events and the active-batch marker).
        let batch_id = shared.stats.next_batch_id();
        // The compute stage opens at batch assembly, which is also
        // where every member's queue wait ends.
        let compute = Stage::start();
        let assembled_at = compute.started();
        let traced = pending.iter().any(|p| p.trace_id != 0);
        if traced {
            let t = trace::instant_ns(assembled_at);
            for p in &pending {
                if p.trace_id != 0 {
                    trace::record(p.trace_id, batch_id, "batch_assembled", t, t, rows as u64);
                }
            }
        }

        // Clone the Arc under the lock, predict outside it: a RELOAD
        // can swap the model while this batch still runs on the old
        // weights (the Arc keeps them alive).
        let model = Arc::clone(&shared.model.lock().unwrap());
        let parts: Vec<&Batch> = pending.iter().map(|p| &p.batch).collect();
        // Tag the forward path (gate/expert/scatter, pool regions) with
        // this batch while it computes — but only when someone in the
        // batch is traced, so untraced batches add no events. The claim
        // is a CAS: with several servers computing in one process only
        // one can hold the marker, and a losing batch's forward events
        // go untagged rather than mis-attributed.
        let claimed = traced && trace::try_claim_active_batch(batch_id);
        let scores = ServingMoe::new(&model).predict_many(&parts);
        if claimed {
            trace::release_active_batch(batch_id);
        }
        let (_, compute_time) = compute.end();
        let compute_us = compute_time.as_micros() as u64;

        shared.stats.batches.fetch_add(1, Ordering::Relaxed);
        {
            // Always-on windowed stage accounting: per-request queue
            // waits (admission → batch assembly) and per-batch compute.
            // Traced requests double as exemplar candidates; the
            // batch-level compute sample carries the first traced
            // member's id.
            let mut w = shared.stats.windows.lock().unwrap();
            for p in &pending {
                let wait_us = assembled_at.duration_since(p.enqueued).as_micros() as f64;
                w.queue_wait_us.record_traced(wait_us, p.trace_id);
            }
            let compute_trace = pending.iter().map(|p| p.trace_id).find(|&t| t != 0);
            w.compute_us
                .record_traced(compute_us as f64, compute_trace.unwrap_or(0));
        }
        if amoe_obs::enabled() {
            record_batch_telemetry(shared, &pending, rows, assembled_at, compute_us);
        }
        for (p, s) in pending.into_iter().zip(scores) {
            // A reply lane that hung up (client disconnect) makes send
            // fail; that request's scores are simply dropped.
            let _ = p.reply.send(WriterMsg::Done(ScoreDone {
                request_id: p.request_id,
                trace_id: p.trace_id,
                enqueued: p.enqueued,
                batch_id,
                scores: s,
            }));
        }
    }
}

/// Records the `queue_exit` stage for a traced request, at actual pop
/// time.
fn note_queue_exit(p: &Pending) {
    if p.trace_id != 0 {
        trace::record_instant(p.trace_id, 0, "queue_exit", p.batch.len() as u64);
    }
}

/// Emits the `AMOE_OBS` batch record. Queue waits run from admission
/// to `assembled_at`, the same interval as the windowed `queue_wait_us`,
/// so they never include the batch's compute; `compute_us` is the
/// reading the compute window took.
fn record_batch_telemetry(
    shared: &Arc<Shared>,
    pending: &[Pending],
    rows: usize,
    assembled_at: Instant,
    compute_us: u64,
) {
    let mut max_wait_us = 0u64;
    for p in pending {
        let wait_us = assembled_at.duration_since(p.enqueued).as_micros() as u64;
        max_wait_us = max_wait_us.max(wait_us);
        amoe_obs::histogram_record("serve.queue_wait_us", wait_us as f64);
    }
    amoe_obs::histogram_record("serve.batch_rows", rows as f64);
    amoe_obs::histogram_record("serve.batch_requests", pending.len() as f64);
    amoe_obs::emit(
        &amoe_obs::Event::new("serve_batch")
            .u64("requests", pending.len() as u64)
            .u64("rows", rows as u64)
            .u64("queue_wait_us_max", max_wait_us)
            .u64("queue_depth", shared.queue.len() as u64)
            .u64("compute_us", compute_us),
    );
}
