#![warn(missing_docs)]

//! Online inference service for the Adv & HSC-MoE ranker.
//!
//! The crate is both a library (embed a [`Server`] in tests or a
//! larger process) and a binary (`amoe-serve`) exposing the service
//! over TCP. Like the rest of the workspace it uses **no external
//! dependencies** — the protocol, queue and threading are all std.
//!
//! # Architecture
//!
//! ```text
//!  client ══frames══▶ reader thread ──Pending──▶ queue ──▶ batcher ── predict
//!     ▲   (pipelined:      │                                  │   (pool-parallel
//!     ║    many SCOREs     │ admin replies,                   │    forward)
//!     ║    in flight)      ▼ admission errors                 ▼
//!     ╚══════════════ writer thread ◀────────── ScoreDone (completion order)
//! ```
//!
//! * **Protocol** ([`protocol`]): one version of length-prefixed
//!   binary frames over TCP; `SCORE`, `RELOAD` and `SHUTDOWN` requests.
//!   Connections are pipelined: requests carry correlation ids, a
//!   connection may have many scores in flight, and replies arrive in
//!   completion order. A peer whose hello names another version is
//!   refused.
//! * **Batcher** ([`batcher`]): one bounded admission queue and one
//!   batching thread. Requests already queued when the batcher comes
//!   round coalesce into one model call, with no waiting for more
//!   (scores stay bit-identical to direct predicts — every model path
//!   is row-independent). The forward's parallelism is the process-wide
//!   [`amoe_tensor::pool`]; the server adds none of its own.
//! * **Backpressure** ([`queue`], [`ServeConfig::overload`]): a full
//!   queue rejects with a correlated `SCORE_ERROR` flagged overloaded,
//!   or blocks with a deadline under [`OverloadPolicy::Block`].
//!   Admission errors go straight from the reader to the writer, so
//!   they can overtake earlier requests that are still queued.
//! * **Hot-swap** ([`client::Client::reload`]): `RELOAD <path>` builds
//!   a fresh model from an `AMOE` checkpoint off the serving path and
//!   swaps it atomically; in-flight batches finish on the old weights.
//! * **Graceful drain**: `SHUTDOWN` closes the queue, answers every
//!   admitted request, then exits.
//!
//! All stages are instrumented through `amoe-obs` (queue-depth gauge,
//! batch-size / queue-wait / latency histograms, `serve_request` and
//! `serve_batch` JSONL events) when `AMOE_OBS` is set.
//!
//! Independent of `AMOE_OBS`, the server keeps **always-on
//! sliding-window stage histograms** (queue wait, compute, reply
//! write, end-to-end latency, queue depth) reported as p50/p95/p99,
//! and supports **request-scoped tracing** (`AMOE_TRACE=path`, sampled
//! via `AMOE_TRACE_SAMPLE=1/N`) exportable as Chrome trace-event JSON.
//! The HTTP listener ([`http`], [`ServeConfig::obs_addr`]) is the one
//! read-only admin plane: `/vars` and `/metrics` carry the counters and
//! windows, `/trace` the trace ring (also written to the `AMOE_TRACE`
//! path at drain). In process, [`Server::stats`] and
//! [`Server::window_stats`] read the same numbers.

pub mod batcher;
pub mod client;
pub mod config;
pub mod http;
pub mod protocol;
pub mod queue;
pub mod server;

pub use client::{Client, Completion, ServeError};
pub use config::{ModelSpec, OverloadPolicy, ServeConfig};
pub use http::http_get;
pub use protocol::FeatureRow;
pub use server::{QuantileSummary, Server, StatsSnapshot, WindowedStats};
