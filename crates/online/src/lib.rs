#![warn(missing_docs)]

//! The continuous train→reload loop: everything between "a model was
//! trained once" and "a live server keeps getting fresher models".
//!
//! The serving stack already has the ingredients — a trainer, a
//! weights-only checkpoint format, a `RELOAD` hot-swap that never
//! drops in-flight requests — but nothing that closes the loop. This
//! crate does, in three parts:
//!
//! * [`stream`] — a drifting session source: timestamped windows from
//!   [`amoe_dataset::DriftWorld`], emitted tick by tick.
//! * [`export`] — versioned, atomic checkpoint + spec export
//!   (`gen-NNNNNN.amoe` / `.spec`, temp-file + `rename`), so a
//!   concurrent `RELOAD` can never read a torn file.
//! * [`daemon`] — the [`daemon::OnlineLoop`]: maintain a sliding
//!   window of recent sessions, periodically refit warm-started from
//!   the previous generation, export, and push `RELOAD` to a live
//!   `amoe-serve`, with probe traffic verifying the server stays
//!   continuously available through every swap.
//!
//! The `amoe-online` binary wraps the loop for the CLI.
//! `tests/online_loop.rs` replays a drifting stream against a frozen
//! model to price staleness, and `perfbench`'s `drift-refit` workload
//! times the loop.

pub mod daemon;
pub mod export;
pub mod stream;

pub use daemon::{LoopStats, OnlineConfig, OnlineLoop, RefitReport, TickReport};
pub use export::CheckpointStore;
pub use stream::SessionStream;
