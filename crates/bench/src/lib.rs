//! The reproduction entry point and its one shared check.
//!
//! `repro_all` (in `src/bin`) regenerates every table and figure of the
//! paper, or one of them by name. [`obs_check`] holds the Chrome
//! trace-event validator that the integration tests and `perfbench`
//! hold the `AMOE_TRACE` / `GET /trace` export to.

pub mod obs_check;
