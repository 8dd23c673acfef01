#![warn(missing_docs)]

//! Experiment harness: one module per table/figure of the paper.
//!
//! Every experiment is a pure function from a [`SuiteConfig`] to a typed
//! report that implements `Display` in the shape of the corresponding
//! paper table. The `amoe-bench` crate's `repro_all` binary runs them
//! all, or one by name; `EXPERIMENTS.md` at the workspace root records
//! paper-vs-measured values.
//!
//! | paper artefact | module |
//! |---|---|
//! | Table 1 (dataset statistics)            | [`table1`] |
//! | Table 2 (7-model comparison)            | [`table2`] |
//! | Table 3 (cross-category transfer)       | [`table3`] |
//! | Table 4 (semantic grouping)             | printed by [`fig6`] |
//! | Table 5 (gate-input ablation)           | [`table5`] |
//! | Table 6 (λ₁ × λ₂ grid)                  | [`table6`] |
//! | Table 7 / Fig. 8 (case study)           | [`case_study`] |
//! | Fig. 2 (feature importance)             | [`fig2`] |
//! | Fig. 3 (brand concentration)            | [`fig3`] |
//! | Fig. 5 (gains by category size)         | [`fig5`] |
//! | Fig. 6 (gate-vector clustering)         | [`fig6`] |
//! | Fig. 7 ((N, K, D) sweep)                | [`fig7`] |

pub mod ablations;
pub mod case_study;
pub mod fig2;
pub mod fig3;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod manifest;
pub mod suite;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table5;
pub mod table6;
pub mod tablefmt;

pub use suite::{SuiteConfig, TrainedZoo};
