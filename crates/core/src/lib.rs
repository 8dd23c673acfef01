#![warn(missing_docs)]

//! Adversarial Mixture of Experts with Category Hierarchy Soft Constraint.
//!
//! This crate is the reproduction's primary contribution: the complete
//! model zoo and training objective from *"Adversarial Mixture Of Experts
//! with Category Hierarchy Soft Constraint"* (Xiao et al., ICDE 2021).
//!
//! # The model (paper Sec. 4, Fig. 4)
//!
//! A (query, product) example is encoded as the concatenation of sparse
//! feature embeddings and normalised numeric features (Eq. 2, module
//! [`features`]). `N` expert MLP towers score the example; a **noisy
//! top-K inference gate** fed solely with the query's *sub-category*
//! embedding mixes the top `K` experts (Eq. 3–8, module [`gating`]).
//! Two additions distinguish the paper's best model:
//!
//! * **Hierarchical Soft Constraint** (Eq. 9–11, [`losses::hsc_loss`]):
//!   a *constraint gate* fed with the *top-category* embedding produces a
//!   reference distribution; the squared gap between the two gate
//!   distributions on the top-K coordinates is penalised, so sibling
//!   sub-categories converge to similar expert subsets and small
//!   categories borrow statistical strength from their siblings.
//! * **Adversarial regularization** (Eq. 12, [`losses::adversarial_loss`]):
//!   each step samples `D` idle "disagreeing" experts and *rewards* their
//!   squared sigmoid-output distance from the active top-K experts,
//!   pushing experts toward diverse viewpoints.
//!
//! Training minimises `J = CE + λ₁·HSC − λ₂·AdvLoss` (Eq. 13–14) with the
//! paper's gradient routing (Eq. 15–16): expert towers receive no HSC
//! gradient — which holds by construction here, since HSC is a function
//! of the gate parameters only and the top-K masks are non-differentiable
//! constants.
//!
//! # Model zoo (paper Sec. 5.1.3)
//!
//! [`models::MoeModel`] covers MoE / Adv-MoE / HSC-MoE / Adv & HSC-MoE via
//! [`MoeConfig`] flags; [`models::DnnModel`] is the DNN baseline and
//! [`models::MmoeModel`] the multi-gate MMoE baseline with category-bucket
//! tasks. All implement [`Ranker`] and train with [`Trainer`].
//!
//! # Serving
//!
//! [`serving::ServingMoe`] is the tape-free inference path that computes
//! only the top-K expert towers per example (expert-major batching), the
//! property that keeps serving cost constant as `N` grows. It is the one
//! inference path for MoE scores: evaluation (`Ranker::predict` for
//! [`MoeModel`]) runs it too, and it equals the dense tape forward
//! ([`MoeModel::predict_logits_dense`], the oracle) bit for bit.

pub mod config;
pub mod extraction;
pub mod features;
pub mod finetune;
pub mod gating;
pub mod losses;
pub mod models;
pub mod ranker;
pub mod serving;
pub mod trainer;

pub use config::{GateInput, MoeConfig, TowerConfig};
pub use models::{DnnModel, MmoeModel, MoeModel};
pub use ranker::{Ranker, StepStats};
pub use trainer::{EvalReport, TrainConfig, Trainer};
