#![warn(missing_docs)]

//! Neural-network building blocks over the autograd tape.
//!
//! Parameters live in a [`ParamSet`] *outside* any tape; each training
//! step binds them onto a fresh [`amoe_autograd::Tape`] as leaves
//! ([`ParamSet::bind`]), builds the loss, runs backward, collects the
//! leaf gradients back into the set ([`ParamSet::collect_grads`]) and
//! lets an [`optim::Optimizer`] update the values. This keeps tapes
//! short-lived and parameters in one flat, serialisable store.
//! An [`Mlp`] can also train without a tape: [`Mlp::forward_into`]
//! runs the serving forward ([`tower_forward`], the one layer loop)
//! into reused buffers and keeps each layer's input, and
//! [`Mlp::backward_into`] writes into reused [`MlpGrads`] bit for bit
//! the gradients the tape would. [`Mlp::forward_train`] and
//! [`Mlp::backward`] are the same passes on fresh buffers. An
//! [`Embedding`] has no tape forward: its user gathers rows from
//! [`Embedding::checked_table`] and scatter-adds their gradients.
//!
//! The layer set is exactly what the paper's models need: [`Linear`],
//! [`Embedding`] and [`Mlp`] towers with ReLU hidden activations
//! (Sec. 5.1.4: towers are `512 x 256 x 1` MLPs; we keep the structure
//! and scale the widths).

mod init;
mod layers;
pub mod optim;
mod params;
pub mod schedule;
mod serialize;

pub use init::Init;
pub use layers::{tower_forward, Embedding, Linear, Mlp, MlpGrads};
pub use params::{Bound, ParamId, ParamSet};
pub use serialize::LoadError;
