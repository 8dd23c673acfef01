#![warn(missing_docs)]

//! Neural-network building blocks: parameters, layers, optimisers.
//!
//! Parameters live in a [`ParamSet`] *outside* any tape, in one flat,
//! serialisable store. A gradient buffer exists only once a training
//! step first uses it ([`ParamSet::zero_grads`] starts every step), so
//! a set that is only loaded, served or evaluated holds its values and
//! nothing else, and an [`optim::Optimizer`] step with no gradient
//! pass before it panics. Layers register each tensor with its
//! initialiser as a closure ([`ParamSet::add_with`]); inside
//! [`ParamSet::fill_from`] a checkpoint's tensor is moved in instead
//! and the initialiser never runs. No layer has a tape forward. An [`Mlp`] trains
//! on the forward that serves it: [`Mlp::forward_into`] runs the one
//! layer loop ([`tower_forward`]) into reused buffers and keeps each
//! layer's input, and [`Mlp::backward_into`] writes into reused
//! [`MlpGrads`] bit for bit the gradients a tape of the same layers
//! would. [`Mlp::forward_train`] and [`Mlp::backward`] are the same
//! passes on fresh buffers. An [`Embedding`]'s user gathers rows from
//! [`Embedding::checked_table`] and scatter-adds their gradients. A
//! tape ([`amoe_autograd::Tape`]) holds only a model's gates and loss:
//! [`ParamSet::bind_subset`] puts just the parameters it reads on it as
//! leaves, and [`ParamSet::collect_grads`] adds their gradients back
//! into the set. An [`optim::Optimizer`] then updates the values.
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
