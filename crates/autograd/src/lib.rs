#![warn(missing_docs)]

//! Reverse-mode automatic differentiation over [`amoe_tensor::Matrix`].
//!
//! The paper's training objective (Eq. 14) needs non-standard gradient
//! routing that general frameworks make awkward and from-scratch manual
//! backprop makes error-prone:
//!
//! * the Hierarchical Soft Constraint must reach both gate networks but
//!   **not** the expert towers (Eq. 15–16) — handled naturally because HSC
//!   is a function of gate outputs only, plus [`Var::detach`] for explicit
//!   stop-gradients;
//! * the adversarial loss enters the objective with a **negative** sign and
//!   flows into two disjoint, per-example-random subsets of experts —
//!   handled by constant 0/1 masks (non-differentiable by construction);
//! * noisy top-K gating (Eq. 6) requires a masked softmax whose masked
//!   coordinates receive exactly zero probability and zero gradient.
//!
//! The design is a classic Wengert list: a [`Tape`] owns an append-only
//! vector of nodes, each holding its forward value and an [`Op`] describing
//! how to push gradients to its parents. [`Var`] is a `Copy` handle
//! (tape reference + node id) with operator overloading, so model code
//! reads like the maths in the paper. Ops read their operands in place
//! and write into the new node's buffer; [`Tape::reset`] forgets the
//! nodes but keeps their buffers (and the backward sweep's), so a
//! training loop that records the same graph every step stops
//! allocating on the tape after the first.
//!
//! Every op's backward pass is verified against central finite differences
//! in this crate's tests (see [`gradcheck`]), and the full combined MoE
//! loss is gradient-checked again in `amoe-core`.
//!
//! # Example
//!
//! ```
//! use amoe_autograd::Tape;
//! use amoe_tensor::Matrix;
//!
//! let tape = Tape::new();
//! let x = tape.leaf(Matrix::from_rows(&[&[1.0, 2.0]]));
//! let w = tape.leaf(Matrix::from_rows(&[&[0.5], &[-0.25]]));
//! let y = x.matmul(w).sigmoid().sum_all();
//! let grads = tape.backward(y);
//! assert!(grads.get(w).is_some());
//! ```

pub mod gradcheck;
mod tape;
mod var;

pub use tape::{Grads, Op, Tape};
pub use var::Var;
