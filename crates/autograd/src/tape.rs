//! The Wengert-list tape: node storage, ops and the backward sweep.

use std::cell::RefCell;

use amoe_tensor::{matmul, ops, reduce, Matrix};

use crate::Var;

/// How a node was produced; parents are node ids on the same tape.
///
/// Constant payloads (`Matrix` values stored inside variants) are *not*
/// differentiated through — they are per-batch data such as labels,
/// gating masks or sampled noise.
#[derive(Clone, Debug)]
pub enum Op {
    /// A leaf (input or parameter). Gradients accumulate here.
    Leaf,
    /// `a + b`, same shapes.
    Add(usize, usize),
    /// `a - b`, same shapes.
    Sub(usize, usize),
    /// Element-wise `a * b`, same shapes.
    Mul(usize, usize),
    /// Element-wise `a / b`, same shapes.
    Div(usize, usize),
    /// `-a`.
    Neg(usize),
    /// `a * c` for scalar constant `c`.
    Scale(usize, f32),
    /// `a + c` for scalar constant `c`.
    AddScalar(usize, f32),
    /// Matrix product `a · b`.
    MatMul(usize, usize),
    /// `[m,n] + [1,n]` row broadcast (bias add).
    AddRowBroadcast(usize, usize),
    /// `[m,n] * [m,1]` column broadcast (per-row scaling).
    MulColBroadcast(usize, usize),
    /// Element-wise max(x, 0).
    Relu(usize),
    /// Element-wise logistic sigmoid.
    Sigmoid(usize),
    /// Element-wise tanh.
    Tanh(usize),
    /// Element-wise exp.
    Exp(usize),
    /// Element-wise natural log.
    Ln(usize),
    /// Element-wise softplus `ln(1+e^x)`.
    Softplus(usize),
    /// Row-wise softmax (full support).
    SoftmaxRows(usize),
    /// Row-wise softmax over entries where `mask != 0`; masked entries get
    /// probability 0 and propagate no gradient. The mask is a constant.
    MaskedSoftmaxRows {
        /// Parent node holding the logits.
        input: usize,
        /// Constant 0/1 mask (zero entries are excluded from the support).
        mask: Matrix,
    },
    /// Row sums `[m,n] -> [m,1]`.
    RowSum(usize),
    /// Column sums `[m,n] -> [1,n]`.
    ColSum(usize),
    /// Sum of all entries `-> [1,1]`.
    SumAll(usize),
    /// Mean of all entries `-> [1,1]`.
    MeanAll(usize),
    /// Row gather from an embedding table: `out[i] = table[indices[i]]`.
    /// Backward scatter-adds into the table gradient.
    EmbedLookup {
        /// Parent node holding the embedding table.
        table: usize,
        /// Row index per output row (repeats allowed).
        indices: Vec<usize>,
    },
    /// Horizontal concatenation of parents (all same row count).
    ConcatCols(Vec<usize>),
    /// Element-wise product with a constant matrix (e.g. a 0/1 mask or
    /// sampled gating noise). No gradient flows into the constant.
    MulConst {
        /// Parent node.
        input: usize,
        /// The constant factor.
        konst: Matrix,
    },
    /// Element-wise sum with a constant matrix.
    AddConst {
        /// Parent node.
        input: usize,
        /// The constant addend.
        konst: Matrix,
    },
    /// Identity forward, zero backward (stop-gradient).
    Detach(usize),
    /// Fused, numerically stable binary cross-entropy with logits.
    /// Forward yields the per-element loss; `targets` is a constant.
    BceWithLogits {
        /// Parent node holding the logits.
        logits: usize,
        /// Constant 0/1 targets.
        targets: Matrix,
    },
    /// Columns `[start, end)` of the parent.
    SliceCols {
        /// Parent node.
        input: usize,
        /// First column (inclusive).
        start: usize,
        /// Last column (exclusive).
        end: usize,
    },
}

struct Node {
    value: Matrix,
    op: Op,
}

/// Gradients produced by [`Tape::backward`], indexed by node id.
///
/// Nodes that the loss does not depend on have `None` gradients.
pub struct Grads {
    grads: Vec<Option<Matrix>>,
}

impl Grads {
    /// Gradient of the loss w.r.t. the node behind `var`, if any.
    #[must_use]
    pub fn get(&self, var: Var<'_>) -> Option<&Matrix> {
        self.grads.get(var.id()).and_then(|g| g.as_ref())
    }

    /// Like [`Grads::get`] but returns a zero matrix of the given shape
    /// when the node received no gradient.
    #[must_use]
    pub fn get_or_zeros(&self, var: Var<'_>, rows: usize, cols: usize) -> Matrix {
        self.get(var)
            .cloned()
            .unwrap_or_else(|| Matrix::zeros(rows, cols))
    }
}

/// An append-only record of the forward computation.
///
/// A tape is built per training step, consumed by [`Tape::backward`], and
/// dropped; parameters live outside the tape (see `amoe-nn`) and are
/// re-inserted as leaves each step.
#[derive(Default)]
pub struct Tape {
    nodes: RefCell<Vec<Node>>,
}

impl Tape {
    /// Creates an empty tape.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// True when no nodes are recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.borrow().is_empty()
    }

    /// Inserts a leaf holding `value` and returns its handle. Leaves are
    /// the only nodes whose gradients callers typically read back.
    pub fn leaf(&self, value: Matrix) -> Var<'_> {
        self.push(value, Op::Leaf)
    }

    pub(crate) fn push(&self, value: Matrix, op: Op) -> Var<'_> {
        let mut nodes = self.nodes.borrow_mut();
        let id = nodes.len();
        nodes.push(Node { value, op });
        Var::new(self, id)
    }

    /// Clone of the forward value of a node.
    #[must_use]
    pub fn value(&self, id: usize) -> Matrix {
        self.nodes.borrow()[id].value.clone()
    }

    /// Shape of the forward value of a node without cloning it.
    #[must_use]
    pub fn shape(&self, id: usize) -> (usize, usize) {
        self.nodes.borrow()[id].value.shape()
    }

    /// Runs the backward sweep from `loss`, which must be a `1x1` scalar,
    /// seeding `∂loss/∂loss = 1`.
    ///
    /// # Panics
    /// Panics if `loss` is not `1x1`.
    #[must_use]
    pub fn backward(&self, loss: Var<'_>) -> Grads {
        self.backward_multi(vec![(loss, Matrix::scalar(1.0))])
    }

    /// Backward sweep seeded at several nodes at once — the
    /// vector-Jacobian product `Σ_i seedᵢ · J(outputᵢ)`.
    ///
    /// This is how the split-graph training path back-propagates
    /// through its encoder tape: the expert towers' backward and the
    /// gate/loss tape each hand back a cotangent for an encoder output
    /// they consumed, and one sweep pushes all of them through the
    /// shared nodes. Seeds for the same node accumulate.
    ///
    /// # Panics
    /// Panics if `seeds` is empty or any seed's shape does not match
    /// its node's value shape.
    #[must_use]
    pub fn backward_multi(&self, seeds: Vec<(Var<'_>, Matrix)>) -> Grads {
        assert!(!seeds.is_empty(), "backward_multi: no seeds");
        let nodes = self.nodes.borrow();
        let mut grads: Vec<Option<Matrix>> = vec![None; nodes.len()];
        let mut start = 0;
        for (output, seed) in seeds {
            assert_eq!(
                nodes[output.id()].value.shape(),
                seed.shape(),
                "backward: seed shape {:?} does not match output shape {:?}",
                seed.shape(),
                nodes[output.id()].value.shape()
            );
            start = start.max(output.id());
            Self::accumulate(&mut grads[output.id()], seed);
        }

        for id in (0..=start).rev() {
            let Some(g) = grads[id].take() else {
                continue;
            };
            // Re-store: callers may want to read interior grads too.
            let node = &nodes[id];
            Self::push_to_parents(&nodes, &mut grads, node, &g);
            grads[id] = Some(g);
        }
        Grads { grads }
    }

    fn accumulate(slot: &mut Option<Matrix>, delta: Matrix) {
        match slot {
            Some(g) => ops::add_assign(g, &delta),
            None => *slot = Some(delta),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn push_to_parents(nodes: &[Node], grads: &mut [Option<Matrix>], node: &Node, g: &Matrix) {
        match &node.op {
            Op::Leaf => {}
            Op::Add(a, b) => {
                Self::accumulate(&mut grads[*a], g.clone());
                Self::accumulate(&mut grads[*b], g.clone());
            }
            Op::Sub(a, b) => {
                Self::accumulate(&mut grads[*a], g.clone());
                Self::accumulate(&mut grads[*b], ops::scale(g, -1.0));
            }
            Op::Mul(a, b) => {
                Self::accumulate(&mut grads[*a], ops::mul(g, &nodes[*b].value));
                Self::accumulate(&mut grads[*b], ops::mul(g, &nodes[*a].value));
            }
            Op::Div(a, b) => {
                let bv = &nodes[*b].value;
                Self::accumulate(&mut grads[*a], ops::div(g, bv));
                // d/db (a/b) = -a / b^2
                let mut db = ops::mul(g, &nodes[*a].value);
                db = ops::div(&db, bv);
                db = ops::div(&db, bv);
                Self::accumulate(&mut grads[*b], ops::scale(&db, -1.0));
            }
            Op::Neg(a) => Self::accumulate(&mut grads[*a], ops::scale(g, -1.0)),
            Op::Scale(a, c) => Self::accumulate(&mut grads[*a], ops::scale(g, *c)),
            Op::AddScalar(a, _) => Self::accumulate(&mut grads[*a], g.clone()),
            Op::MatMul(a, b) => {
                Self::accumulate(&mut grads[*a], matmul::matmul_nt(g, &nodes[*b].value));
                Self::accumulate(&mut grads[*b], matmul::matmul_tn(&nodes[*a].value, g));
            }
            Op::AddRowBroadcast(a, row) => {
                Self::accumulate(&mut grads[*a], g.clone());
                Self::accumulate(&mut grads[*row], reduce::col_sum(g));
            }
            Op::MulColBroadcast(a, col) => {
                let colv = &nodes[*col].value;
                Self::accumulate(&mut grads[*a], ops::mul_col_broadcast(g, colv));
                let prod = ops::mul(g, &nodes[*a].value);
                Self::accumulate(&mut grads[*col], reduce::row_sum(&prod));
            }
            Op::Relu(a) => {
                let mask = ops::map(&nodes[*a].value, |v| if v > 0.0 { 1.0 } else { 0.0 });
                Self::accumulate(&mut grads[*a], ops::mul(g, &mask));
            }
            Op::Sigmoid(a) => {
                // value = σ(x); dσ = σ(1-σ)
                let d = ops::map(&node.value, |s| s * (1.0 - s));
                Self::accumulate(&mut grads[*a], ops::mul(g, &d));
            }
            Op::Tanh(a) => {
                let d = ops::map(&node.value, |t| 1.0 - t * t);
                Self::accumulate(&mut grads[*a], ops::mul(g, &d));
            }
            Op::Exp(a) => {
                Self::accumulate(&mut grads[*a], ops::mul(g, &node.value));
            }
            Op::Ln(a) => {
                Self::accumulate(&mut grads[*a], ops::div(g, &nodes[*a].value));
            }
            Op::Softplus(a) => {
                let d = ops::sigmoid(&nodes[*a].value);
                Self::accumulate(&mut grads[*a], ops::mul(g, &d));
            }
            Op::SoftmaxRows(a) | Op::MaskedSoftmaxRows { input: a, .. } => {
                // dx_i = s_i * (g_i - Σ_j g_j s_j); masked entries have
                // s_i = 0 so they receive no gradient automatically.
                let s = &node.value;
                let mut dx = Matrix::zeros(s.rows(), s.cols());
                for r in 0..s.rows() {
                    let srow = s.row(r);
                    let grow = g.row(r);
                    let dot: f32 = srow.iter().zip(grow).map(|(si, gi)| si * gi).sum();
                    for ((d, &si), &gi) in dx.row_mut(r).iter_mut().zip(srow).zip(grow) {
                        *d = si * (gi - dot);
                    }
                }
                Self::accumulate(&mut grads[*a], dx);
            }
            Op::RowSum(a) => {
                let (rows, cols) = nodes[*a].value.shape();
                let mut dx = Matrix::zeros(rows, cols);
                for r in 0..rows {
                    let gv = g[(r, 0)];
                    dx.row_mut(r).iter_mut().for_each(|v| *v = gv);
                }
                Self::accumulate(&mut grads[*a], dx);
            }
            Op::ColSum(a) => {
                let (rows, cols) = nodes[*a].value.shape();
                let mut dx = Matrix::zeros(rows, cols);
                for r in 0..rows {
                    dx.row_mut(r).copy_from_slice(g.row(0));
                }
                Self::accumulate(&mut grads[*a], dx);
            }
            Op::SumAll(a) => {
                let (rows, cols) = nodes[*a].value.shape();
                Self::accumulate(&mut grads[*a], Matrix::filled(rows, cols, g[(0, 0)]));
            }
            Op::MeanAll(a) => {
                let (rows, cols) = nodes[*a].value.shape();
                let v = g[(0, 0)] / (rows * cols) as f32;
                Self::accumulate(&mut grads[*a], Matrix::filled(rows, cols, v));
            }
            Op::EmbedLookup { table, indices } => {
                let (rows, cols) = nodes[*table].value.shape();
                let mut dt = Matrix::zeros(rows, cols);
                for (out_row, &idx) in indices.iter().enumerate() {
                    let src = g.row(out_row);
                    let dst = dt.row_mut(idx);
                    for (d, &s) in dst.iter_mut().zip(src) {
                        *d += s;
                    }
                }
                Self::accumulate(&mut grads[*table], dt);
            }
            Op::ConcatCols(parts) => {
                let mut off = 0;
                for &p in parts {
                    let w = nodes[p].value.cols();
                    Self::accumulate(&mut grads[p], g.slice_cols(off, off + w));
                    off += w;
                }
            }
            Op::MulConst { input, konst } => {
                Self::accumulate(&mut grads[*input], ops::mul(g, konst));
            }
            Op::AddConst { input, .. } => {
                Self::accumulate(&mut grads[*input], g.clone());
            }
            Op::Detach(_) => {}
            Op::BceWithLogits { logits, targets } => {
                // d/dx [max(x,0) - x y + ln(1+e^{-|x|})] = σ(x) - y
                let d = ops::zip_map(&nodes[*logits].value, targets, |x, y| {
                    ops::sigmoid_scalar(x) - y
                });
                Self::accumulate(&mut grads[*logits], ops::mul(g, &d));
            }
            Op::SliceCols { input, start, end } => {
                let (rows, cols) = nodes[*input].value.shape();
                let mut dx = Matrix::zeros(rows, cols);
                for r in 0..rows {
                    dx.row_mut(r)[*start..*end].copy_from_slice(g.row(r));
                }
                Self::accumulate(&mut grads[*input], dx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_and_value_roundtrip() {
        let tape = Tape::new();
        let m = Matrix::from_rows(&[&[1.0, 2.0]]);
        let v = tape.leaf(m.clone());
        assert_eq!(v.value(), m);
        assert_eq!(tape.len(), 1);
    }

    #[test]
    fn backward_of_identity_sum() {
        let tape = Tape::new();
        let x = tape.leaf(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let s = x.sum_all();
        assert_eq!(s.value()[(0, 0)], 10.0);
        let grads = tape.backward(s);
        assert_eq!(grads.get(x).unwrap(), &Matrix::ones(2, 2));
    }

    #[test]
    fn grad_accumulates_over_fanout() {
        // loss = sum(x) + sum(x) => dx = 2
        let tape = Tape::new();
        let x = tape.leaf(Matrix::ones(1, 3));
        let loss = x.sum_all() + x.sum_all();
        let grads = tape.backward(loss);
        assert_eq!(grads.get(x).unwrap(), &Matrix::filled(1, 3, 2.0));
    }

    #[test]
    fn detach_blocks_gradient() {
        let tape = Tape::new();
        let x = tape.leaf(Matrix::ones(1, 2));
        let loss = x.detach().sum_all();
        let grads = tape.backward(loss);
        assert!(grads.get(x).is_none());
    }

    #[test]
    #[should_panic(expected = "seed shape")]
    fn backward_requires_scalar_loss() {
        let tape = Tape::new();
        let x = tape.leaf(Matrix::ones(2, 2));
        let _ = tape.backward(x);
    }

    #[test]
    fn backward_multi_matches_sum_of_sweeps() {
        // loss1 = sum(x*x), loss2 = sum(x) seeded at distinct nodes
        // must equal backward(loss1 + loss2).
        fn build(tape: &Tape) -> (Var<'_>, Var<'_>, Var<'_>) {
            let x = tape.leaf(Matrix::from_rows(&[&[1.0, -2.0, 3.0]]));
            (x, (x * x).sum_all(), x.sum_all())
        }
        let t1 = Tape::new();
        let (x1, a1, b1) = build(&t1);
        let combined = t1.backward(a1 + b1);

        let t2 = Tape::new();
        let (x2, a2, b2) = build(&t2);
        let multi = t2.backward_multi(vec![(a2, Matrix::scalar(1.0)), (b2, Matrix::scalar(1.0))]);
        assert_eq!(combined.get(x1).unwrap(), multi.get(x2).unwrap());
    }

    #[test]
    fn backward_multi_accumulates_repeated_node() {
        // Seeding the same node twice must behave like one summed seed.
        let tape = Tape::new();
        let x = tape.leaf(Matrix::ones(1, 2));
        let s = x.sum_all();
        let g = tape.backward_multi(vec![(s, Matrix::scalar(1.0)), (s, Matrix::scalar(2.0))]);
        assert_eq!(g.get(x).unwrap(), &Matrix::filled(1, 2, 3.0));
    }

    #[test]
    fn unused_nodes_have_no_grad() {
        let tape = Tape::new();
        let x = tape.leaf(Matrix::ones(1, 2));
        let y = tape.leaf(Matrix::ones(1, 2));
        let loss = x.sum_all();
        let grads = tape.backward(loss);
        assert!(grads.get(x).is_some());
        assert!(grads.get(y).is_none());
    }
}
