//! The Wengert-list tape: node storage, ops and the backward sweep.

use std::borrow::Borrow;
use std::cell::{Cell, Ref, RefCell};

use amoe_tensor::{matmul, ops, reduce, Matrix};

use crate::Var;

/// How a node was produced; operands are node ids on the same tape.
///
/// Constant operands (labels, gating masks, sampled noise) are leaf
/// nodes that no backward rule writes to, so no gradient flows into
/// them. The one variable-length operand list, the parts of a
/// [`Op::ConcatCols`], lives in the node's index list, so an `Op` owns
/// no heap memory.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// A leaf (input, parameter or constant). Gradients accumulate here.
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
    /// probability 0 and propagate no gradient.
    MaskedSoftmaxRows {
        /// Node holding the logits.
        input: usize,
        /// Constant node holding the 0/1 mask (zero entries are excluded
        /// from the support).
        mask: usize,
    },
    /// Row sums `[m,n] -> [m,1]`.
    RowSum(usize),
    /// Column sums `[m,n] -> [1,n]`.
    ColSum(usize),
    /// Sum of all entries `-> [1,1]`.
    SumAll(usize),
    /// Mean of all entries `-> [1,1]`.
    MeanAll(usize),
    /// Horizontal concatenation of the nodes in the node's index list
    /// (all same row count).
    ConcatCols,
    /// Element-wise product with a constant (e.g. a 0/1 mask or sampled
    /// gating noise). No gradient flows into the constant.
    MulConst {
        /// Node multiplied.
        input: usize,
        /// Constant node holding the factor.
        konst: usize,
    },
    /// Element-wise sum with a constant.
    AddConst {
        /// Node added to.
        input: usize,
        /// Constant node holding the addend.
        konst: usize,
    },
    /// Identity forward, zero backward (stop-gradient).
    Detach(usize),
    /// Fused, numerically stable binary cross-entropy with logits.
    /// Forward yields the per-element loss.
    BceWithLogits {
        /// Node holding the logits.
        logits: usize,
        /// Constant node holding the 0/1 targets.
        targets: usize,
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

/// One node slot. Its buffers outlive [`Tape::reset`], so the node
/// recorded in the same position next step reuses them.
pub(crate) struct Node {
    pub(crate) value: Matrix,
    op: Op,
    /// Concatenated node ids (`ConcatCols`); empty for every other op.
    idx: Vec<usize>,
}

/// The backward sweep's buffers, kept across sweeps and resets: one
/// gradient buffer per node slot and two delta scratch matrices.
struct Sweep {
    grads: Vec<Matrix>,
    /// Whether `grads[i]` holds this sweep's gradient of node `i`.
    live: Vec<bool>,
    tmp: Matrix,
    tmp2: Matrix,
}

/// Gradients produced by [`Tape::backward`], indexed by node id. They
/// borrow the tape's gradient buffers, so the tape cannot run another
/// sweep (or record more nodes' gradients) until this is dropped.
///
/// Nodes that the loss does not depend on have no gradient.
pub struct Grads<'t> {
    sweep: Ref<'t, Sweep>,
}

impl Grads<'_> {
    /// Gradient of the loss w.r.t. the node behind `var`, if any.
    #[must_use]
    pub fn get(&self, var: Var<'_>) -> Option<&Matrix> {
        let id = var.id();
        (self.sweep.live.get(id) == Some(&true)).then(|| &self.sweep.grads[id])
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

/// A record of the forward computation, appended to while a step
/// builds its graph.
///
/// Parameters live outside the tape (see `amoe-nn`) and are copied in
/// as leaves each step. A tape can be recorded once and dropped, or
/// kept and [`Tape::reset`] between steps: a reset keeps every node's
/// value buffer and every gradient buffer, so a step that records the
/// same graph as the step before allocates nothing on the tape.
pub struct Tape {
    /// Every node slot used so far; the first `len` are recorded.
    nodes: RefCell<Vec<Node>>,
    len: Cell<usize>,
    sweep: RefCell<Sweep>,
    /// The seed of [`Tape::backward`].
    one: Matrix,
}

impl Default for Tape {
    fn default() -> Self {
        Tape {
            nodes: RefCell::new(Vec::new()),
            len: Cell::new(0),
            sweep: RefCell::new(Sweep {
                grads: Vec::new(),
                live: Vec::new(),
                tmp: Matrix::scalar(0.0),
                tmp2: Matrix::scalar(0.0),
            }),
            one: Matrix::scalar(1.0),
        }
    }
}

impl Tape {
    /// Creates an empty tape.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets every recorded node while keeping their buffers (and the
    /// gradient buffers) for the nodes recorded next. Taking `&mut self`
    /// proves no [`Var`] or [`Grads`] of the old recording is alive.
    pub fn reset(&mut self) {
        *self.len.get_mut() = 0;
    }

    /// Number of recorded nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len.get()
    }

    /// True when no nodes are recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts a leaf holding `value` and returns its handle. Leaves are
    /// the only nodes whose gradients callers typically read back.
    pub fn leaf(&self, value: Matrix) -> Var<'_> {
        let mut value = Some(value);
        self.push_with(Op::Leaf, [], |_, _, out| {
            *out = value.take().expect("leaf value is moved in once");
        })
    }

    /// Inserts a leaf holding a copy of `value`, written into the node
    /// slot's reused buffer.
    pub fn leaf_from(&self, value: &Matrix) -> Var<'_> {
        self.push_with(Op::Leaf, [], |_, _, out| out.clone_from(value))
    }

    /// Records node `op` with index list `idx`: `compute` writes its
    /// value into the slot's reused buffer, reading the values of the
    /// nodes recorded before it.
    pub(crate) fn push_with(
        &self,
        op: Op,
        idx: impl IntoIterator<Item = usize>,
        compute: impl FnOnce(&[Node], &[usize], &mut Matrix),
    ) -> Var<'_> {
        let mut nodes = self.nodes.borrow_mut();
        let id = self.len.get();
        if id == nodes.len() {
            nodes.push(Node {
                value: Matrix::scalar(0.0),
                op: Op::Leaf,
                idx: Vec::new(),
            });
        }
        let (recorded, slots) = nodes.split_at_mut(id);
        let node = &mut slots[0];
        node.idx.clear();
        node.idx.extend(idx);
        compute(recorded, &node.idx, &mut node.value);
        node.op = op;
        self.len.set(id + 1);
        Var::new(self, id)
    }

    /// Clone of the forward value of a node.
    #[must_use]
    pub fn value(&self, id: usize) -> Matrix {
        self.value_ref(id).clone()
    }

    /// Borrow of the forward value of a node. Recording on this tape
    /// while the borrow is alive panics.
    #[must_use]
    pub fn value_ref(&self, id: usize) -> Ref<'_, Matrix> {
        assert!(id < self.len(), "Tape: node {id} is not recorded");
        Ref::map(self.nodes.borrow(), |nodes| &nodes[id].value)
    }

    /// Shape of the forward value of a node without cloning it.
    #[must_use]
    pub fn shape(&self, id: usize) -> (usize, usize) {
        self.value_ref(id).shape()
    }

    /// Runs the backward sweep from `loss`, which must be a `1x1` scalar,
    /// seeding `∂loss/∂loss = 1`.
    ///
    /// # Panics
    /// Panics if `loss` is not `1x1`.
    #[must_use]
    pub fn backward(&self, loss: Var<'_>) -> Grads<'_> {
        self.backward_multi([(loss, &self.one)])
    }

    /// Backward sweep seeded at several nodes at once — the
    /// vector-Jacobian product `Σ_i seedᵢ · J(outputᵢ)`.
    ///
    /// A seed can be any cotangent, not just a loss's `1`: this is how
    /// a hand-written backward (such as `amoe_nn::Mlp::backward`) is
    /// checked against the tape from the same output cotangent. Seeds
    /// for the same node accumulate.
    ///
    /// # Panics
    /// Panics if `seeds` is empty or any seed's shape does not match
    /// its node's value shape.
    #[must_use]
    pub fn backward_multi<'v, M: Borrow<Matrix>>(
        &self,
        seeds: impl IntoIterator<Item = (Var<'v>, M)>,
    ) -> Grads<'_> {
        let nodes = self.nodes.borrow();
        let nodes = &nodes[..self.len.get()];
        {
            let mut sweep = self.sweep.borrow_mut();
            let Sweep {
                grads,
                live,
                tmp,
                tmp2,
            } = &mut *sweep;
            live.clear();
            live.resize(nodes.len(), false);
            while grads.len() < nodes.len() {
                grads.push(Matrix::scalar(0.0));
            }
            let mut start = None;
            for (output, seed) in seeds {
                let (id, seed) = (output.id(), seed.borrow());
                assert_eq!(
                    nodes[id].value.shape(),
                    seed.shape(),
                    "backward: seed shape {:?} does not match output shape {:?}",
                    seed.shape(),
                    nodes[id].value.shape()
                );
                start = start.max(Some(id));
                Slots { grads, live, tmp }.accumulate(id, |out| out.clone_from(seed));
            }
            let start = start.expect("backward_multi: no seeds");
            for id in (0..=start).rev() {
                if !live[id] {
                    continue;
                }
                let (parents, rest) = grads.split_at_mut(id);
                let mut slots = Slots {
                    grads: parents,
                    live: &mut live[..id],
                    tmp,
                };
                Self::push_to_parents(nodes, &mut slots, tmp2, &nodes[id], &rest[0]);
            }
        }
        Grads {
            sweep: self.sweep.borrow(),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn push_to_parents(
        nodes: &[Node],
        s: &mut Slots<'_>,
        tmp2: &mut Matrix,
        node: &Node,
        g: &Matrix,
    ) {
        let val = |id: usize| &nodes[id].value;
        match node.op {
            Op::Leaf | Op::Detach(_) => {}
            Op::Add(a, b) => {
                s.accumulate(a, |out| out.clone_from(g));
                s.accumulate(b, |out| out.clone_from(g));
            }
            Op::Sub(a, b) => {
                s.accumulate(a, |out| out.clone_from(g));
                s.accumulate(b, |out| scaled(out, g, -1.0));
            }
            Op::Mul(a, b) => {
                s.accumulate(a, |out| times(out, g, val(b)));
                s.accumulate(b, |out| times(out, g, val(a)));
            }
            Op::Div(a, b) => {
                let bv = val(b);
                s.accumulate(a, |out| {
                    out.clone_from(g);
                    ops::div_assign(out, bv);
                });
                // d/db (a/b) = -a / b^2
                s.accumulate(b, |out| {
                    times(out, g, val(a));
                    ops::div_assign(out, bv);
                    ops::div_assign(out, bv);
                    ops::scale_assign(out, -1.0);
                });
            }
            Op::Neg(a) => s.accumulate(a, |out| scaled(out, g, -1.0)),
            Op::Scale(a, c) => s.accumulate(a, |out| scaled(out, g, c)),
            Op::AddScalar(a, _) => s.accumulate(a, |out| out.clone_from(g)),
            Op::MatMul(a, b) => {
                s.accumulate(a, |out| matmul::matmul_nt_into(g, val(b), out));
                s.accumulate(b, |out| matmul::matmul_tn_into(val(a), g, out));
            }
            Op::AddRowBroadcast(a, row) => {
                s.accumulate(a, |out| out.clone_from(g));
                s.accumulate(row, |out| reduce::col_sum_into(g, out));
            }
            Op::MulColBroadcast(a, col) => {
                s.accumulate(a, |out| {
                    out.clone_from(g);
                    ops::mul_col_assign(out, val(col));
                });
                times(tmp2, g, val(a));
                s.accumulate(col, |out| reduce::row_sum_into(tmp2, out));
            }
            Op::Relu(a) => s.accumulate(a, |out| {
                out.clone_from(g);
                ops::zip_map_assign(out, val(a), |d, v| d * if v > 0.0 { 1.0 } else { 0.0 });
            }),
            Op::Sigmoid(a) => s.accumulate(a, |out| {
                // value = σ(x); dσ = σ(1-σ)
                out.clone_from(g);
                ops::zip_map_assign(out, &node.value, |d, s| d * (s * (1.0 - s)));
            }),
            Op::Tanh(a) => s.accumulate(a, |out| {
                out.clone_from(g);
                ops::zip_map_assign(out, &node.value, |d, t| d * (1.0 - t * t));
            }),
            Op::Exp(a) => s.accumulate(a, |out| times(out, g, &node.value)),
            Op::Ln(a) => s.accumulate(a, |out| {
                out.clone_from(g);
                ops::div_assign(out, val(a));
            }),
            Op::Softplus(a) => s.accumulate(a, |out| {
                out.clone_from(g);
                ops::zip_map_assign(out, val(a), |d, x| d * ops::sigmoid_scalar(x));
            }),
            Op::SoftmaxRows(a) | Op::MaskedSoftmaxRows { input: a, .. } => {
                // dx_i = s_i * (g_i - Σ_j g_j s_j); masked entries have
                // s_i = 0 so they receive no gradient automatically.
                let sm = &node.value;
                s.accumulate(a, |dx| {
                    dx.resize_zeroed(sm.rows(), sm.cols());
                    for r in 0..sm.rows() {
                        let srow = sm.row(r);
                        let grow = g.row(r);
                        let dot: f32 = srow.iter().zip(grow).map(|(si, gi)| si * gi).sum();
                        for ((d, &si), &gi) in dx.row_mut(r).iter_mut().zip(srow).zip(grow) {
                            *d = si * (gi - dot);
                        }
                    }
                });
            }
            Op::RowSum(a) => s.accumulate(a, |dx| {
                let (rows, cols) = val(a).shape();
                dx.resize_zeroed(rows, cols);
                for r in 0..rows {
                    let gv = g[(r, 0)];
                    dx.row_mut(r).iter_mut().for_each(|v| *v = gv);
                }
            }),
            Op::ColSum(a) => s.accumulate(a, |dx| {
                let (rows, cols) = val(a).shape();
                dx.resize_zeroed(rows, cols);
                for r in 0..rows {
                    dx.row_mut(r).copy_from_slice(g.row(0));
                }
            }),
            Op::SumAll(a) => s.accumulate(a, |dx| {
                let (rows, cols) = val(a).shape();
                dx.resize_zeroed(rows, cols);
                dx.fill(g[(0, 0)]);
            }),
            Op::MeanAll(a) => s.accumulate(a, |dx| {
                let (rows, cols) = val(a).shape();
                dx.resize_zeroed(rows, cols);
                dx.fill(g[(0, 0)] / (rows * cols) as f32);
            }),
            Op::ConcatCols => {
                let mut off = 0;
                for &p in &node.idx {
                    let w = val(p).cols();
                    s.accumulate(p, |out| g.slice_cols_into(off, off + w, out));
                    off += w;
                }
            }
            Op::MulConst { input, konst } => s.accumulate(input, |out| times(out, g, val(konst))),
            Op::AddConst { input, .. } => s.accumulate(input, |out| out.clone_from(g)),
            Op::BceWithLogits { logits, targets } => s.accumulate(logits, |out| {
                // d/dx [max(x,0) - x y + ln(1+e^{-|x|})] = σ(x) - y
                out.clone_from(g);
                let (x, y) = (val(logits).as_slice(), val(targets).as_slice());
                for ((d, &x), &y) in out.as_mut_slice().iter_mut().zip(x).zip(y) {
                    *d *= ops::sigmoid_scalar(x) - y;
                }
            }),
            Op::SliceCols { input, start, end } => s.accumulate(input, |dx| {
                let (rows, cols) = val(input).shape();
                dx.resize_zeroed(rows, cols);
                for r in 0..rows {
                    dx.row_mut(r)[start..end].copy_from_slice(g.row(r));
                }
            }),
        }
    }
}

/// `out = g * c` element-wise.
fn scaled(out: &mut Matrix, g: &Matrix, c: f32) {
    out.clone_from(g);
    ops::scale_assign(out, c);
}

/// `out = g ⊙ x` element-wise.
fn times(out: &mut Matrix, g: &Matrix, x: &Matrix) {
    out.clone_from(g);
    ops::mul_assign(out, x);
}

/// The gradient slots of the nodes below the one being swept.
struct Slots<'a> {
    grads: &'a mut [Matrix],
    live: &'a mut [bool],
    tmp: &'a mut Matrix,
}

impl Slots<'_> {
    /// Adds the delta that `write` produces to node `id`'s gradient; the
    /// node's first delta is written straight into its buffer, as if
    /// moved there, and later ones through the scratch matrix.
    fn accumulate(&mut self, id: usize, write: impl FnOnce(&mut Matrix)) {
        if self.live[id] {
            write(self.tmp);
            ops::add_assign(&mut self.grads[id], self.tmp);
        } else {
            write(&mut self.grads[id]);
            self.live[id] = true;
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
    fn reset_tape_matches_a_fresh_tape_bit_for_bit() {
        // One graph recorded at shrinking and growing row counts on one
        // reused tape: every reused value and gradient buffer must be
        // rewritten in full, so the reused tape equals a fresh one.
        use amoe_tensor::Rng;
        fn bits(m: &Matrix) -> Vec<u32> {
            m.as_slice().iter().map(|v| v.to_bits()).collect()
        }
        fn record(tape: &Tape, inputs: &[Matrix; 5]) -> (f32, Vec<Vec<u32>>) {
            let [x, w, b, wide, targets] = inputs;
            let leaves = [tape.leaf_from(x), tape.leaf_from(w), tape.leaf_from(b)];
            let wide = tape.leaf_from(wide);
            let [x, w, b] = leaves;
            let mask = Matrix::from_vec(x.shape().0, 1, vec![1.0; x.shape().0]);
            let y = x
                .matmul(w)
                .add_row(b)
                .relu()
                .softmax_rows()
                .mul_col(tape.leaf_from(&mask));
            let z = wide.slice_cols(1, 5) * y;
            let loss = Var::concat_cols(&[y, z])
                .bce_with_logits(targets)
                .mean_all();
            let grads = tape.backward(loss);
            let g = [x, w, b, wide].map(|v| bits(grads.get(v).expect("gradient")));
            (loss.value()[(0, 0)], g.to_vec())
        }
        let mut rng = Rng::seed_from(12);
        let mut reused = Tape::new();
        for rows in [5, 2, 7, 3] {
            let inputs = [
                rng.normal_matrix(rows, 3, 0.0, 1.0),
                rng.normal_matrix(3, 4, 0.0, 1.0),
                rng.normal_matrix(1, 4, 0.0, 1.0),
                rng.normal_matrix(rows, 6, 0.0, 1.0),
                rng.uniform_matrix(rows, 8, 0.0, 1.0),
            ];
            reused.reset();
            let (loss, grads) = record(&reused, &inputs);
            let (want_loss, want_grads) = record(&Tape::new(), &inputs);
            assert_eq!(loss.to_bits(), want_loss.to_bits(), "loss at {rows} rows");
            assert_eq!(grads, want_grads, "gradients at {rows} rows");
        }
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
