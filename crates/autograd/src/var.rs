//! [`Var`]: a copyable handle to a tape node, with operator overloading.

use std::cell::Ref;
use std::ops::{Add, Div, Mul, Neg, Sub};

use amoe_tensor::{matmul, ops, reduce, topk, Matrix};

use crate::tape::{Node, Op, Tape};

/// A handle to a node on a [`Tape`].
///
/// `Var` is `Copy` (a tape reference plus an index), so expressions like
/// `(a + b) * a` work without explicit clones. All operations panic on
/// shape mismatch with a message naming the operation, mirroring the
/// kernel layer. Every operation reads its operands in place on the
/// tape and writes its result into the new node's reused buffer.
#[derive(Clone, Copy)]
pub struct Var<'t> {
    tape: &'t Tape,
    id: usize,
}

impl<'t> Var<'t> {
    pub(crate) fn new(tape: &'t Tape, id: usize) -> Self {
        Var { tape, id }
    }

    /// The node id on the tape.
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Clone of the forward value.
    #[must_use]
    pub fn value(&self) -> Matrix {
        self.tape.value(self.id)
    }

    /// Borrow of the forward value. Recording on this variable's tape
    /// while the borrow is alive panics.
    #[must_use]
    pub fn value_ref(&self) -> Ref<'t, Matrix> {
        self.tape.value_ref(self.id)
    }

    /// Shape of the forward value.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        self.tape.shape(self.id)
    }

    /// Records `op`, whose value `f` computes from this node's value.
    fn unary(self, op: Op, f: impl FnOnce(&Matrix, &mut Matrix)) -> Var<'t> {
        let a = self.id;
        self.tape
            .push_with(op, [], |nodes, _, out| f(&nodes[a].value, out))
    }

    /// Records `op`, whose value is this node's value transformed in
    /// place by `f`.
    fn copy_then(self, op: Op, f: impl FnOnce(&mut Matrix)) -> Var<'t> {
        self.unary(op, |a, out| {
            out.clone_from(a);
            f(out);
        })
    }

    /// Records `op`, whose value `f` computes from this node's and
    /// `rhs`'s values.
    fn binary(
        self,
        rhs: Var<'t>,
        op: Op,
        f: impl FnOnce(&Matrix, &Matrix, &mut Matrix),
    ) -> Var<'t> {
        let (a, b) = (self.id, rhs.id);
        self.tape.push_with(op, [], |nodes: &[Node], _, out| {
            f(&nodes[a].value, &nodes[b].value, out);
        })
    }

    /// Records `op` on a constant operand: `konst` is copied onto the
    /// tape as a leaf, and `f` computes the value from this node's value
    /// and the constant's. `op` gets the constant's node id.
    fn with_const(
        self,
        konst: &Matrix,
        op: impl FnOnce(usize) -> Op,
        f: impl FnOnce(&Matrix, &Matrix, &mut Matrix),
    ) -> Var<'t> {
        let k = self.tape.leaf_from(konst);
        self.binary(k, op(k.id), f)
    }

    /// Matrix product `self · rhs`.
    #[must_use]
    pub fn matmul(self, rhs: Var<'t>) -> Var<'t> {
        self.binary(rhs, Op::MatMul(self.id, rhs.id), matmul::matmul_into)
    }

    /// Adds a `1 x n` bias row to every row.
    #[must_use]
    pub fn add_row(self, row: Var<'t>) -> Var<'t> {
        self.binary(row, Op::AddRowBroadcast(self.id, row.id), |a, r, out| {
            out.clone_from(a);
            ops::add_row_assign(out, r);
        })
    }

    /// Scales every row by the matching entry of an `m x 1` column.
    #[must_use]
    pub fn mul_col(self, col: Var<'t>) -> Var<'t> {
        self.binary(col, Op::MulColBroadcast(self.id, col.id), |a, c, out| {
            out.clone_from(a);
            ops::mul_col_assign(out, c);
        })
    }

    /// Element-wise ReLU.
    #[must_use]
    pub fn relu(self) -> Var<'t> {
        self.copy_then(Op::Relu(self.id), |v| ops::map_assign(v, ops::relu_scalar))
    }

    /// Element-wise logistic sigmoid.
    #[must_use]
    pub fn sigmoid(self) -> Var<'t> {
        self.copy_then(Op::Sigmoid(self.id), |v| {
            ops::map_assign(v, ops::sigmoid_scalar);
        })
    }

    /// Element-wise tanh.
    #[must_use]
    pub fn tanh(self) -> Var<'t> {
        self.copy_then(Op::Tanh(self.id), |v| ops::map_assign(v, f32::tanh))
    }

    /// Element-wise exp.
    #[must_use]
    pub fn exp(self) -> Var<'t> {
        self.copy_then(Op::Exp(self.id), |v| ops::map_assign(v, f32::exp))
    }

    /// Element-wise natural logarithm.
    #[must_use]
    pub fn ln(self) -> Var<'t> {
        self.copy_then(Op::Ln(self.id), |v| ops::map_assign(v, f32::ln))
    }

    /// Element-wise softplus.
    #[must_use]
    pub fn softplus(self) -> Var<'t> {
        self.copy_then(Op::Softplus(self.id), |v| {
            ops::map_assign(v, ops::softplus_scalar);
        })
    }

    /// Element-wise square.
    #[must_use]
    pub fn square(self) -> Var<'t> {
        self * self
    }

    /// Multiplication by a scalar constant.
    #[must_use]
    pub fn scale(self, c: f32) -> Var<'t> {
        self.copy_then(Op::Scale(self.id, c), |v| ops::scale_assign(v, c))
    }

    /// Addition of a scalar constant.
    #[must_use]
    pub fn add_scalar(self, c: f32) -> Var<'t> {
        self.copy_then(Op::AddScalar(self.id, c), |v| {
            ops::map_assign(v, |x| x + c);
        })
    }

    /// Row-wise softmax over the full support.
    #[must_use]
    pub fn softmax_rows(self) -> Var<'t> {
        self.copy_then(Op::SoftmaxRows(self.id), ops::softmax_rows_assign)
    }

    /// Row-wise softmax restricted to entries where `mask != 0` (Eq. 6–7:
    /// the top-K masked softmax). Masked entries get exactly zero
    /// probability and zero gradient; the mask itself is a constant.
    ///
    /// # Panics
    /// Panics if the mask shape differs or a row of the mask is all zero.
    #[must_use]
    pub fn masked_softmax_rows(self, mask: &Matrix) -> Var<'t> {
        let shape = self.shape();
        assert_eq!(
            shape,
            mask.shape(),
            "masked_softmax_rows: mask shape {:?} vs input {:?}",
            mask.shape(),
            shape
        );
        let input = self.id;
        self.with_const(
            mask,
            |mask| Op::MaskedSoftmaxRows { input, mask },
            |x, mask, out| {
                out.clone_from(x);
                ops::zip_map_assign(
                    out,
                    mask,
                    |v, m| if m != 0.0 { v } else { f32::NEG_INFINITY },
                );
                ops::softmax_rows_assign(out);
            },
        )
    }

    /// Convenience: masked softmax keeping each row's top-`k` inputs.
    /// Returns the probabilities and the 0/1 mask that was applied.
    #[must_use]
    pub fn topk_softmax_rows(self, k: usize) -> (Var<'t>, Matrix) {
        let mask = topk::row_topk_mask(&self.value_ref(), k);
        (self.masked_softmax_rows(&mask), mask)
    }

    /// Row sums `[m,n] -> [m,1]`.
    #[must_use]
    pub fn row_sum(self) -> Var<'t> {
        self.unary(Op::RowSum(self.id), reduce::row_sum_into)
    }

    /// Column sums `[m,n] -> [1,n]`.
    #[must_use]
    pub fn col_sum(self) -> Var<'t> {
        self.unary(Op::ColSum(self.id), reduce::col_sum_into)
    }

    /// Sum of all entries, producing a `1x1` scalar node.
    #[must_use]
    pub fn sum_all(self) -> Var<'t> {
        self.unary(Op::SumAll(self.id), |a, out| {
            out.resize_zeroed(1, 1);
            out[(0, 0)] = reduce::sum(a);
        })
    }

    /// Mean of all entries, producing a `1x1` scalar node.
    #[must_use]
    pub fn mean_all(self) -> Var<'t> {
        self.unary(Op::MeanAll(self.id), |a, out| {
            out.resize_zeroed(1, 1);
            out[(0, 0)] = reduce::mean(a);
        })
    }

    /// Horizontal concatenation of several variables (same row counts).
    ///
    /// # Panics
    /// Panics if `parts` is empty or row counts disagree.
    #[must_use]
    pub fn concat_cols(parts: &[Var<'t>]) -> Var<'t> {
        assert!(!parts.is_empty(), "concat_cols: no parts");
        parts[0].tape.push_with(
            Op::ConcatCols,
            parts.iter().map(|p| p.id),
            |nodes, idx, out| Matrix::hcat_into(idx.len(), |i| &nodes[idx[i]].value, out),
        )
    }

    /// Element-wise product with a constant matrix (mask, noise, ...).
    #[must_use]
    pub fn mul_const(self, konst: &Matrix) -> Var<'t> {
        let input = self.id;
        self.with_const(
            konst,
            |konst| Op::MulConst { input, konst },
            |a, k, out| {
                out.clone_from(a);
                ops::mul_assign(out, k);
            },
        )
    }

    /// Element-wise sum with a constant matrix.
    #[must_use]
    pub fn add_const(self, konst: &Matrix) -> Var<'t> {
        let input = self.id;
        self.with_const(
            konst,
            |konst| Op::AddConst { input, konst },
            |a, k, out| {
                out.clone_from(a);
                ops::add_assign(out, k);
            },
        )
    }

    /// Identity in the forward pass, stops gradients in the backward pass.
    #[must_use]
    pub fn detach(self) -> Var<'t> {
        self.copy_then(Op::Detach(self.id), |_| {})
    }

    /// Numerically stable per-element binary cross-entropy against
    /// constant `targets`, treating `self` as logits:
    /// `max(x,0) - x·y + ln(1 + e^{-|x|})`.
    ///
    /// Returns the matrix of per-element losses (reduce with
    /// [`Var::mean_all`] for the batch loss, Eq. 13).
    #[must_use]
    pub fn bce_with_logits(self, targets: &Matrix) -> Var<'t> {
        let shape = self.shape();
        assert_eq!(
            shape,
            targets.shape(),
            "bce_with_logits: target shape {:?} vs logits {:?}",
            targets.shape(),
            shape
        );
        let logits = self.id;
        self.with_const(
            targets,
            |targets| Op::BceWithLogits { logits, targets },
            |x, y, out| {
                out.clone_from(x);
                ops::zip_map_assign(out, y, |x, y| {
                    x.max(0.0) - x * y + ops::softplus_scalar(-x.abs())
                });
            },
        )
    }

    /// Columns `[start, end)` as a new node.
    #[must_use]
    pub fn slice_cols(self, start: usize, end: usize) -> Var<'t> {
        let input = self.id;
        self.unary(Op::SliceCols { input, start, end }, |a, out| {
            a.slice_cols_into(start, end, out);
        })
    }
}

impl<'t> Add for Var<'t> {
    type Output = Var<'t>;
    fn add(self, rhs: Var<'t>) -> Var<'t> {
        self.binary(rhs, Op::Add(self.id, rhs.id), |a, b, out| {
            out.clone_from(a);
            ops::add_assign(out, b);
        })
    }
}

impl<'t> Sub for Var<'t> {
    type Output = Var<'t>;
    fn sub(self, rhs: Var<'t>) -> Var<'t> {
        self.binary(rhs, Op::Sub(self.id, rhs.id), |a, b, out| {
            out.clone_from(a);
            ops::sub_assign(out, b);
        })
    }
}

impl<'t> Mul for Var<'t> {
    type Output = Var<'t>;
    fn mul(self, rhs: Var<'t>) -> Var<'t> {
        self.binary(rhs, Op::Mul(self.id, rhs.id), |a, b, out| {
            out.clone_from(a);
            ops::mul_assign(out, b);
        })
    }
}

impl<'t> Div for Var<'t> {
    type Output = Var<'t>;
    fn div(self, rhs: Var<'t>) -> Var<'t> {
        self.binary(rhs, Op::Div(self.id, rhs.id), |a, b, out| {
            out.clone_from(a);
            ops::div_assign(out, b);
        })
    }
}

impl<'t> Neg for Var<'t> {
    type Output = Var<'t>;
    fn neg(self) -> Var<'t> {
        self.copy_then(Op::Neg(self.id), |v| ops::scale_assign(v, -1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operator_overloads_forward() {
        let tape = Tape::new();
        let a = tape.leaf(Matrix::from_rows(&[&[2.0, 3.0]]));
        let b = tape.leaf(Matrix::from_rows(&[&[4.0, 5.0]]));
        assert_eq!((a + b).value().row(0), &[6.0, 8.0]);
        assert_eq!((a - b).value().row(0), &[-2.0, -2.0]);
        assert_eq!((a * b).value().row(0), &[8.0, 15.0]);
        assert_eq!((b / a).value().row(0), &[2.0, 5.0 / 3.0]);
        assert_eq!((-a).value().row(0), &[-2.0, -3.0]);
    }

    #[test]
    fn topk_softmax_rows_masks() {
        let tape = Tape::new();
        let x = tape.leaf(Matrix::from_rows(&[&[1.0, 3.0, 2.0, -1.0]]));
        let (p, mask) = x.topk_softmax_rows(2);
        let pv = p.value();
        assert_eq!(pv[(0, 0)], 0.0);
        assert_eq!(pv[(0, 3)], 0.0);
        assert!((pv.row(0).iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(pv[(0, 1)] > pv[(0, 2)]);
        assert_eq!(mask[(0, 1)], 1.0);
        assert_eq!(mask[(0, 2)], 1.0);
    }

    #[test]
    fn bce_matches_naive_formula() {
        let tape = Tape::new();
        let logits = Matrix::from_rows(&[&[0.3, -1.2, 4.0]]);
        let targets = Matrix::from_rows(&[&[1.0, 0.0, 1.0]]);
        let x = tape.leaf(logits.clone());
        let loss = x.bce_with_logits(&targets);
        let lv = loss.value();
        for i in 0..3 {
            let p = ops::sigmoid_scalar(logits[(0, i)]);
            let y = targets[(0, i)];
            let naive = -(y * p.ln() + (1.0 - y) * (1.0 - p).ln());
            assert!(
                (lv[(0, i)] - naive).abs() < 1e-5,
                "elem {i}: {} vs {naive}",
                lv[(0, i)]
            );
        }
    }

    #[test]
    fn concat_and_slice_are_inverse() {
        let tape = Tape::new();
        let a = tape.leaf(Matrix::from_rows(&[&[1.0], &[2.0]]));
        let b = tape.leaf(Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]));
        let c = Var::concat_cols(&[a, b]);
        assert_eq!(c.value().row(1), &[2.0, 5.0, 6.0]);
        let s = c.slice_cols(1, 3);
        assert_eq!(s.value(), b.value());
    }
}
