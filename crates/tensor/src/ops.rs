//! Element-wise operations, broadcasts and maps on [`Matrix`].
//!
//! All binary ops validate shapes and panic with the operation name on
//! mismatch; broadcasting is explicit (dedicated `*_row` / `*_col`
//! functions) rather than implicit numpy-style, which keeps gradients in
//! the autograd layer unambiguous.

use crate::Matrix;

macro_rules! binary_op {
    ($name:ident, $assign:ident, $op:tt) => {
        /// Element-wise binary operation; returns a new matrix.
        ///
        /// # Panics
        /// Panics if shapes differ.
        #[must_use]
        pub fn $name(a: &Matrix, b: &Matrix) -> Matrix {
            let mut out = a.clone();
            $assign(&mut out, b);
            out
        }

        /// The same element-wise operation in place, on `a`.
        ///
        /// # Panics
        /// Panics if shapes differ.
        pub fn $assign(a: &mut Matrix, b: &Matrix) {
            assert_eq!(
                a.shape(),
                b.shape(),
                concat!(stringify!($name), ": shape mismatch {:?} vs {:?}"),
                a.shape(),
                b.shape()
            );
            // The assignment must stay in `x = x op y` form: `$op` is a
            // generic binary operator token, for which no compound
            // assignment token exists in macro position.
            #[allow(clippy::assign_op_pattern)]
            a.as_mut_slice()
                .iter_mut()
                .zip(b.as_slice())
                .for_each(|(x, &y)| *x = *x $op y);
        }
    };
}

binary_op!(add, add_assign, +);
binary_op!(sub, sub_assign, -);
binary_op!(mul, mul_assign, *);
binary_op!(div, div_assign, /);

/// In-place `a += s * b` (axpy).
pub fn axpy(a: &mut Matrix, s: f32, b: &Matrix) {
    assert_eq!(
        a.shape(),
        b.shape(),
        "axpy: shape mismatch {:?} vs {:?}",
        a.shape(),
        b.shape()
    );
    a.as_mut_slice()
        .iter_mut()
        .zip(b.as_slice())
        .for_each(|(x, &y)| *x += s * y);
}

/// Returns `a * s` element-wise.
#[must_use]
pub fn scale(a: &Matrix, s: f32) -> Matrix {
    let mut out = a.clone();
    scale_assign(&mut out, s);
    out
}

/// `a = a * s` element-wise, in place.
pub fn scale_assign(a: &mut Matrix, s: f32) {
    map_assign(a, |v| v * s);
}

/// Returns `a + s` element-wise.
#[must_use]
pub fn add_scalar(a: &Matrix, s: f32) -> Matrix {
    map(a, |v| v + s)
}

/// Applies `f` element-wise, producing a new matrix.
#[must_use]
pub fn map(a: &Matrix, f: impl Fn(f32) -> f32) -> Matrix {
    let mut out = a.clone();
    map_assign(&mut out, f);
    out
}

/// Applies `f` element-wise in place.
pub fn map_assign(a: &mut Matrix, f: impl Fn(f32) -> f32) {
    a.as_mut_slice().iter_mut().for_each(|v| *v = f(*v));
}

/// Applies `f` to corresponding elements of two same-shape matrices.
///
/// # Panics
/// Panics if shapes differ.
#[must_use]
pub fn zip_map(a: &Matrix, b: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
    let mut out = a.clone();
    zip_map_assign(&mut out, b, f);
    out
}

/// `a_ij = f(a_ij, b_ij)` in place.
///
/// # Panics
/// Panics if shapes differ.
pub fn zip_map_assign(a: &mut Matrix, b: &Matrix, f: impl Fn(f32, f32) -> f32) {
    assert_eq!(
        a.shape(),
        b.shape(),
        "zip_map: shape mismatch {:?} vs {:?}",
        a.shape(),
        b.shape()
    );
    a.as_mut_slice()
        .iter_mut()
        .zip(b.as_slice())
        .for_each(|(x, &y)| *x = f(*x, y));
}

/// Adds a `1 x n` row vector to every row of an `m x n` matrix.
///
/// # Panics
/// Panics if `row` is not `1 x a.cols()`.
#[must_use]
pub fn add_row_broadcast(a: &Matrix, row: &Matrix) -> Matrix {
    let mut out = a.clone();
    add_row_assign(&mut out, row);
    out
}

/// [`add_row_broadcast`] in place, on `a`.
///
/// # Panics
/// Panics if `row` is not `1 x a.cols()`.
pub fn add_row_assign(a: &mut Matrix, row: &Matrix) {
    assert_eq!(
        (1, a.cols()),
        row.shape(),
        "add_row_broadcast: expected 1x{} row, got {:?}",
        a.cols(),
        row.shape()
    );
    let rv = row.as_slice();
    for r in 0..a.rows() {
        a.row_mut(r).iter_mut().zip(rv).for_each(|(x, &y)| *x += y);
    }
}

/// Multiplies every row of an `m x n` matrix by an `m x 1` column vector
/// (each row scaled by its own factor).
///
/// # Panics
/// Panics if `col` is not `a.rows() x 1`.
#[must_use]
pub fn mul_col_broadcast(a: &Matrix, col: &Matrix) -> Matrix {
    let mut out = a.clone();
    mul_col_assign(&mut out, col);
    out
}

/// [`mul_col_broadcast`] in place, on `a`.
///
/// # Panics
/// Panics if `col` is not `a.rows() x 1`.
pub fn mul_col_assign(a: &mut Matrix, col: &Matrix) {
    assert_eq!(
        (a.rows(), 1),
        col.shape(),
        "mul_col_broadcast: expected {}x1 col, got {:?}",
        a.rows(),
        col.shape()
    );
    for r in 0..a.rows() {
        let s = col[(r, 0)];
        a.row_mut(r).iter_mut().for_each(|x| *x *= s);
    }
}

/// Numerically stable logistic sigmoid.
#[inline]
#[must_use]
pub fn sigmoid_scalar(x: f32) -> f32 {
    if x >= 0.0 {
        let z = (-x).exp();
        1.0 / (1.0 + z)
    } else {
        let z = x.exp();
        z / (1.0 + z)
    }
}

/// Element-wise logistic sigmoid.
#[must_use]
pub fn sigmoid(a: &Matrix) -> Matrix {
    map(a, sigmoid_scalar)
}

/// ReLU of one value: `max(x, 0)`.
#[inline]
#[must_use]
pub fn relu_scalar(x: f32) -> f32 {
    x.max(0.0)
}

/// Element-wise ReLU.
#[must_use]
pub fn relu(a: &Matrix) -> Matrix {
    map(a, relu_scalar)
}

/// Numerically stable softplus `ln(1 + e^x)`.
#[inline]
#[must_use]
pub fn softplus_scalar(x: f32) -> f32 {
    if x > 20.0 {
        x
    } else if x < -20.0 {
        x.exp()
    } else {
        x.exp().ln_1p()
    }
}

/// Element-wise softplus.
#[must_use]
pub fn softplus(a: &Matrix) -> Matrix {
    map(a, softplus_scalar)
}

/// Row-wise numerically stable softmax. Entries equal to `f32::NEG_INFINITY`
/// receive exactly zero probability (used by top-K masking).
///
/// # Panics
/// Panics if a row is entirely `-inf` (the distribution would be undefined).
#[must_use]
pub fn softmax_rows(a: &Matrix) -> Matrix {
    let mut out = a.clone();
    softmax_rows_assign(&mut out);
    out
}

/// [`softmax_rows`] in place, on `a`.
///
/// # Panics
/// Same contract as [`softmax_rows`].
pub fn softmax_rows_assign(a: &mut Matrix) {
    for r in 0..a.rows() {
        let row = a.row_mut(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        assert!(
            max > f32::NEG_INFINITY,
            "softmax_rows: row {r} is entirely -inf"
        );
        let mut sum = 0.0;
        for v in row.iter_mut() {
            if *v == f32::NEG_INFINITY {
                *v = 0.0;
            } else {
                *v = (*v - max).exp();
                sum += *v;
            }
        }
        let inv = 1.0 / sum;
        row.iter_mut().for_each(|v| *v *= inv);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;

    fn m(rows: &[&[f32]]) -> Matrix {
        Matrix::from_rows(rows)
    }

    #[test]
    fn arithmetic() {
        let a = m(&[&[1., 2.], &[3., 4.]]);
        let b = m(&[&[5., 6.], &[7., 8.]]);
        assert_eq!(add(&a, &b).row(0), &[6., 8.]);
        assert_eq!(sub(&b, &a).row(1), &[4., 4.]);
        assert_eq!(mul(&a, &b).row(0), &[5., 12.]);
        assert_eq!(div(&b, &a).row(1), &[7. / 3., 2.]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_shape_mismatch_panics() {
        let _ = add(&Matrix::ones(2, 2), &Matrix::ones(2, 3));
    }

    #[test]
    fn axpy_and_assign() {
        let mut a = m(&[&[1., 1.]]);
        add_assign(&mut a, &m(&[&[2., 3.]]));
        assert_eq!(a.row(0), &[3., 4.]);
        axpy(&mut a, -2.0, &m(&[&[1., 1.]]));
        assert_eq!(a.row(0), &[1., 2.]);
    }

    #[test]
    fn broadcasts() {
        let a = m(&[&[1., 2.], &[3., 4.]]);
        let r = add_row_broadcast(&a, &m(&[&[10., 20.]]));
        assert_eq!(r.row(1), &[13., 24.]);
        let c = mul_col_broadcast(&a, &Matrix::from_vec(2, 1, vec![2., 3.]));
        assert_eq!(c.row(0), &[2., 4.]);
        assert_eq!(c.row(1), &[9., 12.]);
    }

    #[test]
    fn sigmoid_stability() {
        assert!((sigmoid_scalar(0.0) - 0.5).abs() < 1e-7);
        assert!(sigmoid_scalar(100.0) > 0.9999);
        assert!(sigmoid_scalar(-100.0) < 1e-4);
        assert!(sigmoid_scalar(-1000.0).is_finite());
        assert!(sigmoid_scalar(1000.0).is_finite());
    }

    #[test]
    fn softplus_stability() {
        assert!((softplus_scalar(0.0) - (2f32).ln()).abs() < 1e-6);
        assert!((softplus_scalar(50.0) - 50.0).abs() < 1e-4);
        assert!(softplus_scalar(-50.0) >= 0.0);
        assert!(softplus_scalar(-50.0) < 1e-6);
    }

    #[test]
    fn softmax_sums_to_one() {
        let s = softmax_rows(&m(&[&[1., 2., 3.], &[-1., 0., 1.]]));
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        assert!(s[(0, 2)] > s[(0, 1)] && s[(0, 1)] > s[(0, 0)]);
    }

    #[test]
    fn softmax_neg_inf_masked() {
        let s = softmax_rows(&m(&[&[1.0, f32::NEG_INFINITY, 3.0]]));
        assert_eq!(s[(0, 1)], 0.0);
        assert!((s.row(0).iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_large_values_stable() {
        let s = softmax_rows(&m(&[&[1000.0, 1000.0]]));
        assert_close(&s, &m(&[&[0.5, 0.5]]), 1e-5, 1e-6);
    }

    #[test]
    fn relu_clamps() {
        let r = relu(&m(&[&[-1.0, 0.0, 2.5]]));
        assert_eq!(r.row(0), &[0.0, 0.0, 2.5]);
    }
}
