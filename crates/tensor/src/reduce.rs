//! Reductions over rows, columns and the whole matrix.

use crate::Matrix;

/// Sum of all elements.
#[must_use]
pub fn sum(a: &Matrix) -> f32 {
    a.as_slice().iter().sum()
}

/// Mean of all elements.
#[must_use]
pub fn mean(a: &Matrix) -> f32 {
    sum(a) / a.len() as f32
}

/// Population variance of all elements.
#[must_use]
pub fn variance(a: &Matrix) -> f32 {
    let mu = mean(a);
    a.as_slice()
        .iter()
        .map(|v| (v - mu) * (v - mu))
        .sum::<f32>()
        / a.len() as f32
}

/// Row sums: `m x n -> m x 1`.
#[must_use]
pub fn row_sum(a: &Matrix) -> Matrix {
    let mut out = Matrix::unshaped();
    row_sum_into(a, &mut out);
    out
}

/// [`row_sum`] into `out`'s reused buffer.
pub fn row_sum_into(a: &Matrix, out: &mut Matrix) {
    out.resize_zeroed(a.rows(), 1);
    for r in 0..a.rows() {
        out[(r, 0)] = a.row(r).iter().sum();
    }
}

/// Row means: `m x n -> m x 1`.
#[must_use]
pub fn row_mean(a: &Matrix) -> Matrix {
    let mut out = row_sum(a);
    let inv = 1.0 / a.cols() as f32;
    out.as_mut_slice().iter_mut().for_each(|v| *v *= inv);
    out
}

/// Column sums: `m x n -> 1 x n`.
#[must_use]
pub fn col_sum(a: &Matrix) -> Matrix {
    let mut out = Matrix::unshaped();
    col_sum_into(a, &mut out);
    out
}

/// [`col_sum`] into `out`'s reused buffer; each column's sum starts
/// from `+0.0` and adds the rows in order.
pub fn col_sum_into(a: &Matrix, out: &mut Matrix) {
    out.resize_zeroed(1, a.cols());
    for r in 0..a.rows() {
        let dst = out.row_mut(0);
        for (d, &v) in dst.iter_mut().zip(a.row(r)) {
            *d += v;
        }
    }
}

/// Column means: `m x n -> 1 x n`.
#[must_use]
pub fn col_mean(a: &Matrix) -> Matrix {
    let mut out = col_sum(a);
    let inv = 1.0 / a.rows() as f32;
    out.as_mut_slice().iter_mut().for_each(|v| *v *= inv);
    out
}

/// Index of the maximum element in each row.
#[must_use]
pub fn row_argmax(a: &Matrix) -> Vec<usize> {
    (0..a.rows())
        .map(|r| {
            a.row(r)
                .iter()
                .enumerate()
                .max_by(|x, y| x.1.partial_cmp(y.1).expect("row_argmax: NaN in row"))
                .map(|(i, _)| i)
                .expect("row_argmax: empty row")
        })
        .collect()
}

/// Maximum element of the whole matrix.
///
/// # Panics
/// Panics on NaN.
#[must_use]
pub fn max(a: &Matrix) -> f32 {
    a.as_slice()
        .iter()
        .copied()
        .fold(f32::NEG_INFINITY, |m, v| {
            assert!(!v.is_nan(), "max: NaN element");
            m.max(v)
        })
}

/// Minimum element of the whole matrix.
///
/// # Panics
/// Panics on NaN.
#[must_use]
pub fn min(a: &Matrix) -> f32 {
    a.as_slice().iter().copied().fold(f32::INFINITY, |m, v| {
        assert!(!v.is_nan(), "min: NaN element");
        m.min(v)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> Matrix {
        Matrix::from_rows(&[&[1., 2., 3.], &[4., 5., 6.]])
    }

    #[test]
    fn scalar_reductions() {
        assert_eq!(sum(&m()), 21.0);
        assert_eq!(mean(&m()), 3.5);
        assert!((variance(&m()) - 35.0 / 12.0).abs() < 1e-6);
        assert_eq!(max(&m()), 6.0);
        assert_eq!(min(&m()), 1.0);
    }

    #[test]
    fn axis_reductions() {
        let rs = row_sum(&m());
        assert_eq!(rs.as_slice(), &[6.0, 15.0]);
        let cs = col_sum(&m());
        assert_eq!(cs.as_slice(), &[5.0, 7.0, 9.0]);
        let rm = row_mean(&m());
        assert_eq!(rm.as_slice(), &[2.0, 5.0]);
        let cm = col_mean(&m());
        assert_eq!(cm.as_slice(), &[2.5, 3.5, 4.5]);
    }

    #[test]
    fn argmax_rows() {
        let a = Matrix::from_rows(&[&[1., 9., 3.], &[7., 5., 6.]]);
        assert_eq!(row_argmax(&a), vec![1, 0]);
    }
}
