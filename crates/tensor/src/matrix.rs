//! The [`Matrix`] type: a row-major, heap-allocated 2-D `f32` array.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major 2-D array of `f32`.
///
/// `Matrix` is the only tensor type in the workspace. Vectors are
/// represented as `1 x n` or `n x 1` matrices and scalars as `1 x 1`,
/// which keeps the op set small and shapes explicit.
#[derive(PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// Error returned by fallible constructors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatrixError {
    /// `rows * cols` does not equal the length of the provided buffer.
    LengthMismatch {
        /// Requested row count.
        rows: usize,
        /// Requested column count.
        cols: usize,
        /// Length of the buffer that was supplied.
        len: usize,
    },
    /// A zero dimension was provided where a non-empty matrix is required.
    EmptyDimension {
        /// Requested row count.
        rows: usize,
        /// Requested column count.
        cols: usize,
    },
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::LengthMismatch { rows, cols, len } => write!(
                f,
                "buffer of length {len} cannot be viewed as a {rows}x{cols} matrix"
            ),
            MatrixError::EmptyDimension { rows, cols } => {
                write!(f, "matrix dimensions must be non-zero, got {rows}x{cols}")
            }
        }
    }
}

impl std::error::Error for MatrixError {}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.clone(),
        }
    }

    /// Copies `source` into `self`'s buffer, which only grows: a scratch
    /// matrix refilled every step stops allocating once it has held its
    /// largest shape.
    fn clone_from(&mut self, source: &Self) {
        self.rows = source.rows;
        self.cols = source.cols;
        self.data.clone_from(&source.data);
    }
}

impl Matrix {
    /// A `0 x 0` output buffer for the crate's `*_into` kernels, which
    /// give it a real shape before it escapes.
    pub(crate) fn unshaped() -> Self {
        Matrix {
            rows: 0,
            cols: 0,
            data: Vec::new(),
        }
    }

    /// Creates a `rows x cols` matrix filled with zeros.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 0.0)
    }

    /// Creates a `rows x cols` matrix filled with ones.
    #[must_use]
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 1.0)
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        assert!(
            rows > 0 && cols > 0,
            "Matrix::filled: dimensions must be non-zero, got {rows}x{cols}"
        );
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a matrix from a row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols` or a dimension is zero.
    #[must_use]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        Self::try_from_vec(rows, cols, data).unwrap_or_else(|e| panic!("Matrix::from_vec: {e}"))
    }

    /// Fallible version of [`Matrix::from_vec`].
    pub fn try_from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, MatrixError> {
        if rows == 0 || cols == 0 {
            return Err(MatrixError::EmptyDimension { rows, cols });
        }
        if data.len() != rows * cols {
            return Err(MatrixError::LengthMismatch {
                rows,
                cols,
                len: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from nested row slices (convenient in tests).
    ///
    /// # Panics
    /// Panics if rows are empty or ragged.
    #[must_use]
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "Matrix::from_rows: no rows");
        let cols = rows[0].len();
        assert!(cols > 0, "Matrix::from_rows: empty first row");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(
                r.len(),
                cols,
                "Matrix::from_rows: row {i} has {} cols, expected {cols}",
                r.len()
            );
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a `1 x 1` matrix holding `value`.
    #[must_use]
    pub fn scalar(value: f32) -> Self {
        Matrix {
            rows: 1,
            cols: 1,
            data: vec![value],
        }
    }

    /// Creates an `n x n` identity matrix.
    #[must_use]
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Number of rows.
    #[inline]
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Always `false`: zero-sized matrices cannot be constructed.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The backing row-major buffer.
    #[inline]
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the backing row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning its row-major buffer.
    #[must_use]
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Borrow of row `r` as a contiguous slice.
    ///
    /// # Panics
    /// Panics if `r >= rows`.
    #[inline]
    #[must_use]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "Matrix::row: row {r} out of {}", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r` as a contiguous slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(
            r < self.rows,
            "Matrix::row_mut: row {r} out of {}",
            self.rows
        );
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a fresh `rows x 1` matrix.
    #[must_use]
    pub fn col(&self, c: usize) -> Matrix {
        assert!(c < self.cols, "Matrix::col: col {c} out of {}", self.cols);
        let mut out = Vec::with_capacity(self.rows);
        for r in 0..self.rows {
            out.push(self.data[r * self.cols + c]);
        }
        Matrix::from_vec(self.rows, 1, out)
    }

    /// Returns a new matrix that is the transpose of `self`.
    #[must_use]
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            let src = self.row(r);
            for (c, &v) in src.iter().enumerate() {
                out.data[c * self.rows + r] = v;
            }
        }
        out
    }

    /// Returns a copy of the selected rows, in the given order (rows may
    /// repeat — this is a gather).
    ///
    /// # Panics
    /// Panics if `indices` is empty or any index is out of bounds.
    #[must_use]
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::unshaped();
        self.gather_rows_into(indices, &mut out);
        out
    }

    /// [`Matrix::gather_rows`] into `out`'s reused buffer.
    ///
    /// # Panics
    /// Same contract as [`Matrix::gather_rows`].
    pub fn gather_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        assert!(!indices.is_empty(), "Matrix::gather_rows: empty index set");
        out.rows = indices.len();
        out.cols = self.cols;
        out.data.clear();
        out.data.reserve(indices.len() * self.cols);
        for &i in indices {
            assert!(
                i < self.rows,
                "Matrix::gather_rows: row {i} out of {}",
                self.rows
            );
            out.data.extend_from_slice(self.row(i));
        }
    }

    /// Horizontally concatenates `parts` (all must share the row count).
    ///
    /// # Panics
    /// Panics if `parts` is empty or row counts disagree.
    #[must_use]
    pub fn hcat(parts: &[&Matrix]) -> Matrix {
        let mut out = Matrix::unshaped();
        Self::hcat_into(parts.len(), |i| parts[i], &mut out);
        out
    }

    /// [`Matrix::hcat`] of the `n` parts `part(0..n)` into `out`'s reused
    /// buffer.
    ///
    /// # Panics
    /// Same contract as [`Matrix::hcat`].
    pub fn hcat_into<'a>(n: usize, part: impl Fn(usize) -> &'a Matrix, out: &mut Matrix) {
        assert!(n > 0, "Matrix::hcat: no parts");
        let rows = part(0).rows;
        let cols: usize = (0..n).map(|i| part(i).cols).sum();
        out.resize_zeroed(rows, cols);
        for r in 0..rows {
            let dst = out.row_mut(r);
            let mut off = 0;
            for i in 0..n {
                let p = part(i);
                assert_eq!(
                    p.rows, rows,
                    "Matrix::hcat: part has {} rows, expected {rows}",
                    p.rows
                );
                dst[off..off + p.cols].copy_from_slice(p.row(r));
                off += p.cols;
            }
        }
    }

    /// Vertically concatenates `parts` (all must share the column count).
    #[must_use]
    pub fn vcat(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "Matrix::vcat: no parts");
        let cols = parts[0].cols;
        let rows: usize = parts.iter().map(|p| p.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            assert_eq!(
                p.cols, cols,
                "Matrix::vcat: part has {} cols, expected {cols}",
                p.cols
            );
            data.extend_from_slice(p.as_slice());
        }
        Matrix::from_vec(rows, cols, data)
    }

    /// Returns the sub-matrix consisting of columns `[start, end)`.
    #[must_use]
    pub fn slice_cols(&self, start: usize, end: usize) -> Matrix {
        let mut out = Matrix::unshaped();
        self.slice_cols_into(start, end, &mut out);
        out
    }

    /// [`Matrix::slice_cols`] into `out`'s reused buffer.
    ///
    /// # Panics
    /// Panics if the range is empty or past the last column.
    pub fn slice_cols_into(&self, start: usize, end: usize, out: &mut Matrix) {
        assert!(
            start < end && end <= self.cols,
            "Matrix::slice_cols: bad range {start}..{end} for {} cols",
            self.cols
        );
        out.rows = self.rows;
        out.cols = end - start;
        out.data.clear();
        out.data.reserve(self.rows * (end - start));
        for r in 0..self.rows {
            out.data.extend_from_slice(&self.row(r)[start..end]);
        }
    }

    /// True if every element is finite (no NaN / infinity).
    #[must_use]
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Frobenius norm.
    #[must_use]
    pub fn frob_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Fills the matrix with `value` in place.
    pub fn fill(&mut self, value: f32) {
        self.data.iter_mut().for_each(|v| *v = value);
    }

    /// Reshapes to `rows x cols` with every entry `+0.0`, reusing the
    /// buffer: it only grows, so a workspace matrix resized every step
    /// allocates only when a step needs more room than any before it.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        assert!(
            rows > 0 && cols > 0,
            "Matrix::resize_zeroed: dimensions must be non-zero, got {rows}x{cols}"
        );
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8.min(self.rows);
        for r in 0..max_rows {
            write!(f, "  [")?;
            let max_cols = 10.min(self.cols);
            for c in 0..max_cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.4}", self[(r, c)])?;
            }
            if self.cols > max_cols {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_index() {
        let m = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 2)], 6.0);
        assert_eq!(m.row(1), &[4., 5., 6.]);
    }

    #[test]
    fn try_from_vec_errors() {
        assert!(matches!(
            Matrix::try_from_vec(2, 2, vec![1.0; 3]),
            Err(MatrixError::LengthMismatch { .. })
        ));
        assert!(matches!(
            Matrix::try_from_vec(0, 2, vec![]),
            Err(MatrixError::EmptyDimension { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "Matrix::from_vec")]
    fn from_vec_panics_on_mismatch() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 5]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_rows(&[&[1., 2., 3.], &[4., 5., 6.]]);
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(0, 1)], 4.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn gather_rows_repeats() {
        let m = Matrix::from_rows(&[&[1., 2.], &[3., 4.], &[5., 6.]]);
        let g = m.gather_rows(&[2, 0, 2]);
        assert_eq!(g.row(0), &[5., 6.]);
        assert_eq!(g.row(1), &[1., 2.]);
        assert_eq!(g.row(2), &[5., 6.]);
    }

    #[test]
    fn hcat_vcat() {
        let a = Matrix::from_rows(&[&[1., 2.], &[3., 4.]]);
        let b = Matrix::from_rows(&[&[5.], &[6.]]);
        let h = Matrix::hcat(&[&a, &b]);
        assert_eq!(h.shape(), (2, 3));
        assert_eq!(h.row(0), &[1., 2., 5.]);
        let c = Matrix::from_rows(&[&[7., 8.]]);
        let v = Matrix::vcat(&[&a, &c]);
        assert_eq!(v.shape(), (3, 2));
        assert_eq!(v.row(2), &[7., 8.]);
    }

    #[test]
    fn slice_cols_and_col() {
        let m = Matrix::from_rows(&[&[1., 2., 3.], &[4., 5., 6.]]);
        let s = m.slice_cols(1, 3);
        assert_eq!(s.row(0), &[2., 3.]);
        let c = m.col(2);
        assert_eq!(c.shape(), (2, 1));
        assert_eq!(c[(1, 0)], 6.0);
    }

    #[test]
    fn eye_and_norm() {
        let i = Matrix::eye(3);
        assert_eq!(i[(1, 1)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert!((i.frob_norm() - 3f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn finite_check() {
        let mut m = Matrix::ones(2, 2);
        assert!(m.all_finite());
        m[(0, 1)] = f32::NAN;
        assert!(!m.all_finite());
    }
}
