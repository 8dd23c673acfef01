//! Int8 per-row-scale weight quantization for the serving path.
//!
//! Serving-time expert forwards are weight-stationary: the same tower
//! weights multiply every request batch, so shrinking the weights 4x
//! (f32 → i8) cuts the weight memory traffic of the tower GEMMs.
//! Quantization is **symmetric per row** of the stored matrix: row `j`
//! keeps one f32 scale `s_j = max|w_j| / 127` and i8 codes
//! `q = round(w / s_j)`, so dequantization is `w ≈ s_j * q` and the
//! per-element round-trip error is bounded by `s_j / 2`.
//!
//! The kernel ([`matmul_nt_q`]) dequantizes on the fly at the **pack**
//! stage: codes are widened to `s_j * f32::from(q)` while `B` is packed
//! into the cache-blocked strips of [`crate::matmul`], so each code is
//! converted once per product (amortised over every `A` row) and the
//! inner loop is the same register-tiled f32 micro-kernel as the
//! full-precision path. Consequently `matmul_nt_q(a, q)` is
//! **bit-identical** to `matmul_nt(a, &q.dequantize())` — a pure
//! function of its inputs, deterministic across `AMOE_THREADS` — and
//! the only approximation in the whole path is the quantization
//! round-trip itself.
//!
//! For `C[i][j]` the absolute error versus the f32 product is bounded
//! by `0.5 * s_j * ‖a_i‖₁` (each weight is off by at most `s_j/2`,
//! scaled by the matching activation), plus ordinary f32 accumulation
//! noise. Tests in `tests/kernel_oracle.rs` assert this bound case by
//! case.
//!
//! Scope: **serving only**. Training, gradients, and the f32 serving
//! oracle never touch this module; `amoe_core::serving` wires it in
//! behind an opt-in flag.

use crate::matmul::{self, AOrient, PackedB, KC, NR};
use crate::Matrix;

/// An i8 matrix with one f32 scale per stored row.
///
/// Rows are quantized independently so a single outlier row cannot
/// inflate everyone's step size — expert tower weight rows (one per
/// output unit after transposition) have per-row dynamic ranges that
/// differ by orders of magnitude after training.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantMatrix {
    rows: usize,
    cols: usize,
    q: Vec<i8>,
    scales: Vec<f32>,
}

impl QuantMatrix {
    /// Quantizes `m` row by row: `scales[r] = max|m[r]| / 127` (1.0 for
    /// an all-zero row, where any scale reproduces it exactly) and
    /// `q = round(v / scale)` clamped to `[-127, 127]`.
    #[must_use]
    pub fn quantize_rows(m: &Matrix) -> QuantMatrix {
        let (rows, cols) = (m.rows(), m.cols());
        let mut q = Vec::with_capacity(rows * cols);
        let mut scales = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = m.row(r);
            let max_abs = row.iter().fold(0.0f32, |acc, v| acc.max(v.abs()));
            let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
            scales.push(scale);
            for &v in row {
                let code = (v / scale).round().clamp(-127.0, 127.0);
                #[allow(clippy::cast_possible_truncation)]
                q.push(code as i8);
            }
        }
        QuantMatrix {
            rows,
            cols,
            q,
            scales,
        }
    }

    /// Quantizes a weight matrix stored `in x out` (the [`amoe_nn`]
    /// `Linear` layout) after transposing it to `out x in`, so each
    /// *output unit* gets its own scale and [`matmul_nt_q`] can walk
    /// its codes contiguously.
    #[must_use]
    pub fn from_transposed(w: &Matrix) -> QuantMatrix {
        QuantMatrix::quantize_rows(&w.transpose())
    }

    /// Reconstructs the f32 matrix `scales[r] * q[r]` (same shape as
    /// the quantized input).
    #[must_use]
    pub fn dequantize(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let scale = self.scales[r];
            for (o, &code) in out.row_mut(r).iter_mut().zip(self.row(r)) {
                *o = scale * f32::from(code);
            }
        }
        out
    }

    /// Number of stored rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of stored columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The i8 codes of row `r`.
    #[must_use]
    pub fn row(&self, r: usize) -> &[i8] {
        &self.q[r * self.cols..(r + 1) * self.cols]
    }

    /// The per-row scales, one per stored row.
    #[must_use]
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Heap bytes held by codes plus scales — the number the serving
    /// benches report against `rows * cols * 4` for f32.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.q.len() + self.scales.len() * 4
    }
}

/// Packs a quantized `B` (stored `n x k`, used transposed) into the
/// blocked-GEMM strip layout, widening `s_j * f32::from(code)` during
/// the copy. Mirrors `matmul::pack_b_nt`; each code is converted
/// exactly once per product. The widened value is the same f32 as
/// [`QuantMatrix::dequantize`] produces, so downstream arithmetic is
/// bit-identical to running the f32 kernel on the dequantized matrix.
fn pack_b_nt_q(b: &QuantMatrix) -> PackedB {
    let (n, k) = (b.rows(), b.cols());
    let n_strips = n.div_ceil(NR);
    let mut data = vec![0.0f32; k * n_strips * NR];
    let mut p0 = 0;
    while p0 < k {
        let kc = KC.min(k - p0);
        let base = p0 * n_strips * NR;
        for (s, strip) in data[base..base + kc * n_strips * NR]
            .chunks_mut(kc * NR)
            .enumerate()
        {
            let j0 = s * NR;
            let w = NR.min(n - j0);
            for jj in 0..w {
                let scale = b.scales[j0 + jj];
                let b_row = b.row(j0 + jj);
                for (p, line) in strip.chunks_mut(NR).enumerate() {
                    line[jj] = scale * f32::from(b_row[p0 + p]);
                }
            }
        }
        p0 += kc;
    }
    PackedB { data, n_strips }
}

/// Fallback kernel for products too small to pack: the reference `nt`
/// chain (ascending `p`, single accumulator) over dequantized values,
/// so it matches the packed path bit for bit.
fn naive_q_block(a: &Matrix, b: &QuantMatrix, first_row: usize, block: &mut [f32]) {
    let (k, n) = (a.cols(), b.rows());
    for (local, c_row) in block.chunks_mut(n).enumerate() {
        let a_row = a.row(first_row + local);
        for (j, cv) in c_row.iter_mut().enumerate() {
            let scale = b.scales[j];
            let b_row = b.row(j);
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a_row[p] * (scale * f32::from(b_row[p]));
            }
            *cv += acc;
        }
    }
}

/// `C = A (m x k) · Bᵀ` where `B` is quantized and stored `n x k`
/// (matching [`crate::matmul::matmul_nt`]'s layout).
///
/// Bit-identical to `matmul_nt(a, &b.dequantize())` on every dispatch
/// path (see module docs), and row-blocked across the
/// [`pool`](crate::pool) runtime with the same disjoint-output-rows
/// split as the f32 kernels, so results are identical for every
/// `AMOE_THREADS`.
///
/// # Panics
/// Panics if `a.cols() != b.cols()`.
#[must_use]
pub fn matmul_nt_q(a: &Matrix, b: &QuantMatrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_nt_q: inner dims differ: {:?} x ({}, {})ᵀ",
        a.shape(),
        b.rows(),
        b.cols()
    );
    let (m, k, n) = (a.rows(), a.cols(), b.rows());
    matmul::run_gemm(
        AOrient::RowMajor(a),
        || pack_b_nt_q(b),
        |first_row, block| naive_q_block(a, b, first_row, block),
        m,
        k,
        n,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn roundtrip_error_bounded_by_half_scale() {
        let mut rng = Rng::seed_from(31);
        let m = rng.normal_matrix(9, 33, 0.0, 2.0);
        let qm = QuantMatrix::quantize_rows(&m);
        let back = qm.dequantize();
        for r in 0..m.rows() {
            let bound = qm.scales()[r] * 0.5 + 1e-6;
            for (a, b) in m.row(r).iter().zip(back.row(r)) {
                assert!(
                    (a - b).abs() <= bound,
                    "row {r}: {a} vs {b} exceeds half-scale bound {bound}"
                );
            }
        }
    }

    #[test]
    fn zero_row_roundtrips_exactly() {
        let m = Matrix::zeros(2, 5);
        let qm = QuantMatrix::quantize_rows(&m);
        assert_eq!(qm.scales(), &[1.0, 1.0]);
        assert_eq!(qm.dequantize(), m);
    }

    #[test]
    fn extrema_hit_full_code_range() {
        let m = Matrix::from_rows(&[&[-1.0, 0.5, 1.0]]);
        let qm = QuantMatrix::quantize_rows(&m);
        assert_eq!(qm.row(0), &[-127, 64, 127]);
    }

    #[test]
    fn from_transposed_matches_manual_transpose() {
        let mut rng = Rng::seed_from(37);
        let w = rng.normal_matrix(6, 4, 0.0, 1.0);
        assert_eq!(
            QuantMatrix::from_transposed(&w),
            QuantMatrix::quantize_rows(&w.transpose())
        );
    }

    #[test]
    fn bytes_reports_compressed_footprint() {
        let m = Matrix::ones(8, 16);
        let qm = QuantMatrix::quantize_rows(&m);
        assert_eq!(qm.bytes(), 8 * 16 + 8 * 4);
    }

    #[test]
    fn quant_matmul_bit_identical_to_dequantized_f32_product() {
        let mut rng = Rng::seed_from(41);
        // Small (naive fallback) and packed shapes.
        for &(m, k, n) in &[(5usize, 19usize, 7usize), (40, 300, 24)] {
            let a = rng.normal_matrix(m, k, 0.0, 1.0);
            let w = rng.normal_matrix(n, k, 0.0, 1.0);
            let qm = QuantMatrix::quantize_rows(&w);
            assert_eq!(
                matmul_nt_q(&a, &qm),
                crate::matmul::reference::matmul_nt(&a, &qm.dequantize()),
                "quant kernel diverged from dequantized oracle at {m}x{k}x{n}"
            );
        }
    }
}
