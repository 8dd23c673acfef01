#![warn(missing_docs)]

//! Dense 2-D `f32` tensor kernels for the Adv & HSC-MoE reproduction.
//!
//! This crate is the lowest layer of the training stack: a row-major,
//! heap-allocated matrix type ([`Matrix`]) together with the handful of
//! numerical kernels a from-scratch deep-learning framework needs
//! (element-wise arithmetic, blocked mat-mul in all transpose flavours,
//! row/column reductions, softmax, top-k selection) and a fully
//! deterministic random number generator ([`rng::Rng`]) so that every
//! experiment in the paper reproduction is bit-for-bit repeatable.
//!
//! # Design notes
//!
//! * Everything is `f32`: the paper's models are small MLPs where single
//!   precision is standard, and it doubles effective memory bandwidth and
//!   SIMD lanes over `f64` on the 2-core benchmark host.
//! * Shapes are validated eagerly; mismatches are programming errors and
//!   panic with a message naming the operation and both shapes. Fallible
//!   construction from user data goes through [`Matrix::try_from_vec`].
//! * The mat-mul kernels pack their operands into cache-blocked panels
//!   and accumulate `MR x NR` register tiles with a separate multiply and
//!   add per step (never a fused multiply-add), so every fast path is
//!   bit-identical to the naive `ikj` reference. On x86-64 the packed
//!   kernel runs an AVX2 copy when the CPU has AVX2 (see
//!   [`matmul`]'s module docs).
//! * Products large enough to amortise region dispatch are row-blocked
//!   across the [`pool`] runtime; each worker owns a disjoint block of
//!   output rows, so results are bit-identical for every thread count
//!   (see `AMOE_THREADS`).

pub mod check;
pub mod matmul;
pub mod matrix;
pub mod ops;
pub mod pool;
pub mod reduce;
pub mod rng;
pub mod topk;

pub use matrix::Matrix;
pub use rng::{Rng, WeightTable};

/// Absolute-or-relative closeness test used across the workspace's tests.
///
/// Returns `true` when `|a - b| <= atol + rtol * |b|`, the same contract as
/// `numpy.isclose`. NaNs are never close to anything.
#[must_use]
pub fn is_close(a: f32, b: f32, rtol: f32, atol: f32) -> bool {
    if a.is_nan() || b.is_nan() {
        return false;
    }
    (a - b).abs() <= atol + rtol * b.abs()
}

/// Asserts that two matrices have identical shape and element-wise close
/// values; panics with the first offending coordinate otherwise.
///
/// Intended for tests; not used on hot paths.
pub fn assert_close(a: &Matrix, b: &Matrix, rtol: f32, atol: f32) {
    assert_eq!(
        (a.rows(), a.cols()),
        (b.rows(), b.cols()),
        "assert_close: shape mismatch {}x{} vs {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    for r in 0..a.rows() {
        for c in 0..a.cols() {
            let (x, y) = (a[(r, c)], b[(r, c)]);
            assert!(
                is_close(x, y, rtol, atol),
                "assert_close: mismatch at ({r},{c}): {x} vs {y}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_close_basic() {
        assert!(is_close(1.0, 1.0, 0.0, 0.0));
        assert!(is_close(1.0, 1.0001, 1e-3, 0.0));
        assert!(!is_close(1.0, 1.1, 1e-3, 0.0));
        assert!(is_close(0.0, 1e-9, 0.0, 1e-8));
        assert!(!is_close(f32::NAN, f32::NAN, 1.0, 1.0));
    }
}
