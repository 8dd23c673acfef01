//! Kernel oracle: the cache-blocked packed GEMM kernels, proven
//! against naive 3-loop references.
//!
//! The kernels promise **exact** results — every output element
//! accumulates its products in ascending `p` order, one rounding per
//! mul/add, regardless of blocking, packing, or thread count — so the
//! comparisons here are `==`, not tolerances.
//!
//! Shapes are both randomized (seeded [`Checker`] properties, replayable
//! via `AMOE_CHECK_SEED`) and adversarial: row/column vectors,
//! non-tile-multiple dims, `KC`-crossing depths, and the zero-dim
//! constructions that [`Matrix`] must reject.
//!
//! The thread pool budget is process-global, so sweeping it here could
//! race with concurrently running tests in this binary — that is safe
//! precisely because of the invariant under test: results do not depend
//! on the thread count.

use adv_hsc_moe::tensor::check::{self, Checker};
use adv_hsc_moe::tensor::matmul::{self, reference, KC, MR, NR, PAR_FLOP_THRESHOLD};
use adv_hsc_moe::tensor::matrix::MatrixError;
use adv_hsc_moe::tensor::{pool, Matrix, Rng};

/// Compares all three transpose flavours against their oracles for one
/// `(m, k, n)` shape, with exact equality.
fn assert_all_flavours_exact(rng: &mut Rng, m: usize, k: usize, n: usize, label: &str) {
    let a = check::matrix(rng, m, k, 2.0);
    let b = check::matrix(rng, k, n, 2.0);
    assert_eq!(
        matmul::matmul(&a, &b),
        reference::matmul(&a, &b),
        "{label}: nn diverged at {m}x{k}x{n}"
    );
    let at = check::matrix(rng, k, m, 2.0);
    assert_eq!(
        matmul::matmul_tn(&at, &b),
        reference::matmul_tn(&at, &b),
        "{label}: tn diverged at {m}x{k}x{n}"
    );
    let bt = check::matrix(rng, n, k, 2.0);
    assert_eq!(
        matmul::matmul_nt(&a, &bt),
        reference::matmul_nt(&a, &bt),
        "{label}: nt diverged at {m}x{k}x{n}"
    );
}

#[test]
fn blocked_kernels_match_oracle_on_random_shapes() {
    // Dims up to 24 straddle PACK_FLOP_THRESHOLD (2^12), so cases land
    // on both the packed blocked path and the naive fallback.
    Checker::new("blocked_kernels_match_oracle")
        .cases(64)
        .run(|rng| {
            let (m, k) = check::dims(rng, 1, 24);
            let (n, _) = check::dims(rng, 1, 24);
            assert_all_flavours_exact(rng, m, k, n, "random");
            Ok(())
        });
}

#[test]
fn blocked_kernels_match_oracle_on_adversarial_shapes() {
    let mut rng = Rng::seed_from(0xFEED);
    let shapes: &[(usize, usize, usize)] = &[
        // Row and column vectors: m = 1 never packs, n = 1 leaves every
        // B strip almost entirely zero padding.
        (1, 64, 32),
        (64, 32, 1),
        (1, 1, 1),
        // Exactly one tile, and one-off from tile multiples in every
        // direction (tile edges are where pack/loop bounds break).
        (MR, KC, NR),
        (MR - 1, KC - 1, NR - 1),
        (MR + 1, KC + 1, NR + 1),
        (MR * 3 - 1, KC - 1, NR * 2 + 3),
        // KC-crossing depths: k spanning 2 and 3 p-blocks, including the
        // exact boundary.
        (8, KC, NR * 2),
        (8, KC + 1, NR * 2),
        (8, 2 * KC + 1, NR),
        (12, 300, 24),
        // Flat-but-wide and tall-but-thin extremes.
        (2, 7, 200),
        (200, 7, 2),
        // Serving-shaped and cache-pressure shapes: odd k and n off the
        // tile edges, a cube exactly KC deep, and a panel 2·KC deep.
        (64, 96, 128),
        (120, 33, 17),
        (256, 256, 256),
        (384, 512, 64),
    ];
    for &(m, k, n) in shapes {
        assert_all_flavours_exact(&mut rng, m, k, n, "adversarial");
    }
}

#[test]
fn blocked_kernels_bit_identical_across_thread_counts() {
    // Above PAR_FLOP_THRESHOLD with a KC-crossing depth, so the parallel
    // row-blocked path actually engages and p-blocking is exercised.
    let (m, k, n) = (48, 300, 32);
    assert!(m * k * n >= PAR_FLOP_THRESHOLD);
    let mut rng = Rng::seed_from(0xBEEF);
    let a = check::matrix(&mut rng, m, k, 2.0);
    let b = check::matrix(&mut rng, k, n, 2.0);
    let at = check::matrix(&mut rng, k, m, 2.0);
    let bt = check::matrix(&mut rng, n, k, 2.0);
    let oracle = (
        reference::matmul(&a, &b),
        reference::matmul_tn(&at, &b),
        reference::matmul_nt(&a, &bt),
    );
    for threads in [1usize, 2, 4, 8] {
        pool::set_threads(threads);
        assert_eq!(
            matmul::matmul(&a, &b),
            oracle.0,
            "nn diverged from oracle at {threads} threads"
        );
        assert_eq!(
            matmul::matmul_tn(&at, &b),
            oracle.1,
            "tn diverged from oracle at {threads} threads"
        );
        assert_eq!(
            matmul::matmul_nt(&a, &bt),
            oracle.2,
            "nt diverged from oracle at {threads} threads"
        );
    }
    pool::clear_threads_override();
}

#[test]
fn empty_matrices_are_rejected_at_construction() {
    // The kernels never see degenerate shapes because Matrix refuses to
    // build them: a zero dimension is a constructor error, not a kernel
    // edge case.
    for (rows, cols) in [(0usize, 5usize), (5, 0), (0, 0)] {
        match Matrix::try_from_vec(rows, cols, vec![]) {
            Err(MatrixError::EmptyDimension { rows: r, cols: c }) => {
                assert_eq!((r, c), (rows, cols));
            }
            other => panic!("{rows}x{cols} must be rejected as empty, got {other:?}"),
        }
    }
}
