//! Kernel oracle: the cache-blocked packed GEMM kernels and the int8
//! quantized serving kernel, proven against naive 3-loop references.
//!
//! The f32 kernels promise **exact** results — every output element
//! accumulates its products in ascending `p` order, one rounding per
//! mul/add, regardless of blocking, packing, or thread count — so the
//! comparisons here are `==`, not tolerances. The quantized kernel is
//! bit-identical to running the f32 kernel on the dequantized weights;
//! its only approximation versus full precision is the quantization
//! round-trip, bounded per element by `0.5 · scale_j · ‖a_i‖₁`.
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

use adv_hsc_moe::dataset::{generate, Batch, GeneratorConfig};
use adv_hsc_moe::moe::config::TowerConfig;
use adv_hsc_moe::moe::ranker::{OptimConfig, Ranker};
use adv_hsc_moe::moe::serving::{QuantizedExperts, ServingMoe, QUANT_SCORE_TOLERANCE};
use adv_hsc_moe::moe::{MoeConfig, MoeModel};
use adv_hsc_moe::tensor::check::{self, Checker};
use adv_hsc_moe::tensor::matmul::{self, reference, KC, MR, NR, PAR_FLOP_THRESHOLD};
use adv_hsc_moe::tensor::matrix::MatrixError;
use adv_hsc_moe::tensor::quant::{matmul_nt_q, QuantMatrix};
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

#[test]
fn quantization_roundtrip_error_within_half_scale() {
    Checker::new("quant_roundtrip_half_scale")
        .cases(64)
        .run(|rng| {
            let (rows, cols) = check::dims(rng, 1, 32);
            let w = check::matrix(rng, rows, cols, 3.0);
            let q = QuantMatrix::quantize_rows(&w);
            let back = q.dequantize();
            for r in 0..rows {
                let scale = q.scales()[r];
                check::ensure(
                    q.row(r).iter().all(|&c| (-127..=127).contains(&c)),
                    format!("row {r}: code outside [-127, 127]"),
                )?;
                for (j, (&orig, &deq)) in w.row(r).iter().zip(back.row(r)).enumerate() {
                    check::ensure(
                        (orig - deq).abs() <= 0.5 * scale + 1e-6,
                        format!(
                            "round-trip error at ({r},{j}): {orig} vs {deq} exceeds scale/2 = {}",
                            0.5 * scale
                        ),
                    )?;
                }
            }
            Ok(())
        });
}

#[test]
fn quant_kernel_exact_vs_dequantized_oracle_and_bounded_vs_f32() {
    Checker::new("quant_kernel_oracle").cases(48).run(|rng| {
        let (m, k) = check::dims(rng, 1, 24);
        let (n, _) = check::dims(rng, 1, 24);
        let a = check::matrix(rng, m, k, 2.0);
        let w = check::matrix(rng, n, k, 2.0);
        let q = QuantMatrix::quantize_rows(&w);

        // Exact contract: the quantized kernel IS the f32 kernel run on
        // the dequantized weights, bit for bit, on every dispatch path.
        let got = matmul_nt_q(&a, &q);
        check::ensure(
            got == reference::matmul_nt(&a, &q.dequantize()),
            format!("quant kernel diverged from dequantized oracle at {m}x{k}x{n}"),
        )?;

        // Approximation contract versus the full-precision product:
        // |ΔC[i][j]| ≤ 0.5 · scale_j · ‖a_i‖₁, plus f32 accumulation
        // slack (both chains round k times on values of similar size).
        let exact = reference::matmul_nt(&a, &w);
        for i in 0..m {
            let l1: f32 = a.row(i).iter().map(|v| v.abs()).sum();
            for j in 0..n {
                let bound = 0.5 * q.scales()[j] * l1 + 1e-4 * l1 + 1e-5;
                let diff = (got[(i, j)] - exact[(i, j)]).abs();
                check::ensure(
                    diff <= bound,
                    format!("quant error {diff} exceeds bound {bound} at ({i},{j}) of {m}x{k}x{n}"),
                )?;
            }
        }
        Ok(())
    });
}

#[test]
fn quantized_serving_predict_within_tolerance_across_thread_counts() {
    // End to end: a trained model served with int8 expert weights must
    // score within the documented tolerance of the f32 path, and the
    // quantized scores themselves must be bit-identical for every
    // thread budget.
    let d = generate(&GeneratorConfig::tiny(53));
    let mut model = MoeModel::new(
        &d.meta,
        MoeConfig {
            n_experts: 6,
            top_k: 2,
            tower: TowerConfig {
                hidden: vec![12, 6],
            },
            ..MoeConfig::adv_hsc_moe()
        },
        OptimConfig::default(),
    );
    let train_batch = Batch::from_split(&d.train, &(0..128).collect::<Vec<_>>());
    for _ in 0..8 {
        model.train_step(&train_batch);
    }
    let quant = QuantizedExperts::from_model(&model);
    let batch = Batch::from_split(&d.test, &(0..64).collect::<Vec<_>>());
    let f32_scores = ServingMoe::new(&model).predict(&batch);

    let mut per_thread = Vec::new();
    for threads in [1usize, 2, 4] {
        pool::set_threads(threads);
        let scores = ServingMoe::with_quantized(&model, &quant).predict(&batch);
        assert_eq!(scores.len(), f32_scores.len());
        for (i, (&qs, &fs)) in scores.iter().zip(&f32_scores).enumerate() {
            assert!(
                (qs - fs).abs() <= QUANT_SCORE_TOLERANCE,
                "score {i} at {threads} threads: quantized {qs} vs f32 {fs} \
                 exceeds tolerance {QUANT_SCORE_TOLERANCE}"
            );
        }
        per_thread.push((threads, scores));
    }
    pool::clear_threads_override();
    let (_, first) = &per_thread[0];
    for (threads, scores) in &per_thread[1..] {
        assert_eq!(
            scores, first,
            "quantized scores diverged at {threads} threads"
        );
    }
}
