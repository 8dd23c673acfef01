//! Property-based tests over the numeric substrate and the core loss
//! invariants, run across randomly generated shapes and values rather
//! than hand-picked cases. Driven by the in-repo seeded harness
//! (`amoe_tensor::check`) so the workspace needs no external crates;
//! failures print a replayable `AMOE_CHECK_SEED`.

use adv_hsc_moe::autograd::Tape;
use adv_hsc_moe::moe::losses::{adversarial_loss, sample_adversarial_mask};
use adv_hsc_moe::tensor::check::{self, ensure, Checker};
use adv_hsc_moe::tensor::{matmul, ops, reduce, topk, Matrix};

#[test]
fn add_commutes() {
    Checker::new("add_commutes").run(|rng| {
        let (r, c) = check::dims(rng, 1, 8);
        let a = check::matrix(rng, r, c, 10.0);
        let b = check::matrix(rng, r, c, 10.0);
        ensure(ops::add(&a, &b) == ops::add(&b, &a), "a + b != b + a")
    });
}

#[test]
fn sub_is_add_of_negation() {
    Checker::new("sub_is_add_of_negation").run(|rng| {
        let (r, c) = check::dims(rng, 1, 8);
        let a = check::matrix(rng, r, c, 10.0);
        let b = check::matrix(rng, r, c, 10.0);
        let lhs = ops::sub(&a, &b);
        let rhs = ops::add(&a, &ops::scale(&b, -1.0));
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            ensure((x - y).abs() <= 1e-5, format!("{x} vs {y}"))?;
        }
        Ok(())
    });
}

#[test]
fn transpose_is_involution() {
    Checker::new("transpose_is_involution").run(|rng| {
        let (r, c) = check::dims(rng, 1, 8);
        let a = check::matrix(rng, r, c, 10.0);
        ensure(
            a.transpose().transpose() == a,
            "transpose twice != identity",
        )
    });
}

#[test]
fn matmul_distributes_over_addition() {
    Checker::new("matmul_distributes_over_addition").run(|rng| {
        let (m, k) = check::dims(rng, 1, 6);
        let (n, _) = check::dims(rng, 1, 6);
        let a = check::matrix(rng, m, k, 3.0);
        let b = check::matrix(rng, k, n, 3.0);
        let c = check::matrix(rng, k, n, 3.0);
        let lhs = matmul::matmul(&a, &ops::add(&b, &c));
        let rhs = ops::add(&matmul::matmul(&a, &b), &matmul::matmul(&a, &c));
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            ensure((x - y).abs() <= 1e-3, format!("{x} vs {y}"))?;
        }
        Ok(())
    });
}

#[test]
fn softmax_rows_is_distribution() {
    Checker::new("softmax_rows_is_distribution").run(|rng| {
        let (r, c) = check::dims(rng, 1, 8);
        let a = check::matrix(rng, r, c, 10.0);
        let s = ops::softmax_rows(&a);
        for row in 0..s.rows() {
            let sum: f32 = s.row(row).iter().sum();
            ensure((sum - 1.0).abs() < 1e-4, format!("row {row} sums to {sum}"))?;
            ensure(
                s.row(row).iter().all(|&v| (0.0..=1.0).contains(&v)),
                "probability outside [0, 1]",
            )?;
        }
        Ok(())
    });
}

#[test]
fn softmax_invariant_to_row_shift() {
    Checker::new("softmax_invariant_to_row_shift").run(|rng| {
        let (r, c) = check::dims(rng, 1, 8);
        let a = check::matrix(rng, r, c, 10.0);
        let shifted = ops::add_scalar(&a, 3.5);
        let s1 = ops::softmax_rows(&a);
        let s2 = ops::softmax_rows(&shifted);
        for (x, y) in s1.as_slice().iter().zip(s2.as_slice()) {
            ensure((x - y).abs() < 1e-5, format!("{x} vs {y}"))?;
        }
        Ok(())
    });
}

#[test]
fn row_sum_equals_total() {
    Checker::new("row_sum_equals_total").run(|rng| {
        let (r, c) = check::dims(rng, 1, 8);
        let a = check::matrix(rng, r, c, 10.0);
        let total: f32 = reduce::sum(&a);
        let via_rows: f32 = reduce::sum(&reduce::row_sum(&a));
        ensure(
            (total - via_rows).abs() <= 1e-3 * (1.0 + total.abs()),
            format!("{total} vs {via_rows}"),
        )
    });
}

#[test]
fn topk_mask_selects_maxima() {
    Checker::new("topk_mask_selects_maxima").run(|rng| {
        let (r, c) = check::dims(rng, 1, 8);
        let a = check::matrix(rng, r, c, 10.0);
        let k = 1 + a.cols() / 2;
        let mask = topk::row_topk_mask(&a, k);
        for row in 0..a.rows() {
            // Every selected value >= every unselected value.
            let selected_min = (0..a.cols())
                .filter(|&col| mask[(row, col)] == 1.0)
                .map(|col| a[(row, col)])
                .fold(f32::INFINITY, f32::min);
            let unselected_max = (0..a.cols())
                .filter(|&col| mask[(row, col)] == 0.0)
                .map(|col| a[(row, col)])
                .fold(f32::NEG_INFINITY, f32::max);
            ensure(
                selected_min >= unselected_max,
                format!("row {row}: kept {selected_min} < dropped {unselected_max}"),
            )?;
        }
        Ok(())
    });
}

#[test]
fn top_k_softmax_is_masked_softmax_rows_bit_for_bit() {
    // Every MoE score takes its mixture weights from `top_k_softmax`;
    // its oracle is the dense tape's cut: `softmax_rows` on the row with
    // every entry outside the top-k set to -inf.
    Checker::new("top_k_softmax_is_masked_softmax_rows").run(|rng| {
        let len = 1 + rng.below(64);
        let mut row = check::matrix(rng, 1, len, 8.0);
        if rng.bernoulli(0.5) {
            // Quantise hard to force ties in the cut.
            row = ops::map(&row, f32::round);
        }
        for k in 1..=len {
            let mut masked = Matrix::filled(1, len, f32::NEG_INFINITY);
            for c in topk::top_k_indices(row.row(0), k) {
                masked[(0, c)] = row[(0, c)];
            }
            let oracle = ops::softmax_rows(&masked);
            let (idx, w) = topk::top_k_softmax(row.row(0), k);
            ensure(
                idx.windows(2).all(|p| p[0] < p[1]),
                format!("k={k}: indices {idx:?} not ascending"),
            )?;
            let mut cut = vec![0f32; len];
            for (c, v) in idx.into_iter().zip(w) {
                cut[c] = v;
            }
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            ensure(
                bits(&cut) == bits(oracle.row(0)),
                format!("k={k}: cut {cut:?} vs masked softmax {:?}", oracle.row(0)),
            )?;
        }
        Ok(())
    });
}

#[test]
fn sigmoid_bounded_and_monotone() {
    Checker::new("sigmoid_bounded_and_monotone").run(|rng| {
        let x = rng.uniform_in(-50.0, 50.0);
        let y = rng.uniform_in(-50.0, 50.0);
        let (sx, sy) = (ops::sigmoid_scalar(x), ops::sigmoid_scalar(y));
        ensure((0.0..=1.0).contains(&sx), format!("sigmoid({x}) = {sx}"))?;
        if x < y {
            ensure(sx <= sy, format!("sigmoid not monotone at {x}, {y}"))?;
        }
        Ok(())
    });
}

#[test]
fn adversarial_loss_nonnegative() {
    Checker::new("adversarial_loss_nonnegative").run(|rng| {
        let logits = rng.normal_matrix(4, 8, 0.0, 2.0);
        let mask = topk::row_topk_mask(&logits, 3);
        let adv = sample_adversarial_mask(&mask, 2, rng);
        let tape = Tape::new();
        let e = tape.leaf(logits);
        let v = adversarial_loss(e, &mask, &adv, 3, 2).value();
        ensure(
            v.as_slice().iter().all(|&x| x >= -1e-5),
            "adversarial loss went negative",
        )
    });
}

#[test]
fn rng_below_uniform_support() {
    Checker::new("rng_below_uniform_support").run(|rng| {
        let n = 1 + rng.below(49);
        let mut child = rng.fork(1);
        for _ in 0..64 {
            let v = child.below(n);
            ensure(v < n, format!("below({n}) returned {v}"))?;
        }
        Ok(())
    });
}

#[test]
fn auc_invariant_to_monotone_transform() {
    Checker::new("auc_invariant_to_monotone_transform").run(|rng| {
        let n = 4 + rng.below(26);
        let scores: Vec<f32> = (0..n).map(|_| rng.uniform_in(-5.0, 5.0)).collect();
        let labels: Vec<bool> = (0..n).map(|_| rng.bernoulli(0.5)).collect();
        let a1 = adv_hsc_moe::metrics::roc_auc(&scores, &labels);
        let transformed: Vec<f32> = scores
            .iter()
            .map(|&s| (s * 0.5).tanh() * 3.0 + 1.0)
            .collect();
        let a2 = adv_hsc_moe::metrics::roc_auc(&transformed, &labels);
        match (a1, a2) {
            (Some(x), Some(y)) => ensure((x - y).abs() < 1e-9, format!("{x} vs {y}")),
            (None, None) => Ok(()),
            _ => Err("definedness changed under monotone transform".to_string()),
        }
    });
}

/// The parallel kernels must agree bitwise with the serial ones on
/// randomly shaped products that straddle the parallel threshold.
#[test]
fn matmul_parallel_serial_agree() {
    use adv_hsc_moe::tensor::pool;
    Checker::new("matmul_parallel_serial_agree")
        .cases(32)
        .run(|rng| {
            let m = 32 + rng.below(96);
            let k = 16 + rng.below(64);
            let n = 16 + rng.below(64);
            let a = check::matrix(rng, m, k, 2.0);
            let b = check::matrix(rng, k, n, 2.0);
            pool::set_threads(1);
            let serial = matmul::matmul(&a, &b);
            pool::set_threads(1 + rng.below(8));
            let parallel = matmul::matmul(&a, &b);
            pool::clear_threads_override();
            ensure(serial == parallel, "parallel matmul diverged from serial")
        });
}

/// Smoke check that the default RNG plumbing in the harness is live.
#[test]
fn checker_rngs_are_decorrelated_across_cases() {
    let mut firsts: Vec<u64> = Vec::new();
    Checker::new("checker_rng_stream").cases(16).run(|rng| {
        firsts.push(rng.next_u64());
        Ok(())
    });
    firsts.sort_unstable();
    firsts.dedup();
    assert_eq!(firsts.len(), 16, "case seeds collided");
}
