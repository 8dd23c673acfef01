//! Top-k selection per row — the primitive behind noisy top-K gating.

use crate::Matrix;

/// Indices of the `k` largest values in `row`, in descending value order.
/// Ties are broken by smaller index first (deterministic).
///
/// Uses partial selection (`select_nth_unstable_by` to split off the
/// winning `k`, then a sort of that prefix only), so the gate hot path
/// pays `O(n + k log k)` per row instead of a full `O(n log n)` sort.
/// The comparator is a strict total order (descending value, ties by
/// ascending index), so the output is *identical* to fully sorting the
/// row and truncating — the partial and full algorithms cannot disagree
/// on membership or order.
///
/// # Panics
/// Panics if `k == 0`, `k > row.len()`, or the row contains NaN.
#[must_use]
pub fn top_k_indices(row: &[f32], k: usize) -> Vec<usize> {
    let mut idx = Vec::with_capacity(row.len());
    top_k_indices_into(row, k, &mut idx);
    idx
}

/// [`top_k_indices`] into `idx`'s reused buffer (its old contents are
/// discarded).
fn top_k_indices_into(row: &[f32], k: usize, idx: &mut Vec<usize>) {
    assert!(
        k > 0 && k <= row.len(),
        "top_k_indices: k={k} out of range for row of {}",
        row.len()
    );
    let cmp = |&a: &usize, &b: &usize| {
        row[b]
            .partial_cmp(&row[a])
            .expect("top_k_indices: NaN in row")
            .then(a.cmp(&b))
    };
    idx.clear();
    idx.extend(0..row.len());
    if k < idx.len() {
        idx.select_nth_unstable_by(k - 1, cmp);
        idx.truncate(k);
    }
    idx.sort_unstable_by(cmp);
}

/// The top-`k` cut of one gate row (Eq. 6–7 of the paper): the indices
/// of the `k` largest values in **ascending** index order, and the
/// softmax over those values only, one weight per index.
///
/// The exps are summed in column order starting from `0.0` and then
/// scaled by `1 / sum`: exactly what [`crate::ops::softmax_rows`]
/// computes on the row with every other entry set to `-inf`, so the
/// weights equal that oracle's nonzero entries bit for bit. Every MoE
/// score (serving, evaluation, extraction) takes its mixture weights
/// from here.
///
/// # Panics
/// Same contract as [`top_k_indices`].
#[must_use]
pub fn top_k_softmax(row: &[f32], k: usize) -> (Vec<usize>, Vec<f32>) {
    let mut idx = top_k_indices(row, k);
    let max = row[idx[0]];
    idx.sort_unstable();
    let mut weights: Vec<f32> = idx.iter().map(|&c| (row[c] - max).exp()).collect();
    let mut sum = 0.0;
    for &e in &weights {
        sum += e;
    }
    let inv = 1.0 / sum;
    weights.iter_mut().for_each(|w| *w *= inv);
    (idx, weights)
}

/// A 0/1 mask matrix with ones at the top-`k` entries of each row of `a`.
#[must_use]
pub fn row_topk_mask(a: &Matrix, k: usize) -> Matrix {
    let mut mask = Matrix::zeros(a.rows(), a.cols());
    let mut idx = Vec::with_capacity(a.cols());
    for r in 0..a.rows() {
        top_k_indices_into(a.row(r), k, &mut idx);
        for &c in &idx {
            mask[(r, c)] = 1.0;
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_largest_descending() {
        let row = [0.1, 5.0, -2.0, 3.0, 4.0];
        assert_eq!(top_k_indices(&row, 3), vec![1, 4, 3]);
    }

    #[test]
    fn ties_break_by_index() {
        let row = [2.0, 2.0, 2.0];
        assert_eq!(top_k_indices(&row, 2), vec![0, 1]);
    }

    #[test]
    fn k_equals_len() {
        let row = [1.0, 3.0, 2.0];
        assert_eq!(top_k_indices(&row, 3), vec![1, 2, 0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn k_zero_panics() {
        let _ = top_k_indices(&[1.0], 0);
    }

    /// The pre-optimisation implementation: full sort, then truncate.
    /// Kept as the test oracle for the partial-selection fast path.
    fn top_k_indices_full_sort(row: &[f32], k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..row.len()).collect();
        idx.sort_by(|&a, &b| {
            row[b]
                .partial_cmp(&row[a])
                .expect("top_k_indices: NaN in row")
                .then(a.cmp(&b))
        });
        idx.truncate(k);
        idx
    }

    #[test]
    fn partial_selection_matches_full_sort() {
        // Pseudo-random rows (LCG; no external crates) across lengths
        // and k values, plus heavy ties — membership AND order must
        // match the old full-sort implementation exactly.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        for len in [1usize, 2, 3, 7, 16, 64] {
            for trial in 0..20 {
                let row: Vec<f32> = (0..len)
                    .map(|_| {
                        let v = next();
                        // Every third trial quantises hard to force ties.
                        if trial % 3 == 0 {
                            (v * 4.0).round() / 4.0
                        } else {
                            v
                        }
                    })
                    .collect();
                for k in 1..=len {
                    assert_eq!(
                        top_k_indices(&row, k),
                        top_k_indices_full_sort(&row, k),
                        "len={len} k={k} row={row:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn partial_selection_matches_full_sort_on_all_equal() {
        let row = [1.5f32; 9];
        for k in 1..=9 {
            assert_eq!(
                top_k_indices(&row, k),
                top_k_indices_full_sort(&row, k),
                "k={k}"
            );
            assert_eq!(top_k_indices(&row, k), (0..k).collect::<Vec<_>>());
        }
    }

    #[test]
    #[should_panic(expected = "NaN in row")]
    fn nan_still_panics_with_partial_selection() {
        let _ = top_k_indices(&[1.0, f32::NAN, 2.0, 0.5], 2);
    }

    #[test]
    fn mask_has_k_ones_per_row() {
        let a = Matrix::from_rows(&[&[1., 4., 2., 3.], &[9., 1., 8., 7.]]);
        let m = row_topk_mask(&a, 2);
        for r in 0..2 {
            let ones: f32 = m.row(r).iter().sum();
            assert_eq!(ones, 2.0);
        }
        assert_eq!(m[(0, 1)], 1.0);
        assert_eq!(m[(0, 3)], 1.0);
        assert_eq!(m[(1, 0)], 1.0);
        assert_eq!(m[(1, 2)], 1.0);
    }

    #[test]
    fn cut_is_ascending_and_sums_to_one() {
        let (idx, w) = top_k_softmax(&[1., 4., 2., 3.], 2);
        assert_eq!(idx, vec![1, 3]);
        assert!(w[0] > w[1]);
        assert!((w.iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }
}
