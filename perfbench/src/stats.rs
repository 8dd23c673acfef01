//! Order statistics over measured samples.

use std::time::Instant;

/// Nearest-rank quantile (`q` in `0..=1`); `None` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

/// Median, averaging the two middle samples of an even-sized set.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    })
}

/// Tail windows per run: a host stall inside one window moves the
/// median of the window tails much less than one pooled tail.
const TAIL_WINDOWS: usize = 4;
/// Samples a window needs so that ten lie beyond its p99.
const TAIL_WINDOW_MIN: usize = 1000;

/// p99 as the median over up to [`TAIL_WINDOWS`] consecutive
/// equal-count windows (ordered by `at`) of each window's p99, plus the
/// fewest samples any window ranks beyond its p99. With fewer than
/// [`TAIL_WINDOW_MIN`] samples it is the pooled p99.
pub fn windowed_p99(at: &[Instant], values: &[f64]) -> Option<(f64, usize)> {
    assert_eq!(at.len(), values.len(), "one timestamp per sample");
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by_key(|&i| at[i]);
    let windows = (values.len() / TAIL_WINDOW_MIN).clamp(1, TAIL_WINDOWS);
    let per = values.len() / windows;
    let mut tails = Vec::with_capacity(windows);
    let mut fewest_beyond = usize::MAX;
    for w in 0..windows {
        let end = if w + 1 == windows {
            values.len()
        } else {
            (w + 1) * per
        };
        let chunk: Vec<f64> = order[w * per..end].iter().map(|&i| values[i]).collect();
        let p99 = quantile(&chunk, 0.99)?;
        let rank = (0.99 * chunk.len() as f64).ceil() as usize;
        fewest_beyond = fewest_beyond.min(chunk.len() - rank);
        tails.push(p99);
    }
    Some((median(&tails)?, fewest_beyond))
}

/// Microseconds in a duration, as a float.
pub fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(quantile(&v, 1.0), Some(100.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn windowed_p99_takes_the_median_window_tail() {
        let t0 = Instant::now();
        let at: Vec<Instant> = (0..4000u64)
            .map(|i| t0 + std::time::Duration::from_micros(i))
            .collect();
        // A stall in the first window only: its tail must not decide.
        let values: Vec<f64> = (0..4000)
            .map(|i| if i < 40 { 1e6 } else { f64::from(i % 1000) })
            .collect();
        let (p99, beyond) = windowed_p99(&at, &values).unwrap();
        assert_eq!(p99, 989.0);
        assert_eq!(beyond, 10);
        assert_eq!(
            windowed_p99(&at[..10], &values[..10]).map(|r| r.0),
            Some(1e6)
        );
    }

    #[test]
    fn median_of_even_set_averages_the_middle() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }
}
