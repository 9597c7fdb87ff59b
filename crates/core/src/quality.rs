//! Quality metrics and the paper's median-of-10 aggregation.

#![deny(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)]

use crate::objective::Score;

/// `makespan / lower_bound` as a real ratio (the entries of Tables II/III).
///
/// A zero lower bound (an empty instance) is guarded: `0 / 0` reads as a
/// perfect 1.0 and any positive makespan over a zero bound as `+∞`, so no
/// NaN ever propagates into bench tables or their averages.
pub fn ratio(makespan: u64, lower_bound: u64) -> f64 {
    if lower_bound == 0 {
        if makespan == 0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        makespan as f64 / lower_bound as f64
    }
}

/// [`ratio`] over objective [`Score`]s (flow-time gap columns and the
/// `--objective` comparison tables), with the same zero-bound guard.
pub fn score_ratio(score: Score, lower_bound: Score) -> f64 {
    if lower_bound.0 == 0 {
        if score.0 == 0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        score.as_f64() / lower_bound.as_f64()
    }
}

/// Median of a sample (averaging the middle pair for even sizes), as the
/// paper reports for its ten instances per configuration.
pub fn median_f64(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty(), "median of empty sample");
    xs.sort_unstable_by(|a, b| a.total_cmp(b));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Median of integer samples, rounding the midpoint of the middle pair
/// toward the smaller value (matches how integer columns like `|N|` in
/// Table I read).
pub fn median_u64(xs: &mut [u64]) -> u64 {
    assert!(!xs.is_empty(), "median of empty sample");
    xs.sort_unstable();
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2
    }
}

/// Arithmetic mean.
pub fn mean_f64(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of empty sample");
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_basics() {
        assert!((ratio(14, 10) - 1.4).abs() < 1e-12);
        assert_eq!(ratio(0, 0), 1.0);
        assert!(ratio(5, 0).is_infinite());
    }

    #[test]
    fn ratios_never_produce_nan() {
        // The zero-bound guard: aggregating any mix of guarded ratios must
        // stay NaN-free (NaN would poison medians and averages silently).
        for (m, lb) in [(0u64, 0u64), (5, 0), (0, 5), (7, 3)] {
            assert!(!ratio(m, lb).is_nan(), "ratio({m}, {lb})");
            assert!(
                !score_ratio(Score(m as u128), Score(lb as u128)).is_nan(),
                "score_ratio({m}, {lb})"
            );
        }
        assert_eq!(score_ratio(Score(0), Score(0)), 1.0);
        assert!(score_ratio(Score(9), Score(0)).is_infinite());
        assert!((score_ratio(Score(9), Score(6)) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median_u64(&mut [3, 1, 2]), 2);
        assert_eq!(median_u64(&mut [4, 1, 2, 3]), 2);
        assert!((median_f64(&mut [1.0, 9.0, 5.0]) - 5.0).abs() < 1e-12);
        assert!((median_f64(&mut [1.0, 2.0, 3.0, 4.0]) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn median_is_order_free() {
        let mut a = [5u64, 1, 4, 2, 3];
        let mut b = [3u64, 4, 2, 1, 5];
        assert_eq!(median_u64(&mut a), median_u64(&mut b));
    }

    #[test]
    fn mean_basics() {
        assert!((mean_f64(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "median of empty sample")]
    fn empty_median_panics() {
        median_f64(&mut []);
    }
}
