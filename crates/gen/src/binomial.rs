//! Binomial degree sampling.
//!
//! Both random generator families of §V-A determine vertex degrees by
//! "sampling from a binomial distribution with mean d". We realize the mean
//! as `B(2d, 1/2)`, sampled exactly by counting set bits in `2d` random
//! bits — cheap, unbiased, and dependency-free. Degrees are clamped to a
//! minimum of 1 so that no task is left without any configuration (a task
//! with zero eligible processors has no schedule; see DESIGN.md §3).

use crate::rng::Xoshiro256;

/// One draw from `B(n, 1/2)` (popcount of `n` random bits, exact).
pub fn binomial_half(rng: &mut Xoshiro256, n: u32) -> u32 {
    let mut remaining = n;
    let mut total = 0u32;
    while remaining > 0 {
        let take = remaining.min(64);
        let mask = if take == 64 { u64::MAX } else { (1u64 << take) - 1 };
        total += (rng.next() & mask).count_ones();
        remaining -= take;
    }
    total
}

/// Degree sample with mean `mean`: `max(1, B(2·mean, 1/2))`.
///
/// # Panics
///
/// If `2·mean` exceeds `u32::MAX`.
pub fn degree_with_mean(rng: &mut Xoshiro256, mean: u32) -> u32 {
    let trials = mean.checked_mul(2).expect("2·mean binomial trials fit in u32");
    binomial_half(rng, trials).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_trials_is_zero() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        assert_eq!(binomial_half(&mut rng, 0), 0);
    }

    #[test]
    fn bounded_by_trials() {
        let mut rng = Xoshiro256::seed_from_u64(2);
        for _ in 0..100 {
            let x = binomial_half(&mut rng, 20);
            assert!(x <= 20);
        }
    }

    #[test]
    fn mean_is_close() {
        let mut rng = Xoshiro256::seed_from_u64(3);
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| binomial_half(&mut rng, 20) as u64).sum();
        let mean = sum as f64 / n as f64;
        // E = 10, sd of the mean ≈ 2.24/√20000 ≈ 0.016.
        assert!((mean - 10.0).abs() < 0.15, "sample mean {mean}");
    }

    #[test]
    fn large_trial_counts_split_words() {
        let mut rng = Xoshiro256::seed_from_u64(4);
        let x = binomial_half(&mut rng, 200);
        assert!(x <= 200);
        // Extremely unlikely to be near the tails.
        assert!(x > 50 && x < 150);
    }

    #[test]
    fn degree_clamped_to_one() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        for _ in 0..2000 {
            assert!(degree_with_mean(&mut rng, 1) >= 1);
        }
    }

    #[test]
    fn degree_mean_matches_parameter() {
        let mut rng = Xoshiro256::seed_from_u64(6);
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| degree_with_mean(&mut rng, 5) as u64).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "sample mean {mean}");
    }
}
