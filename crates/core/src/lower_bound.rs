//! Lower bounds on the optimal makespan (§IV-C).
//!
//! The paper's bound (Eq. 1) lets every task take its globally cheapest
//! configuration (`time_i = min_h w_h · |h ∩ V2|`) and spreads the total
//! work perfectly over the `p` processors:
//!
//! ```text
//! LB = (1/p) · Σ_i time_i
//! ```
//!
//! We additionally take the maximum with two trivial bounds — some task
//! must pay at least its cheapest per-processor time, and loads are
//! integral — and report `⌈·⌉` since all weights are integers. The bound
//! is written once over [`Configs`]: on a bipartite instance every
//! configuration is one processor, so `time_i = min_e w(e)`.
//!
//! The same counting argument lower-bounds every sum-type
//! [`Objective`]: any semi-matching occupies at least
//! `W = Σ_i time_i` units of total processor time, and a convex
//! per-processor cost summed over `p` processors is minimized by the
//! balanced load vector spreading `W` — see [`lower_bound_objective`].
//! For [`Objective::FlowTime`] this is the natural flow-time analogue of
//! Eq. 1.

#![deny(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)]

use semimatch_graph::{Bipartite, Configs, Hypergraph};

use crate::error::{CoreError, Result};
use crate::objective::{balanced_score, Objective, Score};

/// The paper's Eq. 1 for `MULTIPROC`, as an exact rational `⌈Σ time_i / p⌉`,
/// combined with the single-task bound `max_i min_h w_h`.
pub fn lower_bound_multiproc(h: &Hypergraph) -> Result<u64> {
    eq1(h)
}

/// The same bound for `SINGLEPROC`: `time_i = min_e w(e)`.
pub fn lower_bound_singleproc(g: &Bipartite) -> Result<u64> {
    eq1(g)
}

/// Lower bound on the optimal score under any [`Objective`], for either
/// class.
///
/// [`Objective::Makespan`] is Eq. 1. For the sum-type objectives, every
/// semi-matching occupies at least `W = Σ_i time_i` units of total
/// processor time (each task's cheapest configuration by `w_h · |h|`),
/// and the convex per-processor cost summed over `p` processors is
/// minimized by the balanced spread of `W` — so
/// `balanced_score(objective, W, p)` is a valid floor, with the flow-time
/// case doubling as the repository's flow-time lower bound.
pub fn lower_bound_objective<G: Configs>(g: &G, objective: Objective) -> Result<Score> {
    if objective.is_bottleneck() {
        return Ok(Score(u128::from(eq1(g)?)));
    }
    let (total, _) = work(g)?;
    Ok(balanced_score(objective, total, u64::from(g.n_procs().max(1))))
}

/// The least total processor time `time_t = min_c w_c · |c|` task `t` can
/// occupy. The product is taken in `u128`: `w_c · |c|` can exceed `u64`
/// even when every processor load fits.
pub(crate) fn task_time<G: Configs>(g: &G, t: u32) -> Result<u128> {
    g.configs(t)
        .map(|c| u128::from(g.weight(c)) * g.pins(c).len() as u128)
        .min()
        .ok_or(CoreError::UncoveredTask(t))
}

/// Eq. 1: `max(⌈Σ_i time_i / p⌉, max_i min_c w_c)`.
fn eq1<G: Configs>(g: &G) -> Result<u64> {
    let (total, single_task) = work(g)?;
    let p = u128::from(g.n_procs().max(1));
    // Saturate rather than truncate: `total` is a u128 sum of per-task times,
    // so the averaged bound can exceed u64 on adversarial inputs; u64::MAX is
    // still a valid makespan floor.
    let averaged = u64::try_from(total.div_ceil(p)).unwrap_or(u64::MAX);
    Ok(averaged.max(single_task))
}

/// `(Σ_i time_i, max_i min_c w_c)`.
fn work<G: Configs>(g: &G) -> Result<(u128, u64)> {
    let mut total: u128 = 0;
    let mut single_task = 0u64;
    for t in 0..g.n_tasks() {
        total += task_time(g, t)?;
        let cheapest =
            g.configs(t).map(|c| g.weight(c)).min().expect("task_time rejects uncovered tasks");
        single_task = single_task.max(cheapest);
    }
    Ok((total, single_task))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_bipartite_bound_is_ceil_n_over_p() {
        // 5 unit tasks, 2 processors → ⌈5/2⌉ = 3.
        let g =
            Bipartite::from_edges(5, 2, &[(0, 0), (1, 0), (2, 1), (3, 1), (4, 0), (4, 1)]).unwrap();
        assert_eq!(lower_bound_singleproc(&g).unwrap(), 3);
    }

    #[test]
    fn single_heavy_task_dominates() {
        let g = Bipartite::from_weighted_edges(2, 4, &[(0, 0), (1, 1)], &[100, 1]).unwrap();
        // Averaged bound would be ⌈101/4⌉ = 26, but task 0 costs 100 anywhere.
        assert_eq!(lower_bound_singleproc(&g).unwrap(), 100);
    }

    #[test]
    fn multiproc_uses_cheapest_total_work() {
        // One task: {P0} at weight 6 (work 6) or {P0,P1,P2} at weight 3
        // (work 9). time = 6; LB = max(⌈6/3⌉, 3) = 3 (cheapest per-proc
        // weight is 3).
        let h = Hypergraph::from_hyperedges(1, 3, vec![(0, vec![0], 6), (0, vec![0, 1, 2], 3)])
            .unwrap();
        assert_eq!(lower_bound_multiproc(&h).unwrap(), 3);
    }

    /// Regression: `w_h · |h|` overflowed `u64` here (a debug panic, a
    /// wrapped bound in release) although the single processor load fits.
    #[test]
    fn multiproc_work_is_exact_beyond_u64() {
        let w = 1u64 << 63;
        let h = Hypergraph::from_hyperedges(1, 4, vec![(0, vec![0, 1, 2, 3], w)]).unwrap();
        assert_eq!(lower_bound_multiproc(&h).unwrap(), w);
        assert_eq!(lower_bound_objective(&h, Objective::WeightedLoad).unwrap().0, 4 * w as u128);
    }

    #[test]
    fn uncovered_task_is_an_error() {
        let h = Hypergraph::from_hyperedges(2, 1, vec![(0, vec![0], 1)]).unwrap();
        assert_eq!(lower_bound_multiproc(&h).unwrap_err(), CoreError::UncoveredTask(1));
        let g = Bipartite::from_edges(2, 1, &[(0, 0)]).unwrap();
        assert_eq!(lower_bound_singleproc(&g).unwrap_err(), CoreError::UncoveredTask(1));
    }

    #[test]
    fn bound_never_exceeds_any_feasible_makespan() {
        use crate::problem::HyperMatching;
        let h = Hypergraph::from_hyperedges(
            3,
            2,
            vec![
                (0, vec![0], 2),
                (0, vec![0, 1], 1),
                (1, vec![1], 3),
                (2, vec![0], 1),
                (2, vec![1], 4),
            ],
        )
        .unwrap();
        let lb = lower_bound_multiproc(&h).unwrap();
        // Enumerate all semi-matchings: 2 × 1 × 2 choices.
        for c0 in [0u32, 1] {
            for c2 in [3u32, 4] {
                let hm = HyperMatching { hedge_of: vec![c0, 2, c2] };
                hm.validate(&h).unwrap();
                assert!(hm.makespan(&h) >= lb);
            }
        }
    }

    #[test]
    fn empty_instance() {
        let h = Hypergraph::from_hyperedges(0, 4, vec![]).unwrap();
        assert_eq!(lower_bound_multiproc(&h).unwrap(), 0);
        assert_eq!(lower_bound_objective(&h, Objective::FlowTime).unwrap(), Score(0));
    }

    /// The degenerate corners of the balanced-spread bound: zero tasks,
    /// zero processors, and both at once must yield a defined `Score(0)`
    /// for every objective (never a division by zero), and a task without
    /// processors is an `UncoveredTask` error before any division runs.
    #[test]
    fn objective_bounds_are_defined_on_degenerate_instances() {
        let empty_g = Bipartite::from_edges(0, 0, &[]).unwrap();
        let no_task_g = Bipartite::from_edges(0, 3, &[]).unwrap();
        let empty_h = Hypergraph::from_hyperedges(0, 0, vec![]).unwrap();
        let no_task_h = Hypergraph::from_hyperedges(0, 2, vec![]).unwrap();
        for obj in Objective::REPORTED {
            assert_eq!(lower_bound_objective(&empty_g, obj).unwrap(), Score(0), "{obj}");
            assert_eq!(lower_bound_objective(&no_task_g, obj).unwrap(), Score(0), "{obj}");
            assert_eq!(lower_bound_objective(&empty_h, obj).unwrap(), Score(0), "{obj}");
            assert_eq!(lower_bound_objective(&no_task_h, obj).unwrap(), Score(0), "{obj}");
        }
        let uncovered_g = Bipartite::from_edges(1, 0, &[]).unwrap();
        let uncovered_h = Hypergraph::from_hyperedges(1, 0, vec![]).unwrap();
        for obj in Objective::REPORTED {
            assert_eq!(
                lower_bound_objective(&uncovered_g, obj).unwrap_err(),
                CoreError::UncoveredTask(0),
                "{obj}"
            );
            assert_eq!(
                lower_bound_objective(&uncovered_h, obj).unwrap_err(),
                CoreError::UncoveredTask(0),
                "{obj}"
            );
        }
    }

    #[test]
    fn flowtime_bound_is_the_balanced_spread() {
        // 5 unit tasks, 2 processors → balanced loads (3, 2) → 6 + 3 = 9.
        let g =
            Bipartite::from_edges(5, 2, &[(0, 0), (1, 0), (2, 1), (3, 1), (4, 0), (4, 1)]).unwrap();
        assert_eq!(lower_bound_objective(&g, Objective::FlowTime).unwrap(), Score(9));
        // The makespan arm delegates to Eq. 1.
        assert_eq!(
            lower_bound_objective(&g, Objective::Makespan).unwrap(),
            Score(lower_bound_singleproc(&g).unwrap() as u128)
        );
    }

    #[test]
    fn objective_bounds_never_exceed_any_feasible_score() {
        use crate::problem::HyperMatching;
        let h = Hypergraph::from_hyperedges(
            3,
            2,
            vec![
                (0, vec![0], 2),
                (0, vec![0, 1], 1),
                (1, vec![1], 3),
                (2, vec![0], 1),
                (2, vec![1], 4),
            ],
        )
        .unwrap();
        for obj in Objective::REPORTED {
            let lb = lower_bound_objective(&h, obj).unwrap();
            for c0 in [0u32, 1] {
                for c2 in [3u32, 4] {
                    let hm = HyperMatching { hedge_of: vec![c0, 2, c2] };
                    assert!(hm.score(&h, obj) >= lb, "{obj}: {c0},{c2}");
                }
            }
        }
    }

    #[test]
    fn objective_bound_rejects_uncovered_tasks() {
        let h = Hypergraph::from_hyperedges(2, 1, vec![(0, vec![0], 1)]).unwrap();
        assert_eq!(
            lower_bound_objective(&h, Objective::FlowTime).unwrap_err(),
            CoreError::UncoveredTask(1)
        );
        let g = Bipartite::from_edges(2, 1, &[(0, 0)]).unwrap();
        assert_eq!(
            lower_bound_objective(&g, Objective::FlowTime).unwrap_err(),
            CoreError::UncoveredTask(1)
        );
    }
}
