//! The balanced exact kind (`SolverKind::MinCostFlow`, `mcf`).
//!
//! `mcf` returns an assignment that is optimal under every reported
//! objective at once, built from the other exact kinds' parts:
//!
//! * **Unit instances:** [`hk_semi_in`] finds a makespan-optimal
//!   assignment, and the Harvey–Ladner–Lovász–Tamir cost-reducing-path
//!   descent ([`harvey::optimize`]) takes it to a flow-time optimum. The
//!   flow-time optimum's sorted load profile is unique and
//!   majorization-minimal, so the result is simultaneously optimal for
//!   the makespan and every symmetric convex objective: the assignment a
//!   min-cost flow over convex unit-arc bundles would route, up to ties.
//! * **Weighted instances:** under [`Objective::WeightedLoad`] (and
//!   `L_1`, the same sum `Σ_u l(u)`) the total cost separates per task, so the current-load loop keyed by the
//!   marginal total load gives every task its cheapest edge, which is
//!   exact. The remaining objectives on weighted instances are out of
//!   reach for *any* polynomial backend (they embed PARTITION), so they
//!   report [`CoreError::RequiresUnitWeights`].

use semimatch_graph::Bipartite;
use semimatch_matching::SearchWorkspace;

use crate::error::{CoreError, Result};
use crate::exact::harvey;
use crate::exact::hk_semi::hk_semi_in;
use crate::exact::unit::ExactResult;
use crate::greedy::{current_load, Key};
use crate::objective::Objective;
use crate::problem::SemiMatching;

/// Balanced exact optimum, throwaway scratch.
///
/// Errors with [`CoreError::RequiresUnitWeights`] on weighted instances
/// (use [`mcf_objective_in`] with [`Objective::WeightedLoad`] for the
/// weighted exact path) and [`CoreError::UncoveredTask`] when some task
/// has no processor.
pub fn mcf(g: &Bipartite) -> Result<ExactResult> {
    mcf_in(g, &mut SearchWorkspace::new())
}

/// [`mcf`] drawing hk-semi's phase scratch from `ws`. `oracle_calls`
/// reports hk-semi's phases; the descent keeps the optimal makespan.
pub fn mcf_in(g: &Bipartite, ws: &mut SearchWorkspace) -> Result<ExactResult> {
    let r = hk_semi_in(g, ws)?;
    Ok(ExactResult { solution: harvey::optimize(g, r.solution), ..r })
}

/// The objective-aware dispatch behind the registry's `mcf` entry.
///
/// * unit instance, or [`Objective::Makespan`] → [`mcf_in`],
///   simultaneously optimal for every [`Objective::REPORTED`] member;
/// * weighted + [`Objective::WeightedLoad`] or `L_1` → every task on its
///   cheapest edge, exact for the total occupied load;
/// * weighted + anything else → [`CoreError::RequiresUnitWeights`].
pub fn mcf_objective_in(
    g: &Bipartite,
    objective: Objective,
    ws: &mut SearchWorkspace,
) -> Result<SemiMatching> {
    if g.is_unit() || objective.is_bottleneck() {
        return Ok(mcf_in(g, ws)?.solution);
    }
    if let Some(v) = (0..g.n_left()).find(|&v| g.deg_left(v) == 0) {
        return Err(CoreError::UncoveredTask(v));
    }
    match objective {
        Objective::WeightedLoad | Objective::LpNorm(1) => {
            let key = Key::Marginal(Objective::WeightedLoad);
            Ok(SemiMatching { edge_of: current_load(g, false, key, |_| 0)? })
        }
        _ => Err(CoreError::RequiresUnitWeights),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::brute_force::brute_force_singleproc_objective;
    use crate::exact::unit::{exact_unit, SearchStrategy};
    use crate::solver::BRUTE_FORCE_BUDGET;

    #[test]
    fn one_flow_matches_the_deadline_search() {
        type Case = (u32, u32, Vec<(u32, u32)>);
        let cases: &[Case] = &[
            (2, 2, vec![(0, 0), (0, 1), (1, 0)]),
            (5, 1, vec![(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]),
            (7, 4, vec![(0, 0), (1, 0), (2, 0), (3, 1), (3, 2), (4, 2), (5, 3), (6, 3), (6, 0)]),
        ];
        for (n1, n2, edges) in cases {
            let g = Bipartite::from_edges(*n1, *n2, edges).unwrap();
            let r = mcf(&g).unwrap();
            r.solution.validate(&g).unwrap();
            assert_eq!(r.solution.makespan(&g), r.makespan);
            assert_eq!(r.makespan, exact_unit(&g, SearchStrategy::Incremental).unwrap().makespan);
        }
    }

    #[test]
    fn unit_instances_are_simultaneously_optimal() {
        let g = Bipartite::from_edges(
            6,
            3,
            &[(0, 0), (0, 1), (1, 0), (2, 1), (2, 2), (3, 2), (4, 0), (4, 2), (5, 1)],
        )
        .unwrap();
        let mut ws = SearchWorkspace::new();
        for obj in Objective::REPORTED {
            let sm = mcf_objective_in(&g, obj, &mut ws).unwrap();
            sm.validate(&g).unwrap();
            // Whatever it was solved for, the answer is optimal for all.
            for scored in Objective::REPORTED {
                let (opt, _) =
                    brute_force_singleproc_objective(&g, BRUTE_FORCE_BUDGET, scored).unwrap();
                assert_eq!(sm.score(&g, scored), opt, "solved for {obj}, scored under {scored}");
            }
        }
    }

    #[test]
    fn weighted_total_load_is_exact() {
        // Weighted instance where per-task cheapest edges collide on one
        // processor — irrelevant for total load, which has no capacity
        // coupling; the exact answer is the sum of per-task minima.
        let g = Bipartite::from_weighted_edges(
            3,
            2,
            &[(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)],
            &[2, 5, 1, 7, 3],
        )
        .unwrap();
        let mut ws = SearchWorkspace::new();
        for obj in [Objective::WeightedLoad, Objective::LpNorm(1)] {
            let sm = mcf_objective_in(&g, obj, &mut ws).unwrap();
            sm.validate(&g).unwrap();
            let (opt, _) = brute_force_singleproc_objective(&g, BRUTE_FORCE_BUDGET, obj).unwrap();
            assert_eq!(sm.score(&g, obj), opt, "{obj}");
            assert_eq!(sm.score(&g, obj).as_u64(), 2 + 1 + 3, "{obj}");
        }
    }

    #[test]
    fn weighted_other_objectives_refuse() {
        let g = Bipartite::from_weighted_edges(1, 1, &[(0, 0)], &[2]).unwrap();
        let mut ws = SearchWorkspace::new();
        assert_eq!(mcf(&g).unwrap_err(), CoreError::RequiresUnitWeights);
        for obj in [Objective::Makespan, Objective::FlowTime, Objective::LpNorm(2)] {
            assert_eq!(
                mcf_objective_in(&g, obj, &mut ws).unwrap_err(),
                CoreError::RequiresUnitWeights,
                "{obj}"
            );
        }
    }

    #[test]
    fn preconditions_and_empty() {
        let u = Bipartite::from_edges(2, 1, &[(0, 0)]).unwrap();
        assert_eq!(mcf(&u).unwrap_err(), CoreError::UncoveredTask(1));
        let mut ws = SearchWorkspace::new();
        let uw = Bipartite::from_weighted_edges(2, 1, &[(0, 0)], &[3]).unwrap();
        assert_eq!(
            mcf_objective_in(&uw, Objective::WeightedLoad, &mut ws).unwrap_err(),
            CoreError::UncoveredTask(1)
        );
        assert_eq!(
            mcf_objective_in(&uw, Objective::Makespan, &mut ws).unwrap_err(),
            CoreError::RequiresUnitWeights
        );
        let e = Bipartite::from_edges(0, 3, &[]).unwrap();
        assert_eq!(mcf(&e).unwrap().makespan, 0);
    }
}
