//! Greedy heuristics for `MULTIPROC` (§IV-D).
//!
//! | heuristic | criterion on candidate hyperedge `h` of task `v` |
//! |---|---|
//! | [`sgh::sorted_greedy_hyp`] | min `max_{u∈h} l(u)` (Algorithm 4) |
//! | [`egh::expected_greedy_hyp`] | min `max_{u∈h} o(u)` (Algorithm 5) |
//! | [`vgh::vector_greedy_hyp`] | lexicographically smallest resulting load vector |
//! | [`evg::expected_vector_greedy_hyp`] | lexicographically smallest tentative expected-load vector |
//!
//! All visit tasks by non-decreasing number of configurations. The vector
//! heuristics come in a naive `O(d_v · |V2| log |V2|)`-per-task form
//! (direct transcription) and in the sorted-list/multiset-difference form
//! sketched at the end of §IV-D3; both are exposed and property-tested
//! equal.
//!
//! SGH and EGH are the loops of sorted- and expected-greedy, written once
//! over [`semimatch_graph::Configs`]: a bipartite edge is a
//! one-processor configuration, so the `SINGLEPROC` heuristics run the
//! same code on singletons. The current-load loop also serves
//! [`crate::online`] (input order) and the
//! [`sgh::sorted_greedy_hyp_resulting`] ablation (resulting bottleneck).
//!
//! Under a sum-type objective (flow time, `L_p`, total load) a bottleneck
//! key no longer ranks the myopically best choice; the registry then runs
//! the SGH loop (for SGH and VGH) and the EGH loop (for EGH and EVG) with
//! the total marginal cost `Σ_{u∈h} (cost(l(u) + w_h) − cost(l(u)))` as the
//! key, over the current and the expected loads respectively.

pub mod egh;
pub mod evg;
pub mod lex;
pub mod sgh;
pub mod vgh;

#[cfg(test)]
mod tests {
    use semimatch_graph::Hypergraph;

    use crate::error::CoreError;
    use crate::greedy::expected::expected_greedy_with;
    use crate::greedy::{current_load, tasks_by_degree, Key};
    use crate::objective::Objective;
    use crate::solver::SolverKind;

    #[test]
    fn order_is_stable_by_degree() {
        let h = Hypergraph::from_configs(
            2,
            &[
                vec![vec![0], vec![1]],
                vec![vec![0]],
                vec![vec![1], vec![0], vec![0, 1]],
                vec![vec![0]],
            ],
        )
        .unwrap();
        assert_eq!(tasks_by_degree(&h), vec![1, 3, 0, 2]);
    }

    #[test]
    fn labels_match_paper_columns() {
        let labels: Vec<_> = SolverKind::HYPER_HEURISTICS.iter().map(|k| k.label()).collect();
        assert_eq!(labels, vec!["SGH", "VGH", "EGH", "EVG"]);
    }

    /// Both sum-objective loops, the SGH loop in either visit order and
    /// the EGH loop, report the first uncovered task.
    #[test]
    fn uncovered_task_errors_under_flow_time() {
        let h = Hypergraph::from_hyperedges(2, 1, vec![(0, vec![0], 1)]).unwrap();
        for sorted in [false, true] {
            assert_eq!(
                current_load(&h, sorted, Key::Marginal(Objective::FlowTime), |_| 0).unwrap_err(),
                CoreError::UncoveredTask(1)
            );
        }
        assert_eq!(
            expected_greedy_with(&h, Objective::FlowTime).unwrap_err(),
            CoreError::UncoveredTask(1)
        );
    }
}
