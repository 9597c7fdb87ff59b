//! Algorithm 4: sorted-greedy-hyp (SGH).

use semimatch_graph::Hypergraph;

use crate::error::Result;
use crate::greedy::{current_load, Key};
use crate::problem::HyperMatching;

/// Sorted-greedy-hyp (Algorithm 4): visit tasks by non-decreasing number
/// of configurations; pick the hyperedge minimizing `max_{u∈h} l(u)` over
/// the *current* loads (ties keep the first candidate), then charge `w_h`
/// to every processor of the hyperedge. `O(Σ_h |h|)`. Sorted-greedy is
/// the same loop on one-processor configurations.
pub fn sorted_greedy_hyp(h: &Hypergraph) -> Result<HyperMatching> {
    Ok(HyperMatching { hedge_of: current_load(h, true, Key::Current, |_| 0)? })
}

/// Ablation variant: minimizes the *resulting* bottleneck
/// `max_{u∈h} l(u) + w_h` instead of the current one. Not in the paper;
/// benchmarked in `benches/ablation.rs` to quantify the difference.
pub fn sorted_greedy_hyp_resulting(h: &Hypergraph) -> Result<HyperMatching> {
    Ok(HyperMatching { hedge_of: current_load(h, true, Key::Resulting, |_| 0)? })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CoreError;
    use crate::objective::Objective;

    /// The current-load loop on `h` by degree under `key`.
    fn hyp_loop(h: &Hypergraph, sorted: bool, key: Key) -> Result<HyperMatching> {
        Ok(HyperMatching { hedge_of: current_load(h, sorted, key, |_| 0)? })
    }

    /// T0 is forced onto P0 (w3). T1 then chooses {P0} w1 (marginal flow
    /// cost 4) or the wide {P1..P7} w1 (marginal flow cost 7): flow time
    /// prefers stacking P0 a bit higher, the makespan criterion prefers
    /// the wide spread — the two objectives genuinely disagree.
    #[test]
    fn flowtime_and_makespan_disagree_by_design() {
        let h = Hypergraph::from_hyperedges(
            2,
            8,
            vec![(0, vec![0], 3), (1, vec![0], 1), (1, vec![1, 2, 3, 4, 5, 6, 7], 1)],
        )
        .unwrap();
        let flow = hyp_loop(&h, true, Key::Marginal(Objective::FlowTime)).unwrap();
        flow.validate(&h).unwrap();
        assert_eq!(flow.hedge_of[1], 1, "flow time stacks P0 to 4");
        let sgh = sorted_greedy_hyp(&h).unwrap();
        assert_eq!(sgh.hedge_of[1], 2, "makespan criterion spreads wide");
        assert!(flow.score(&h, Objective::FlowTime) < sgh.score(&h, Objective::FlowTime));
        assert!(sgh.makespan(&h) < flow.makespan(&h));
    }

    #[test]
    fn weighted_load_picks_cheapest_total_work() {
        // {P0} w4 is 4 units of work; {P1,P2} w3 is 6.
        let h =
            Hypergraph::from_hyperedges(1, 3, vec![(0, vec![0], 4), (0, vec![1, 2], 3)]).unwrap();
        let hm = hyp_loop(&h, true, Key::Marginal(Objective::WeightedLoad)).unwrap();
        assert_eq!(hm.hedge_of[0], 0);
    }

    #[test]
    fn picks_least_loaded_configuration() {
        // T0 first (degree 1) loads P0; T1 must then prefer {P1,P2}.
        let h = Hypergraph::from_configs(3, &[vec![vec![0]], vec![vec![0], vec![1, 2]]]).unwrap();
        let hm = sorted_greedy_hyp(&h).unwrap();
        hm.validate(&h).unwrap();
        assert_eq!(hm.hedge_of[1], 2, "T1 takes its second configuration");
        assert_eq!(hm.makespan(&h), 1);
    }

    #[test]
    fn criterion_ignores_own_weight_exactly_like_the_paper() {
        // Both configurations touch empty processors; the paper's criterion
        // (current load) ties, so the FIRST is taken even though it is the
        // expensive one.
        let h = Hypergraph::from_hyperedges(1, 2, vec![(0, vec![0], 10), (0, vec![1], 1)]).unwrap();
        let hm = sorted_greedy_hyp(&h).unwrap();
        assert_eq!(hm.hedge_of[0], 0);
        assert_eq!(hm.makespan(&h), 10);
        // The resulting-load ablation fixes this.
        let hm2 = sorted_greedy_hyp_resulting(&h).unwrap();
        assert_eq!(hm2.hedge_of[0], 1);
        assert_eq!(hm2.makespan(&h), 1);
    }

    #[test]
    fn weights_accumulate_on_all_pins() {
        let h = Hypergraph::from_hyperedges(2, 2, vec![(0, vec![0, 1], 3), (1, vec![0, 1], 2)])
            .unwrap();
        let hm = sorted_greedy_hyp(&h).unwrap();
        assert_eq!(hm.makespan(&h), 5);
    }

    #[test]
    fn uncovered_task_errors() {
        let h = Hypergraph::from_hyperedges(2, 1, vec![(0, vec![0], 1)]).unwrap();
        assert_eq!(sorted_greedy_hyp(&h).unwrap_err(), CoreError::UncoveredTask(1));
        assert_eq!(hyp_loop(&h, false, Key::Current).unwrap_err(), CoreError::UncoveredTask(1));
    }

    #[test]
    fn sorting_rescues_the_fig1_pattern_in_hypergraph_form() {
        // Hypergraph lift of Fig. 1: the flexible T0 arrives first in
        // input order and blocks the inflexible T1; sorting by degree
        // schedules T1 first.
        let h = Hypergraph::from_hyperedges(
            2,
            2,
            vec![(0, vec![0], 1), (0, vec![1], 1), (1, vec![0], 1)],
        )
        .unwrap();
        assert_eq!(hyp_loop(&h, false, Key::Current).unwrap().makespan(&h), 2);
        assert_eq!(sorted_greedy_hyp(&h).unwrap().makespan(&h), 1);
    }

    #[test]
    fn singleton_hypergraph_matches_sorted_greedy() {
        // Lifting a bipartite instance to singleton hyperedges must give
        // the same makespan as the bipartite sorted-greedy.
        let g =
            semimatch_graph::Bipartite::from_edges(3, 2, &[(0, 0), (0, 1), (1, 0), (2, 0), (2, 1)])
                .unwrap();
        let mut b = semimatch_graph::HypergraphBuilder::new(3, 2);
        for (_, v, u, w) in g.edges() {
            b.weighted_config(v, vec![u], w);
        }
        let h = b.build().unwrap();
        let bi = crate::greedy::sorted::sorted_greedy(&g).unwrap();
        let hy = sorted_greedy_hyp(&h).unwrap();
        assert_eq!(bi.makespan(&g), hy.makespan(&h));
    }
}
