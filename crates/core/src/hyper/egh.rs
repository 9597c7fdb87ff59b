//! Algorithm 5: expected-greedy-hyp (EGH).

use semimatch_graph::Hypergraph;

use crate::error::Result;
use crate::greedy::expected::expected_greedy_with;
use crate::objective::Objective;
use crate::problem::HyperMatching;

/// Expected-greedy-hyp (Algorithm 5): like SGH but ranks configurations by
/// the maximum *expected* load `o(u)` of their processors, where every
/// unassigned task spreads `w_h / d_v` over the processors of each of its
/// `d_v` configurations. Selecting a hyperedge collapses the distribution:
/// the chosen one contributes its full weight, the others are withdrawn.
/// `O(Σ_h |h|)` (each hyperedge's pins are touched a constant number of
/// times). Expected-greedy (Algorithm 3) is the same loop on
/// one-processor configurations.
pub fn expected_greedy_hyp(h: &Hypergraph) -> Result<HyperMatching> {
    Ok(HyperMatching { hedge_of: expected_greedy_with(h, Objective::Makespan)? })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CoreError;

    #[test]
    fn final_expected_loads_match_actual() {
        let h = Hypergraph::from_hyperedges(
            3,
            3,
            vec![
                (0, vec![0], 2),
                (0, vec![1, 2], 1),
                (1, vec![0, 1], 3),
                (2, vec![2], 1),
                (2, vec![0], 4),
            ],
        )
        .unwrap();
        let hm = expected_greedy_hyp(&h).unwrap();
        hm.validate(&h).unwrap();
        // The o-invariant: after the loop, o(u) equals the true load. We
        // verify indirectly: makespan must be consistent with loads.
        let loads = hm.loads(&h);
        assert_eq!(hm.makespan(&h), *loads.iter().max().unwrap());
    }

    #[test]
    fn anticipates_future_load_where_sgh_cannot() {
        // The flexible task T0 is scheduled first (degree ties, lowest id).
        // Two heavy tasks will inevitably load P0 afterwards (their two
        // configurations are identical). SGH sees empty loads, ties, and
        // stacks T0 on P0; EGH's o(P0) = 4.5 forecast sends it to P1.
        let h = Hypergraph::from_hyperedges(
            3,
            2,
            vec![
                (0, vec![0], 1),
                (0, vec![1], 1),
                (1, vec![0], 2),
                (1, vec![0], 2),
                (2, vec![0], 2),
                (2, vec![0], 2),
            ],
        )
        .unwrap();
        let sgh = crate::hyper::sgh::sorted_greedy_hyp(&h).unwrap();
        assert_eq!(sgh.makespan(&h), 5, "SGH stacks the flexible task on P0");
        let egh = expected_greedy_hyp(&h).unwrap();
        assert_eq!(egh.hedge_of[0], 1, "EGH sends T0 to P1");
        assert_eq!(egh.makespan(&h), 4);
    }

    #[test]
    fn parallel_configuration_spreads_expectation() {
        // One task with a 3-processor configuration vs a sequential one.
        let h = Hypergraph::from_hyperedges(1, 4, vec![(0, vec![0, 1, 2], 1), (0, vec![3], 2)])
            .unwrap();
        let hm = expected_greedy_hyp(&h).unwrap();
        hm.validate(&h).unwrap();
        // o(P0..P2) = 1/2 each; o(P3) = 1. Criterion: max over pins:
        // candidate 0 → 1/2, candidate 1 → 1 → picks the parallel one.
        assert_eq!(hm.hedge_of[0], 0);
    }

    #[test]
    fn expected_variant_anticipates_future_load() {
        // The fixture above under flow time: the expected marginal also
        // sends T0 to P1, where the plain marginal could not see it coming.
        let h = Hypergraph::from_hyperedges(
            3,
            2,
            vec![
                (0, vec![0], 1),
                (0, vec![1], 1),
                (1, vec![0], 2),
                (1, vec![0], 2),
                (2, vec![0], 2),
                (2, vec![0], 2),
            ],
        )
        .unwrap();
        let hm = HyperMatching { hedge_of: expected_greedy_with(&h, Objective::FlowTime).unwrap() };
        hm.validate(&h).unwrap();
        assert_eq!(hm.hedge_of[0], 1, "expected marginal sends T0 to P1");
    }

    #[test]
    fn uncovered_task_errors() {
        let h = Hypergraph::from_hyperedges(1, 1, vec![]).unwrap();
        assert_eq!(expected_greedy_hyp(&h).unwrap_err(), CoreError::UncoveredTask(0));
    }

    #[test]
    fn matches_bipartite_expected_greedy_on_singletons() {
        let g = semimatch_graph::Bipartite::from_weighted_edges(
            4,
            3,
            &[(0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (3, 2)],
            &[2, 1, 3, 1, 2, 2],
        )
        .unwrap();
        let mut b = semimatch_graph::HypergraphBuilder::new(4, 3);
        for (_, v, u, w) in g.edges() {
            b.weighted_config(v, vec![u], w);
        }
        let h = b.build().unwrap();
        let bi = crate::greedy::expected::expected_greedy(&g).unwrap();
        let hy = expected_greedy_hyp(&h).unwrap();
        assert_eq!(bi.makespan(&g), hy.makespan(&h));
    }
}
