//! Online scheduling: tasks arrive one at a time and must be placed
//! immediately (an extension; the paper's related-work section points to
//! online algorithms for processing-set restrictions [Lee, Leung, Pinedo
//! 2011]).
//!
//! The dispatcher sees only the current loads — no sorting by degree, no
//! look-ahead — so this is also the natural "basic-greedy-hyp" baseline
//! for the offline heuristics.

use crate::error::Result;
use crate::greedy::{current_load, Key};
use crate::problem::HyperMatching;
use semimatch_graph::Hypergraph;

/// Immediate-assignment rule for each arriving task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OnlineRule {
    /// Choose the configuration minimizing the current bottleneck among its
    /// processors (`max_{u∈h} l(u)`, SGH's criterion without the sort).
    MinBottleneck,
    /// Choose the configuration minimizing the *resulting* bottleneck
    /// (`max_{u∈h} l(u) + w_h`).
    MinResulting,
    /// Always take the first listed configuration (the no-information
    /// baseline; useful as an upper anchor in benches).
    FirstFit,
}

/// Schedules tasks in arrival order (= task id order) under `rule`: the
/// selection loop of [`crate::hyper::sgh::sorted_greedy_hyp`] without its
/// degree sort.
///
/// Tie-breaking is deterministic and part of the contract: every rule
/// scans a task's configurations in hyperedge-id order and accepts a new
/// candidate only on a *strictly* smaller key, so on equal keys the
/// **lowest hyperedge id wins**. `FirstFit` is the degenerate case (all
/// keys equal), falling out of the same loop rather than a special-cased
/// early exit.
pub fn online_schedule(h: &Hypergraph, rule: OnlineRule) -> Result<HyperMatching> {
    let key = match rule {
        OnlineRule::MinBottleneck => Key::Current,
        OnlineRule::MinResulting => Key::Resulting,
        OnlineRule::FirstFit => Key::FirstFit,
    };
    Ok(HyperMatching { hedge_of: current_load(h, false, key, |_| 0)? })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case() -> Hypergraph {
        Hypergraph::from_hyperedges(
            3,
            2,
            vec![
                (0, vec![0], 3),
                (0, vec![1], 1),
                (1, vec![0], 2),
                (2, vec![0], 1),
                (2, vec![1], 1),
            ],
        )
        .unwrap()
    }

    #[test]
    fn rules_are_valid_schedules() {
        let h = case();
        for rule in [OnlineRule::MinBottleneck, OnlineRule::MinResulting, OnlineRule::FirstFit] {
            let hm = online_schedule(&h, rule).unwrap();
            hm.validate(&h).unwrap();
        }
    }

    #[test]
    fn resulting_rule_sees_weights() {
        let h = case();
        // T0 arrives first on empty loads: MinBottleneck ties (0 vs 0) and
        // takes the heavy {P0} w3; MinResulting compares 3 vs 1 → {P1}.
        let bottleneck = online_schedule(&h, OnlineRule::MinBottleneck).unwrap();
        assert_eq!(bottleneck.hedge_of[0], 0);
        let resulting = online_schedule(&h, OnlineRule::MinResulting).unwrap();
        assert_eq!(resulting.hedge_of[0], 1);
        assert!(resulting.makespan(&h) <= bottleneck.makespan(&h));
    }

    #[test]
    fn first_fit_is_an_upper_anchor() {
        let h = case();
        let ff = online_schedule(&h, OnlineRule::FirstFit).unwrap();
        let mb = online_schedule(&h, OnlineRule::MinBottleneck).unwrap();
        assert!(mb.makespan(&h) <= ff.makespan(&h));
    }

    #[test]
    fn offline_sorted_heuristic_is_no_worse_here() {
        use crate::hyper::sgh::sorted_greedy_hyp;
        let h = case();
        let online = online_schedule(&h, OnlineRule::MinBottleneck).unwrap();
        let offline = sorted_greedy_hyp(&h).unwrap();
        assert!(offline.makespan(&h) <= online.makespan(&h));
    }

    #[test]
    fn uncovered_task_errors() {
        let h = Hypergraph::from_hyperedges(1, 1, vec![]).unwrap();
        assert!(online_schedule(&h, OnlineRule::MinBottleneck).is_err());
    }

    #[test]
    fn ties_pick_the_lowest_hyperedge_id_under_every_rule() {
        // One task, three configurations that are *exactly* tied under
        // every rule on empty loads: identical weights over distinct but
        // equally-loaded processors. The documented contract — lowest
        // hyperedge id wins on equal keys — pins hedge 0 for all rules.
        let tied = Hypergraph::from_hyperedges(
            1,
            3,
            vec![(0, vec![0], 2), (0, vec![1], 2), (0, vec![2], 2)],
        )
        .unwrap();
        for rule in [OnlineRule::MinBottleneck, OnlineRule::MinResulting, OnlineRule::FirstFit] {
            let hm = online_schedule(&tied, rule).unwrap();
            assert_eq!(hm.hedge_of[0], 0, "{rule:?} must break ties toward the lowest id");
        }

        // A keyed instance pinning the exact configuration per rule: T0 has
        // {P0} w1 (hedge 0), {P1} w3 (hedge 1); P0 is pre-loaded by T1's
        // only configuration once T1 is scheduled — but T0 goes first, so:
        // FirstFit and MinBottleneck (tie 0 vs 0) take hedge 0; MinResulting
        // compares 1 vs 3 and also takes hedge 0. T2 then sees P0 loaded
        // with 1+5: MinBottleneck/MinResulting pick {P1}, FirstFit stays on
        // its first listed {P0}.
        let h = Hypergraph::from_hyperedges(
            3,
            2,
            vec![
                (0, vec![0], 1),
                (0, vec![1], 3),
                (1, vec![0], 5),
                (2, vec![0], 2),
                (2, vec![1], 2),
            ],
        )
        .unwrap();
        let expected = [
            (OnlineRule::MinBottleneck, [0, 2, 4]),
            (OnlineRule::MinResulting, [0, 2, 4]),
            (OnlineRule::FirstFit, [0, 2, 3]),
        ];
        for (rule, hedges) in expected {
            let hm = online_schedule(&h, rule).unwrap();
            assert_eq!(hm.hedge_of, hedges, "{rule:?} chose an unpinned configuration");
        }
    }
}
