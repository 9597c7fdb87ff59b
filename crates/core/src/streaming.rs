//! One-pass streaming semi-matching (Konrad & Rosén, "Approximating
//! Semi-Matchings in Streaming and in Two-Party Communication").
//!
//! The streaming model sees the configuration list once, in stream
//! order, with memory proportional to the vertex set only: per-processor
//! loads and one chosen configuration per task. No adjacency is ever
//! materialized and nothing is re-read, so the pass works off a socket as
//! well as off a parsed instance. On a static instance the stream order
//! is configuration-id order for both classes (task by task, and within
//! a task its edges or hyperedges in id order), which makes the pass
//! deterministic and lets the solver registry expose it as
//! `SolverKind::StreamingGreedy` next to the offline heuristics. A
//! bipartite edge streams as a one-processor configuration.
//!
//! The rule per streamed configuration `(t, c, w)`: an unassigned task
//! takes it; an assigned task switches iff the switch strictly lowers
//! its key with its own contribution removed — the resulting bottleneck
//! (the MinResulting criterion of [`crate::online`] restricted to the one
//! configuration in hand) under the makespan, the total marginal cost
//! under a sum objective. Ties keep the earlier (lower-id) configuration.
//! Each step is `O(|c|)`; the whole pass is `O(Σ|c|)` time and `O(n + p)`
//! memory.
//!
//! The two-pass variant (`SolverKind::StreamingTwoPass`, Konrad & Rosén's
//! multi-pass refinement) re-streams the configurations and re-places
//! only tasks whose current configuration touches an *overloaded*
//! processor (load above the balanced ceiling `⌈total/p⌉` after pass 1),
//! under the same strict-improvement rule. Every accepted switch strictly
//! lowers the task's key, so the refined score is **never worse** than
//! one pass — the agreement property the tests pin.

use semimatch_graph::Configs;

use crate::error::{CoreError, Result};
use crate::greedy::Key;
use crate::objective::Objective;

/// Streaming greedy under `objective`, with the second pass when
/// `two_pass`. Returns the chosen configuration of each task.
pub(crate) fn streaming_greedy<G: Configs>(
    g: &G,
    objective: Objective,
    two_pass: bool,
) -> Result<Vec<u32>> {
    let mut chosen = vec![u32::MAX; g.n_tasks() as usize];
    let mut loads = vec![0u64; g.n_procs() as usize];
    pass(g, objective, &mut chosen, &mut loads, None);
    if let Some(t) = chosen.iter().position(|&c| c == u32::MAX) {
        return Err(CoreError::UncoveredTask(t as u32));
    }
    if two_pass {
        let overloaded = overloaded_procs(&loads);
        pass(g, objective, &mut chosen, &mut loads, Some(&overloaded));
    }
    Ok(chosen)
}

/// One pass over the configuration stream. A task not yet placed
/// (`u32::MAX`) takes the streamed configuration; a placed one switches
/// to it iff that strictly lowers the key over the loads without the
/// task. With `overloaded` (pass 2), only tasks whose configuration
/// touches a flagged processor may switch.
fn pass<G: Configs>(
    g: &G,
    objective: Objective,
    chosen: &mut [u32],
    loads: &mut [u64],
    overloaded: Option<&[bool]>,
) {
    let key = Key::under(objective, Key::Resulting);
    for t in 0..g.n_tasks() {
        for c in g.configs(t) {
            let cur = chosen[t as usize];
            let mut next = c;
            if cur != u32::MAX {
                let cur_pins = g.pins(cur);
                if overloaded.is_some_and(|o| !cur_pins.iter().any(|&u| o[u as usize])) {
                    continue;
                }
                for &u in cur_pins {
                    loads[u as usize] -= g.weight(cur);
                }
                let cost = |c: u32| key.of(loads, g.pins(c), g.weight(c));
                if cost(c) >= cost(cur) {
                    next = cur;
                }
            }
            chosen[t as usize] = next;
            for &u in g.pins(next) {
                loads[u as usize] += g.weight(next);
            }
        }
    }
}

/// Processors whose load sits strictly above the balanced ceiling
/// `⌈total/p⌉` — the pass-2 targets.
fn overloaded_procs(loads: &[u64]) -> Vec<bool> {
    let total: u128 = loads.iter().map(|&l| l as u128).sum();
    let p = loads.len().max(1) as u128;
    let thresh = total.div_ceil(p);
    loads.iter().map(|&l| (l as u128) > thresh).collect()
}

#[cfg(test)]
mod tests {
    use semimatch_graph::{Bipartite, Hypergraph};

    use super::*;
    use crate::problem::{HyperMatching, SemiMatching};

    fn one_pass_bi(g: &Bipartite) -> Result<SemiMatching> {
        Ok(SemiMatching { edge_of: streaming_greedy(g, Objective::Makespan, false)? })
    }

    fn one_pass_hyper(h: &Hypergraph) -> Result<HyperMatching> {
        Ok(HyperMatching { hedge_of: streaming_greedy(h, Objective::Makespan, false)? })
    }

    #[test]
    fn bipartite_pass_is_valid_and_single_state() {
        let g = Bipartite::from_weighted_edges(
            3,
            2,
            &[(0, 0), (0, 1), (1, 0), (2, 0), (2, 1)],
            &[4, 1, 2, 3, 3],
        )
        .unwrap();
        let sm = one_pass_bi(&g).unwrap();
        sm.validate(&g).unwrap();
        // T0 takes e0 (P0 w4), then e1 streams in: resulting 1 < 4 → switch
        // to P1. T2 takes e3 (P0 w3), then e4: resulting 3+1=4 vs 2+3=5 → P1.
        assert_eq!(sm.proc_of(&g, 0), 1);
        assert_eq!(sm.proc_of(&g, 2), 1);
        assert_eq!(sm.makespan(&g), 4);
    }

    #[test]
    fn hyper_pass_is_valid_and_switches() {
        let h = Hypergraph::from_hyperedges(
            2,
            3,
            vec![(0, vec![0, 1], 5), (0, vec![2], 2), (1, vec![2], 3)],
        )
        .unwrap();
        let hm = one_pass_hyper(&h).unwrap();
        hm.validate(&h).unwrap();
        // T0 takes {P0,P1} w5, then {P2} w2 streams: 2 < 5 → switch.
        assert_eq!(hm.hedge_of[0], 1);
        assert_eq!(hm.makespan(&h), 5);
    }

    #[test]
    fn uncovered_task_errors() {
        let g = Bipartite::from_edges(2, 1, &[(0, 0)]).unwrap();
        assert!(matches!(one_pass_bi(&g), Err(CoreError::UncoveredTask(1))));
        let h = Hypergraph::from_hyperedges(2, 1, vec![(0, vec![0], 1)]).unwrap();
        assert!(matches!(one_pass_hyper(&h), Err(CoreError::UncoveredTask(1))));
    }

    #[test]
    fn second_pass_rescues_tasks_stranded_on_overloaded_procs() {
        // Stream order traps one pass: T0's P1 alternative streams while
        // P0 and P1 still tie (ties keep the held edge), then T1 and T2
        // pile onto P0 with no alternatives. Pass 1 ends at makespan 3;
        // pass 2 revisits the overloaded P0 and moves T0 to the idle P1
        // edge it skipped.
        let g = Bipartite::from_edges(3, 2, &[(0, 0), (0, 1), (1, 0), (2, 0)]).unwrap();
        let one = one_pass_bi(&g).unwrap();
        let two =
            SemiMatching { edge_of: streaming_greedy(&g, Objective::Makespan, true).unwrap() };
        two.validate(&g).unwrap();
        assert_eq!(one.makespan(&g), 3);
        assert_eq!(two.makespan(&g), 2, "refinement strictly helps here");

        let h = Hypergraph::from_hyperedges(
            2,
            2,
            vec![(0, vec![0], 2), (0, vec![1], 2), (1, vec![0], 2)],
        )
        .unwrap();
        let one = one_pass_hyper(&h).unwrap();
        let two =
            HyperMatching { hedge_of: streaming_greedy(&h, Objective::Makespan, true).unwrap() };
        two.validate(&h).unwrap();
        assert_eq!(one.makespan(&h), 4);
        assert_eq!(two.makespan(&h), 2);
    }

    #[test]
    fn ties_keep_the_earlier_edge() {
        // Both edges of T0 resolve to identical resulting loads: the pass
        // must keep the first-streamed edge.
        let g = Bipartite::from_edges(1, 2, &[(0, 0), (0, 1)]).unwrap();
        let sm = one_pass_bi(&g).unwrap();
        assert_eq!(sm.edge_of[0], 0);
        let h = Hypergraph::from_hyperedges(1, 2, vec![(0, vec![0], 2), (0, vec![1], 2)]).unwrap();
        let hm = one_pass_hyper(&h).unwrap();
        assert_eq!(hm.hedge_of[0], 0);
    }
}
