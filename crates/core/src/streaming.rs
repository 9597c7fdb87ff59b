//! One-pass streaming semi-matching (Konrad & Rosén, "Approximating
//! Semi-Matchings in Streaming and in Two-Party Communication").
//!
//! The streaming model sees the edge (hyperedge) list once, in stream
//! order, with memory proportional to the vertex set only: per-processor
//! loads and one chosen edge per task. No adjacency is ever materialized
//! and nothing is re-read, so the pass works off a socket as well as off a
//! parsed instance. On a static [`Bipartite`]/[`Hypergraph`] the stream
//! order is edge-id order, which makes the pass deterministic and lets the
//! solver registry expose it as `SolverKind::StreamingGreedy` next to the
//! offline heuristics.
//!
//! The rule per streamed edge `(t, p, w)`: an unassigned task takes the
//! edge; an assigned task switches iff the switch strictly lowers the
//! resulting load of its own processor(s) — the MinResulting criterion of
//! [`crate::online`] restricted to the one edge in hand. Each step is
//! `O(|h ∩ V2|)`; the whole pass is `O(Σ|h ∩ V2|)` time and `O(n + p)`
//! memory.

use semimatch_graph::{Bipartite, Hypergraph};

use crate::error::{CoreError, Result};
use crate::greedy::Key;
use crate::objective::Objective;
use crate::problem::{HyperMatching, SemiMatching};

/// One-pass streaming greedy over a bipartite (`SINGLEPROC`) edge stream.
///
/// Processes edges in edge-id order with `O(n + p)` state. Ties keep the
/// earlier (lower-id) edge, so the result is deterministic.
pub fn streaming_greedy_bipartite(g: &Bipartite) -> Result<SemiMatching> {
    streaming_greedy_bipartite_with(g, Objective::Makespan)
}

/// Objective-aware one-pass streaming greedy over a bipartite edge
/// stream: an assigned task switches to the streamed edge iff the switch
/// strictly lowers its key with its own contribution removed — the
/// resulting load under [`Objective::Makespan`], the marginal cost under
/// a sum objective.
pub fn streaming_greedy_bipartite_with(
    g: &Bipartite,
    objective: Objective,
) -> Result<SemiMatching> {
    let mut edge_of = vec![u32::MAX; g.n_left() as usize];
    let mut loads = vec![0u64; g.n_right() as usize];
    pass_bipartite(g, objective, &mut edge_of, &mut loads, None);
    if let Some(t) = edge_of.iter().position(|&e| e == u32::MAX) {
        return Err(CoreError::UncoveredTask(t as u32));
    }
    Ok(SemiMatching { edge_of })
}

/// One-pass streaming greedy over a hypergraph (`MULTIPROC`) hyperedge
/// stream, processed in hyperedge-id order with `O(n + p)` state.
pub fn streaming_greedy_hyper(h: &Hypergraph) -> Result<HyperMatching> {
    streaming_greedy_hyper_with(h, Objective::Makespan)
}

/// Objective-aware one-pass streaming greedy over a hyperedge stream:
/// switch iff the streamed configuration's key (own contribution removed)
/// strictly beats the held one's — the resulting bottleneck under
/// [`Objective::Makespan`], the total marginal cost under a sum objective.
pub fn streaming_greedy_hyper_with(h: &Hypergraph, objective: Objective) -> Result<HyperMatching> {
    let mut hedge_of = vec![u32::MAX; h.n_tasks() as usize];
    let mut loads = vec![0u64; h.n_procs() as usize];
    pass_hyper(h, objective, &mut hedge_of, &mut loads, None);
    if let Some(t) = hedge_of.iter().position(|&e| e == u32::MAX) {
        return Err(CoreError::UncoveredTask(t as u32));
    }
    Ok(HyperMatching { hedge_of })
}

/// Two-pass streaming greedy over a bipartite edge stream (Konrad &
/// Rosén's multi-pass refinement): pass 1 is
/// [`streaming_greedy_bipartite_with`]; pass 2 re-streams the edges and
/// re-places only tasks currently sitting on an *overloaded* processor
/// (load above the balanced ceiling `⌈total/p⌉` after pass 1), under the
/// same strict-improvement switch rule. Every accepted switch strictly
/// lowers the affected pair's resulting load (bottleneck) or the total
/// cost (sum objectives), so the refined score is **never worse** than
/// one pass — the agreement property the tests pin. The registry exposes
/// both two-pass variants as `SolverKind::StreamingTwoPass`.
pub fn streaming_greedy_bipartite_two_pass_with(
    g: &Bipartite,
    objective: Objective,
) -> Result<SemiMatching> {
    let mut sm = streaming_greedy_bipartite_with(g, objective)?;
    let mut loads = sm.loads(g);
    let overloaded = overloaded_procs(&loads);
    pass_bipartite(g, objective, &mut sm.edge_of, &mut loads, Some(&overloaded));
    Ok(sm)
}

/// Two-pass streaming greedy over a hyperedge stream: pass 1 is
/// [`streaming_greedy_hyper_with`]; pass 2 re-streams the hyperedges and
/// re-places only tasks whose current configuration touches an overloaded
/// processor, under the same strict-improvement rule (so the score never
/// worsens — see [`streaming_greedy_bipartite_two_pass_with`]).
pub fn streaming_greedy_hyper_two_pass_with(
    h: &Hypergraph,
    objective: Objective,
) -> Result<HyperMatching> {
    let mut hm = streaming_greedy_hyper_with(h, objective)?;
    let mut loads = hm.loads(h);
    let overloaded = overloaded_procs(&loads);
    pass_hyper(h, objective, &mut hm.hedge_of, &mut loads, Some(&overloaded));
    Ok(hm)
}

/// One pass over the edge stream. A task not yet placed (`u32::MAX`)
/// takes the streamed edge; a placed one switches to it iff that strictly
/// lowers the key over the loads without the task. With `overloaded`
/// (pass 2), only tasks on a flagged processor may switch.
fn pass_bipartite(
    g: &Bipartite,
    objective: Objective,
    edge_of: &mut [u32],
    loads: &mut [u64],
    overloaded: Option<&[bool]>,
) {
    let key = Key::under(objective, Key::Resulting);
    for e in 0..g.num_edges() as u32 {
        let t = g.edge_left(e) as usize;
        let cur = edge_of[t];
        let mut next = e;
        if cur != u32::MAX {
            let cp = g.edge_right(cur) as usize;
            if overloaded.is_some_and(|o| !o[cp]) {
                continue;
            }
            loads[cp] -= g.weight(cur);
            let cost = |e: u32| key.of(loads, &[g.edge_right(e)], g.weight(e));
            if cost(e) >= cost(cur) {
                next = cur;
            }
        }
        edge_of[t] = next;
        loads[g.edge_right(next) as usize] += g.weight(next);
    }
}

/// [`pass_bipartite`] over the hyperedge stream; with `overloaded`, only
/// tasks whose configuration touches a flagged processor may switch.
fn pass_hyper(
    h: &Hypergraph,
    objective: Objective,
    hedge_of: &mut [u32],
    loads: &mut [u64],
    overloaded: Option<&[bool]>,
) {
    let key = Key::under(objective, Key::Resulting);
    for hid in 0..h.n_hedges() {
        let t = h.task_of(hid) as usize;
        let cur = hedge_of[t];
        let mut next = hid;
        if cur != u32::MAX {
            let cur_pins = h.procs_of(cur);
            if overloaded.is_some_and(|o| !cur_pins.iter().any(|&u| o[u as usize])) {
                continue;
            }
            for &u in cur_pins {
                loads[u as usize] -= h.weight(cur);
            }
            let cost = |hid: u32| key.of(loads, h.procs_of(hid), h.weight(hid));
            if cost(hid) >= cost(cur) {
                next = cur;
            }
        }
        hedge_of[t] = next;
        for &u in h.procs_of(next) {
            loads[u as usize] += h.weight(next);
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
    use super::*;

    #[test]
    fn bipartite_pass_is_valid_and_single_state() {
        let g = Bipartite::from_weighted_edges(
            3,
            2,
            &[(0, 0), (0, 1), (1, 0), (2, 0), (2, 1)],
            &[4, 1, 2, 3, 3],
        )
        .unwrap();
        let sm = streaming_greedy_bipartite(&g).unwrap();
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
        let hm = streaming_greedy_hyper(&h).unwrap();
        hm.validate(&h).unwrap();
        // T0 takes {P0,P1} w5, then {P2} w2 streams: 2 < 5 → switch.
        assert_eq!(hm.hedge_of[0], 1);
        assert_eq!(hm.makespan(&h), 5);
    }

    #[test]
    fn uncovered_task_errors() {
        let g = Bipartite::from_edges(2, 1, &[(0, 0)]).unwrap();
        assert!(matches!(streaming_greedy_bipartite(&g), Err(CoreError::UncoveredTask(1))));
        let h = Hypergraph::from_hyperedges(2, 1, vec![(0, vec![0], 1)]).unwrap();
        assert!(matches!(streaming_greedy_hyper(&h), Err(CoreError::UncoveredTask(1))));
    }

    #[test]
    fn second_pass_rescues_tasks_stranded_on_overloaded_procs() {
        // Stream order traps one pass: T0's P1 alternative streams while
        // P0 and P1 still tie (ties keep the held edge), then T1 and T2
        // pile onto P0 with no alternatives. Pass 1 ends at makespan 3;
        // pass 2 revisits the overloaded P0 and moves T0 to the idle P1
        // edge it skipped.
        let g = Bipartite::from_edges(3, 2, &[(0, 0), (0, 1), (1, 0), (2, 0)]).unwrap();
        let one = streaming_greedy_bipartite_with(&g, Objective::Makespan).unwrap();
        let two = streaming_greedy_bipartite_two_pass_with(&g, Objective::Makespan).unwrap();
        two.validate(&g).unwrap();
        assert_eq!(one.makespan(&g), 3);
        assert_eq!(two.makespan(&g), 2, "refinement strictly helps here");

        let h = Hypergraph::from_hyperedges(
            2,
            2,
            vec![(0, vec![0], 2), (0, vec![1], 2), (1, vec![0], 2)],
        )
        .unwrap();
        let one = streaming_greedy_hyper_with(&h, Objective::Makespan).unwrap();
        let two = streaming_greedy_hyper_two_pass_with(&h, Objective::Makespan).unwrap();
        two.validate(&h).unwrap();
        assert_eq!(one.makespan(&h), 4);
        assert_eq!(two.makespan(&h), 2);
    }

    #[test]
    fn ties_keep_the_earlier_edge() {
        // Both edges of T0 resolve to identical resulting loads: the pass
        // must keep the first-streamed edge.
        let g = Bipartite::from_edges(1, 2, &[(0, 0), (0, 1)]).unwrap();
        let sm = streaming_greedy_bipartite(&g).unwrap();
        assert_eq!(sm.edge_of[0], 0);
        let h = Hypergraph::from_hyperedges(1, 2, vec![(0, vec![0], 2), (0, vec![1], 2)]).unwrap();
        let hm = streaming_greedy_hyper(&h).unwrap();
        assert_eq!(hm.hedge_of[0], 0);
    }
}
