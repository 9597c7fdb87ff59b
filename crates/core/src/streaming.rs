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
use crate::objective::Objective;
use crate::problem::{HyperMatching, SemiMatching};

/// One-pass streaming greedy over a bipartite (`SINGLEPROC`) edge stream.
///
/// Processes edges in edge-id order with `O(n + p)` state. Ties keep the
/// earlier (lower-id) edge, so the result is deterministic.
pub fn streaming_greedy_bipartite(g: &Bipartite) -> Result<SemiMatching> {
    let mut loads = vec![0u64; g.n_right() as usize];
    let mut edge_of = vec![u32::MAX; g.n_left() as usize];
    for e in 0..g.num_edges() as u32 {
        let t = g.edge_left(e) as usize;
        let p = g.edge_right(e) as usize;
        let w = g.weight(e);
        let cur = edge_of[t];
        if cur == u32::MAX {
            edge_of[t] = e;
            loads[p] += w;
            continue;
        }
        let (cp, cw) = (g.edge_right(cur) as usize, g.weight(cur));
        // Compare resulting loads with the task's contribution removed.
        let excl = |u: usize| loads[u] - if u == cp { cw } else { 0 };
        if excl(p) + w < excl(cp) + cw {
            loads[cp] -= cw;
            loads[p] += w;
            edge_of[t] = e;
        }
    }
    if let Some(t) = edge_of.iter().position(|&e| e == u32::MAX) {
        return Err(CoreError::UncoveredTask(t as u32));
    }
    Ok(SemiMatching { edge_of })
}

/// Objective-aware one-pass streaming greedy over a bipartite edge
/// stream: an assigned task switches to the streamed edge iff the switch
/// strictly lowers its marginal cost under `objective` with its own
/// contribution removed. [`Objective::Makespan`] delegates to the
/// historical resulting-load rule.
pub fn streaming_greedy_bipartite_with(
    g: &Bipartite,
    objective: Objective,
) -> Result<SemiMatching> {
    if objective.is_bottleneck() {
        return streaming_greedy_bipartite(g);
    }
    let mut loads = vec![0u64; g.n_right() as usize];
    let mut edge_of = vec![u32::MAX; g.n_left() as usize];
    for e in 0..g.num_edges() as u32 {
        let t = g.edge_left(e) as usize;
        let p = g.edge_right(e) as usize;
        let w = g.weight(e);
        let cur = edge_of[t];
        if cur == u32::MAX {
            edge_of[t] = e;
            loads[p] += w;
            continue;
        }
        let (cp, cw) = (g.edge_right(cur) as usize, g.weight(cur));
        let excl = |u: usize| loads[u] - if u == cp { cw } else { 0 };
        if objective.marginal(excl(p), w) < objective.marginal(excl(cp), cw) {
            loads[cp] -= cw;
            loads[p] += w;
            edge_of[t] = e;
        }
    }
    if let Some(t) = edge_of.iter().position(|&e| e == u32::MAX) {
        return Err(CoreError::UncoveredTask(t as u32));
    }
    Ok(SemiMatching { edge_of })
}

/// One-pass streaming greedy over a hypergraph (`MULTIPROC`) hyperedge
/// stream, processed in hyperedge-id order with `O(n + p)` state.
pub fn streaming_greedy_hyper(h: &Hypergraph) -> Result<HyperMatching> {
    let mut loads = vec![0u64; h.n_procs() as usize];
    let mut hedge_of = vec![u32::MAX; h.n_tasks() as usize];
    for hid in 0..h.n_hedges() {
        let t = h.task_of(hid) as usize;
        let w = h.weight(hid);
        let cur = hedge_of[t];
        if cur == u32::MAX {
            hedge_of[t] = hid;
            for &u in h.procs_of(hid) {
                loads[u as usize] += w;
            }
            continue;
        }
        let cw = h.weight(cur);
        let cur_pins = h.procs_of(cur);
        // Loads with the task's current contribution removed.
        let excl =
            |u: u32| loads[u as usize] - if cur_pins.binary_search(&u).is_ok() { cw } else { 0 };
        let key_new = h.procs_of(hid).iter().map(|&u| excl(u)).max().unwrap_or(0) + w;
        let key_cur = cur_pins.iter().map(|&u| excl(u)).max().unwrap_or(0) + cw;
        if key_new < key_cur {
            for &u in cur_pins {
                loads[u as usize] -= cw;
            }
            for &u in h.procs_of(hid) {
                loads[u as usize] += w;
            }
            hedge_of[t] = hid;
        }
    }
    if let Some(t) = hedge_of.iter().position(|&e| e == u32::MAX) {
        return Err(CoreError::UncoveredTask(t as u32));
    }
    Ok(HyperMatching { hedge_of })
}

/// Objective-aware one-pass streaming greedy over a hyperedge stream:
/// switch iff the streamed configuration's total marginal cost (own
/// contribution removed) strictly beats the held one's.
/// [`Objective::Makespan`] delegates to the historical bottleneck rule.
pub fn streaming_greedy_hyper_with(h: &Hypergraph, objective: Objective) -> Result<HyperMatching> {
    if objective.is_bottleneck() {
        return streaming_greedy_hyper(h);
    }
    let mut loads = vec![0u64; h.n_procs() as usize];
    let mut hedge_of = vec![u32::MAX; h.n_tasks() as usize];
    for hid in 0..h.n_hedges() {
        let t = h.task_of(hid) as usize;
        let w = h.weight(hid);
        let cur = hedge_of[t];
        if cur == u32::MAX {
            hedge_of[t] = hid;
            for &u in h.procs_of(hid) {
                loads[u as usize] += w;
            }
            continue;
        }
        let cw = h.weight(cur);
        let cur_pins = h.procs_of(cur);
        let excl =
            |u: u32| loads[u as usize] - if cur_pins.binary_search(&u).is_ok() { cw } else { 0 };
        let delta = |pins: &[u32], weight: u64| {
            pins.iter()
                .fold(0u128, |acc, &u| acc.saturating_add(objective.marginal(excl(u), weight)))
        };
        if delta(h.procs_of(hid), w) < delta(cur_pins, cw) {
            for &u in cur_pins {
                loads[u as usize] -= cw;
            }
            for &u in h.procs_of(hid) {
                loads[u as usize] += w;
            }
            hedge_of[t] = hid;
        }
    }
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
    let sm = streaming_greedy_bipartite_with(g, objective)?;
    let mut edge_of = sm.edge_of;
    let mut loads = vec![0u64; g.n_right() as usize];
    for &e in &edge_of {
        loads[g.edge_right(e) as usize] += g.weight(e);
    }
    let overloaded = overloaded_procs(&loads);
    for e in 0..g.num_edges() as u32 {
        let t = g.edge_left(e) as usize;
        let cur = edge_of[t];
        let (cp, cw) = (g.edge_right(cur) as usize, g.weight(cur));
        if !overloaded[cp] {
            continue;
        }
        let p = g.edge_right(e) as usize;
        let w = g.weight(e);
        let excl = |u: usize| loads[u] - if u == cp { cw } else { 0 };
        let switches = if objective.is_bottleneck() {
            excl(p) + w < excl(cp) + cw
        } else {
            objective.marginal(excl(p), w) < objective.marginal(excl(cp), cw)
        };
        if switches {
            loads[cp] -= cw;
            loads[p] += w;
            edge_of[t] = e;
        }
    }
    Ok(SemiMatching { edge_of })
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
    let hm = streaming_greedy_hyper_with(h, objective)?;
    let mut hedge_of = hm.hedge_of;
    let mut loads = vec![0u64; h.n_procs() as usize];
    for &hid in &hedge_of {
        for &u in h.procs_of(hid) {
            loads[u as usize] += h.weight(hid);
        }
    }
    let overloaded = overloaded_procs(&loads);
    for hid in 0..h.n_hedges() {
        let t = h.task_of(hid) as usize;
        let cur = hedge_of[t];
        let cw = h.weight(cur);
        let cur_pins = h.procs_of(cur);
        if !cur_pins.iter().any(|&u| overloaded[u as usize]) {
            continue;
        }
        let w = h.weight(hid);
        let excl =
            |u: u32| loads[u as usize] - if cur_pins.binary_search(&u).is_ok() { cw } else { 0 };
        let switches = if objective.is_bottleneck() {
            let key_new = h.procs_of(hid).iter().map(|&u| excl(u)).max().unwrap_or(0) + w;
            let key_cur = cur_pins.iter().map(|&u| excl(u)).max().unwrap_or(0) + cw;
            key_new < key_cur
        } else {
            let delta = |pins: &[u32], weight: u64| {
                pins.iter()
                    .fold(0u128, |acc, &u| acc.saturating_add(objective.marginal(excl(u), weight)))
            };
            delta(h.procs_of(hid), w) < delta(cur_pins, cw)
        };
        if switches {
            for &u in cur_pins {
                loads[u as usize] -= cw;
            }
            for &u in h.procs_of(hid) {
                loads[u as usize] += w;
            }
            hedge_of[t] = hid;
        }
    }
    Ok(HyperMatching { hedge_of })
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
