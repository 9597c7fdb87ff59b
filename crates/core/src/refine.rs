//! Local-search refinement (an extension beyond the paper).
//!
//! The paper's conclusion calls for algorithms with better solutions than
//! the one-pass greedies. This module adds the natural next step: a
//! first-improvement descent that re-allocates one task at a time, until
//! a fixpoint. Move acceptance is objective-aware ([`refine_with`]):
//! under the makespan each accepted move strictly decreases the
//! descending-sorted load vector lexicographically (the VGH criterion);
//! under a sum-type [`Objective`] each accepted move strictly decreases
//! the integer objective score. Either way termination is guaranteed and
//! the result never scores worse than the input.

use std::cmp::Ordering;

use semimatch_graph::Hypergraph;

use crate::error::Result;
use crate::greedy::Key;
use crate::hyper::lex::LexScratch;
use crate::objective::Objective;
use crate::problem::HyperMatching;

/// Statistics of a refinement run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RefineStats {
    /// Number of accepted task moves.
    pub moves: u64,
    /// Number of full passes over the tasks.
    pub passes: u32,
}

/// Refines `hm` in place; stops at a fixpoint or after `max_passes`.
///
/// [`refine_with`] under [`Objective::Makespan`]: the lexicographic
/// load-vector descent.
pub fn refine(h: &Hypergraph, hm: &mut HyperMatching, max_passes: u32) -> Result<RefineStats> {
    refine_with(h, hm, max_passes, Objective::Makespan)
}

/// Objective-aware first-improvement descent: re-allocates one task at a
/// time, accepting a move iff it strictly improves the solution under
/// `objective`; stops at a fixpoint or after `max_passes`.
///
/// Each task's candidates are compared over the loads with its own
/// contribution removed, and ties keep the current configuration:
/// * [`Objective::Makespan`] — lexicographically on the resulting
///   descending-sorted load vectors (strictly stronger than comparing the
///   raw makespan);
/// * sum-type objectives — by total marginal cost
///   `Σ_{u∈h} (cost(l(u)+w_h) − cost(l(u)))`.
///
/// Every accepted move strictly decreases the sorted load vector
/// (lexicographically) or the integer objective score, so termination is
/// guaranteed and the result never scores worse than the input.
pub fn refine_with(
    h: &Hypergraph,
    hm: &mut HyperMatching,
    max_passes: u32,
    objective: Objective,
) -> Result<RefineStats> {
    hm.validate(h)?;
    let mut loads = hm.loads(h);
    let mut scratch = LexScratch::default();
    let marginal = (!objective.is_bottleneck()).then_some(Key::Marginal(objective));
    let mut stats = RefineStats::default();
    for _ in 0..max_passes {
        stats.passes += 1;
        let mut moved_this_pass = false;
        for t in 0..h.n_tasks() {
            if h.deg_task(t) <= 1 {
                continue;
            }
            let current = hm.hedge_of[t as usize];
            // Remove t's contribution; candidates then compare fairly.
            let w_cur = h.weight(current);
            for &u in h.procs_of(current) {
                loads[u as usize] -= w_cur;
            }
            // A sum objective keeps the incumbent's marginal key across the
            // scan; the makespan compares load vectors pairwise.
            let mut best = current;
            let mut best_key = marginal.map(|k| k.of(&loads, h.procs_of(current), w_cur));
            for hid in h.hedges_of(t) {
                if hid == current {
                    continue;
                }
                let (pins, w) = (h.procs_of(hid), h.weight(hid));
                if let Some(k) = marginal {
                    let key = Some(k.of(&loads, pins, w));
                    if key < best_key {
                        (best, best_key) = (hid, key);
                    }
                } else if scratch.cmp_candidates(&loads, pins, w, h.procs_of(best), h.weight(best))
                    == Ordering::Less
                {
                    best = hid;
                }
            }
            let w_new = h.weight(best);
            for &u in h.procs_of(best) {
                loads[u as usize] += w_new;
            }
            if best != current {
                hm.hedge_of[t as usize] = best;
                stats.moves += 1;
                moved_this_pass = true;
            }
        }
        if !moved_this_pass {
            break;
        }
    }
    debug_assert_eq!(loads, hm.loads(h), "incremental loads stay consistent");
    Ok(stats)
}

/// Statistics of an iterated-local-search run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IlsStats {
    /// Kicks performed.
    pub kicks: u32,
    /// Kicks whose subsequent descent improved the incumbent makespan.
    pub improvements: u32,
    /// Total accepted descent moves across all rounds.
    pub moves: u64,
}

/// Iterated local search (extension beyond the paper): alternate the
/// lexicographic descent of [`refine`] with deterministic *bottleneck
/// kicks* that force every task touching the most-loaded processor onto
/// its cyclically-next configuration.
///
/// The kick deliberately worsens the schedule to escape the descent's
/// fixpoint; the best schedule seen is tracked and returned in `hm`.
/// Fully deterministic (kick `k` rotates by `1 + k mod (d_v − 1)`), so
/// results are reproducible without threading an RNG through the solver.
pub fn iterated_refine(
    h: &Hypergraph,
    hm: &mut HyperMatching,
    kicks: u32,
    passes_per_round: u32,
) -> Result<IlsStats> {
    iterated_refine_with(h, hm, kicks, passes_per_round, Objective::Makespan)
}

/// Objective-aware iterated local search: descent rounds run through
/// [`refine_with`] and the incumbent is tracked under `objective`. The
/// kick stays bottleneck-directed for every objective — the most loaded
/// processor is where both the makespan *and* the convex sum costs
/// concentrate, so perturbing it is the right escape move throughout.
pub fn iterated_refine_with(
    h: &Hypergraph,
    hm: &mut HyperMatching,
    kicks: u32,
    passes_per_round: u32,
    objective: Objective,
) -> Result<IlsStats> {
    let mut stats = IlsStats::default();
    let first = refine_with(h, hm, passes_per_round, objective)?;
    stats.moves += first.moves;
    let mut best = hm.clone();
    let mut best_score = best.score(h, objective);

    for k in 0..kicks {
        // Kick: rotate the configuration of every task on a bottleneck
        // processor.
        let loads = hm.loads(h);
        let bottleneck = loads
            .iter()
            .enumerate()
            .max_by_key(|&(_, &l)| l)
            .map(|(u, _)| u as u32)
            .expect("at least one processor");
        let mut kicked = false;
        for t in 0..h.n_tasks() {
            let deg = h.deg_task(t);
            if deg <= 1 {
                continue;
            }
            let current = hm.hedge_of[t as usize];
            if !h.procs_of(current).contains(&bottleneck) {
                continue;
            }
            let base = h.hedges_of(t).start;
            let offset = (current - base + 1 + (k % (deg - 1))) % deg;
            hm.hedge_of[t as usize] = base + offset;
            kicked = true;
        }
        stats.kicks += 1;
        if !kicked {
            break; // bottleneck is immovable; further kicks are identical
        }
        let round = refine_with(h, hm, passes_per_round, objective)?;
        stats.moves += round.moves;
        let score = hm.score(h, objective);
        if score < best_score {
            best_score = score;
            best = hm.clone();
            stats.improvements += 1;
        }
    }
    *hm = best;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hyper::sgh::sorted_greedy_hyp;
    use crate::solver::{Problem, SolverKind};

    fn heuristic(kind: SolverKind, h: &Hypergraph) -> HyperMatching {
        kind.solve(Problem::MultiProc(h)).unwrap().into_hyper().unwrap()
    }

    fn weighted_case() -> Hypergraph {
        Hypergraph::from_hyperedges(
            3,
            3,
            vec![
                (0, vec![0], 5),
                (0, vec![1, 2], 2),
                (1, vec![0], 3),
                (1, vec![1], 3),
                (2, vec![2], 4),
                (2, vec![0], 4),
            ],
        )
        .unwrap()
    }

    #[test]
    fn never_increases_makespan() {
        let h = weighted_case();
        for kind in SolverKind::HYPER_HEURISTICS {
            let mut hm = heuristic(kind, &h);
            let before = hm.makespan(&h);
            refine(&h, &mut hm, 32).unwrap();
            hm.validate(&h).unwrap();
            assert!(hm.makespan(&h) <= before, "{}", kind.label());
        }
    }

    #[test]
    fn repairs_a_bad_allocation() {
        let h = weighted_case();
        // Deliberately bad: T0 on {P0} (w5), T1 on P0 (w3), T2 on P0 (w4):
        // makespan 12.
        let mut hm = HyperMatching { hedge_of: vec![0, 2, 5] };
        assert_eq!(hm.makespan(&h), 12);
        let stats = refine(&h, &mut hm, 32).unwrap();
        assert!(stats.moves >= 2);
        // Optimum here: T0→{P1,P2} (2), T1→P0 (3), T2→P2 (4) → makespan 6.
        assert!(hm.makespan(&h) <= 6, "got {}", hm.makespan(&h));
    }

    #[test]
    fn fixpoint_is_stable() {
        let h = weighted_case();
        let mut hm = sorted_greedy_hyp(&h).unwrap();
        refine(&h, &mut hm, 32).unwrap();
        let frozen = hm.clone();
        let stats = refine(&h, &mut hm, 32).unwrap();
        assert_eq!(stats.moves, 0);
        assert_eq!(hm, frozen);
    }

    #[test]
    fn respects_pass_limit() {
        let h = weighted_case();
        let mut hm = HyperMatching { hedge_of: vec![0, 2, 5] };
        let stats = refine(&h, &mut hm, 1).unwrap();
        assert_eq!(stats.passes, 1);
    }

    #[test]
    fn invalid_input_rejected() {
        let h = weighted_case();
        let mut hm = HyperMatching { hedge_of: vec![0, 0, 5] }; // hedge 0 not T1's
        assert!(refine(&h, &mut hm, 4).is_err());
    }

    #[test]
    fn ils_never_loses_to_plain_refinement() {
        let h = weighted_case();
        for kind in SolverKind::HYPER_HEURISTICS {
            let mut plain = heuristic(kind, &h);
            refine(&h, &mut plain, 32).unwrap();
            let mut ils = heuristic(kind, &h);
            iterated_refine(&h, &mut ils, 8, 32).unwrap();
            ils.validate(&h).unwrap();
            assert!(
                ils.makespan(&h) <= plain.makespan(&h),
                "{}: ILS {} vs refine {}",
                kind.label(),
                ils.makespan(&h),
                plain.makespan(&h)
            );
        }
    }

    #[test]
    fn ils_escapes_a_descent_fixpoint() {
        // Two heavy tasks pinned together by the descent: moving either
        // alone does not improve the vector, but kicking both does.
        let h = Hypergraph::from_hyperedges(
            2,
            2,
            vec![(0, vec![0, 1], 3), (0, vec![0], 4), (1, vec![0, 1], 3), (1, vec![1], 4)],
        )
        .unwrap();
        // Start from both tasks on the wide configs: loads (6, 6).
        let mut hm = HyperMatching { hedge_of: vec![0, 2] };
        let before = hm.makespan(&h);
        assert_eq!(before, 6);
        // Plain descent is stuck: any single move makes [6,6] → worse or
        // equal lexicographically? moving T0 to {P0} w4 gives loads (7,3):
        // [7,3] > [6,6]; symmetric for T1 — fixpoint at 6.
        let stats = refine(&h, &mut hm, 16).unwrap();
        assert_eq!(stats.moves, 0, "descent alone cannot move");
        // ILS kicks through and finds the (4, 4) split.
        let ils = iterated_refine(&h, &mut hm, 8, 16).unwrap();
        assert!(ils.kicks >= 1);
        assert_eq!(hm.makespan(&h), 4, "ILS reaches the optimum");
    }

    #[test]
    fn ils_stats_are_consistent() {
        let h = weighted_case();
        let mut hm = HyperMatching { hedge_of: vec![0, 2, 5] };
        let stats = iterated_refine(&h, &mut hm, 4, 16).unwrap();
        assert!(stats.kicks <= 4);
        assert!(stats.improvements <= stats.kicks);
        hm.validate(&h).unwrap();
    }

    #[test]
    fn single_config_tasks_untouched() {
        let h = Hypergraph::from_hyperedges(2, 2, vec![(0, vec![0], 1), (1, vec![1], 1)]).unwrap();
        let mut hm = HyperMatching { hedge_of: vec![0, 1] };
        let stats = refine(&h, &mut hm, 8).unwrap();
        assert_eq!(stats.moves, 0);
    }
}
