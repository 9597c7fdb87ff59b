//! FLN-style divide-and-conquer exact backend for `SINGLEPROC-UNIT`.
//!
//! Fakcharoenphol, Laekhanukit and Nanongkai (*Faster Algorithms for
//! Semi-Matching Problems*) attack semi-matchings by divide-and-conquer
//! over the **load range**: capacitated feasibility probes split the range
//! of possible bottleneck values until the optimal load profile is pinned.
//! This backend implements both halves of that design:
//!
//! * the range starts at `[⌈n/p⌉, greedy]` — the counting lower bound
//!   against a sorted-greedy witness, computed **once**: recursion levels
//!   inherit the bracket instead of re-sorting the subinstance;
//! * an **infeasible** probe at capacity `D` covering `c < n` tasks
//!   tightens the lower half by the FLN deficiency bound: feasibility at
//!   `D' ≥ D` can cover at most `c + p·(D' − D)` tasks, so
//!   `opt ≥ D + ⌈(n − c)/p⌉`;
//! * after each infeasible probe the instance itself is **partitioned**:
//!   the tasks and processors reachable from the uncovered tasks along
//!   the probe's assignment (the saturated high side) keep searching,
//!   while every other task commits to its probe processor at load
//!   `≤ D < opt` — deep levels of the search touch `o(m)` edges, and the
//!   deficiency bound sharpens to `⌈u/|S_P|⌉` over the surviving
//!   processors.
//!
//! Every probe sits at `lo = ⌈n_A/p_A⌉` for the active view `A` (`n_A`
//! tasks on `p_A` processors). This holds for the first probe, and an
//! infeasible probe at `cap` with `u` uncovered tasks keeps it: the
//! processors `S_P` it reaches are saturated, so the view keeps
//! `n_A' = u + cap·|S_P|` tasks on `p_A' = |S_P|` processors and the next
//! `lo` is `cap + ⌈u/|S_P|⌉ = ⌈n_A'/p_A'⌉`. So a probe is feasible exactly
//! when it closes the bracket, and an infeasible one cannot reach every
//! active processor (`cap·p_A ≥ n_A` saturated slots would cover every
//! task): every partition shrinks the view, and every probe runs Dinic
//! from the zero flow on the view it is given
//! ([`max_assignment_view_in`]).
//!
//! All recursion bookkeeping (active views, committed assignments, BFS
//! marks) is allocated once per call and the flow scratch lives in the
//! [`SearchWorkspace`], so no per-level allocation appears. Like FLN's
//! own load-range search, the probes run one after another.
//!
//! Under sum objectives the registry appends the Harvey cost-reducing
//! descent to the profile-search witness, the composition FLN's total-cost
//! objective (`Objective::FlowTime`) shares with the other exact kinds.

use semimatch_graph::Bipartite;
use semimatch_matching::capacitated::{max_assignment_in, max_assignment_view_in};
use semimatch_matching::{SearchWorkspace, NONE};
use semimatch_obs::{self as obs, catalog as metric};

use crate::error::Result;
use crate::exact::unit::{check_instance, ExactResult};
use crate::problem::SemiMatching;

/// Exact optimum via divide-and-conquer on the load range, throwaway
/// scratch.
///
/// Errors with [`crate::error::CoreError::RequiresUnitWeights`] on
/// weighted instances and [`crate::error::CoreError::UncoveredTask`] when
/// some task has no processor.
pub fn cost_scaling(g: &Bipartite) -> Result<ExactResult> {
    cost_scaling_in(g, &mut SearchWorkspace::new())
}

/// [`cost_scaling`] running every feasibility probe on `ws`'s scratch.
/// `oracle_calls` counts the capacitated probes.
pub fn cost_scaling_in(g: &Bipartite, ws: &mut SearchWorkspace) -> Result<ExactResult> {
    cost_scaling_seeded_in(g, None, ws)
}

/// [`cost_scaling_in`] additionally warm-started from a caller-provided
/// assignment (`task → processor`): a *valid, complete* seed tightens the
/// upper bracket to its makespan and stands in as the initial witness, so
/// a near-optimal seed (a serving engine's live assignment) skips most of
/// the search. Invalid or incomplete seeds are ignored — exactness never
/// depends on the seed.
pub fn cost_scaling_seeded_in(
    g: &Bipartite,
    warm_seed: Option<&[u32]>,
    ws: &mut SearchWorkspace,
) -> Result<ExactResult> {
    let _span = obs::span!("cost_scaling.solve");
    check_instance(g)?;
    let n = g.n_left();
    if n == 0 {
        return Ok(ExactResult {
            makespan: 0,
            solution: SemiMatching { edge_of: Vec::new() },
            oracle_calls: 0,
        });
    }
    let p = g.n_right();
    // Witness bracket: greedy bounds the profile from above, counting from
    // below. Unit weights keep every deadline within u32 (loads ≤ n).
    let seed = crate::greedy::sorted::sorted_greedy(g)?;
    let mut hi = seed.makespan(g) as u32;
    let mut lo = n.div_ceil(p.max(1)).max(1);
    let mut witness: Vec<u32> = vec![NONE; n as usize];
    let mut have_witness = false;
    if let Some(sa) = warm_seed {
        if let Some(mk) = seed_makespan(g, sa) {
            if (mk as u64) < hi as u64 {
                hi = mk;
                witness.copy_from_slice(sa);
                have_witness = true;
            }
        }
    }
    let mut calls = 0u32;
    // Telemetry accumulators, flushed once at return (plain locals: the
    // probe loop itself never touches the registry).
    let mut partitions = 0u64;
    let mut deficiency_skips = 0u64;

    // ---- FLN active-subinstance state, allocated once per call ----
    let mut active_tasks: Vec<u32> = (0..n).collect();
    let mut active_procs: Vec<u32> = (0..p).collect();
    let mut proc_active = vec![true; p as usize];
    // Low-side assignments fixed by partitioning; `NONE` ⇔ still active.
    let mut committed: Vec<u32> = vec![NONE; n as usize];
    let mut task_mark = vec![false; n as usize];
    let mut proc_mark = vec![false; p as usize];
    let mut bfs_queue: Vec<u32> = Vec::new();

    while lo < hi {
        // `lo` is `⌈n_A/p_A⌉` of the active view (module docs): a
        // feasible probe closes the bracket.
        let cap = lo;
        calls += 1;
        let capacity_of = |u: u32| if proc_active[u as usize] { cap } else { 0 };
        let card = max_assignment_view_in(g, &active_tasks, capacity_of, ws);
        let out = ws.task_procs();
        let active_n = active_tasks.len() as u64;
        if card == active_n {
            hi = cap;
            snapshot_witness(&mut witness, &committed, &active_tasks, out);
            have_witness = true;
        } else {
            // FLN deficiency bound: the shortfall dictates how much
            // extra capacity the whole surviving pool needs before the
            // probe can close.
            let uncovered = active_n - card;
            if uncovered.div_ceil(active_procs.len() as u64) > 1 {
                deficiency_skips += 1;
            }
            let shrunk = partition_active(
                g,
                out,
                &mut committed,
                &mut active_tasks,
                &mut active_procs,
                &mut proc_active,
                &mut task_mark,
                &mut proc_mark,
                &mut bfs_queue,
            );
            debug_assert!(
                shrunk,
                "an infeasible probe at ⌈n_A/p_A⌉ leaves a processor unsaturated"
            );
            // Sharpened over the saturated survivors, it is the new
            // view's counting bound.
            lo = cap + (uncovered.div_ceil(active_procs.len() as u64) as u32).max(1);
            partitions += 1;
        }
    }
    if obs::enabled() {
        obs::counter_add(&metric::COST_SCALING_SOLVES, 1);
        obs::counter_add(&metric::COST_SCALING_PROBES, calls as u64);
        obs::counter_add(&metric::COST_SCALING_PARTITIONS, partitions);
        obs::counter_add(&metric::COST_SCALING_DEFICIENCY_SKIPS, deficiency_skips);
    }
    let solution = if have_witness {
        SemiMatching::from_procs(g, &witness)?
    } else {
        seed // the greedy witness already sat on the lower bound
    };
    debug_assert_eq!(solution.makespan(g), hi as u64, "witness saturates the pinned profile");
    Ok(ExactResult { makespan: hi as u64, solution, oracle_calls: calls })
}

/// The plain-bisection ablation behind the fast-exact bench contrast: the
/// same bracket as [`cost_scaling_in`] and the same probe engine
/// ([`max_assignment_in`]), but it bisects the bracket, bounds the
/// deficiency over all `p` processors and never partitions the instance,
/// so every probe solves the whole graph.
pub fn cost_scaling_cold_in(g: &Bipartite, ws: &mut SearchWorkspace) -> Result<ExactResult> {
    check_instance(g)?;
    let n = g.n_left();
    if n == 0 {
        return Ok(ExactResult {
            makespan: 0,
            solution: SemiMatching { edge_of: Vec::new() },
            oracle_calls: 0,
        });
    }
    let p = g.n_right().max(1);
    let seed = crate::greedy::sorted::sorted_greedy(g)?;
    let mut hi = seed.makespan(g) as u32;
    let mut lo = n.div_ceil(p).max(1);
    let mut calls = 0u32;
    let mut witness: Option<Vec<u32>> = None;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        calls += 1;
        let a = max_assignment_in(g, mid, ws);
        if a.is_complete() {
            hi = mid;
            witness = Some(a.task_to_proc);
        } else {
            let deficit = (n as u64 - a.cardinality() as u64).div_ceil(p as u64);
            lo = mid + (deficit as u32).max(1);
        }
    }
    if obs::enabled() {
        obs::counter_add(&metric::COST_SCALING_COLD_ABLATION_SOLVES, 1);
        obs::counter_add(&metric::COST_SCALING_COLD_ABLATION_PROBES, calls as u64);
    }
    let solution = match witness {
        Some(assign) => SemiMatching::from_procs(g, &assign)?,
        None => seed,
    };
    Ok(ExactResult { makespan: hi as u64, solution, oracle_calls: calls })
}

/// Makespan of a caller-provided `task → processor` seed, or `None` when
/// the seed is not a valid complete assignment on `g`.
fn seed_makespan(g: &Bipartite, assign: &[u32]) -> Option<u32> {
    if assign.len() != g.n_left() as usize {
        return None;
    }
    let mut max_load = 0u32;
    let mut loads = vec![0u32; g.n_right() as usize];
    for (v, &u) in assign.iter().enumerate() {
        if u == NONE || g.neighbors(v as u32).binary_search(&u).is_err() {
            return None;
        }
        loads[u as usize] += 1;
        max_load = max_load.max(loads[u as usize]);
    }
    Some(max_load)
}

/// Full-length witness snapshot: committed low-side assignments overlaid
/// with the feasible probe's assignment of the active tasks.
fn snapshot_witness(witness: &mut [u32], committed: &[u32], active: &[u32], out: &[u32]) {
    witness.copy_from_slice(committed);
    for &v in active {
        witness[v as usize] = out[v as usize];
    }
}

/// FLN partition after an infeasible probe: BFS from the uncovered tasks
/// along the probe's assignment structure. A reached task contributes all
/// its (active) processors; a reached processor contributes the tasks the
/// probe assigned to it — so the reached set `(S_T, S_P)` is edge-closed
/// (`N(S_T) ⊆ S_P`) and, by maximality of the probe flow, every processor
/// in `S_P` is saturated. Tasks outside `S_T` therefore sit on processors
/// outside `S_P` at load `≤ D < opt` and can be committed for good; the
/// search continues on the strictly smaller `(S_T, S_P)` whose optimum
/// equals the global optimum. Returns whether anything shrank.
/// `O(active edges)`, allocation-free.
#[allow(clippy::too_many_arguments)]
fn partition_active(
    g: &Bipartite,
    out: &[u32],
    committed: &mut [u32],
    active_tasks: &mut Vec<u32>,
    active_procs: &mut Vec<u32>,
    proc_active: &mut [bool],
    task_mark: &mut [bool],
    proc_mark: &mut [bool],
    queue: &mut Vec<u32>,
) -> bool {
    let n = g.n_left();
    queue.clear();
    for &v in active_tasks.iter() {
        if out[v as usize] == NONE {
            task_mark[v as usize] = true;
            queue.push(v);
        }
    }
    // Alternating BFS; processors are encoded as `n + u` in the queue.
    let mut head = 0;
    while head < queue.len() {
        let x = queue[head];
        head += 1;
        if x < n {
            for &u in g.neighbors(x) {
                if proc_active[u as usize] && !proc_mark[u as usize] {
                    proc_mark[u as usize] = true;
                    queue.push(n + u);
                }
            }
        } else {
            let u = x - n;
            for &t in g.rneighbors(u) {
                // `out` is `NONE` outside the active view.
                if !task_mark[t as usize] && out[t as usize] == u {
                    task_mark[t as usize] = true;
                    queue.push(t);
                }
            }
        }
    }
    let st = active_tasks.iter().filter(|&&v| task_mark[v as usize]).count();
    let sp = active_procs.iter().filter(|&&u| proc_mark[u as usize]).count();
    let shrunk = (st < active_tasks.len() || sp < active_procs.len()) && st > 0 && sp > 0;
    if shrunk {
        for &v in active_tasks.iter() {
            if !task_mark[v as usize] {
                committed[v as usize] = out[v as usize];
            }
        }
        active_tasks.retain(|&v| task_mark[v as usize]);
        for &u in active_procs.iter() {
            proc_active[u as usize] = proc_mark[u as usize];
        }
        active_procs.retain(|&u| proc_mark[u as usize]);
    }
    for &x in queue.iter() {
        if x < n {
            task_mark[x as usize] = false;
        } else {
            proc_mark[(x - n) as usize] = false;
        }
    }
    shrunk
}

#[cfg(test)]
#[allow(clippy::type_complexity)] // edge-list test fixtures
mod tests {
    use super::*;
    use crate::error::CoreError;
    use crate::exact::unit::{exact_unit, SearchStrategy};

    #[test]
    fn agrees_with_the_matching_based_exact() {
        let cases: &[(u32, u32, &[(u32, u32)])] = &[
            (2, 2, &[(0, 0), (0, 1), (1, 0)]),
            (5, 1, &[(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]),
            (4, 2, &[(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0)]),
            (7, 4, &[(0, 0), (1, 0), (2, 0), (3, 1), (3, 2), (4, 2), (5, 3), (6, 3), (6, 0)]),
        ];
        for &(n1, n2, edges) in cases {
            let g = Bipartite::from_edges(n1, n2, edges).unwrap();
            let r = cost_scaling(&g).unwrap();
            r.solution.validate(&g).unwrap();
            assert_eq!(r.solution.makespan(&g), r.makespan);
            assert_eq!(r.makespan, exact_unit(&g, SearchStrategy::Incremental).unwrap().makespan);
            // The cold ablation baseline lands on the same optimum.
            let c = cost_scaling_cold_in(&g, &mut SearchWorkspace::new()).unwrap();
            assert_eq!(c.makespan, r.makespan);
        }
    }

    #[test]
    fn deficiency_bound_skips_range_chunks() {
        // All 8 tasks pinned to P0 beside an idle P1: lb = 4, opt = 8. The
        // first probe at 6 covers 6 of 8; the partition drops the idle P1,
        // sharpening the deficiency bound to ⌈2/1⌉ and closing the bracket
        // in a single probe — well within the binary-search budget.
        let edges: Vec<(u32, u32)> = (0..8).map(|t| (t, 0)).collect();
        let g = Bipartite::from_edges(8, 2, &edges).unwrap();
        let r = cost_scaling(&g).unwrap();
        assert_eq!(r.makespan, 8);
        assert!(r.oracle_calls <= 4, "made {} probes", r.oracle_calls);
    }

    #[test]
    fn greedy_witness_short_circuits_tight_instances() {
        // Perfectly spreadable: greedy hits the counting bound, no probes.
        let g = Bipartite::from_edges(4, 4, &[(0, 0), (1, 1), (2, 2), (3, 3)]).unwrap();
        let r = cost_scaling(&g).unwrap();
        assert_eq!(r.makespan, 1);
        assert_eq!(r.oracle_calls, 0);
    }

    #[test]
    fn partitioning_commits_the_low_side() {
        // A pinned-heavy island (tasks 0..6 → P0) next to an independent
        // spreadable island (tasks 6..10 over P1, P2): the first infeasible
        // probe splits them, the low side commits, and the optimum is the
        // island bottleneck.
        let mut edges: Vec<(u32, u32)> = (0..6).map(|t| (t, 0)).collect();
        edges.extend((6..10).flat_map(|t| [(t, 1), (t, 2)]));
        let g = Bipartite::from_edges(10, 3, &edges).unwrap();
        let r = cost_scaling(&g).unwrap();
        r.solution.validate(&g).unwrap();
        assert_eq!(r.makespan, 6);
        assert_eq!(r.makespan, exact_unit(&g, SearchStrategy::Incremental).unwrap().makespan);
    }

    #[test]
    fn warm_seed_tightens_the_bracket() {
        // Spreadable 2-regular instance; seed the solver with an optimal
        // assignment — the answer is unchanged and no probe can beat the
        // seeded witness.
        let g = Bipartite::from_edges(
            6,
            3,
            &[
                (0, 0),
                (0, 1),
                (1, 1),
                (1, 2),
                (2, 2),
                (2, 0),
                (3, 0),
                (3, 1),
                (4, 1),
                (4, 2),
                (5, 2),
                (5, 0),
            ],
        )
        .unwrap();
        let base = cost_scaling(&g).unwrap();
        let seed: Vec<u32> = base.solution.edge_of.iter().map(|&e| g.edge_right(e)).collect();
        let mut ws = SearchWorkspace::new();
        let seeded = cost_scaling_seeded_in(&g, Some(&seed), &mut ws).unwrap();
        assert_eq!(seeded.makespan, base.makespan);
        seeded.solution.validate(&g).unwrap();
        // Garbage seeds are ignored, not trusted.
        let junk = vec![2u32; 6];
        let junk_r = cost_scaling_seeded_in(&g, Some(&junk), &mut ws).unwrap();
        assert_eq!(junk_r.makespan, base.makespan);
    }

    #[test]
    fn preconditions_and_empty() {
        let w = Bipartite::from_weighted_edges(1, 1, &[(0, 0)], &[2]).unwrap();
        assert_eq!(cost_scaling(&w).unwrap_err(), CoreError::RequiresUnitWeights);
        let u = Bipartite::from_edges(2, 1, &[(0, 0)]).unwrap();
        assert_eq!(cost_scaling(&u).unwrap_err(), CoreError::UncoveredTask(1));
        let e = Bipartite::from_edges(0, 3, &[]).unwrap();
        assert_eq!(cost_scaling(&e).unwrap().makespan, 0);
    }

    /// Randomized cross-check: partitioned search == incremental
    /// matching exact == cold baseline on a mix of shapes.
    #[test]
    fn randomized_agreement_with_cold_and_incremental() {
        let mut state = 0x5eed_cafe_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..40 {
            let n1 = 2 + (next() % 12) as u32;
            let n2 = 1 + (next() % 5) as u32;
            let mut edges = Vec::new();
            for v in 0..n1 {
                let deg = 1 + (next() % 3).min(n2 as u64 - 1) as u32;
                let start = (next() % n2 as u64) as u32;
                for d in 0..=deg {
                    edges.push((v, (start + d) % n2));
                }
            }
            edges.sort_unstable();
            edges.dedup();
            let g = Bipartite::from_edges(n1, n2, &edges).unwrap();
            let warm = cost_scaling(&g).unwrap();
            warm.solution.validate(&g).unwrap();
            let cold = cost_scaling_cold_in(&g, &mut SearchWorkspace::new()).unwrap();
            let incr = exact_unit(&g, SearchStrategy::Incremental).unwrap();
            assert_eq!(warm.makespan, incr.makespan, "round {round}");
            assert_eq!(cold.makespan, incr.makespan, "round {round}");
        }
    }
}
