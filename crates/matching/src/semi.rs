//! Generalized Hopcroft–Karp for optimal semi-matchings.
//!
//! Katrenič and Semanišin (*A generalization of Hopcroft–Karp algorithm
//! for semi-matchings*) lift the classical phase structure of
//! Hopcroft–Karp from matchings to semi-matchings: instead of growing a
//! matching along shortest augmenting paths from free vertices, the
//! engine descends a complete assignment along shortest **load-reducing
//! paths** — alternating walks from a maximally loaded processor through
//! assigned tasks to a processor at least two units lighter; flipping
//! such a walk shifts one unit of load down the gradient. Each phase
//! builds one multi-source BFS level graph over the processors (sources =
//! all bottleneck processors) and then extracts a maximal set of disjoint
//! shortest paths with a stack DFS — augmenting along *all* shortest
//! load-reducing paths at once, the `O(√n · m)`-flavored counterpart of
//! the one-path-at-a-time descent.
//!
//! Optimality of the fixpoint is the symmetric-difference argument of
//! Harvey–Ladner–Lovász–Tamir specialized to the bottleneck: when no
//! bottleneck processor reaches a processor of load `≤ L − 2`, the
//! processors reachable from the bottleneck set all carry load `≥ L − 1`
//! and their tasks have no edges leaving the set, so every assignment
//! loads some reachable processor to at least `L`.
//!
//! All scratch (level arrays, intrusive per-processor task lists, BFS
//! queue, DFS stack, per-task edge cursors) lives in the shared
//! [`SearchWorkspace`], so warm repeated solves allocate only the
//! returned assignment.

use semimatch_graph::Bipartite;
use semimatch_obs::{self as obs, catalog as metric};

use crate::matching::NONE;
use crate::workspace::SearchWorkspace;

/// A complete task→processor assignment produced by the phase descent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SemiAssignment {
    /// Processor of each task ([`NONE`] for tasks with no eligible
    /// processor, which the descent ignores).
    pub task_to_proc: Vec<u32>,
    /// Number of tasks on each processor.
    pub loads: Vec<u32>,
    /// BFS/DFS phases performed (the Hopcroft–Karp cost driver).
    pub phases: u32,
    /// Individual load-reducing path flips applied across all phases.
    pub flips: u64,
}

impl SemiAssignment {
    /// Largest processor load — the optimal makespan on unit weights.
    pub fn max_load(&self) -> u32 {
        self.loads.iter().copied().max().unwrap_or(0)
    }
}

/// Bottleneck-optimal semi-matching assignment with throwaway scratch.
///
/// See [`optimal_semi_assignment_in`] for the warm-path variant.
pub fn optimal_semi_assignment(g: &Bipartite) -> SemiAssignment {
    optimal_semi_assignment_in(g, &mut SearchWorkspace::new())
}

/// Bottleneck-optimal semi-matching assignment on unit tasks, drawing all
/// scratch from `ws`.
///
/// Weights are ignored: every assigned task contributes one unit to its
/// processor (callers enforcing `SINGLEPROC-UNIT` semantics check
/// unit weights before dispatching here). The returned assignment
/// minimizes the maximum load over all complete assignments.
pub fn optimal_semi_assignment_in(g: &Bipartite, ws: &mut SearchWorkspace) -> SemiAssignment {
    let _span = obs::span!("hk_semi.solve");
    let n1 = g.n_left() as usize;
    let n2 = g.n_right() as usize;
    ws.reserve(g.n_left(), g.n_right());
    ws.labels[..n2].fill(0); // per-processor loads
    ws.list_head[..n2].fill(NONE);

    // Greedy seed: each task takes its currently least-loaded eligible
    // processor. On tall (n ≫ p) instances this already sits within one
    // unit of optimal almost everywhere, so few phases remain.
    let mut task_to_proc = vec![NONE; n1];
    for t in 0..n1 {
        let mut best = NONE;
        let mut best_load = u32::MAX;
        for &u in g.neighbors(t as u32) {
            if ws.labels[u as usize] < best_load {
                best_load = ws.labels[u as usize];
                best = u;
            }
        }
        if best != NONE {
            link_front(ws, best, t as u32);
            task_to_proc[t] = best;
            ws.labels[best as usize] += 1;
        }
    }

    let mut phases = 0u32;
    let mut flips = 0u64;
    let mut bfs_levels = 0u64;
    loop {
        let l_max = ws.labels[..n2].iter().copied().max().unwrap_or(0);
        if l_max <= 1 {
            break; // no processor two units lighter can exist
        }
        // ---- BFS: multi-source level graph from every bottleneck
        // processor, truncated at the first level holding a target
        // (load ≤ L − 2). Alternating step: processor → assigned task →
        // eligible processor.
        ws.rdist[..n2].fill(u32::MAX);
        ws.queue.clear();
        for u in 0..n2 {
            if ws.labels[u] == l_max {
                ws.rdist[u] = 0;
                ws.queue.push(u as u32);
            }
        }
        let mut found_level = u32::MAX;
        let mut head = 0;
        while head < ws.queue.len() {
            let u = ws.queue[head];
            head += 1;
            let du = ws.rdist[u as usize];
            if du >= found_level {
                break;
            }
            let mut t = ws.list_head[u as usize];
            while t != NONE {
                for &w in g.neighbors(t) {
                    if ws.rdist[w as usize] != u32::MAX {
                        continue;
                    }
                    ws.rdist[w as usize] = du + 1;
                    if ws.labels[w as usize] + 2 <= l_max {
                        found_level = du + 1; // shortest paths end here
                    } else {
                        ws.queue.push(w);
                    }
                }
                t = ws.list_next[t as usize];
            }
        }
        if found_level == u32::MAX {
            break; // no bottleneck processor can shed load: optimal
        }
        phases += 1;
        bfs_levels += found_level as u64;
        // ---- DFS phase: pull a maximal set of shortest paths out of the
        // level graph. Exhausted processors are dead-marked (stamped) so
        // later sources skip them; path validity (source still at L,
        // target still ≤ L − 2) is re-checked at flip time, so earlier
        // flips in the phase can never corrupt later ones.
        let dead = ws.next_stamp();
        for src in 0..n2 as u32 {
            if ws.labels[src as usize] != l_max || ws.rdist[src as usize] != 0 {
                continue;
            }
            if phase_dfs(g, ws, &mut task_to_proc, src, l_max, dead) {
                flips += 1;
            }
        }
    }

    if obs::enabled() {
        // Flushed once per solve: the phase loop itself touches no
        // telemetry, so instrumentation cost stays off the descent.
        obs::counter_add(&metric::HK_SEMI_SOLVES, 1);
        obs::counter_add(&metric::HK_SEMI_PHASES, phases as u64);
        obs::counter_add(&metric::HK_SEMI_PATHS_EXTRACTED, flips);
        obs::counter_add(&metric::HK_SEMI_BFS_LEVELS, bfs_levels);
    }
    let loads = ws.labels[..n2].to_vec();
    SemiAssignment { task_to_proc, loads, phases, flips }
}

/// One source's DFS through the level graph. Flips and returns `true` on
/// reaching a processor of load `≤ l_max − 2`; dead-marks every processor
/// it exhausts. Cycle-free because levels strictly increase along edges.
fn phase_dfs(
    g: &Bipartite,
    ws: &mut SearchWorkspace,
    task_to_proc: &mut [u32],
    src: u32,
    l_max: u32,
    dead: u32,
) -> bool {
    ws.stack.clear();
    let h = ws.list_head[src as usize];
    if h != NONE {
        ws.lookahead[h as usize] = 0;
    }
    ws.stack.push((src, h));
    while let Some(&(u, mut tcur)) = ws.stack.last() {
        let du = ws.rdist[u as usize];
        let mut next_proc = NONE;
        while tcur != NONE {
            let nbrs = g.neighbors(tcur);
            let mut k = ws.lookahead[tcur as usize] as usize;
            while k < nbrs.len() {
                let w = nbrs[k];
                k += 1;
                if ws.visited[w as usize] != dead && ws.rdist[w as usize] == du + 1 {
                    next_proc = w;
                    break;
                }
            }
            ws.lookahead[tcur as usize] = k as u32;
            if next_proc != NONE {
                break;
            }
            tcur = ws.list_next[tcur as usize];
            if tcur != NONE {
                ws.lookahead[tcur as usize] = 0;
            }
        }
        ws.stack.last_mut().expect("loop invariant").1 = tcur;
        if next_proc == NONE {
            // Every task of `u` is exhausted: nothing below `u` reaches a
            // target, so no later path this phase can either.
            ws.visited[u as usize] = dead;
            ws.stack.pop();
            continue;
        }
        let w = next_proc;
        ws.pred[w as usize] = tcur;
        if ws.labels[w as usize] + 2 <= l_max {
            flip_path(ws, task_to_proc, w);
            return true;
        }
        let h = ws.list_head[w as usize];
        if h != NONE {
            ws.lookahead[h as usize] = 0;
        }
        ws.stack.push((w, h));
    }
    false
}

/// Flips the discovered path: every task on it moves one processor
/// forward, shifting one unit of load from the level-0 source onto the
/// target `w`.
fn flip_path(ws: &mut SearchWorkspace, task_to_proc: &mut [u32], mut w: u32) {
    loop {
        let t = ws.pred[w as usize];
        let u = task_to_proc[t as usize];
        unlink(ws, u, t);
        link_front(ws, w, t);
        task_to_proc[t as usize] = w;
        ws.labels[u as usize] -= 1;
        ws.labels[w as usize] += 1;
        if ws.rdist[u as usize] == 0 {
            return; // reached the source
        }
        w = u;
    }
}

/// Pushes task `t` onto processor `u`'s intrusive assigned list.
fn link_front(ws: &mut SearchWorkspace, u: u32, t: u32) {
    let h = ws.list_head[u as usize];
    ws.list_next[t as usize] = h;
    ws.list_prev[t as usize] = NONE;
    if h != NONE {
        ws.list_prev[h as usize] = t;
    }
    ws.list_head[u as usize] = t;
}

/// Removes task `t` from processor `u`'s intrusive assigned list.
fn unlink(ws: &mut SearchWorkspace, u: u32, t: u32) {
    let prev = ws.list_prev[t as usize];
    let next = ws.list_next[t as usize];
    if prev == NONE {
        ws.list_head[u as usize] = next;
    } else {
        ws.list_next[prev as usize] = next;
    }
    if next != NONE {
        ws.list_prev[next as usize] = prev;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacitated::max_assignment;

    /// Reference optimum: smallest capacity whose capacitated assignment
    /// covers every task.
    fn reference_opt(g: &Bipartite) -> u32 {
        (1..=g.n_left().max(1)).find(|&d| max_assignment(g, d).is_complete()).unwrap_or(0)
    }

    #[test]
    fn fig1_optimum_is_one() {
        let g = Bipartite::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0)]).unwrap();
        let a = optimal_semi_assignment(&g);
        assert_eq!(a.max_load(), 1);
        assert!(a.task_to_proc.iter().all(|&p| p != NONE));
    }

    #[test]
    fn forced_pileup() {
        let g = Bipartite::from_edges(5, 1, &[(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]).unwrap();
        assert_eq!(optimal_semi_assignment(&g).max_load(), 5);
    }

    #[test]
    fn chain_requires_cascading_flips() {
        // P0 crowded, each task can hop one processor right: optimum 1.
        let g = Bipartite::from_edges(
            4,
            4,
            &[(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3), (3, 0), (3, 1)],
        )
        .unwrap();
        let a = optimal_semi_assignment(&g);
        assert_eq!(a.max_load(), 1);
    }

    #[test]
    fn agrees_with_capacitated_search_on_random_instances() {
        // Deterministic pseudo-random sweep sharing one workspace.
        let mut ws = SearchWorkspace::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..60 {
            let n = 1 + (next() % 14) as u32;
            let p = 1 + (next() % 6) as u32;
            let mut edges = Vec::new();
            for t in 0..n {
                let deg = 1 + next() % p.min(4) as u64;
                let mut procs: Vec<u32> = (0..p).collect();
                for i in (1..procs.len()).rev() {
                    procs.swap(i, next() as usize % (i + 1));
                }
                for &u in procs.iter().take(deg as usize) {
                    edges.push((t, u));
                }
            }
            let g = Bipartite::from_edges(n, p, &edges).unwrap();
            let a = optimal_semi_assignment_in(&g, &mut ws);
            // Complete, eligible, loads consistent.
            let mut loads = vec![0u32; p as usize];
            for (t, &u) in a.task_to_proc.iter().enumerate() {
                assert!(g.neighbors(t as u32).contains(&u), "case {case}: foreign allocation");
                loads[u as usize] += 1;
            }
            assert_eq!(loads, a.loads, "case {case}: stale loads");
            assert_eq!(a.max_load(), reference_opt(&g), "case {case}: suboptimal bottleneck");
        }
    }

    #[test]
    fn empty_and_degenerate_instances() {
        let g = Bipartite::from_edges(0, 3, &[]).unwrap();
        let a = optimal_semi_assignment(&g);
        assert_eq!(a.max_load(), 0);
        assert_eq!(a.phases, 0);
        // A task with no edges stays unassigned instead of panicking.
        let g = Bipartite::from_edges(2, 1, &[(0, 0)]).unwrap();
        let a = optimal_semi_assignment(&g);
        assert_eq!(a.task_to_proc[1], NONE);
        assert_eq!(a.max_load(), 1);
    }

    #[test]
    fn workspace_reuse_is_invisible() {
        let g1 = Bipartite::from_edges(4, 2, &[(0, 0), (1, 0), (2, 0), (2, 1), (3, 1)]).unwrap();
        let g2 = Bipartite::from_edges(2, 3, &[(0, 0), (0, 2), (1, 2)]).unwrap();
        let mut ws = SearchWorkspace::new();
        let cold1 = optimal_semi_assignment(&g1);
        let cold2 = optimal_semi_assignment(&g2);
        for _ in 0..3 {
            assert_eq!(optimal_semi_assignment_in(&g1, &mut ws), cold1);
            assert_eq!(optimal_semi_assignment_in(&g2, &mut ws), cold2);
        }
    }
}
