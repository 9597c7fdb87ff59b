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
//! On tall instances each processor holds many tasks whose edges name
//! only a few processors, so rescanning task lists dominates. When the
//! `p × p` table is no larger than the edge list (`p² ≤ m`), the descent
//! keeps **processor-pair task counts**: row `u`, column `x` counts the
//! tasks now on `u` that are adjacent to `x`. The second time the BFS
//! dequeues a processor it fills the processor's row from its task list
//! (filling on the first visit costs more than it saves on dense tall
//! instances), and from then on every flip keeps the row exact at
//! `O(deg)` per moved task. A filled row stands in for the task scan in
//! the BFS, whose levels depend only on the processor graph. In the DFS
//! it dead-marks a processor whose row names no live processor one level
//! down, without walking its tasks: dead marks only grow within a phase,
//! so that walk would have found nothing. Every other DFS step walks the
//! task list in the same order as without the table, so the table
//! changes no phase, flip or assignment. The descent is compiled once
//! with the table and once without; instances with `p² > m` run the
//! latter.
//!
//! All scratch (level arrays, intrusive per-processor task lists, BFS
//! queue, DFS stack, per-task edge cursors, pair counts) lives in the
//! shared [`SearchWorkspace`], so warm repeated solves allocate only the
//! returned assignment.

use semimatch_graph::Bipartite;
use semimatch_obs::{self as obs, catalog as metric};

use crate::matching::NONE;
use crate::workspace::SearchWorkspace;

/// BFS scans of a processor's task list after which its row of pair
/// counts is filled and kept: the second scan fills it.
///
/// The descent keeps the `p × p` pair counts, row-major, in the
/// workspace's `aux` array and each processor's scan count in `cursor`;
/// the matching engines that also use those arrays rewrite them before
/// reading.
const FILLED_ROW_SCANS: u32 = 2;

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
    // The pair-count table is kept when it is no larger than the edge
    // list. Each choice compiles its own descent, so the one without the
    // table carries none of its branches.
    let p = g.n_right() as usize;
    if p.saturating_mul(p) <= g.num_edges() {
        descend::<true>(g, ws)
    } else {
        descend::<false>(g, ws)
    }
}

/// The phase descent, keeping processor-pair task counts when
/// `PAIR_TABLE`. Never inlined: with both instances in one function, the
/// descent without the table measured slower than on its own.
#[inline(never)]
fn descend<const PAIR_TABLE: bool>(g: &Bipartite, ws: &mut SearchWorkspace) -> SemiAssignment {
    let _span = obs::span!("hk_semi.solve");
    let n1 = g.n_left() as usize;
    let n2 = g.n_right() as usize;
    ws.reserve(g.n_left(), g.n_right());
    ws.labels[..n2].fill(0); // per-processor loads
    ws.list_head[..n2].fill(NONE);
    if PAIR_TABLE {
        ws.reserve_pair_counts(n2);
        ws.cursor[..n2].fill(0);
    }

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
            if PAIR_TABLE && bfs_from_row(g, ws, u, du, l_max, &mut found_level) {
                continue;
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
            if phase_dfs::<PAIR_TABLE>(g, ws, &mut task_to_proc, src, l_max, dead) {
                flips += 1;
            }
        }
        if PAIR_TABLE {
            debug_assert_eq!(check_pair_rows(g, ws), Ok(()), "after phase {phases}");
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

/// BFS step from processor `u` at level `du` through its row of pair
/// counts. Counts this scan of `u`; the first scan returns `false`, and
/// the caller scans `u`'s tasks. The second scan fills the row, and from
/// then on the row stands in for the task scan: every processor it names
/// is reached in column order, which yields the same levels. The visit
/// repeats the task scan's: shared as a helper, it made the descent
/// without the table measure slower.
fn bfs_from_row(
    g: &Bipartite,
    ws: &mut SearchWorkspace,
    u: u32,
    du: u32,
    l_max: u32,
    found_level: &mut u32,
) -> bool {
    let scans = ws.cursor[u as usize] + 1;
    if scans < FILLED_ROW_SCANS {
        ws.cursor[u as usize] = scans;
        return false;
    }
    if scans == FILLED_ROW_SCANS {
        fill_row(g, ws, u);
    }
    let p = g.n_right() as usize;
    let row = u as usize * p;
    for x in 0..p {
        if ws.aux[row + x] == 0 || ws.rdist[x] != u32::MAX {
            continue;
        }
        ws.rdist[x] = du + 1;
        if ws.labels[x] + 2 <= l_max {
            *found_level = du + 1;
        } else {
            ws.queue.push(x as u32);
        }
    }
    true
}

/// Fills processor `u`'s row of pair counts from its task list and marks
/// it kept.
fn fill_row(g: &Bipartite, ws: &mut SearchWorkspace, u: u32) {
    let p = g.n_right() as usize;
    let row = u as usize * p;
    ws.aux[row..row + p].fill(0);
    let mut t = ws.list_head[u as usize];
    while t != NONE {
        for &x in g.neighbors(t) {
            ws.aux[row + x as usize] += 1;
        }
        t = ws.list_next[t as usize];
    }
    ws.cursor[u as usize] = FILLED_ROW_SCANS;
}

/// Whether processor `u` has a filled row of pair counts that names no
/// live (not dead-marked) processor one level below `u`. Its task walk
/// would then find no next step.
fn row_is_dead_end(ws: &SearchWorkspace, p: usize, u: u32, dead: u32) -> bool {
    if ws.cursor[u as usize] != FILLED_ROW_SCANS {
        return false;
    }
    let next = ws.rdist[u as usize] + 1;
    let row = &ws.aux[u as usize * p..][..p];
    !row.iter().enumerate().any(|(x, &c)| c != 0 && ws.rdist[x] == next && ws.visited[x] != dead)
}

/// One source's DFS through the level graph. Flips and returns `true` on
/// reaching a processor of load `≤ l_max − 2`; dead-marks every processor
/// it exhausts. Cycle-free because levels strictly increase along edges.
fn phase_dfs<const PAIR_TABLE: bool>(
    g: &Bipartite,
    ws: &mut SearchWorkspace,
    task_to_proc: &mut [u32],
    src: u32,
    l_max: u32,
    dead: u32,
) -> bool {
    let p = g.n_right() as usize;
    ws.stack.clear();
    if PAIR_TABLE && row_is_dead_end(ws, p, src, dead) {
        ws.visited[src as usize] = dead;
        return false;
    }
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
            flip_path::<PAIR_TABLE>(g, ws, task_to_proc, w);
            return true;
        }
        if PAIR_TABLE && row_is_dead_end(ws, p, w, dead) {
            // Exhausted without a walk: pushing `w` would pop it dead.
            ws.visited[w as usize] = dead;
            continue;
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
/// target `w`. Filled rows of pair counts follow their tasks.
fn flip_path<const PAIR_TABLE: bool>(
    g: &Bipartite,
    ws: &mut SearchWorkspace,
    task_to_proc: &mut [u32],
    mut w: u32,
) {
    let p = g.n_right() as usize;
    loop {
        let t = ws.pred[w as usize];
        let u = task_to_proc[t as usize];
        unlink(ws, u, t);
        link_front(ws, w, t);
        task_to_proc[t as usize] = w;
        ws.labels[u as usize] -= 1;
        ws.labels[w as usize] += 1;
        if PAIR_TABLE {
            let from_filled = ws.cursor[u as usize] == FILLED_ROW_SCANS;
            let to_filled = ws.cursor[w as usize] == FILLED_ROW_SCANS;
            for &x in g.neighbors(t) {
                if from_filled {
                    ws.aux[u as usize * p + x as usize] -= 1;
                }
                if to_filled {
                    ws.aux[w as usize * p + x as usize] += 1;
                }
            }
        }
        if ws.rdist[u as usize] == 0 {
            return; // reached the source
        }
        w = u;
    }
}

/// Recounts every filled row of pair counts from its processor's task
/// list and reports the first entry that disagrees. The descent checks it
/// after every phase in debug builds.
fn check_pair_rows(g: &Bipartite, ws: &SearchWorkspace) -> Result<(), String> {
    let p = g.n_right() as usize;
    let mut recount = vec![0u32; p];
    for u in 0..p {
        if ws.cursor[u] != FILLED_ROW_SCANS {
            continue;
        }
        recount.fill(0);
        let mut t = ws.list_head[u];
        while t != NONE {
            for &x in g.neighbors(t) {
                recount[x as usize] += 1;
            }
            t = ws.list_next[t as usize];
        }
        let row = &ws.aux[u * p..][..p];
        if let Some(x) = (0..p).find(|&x| row[x] != recount[x]) {
            return Err(format!(
                "row {u} counts {} tasks adjacent to processor {x}, its task list {}",
                row[x], recount[x]
            ));
        }
    }
    Ok(())
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
    /// covers every task (coverage is monotone in the capacity).
    fn reference_opt(g: &Bipartite) -> u32 {
        let caps: Vec<u32> = (1..=g.n_left().max(1)).collect();
        let i = caps.partition_point(|&d| !max_assignment(g, d).is_complete());
        caps.get(i).copied().unwrap_or(0)
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
        // Deterministic pseudo-random sweep sharing one workspace. The
        // last 40 cases are tall (p² ≤ m), and the second half of their
        // tasks may use only the first half of the processors, so the
        // greedy seed piles load there and the descent runs many phases:
        // rows of pair counts get filled, then follow later flips.
        let mut ws = SearchWorkspace::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut filled_cases = 0;
        for case in 0..100 {
            let tall = case >= 60;
            let (n, p) = if tall {
                (64 + (next() % 256) as u32, 2 + (next() % 7) as u32)
            } else {
                (1 + (next() % 14) as u32, 1 + (next() % 6) as u32)
            };
            let mut edges = Vec::new();
            for t in 0..n {
                let eligible = if tall && t >= n / 2 { p / 2 } else { p };
                let deg = 1 + next() % eligible.min(4) as u64;
                let mut procs: Vec<u32> = (0..eligible).collect();
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
            if tall && ws.cursor[..p as usize].contains(&FILLED_ROW_SCANS) {
                filled_cases += 1;
            }
        }
        assert!(filled_cases >= 30, "only {filled_cases} tall cases filled a row");
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
