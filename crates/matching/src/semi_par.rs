//! Parallel phase extraction for the generalized Hopcroft–Karp engine.
//!
//! [`semi`](crate::semi) descends a complete assignment along shortest
//! load-reducing paths one phase at a time; within a phase, the DFS
//! extraction from the bottleneck sources is embarrassingly parallel *up
//! to path disjointness*. This module shards the source set across the
//! rayon pool and makes disjointness explicit with a per-processor
//! **claim word**:
//!
//! * `FREE` — nobody is on this processor; a worker may CAS it to `HELD`
//!   (`Acquire`) to walk through it;
//! * `HELD` — some worker's DFS stack currently runs through it, or it is
//!   the target of a flip in progress; other workers skip it;
//! * `DEAD` — a worker exhausted it (none of its tasks reach a target),
//!   so no later path this phase can use it.
//!
//! A worker holds the claims of every processor on its DFS stack. On a
//! successful flip it releases the whole path back to `FREE` (`Release`,
//! pairing with the next claimant's `Acquire`); on exhaustion it marks
//! the processor `DEAD` and backtracks. Since claims are only ever
//! *tried*, never waited on, there is no lock order and no deadlock.
//!
//! Why this preserves the sequential engine's invariants:
//!
//! * **Sources are never intermediates.** A source has level 0 and DFS
//!   only steps to level `d + 1 ≥ 1`, so no other worker ever touches a
//!   source's load or task list — the `load == l_max` source check stays
//!   valid without coordination.
//! * **Flips are claim-local.** A flip mutates loads and intrusive task
//!   lists of exactly the processors on the flipping worker's stack plus
//!   the claimed target, all of which it holds.
//! * **Contention only costs phases, not correctness.** A worker that
//!   skips a `HELD` processor (or dead-marks under contention) may miss a
//!   path the sequential engine would have found; the missed load
//!   reduction is simply rediscovered by a later phase's fresh BFS. If an
//!   entire parallel round flips nothing while the BFS had found a
//!   target, the round is re-run sequentially with fresh claims — the
//!   standard level-graph argument guarantees that run flips at least one
//!   path, so the descent always makes progress.
//!
//! The fixpoint test (no bottleneck processor reaches a processor of load
//! `≤ L − 2`) is evaluated by the same sequential BFS as the sequential
//! engine, so the parallel engine terminates with the identical
//! optimality certificate: **bit-identical optimal makespan**, even
//! though phase/flip counts may differ run to run.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use rayon::prelude::*;
use semimatch_graph::Bipartite;
use semimatch_obs::{self as obs, catalog as metric};

use crate::matching::NONE;
use crate::semi::SemiAssignment;

/// Claim states for a processor within one extraction phase.
const FREE: u32 = 0;
const DEAD: u32 = 1;
const HELD: u32 = 2;

/// Below this many bottleneck sources a phase is extracted sequentially:
/// the claim traffic and chunk spawn cost more than the walk itself.
const PAR_SOURCE_THRESHOLD: usize = 16;

/// Shared mutable state of one parallel descent. Every array is indexed
/// exactly like its [`SearchWorkspace`](crate::workspace::SearchWorkspace)
/// counterpart in the sequential engine; atomicity replaces `&mut`.
///
/// Data words (`loads`, lists, cursors, `pred`) are accessed with
/// `Relaxed` ordering *under a claim*: the claim word's `Acquire`/`Release`
/// edges order every handoff of a processor between workers.
struct ParState {
    /// Per-processor load.
    loads: Vec<AtomicU32>,
    /// Assigned processor of each task.
    task_to_proc: Vec<AtomicU32>,
    /// Intrusive per-processor list of assigned tasks.
    list_head: Vec<AtomicU32>,
    list_next: Vec<AtomicU32>,
    list_prev: Vec<AtomicU32>,
    /// Per-task adjacency cursor (reset whenever a DFS enters the task).
    lookahead: Vec<AtomicU32>,
    /// Task by which the DFS entered each processor (path back-pointers).
    pred: Vec<AtomicU32>,
    /// Claim word per processor: `FREE` / `DEAD` / `HELD`.
    claim: Vec<AtomicU32>,
    /// Claim CAS attempts that lost (processor already `HELD`/`DEAD`).
    /// Only bumped while a collecting recorder is installed.
    cas_failures: AtomicU64,
}

impl ParState {
    fn load(&self, u: u32) -> u32 {
        // ordering: Relaxed — load words are only written phase-sequentially
        // (all workers joined) or under a claimed processor; the claim CAS
        // Acquire/Release pair publishes them across workers.
        self.loads[u as usize].load(Ordering::Relaxed)
    }
}

/// Bottleneck-optimal semi-matching assignment on unit tasks, extracting
/// each Hopcroft–Karp phase in parallel across the rayon pool.
///
/// Produces an assignment whose `max_load()` is bit-identical to
/// [`optimal_semi_assignment`](crate::semi::optimal_semi_assignment) —
/// both are the optimum — though the witness assignment, phase count and
/// flip count may differ. Allocates its own atomic scratch; prefer the
/// sequential warm path for small or repeated solves.
pub fn optimal_semi_assignment_par(g: &Bipartite) -> SemiAssignment {
    let _span = obs::span!("hk_semi.solve_par");
    let n1 = g.n_left() as usize;
    let n2 = g.n_right() as usize;

    // Greedy seed, identical to the sequential engine: each task takes its
    // currently least-loaded eligible processor.
    let mut loads = vec![0u32; n2];
    let mut list_head = vec![NONE; n2];
    let mut list_next = vec![NONE; n1];
    let mut list_prev = vec![NONE; n1];
    let mut task_to_proc = vec![NONE; n1];
    for t in 0..n1 {
        let mut best = NONE;
        let mut best_load = u32::MAX;
        for &u in g.neighbors(t as u32) {
            if loads[u as usize] < best_load {
                best_load = loads[u as usize];
                best = u;
            }
        }
        if best != NONE {
            let h = list_head[best as usize];
            list_next[t] = h;
            if h != NONE {
                list_prev[h as usize] = t as u32;
            }
            list_head[best as usize] = t as u32;
            task_to_proc[t] = best;
            loads[best as usize] += 1;
        }
    }

    let state = ParState {
        loads: loads.into_iter().map(AtomicU32::new).collect(),
        task_to_proc: task_to_proc.into_iter().map(AtomicU32::new).collect(),
        list_head: list_head.into_iter().map(AtomicU32::new).collect(),
        list_next: list_next.into_iter().map(AtomicU32::new).collect(),
        list_prev: list_prev.into_iter().map(AtomicU32::new).collect(),
        lookahead: (0..n1).map(|_| AtomicU32::new(0)).collect(),
        pred: (0..n1.max(n2)).map(|_| AtomicU32::new(NONE)).collect(),
        claim: (0..n2).map(|_| AtomicU32::new(FREE)).collect(),
        cas_failures: AtomicU64::new(0),
    };

    let mut rdist = vec![u32::MAX; n2];
    let mut queue: Vec<u32> = Vec::new();
    let mut phases = 0u32;
    let mut flips = 0u64;
    let mut bfs_levels = 0u64;
    let mut fallback_rounds = 0u64;
    loop {
        let l_max = (0..n2 as u32).map(|u| state.load(u)).max().unwrap_or(0);
        if l_max <= 1 {
            break;
        }
        // Sequential multi-source BFS, exactly as in the sequential
        // engine. All pool workers are parked between phases (the
        // par_iter below joins), so Relaxed reads see every flip.
        rdist.fill(u32::MAX);
        queue.clear();
        for u in 0..n2 {
            if state.load(u as u32) == l_max {
                rdist[u] = 0;
                queue.push(u as u32);
            }
        }
        let mut found_level = u32::MAX;
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            let du = rdist[u as usize];
            if du >= found_level {
                break;
            }
            // ordering: Relaxed — BFS runs between phases; the par_iter join
            // already ordered every worker's list edits before this read.
            let mut t = state.list_head[u as usize].load(Ordering::Relaxed);
            while t != NONE {
                for &w in g.neighbors(t) {
                    if rdist[w as usize] != u32::MAX {
                        continue;
                    }
                    rdist[w as usize] = du + 1;
                    if state.load(w) + 2 <= l_max {
                        found_level = du + 1;
                    } else {
                        queue.push(w);
                    }
                }
                t = state.list_next[t as usize].load(Ordering::Relaxed); // ordering: as above
            }
        }
        if found_level == u32::MAX {
            break; // no bottleneck processor can shed load: optimal
        }
        phases += 1;
        bfs_levels += found_level as u64;

        let sources: Vec<u32> =
            (0..n2 as u32).filter(|&u| rdist[u as usize] == 0 && state.load(u) == l_max).collect();
        for c in &state.claim {
            // ordering: Relaxed — phase-sequential reset; the fork into
            // par_iter publishes it to the workers.
            c.store(FREE, Ordering::Relaxed);
        }
        let threads = rayon::current_num_threads();
        let go_parallel = threads > 1 && sources.len() >= PAR_SOURCE_THRESHOLD;
        let mut phase_flips = if go_parallel {
            let chunk = sources.len().div_ceil(threads);
            let parts: Vec<&[u32]> = sources.chunks(chunk).collect();
            let counts: Vec<u64> = parts
                .into_par_iter()
                .map(|part| {
                    let mut stack: Vec<(u32, u32)> = Vec::new();
                    let mut local = 0u64;
                    for &src in part {
                        if claim_dfs(g, &state, &rdist, src, l_max, &mut stack) {
                            local += 1;
                        }
                    }
                    local
                })
                .collect();
            counts.iter().sum()
        } else {
            extract_sequential(g, &state, &rdist, &sources, l_max)
        };
        if phase_flips == 0 && go_parallel {
            // Mutual claim blocking starved every worker. Re-run the
            // round sequentially with fresh claims: the level graph still
            // holds a source→target path, so this flips at least once.
            for c in &state.claim {
                c.store(FREE, Ordering::Relaxed); // ordering: as the reset above
            }
            fallback_rounds += 1;
            phase_flips = extract_sequential(g, &state, &rdist, &sources, l_max);
        }
        if phase_flips == 0 {
            // Unreachable by the level-graph argument; bail rather than
            // loop forever if the invariant is ever broken.
            debug_assert!(false, "BFS found a target but extraction flipped nothing");
            break;
        }
        flips += phase_flips;
    }

    if obs::enabled() {
        obs::counter_add(&metric::HK_SEMI_SOLVES, 1);
        obs::counter_add(&metric::HK_SEMI_PHASES, phases as u64);
        obs::counter_add(&metric::HK_SEMI_PATHS_EXTRACTED, flips);
        obs::counter_add(&metric::HK_SEMI_BFS_LEVELS, bfs_levels);
        // ordering: Relaxed — read after every phase joined; counts final.
        let cas_failures = state.cas_failures.load(Ordering::Relaxed);
        obs::counter_add(&metric::HK_SEMI_PAR_CAS_FAILURES, cas_failures);
        obs::counter_add(&metric::HK_SEMI_PAR_FALLBACK_ROUNDS, fallback_rounds);
    }
    SemiAssignment {
        // ordering: Relaxed — single-threaded unload after the final join.
        task_to_proc: state.task_to_proc.iter().map(|a| a.load(Ordering::Relaxed)).collect(),
        loads: state.loads.iter().map(|a| a.load(Ordering::Relaxed)).collect(), // ordering: as above
        phases,
        flips,
    }
}

/// One extraction round on the calling thread (also the zero-flip
/// fallback). With a single walker every CAS succeeds, so this is
/// step-for-step the sequential engine's DFS phase.
fn extract_sequential(
    g: &Bipartite,
    state: &ParState,
    rdist: &[u32],
    sources: &[u32],
    l_max: u32,
) -> u64 {
    let mut stack: Vec<(u32, u32)> = Vec::new();
    let mut local = 0u64;
    for &src in sources {
        if claim_dfs(g, state, rdist, src, l_max, &mut stack) {
            local += 1;
        }
    }
    local
}

/// One source's DFS through the level graph, entering processors only
/// under claim. Flips and returns `true` on reaching a processor of load
/// `≤ l_max − 2`; dead-marks every processor it exhausts.
fn claim_dfs(
    g: &Bipartite,
    s: &ParState,
    rdist: &[u32],
    src: u32,
    l_max: u32,
    stack: &mut Vec<(u32, u32)>,
) -> bool {
    // The source's load can only have been changed by this worker's own
    // earlier flips (sources are never on other workers' paths).
    if s.load(src) != l_max {
        return false;
    }
    if s.claim[src as usize]
        // ordering: Acquire on success pairs with the Release that last freed
        // or dead-marked this claim, publishing the owner's list/load edits;
        // Relaxed on failure — losers never touch the protected data.
        .compare_exchange(FREE, HELD, Ordering::Acquire, Ordering::Relaxed)
        .is_err()
    {
        if obs::enabled() {
            // ordering: Relaxed — statistics counter, read after the joins.
            s.cas_failures.fetch_add(1, Ordering::Relaxed);
        }
        return false; // dead-marked by an earlier walk of our own chunk
    }
    stack.clear();
    // ordering: Relaxed — `src` is HELD by us; the claim CAS Acquire above
    // ordered the previous owner's edits (same for every load/store on
    // claimed processors below).
    let h = s.list_head[src as usize].load(Ordering::Relaxed);
    if h != NONE {
        s.lookahead[h as usize].store(0, Ordering::Relaxed); // ordering: under claim
    }
    stack.push((src, h));
    while let Some(&(u, mut tcur)) = stack.last() {
        let du = rdist[u as usize];
        let mut next_proc = NONE;
        while tcur != NONE {
            let nbrs = g.neighbors(tcur);
            let mut k = s.lookahead[tcur as usize].load(Ordering::Relaxed) as usize; // ordering: under claim
            while k < nbrs.len() {
                let w = nbrs[k];
                k += 1;
                if rdist[w as usize] == du + 1 {
                    if s.claim[w as usize]
                        // ordering: as the source claim CAS above
                        .compare_exchange(FREE, HELD, Ordering::Acquire, Ordering::Relaxed)
                        .is_ok()
                    {
                        // `HELD` and `DEAD` processors are skipped alike:
                        // a transient miss only defers the path to a
                        // later phase.
                        next_proc = w;
                        break;
                    }
                    if obs::enabled() {
                        // ordering: Relaxed — statistics counter.
                        s.cas_failures.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            s.lookahead[tcur as usize].store(k as u32, Ordering::Relaxed); // ordering: under claim
            if next_proc != NONE {
                break;
            }
            tcur = s.list_next[tcur as usize].load(Ordering::Relaxed); // ordering: under claim
            if tcur != NONE {
                s.lookahead[tcur as usize].store(0, Ordering::Relaxed); // ordering: under claim
            }
        }
        stack.last_mut().expect("loop invariant").1 = tcur;
        if next_proc == NONE {
            // Every task of `u` is exhausted: nothing below `u` reaches a
            // target this phase.
            // ordering: Release — publishes the exhausted lookahead cursors
            // to whichever worker next observes this claim word.
            s.claim[u as usize].store(DEAD, Ordering::Release);
            stack.pop();
            continue;
        }
        let w = next_proc;
        s.pred[w as usize].store(tcur, Ordering::Relaxed); // ordering: under claim of `w`
                                                           // Re-check the target condition *after* claiming: another flip
                                                           // may have raised `w`'s load since the BFS. A former target that
                                                           // filled up is walked through as a plain intermediate, exactly as
                                                           // in the sequential engine.
        if s.load(w) + 2 <= l_max {
            flip_path(s, rdist, w);
            // ordering: Release — hands the processor (and the flip's list
            // and load edits) to the next claimant's Acquire CAS.
            s.claim[w as usize].store(FREE, Ordering::Release);
            for &(p, _) in stack.iter() {
                s.claim[p as usize].store(FREE, Ordering::Release); // ordering: as above
            }
            return true;
        }
        let h = s.list_head[w as usize].load(Ordering::Relaxed); // ordering: under claim
        if h != NONE {
            s.lookahead[h as usize].store(0, Ordering::Relaxed); // ordering: under claim
        }
        stack.push((w, h));
    }
    false
}

/// Flips the discovered path (all processors on it are claimed by the
/// caller): every task on it moves one processor forward, shifting one
/// unit of load from the level-0 source onto the target.
fn flip_path(s: &ParState, rdist: &[u32], mut w: u32) {
    loop {
        // ordering: Relaxed throughout — every processor on the path is HELD
        // by this worker; the Release on the claim words publishes the edits.
        let t = s.pred[w as usize].load(Ordering::Relaxed);
        let u = s.task_to_proc[t as usize].load(Ordering::Relaxed); // ordering: under claim
        unlink(s, u, t);
        link_front(s, w, t);
        s.task_to_proc[t as usize].store(w, Ordering::Relaxed); // ordering: under claim
        s.loads[u as usize].fetch_sub(1, Ordering::Relaxed); // ordering: under claim
        s.loads[w as usize].fetch_add(1, Ordering::Relaxed); // ordering: under claim
        if rdist[u as usize] == 0 {
            return; // reached the source
        }
        w = u;
    }
}

/// Pushes task `t` onto claimed processor `u`'s intrusive assigned list.
fn link_front(s: &ParState, u: u32, t: u32) {
    // ordering: Relaxed throughout — `u` is HELD by the caller; publication
    // rides the claim word's Release/Acquire (see `claim_dfs`).
    let h = s.list_head[u as usize].load(Ordering::Relaxed);
    s.list_next[t as usize].store(h, Ordering::Relaxed); // ordering: under claim
    s.list_prev[t as usize].store(NONE, Ordering::Relaxed); // ordering: under claim
    if h != NONE {
        s.list_prev[h as usize].store(t, Ordering::Relaxed); // ordering: under claim
    }
    s.list_head[u as usize].store(t, Ordering::Relaxed); // ordering: under claim
}

/// Removes task `t` from claimed processor `u`'s intrusive assigned list.
fn unlink(s: &ParState, u: u32, t: u32) {
    // ordering: Relaxed throughout — `u` is HELD by the caller; publication
    // rides the claim word's Release/Acquire (see `claim_dfs`).
    let prev = s.list_prev[t as usize].load(Ordering::Relaxed);
    let next = s.list_next[t as usize].load(Ordering::Relaxed); // ordering: under claim
    if prev == NONE {
        s.list_head[u as usize].store(next, Ordering::Relaxed); // ordering: under claim
    } else {
        s.list_next[prev as usize].store(next, Ordering::Relaxed); // ordering: under claim
    }
    if next != NONE {
        s.list_prev[next as usize].store(prev, Ordering::Relaxed); // ordering: under claim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semi::optimal_semi_assignment;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// Deterministic random instance with enough width that bottleneck
    /// source sets clear [`PAR_SOURCE_THRESHOLD`].
    fn random_instance(seed: u64, n: u32, p: u32) -> Bipartite {
        let mut st = seed | 1;
        let mut edges = Vec::new();
        for t in 0..n {
            let deg = 1 + xorshift(&mut st) % 3;
            // Skewed: most tasks cluster on a few processors so phases
            // actually have work to do.
            let base = (xorshift(&mut st) % (p as u64).max(1)) as u32;
            for d in 0..deg as u32 {
                edges.push((t, (base + d * d) % p));
            }
        }
        Bipartite::from_edges(n, p, &edges).unwrap()
    }

    fn check_valid(g: &Bipartite, a: &SemiAssignment) {
        let mut loads = vec![0u32; g.n_right() as usize];
        for (t, &u) in a.task_to_proc.iter().enumerate() {
            if u == NONE {
                assert!(g.neighbors(t as u32).is_empty(), "task {t} skipped despite edges");
                continue;
            }
            assert!(g.neighbors(t as u32).contains(&u), "task {t}: foreign allocation");
            loads[u as usize] += 1;
        }
        assert_eq!(loads, a.loads, "stale loads");
    }

    #[test]
    fn matches_sequential_optimum_across_thread_counts() {
        for threads in [1usize, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            for case in 0..12u64 {
                let g = random_instance(0x5bd1e995 + case, 600 + 40 * case as u32, 24);
                let seq = optimal_semi_assignment(&g);
                let par = pool.install(|| optimal_semi_assignment_par(&g));
                check_valid(&g, &par);
                assert_eq!(
                    par.max_load(),
                    seq.max_load(),
                    "case {case} at {threads} threads: objective diverged"
                );
            }
        }
    }

    #[test]
    fn small_and_degenerate_instances() {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        pool.install(|| {
            let g = Bipartite::from_edges(0, 3, &[]).unwrap();
            assert_eq!(optimal_semi_assignment_par(&g).max_load(), 0);
            let g = Bipartite::from_edges(2, 1, &[(0, 0)]).unwrap();
            let a = optimal_semi_assignment_par(&g);
            assert_eq!(a.task_to_proc[1], NONE);
            assert_eq!(a.max_load(), 1);
            let g = Bipartite::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0)]).unwrap();
            assert_eq!(optimal_semi_assignment_par(&g).max_load(), 1);
        });
    }

    #[test]
    fn oversubscribed_pool_stress() {
        // More workers than cores forces preemption mid-claim: the claim
        // protocol must still converge to the optimum.
        let pool = rayon::ThreadPoolBuilder::new().num_threads(8).build().unwrap();
        let g = random_instance(0xdecafbad, 4000, 32);
        let seq = optimal_semi_assignment(&g);
        for _ in 0..3 {
            let par = pool.install(|| optimal_semi_assignment_par(&g));
            check_valid(&g, &par);
            assert_eq!(par.max_load(), seq.max_load());
        }
    }
}
