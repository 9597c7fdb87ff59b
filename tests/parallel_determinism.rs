//! Thread-count determinism: every registered solver kind must return the
//! **same objective score** whether it runs on one worker or many.
//!
//! The one in-run parallel path, hk-semi's work-stealing extraction of
//! augmenting paths, is designed to be *deterministic-equivalent*: it may
//! take different internal routes, but the score it reports is
//! bit-identical to the sequential run. This suite pins that contract
//! across local pools of 1, 2 and 4 workers, on the shared proptest
//! instance generators and on a seeded tall instance large enough to cross
//! hk-semi's parallelism threshold.

mod common;

use std::sync::OnceLock;

use proptest::prelude::*;
use semimatch::gen::rng::Xoshiro256;
use semimatch::graph::Bipartite;
use semimatch::rayon::{ThreadPool, ThreadPoolBuilder};
use semimatch::solver::{solve, Problem, SolverKind};

/// Local pools of 1, 2 and 4 workers, built once. Oversubscription is
/// deliberate: on a small host the 4-worker pool still exercises real
/// interleavings via preemption.
fn pools() -> &'static [ThreadPool] {
    static POOLS: OnceLock<Vec<ThreadPool>> = OnceLock::new();
    POOLS.get_or_init(|| {
        [1usize, 2, 4]
            .iter()
            .map(|&t| ThreadPoolBuilder::new().num_threads(t).build().expect("local pool"))
            .collect()
    })
}

/// Scores of `kind` on `problem` under every pool must be identical.
fn scores_across_pools(problem: Problem<'_>, kind: SolverKind) -> u64 {
    let mut first = None;
    for pool in pools() {
        let m = pool.install(|| {
            let sol = solve(problem, kind).unwrap_or_else(|e| panic!("{kind} failed: {e}"));
            sol.makespan(&problem).unwrap()
        });
        match first {
            None => first = Some(m),
            Some(expect) => assert_eq!(
                m,
                expect,
                "{kind}: makespan changed with thread count ({} threads)",
                pool.current_num_threads()
            ),
        }
    }
    first.expect("at least one pool")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every `SINGLEPROC` kind reports the same makespan at 1, 2 and 4
    /// workers, and the exact kinds all agree with each other under the
    /// widest pool.
    #[test]
    fn singleproc_kinds_are_thread_count_invariant(g in common::covered_bipartite(8, 5)) {
        let problem = Problem::SingleProc(&g);
        let mut optimum = None;
        for kind in SolverKind::SINGLEPROC {
            let m = scores_across_pools(problem, kind);
            if kind.is_exact() {
                match optimum {
                    None => optimum = Some(m),
                    Some(opt) => prop_assert_eq!(m, opt, "{} disagrees on the optimum", kind),
                }
            }
        }
    }

    /// Every `MULTIPROC` kind reports the same makespan at 1, 2 and 4
    /// workers on weighted hypergraph instances.
    #[test]
    fn multiproc_kinds_are_thread_count_invariant(
        h in common::covered_hypergraph(7, 4, 4)
    ) {
        let problem = Problem::MultiProc(&h);
        for kind in SolverKind::MULTIPROC {
            scores_across_pools(problem, kind);
        }
    }
}

/// A tall covered instance (n = 4096, p = 24): large enough that
/// `HopcroftKarpSemi` crosses `PAR_TASK_THRESHOLD`, so its parallel
/// extraction really runs under the 2- and 4-worker pools. The other fast
/// exact kinds never read the pool, so they are solved once: sorted-greedy
/// already sits on ⌈n/p⌉ = 171 here, so `CostScaling` makes no probe, and
/// `MinCostFlow` is one sequential flow.
#[test]
fn tall_instance_parallel_paths_hit_the_sequential_optimum() {
    let n = 4096u32;
    let p = 24u32;
    let mut rng = Xoshiro256::seed_from_u64(0x5eed_7a11);
    let lists: Vec<Vec<u32>> = (0..n)
        .map(|_| {
            let deg = 1 + rng.below(3) as usize;
            let mut procs: Vec<u32> = Vec::with_capacity(deg);
            while procs.len() < deg {
                let q = rng.below(p as u64) as u32;
                if !procs.contains(&q) {
                    procs.push(q);
                }
            }
            procs.sort_unstable();
            procs
        })
        .collect();
    let g = Bipartite::from_adjacency(n, p, &lists).unwrap();
    let problem = Problem::SingleProc(&g);

    // The reference optimum from a kind with no parallel fast path.
    let opt = solve(problem, SolverKind::ExactBisection).unwrap().makespan(&problem).unwrap();
    let m = scores_across_pools(problem, SolverKind::HopcroftKarpSemi);
    assert_eq!(m, opt, "hk-semi missed the optimum on the tall instance");
    for kind in [SolverKind::CostScaling, SolverKind::MinCostFlow] {
        let m = solve(problem, kind).unwrap().makespan(&problem).unwrap();
        assert_eq!(m, opt, "{kind} missed the optimum on the tall instance");
    }
}
