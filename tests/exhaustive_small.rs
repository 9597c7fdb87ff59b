//! Exhaustive verification on *every* small instance.
//!
//! All 2^9 bipartite graphs on 3 tasks × 3 processors (restricted to those
//! where every task has an edge): the four matching engines, the three
//! exact semi-matching algorithms and brute force must agree everywhere,
//! and every heuristic must stay between the optimum and 3× the optimum
//! (any ratio is possible in general, but not at this size).

use semimatch::core::exact::{
    brute_force_singleproc, exact_unit, exact_unit_replicated, harvey_exact, SearchStrategy,
};
use semimatch::core::lower_bound::lower_bound_singleproc;
use semimatch::graph::Bipartite;
use semimatch::matching::{certify_maximum, maximum_matching, Algorithm};
use semimatch::solver::{Problem, SolverKind};

/// Decodes bitmask `mask` into the 3×3 edge set.
fn graph_from_mask(mask: u32) -> Bipartite {
    let mut edges = Vec::new();
    for v in 0..3u32 {
        for u in 0..3u32 {
            if mask & (1 << (v * 3 + u)) != 0 {
                edges.push((v, u));
            }
        }
    }
    Bipartite::from_edges(3, 3, &edges).unwrap()
}

fn covered(g: &Bipartite) -> bool {
    (0..3).all(|v| g.deg_left(v) > 0)
}

#[test]
fn all_3x3_matchings_agree_and_certify() {
    for mask in 0u32..512 {
        let g = graph_from_mask(mask);
        let mut card = None;
        for algo in Algorithm::ALL {
            let m = maximum_matching(&g, algo);
            certify_maximum(&g, &m).unwrap_or_else(|e| panic!("mask {mask} {}: {e}", algo.name()));
            match card {
                None => card = Some(m.cardinality()),
                Some(c) => assert_eq!(c, m.cardinality(), "mask {mask} {}", algo.name()),
            }
        }
    }
}

#[test]
fn all_3x3_exact_algorithms_agree() {
    let mut checked = 0;
    for mask in 0u32..512 {
        let g = graph_from_mask(mask);
        if !covered(&g) {
            continue;
        }
        checked += 1;
        let a = exact_unit(&g, SearchStrategy::Incremental).unwrap().makespan;
        let b = exact_unit(&g, SearchStrategy::Bisection).unwrap().makespan;
        let c = exact_unit_replicated(&g, Algorithm::Dfs, SearchStrategy::Incremental)
            .unwrap()
            .makespan;
        let d = harvey_exact(&g).unwrap().makespan(&g);
        let (e, _) = brute_force_singleproc(&g, 10_000).unwrap();
        assert!(a == b && b == c && c == d && d == e, "mask {mask}: {a} {b} {c} {d} {e}");
        // The lower bound never exceeds the optimum.
        assert!(lower_bound_singleproc(&g).unwrap() <= a, "mask {mask}");
    }
    assert_eq!(checked, 343, "7^3 covered instances"); // (2^3 − 1)^3
}

#[test]
fn all_3x3_heuristics_bounded() {
    for mask in 0u32..512 {
        let g = graph_from_mask(mask);
        if !covered(&g) {
            continue;
        }
        let opt = exact_unit(&g, SearchStrategy::Bisection).unwrap().makespan;
        let problem = Problem::SingleProc(&g);
        for kind in SolverKind::BI_HEURISTICS {
            let sol = kind.solve(problem).unwrap();
            sol.validate(&problem).unwrap();
            let m = sol.makespan(&problem).unwrap();
            assert!(m >= opt, "mask {mask} {}", kind.label());
            assert!(m <= 3 * opt, "mask {mask} {}: {m} vs opt {opt}", kind.label());
        }
    }
}

#[test]
fn all_2x2_weighted_brute_force_is_truth() {
    // Every 2×2 edge set with every weight combination from {1, 2, 3}:
    // brute force equals the minimum over the ≤ 4 explicit semi-matchings.
    use semimatch::core::problem::SemiMatching;
    for mask in 0u32..16 {
        let mut edges = Vec::new();
        for v in 0..2u32 {
            for u in 0..2u32 {
                if mask & (1 << (v * 2 + u)) != 0 {
                    edges.push((v, u));
                }
            }
        }
        let base = match Bipartite::from_edges(2, 2, &edges) {
            Ok(g) if (0..2).all(|v| g.deg_left(v) > 0) => g,
            _ => continue,
        };
        let m = base.num_edges();
        // Enumerate weight vectors in {1,2,3}^m.
        let mut weights = vec![1u64; m];
        loop {
            let mut g = base.clone();
            g.set_weights(weights.clone()).unwrap();
            let (bf, _) = brute_force_singleproc(&g, 10_000).unwrap();
            // Reference: enumerate all allocations directly.
            let mut best = u64::MAX;
            let choices0: Vec<u32> = g.neighbors(0).to_vec();
            let choices1: Vec<u32> = g.neighbors(1).to_vec();
            for &p0 in &choices0 {
                for &p1 in &choices1 {
                    let sm = SemiMatching::from_procs(&g, &[p0, p1]).unwrap();
                    best = best.min(sm.makespan(&g));
                }
            }
            assert_eq!(bf, best, "mask {mask} weights {weights:?}");
            // Next weight vector.
            let mut k = 0;
            while k < m && weights[k] == 3 {
                weights[k] = 1;
                k += 1;
            }
            if k == m {
                break;
            }
            weights[k] += 1;
        }
    }
}
