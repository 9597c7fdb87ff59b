//! Shared instance builders and proptest strategies for the integration
//! suite.
// Each integration-test binary compiles this module separately and uses a
// different subset of the strategies.
#![allow(dead_code)]

use proptest::prelude::*;
use semimatch::gen::rng::Xoshiro256;
use semimatch::graph::{Bipartite, Hypergraph};

/// A tall covered unit instance: each of the `n` tasks is eligible on
/// one to three distinct processors out of `p`, drawn from `seed`.
pub fn tall_bipartite(n: u32, p: u32, seed: u64) -> Bipartite {
    let mut rng = Xoshiro256::seed_from_u64(seed);
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
    Bipartite::from_adjacency(n, p, &lists).expect("sets are duplicate-free")
}

/// Random bipartite graph in which **every task has at least one edge**
/// (schedulable instances), with unit weights.
pub fn covered_bipartite(max_tasks: u32, max_procs: u32) -> impl Strategy<Value = Bipartite> {
    (1..=max_tasks, 1..=max_procs).prop_flat_map(move |(n, p)| {
        let edges = proptest::collection::vec(
            proptest::collection::btree_set(0..p, 1..=(p.min(4) as usize)),
            n as usize,
        );
        edges.prop_map(move |lists| {
            let lists: Vec<Vec<u32>> = lists.into_iter().map(|s| s.into_iter().collect()).collect();
            Bipartite::from_adjacency(n, p, &lists).expect("sets are duplicate-free")
        })
    })
}

/// Random weighted bipartite graph with covered tasks.
pub fn covered_weighted_bipartite(
    max_tasks: u32,
    max_procs: u32,
    max_weight: u64,
) -> impl Strategy<Value = Bipartite> {
    covered_bipartite(max_tasks, max_procs).prop_flat_map(move |g| {
        let m = g.num_edges();
        proptest::collection::vec(1..=max_weight, m).prop_map(move |ws| {
            let mut g = g.clone();
            g.set_weights(ws).expect("positive weights of matching length");
            g
        })
    })
}

/// Random hypergraph in which every task has 1..=3 configurations of
/// 1..=3 distinct processors, weights in 1..=max_weight.
pub fn covered_hypergraph(
    max_tasks: u32,
    max_procs: u32,
    max_weight: u64,
) -> impl Strategy<Value = Hypergraph> {
    (1..=max_tasks, 1..=max_procs).prop_flat_map(move |(n, p)| {
        let config =
            (proptest::collection::btree_set(0..p, 1..=(p.min(3) as usize)), 1..=max_weight);
        let task = proptest::collection::vec(config, 1..=3usize);
        proptest::collection::vec(task, n as usize).prop_map(move |tasks| {
            let mut hedges = Vec::new();
            for (t, configs) in tasks.into_iter().enumerate() {
                for (set, w) in configs {
                    hedges.push((t as u32, set.into_iter().collect::<Vec<u32>>(), w));
                }
            }
            Hypergraph::from_hyperedges(n, p, hedges).expect("sets are duplicate-free")
        })
    })
}
