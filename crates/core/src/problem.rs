//! Solution types: semi-matchings of bipartite graphs and hypergraphs.
//!
//! A semi-matching allocates every task exactly one incident edge
//! (`SINGLEPROC`) or hyperedge (`MULTIPROC`). Loads and makespan follow
//! §II of the paper: the load of a processor is the sum of the weights of
//! its allocated edges/hyperedges, and the makespan is the maximum load.
//! Any other cost model evaluates through the same load vector via
//! [`SemiMatching::score`] / [`HyperMatching::score`] and a
//! [`crate::objective::Objective`].

use semimatch_graph::{Bipartite, Configs, EdgeId, Hypergraph};

use crate::error::{CoreError, Result};
use crate::objective::{Objective, Score};

/// A semi-matching of a bipartite (`SINGLEPROC`) instance.
///
/// Stored as the chosen [`EdgeId`] per task so the edge weight is available
/// without searching.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SemiMatching {
    /// Chosen edge of each task.
    pub edge_of: Vec<EdgeId>,
}

impl SemiMatching {
    /// Builds from a `task → processor` map, resolving edge ids.
    pub fn from_procs(g: &Bipartite, procs: &[u32]) -> Result<Self> {
        if procs.len() != g.n_left() as usize {
            return Err(CoreError::LengthMismatch {
                expected: g.n_left() as usize,
                got: procs.len(),
            });
        }
        let mut edge_of = Vec::with_capacity(procs.len());
        for (t, &p) in procs.iter().enumerate() {
            let nbrs = g.neighbors(t as u32);
            match nbrs.binary_search(&p) {
                Ok(k) => edge_of.push(g.edge_range(t as u32).start + k as u32),
                Err(_) => return Err(CoreError::ForeignAllocation { task: t as u32, alloc: p }),
            }
        }
        Ok(SemiMatching { edge_of })
    }

    /// The processor allocated to `task`.
    #[inline]
    pub fn proc_of(&self, g: &Bipartite, task: u32) -> u32 {
        g.edge_right(self.edge_of[task as usize])
    }

    /// Per-processor loads.
    pub fn loads(&self, g: &Bipartite) -> Vec<u64> {
        loads_of(g, &self.edge_of)
    }

    /// The solution's cost under `objective`.
    pub fn score(&self, g: &Bipartite, objective: Objective) -> Score {
        objective.evaluate(&self.loads(g))
    }

    /// The makespan `max_u l(u)` — a thin alias for
    /// [`score`](Self::score) under [`Objective::Makespan`].
    pub fn makespan(&self, g: &Bipartite) -> u64 {
        self.score(g, Objective::Makespan).as_u64()
    }

    /// Checks that every task is allocated one of **its own** edges.
    pub fn validate(&self, g: &Bipartite) -> Result<()> {
        validate_of(g, &self.edge_of)
    }
}

/// A semi-matching of a hypergraph (`MULTIPROC`) instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HyperMatching {
    /// Chosen hyperedge (configuration) of each task.
    pub hedge_of: Vec<u32>,
}

impl HyperMatching {
    /// Per-processor loads: each chosen hyperedge adds its weight `w_h` to
    /// **every** processor it contains (§II-B).
    pub fn loads(&self, h: &Hypergraph) -> Vec<u64> {
        loads_of(h, &self.hedge_of)
    }

    /// The solution's cost under `objective`.
    pub fn score(&self, h: &Hypergraph, objective: Objective) -> Score {
        objective.evaluate(&self.loads(h))
    }

    /// The makespan `max_u l(u)` — a thin alias for
    /// [`score`](Self::score) under [`Objective::Makespan`].
    pub fn makespan(&self, h: &Hypergraph) -> u64 {
        self.score(h, Objective::Makespan).as_u64()
    }

    /// Checks that every task is allocated one of its own hyperedges.
    pub fn validate(&self, h: &Hypergraph) -> Result<()> {
        validate_of(h, &self.hedge_of)
    }

    /// The allocated processor set of `task` (the paper's `alloc(i)`).
    pub fn alloc<'h>(&self, h: &'h Hypergraph, task: u32) -> &'h [u32] {
        h.procs_of(self.hedge_of[task as usize])
    }
}

/// The loads of `chosen` (one configuration per task): each adds its
/// weight to every processor it contains.
pub(crate) fn loads_of<G: Configs>(g: &G, chosen: &[u32]) -> Vec<u64> {
    let mut loads = vec![0u64; g.n_procs() as usize];
    for &c in chosen {
        let w = g.weight(c);
        for &u in g.pins(c) {
            loads[u as usize] += w;
        }
    }
    loads
}

/// Checks that `chosen` gives every task one of its own configurations.
fn validate_of<G: Configs>(g: &G, chosen: &[u32]) -> Result<()> {
    if chosen.len() != g.n_tasks() as usize {
        return Err(CoreError::LengthMismatch {
            expected: g.n_tasks() as usize,
            got: chosen.len(),
        });
    }
    for (t, &c) in (0..).zip(chosen) {
        if !g.configs(t).contains(&c) {
            return Err(CoreError::ForeignAllocation { task: t, alloc: c });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1() -> Bipartite {
        Bipartite::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0)]).unwrap()
    }

    #[test]
    fn from_procs_resolves_edges() {
        let g = fig1();
        let sm = SemiMatching::from_procs(&g, &[1, 0]).unwrap();
        assert_eq!(sm.proc_of(&g, 0), 1);
        assert_eq!(sm.proc_of(&g, 1), 0);
        assert_eq!(sm.loads(&g), vec![1, 1]);
        assert_eq!(sm.makespan(&g), 1);
        sm.validate(&g).unwrap();
    }

    #[test]
    fn from_procs_rejects_non_edges() {
        let g = fig1();
        let err = SemiMatching::from_procs(&g, &[1, 1]).unwrap_err();
        assert_eq!(err, CoreError::ForeignAllocation { task: 1, alloc: 1 });
    }

    #[test]
    fn weighted_loads() {
        let g =
            Bipartite::from_weighted_edges(2, 2, &[(0, 0), (0, 1), (1, 0)], &[5, 3, 2]).unwrap();
        let both_p0 = SemiMatching::from_procs(&g, &[0, 0]).unwrap();
        assert_eq!(both_p0.loads(&g), vec![7, 0]);
        assert_eq!(both_p0.makespan(&g), 7);
        let split = SemiMatching::from_procs(&g, &[1, 0]).unwrap();
        assert_eq!(split.makespan(&g), 3);
    }

    #[test]
    fn validate_rejects_foreign_edge() {
        let g = fig1();
        // Edge 2 belongs to task 1, not task 0.
        let sm = SemiMatching { edge_of: vec![2, 2] };
        assert!(sm.validate(&g).is_err());
        let sm = SemiMatching { edge_of: vec![0] };
        assert!(matches!(sm.validate(&g).unwrap_err(), CoreError::LengthMismatch { .. }));
    }

    fn fig2() -> Hypergraph {
        Hypergraph::from_configs(
            3,
            &[vec![vec![0], vec![1, 2]], vec![vec![0, 1], vec![1]], vec![vec![2]], vec![vec![2]]],
        )
        .unwrap()
    }

    #[test]
    fn hyper_loads_spread_to_all_pins() {
        let h = fig2();
        // T0 → {P1,P2} (hedge 1), T1 → {P1} (hedge 3), T2,T3 → {P2}.
        let hm = HyperMatching { hedge_of: vec![1, 3, 4, 5] };
        hm.validate(&h).unwrap();
        assert_eq!(hm.loads(&h), vec![0, 2, 3]);
        assert_eq!(hm.makespan(&h), 3);
        assert_eq!(hm.alloc(&h, 0), &[1, 2]);
    }

    #[test]
    fn hyper_validate_rejects_wrong_owner() {
        let h = fig2();
        let hm = HyperMatching { hedge_of: vec![2, 3, 4, 5] }; // hedge 2 is T1's
        assert!(hm.validate(&h).is_err());
        let hm = HyperMatching { hedge_of: vec![0, 2, 4, 99] };
        assert!(hm.validate(&h).is_err());
    }

    #[test]
    fn weighted_hyper_makespan() {
        let mut h = fig2();
        h.set_weights(vec![4, 1, 2, 3, 5, 6]).unwrap();
        let hm = HyperMatching { hedge_of: vec![0, 2, 4, 5] };
        // P0: w0 + w2 = 6; P1: w2 = 2; P2: 5 + 6 = 11.
        assert_eq!(hm.loads(&h), vec![6, 2, 11]);
        assert_eq!(hm.makespan(&h), 11);
    }
}
