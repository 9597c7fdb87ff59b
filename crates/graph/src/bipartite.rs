//! Compressed-sparse-row bipartite graphs.
//!
//! A [`Bipartite`] models the task–processor structure of the paper's
//! `SINGLEPROC` problems: left vertices are tasks (`V1`), right vertices are
//! processors (`V2`), and an edge `(t, p)` means task `t` may run on
//! processor `p`. Each edge carries a weight (the execution time of the task
//! on that processor); unit weights model `SINGLEPROC-UNIT`.
//!
//! Both adjacency directions are materialized as CSR arrays so that
//! algorithms can scan either side without pointer chasing, following the
//! flat-array guidance of the Rust performance book.

use crate::configs::Configs;
use crate::error::{check_load_bound, GraphError, Result};

/// Identifier of an edge: its position in the forward CSR `adj` array.
pub type EdgeId = u32;

/// A bipartite graph in CSR form with per-edge weights.
///
/// Invariants (enforced by all constructors):
/// * neighbor lists are sorted and duplicate-free,
/// * all indices are in range,
/// * `weights.len() == num_edges()` and all weights are positive,
/// * the tasks' heaviest edge weights sum to at most `u64::MAX`, so no
///   processor load can wrap.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bipartite {
    n_left: u32,
    n_right: u32,
    /// Forward CSR: neighbors of left vertex `v` are
    /// `adj[xadj[v] .. xadj[v + 1]]`.
    xadj: Vec<usize>,
    adj: Vec<u32>,
    /// `weights[e]` is the weight of edge `e` (forward CSR order).
    weights: Vec<u64>,
    /// Transpose CSR: left endpoints of the edges of right vertex `u` are
    /// `tadj[txadj[u] .. txadj[u + 1]]`.
    txadj: Vec<usize>,
    tadj: Vec<u32>,
    /// `tedge[k]` is the forward [`EdgeId`] of the transpose slot `k`.
    tedge: Vec<EdgeId>,
}

impl Bipartite {
    /// Builds a graph from an unweighted edge list (all weights become 1).
    pub fn from_edges(n_left: u32, n_right: u32, edges: &[(u32, u32)]) -> Result<Self> {
        let weights = vec![1u64; edges.len()];
        Self::from_weighted_edges(n_left, n_right, edges, &weights)
    }

    /// Builds a graph from an edge list with one weight per edge.
    ///
    /// Edges may be given in any order; they are sorted internally.
    /// Duplicate edges, zero weights and weights whose per-task maxima sum
    /// past `u64::MAX` are rejected.
    pub fn from_weighted_edges(
        n_left: u32,
        n_right: u32,
        edges: &[(u32, u32)],
        weights: &[u64],
    ) -> Result<Self> {
        if weights.len() != edges.len() {
            return Err(GraphError::WeightLengthMismatch {
                expected: edges.len(),
                got: weights.len(),
            });
        }
        for (&(l, r), (i, &w)) in edges.iter().zip(weights.iter().enumerate()) {
            if l >= n_left {
                return Err(GraphError::LeftOutOfRange { vertex: l, n_left });
            }
            if r >= n_right {
                return Err(GraphError::RightOutOfRange { vertex: r, n_right });
            }
            if w == 0 {
                return Err(GraphError::ZeroWeight { index: i });
            }
        }
        // Counting sort by left endpoint, then sort each list by right endpoint.
        let m = edges.len();
        let mut xadj = vec![0usize; n_left as usize + 1];
        for &(l, _) in edges {
            xadj[l as usize + 1] += 1;
        }
        for i in 0..n_left as usize {
            xadj[i + 1] += xadj[i];
        }
        let mut adj = vec![0u32; m];
        let mut wts = vec![0u64; m];
        let mut cursor = xadj.clone();
        for (&(l, r), &w) in edges.iter().zip(weights) {
            let slot = cursor[l as usize];
            adj[slot] = r;
            wts[slot] = w;
            cursor[l as usize] += 1;
        }
        for v in 0..n_left as usize {
            let (lo, hi) = (xadj[v], xadj[v + 1]);
            // Sort (neighbor, weight) pairs together.
            let mut pairs: Vec<(u32, u64)> =
                adj[lo..hi].iter().copied().zip(wts[lo..hi].iter().copied()).collect();
            pairs.sort_unstable_by_key(|&(r, _)| r);
            for (k, (r, w)) in pairs.into_iter().enumerate() {
                if k > 0 && adj[lo + k - 1] == r {
                    return Err(GraphError::DuplicateEdge { left: v as u32, right: r });
                }
                adj[lo + k] = r;
                wts[lo + k] = w;
            }
            // Re-check duplicates post-write (the loop above compared against
            // freshly written slots, so adjacent duplicates are caught; verify).
            for k in lo + 1..hi {
                if adj[k - 1] == adj[k] {
                    return Err(GraphError::DuplicateEdge { left: v as u32, right: adj[k] });
                }
            }
        }
        check_load_bound(&xadj, &wts)?;
        Ok(Self::from_csr_unchecked(n_left, n_right, xadj, adj, wts))
    }

    /// Builds a graph from per-left-vertex adjacency lists (unit weights).
    pub fn from_adjacency(n_left: u32, n_right: u32, lists: &[Vec<u32>]) -> Result<Self> {
        assert_eq!(lists.len(), n_left as usize, "one adjacency list per left vertex");
        let mut edges = Vec::with_capacity(lists.iter().map(Vec::len).sum());
        for (v, list) in lists.iter().enumerate() {
            for &u in list {
                edges.push((v as u32, u));
            }
        }
        Self::from_edges(n_left, n_right, &edges)
    }

    /// Internal: assemble from already-sorted, validated CSR arrays.
    pub(crate) fn from_csr_unchecked(
        n_left: u32,
        n_right: u32,
        xadj: Vec<usize>,
        adj: Vec<u32>,
        weights: Vec<u64>,
    ) -> Self {
        debug_assert_eq!(xadj.len(), n_left as usize + 1);
        debug_assert_eq!(*xadj.last().unwrap_or(&0), adj.len());
        debug_assert_eq!(adj.len(), weights.len());
        // Build transpose with a counting pass.
        let m = adj.len();
        let mut txadj = vec![0usize; n_right as usize + 1];
        for &u in &adj {
            txadj[u as usize + 1] += 1;
        }
        for i in 0..n_right as usize {
            txadj[i + 1] += txadj[i];
        }
        let mut tadj = vec![0u32; m];
        let mut tedge = vec![0u32; m];
        let mut cursor = txadj.clone();
        for v in 0..n_left as usize {
            #[allow(clippy::needless_range_loop)] // e is an edge id, not just an index
            for e in xadj[v]..xadj[v + 1] {
                let u = adj[e] as usize;
                let slot = cursor[u];
                tadj[slot] = v as u32;
                tedge[slot] = e as EdgeId;
                cursor[u] += 1;
            }
        }
        Bipartite { n_left, n_right, xadj, adj, weights: wts_or(weights, m), txadj, tadj, tedge }
    }

    /// Number of left (task) vertices, `|V1|`.
    #[inline]
    pub fn n_left(&self) -> u32 {
        self.n_left
    }

    /// Number of right (processor) vertices, `|V2|`.
    #[inline]
    pub fn n_right(&self) -> u32 {
        self.n_right
    }

    /// Number of edges, `|E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.adj.len()
    }

    /// Neighbors (right vertices) of left vertex `v`, sorted ascending.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.adj[self.xadj[v as usize]..self.xadj[v as usize + 1]]
    }

    /// Edge ids of the edges incident to left vertex `v`.
    ///
    /// `edge_range(v).zip(neighbors(v))` pairs each edge id with its right
    /// endpoint.
    #[inline]
    pub fn edge_range(&self, v: u32) -> std::ops::Range<u32> {
        self.xadj[v as usize] as u32..self.xadj[v as usize + 1] as u32
    }

    /// Left endpoints of the edges incident to right vertex `u`, sorted.
    #[inline]
    pub fn rneighbors(&self, u: u32) -> &[u32] {
        &self.tadj[self.txadj[u as usize]..self.txadj[u as usize + 1]]
    }

    /// Forward edge ids of the edges incident to right vertex `u`,
    /// parallel to [`Bipartite::rneighbors`].
    #[inline]
    pub fn redge_ids(&self, u: u32) -> &[EdgeId] {
        &self.tedge[self.txadj[u as usize]..self.txadj[u as usize + 1]]
    }

    /// Out-degree `d_v` of left vertex `v`.
    #[inline]
    pub fn deg_left(&self, v: u32) -> u32 {
        (self.xadj[v as usize + 1] - self.xadj[v as usize]) as u32
    }

    /// In-degree `d_u` of right vertex `u`.
    #[inline]
    pub fn deg_right(&self, u: u32) -> u32 {
        (self.txadj[u as usize + 1] - self.txadj[u as usize]) as u32
    }

    /// Weight of edge `e`.
    #[inline]
    pub fn weight(&self, e: EdgeId) -> u64 {
        self.weights[e as usize]
    }

    /// All edge weights in forward CSR order.
    #[inline]
    pub fn weights(&self) -> &[u64] {
        &self.weights
    }

    /// Right endpoint of edge `e`.
    #[inline]
    pub fn edge_right(&self, e: EdgeId) -> u32 {
        self.adj[e as usize]
    }

    /// Left endpoint of edge `e` (binary search over `xadj`).
    pub fn edge_left(&self, e: EdgeId) -> u32 {
        let e = e as usize;
        debug_assert!(e < self.adj.len());
        // partition_point returns the first v with xadj[v] > e; the owner is v - 1.
        let v = self.xadj.partition_point(|&off| off <= e);
        (v - 1) as u32
    }

    /// True when every edge weight is 1 (a `SINGLEPROC-UNIT` instance).
    pub fn is_unit(&self) -> bool {
        self.weights.iter().all(|&w| w == 1)
    }

    /// Replaces all edge weights. Length, positivity and the load bound are
    /// validated.
    pub fn set_weights(&mut self, weights: Vec<u64>) -> Result<()> {
        if weights.len() != self.adj.len() {
            return Err(GraphError::WeightLengthMismatch {
                expected: self.adj.len(),
                got: weights.len(),
            });
        }
        if let Some(i) = weights.iter().position(|&w| w == 0) {
            return Err(GraphError::ZeroWeight { index: i });
        }
        check_load_bound(&self.xadj, &weights)?;
        self.weights = weights;
        Ok(())
    }

    /// Iterates over all edges as `(edge_id, left, right, weight)`.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, u32, u32, u64)> + '_ {
        (0..self.n_left).flat_map(move |v| {
            self.edge_range(v).map(move |e| (e, v, self.adj[e as usize], self.weights[e as usize]))
        })
    }

    /// Checks all structural invariants; used by tests and after I/O.
    pub fn validate(&self) -> Result<()> {
        if self.xadj.len() != self.n_left as usize + 1 {
            return Err(GraphError::Parse { line: 0, msg: "xadj length mismatch".into() });
        }
        for v in 0..self.n_left {
            let list = self.neighbors(v);
            for (k, &u) in list.iter().enumerate() {
                if u >= self.n_right {
                    return Err(GraphError::RightOutOfRange { vertex: u, n_right: self.n_right });
                }
                if k > 0 && list[k - 1] >= u {
                    return Err(GraphError::DuplicateEdge { left: v, right: u });
                }
            }
        }
        if self.weights.len() != self.adj.len() {
            return Err(GraphError::WeightLengthMismatch {
                expected: self.adj.len(),
                got: self.weights.len(),
            });
        }
        if let Some(i) = self.weights.iter().position(|&w| w == 0) {
            return Err(GraphError::ZeroWeight { index: i });
        }
        // Transpose must agree with the forward direction.
        let mut seen = 0usize;
        for u in 0..self.n_right {
            for (&v, &e) in self.rneighbors(u).iter().zip(self.redge_ids(u)) {
                if self.adj[e as usize] != u || self.edge_left(e) != v {
                    return Err(GraphError::Parse {
                        line: 0,
                        msg: format!("transpose slot for edge {e} is inconsistent"),
                    });
                }
                seen += 1;
            }
        }
        if seen != self.adj.len() {
            return Err(GraphError::Parse { line: 0, msg: "transpose edge count mismatch".into() });
        }
        Ok(())
    }
}

/// Each edge is the one-processor configuration `{p}` of its task.
impl Configs for Bipartite {
    #[inline]
    fn n_tasks(&self) -> u32 {
        self.n_left
    }

    #[inline]
    fn n_procs(&self) -> u32 {
        self.n_right
    }

    #[inline]
    fn configs(&self, t: u32) -> std::ops::Range<u32> {
        self.edge_range(t)
    }

    #[inline]
    fn pins(&self, e: EdgeId) -> &[u32] {
        std::slice::from_ref(&self.adj[e as usize])
    }

    #[inline]
    fn weight(&self, e: EdgeId) -> u64 {
        self.weights[e as usize]
    }
}

#[inline]
fn wts_or(weights: Vec<u64>, m: usize) -> Vec<u64> {
    if weights.is_empty() && m > 0 {
        vec![1; m]
    } else {
        weights
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Bipartite {
        // Fig. 1 of the paper: T1 -> {P1, P2}, T2 -> {P1}.
        Bipartite::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0)]).unwrap()
    }

    #[test]
    fn fig1_structure() {
        let g = sample();
        assert_eq!(g.n_left(), 2);
        assert_eq!(g.n_right(), 2);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(0), &[0, 1]);
        assert_eq!(g.neighbors(1), &[0]);
        assert_eq!(g.rneighbors(0), &[0, 1]);
        assert_eq!(g.rneighbors(1), &[0]);
        assert_eq!(g.deg_left(0), 2);
        assert_eq!(g.deg_right(0), 2);
        assert_eq!(g.deg_right(1), 1);
        g.validate().unwrap();
    }

    #[test]
    fn unordered_input_is_sorted() {
        let g = Bipartite::from_edges(2, 3, &[(1, 2), (0, 1), (1, 0), (0, 0)]).unwrap();
        assert_eq!(g.neighbors(0), &[0, 1]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        g.validate().unwrap();
    }

    #[test]
    fn edge_left_right_roundtrip() {
        let g = Bipartite::from_edges(3, 3, &[(0, 2), (1, 0), (1, 1), (2, 2)]).unwrap();
        for (e, v, u, _) in g.edges() {
            assert_eq!(g.edge_left(e), v);
            assert_eq!(g.edge_right(e), u);
        }
    }

    #[test]
    fn weights_follow_their_edges_through_sorting() {
        let g =
            Bipartite::from_weighted_edges(1, 3, &[(0, 2), (0, 0), (0, 1)], &[30, 10, 20]).unwrap();
        assert_eq!(g.neighbors(0), &[0, 1, 2]);
        let ws: Vec<u64> = g.edge_range(0).map(|e| g.weight(e)).collect();
        assert_eq!(ws, vec![10, 20, 30]);
    }

    #[test]
    fn duplicate_edge_rejected() {
        let err = Bipartite::from_edges(1, 2, &[(0, 1), (0, 1)]).unwrap_err();
        assert!(matches!(err, GraphError::DuplicateEdge { left: 0, right: 1 }));
    }

    #[test]
    fn out_of_range_rejected() {
        assert!(matches!(
            Bipartite::from_edges(1, 2, &[(1, 0)]).unwrap_err(),
            GraphError::LeftOutOfRange { .. }
        ));
        assert!(matches!(
            Bipartite::from_edges(1, 2, &[(0, 2)]).unwrap_err(),
            GraphError::RightOutOfRange { .. }
        ));
    }

    #[test]
    fn zero_weight_rejected() {
        let err = Bipartite::from_weighted_edges(1, 2, &[(0, 0), (0, 1)], &[1, 0]).unwrap_err();
        assert!(matches!(err, GraphError::ZeroWeight { index: 1 }));
    }

    #[test]
    fn load_overflow_rejected() {
        // Each task counts once, at its heaviest edge: u64::MAX on a single
        // task fits, two 2^62 tasks fit, two 2^63 tasks can wrap a load.
        let max = u64::MAX;
        assert!(Bipartite::from_weighted_edges(1, 2, &[(0, 0), (0, 1)], &[max, max]).is_ok());
        let w = 1u64 << 62;
        let mut g = Bipartite::from_weighted_edges(2, 1, &[(0, 0), (1, 0)], &[w, w]).unwrap();
        let err = Bipartite::from_weighted_edges(2, 1, &[(0, 0), (1, 0)], &[2 * w, 2 * w]);
        assert!(matches!(err.unwrap_err(), GraphError::LoadOverflow { task: 1 }));
        let err = g.set_weights(vec![2 * w, 2 * w]).unwrap_err();
        assert!(matches!(err, GraphError::LoadOverflow { task: 1 }));
        assert_eq!(g.weight(0), w, "a rejected reweight leaves the graph unchanged");
    }

    #[test]
    fn weight_length_mismatch_rejected() {
        let err = Bipartite::from_weighted_edges(1, 2, &[(0, 0)], &[1, 2]).unwrap_err();
        assert!(matches!(err, GraphError::WeightLengthMismatch { expected: 1, got: 2 }));
    }

    #[test]
    fn empty_graph_is_valid() {
        let g = Bipartite::from_edges(0, 0, &[]).unwrap();
        assert_eq!(g.num_edges(), 0);
        g.validate().unwrap();
    }

    #[test]
    fn isolated_vertices_allowed() {
        let g = Bipartite::from_edges(3, 3, &[(1, 1)]).unwrap();
        assert_eq!(g.deg_left(0), 0);
        assert_eq!(g.deg_left(2), 0);
        assert_eq!(g.deg_right(0), 0);
        assert!(g.neighbors(0).is_empty());
        g.validate().unwrap();
    }

    #[test]
    fn is_unit_detects_weights() {
        let mut g = sample();
        assert!(g.is_unit());
        g.set_weights(vec![1, 2, 1]).unwrap();
        assert!(!g.is_unit());
        assert_eq!(g.weight(1), 2);
    }

    #[test]
    fn set_weights_validates() {
        let mut g = sample();
        assert!(g.set_weights(vec![1, 1]).is_err());
        assert!(g.set_weights(vec![0, 1, 1]).is_err());
        assert!(g.set_weights(vec![5, 6, 7]).is_ok());
    }

    #[test]
    fn from_adjacency_matches_from_edges() {
        let a = Bipartite::from_adjacency(2, 3, &[vec![0, 2], vec![1]]).unwrap();
        let b = Bipartite::from_edges(2, 3, &[(0, 0), (0, 2), (1, 1)]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn edges_iterator_is_exhaustive_and_sorted() {
        let g = Bipartite::from_edges(3, 2, &[(2, 1), (0, 0), (1, 0), (1, 1)]).unwrap();
        let all: Vec<_> = g.edges().collect();
        assert_eq!(all.len(), 4);
        assert_eq!(all[0].1, 0); // first edge belongs to vertex 0
        let lefts: Vec<u32> = all.iter().map(|&(_, v, _, _)| v).collect();
        let mut sorted = lefts.clone();
        sorted.sort_unstable();
        assert_eq!(lefts, sorted);
    }
}
