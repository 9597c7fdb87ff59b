//! Reusable scratch state for the augmenting-path engines.
//!
//! Every matching engine in this crate is a phase-structured search over the
//! same bipartite substrate: BFS layers, DFS stacks, per-vertex cursors and
//! stamped visited marks. Historically each call re-allocated that scratch;
//! a [`SearchWorkspace`] allocates it once and resets it in `O(active)`
//! between runs, which is what makes repeated solves (deadline searches,
//! bench sweeps, serving traffic) cheap.
//!
//! The workspace is engine-agnostic: [`crate::bfs::pfp_from_in`],
//! [`crate::dfs::mc21_from_in`],
//! [`crate::hopcroft_karp::hopcroft_karp_from_in`],
//! [`crate::push_relabel::push_relabel_from_in`] and
//! [`crate::capacitated::max_assignment_in`] all draw from the same arrays,
//! so one workspace serves an arbitrary interleaving of engines.
//!
//! ```
//! use semimatch_graph::Bipartite;
//! use semimatch_matching::{maximum_matching_in, Algorithm, SearchWorkspace};
//!
//! let mut ws = SearchWorkspace::new();
//! for shift in 0..4u32 {
//!     let g = Bipartite::from_edges(2, 2, &[(0, shift % 2), (1, 0)]).unwrap();
//!     // Warm path: no scratch allocation after the first iteration.
//!     let m = maximum_matching_in(&g, Algorithm::HopcroftKarp, &mut ws);
//!     assert!(m.cardinality() >= 1);
//! }
//! ```

use semimatch_graph::Bipartite;

use crate::capacitated::Assignment;
use crate::flow::FlowNetwork;

/// Reusable scratch arrays for the augmenting-path engines.
///
/// All vectors grow monotonically (never shrink), so a workspace that has
/// seen the largest instance of a sweep never allocates again. The stamped
/// `visited` array makes per-search resets `O(1)`; the remaining arrays are
/// rewritten by each engine over exactly the vertices it touches.
#[derive(Clone, Debug, Default)]
pub struct SearchWorkspace {
    /// Stamped visited marks, indexed by right vertex. `visited[u] == stamp`
    /// means "reached in the current search"; anything else is stale.
    pub(crate) visited: Vec<u32>,
    /// Current stamp. Monotonically increasing; `u32::MAX` is reserved as
    /// the "never visited" sentinel that fresh slots are filled with.
    stamp: u32,
    /// BFS level / alternating distance, indexed by left vertex.
    pub(crate) dist: Vec<u32>,
    /// Predecessor pointer, indexed by right vertex. The capacitated
    /// Dinic keeps each processor's current-arc cursor here.
    pub(crate) pred: Vec<u32>,
    /// Per-left-vertex neighbor cursor (Hopcroft–Karp phase DFS, the
    /// capacitated Dinic's current arc per task). The
    /// semi-matching descent on a graph with `p² ≤ m` keeps each
    /// processor's BFS scan count here: the second scan fills the
    /// processor's row of pair counts in [`Self::aux`].
    pub(crate) cursor: Vec<u32>,
    /// Persistent lookahead cursor per left vertex (MC21).
    pub(crate) lookahead: Vec<u32>,
    /// Push-relabel labels `ψ`, indexed by right vertex.
    pub(crate) labels: Vec<u32>,
    /// Primary traversal queue (BFS frontier, FIFO of active vertices).
    pub(crate) queue: Vec<u32>,
    /// Secondary queue (global-relabel BFS, Hopcroft–Karp phase stack).
    /// The semi-matching descent on a graph with `p² ≤ m` keeps its
    /// processor-pair task counts here, row-major `p × p`: `aux[u·p + x]`
    /// counts the tasks now on processor `u` adjacent to processor `x`,
    /// meaningful once the row is filled (see [`Self::cursor`]).
    pub(crate) aux: Vec<u32>,
    /// Explicit DFS stack of `(left vertex, neighbor cursor)`.
    pub(crate) stack: Vec<(u32, u32)>,
    /// Residual-network arena for the min-cost flow formulations. The
    /// network owns its own scratch, so rebuilding it here is
    /// allocation-free once warm.
    pub(crate) flow: FlowNetwork,
    /// Arc ids of the task→processor arcs of the min-cost network.
    pub(crate) edge_arcs: Vec<u32>,
    /// Processor of each task in the capacitated Dinic's flow, or
    /// [`crate::NONE`]; indexed by left vertex. Read it with
    /// [`Self::task_procs`].
    pub(crate) proc_of: Vec<u32>,
    /// Tasks on each processor in the capacitated Dinic's flow, indexed
    /// by right vertex.
    pub(crate) load: Vec<u32>,
    /// Augmenting paths the capacitated Dinic has pushed (monotone).
    pub(crate) augmentations: u64,
    /// Edge-list buffer for graph constructions (`G_D` replication).
    pub(crate) edges: Vec<(u32, u32)>,
    /// Per-right-vertex BFS level (semi-matching phase descent).
    pub(crate) rdist: Vec<u32>,
    /// Intrusive assigned-task list heads, indexed by right vertex.
    pub(crate) list_head: Vec<u32>,
    /// Intrusive assigned-task list links, indexed by left vertex.
    pub(crate) list_next: Vec<u32>,
    /// Reverse links of [`Self::list_next`], for `O(1)` removal.
    pub(crate) list_prev: Vec<u32>,
}

impl SearchWorkspace {
    /// An empty workspace; arrays grow on first use.
    pub fn new() -> Self {
        SearchWorkspace::default()
    }

    /// A workspace pre-sized for graphs with `n_left` × `n_right` vertices
    /// (avoids growth reallocation on the first solve).
    pub fn with_capacity(n_left: u32, n_right: u32) -> Self {
        let mut ws = SearchWorkspace::new();
        ws.reserve(n_left, n_right);
        ws
    }

    /// Grows every per-vertex array to cover a `n_left` × `n_right` graph.
    ///
    /// Idempotent and monotone: called on every `*_in` entry point, a no-op
    /// (no allocation, no writes) once the workspace has seen the sizes.
    pub fn reserve(&mut self, n_left: u32, n_right: u32) {
        let n1 = n_left as usize;
        let n2 = n_right as usize;
        if self.visited.len() < n2 {
            // Fresh slots carry the sentinel: no stamp ever equals it.
            self.visited.resize(n2, u32::MAX);
        }
        grow(&mut self.dist, n1);
        grow(&mut self.pred, n2);
        grow(&mut self.cursor, n1);
        grow(&mut self.lookahead, n1);
        grow(&mut self.labels, n2);
        grow(&mut self.rdist, n2);
        grow(&mut self.list_head, n2);
        grow(&mut self.list_next, n1);
        grow(&mut self.list_prev, n1);
        grow(&mut self.proc_of, n1);
        grow(&mut self.load, n2);
    }

    /// Grows [`Self::aux`] to the semi-matching descent's `p × p` pair
    /// counts and [`Self::cursor`] to its `p` scan counts.
    pub(crate) fn reserve_pair_counts(&mut self, p: usize) {
        grow(&mut self.aux, p * p);
        grow(&mut self.cursor, p);
    }

    /// Pre-sizes the residual-network arena (vertices, directed arcs
    /// including residual twins) and the buffer recording the
    /// `n_edge_arcs` task→processor arc ids, so the first min-cost solve
    /// performs no growth reallocation. The balanced formulation of a
    /// `n1 × n2` unit graph with `m` edges uses `n1 + n2 + 2` vertices,
    /// `2·(n1 + 2m)` arcs (a source arc per task, an arc per edge and a
    /// sink arc per edge) and records `m` edge arcs.
    pub fn reserve_flow(&mut self, n_vertices: usize, n_arcs: usize, n_edge_arcs: usize) {
        self.flow.reserve(n_vertices, n_arcs);
        self.edge_arcs.reserve(n_edge_arcs.saturating_sub(self.edge_arcs.len()));
    }

    /// Starts a new search: returns a fresh stamp distinct from every mark
    /// currently in `visited`. `O(1)` except on stamp overflow (every
    /// `u32::MAX - 1` searches), where `visited` is wiped once.
    pub(crate) fn next_stamp(&mut self) -> u32 {
        if self.stamp == u32::MAX - 1 {
            // Overflow: wipe to the sentinel and restart the counter.
            self.visited.iter_mut().for_each(|m| *m = u32::MAX);
            self.stamp = 0;
        } else {
            self.stamp += 1;
        }
        self.stamp
    }

    /// The residual-network arena, cleared for an `n`-vertex build.
    ///
    /// Returned together with the arc-id buffer so callers can record arc
    /// ids while constructing (split borrows of one workspace).
    pub(crate) fn flow_arena(&mut self, n: usize) -> (&mut FlowNetwork, &mut Vec<u32>) {
        self.flow.clear(n);
        self.edge_arcs.clear();
        (&mut self.flow, &mut self.edge_arcs)
    }

    /// Processor of each task after the last capacitated assignment
    /// ([`crate::NONE`] when unassigned or outside the view), indexed by
    /// task id. Entries past that graph's task count are stale.
    pub fn task_procs(&self) -> &[u32] {
        &self.proc_of
    }

    /// The last capacitated assignment on `g` as an [`Assignment`].
    pub(crate) fn assignment(&self, g: &Bipartite) -> Assignment {
        Assignment {
            task_to_proc: self.proc_of[..g.n_left() as usize].to_vec(),
            loads: self.load[..g.n_right() as usize].to_vec(),
        }
    }

    /// Augmenting paths pushed through this workspace since construction,
    /// by the capacitated Dinic and the min-cost network alike (monotone;
    /// meter a region by snapshot-and-subtract). The probe/augmentation
    /// counter behind the fast-exact bench reports.
    pub fn flow_augmentations(&self) -> u64 {
        self.augmentations + self.flow.augmentations()
    }
}

/// Grows `v` to `n` slots without initializing a meaning (engines rewrite
/// the slots they read); never shrinks, so capacity is sticky.
fn grow(v: &mut Vec<u32>, n: usize) {
    if v.len() < n {
        v.resize(n, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_is_monotone_and_idempotent() {
        let mut ws = SearchWorkspace::new();
        ws.reserve(4, 7);
        assert_eq!(ws.visited.len(), 7);
        assert_eq!(ws.dist.len(), 4);
        ws.reserve(2, 3); // smaller: nothing shrinks
        assert_eq!(ws.visited.len(), 7);
        assert_eq!(ws.dist.len(), 4);
        let ptr = ws.visited.as_ptr();
        ws.reserve(4, 7); // same: no reallocation
        assert_eq!(ws.visited.as_ptr(), ptr);
    }

    #[test]
    fn stamps_are_distinct_across_searches() {
        let mut ws = SearchWorkspace::with_capacity(2, 2);
        let a = ws.next_stamp();
        let b = ws.next_stamp();
        assert_ne!(a, b);
        assert_ne!(a, u32::MAX);
        assert_ne!(b, u32::MAX);
    }

    #[test]
    fn stamp_overflow_wipes_visited() {
        let mut ws = SearchWorkspace::with_capacity(1, 3);
        ws.stamp = u32::MAX - 2;
        let s = ws.next_stamp();
        ws.visited[0] = s;
        let s2 = ws.next_stamp(); // hits the overflow path
        assert_eq!(s2, 0);
        assert!(ws.visited.iter().all(|&m| m == u32::MAX), "marks wiped on overflow");
    }

    #[test]
    fn fresh_slots_never_match_a_stamp() {
        let mut ws = SearchWorkspace::new();
        let s = {
            ws.reserve(1, 1);
            ws.next_stamp()
        };
        ws.reserve(1, 64); // grow after stamping
        assert!(ws.visited[1..].iter().all(|&m| m != s));
    }
}
