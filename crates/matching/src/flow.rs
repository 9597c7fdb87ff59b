//! A small generic max-flow solver (Dinic's algorithm).
//!
//! The exact algorithm for `SINGLEPROC-UNIT` needs maximum matchings in the
//! deadline-expanded graph `G_D`; rather than materializing `D` copies of
//! every processor one solves the equivalent flow problem with processor
//! capacities. [`crate::capacitated`] runs that Dinic on the bipartite
//! graph itself; this network is the general solver it is tested against,
//! and unit tests exercise it on classical flow networks as well.
//!
//! The residual graph is stored in CSR form (matching
//! `semimatch_graph::Bipartite`): arcs append to flat `head`/`cap` arrays
//! and the per-vertex arc lists are two flat index arrays rebuilt lazily
//! before a solve. The Dinic scratch (levels, current-arc pointers, BFS
//! queue, DFS path) lives inside the network, so a [`FlowNetwork`] that is
//! [`clear`](FlowNetwork::clear)ed and refilled — the
//! [`crate::SearchWorkspace`] arena pattern — performs repeated max-flows
//! with no per-call allocation once warm.
//!
//! A min-cost layer ([`add_arc_with_cost`](FlowNetwork::add_arc_with_cost),
//! [`min_cost_max_flow`](FlowNetwork::min_cost_max_flow)) runs successive
//! shortest augmenting paths with Johnson potentials over the same arc
//! arrays — all-integer reduced costs, no floats. It backs the `mcf`
//! exact kind.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use semimatch_obs::{self as obs, catalog as metric};

/// CSR flow network with residual arcs and resident Dinic scratch.
#[derive(Clone, Debug, Default)]
pub struct FlowNetwork {
    /// Number of vertices.
    n: usize,
    /// Head vertex of each arc. Arc `2k+1` is the residual twin of arc `2k`,
    /// so the tail of arc `a` is `head[a ^ 1]`.
    head: Vec<u32>,
    /// Residual capacity of each arc.
    cap: Vec<u64>,
    /// Per-arc cost, filled lazily: empty (or short) while only
    /// [`add_arc`](Self::add_arc) has been used, so pure max-flow networks
    /// pay nothing. Twin arcs carry the negated cost.
    cost: Vec<i128>,
    /// CSR offsets: the arcs leaving vertex `v` are
    /// `arc_order[arc_start[v] .. arc_start[v + 1]]`. Rebuilt lazily.
    arc_start: Vec<u32>,
    /// Arc ids grouped by tail vertex (CSR payload).
    arc_order: Vec<u32>,
    /// Whether `arc_start`/`arc_order` reflect the current arc set.
    csr_valid: bool,
    /// Augmenting paths pushed since construction (Dinic DFS augments and
    /// min-cost shortest-path augments alike). Monotone — never reset by
    /// [`clear`](Self::clear) — so callers meter a region by
    /// snapshot-and-subtract.
    augmentations: u64,
    // ---- Dinic scratch, resident so warm solves allocate nothing ----
    /// BFS level of each vertex.
    level: Vec<u32>,
    /// Current-arc pointer per vertex (index into its CSR slice).
    iter_ptr: Vec<u32>,
    /// BFS queue.
    queue: Vec<u32>,
    /// Arcs on the current DFS path.
    path: Vec<u32>,
    // ---- Min-cost scratch (successive shortest paths) ----
    /// Johnson potentials.
    pot: Vec<i128>,
    /// Dijkstra distances over reduced costs.
    dist: Vec<u128>,
    /// Arc that reached each vertex on the current shortest-path tree.
    parent: Vec<u32>,
    /// Dijkstra frontier (lazy-deletion binary heap).
    heap: BinaryHeap<Reverse<(u128, u32)>>,
}

impl FlowNetwork {
    /// Creates a network with `n` vertices and no arcs.
    pub fn new(n: usize) -> Self {
        FlowNetwork { n, ..FlowNetwork::default() }
    }

    /// Resets to an empty `n`-vertex network, keeping every allocation.
    ///
    /// This is the arena entry point: a long-lived network cleared between
    /// builds reuses its arc arrays, CSR index and Dinic scratch.
    pub fn clear(&mut self, n: usize) {
        self.n = n;
        self.head.clear();
        self.cap.clear();
        self.cost.clear();
        self.csr_valid = false;
    }

    /// Pre-sizes the arc arrays, the CSR index and the Dinic scratch for a
    /// network of `n_vertices` vertices and `n_arcs` directed arcs
    /// (residual twins included), so the first build-and-solve performs no
    /// growth reallocation.
    pub fn reserve(&mut self, n_vertices: usize, n_arcs: usize) {
        self.head.reserve(n_arcs.saturating_sub(self.head.len()));
        self.cap.reserve(n_arcs.saturating_sub(self.cap.len()));
        self.arc_start.reserve((n_vertices + 1).saturating_sub(self.arc_start.len()));
        self.arc_order.reserve(n_arcs.saturating_sub(self.arc_order.len()));
        self.level.reserve(n_vertices.saturating_sub(self.level.len()));
        self.iter_ptr.reserve(n_vertices.saturating_sub(self.iter_ptr.len()));
        self.queue.reserve(n_vertices.saturating_sub(self.queue.len()));
    }

    /// Number of vertices.
    pub fn n_vertices(&self) -> usize {
        self.n
    }

    /// Number of directed arcs (residual twins included).
    pub fn n_arcs(&self) -> usize {
        self.head.len()
    }

    /// Adds a directed arc `from → to` with the given capacity and returns
    /// its arc id (the reverse residual arc is created automatically).
    pub fn add_arc(&mut self, from: u32, to: u32, capacity: u64) -> u32 {
        debug_assert!((from as usize) < self.n && (to as usize) < self.n);
        let id = self.head.len() as u32;
        self.head.push(to);
        self.cap.push(capacity);
        self.head.push(from);
        self.cap.push(0);
        self.csr_valid = false;
        id
    }

    /// Flow currently routed through arc `id` (capacity of its twin).
    pub fn flow(&self, id: u32) -> u64 {
        self.cap[id as usize ^ 1]
    }

    /// Residual capacity of arc `id`.
    pub fn residual(&self, id: u32) -> u64 {
        self.cap[id as usize]
    }

    /// Augmenting paths pushed since construction, across
    /// [`max_flow`](Self::max_flow) and
    /// [`min_cost_max_flow`](Self::min_cost_max_flow) calls alike. Monotone
    /// (never reset by [`clear`](Self::clear)): meter a region by
    /// snapshot-and-subtract.
    pub fn augmentations(&self) -> u64 {
        self.augmentations
    }

    /// Adds a directed arc `from → to` with the given capacity and cost,
    /// returning its arc id. The residual twin carries the negated cost, so
    /// cancelling flow refunds it. Costs must be non-negative:
    /// [`min_cost_max_flow`](Self::min_cost_max_flow) starts its Johnson
    /// potentials at zero.
    pub fn add_arc_with_cost(&mut self, from: u32, to: u32, capacity: u64, cost: i128) -> u32 {
        debug_assert!(cost >= 0, "initial arc costs must be non-negative");
        let id = self.add_arc(from, to, capacity);
        if cost != 0 {
            // Backfill zero costs for any plain `add_arc` arcs before us.
            self.cost.resize(id as usize, 0);
            self.cost.push(cost);
            self.cost.push(-cost);
        }
        id
    }

    /// Cost of arc `id` (zero for arcs added via [`add_arc`](Self::add_arc)).
    #[inline]
    fn arc_cost(&self, id: u32) -> i128 {
        self.cost.get(id as usize).copied().unwrap_or(0)
    }

    /// Rebuilds the CSR arc index by counting sort over arc tails.
    /// `O(V + E)`, allocation-free once the index arrays have grown.
    fn build_csr(&mut self) {
        if obs::enabled() {
            obs::counter_add(&metric::FLOW_CSR_REBUILDS, 1);
        }
        let m = self.head.len();
        self.arc_start.clear();
        self.arc_start.resize(self.n + 1, 0);
        for a in 0..m {
            let tail = self.head[a ^ 1] as usize;
            self.arc_start[tail + 1] += 1;
        }
        for v in 0..self.n {
            self.arc_start[v + 1] += self.arc_start[v];
        }
        self.arc_order.resize(m, 0);
        // Temporarily advance arc_start as the fill cursor, then shift back.
        for a in 0..m {
            let tail = self.head[a ^ 1] as usize;
            let slot = self.arc_start[tail];
            self.arc_order[slot as usize] = a as u32;
            self.arc_start[tail] += 1;
        }
        for v in (1..=self.n).rev() {
            self.arc_start[v] = self.arc_start[v - 1];
        }
        self.arc_start[0] = 0;
        self.csr_valid = true;
    }

    /// The arc ids leaving `v` (requires a valid CSR index).
    #[inline]
    fn arcs_of(&self, v: u32) -> std::ops::Range<usize> {
        self.arc_start[v as usize] as usize..self.arc_start[v as usize + 1] as usize
    }

    /// Computes the maximum `source → sink` flow with Dinic's algorithm.
    ///
    /// Reuses the resident scratch; on a warm (cleared-and-refilled)
    /// network of the same shape this performs no allocation.
    pub fn max_flow(&mut self, source: u32, sink: u32) -> u64 {
        assert_ne!(source, sink, "source and sink must differ");
        if !self.csr_valid {
            self.build_csr();
        }
        let n = self.n;
        self.level.resize(n, u32::MAX);
        self.iter_ptr.resize(n, 0);
        let mut total = 0u64;
        let augs_before = self.augmentations;
        let mut phases = 0u64;
        loop {
            // BFS: layer the residual graph.
            self.level.iter_mut().for_each(|l| *l = u32::MAX);
            self.level[source as usize] = 0;
            self.queue.clear();
            self.queue.push(source);
            let mut head = 0;
            while head < self.queue.len() {
                let v = self.queue[head];
                head += 1;
                for k in self.arcs_of(v) {
                    let a = self.arc_order[k] as usize;
                    let to = self.head[a];
                    if self.cap[a] > 0 && self.level[to as usize] == u32::MAX {
                        self.level[to as usize] = self.level[v as usize] + 1;
                        self.queue.push(to);
                    }
                }
            }
            if self.level[sink as usize] == u32::MAX {
                if obs::enabled() {
                    obs::counter_add(&metric::FLOW_AUGMENTATIONS, self.augmentations - augs_before);
                    obs::counter_add(&metric::FLOW_DINIC_PHASES, phases);
                }
                return total;
            }
            phases += 1;
            // Blocking flow via iterative DFS with current-arc pointers.
            self.iter_ptr.iter_mut().for_each(|i| *i = 0);
            loop {
                let pushed = self.dfs_augment(source, sink, u64::MAX);
                if pushed == 0 {
                    break;
                }
                total += pushed;
            }
        }
    }

    /// One DFS from `source`: finds a single augmenting path in the level
    /// graph and pushes its bottleneck. Iterative to avoid deep recursion.
    fn dfs_augment(&mut self, source: u32, sink: u32, limit: u64) -> u64 {
        self.path.clear();
        let mut v = source;
        loop {
            if v == sink {
                // Bottleneck and augment.
                let mut bottleneck = limit;
                for &a in &self.path {
                    bottleneck = bottleneck.min(self.cap[a as usize]);
                }
                for &a in &self.path {
                    self.cap[a as usize] -= bottleneck;
                    self.cap[(a ^ 1) as usize] += bottleneck;
                }
                self.augmentations += 1;
                return bottleneck;
            }
            let arcs = self.arcs_of(v);
            let base = arcs.start;
            let deg = arcs.len();
            let mut advanced = false;
            while (self.iter_ptr[v as usize] as usize) < deg {
                let a = self.arc_order[base + self.iter_ptr[v as usize] as usize];
                let to = self.head[a as usize];
                if self.cap[a as usize] > 0
                    && self.level[to as usize] == self.level[v as usize].wrapping_add(1)
                {
                    self.path.push(a);
                    v = to;
                    advanced = true;
                    break;
                }
                self.iter_ptr[v as usize] += 1;
            }
            if !advanced {
                if v == source {
                    return 0; // level graph exhausted
                }
                // Retreat: the vertex is dead for this phase.
                let a = self.path.pop().expect("non-source vertex has an entry arc");
                let prev = self.head[(a ^ 1) as usize];
                self.iter_ptr[prev as usize] += 1;
                v = prev;
            }
        }
    }

    /// Computes a maximum `source → sink` flow of minimum total cost by
    /// successive shortest augmenting paths with Johnson potentials.
    /// Returns `(flow, cost)`.
    ///
    /// All arithmetic is integral: Dijkstra runs over the reduced costs
    /// `cost(a) + pot(tail) − pot(head)`, which the potential update keeps
    /// non-negative, so there is no float fallback anywhere. Requires every
    /// initial arc cost to be non-negative (potentials start at zero —
    /// enforced by [`add_arc_with_cost`](Self::add_arc_with_cost)). The
    /// scratch (potentials, distances, parent arcs, heap) is resident:
    /// warm repeated solves allocate nothing. Ties in the Dijkstra heap
    /// break on vertex id, so the routed flow is deterministic.
    pub fn min_cost_max_flow(&mut self, source: u32, sink: u32) -> (u64, i128) {
        assert_ne!(source, sink, "source and sink must differ");
        if !self.csr_valid {
            self.build_csr();
        }
        let n = self.n;
        self.pot.clear();
        self.pot.resize(n, 0);
        self.dist.resize(n, u128::MAX);
        self.parent.resize(n, u32::MAX);
        let mut total_flow = 0u64;
        let mut total_cost = 0i128;
        let augs_before = self.augmentations;
        let mut dijkstra_rounds = 0u64;
        loop {
            dijkstra_rounds += 1;
            // Dijkstra over reduced costs, lazy-deletion heap.
            self.dist.iter_mut().for_each(|d| *d = u128::MAX);
            self.dist[source as usize] = 0;
            self.heap.clear();
            self.heap.push(Reverse((0, source)));
            while let Some(Reverse((d, v))) = self.heap.pop() {
                if d > self.dist[v as usize] {
                    continue; // stale entry
                }
                for k in self.arcs_of(v) {
                    let a = self.arc_order[k];
                    if self.cap[a as usize] == 0 {
                        continue;
                    }
                    let to = self.head[a as usize];
                    let rc = self.arc_cost(a) + self.pot[v as usize] - self.pot[to as usize];
                    debug_assert!(rc >= 0, "reduced costs stay non-negative");
                    let nd = d + rc as u128;
                    if nd < self.dist[to as usize] {
                        self.dist[to as usize] = nd;
                        self.parent[to as usize] = a;
                        self.heap.push(Reverse((nd, to)));
                    }
                }
            }
            let d_sink = self.dist[sink as usize];
            if d_sink == u128::MAX {
                if obs::enabled() {
                    obs::counter_add(&metric::MCF_DIJKSTRA_ROUNDS, dijkstra_rounds);
                    obs::counter_add(&metric::MCF_POTENTIALS_RESETS, 1);
                    obs::counter_add(&metric::FLOW_AUGMENTATIONS, self.augmentations - augs_before);
                }
                return (total_flow, total_cost);
            }
            // Potential update keeps every residual reduced cost ≥ 0, with
            // unreached vertices clamped to the sink distance.
            for v in 0..n {
                self.pot[v] += self.dist[v].min(d_sink) as i128;
            }
            // Bottleneck along the shortest-path tree, then augment.
            let mut bottleneck = u64::MAX;
            let mut v = sink;
            while v != source {
                let a = self.parent[v as usize];
                bottleneck = bottleneck.min(self.cap[a as usize]);
                v = self.head[a as usize ^ 1];
            }
            let mut v = sink;
            while v != source {
                let a = self.parent[v as usize];
                self.cap[a as usize] -= bottleneck;
                self.cap[a as usize ^ 1] += bottleneck;
                total_cost += self.arc_cost(a) * bottleneck as i128;
                v = self.head[a as usize ^ 1];
            }
            total_flow += bottleneck;
            self.augmentations += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_arc() {
        let mut net = FlowNetwork::new(2);
        let a = net.add_arc(0, 1, 7);
        assert_eq!(net.max_flow(0, 1), 7);
        assert_eq!(net.flow(a), 7);
        assert_eq!(net.residual(a), 0);
    }

    #[test]
    fn classic_diamond() {
        // s=0, t=3; two routes with a cross arc.
        let mut net = FlowNetwork::new(4);
        net.add_arc(0, 1, 10);
        net.add_arc(0, 2, 10);
        net.add_arc(1, 2, 1);
        net.add_arc(1, 3, 8);
        net.add_arc(2, 3, 10);
        assert_eq!(net.max_flow(0, 3), 18);
    }

    #[test]
    fn needs_residual_arcs() {
        // The textbook example where a greedy route must be partially undone.
        let mut net = FlowNetwork::new(4);
        net.add_arc(0, 1, 1);
        net.add_arc(0, 2, 1);
        net.add_arc(1, 2, 1);
        net.add_arc(1, 3, 1);
        net.add_arc(2, 3, 1);
        assert_eq!(net.max_flow(0, 3), 2);
    }

    #[test]
    fn disconnected_sink() {
        let mut net = FlowNetwork::new(3);
        net.add_arc(0, 1, 5);
        assert_eq!(net.max_flow(0, 2), 0);
    }

    #[test]
    fn bipartite_matching_as_flow() {
        // 3 tasks, 2 processors, capacities 1: maximum matching is 2.
        // Nodes: s=0, tasks 1..=3, procs 4..=5, t=6.
        let mut net = FlowNetwork::new(7);
        for v in 1..=3 {
            net.add_arc(0, v, 1);
        }
        net.add_arc(1, 4, 1);
        net.add_arc(2, 4, 1);
        net.add_arc(3, 5, 1);
        net.add_arc(4, 6, 1);
        net.add_arc(5, 6, 1);
        assert_eq!(net.max_flow(0, 6), 2);
    }

    #[test]
    fn capacities_accumulate_on_sink_arcs() {
        // 3 tasks, 1 processor with capacity 2 → flow 2.
        let mut net = FlowNetwork::new(6);
        for v in 1..=3 {
            net.add_arc(0, v, 1);
            net.add_arc(v, 4, 1);
        }
        net.add_arc(4, 5, 2);
        assert_eq!(net.max_flow(0, 5), 2);
    }

    #[test]
    fn flow_conservation() {
        let mut net = FlowNetwork::new(5);
        let arcs = [
            net.add_arc(0, 1, 4),
            net.add_arc(0, 2, 2),
            net.add_arc(1, 2, 2),
            net.add_arc(1, 3, 1),
            net.add_arc(2, 3, 5),
            net.add_arc(3, 4, 6),
        ];
        // Vertex 1 can forward at most 3 units (1→2 cap 2, 1→3 cap 1), so
        // the maximum is 3 + 2 = 5.
        let f = net.max_flow(0, 4);
        assert_eq!(f, 5);
        // Conservation at vertex 2: inflow == outflow.
        let inflow = net.flow(arcs[1]) + net.flow(arcs[2]);
        let outflow = net.flow(arcs[4]);
        assert_eq!(inflow, outflow);
    }

    #[test]
    fn incremental_arcs_after_a_solve() {
        // Adding arcs invalidates the CSR index; a second solve must see
        // both the residual state and the new arc.
        let mut net = FlowNetwork::new(3);
        net.add_arc(0, 1, 4);
        net.add_arc(1, 2, 2);
        assert_eq!(net.max_flow(0, 2), 2);
        net.add_arc(1, 2, 3);
        assert_eq!(net.max_flow(0, 2), 2, "second route bounded by 0→1 residual");
    }

    #[test]
    fn cleared_network_reuses_allocations() {
        let mut net = FlowNetwork::new(4);
        net.add_arc(0, 1, 1);
        net.add_arc(1, 3, 1);
        assert_eq!(net.max_flow(0, 3), 1);
        net.clear(4);
        assert_eq!(net.n_arcs(), 0);
        net.add_arc(0, 2, 5);
        net.add_arc(2, 3, 4);
        assert_eq!(net.max_flow(0, 3), 4);
    }

    #[test]
    fn min_cost_picks_the_cheap_route() {
        // Two parallel s→t routes with costs 1 and 5; both must fill for
        // maximality, and the total cost is exact.
        let mut net = FlowNetwork::new(4);
        net.add_arc_with_cost(0, 1, 2, 0);
        net.add_arc_with_cost(0, 2, 2, 0);
        let c1 = net.add_arc_with_cost(1, 3, 2, 1);
        let c2 = net.add_arc_with_cost(2, 3, 2, 5);
        let (f, c) = net.min_cost_max_flow(0, 3);
        assert_eq!(f, 4);
        assert_eq!(c, 12, "2 units at cost 1 + 2 units at cost 5");
        assert_eq!(net.flow(c1), 2);
        assert_eq!(net.flow(c2), 2);
    }

    #[test]
    fn min_cost_needs_residual_rerouting() {
        // The classic case where the cheapest augmenting path must undo a
        // previous routing decision through a negative-reduced-cost twin.
        let mut net = FlowNetwork::new(4);
        net.add_arc_with_cost(0, 1, 1, 1);
        net.add_arc_with_cost(0, 2, 1, 4);
        net.add_arc_with_cost(1, 2, 1, 1);
        net.add_arc_with_cost(1, 3, 1, 6);
        net.add_arc_with_cost(2, 3, 2, 1);
        let (f, c) = net.min_cost_max_flow(0, 3);
        assert_eq!(f, 2);
        // Optimal: 0→1→2→3 (cost 3) + 0→2→3 (cost 5) = 8, beating any
        // routing that uses the cost-6 arc.
        assert_eq!(c, 8);
    }

    #[test]
    fn convex_bundle_spreads_load() {
        // 4 units into two procs, each offering unit sink arcs with
        // marginals 1, 3, 5 (convex): the optimum splits 2 / 2.
        let mut net = FlowNetwork::new(5);
        net.add_arc(0, 1, 4);
        for proc in [2u32, 3] {
            net.add_arc(1, proc, 4);
            for marginal in [1i128, 3, 5] {
                net.add_arc_with_cost(proc, 4, 1, marginal);
            }
        }
        let (f, c) = net.min_cost_max_flow(0, 4);
        assert_eq!(f, 4);
        // 2 units per proc: (1 + 3) + (1 + 3) = 8; any 3/1 split costs
        // 1+3+5 + 1 = 10.
        assert_eq!(c, 8);
    }

    #[test]
    fn clear_can_resize() {
        let mut net = FlowNetwork::new(2);
        net.add_arc(0, 1, 1);
        assert_eq!(net.max_flow(0, 1), 1);
        net.clear(6);
        for v in 1..=3 {
            net.add_arc(0, v, 1);
            net.add_arc(v, 4, 1);
        }
        net.add_arc(4, 5, 2);
        assert_eq!(net.max_flow(0, 5), 2);
    }
}
