//! A small generic max-flow solver (Dinic's algorithm).
//!
//! The exact algorithm for `SINGLEPROC-UNIT` needs maximum matchings in the
//! deadline-expanded graph `G_D`; rather than materializing `D` copies of
//! every processor one solves the equivalent flow problem with processor
//! capacities. [`crate::capacitated`] runs that Dinic on the bipartite
//! graph itself; this network is the general solver it is tested against,
//! and unit tests exercise it on classical flow networks as well. No
//! solver builds one.
//!
//! The residual graph is stored in CSR form (matching
//! `semimatch_graph::Bipartite`): arcs append to flat `head`/`cap` arrays
//! and the per-vertex arc lists are two flat index arrays rebuilt lazily
//! before a solve.

/// CSR flow network with residual arcs and its Dinic scratch.
#[derive(Clone, Debug, Default)]
pub struct FlowNetwork {
    /// Number of vertices.
    n: usize,
    /// Head vertex of each arc. Arc `2k+1` is the residual twin of arc `2k`,
    /// so the tail of arc `a` is `head[a ^ 1]`.
    head: Vec<u32>,
    /// Residual capacity of each arc.
    cap: Vec<u64>,
    /// CSR offsets: the arcs leaving vertex `v` are
    /// `arc_order[arc_start[v] .. arc_start[v + 1]]`. Rebuilt lazily.
    arc_start: Vec<u32>,
    /// Arc ids grouped by tail vertex (CSR payload).
    arc_order: Vec<u32>,
    /// Whether `arc_start`/`arc_order` reflect the current arc set.
    csr_valid: bool,
    // ---- Dinic scratch ----
    /// BFS level of each vertex.
    level: Vec<u32>,
    /// Current-arc pointer per vertex (index into its CSR slice).
    iter_ptr: Vec<u32>,
    /// BFS queue.
    queue: Vec<u32>,
    /// Arcs on the current DFS path.
    path: Vec<u32>,
}

impl FlowNetwork {
    /// Creates a network with `n` vertices and no arcs.
    pub fn new(n: usize) -> Self {
        FlowNetwork { n, ..FlowNetwork::default() }
    }

    /// Resets to an empty `n`-vertex network, keeping every allocation.
    pub fn clear(&mut self, n: usize) {
        self.n = n;
        self.head.clear();
        self.cap.clear();
        self.csr_valid = false;
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

    /// Rebuilds the CSR arc index by counting sort over arc tails.
    /// `O(V + E)`, allocation-free once the index arrays have grown.
    fn build_csr(&mut self) {
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
    pub fn max_flow(&mut self, source: u32, sink: u32) -> u64 {
        assert_ne!(source, sink, "source and sink must differ");
        if !self.csr_valid {
            self.build_csr();
        }
        let n = self.n;
        self.level.resize(n, u32::MAX);
        self.iter_ptr.resize(n, 0);
        let mut total = 0u64;
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
                return total;
            }
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
