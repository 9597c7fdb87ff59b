//! Capacitated bipartite assignment: matchings in the deadline graph `G_D`.
//!
//! The paper's exact algorithm for `SINGLEPROC-UNIT` (§IV-A) asks for a
//! maximum matching in `G_D`, the graph with `D` copies of every processor.
//! A matching in `G_D` covering all tasks is exactly an assignment of each
//! task to an eligible processor in which no processor receives more than
//! `D` tasks. We solve this directly as a max-flow problem with processor
//! capacities, avoiding the `D`-fold blowup; [`crate::replicate`] keeps
//! the explicit construction as a cross-check.
//!
//! The flow network source → tasks → processors → sink is never built.
//! Its unit flows are an assignment, so Dinic's algorithm runs on the
//! graph itself: a processor per task and a load per processor in the
//! [`SearchWorkspace`], whose residual arcs are read off `g.neighbors`
//! (a task to its other processors) and `g.rneighbors` (a processor back
//! to the tasks it serves, then to the sink while below capacity). The
//! arcs are visited in the order of the materialized network's CSR —
//! the source's in ascending task order, a task's in neighbour order, a
//! processor's in ascending task order and then its sink arc — so every
//! phase, augmenting path and assignment is the one
//! [`FlowNetwork::max_flow`](crate::FlowNetwork::max_flow) finds on that
//! network; the tests compare the two. The min-cost formulations at the
//! end of this module still build a [`crate::FlowNetwork`].

use semimatch_graph::Bipartite;
use semimatch_obs::{self as obs, catalog as metric};

use crate::matching::NONE;
use crate::workspace::SearchWorkspace;

/// Result of a capacitated assignment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Assignment {
    /// Processor assigned to each task, or [`NONE`] for unassigned tasks.
    pub task_to_proc: Vec<u32>,
    /// Number of tasks assigned to each processor.
    pub loads: Vec<u32>,
}

impl Assignment {
    /// Number of assigned tasks.
    pub fn cardinality(&self) -> usize {
        self.task_to_proc.iter().filter(|&&p| p != NONE).count()
    }

    /// True when every task is assigned.
    pub fn is_complete(&self) -> bool {
        self.task_to_proc.iter().all(|&p| p != NONE)
    }

    /// Largest processor load.
    pub fn max_load(&self) -> u32 {
        self.loads.iter().copied().max().unwrap_or(0)
    }

    /// Checks structural consistency against the instance graph and a
    /// uniform capacity.
    pub fn validate(&self, g: &Bipartite, capacity: u32) -> Result<(), String> {
        if self.task_to_proc.len() != g.n_left() as usize
            || self.loads.len() != g.n_right() as usize
        {
            return Err("assignment length mismatch".into());
        }
        let mut loads = vec![0u32; g.n_right() as usize];
        for (v, &p) in self.task_to_proc.iter().enumerate() {
            if p == NONE {
                continue;
            }
            if g.neighbors(v as u32).binary_search(&p).is_err() {
                return Err(format!("task {v} assigned to non-eligible processor {p}"));
            }
            loads[p as usize] += 1;
        }
        if loads != self.loads {
            return Err("stored loads are stale".into());
        }
        if let Some(u) = loads.iter().position(|&l| l > capacity) {
            return Err(format!("processor {u} exceeds capacity: {} > {capacity}", loads[u]));
        }
        Ok(())
    }
}

/// Maximum-cardinality assignment with uniform processor capacity.
///
/// Returns the largest set of tasks that can be placed so that every
/// processor serves at most `capacity` tasks, by Dinic's algorithm on the
/// implicit unit-task flow network (see the module docs). No
/// per-processor capacity array is materialized for the uniform case.
pub fn max_assignment(g: &Bipartite, capacity: u32) -> Assignment {
    max_assignment_in(g, capacity, &mut SearchWorkspace::new())
}

/// [`max_assignment`] on a reusable workspace. Warm repeated solves (the
/// deadline-search inner loop) allocate only the returned [`Assignment`].
pub fn max_assignment_in(g: &Bipartite, capacity: u32, ws: &mut SearchWorkspace) -> Assignment {
    dinic_in(g, Tasks::All(g.n_left()), |_| capacity, ws);
    ws.assignment(g)
}

/// Maximum-cardinality assignment with per-processor capacities.
pub fn max_assignment_with_capacities(g: &Bipartite, capacities: &[u32]) -> Assignment {
    max_assignment_with_capacities_in(g, capacities, &mut SearchWorkspace::new())
}

/// [`max_assignment_with_capacities`] on a reusable workspace.
pub fn max_assignment_with_capacities_in(
    g: &Bipartite,
    capacities: &[u32],
    ws: &mut SearchWorkspace,
) -> Assignment {
    assert_eq!(capacities.len(), g.n_right() as usize, "one capacity per processor");
    dinic_in(g, Tasks::All(g.n_left()), |u| capacities[u as usize], ws);
    ws.assignment(g)
}

/// Maximum assignment of a sub-view: only the tasks in `tasks` (original
/// ids, ascending) take part, and processor `u` serves at most
/// `capacity_of(u)` of them; a processor of capacity 0 is left out.
/// Returns the number of assigned tasks. [`SearchWorkspace::task_procs`]
/// then holds the processor of every task of the view ([`NONE`] when
/// unassigned) and [`NONE`] for every task outside it.
///
/// This is the capacity probe of the load-range search, which keeps
/// probing a shrinking set of tasks and processors.
pub fn max_assignment_view_in(
    g: &Bipartite,
    tasks: &[u32],
    capacity_of: impl Fn(u32) -> u32,
    ws: &mut SearchWorkspace,
) -> u64 {
    debug_assert!(tasks.windows(2).all(|w| w[0] < w[1]), "view tasks must ascend");
    dinic_in(g, Tasks::Subset(tasks), capacity_of, ws)
}

/// The tasks that take part in a solve, in the order of the source's arcs.
#[derive(Clone, Copy)]
enum Tasks<'a> {
    /// Every task `0..n`.
    All(u32),
    /// An ascending subset.
    Subset(&'a [u32]),
}

impl Tasks<'_> {
    fn len(self) -> usize {
        match self {
            Tasks::All(n) => n as usize,
            Tasks::Subset(tasks) => tasks.len(),
        }
    }

    fn get(self, i: usize) -> u32 {
        match self {
            Tasks::All(_) => i as u32,
            Tasks::Subset(tasks) => tasks[i],
        }
    }
}

/// Level of a task or processor the BFS has not reached.
const UNREACHED: u32 = u32::MAX;

/// Dinic's algorithm on the implicit network source → `tasks` →
/// processors → sink, from the zero flow. Returns the flow value (the
/// number of assigned tasks); the flow itself is `ws.proc_of` and
/// `ws.load`. Every augmenting path carries one unit, so the value is
/// also the number of augmentations.
fn dinic_in(
    g: &Bipartite,
    tasks: Tasks<'_>,
    capacity_of: impl Fn(u32) -> u32,
    ws: &mut SearchWorkspace,
) -> u64 {
    let (n, p) = (g.n_left(), g.n_right());
    ws.reserve(n, p);
    // Tasks outside the view are cleared too, so no stale entry reads as
    // flow on a processor's arc.
    ws.proc_of[..n as usize].fill(NONE);
    ws.load[..p as usize].fill(0);
    let before = ws.augmentations;
    let mut phases = 0u64;
    while let Some(sink_level) = level_graph(g, tasks, &capacity_of, ws) {
        phases += 1;
        blocking_flow(g, tasks, &capacity_of, sink_level, ws);
    }
    let routed = ws.augmentations - before;
    if obs::enabled() {
        obs::counter_add(&metric::FLOW_AUGMENTATIONS, routed);
        obs::counter_add(&metric::FLOW_DINIC_PHASES, phases);
    }
    routed
}

/// The BFS of a Dinic phase: labels tasks in `ws.dist` and processors in
/// `ws.rdist` with their distance from the source and returns the sink's,
/// or `None` when no augmenting path is left. A task's residual arcs lead
/// to its other processors; a processor's lead back to the tasks it
/// serves and, below capacity, to the sink.
///
/// The search stops once the processor level that reaches the sink is
/// complete: every vertex closer to the source than the sink is labeled,
/// and any other vertex at or past the sink's level is a dead end for the
/// DFS. The phase's cursors are reset here too.
fn level_graph(
    g: &Bipartite,
    tasks: Tasks<'_>,
    capacity_of: &impl Fn(u32) -> u32,
    ws: &mut SearchWorkspace,
) -> Option<u32> {
    let SearchWorkspace { dist, rdist, cursor, pred: proc_cursor, queue, proc_of, load, .. } = ws;
    let p = g.n_right() as usize;
    rdist[..p].fill(UNREACHED);
    proc_cursor[..p].fill(0);
    queue.clear();
    for i in 0..tasks.len() {
        let v = tasks.get(i) as usize;
        cursor[v] = 0;
        dist[v] = if proc_of[v] == NONE { 1 } else { UNREACHED };
        if dist[v] == 1 {
            queue.push(v as u32);
        }
    }
    let (mut head, mut level) = (0, 1);
    while head < queue.len() {
        // Tasks at `level` reach processors at `level + 1`. A task's own
        // processor is already labeled (the task was reached from it).
        let procs_start = queue.len();
        let mut spare = false;
        for k in head..procs_start {
            for &u in g.neighbors(queue[k]) {
                if rdist[u as usize] == UNREACHED {
                    let capacity = capacity_of(u);
                    if capacity > 0 {
                        rdist[u as usize] = level + 1;
                        queue.push(u);
                        spare |= load[u as usize] < capacity;
                    }
                }
            }
        }
        if spare {
            return Some(level + 2);
        }
        // Processors at `level + 1` reach the tasks they serve.
        let tasks_start = queue.len();
        for k in procs_start..tasks_start {
            let u = queue[k];
            for &v in g.rneighbors(u) {
                if proc_of[v as usize] == u && dist[v as usize] == UNREACHED {
                    dist[v as usize] = level + 2;
                    queue.push(v);
                }
            }
        }
        head = tasks_start;
        level += 2;
    }
    None
}

/// The DFS of a Dinic phase: a blocking flow on the level graph, one unit
/// per augmenting path. Arcs are tried in the materialized network's
/// order — the source's by view position, a task's by neighbour order, a
/// processor's by ascending task and then its sink arc — from per-vertex
/// current-arc cursors that advance only past an arc that is saturated or
/// leads to a dead end, so the paths are exactly those of Dinic on that
/// network. A processor one level below the sink goes straight to its
/// sink arc: its tasks sit at the sink's level, all dead ends.
fn blocking_flow(
    g: &Bipartite,
    tasks: Tasks<'_>,
    capacity_of: &impl Fn(u32) -> u32,
    sink_level: u32,
    ws: &mut SearchWorkspace,
) {
    /// Where the DFS goes from the task on top of its path.
    enum Step {
        /// Through the task's cursor processor to the sink.
        Augment,
        /// Through the task's cursor processor to this task it serves.
        Descend(u32),
        /// Back: the task is a dead end.
        Retreat,
    }
    let SearchWorkspace {
        dist,
        rdist,
        cursor,
        pred: proc_cursor,
        queue: path,
        proc_of,
        load,
        augmentations,
        ..
    } = ws;
    for i in 0..tasks.len() {
        let root = tasks.get(i);
        if proc_of[root as usize] != NONE {
            continue; // its source arc is saturated
        }
        path.clear();
        path.push(root);
        while let Some(&v) = path.last() {
            let level = dist[v as usize];
            let neighbors = g.neighbors(v);
            let mut c = cursor[v as usize] as usize;
            let mut step = Step::Retreat;
            while c < neighbors.len() {
                let u = neighbors[c];
                if rdist[u as usize] == level + 1 {
                    if level + 2 == sink_level {
                        if load[u as usize] < capacity_of(u) {
                            step = Step::Augment;
                            break;
                        }
                    } else {
                        let served = g.rneighbors(u);
                        let mut r = proc_cursor[u as usize] as usize;
                        while let Some(&w) = served.get(r) {
                            if proc_of[w as usize] == u && dist[w as usize] == level + 2 {
                                step = Step::Descend(w);
                                break;
                            }
                            r += 1;
                        }
                        proc_cursor[u as usize] = r as u32;
                        if matches!(step, Step::Descend(_)) {
                            break;
                        }
                    }
                }
                c += 1;
            }
            cursor[v as usize] = c as u32;
            match step {
                Step::Augment => {
                    // Every task on the path moves to its cursor processor;
                    // the last processor gains a task.
                    for &w in path.iter() {
                        proc_of[w as usize] = g.neighbors(w)[cursor[w as usize] as usize];
                    }
                    load[neighbors[c] as usize] += 1;
                    *augmentations += 1;
                    break;
                }
                Step::Descend(w) => path.push(w),
                Step::Retreat => {
                    path.pop();
                    if let Some(&parent) = path.last() {
                        // Past the arc into `v` on the parent's processor.
                        let u = g.neighbors(parent)[cursor[parent as usize] as usize];
                        proc_cursor[u as usize] += 1;
                    }
                }
            }
        }
    }
}

/// Complete assignment minimizing the *balanced* convex cost
/// `Σ_u l(u)·(l(u)+1)/2` (the unit flow-time), via one min-cost max-flow
/// with convex unit-arc bundles: processor `u` offers `min(deg(u), n)`
/// sink arcs with marginals `1, 2, 3, …`, so the `k`-th task on a
/// processor costs `k`. A balanced (majorization-minimal) assignment is
/// simultaneously optimal for every symmetric convex objective *and* the
/// makespan (Harvey et al.), which is what makes this the one-shot exact
/// backend for unit instances.
///
/// Tasks that cannot be assigned (isolated vertices) stay [`NONE`]; the
/// routed flow is maximum, so the assignment is complete whenever the
/// instance is coverable.
pub fn balanced_assignment_in(g: &Bipartite, ws: &mut SearchWorkspace) -> Assignment {
    let n1 = g.n_left();
    min_cost_flow_assignment(g, ws, |_| 0, |u| SinkShape::Convex(g.deg_right(u).min(n1)))
}

/// Complete assignment minimizing the total *weighted* load
/// `Σ_t w(t, proc(t))` — the exact optimum of
/// `Objective::WeightedLoad` on weighted instances — via one min-cost
/// max-flow with linear edge costs and uncapacitated sinks.
pub fn min_weight_assignment_in(g: &Bipartite, ws: &mut SearchWorkspace) -> Assignment {
    let n1 = g.n_left();
    min_cost_flow_assignment(g, ws, |e| g.weight(e) as i128, |_| SinkShape::Free(n1 as u64))
}

/// Sink-arc shape for [`min_cost_flow_assignment`].
enum SinkShape {
    /// `k` unit arcs with marginals `1, 2, …, k`.
    Convex(u32),
    /// One free arc of the given capacity.
    Free(u64),
}

/// Shared min-cost formulation: unit source and edge arcs (edge cost from
/// `edge_cost` by edge id), sink arcs shaped per processor by `sink_of`.
fn min_cost_flow_assignment(
    g: &Bipartite,
    ws: &mut SearchWorkspace,
    edge_cost: impl Fn(u32) -> i128,
    sink_of: impl Fn(u32) -> SinkShape,
) -> Assignment {
    let n1 = g.n_left();
    let n2 = g.n_right();
    let source = 0u32;
    let task_base = 1u32;
    let proc_base = 1 + n1;
    let sink = 1 + n1 + n2;
    let (net, edge_arcs) = ws.flow_arena(sink as usize + 1);

    for v in 0..n1 {
        net.add_arc(source, task_base + v, 1);
    }
    for v in 0..n1 {
        for e in g.edge_range(v) {
            let u = g.edge_right(e);
            edge_arcs.push(net.add_arc_with_cost(task_base + v, proc_base + u, 1, edge_cost(e)));
        }
    }
    for u in 0..n2 {
        match sink_of(u) {
            SinkShape::Convex(units) => {
                for k in 1..=units as i128 {
                    net.add_arc_with_cost(proc_base + u, sink, 1, k);
                }
            }
            SinkShape::Free(cap) => {
                net.add_arc(proc_base + u, sink, cap);
            }
        }
    }
    net.min_cost_max_flow(source, sink);

    let mut task_to_proc = vec![NONE; n1 as usize];
    let mut loads = vec![0u32; n2 as usize];
    let mut k = 0usize;
    for v in 0..n1 {
        for &u in g.neighbors(v) {
            if net.flow(edge_arcs[k]) > 0 {
                task_to_proc[v as usize] = u;
                loads[u as usize] += 1;
            }
            k += 1;
        }
    }
    Assignment { task_to_proc, loads }
}

/// True when all tasks fit under the uniform `capacity` (i.e. `G_D` with
/// `D = capacity` admits a matching covering `V1`).
pub fn feasible(g: &Bipartite, capacity: u32) -> bool {
    max_assignment(g, capacity).is_complete()
}

/// [`feasible`] on a reusable workspace arena.
pub fn feasible_in(g: &Bipartite, capacity: u32, ws: &mut SearchWorkspace) -> bool {
    max_assignment_in(g, capacity, ws).is_complete()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_one_is_plain_matching() {
        let g = Bipartite::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0)]).unwrap();
        let a = max_assignment(&g, 1);
        a.validate(&g, 1).unwrap();
        assert!(a.is_complete());
        assert_eq!(a.max_load(), 1);
    }

    #[test]
    fn capacity_bounds_processor_load() {
        // 5 tasks all eligible on P0 only.
        let g = Bipartite::from_edges(5, 1, &[(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]).unwrap();
        let a2 = max_assignment(&g, 2);
        a2.validate(&g, 2).unwrap();
        assert_eq!(a2.cardinality(), 2);
        let a5 = max_assignment(&g, 5);
        assert!(a5.is_complete());
        assert_eq!(a5.max_load(), 5);
    }

    #[test]
    fn feasibility_threshold() {
        // Fig. 3-like: optimal makespan is 1, so capacity 1 is feasible.
        let g = Bipartite::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0)]).unwrap();
        assert!(feasible(&g, 1));
        // Two tasks, one processor: needs capacity 2.
        let g = Bipartite::from_edges(2, 1, &[(0, 0), (1, 0)]).unwrap();
        assert!(!feasible(&g, 1));
        assert!(feasible(&g, 2));
    }

    #[test]
    fn per_processor_capacities() {
        // Tasks 0,1,2 all eligible on both processors; cap(P0)=1, cap(P1)=2.
        let g =
            Bipartite::from_edges(3, 2, &[(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]).unwrap();
        let a = max_assignment_with_capacities(&g, &[1, 2]);
        assert!(a.is_complete());
        assert!(a.loads[0] <= 1);
        assert!(a.loads[1] <= 2);
    }

    #[test]
    fn zero_capacity_processor_unused() {
        let g = Bipartite::from_edges(2, 2, &[(0, 0), (1, 0), (1, 1)]).unwrap();
        let a = max_assignment_with_capacities(&g, &[0, 5]);
        assert_eq!(a.loads[0], 0);
        assert_eq!(a.cardinality(), 1); // only task 1 can go (to P1)
    }

    #[test]
    fn isolated_task_stays_unassigned() {
        let g = Bipartite::from_edges(3, 2, &[(0, 0), (2, 1)]).unwrap();
        let a = max_assignment(&g, 3);
        assert_eq!(a.task_to_proc[1], NONE);
        assert_eq!(a.cardinality(), 2);
    }

    /// Capacities swept up and down through one workspace on the view
    /// entry point agree with fresh-workspace solves.
    #[test]
    fn warm_probes_agree_with_cold_solves() {
        let g = Bipartite::from_edges(
            6,
            3,
            &[(0, 0), (0, 1), (1, 0), (2, 1), (2, 2), (3, 0), (3, 2), (4, 1), (5, 2), (5, 0)],
        )
        .unwrap();
        let tasks: Vec<u32> = (0..6).collect();
        let mut ws = SearchWorkspace::new();
        for cap in [1u32, 3, 2, 1, 4, 2] {
            let warm = max_assignment_view_in(&g, &tasks, |_| cap, &mut ws);
            let cold = max_assignment_in(&g, cap, &mut SearchWorkspace::new());
            assert_eq!(warm, cold.cardinality() as u64, "capacity {cap}");
            assert_eq!(ws.task_procs()[..6], cold.task_to_proc[..], "capacity {cap}");
            cold.validate(&g, cap).unwrap();
        }
    }

    /// A probe on a smaller view after a full one assigns only the view's
    /// tasks, to the view's processors.
    #[test]
    fn warm_probe_rebuilds_on_epoch_change() {
        let g = Bipartite::from_edges(4, 2, &[(0, 0), (1, 0), (2, 1), (3, 1), (3, 0)]).unwrap();
        let mut ws = SearchWorkspace::new();
        let full = max_assignment_view_in(&g, &[0, 1, 2, 3], |_| 2, &mut ws);
        assert_eq!(full, 4);
        // The view {tasks 2, 3} × {proc 1}.
        let sub = max_assignment_view_in(&g, &[2, 3], |u| u32::from(u == 1), &mut ws);
        assert_eq!(sub, 1, "proc 1 alone serves one of the two tasks at cap 1");
        let out = ws.task_procs();
        assert_eq!(out[..2], [NONE, NONE], "tasks outside the view stay unassigned");
        assert_eq!(out[2..4].iter().filter(|&&p| p == 1).count(), 1);
    }

    /// A processor full at one probe serves more at a higher capacity
    /// through the same workspace.
    #[test]
    fn warm_probe_materializes_every_sink_arc() {
        let g = Bipartite::from_edges(2, 1, &[(0, 0), (1, 0)]).unwrap();
        let mut ws = SearchWorkspace::new();
        assert_eq!(max_assignment_view_in(&g, &[0, 1], |_| 1, &mut ws), 1);
        assert_eq!(max_assignment_view_in(&g, &[0, 1], |_| 2, &mut ws), 2);
    }

    /// The reference: [`FlowNetwork::max_flow`] on the materialized
    /// network of the view, arcs added in the order the engine visits
    /// them — source arcs by view position, each task's arcs to the
    /// processors of positive `take` in neighbour order (`take` is 0 for a
    /// processor outside the view), then a sink arc per processor of
    /// positive capacity. Returns the flow value and each task's
    /// processor.
    fn reference(
        g: &Bipartite,
        tasks: &[u32],
        take: &[bool],
        capacity_of: impl Fn(u32) -> u32,
    ) -> (u64, Vec<u32>) {
        let (nt, p) = (tasks.len() as u32, g.n_right());
        let (source, sink) = (0, 1 + nt + p);
        let mut net = crate::FlowNetwork::new(sink as usize + 1);
        for i in 0..nt {
            net.add_arc(source, 1 + i, 1);
        }
        let mut arcs = Vec::new();
        for (i, &v) in tasks.iter().enumerate() {
            for &u in g.neighbors(v).iter().filter(|&&u| take[u as usize]) {
                arcs.push((v, u, net.add_arc(1 + i as u32, 1 + nt + u, 1)));
            }
        }
        for u in (0..p).filter(|&u| take[u as usize] && capacity_of(u) > 0) {
            net.add_arc(1 + nt + u, sink, capacity_of(u) as u64);
        }
        let value = net.max_flow(source, sink);
        let mut procs = vec![NONE; g.n_left() as usize];
        for (v, u, arc) in arcs {
            if net.flow(arc) > 0 {
                procs[v as usize] = u;
            }
        }
        (value, procs)
    }

    /// The engine routes what Dinic routes on the materialized network:
    /// random small instances, whole graphs and random sub-views, uniform
    /// and per-processor capacities (zeros included), all through one
    /// workspace so stale state from larger instances is exercised.
    #[test]
    fn engine_matches_materialized_dinic() {
        let mut state = 0x0d1c_5eed_u64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let mut ws = SearchWorkspace::new();
        for case in 0..3000 {
            let n = 1 + next(40) as u32;
            let p = 1 + next(8) as u32;
            let lists: Vec<Vec<u32>> = (0..n)
                .map(|_| {
                    let deg = 1 + next(4.min(p as u64)) as usize;
                    let mut procs: Vec<u32> = Vec::new();
                    while procs.len() < deg {
                        let u = next(p as u64) as u32;
                        if !procs.contains(&u) {
                            procs.push(u);
                        }
                    }
                    procs.sort_unstable();
                    procs
                })
                .collect();
            let g = Bipartite::from_adjacency(n, p, &lists).unwrap();
            let all: Vec<u32> = (0..n).collect();
            let view: Vec<u32> = (0..n).filter(|_| next(4) != 0).collect();
            let every = vec![true; p as usize];
            let some: Vec<bool> = (0..p).map(|_| next(4) != 0).collect();
            let cap = 1 + next(4) as u32;
            let caps: Vec<u32> = (0..p).map(|_| next(4) as u32).collect();

            let a = max_assignment_in(&g, cap, &mut ws);
            assert_eq!(
                (a.cardinality() as u64, a.task_to_proc.clone()),
                reference(&g, &all, &every, |_| cap),
                "case {case}: uniform capacity {cap}"
            );
            a.validate(&g, cap).unwrap();
            let a = max_assignment_with_capacities_in(&g, &caps, &mut ws);
            assert_eq!(
                (a.cardinality() as u64, a.task_to_proc),
                reference(&g, &all, &every, |u| caps[u as usize]),
                "case {case}: capacities {caps:?}"
            );
            for capacity_of in [&(|_| cap) as &dyn Fn(u32) -> u32, &|u| caps[u as usize]] {
                let value = max_assignment_view_in(
                    &g,
                    &view,
                    |u| if some[u as usize] { capacity_of(u) } else { 0 },
                    &mut ws,
                );
                assert_eq!(
                    (value, ws.task_procs()[..n as usize].to_vec()),
                    reference(&g, &view, &some, capacity_of),
                    "case {case}: view {view:?} on {some:?}"
                );
            }
        }
    }

    #[test]
    fn balanced_assignment_is_majorization_minimal() {
        // 4 tasks, 2 procs, everything eligible: the balanced optimum is
        // 2/2, never 3/1.
        let g = Bipartite::from_edges(
            4,
            2,
            &[(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1)],
        )
        .unwrap();
        let a = balanced_assignment_in(&g, &mut SearchWorkspace::new());
        assert!(a.is_complete());
        assert_eq!(a.loads, vec![2, 2]);
    }

    #[test]
    fn min_weight_assignment_takes_cheap_edges() {
        // Both tasks prefer P0 by weight; sinks are uncapacitated so both
        // land there.
        let g = Bipartite::from_weighted_edges(
            2,
            2,
            &[(0, 0), (0, 1), (1, 0), (1, 1)],
            &[1, 10, 2, 10],
        )
        .unwrap();
        let a = min_weight_assignment_in(&g, &mut SearchWorkspace::new());
        assert!(a.is_complete());
        assert_eq!(a.task_to_proc, vec![0, 0]);
    }

    #[test]
    fn validate_catches_stale_loads() {
        let g = Bipartite::from_edges(1, 1, &[(0, 0)]).unwrap();
        let mut a = max_assignment(&g, 1);
        a.loads[0] = 9;
        assert!(a.validate(&g, 1).is_err());
    }
}
