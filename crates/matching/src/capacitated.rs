//! Capacitated bipartite assignment: matchings in the deadline graph `G_D`.
//!
//! The paper's exact algorithm for `SINGLEPROC-UNIT` (§IV-A) asks for a
//! maximum matching in `G_D`, the graph with `D` copies of every processor.
//! A matching in `G_D` covering all tasks is exactly an assignment of each
//! task to an eligible processor in which no processor receives more than
//! `D` tasks. We solve this directly as a max-flow problem with processor
//! capacities (see [`crate::flow`]), avoiding the `D`-fold blowup;
//! [`crate::replicate`] keeps the explicit construction as a cross-check.

use semimatch_graph::Bipartite;

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
/// processor serves at most `capacity` tasks. Runs Dinic's algorithm on the
/// unit-task flow network, `O(|E|·√|V|)`-ish in practice. No per-processor
/// capacity array is materialized for the uniform case.
pub fn max_assignment(g: &Bipartite, capacity: u32) -> Assignment {
    max_assignment_in(g, capacity, &mut SearchWorkspace::new())
}

/// [`max_assignment`] building the flow network inside a reusable
/// workspace arena. Warm repeated solves (the deadline-search inner loop)
/// allocate only the returned [`Assignment`].
pub fn max_assignment_in(g: &Bipartite, capacity: u32, ws: &mut SearchWorkspace) -> Assignment {
    solve_flow(g, |_| capacity as u64, ws)
}

/// Maximum-cardinality assignment with per-processor capacities.
pub fn max_assignment_with_capacities(g: &Bipartite, capacities: &[u32]) -> Assignment {
    max_assignment_with_capacities_in(g, capacities, &mut SearchWorkspace::new())
}

/// [`max_assignment_with_capacities`] on a reusable workspace arena.
pub fn max_assignment_with_capacities_in(
    g: &Bipartite,
    capacities: &[u32],
    ws: &mut SearchWorkspace,
) -> Assignment {
    assert_eq!(capacities.len(), g.n_right() as usize, "one capacity per processor");
    solve_flow(g, |u| capacities[u as usize] as u64, ws)
}

/// Shared flow formulation over any capacity provider (uniform capacities
/// need no backing slice). Nodes: source 0, tasks `1..=n1`, processors
/// `n1+1..=n1+n2`, sink `n1+n2+1`.
fn solve_flow(
    g: &Bipartite,
    capacity_of: impl Fn(u32) -> u64,
    ws: &mut SearchWorkspace,
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
    // Record the arc id of every task→processor arc for extraction.
    for v in 0..n1 {
        for &u in g.neighbors(v) {
            edge_arcs.push(net.add_arc(task_base + v, proc_base + u, 1));
        }
    }
    for u in 0..n2 {
        let c = capacity_of(u);
        if c > 0 {
            net.add_arc(proc_base + u, sink, c);
        }
    }
    net.max_flow(source, sink);

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

/// Warm capacity-probe session state: which subinstance build the resident
/// flow network reflects, the capacity its sink arcs currently carry, the
/// flow value it holds, and an optional checkpoint to roll back to.
///
/// The FLN-style exact search probes a sequence of uniform capacities
/// against the same (sub)instance. A cold probe rebuilds and re-solves the
/// whole network (`O(m·√n)` each); a warm session keeps one resident
/// network **per monotone probe direction** — the *raising* direction. A
/// probe above the session's capacity widens the sink arcs in place and
/// augments only the delta along short residual paths; a probe below it
/// would have to cancel a near-maximum flow and re-augment through long
/// residual paths (many full-graph BFS phases — measurably worse than the
/// rebuild), so the session never lowers: callers
/// [checkpoint](probe_checkpoint) before a speculative raise and
/// [roll back](probe_rollback) to keep the session anchored at the highest
/// *infeasible* capacity, and a probe that still lands below the anchor
/// rebuilds.
#[derive(Clone, Debug, Default)]
pub struct ProbeState {
    /// Subinstance epoch the resident network was built for; `None` until
    /// the first build.
    epoch: Option<u64>,
    /// Flow value (assigned active tasks) currently routed.
    value: u64,
    /// Uniform capacity the resident network's sink arcs currently carry.
    cap: u32,
    /// Checkpointed residual state ([`probe_checkpoint`]).
    saved: Vec<u64>,
    /// Flow value at the checkpoint.
    saved_value: u64,
    /// Sink capacity at the checkpoint.
    saved_cap: u32,
}

impl ProbeState {
    /// Whether the resident network reflects subinstance build `epoch`
    /// (the next [`warm_probe_in`] at a capacity at or above the session's
    /// will edit it in place rather than rebuild).
    pub fn is_warm(&self, epoch: u64) -> bool {
        self.epoch == Some(epoch)
    }
}

/// One uniform-capacity feasibility probe over the active subinstance
/// `(tasks, procs)`, warm-started from whatever the resident network in
/// `ws` holds. Returns the maximum number of active tasks assignable with
/// every active processor serving at most `capacity` tasks.
///
/// * `tasks` / `procs` — original vertex ids of the active subinstance.
/// * `proc_pos[u]` — position of original processor `u` in `procs`, or
///   [`NONE`] when `u` is inactive (edges to inactive processors are
///   excluded from the network).
/// * `epoch` — identity of the subinstance build. When it matches the one
///   recorded in `st` **and** `capacity` is at or above the session's, the
///   network is kept: the sink arcs are raised in place and only the delta
///   is augmented. Otherwise (new build, or a probe below the session —
///   the expensive direction, see [`ProbeState`]) the arena is rebuilt
///   from scratch.
///
/// Processor→sink arcs are materialized for *every* active processor (the
/// cold path elides zero-capacity arcs; a warm session cannot, since a
/// later probe may raise them). Call [`extract_probe_in`] afterwards to
/// read the assignment out of the resident network.
#[allow(clippy::too_many_arguments)]
pub fn warm_probe_in(
    g: &Bipartite,
    tasks: &[u32],
    procs: &[u32],
    proc_pos: &[u32],
    epoch: u64,
    capacity: u32,
    st: &mut ProbeState,
    ws: &mut SearchWorkspace,
) -> u64 {
    let nt = tasks.len() as u32;
    let np = procs.len() as u32;
    let source = 0u32;
    let task_base = 1u32;
    let proc_base = 1 + nt;
    let sink = 1 + nt + np;
    if st.epoch != Some(epoch) || capacity < st.cap {
        // Cold build of the subinstance view (also the escape hatch for a
        // probe below the session capacity: cancelling a routed flow
        // re-augments through long residual paths and costs more than the
        // rebuild).
        let (net, edge_arcs, proc_arcs) = ws.probe_arena(sink as usize + 1);
        for i in 0..nt {
            net.add_arc(source, task_base + i, 1);
        }
        for (i, &v) in tasks.iter().enumerate() {
            for &u in g.neighbors(v) {
                if proc_pos[u as usize] == NONE {
                    continue;
                }
                edge_arcs.push(net.add_arc(
                    task_base + i as u32,
                    proc_base + proc_pos[u as usize],
                    1,
                ));
            }
        }
        for j in 0..np {
            proc_arcs.push(net.add_arc(proc_base + j, sink, capacity as u64));
        }
        st.epoch = Some(epoch);
        st.cap = capacity;
        st.value = net.max_flow(source, sink);
        return st.value;
    }
    // Warm path: raise the sink capacities in place and augment the delta.
    // From an anchor that was *infeasible* the new headroom sits one hop
    // from the sink, so the augmenting paths are short.
    for j in 0..np as usize {
        ws.flow.raise_capacity(ws.proc_arcs[j], capacity as u64);
    }
    st.cap = capacity;
    st.value += ws.flow.max_flow(source, sink);
    st.value
}

/// Checkpoints the resident probe session (`O(arcs)` copy of the residual
/// state): call before a speculative [`warm_probe_in`] raise, and
/// [`probe_rollback`] to return to the anchor if the probe came back
/// feasible. See [`ProbeState`] for why the session only moves up.
pub fn probe_checkpoint(st: &mut ProbeState, ws: &SearchWorkspace) {
    ws.flow.save_flow(&mut st.saved);
    st.saved_value = st.value;
    st.saved_cap = st.cap;
}

/// Rolls the resident probe session back to the last
/// [`probe_checkpoint`]. The subinstance build must be unchanged since the
/// checkpoint (same epoch — the arc set is identical).
pub fn probe_rollback(st: &mut ProbeState, ws: &mut SearchWorkspace) {
    ws.flow.restore_flow(&st.saved);
    st.value = st.saved_value;
    st.cap = st.saved_cap;
}

/// Reads the assignment of the last [`warm_probe_in`] out of the resident
/// network, writing original processor ids (or [`NONE`]) into
/// `out[original task id]` for every active task. Inactive tasks are left
/// untouched.
pub fn extract_probe_in(
    g: &Bipartite,
    tasks: &[u32],
    proc_pos: &[u32],
    out: &mut [u32],
    ws: &SearchWorkspace,
) {
    let mut k = 0usize;
    for &v in tasks {
        out[v as usize] = NONE;
        for &u in g.neighbors(v) {
            if proc_pos[u as usize] == NONE {
                continue;
            }
            if ws.flow.flow(ws.edge_arcs[k]) > 0 {
                out[v as usize] = u;
            }
            k += 1;
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

    #[test]
    fn warm_probes_agree_with_cold_solves() {
        // 6 tasks over 3 procs, mixed degrees; sweep capacities up and down
        // through one warm session and cross-check every answer cold.
        let g = Bipartite::from_edges(
            6,
            3,
            &[(0, 0), (0, 1), (1, 0), (2, 1), (2, 2), (3, 0), (3, 2), (4, 1), (5, 2), (5, 0)],
        )
        .unwrap();
        let tasks: Vec<u32> = (0..6).collect();
        let procs: Vec<u32> = (0..3).collect();
        let proc_pos: Vec<u32> = (0..3).collect();
        let mut st = ProbeState::default();
        let mut ws = SearchWorkspace::new();
        let mut cold_ws = SearchWorkspace::new();
        for cap in [1u32, 3, 2, 1, 4, 2] {
            let warm = warm_probe_in(&g, &tasks, &procs, &proc_pos, 7, cap, &mut st, &mut ws);
            let cold = max_assignment_in(&g, cap, &mut cold_ws).cardinality() as u64;
            assert_eq!(warm, cold, "capacity {cap}");
            // The extracted assignment is consistent with the probe value.
            let mut out = vec![NONE; 6];
            extract_probe_in(&g, &tasks, &proc_pos, &mut out, &ws);
            assert_eq!(out.iter().filter(|&&p| p != NONE).count() as u64, warm);
            let mut loads = [0u32; 3];
            for (v, &p) in out.iter().enumerate() {
                if p != NONE {
                    assert!(g.neighbors(v as u32).contains(&p));
                    loads[p as usize] += 1;
                }
            }
            assert!(loads.iter().all(|&l| l <= cap));
        }
    }

    #[test]
    fn warm_probe_rebuilds_on_epoch_change() {
        let g = Bipartite::from_edges(4, 2, &[(0, 0), (1, 0), (2, 1), (3, 1), (3, 0)]).unwrap();
        let mut st = ProbeState::default();
        let mut ws = SearchWorkspace::new();
        let all: Vec<u32> = (0..4).collect();
        let full = warm_probe_in(&g, &all, &[0, 1], &[0, 1], 0, 2, &mut st, &mut ws);
        assert_eq!(full, 4);
        // Shrink to the subinstance {tasks 2,3} × {proc 1}: epoch bump
        // forces a rebuild over the active view only.
        let sub = warm_probe_in(&g, &[2, 3], &[1], &[NONE, 0], 1, 1, &mut st, &mut ws);
        assert_eq!(sub, 1, "proc 1 alone serves one of the two tasks at cap 1");
        let mut out = vec![NONE; 4];
        extract_probe_in(&g, &[2, 3], &[NONE, 0], &mut out, &ws);
        assert_eq!(out[..2], [NONE, NONE], "inactive tasks untouched");
        assert_eq!(out[2..].iter().filter(|&&p| p == 1).count(), 1);
    }

    #[test]
    fn warm_probe_materializes_every_sink_arc() {
        // A processor with no capacity headroom at the first probe must
        // still be raisable later — the regression the warm session guards.
        let g = Bipartite::from_edges(2, 1, &[(0, 0), (1, 0)]).unwrap();
        let mut st = ProbeState::default();
        let mut ws = SearchWorkspace::new();
        assert_eq!(warm_probe_in(&g, &[0, 1], &[0], &[0], 0, 1, &mut st, &mut ws), 1);
        assert_eq!(warm_probe_in(&g, &[0, 1], &[0], &[0], 0, 2, &mut st, &mut ws), 2);
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
