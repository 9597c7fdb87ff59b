//! # semimatch
//!
//! A production-quality Rust implementation of
//! **“Semi-matching algorithms for scheduling parallel tasks under resource
//! constraints”** (Anne Benoit, Johannes Langguth, Bora Uçar; IEEE IPDPSW
//! 2013, DOI 10.1109/IPDPSW.2013.30) — the scheduling problems, the exact
//! algorithms, the greedy heuristics, the instance generators, and the full
//! experimental harness that regenerates every table and figure of the
//! paper.
//!
//! ## The problems
//!
//! `n` independent tasks must be mapped onto `p` processors, minimizing the
//! *makespan* (maximum processor load):
//!
//! * **SINGLEPROC** — each task runs on one processor chosen from its
//!   eligible set (a semi-matching in a bipartite graph); NP-complete with
//!   general weights, polynomial with unit weights.
//! * **MULTIPROC** — each task chooses a *configuration*: a set of
//!   processors that all spend the configuration's execution time on it (a
//!   semi-matching in a bipartite hypergraph); NP-complete even with unit
//!   weights, with no (2−ε)-approximation unless P=NP (Theorem 1).
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`graph`] | CSR bipartite graphs & hypergraphs, I/O, statistics |
//! | [`matching`] | maximum-matching engines (Hopcroft–Karp, push-relabel, …), max-flow, König certificates |
//! | [`gen`] | HiLo / FewgManyg / hypergraph generators, adversarial families, X3C |
//! | [`core`] | exact algorithms, the four SINGLEPROC and four MULTIPROC heuristics, lower bounds, refinement, online dispatch, streaming greedy |
//! | [`sched`] | task/processor model, schedules, discrete-event simulator, policies |
//! | [`serve`] | streaming & dynamic serving: event traces, the incremental engine, repair policies |
//! | [`daemon`] | multi-tenant serving daemon: sharded event router, per-tenant backpressure, live optimality-gap SLOs |
//!
//! The [`solver`] module unifies every algorithm behind one
//! `solve(problem, kind)` registry with name-based lookup
//! (`SolverKind::from_str`) — the CLI, the bench harness and the scheduling
//! policies all dispatch through it. For repeated solves, the
//! `solver::Solver` trait binds a kind to a reusable `SearchWorkspace`
//! (`SolverKind::solver()`), and `solver::solve_many` batches whole
//! instance sets through warm workspaces.
//!
//! ## Quickstart
//!
//! ```
//! use semimatch::sched::model::Instance;
//! use semimatch::sched::policies::{schedule, Policy};
//!
//! let mut inst = Instance::new(3);
//! let render = inst.add_task("render");
//! inst.add_config(render, vec![0], 4);     // run alone on the CPU…
//! inst.add_config(render, vec![1, 2], 2);  // …or split across two GPUs
//! inst.add_sequential_task("encode", &[(0, 3), (1, 5)]);
//!
//! let s = schedule(&inst, Policy::Evg).unwrap();
//! assert!(s.makespan(&inst) <= 5);
//! println!("{}", s.gantt(&inst));
//! ```

pub use semimatch_analyze as analyze;
pub use semimatch_core as core;
pub use semimatch_daemon as daemon;
pub use semimatch_gen as gen;
pub use semimatch_graph as graph;
pub use semimatch_matching as matching;
pub use semimatch_obs as obs;
pub use semimatch_sched as sched;
pub use semimatch_serve as serve;

/// The work-stealing thread pool the whole stack runs on (the vendored
/// `rayon` surface) — re-exported so embedders and the CLI can pin the
/// global pool size (`rayon::ThreadPoolBuilder`) or scope work to a local
/// pool (`ThreadPool::install`) without a separate dependency.
pub use rayon;

/// The unified solver registry: every algorithm behind one
/// `solve(problem, kind)` entry point with name-based lookup, and the
/// objective axis (`solve_with`, `Objective`) for non-makespan cost
/// models.
///
/// ```
/// use semimatch::graph::Bipartite;
/// use semimatch::solver::{solve, solve_with, Objective, Problem, SolverKind};
///
/// let g = Bipartite::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0)]).unwrap();
/// let problem = Problem::SingleProc(&g);
/// let sol = solve(problem, "exact-bisection".parse().unwrap()).unwrap();
/// assert_eq!(sol.makespan(&problem).unwrap(), 1);
/// let flow = solve_with(problem, SolverKind::Harvey, Objective::FlowTime).unwrap();
/// assert_eq!(flow.score(&problem, Objective::FlowTime).unwrap().0, 2);
/// assert!(SolverKind::ALL.len() >= 10);
/// ```
pub use semimatch_core::solver;

/// Version of the reproduction, mirrored from the workspace.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_set() {
        assert!(!super::VERSION.is_empty());
    }
}
