//! Exact algorithms.
//!
//! * [`mod@unit`] — the paper's exact algorithm for `SINGLEPROC-UNIT` (§IV-A):
//!   repeated maximum matchings in the deadline graph `G_D`, with the
//!   incremental deadline search of the paper and the bisection variant it
//!   mentions; the deadline subproblem is solved either by capacitated
//!   max-flow or by literal `G_D` replication.
//! * [`harvey`] — an independent second exact algorithm via cost-reducing
//!   paths (Harvey, Ladner, Lovász, Tamir 2006), used to cross-validate.
//! * [`mod@hk_semi`] — Katrenič–Semanišin's generalized Hopcroft–Karp:
//!   phases of multi-source level graphs augmenting along all shortest
//!   load-reducing paths at once (`O(√n · m)`-flavored).
//! * [`mod@cost_scaling`] — Fakcharoenphol–Laekhanukit–Nanongkai-style
//!   divide-and-conquer on the load range, pinning the optimal profile
//!   with capacitated feasibility probes, each a Dinic run on the
//!   bipartite graph itself.
//! * [`mod@mcf`] — a single min-cost max-flow over convex unit-arc
//!   bundles: balanced (hence simultaneously optimal) assignments on unit
//!   instances, and the first fast exact kind for weighted total load.
//! * [`brute_force`] — branch-and-bound exhaustive search for small
//!   (weighted, hypergraph) instances; the ground truth for every
//!   heuristic test and for the Theorem 1 reduction.

pub mod brute_force;
pub mod cost_scaling;
pub mod harvey;
pub mod hk_semi;
pub mod mcf;
pub mod unit;

pub use brute_force::{
    brute_force_multiproc, brute_force_multiproc_objective, brute_force_singleproc,
    brute_force_singleproc_objective,
};
pub use cost_scaling::{
    cost_scaling, cost_scaling_cold_in, cost_scaling_in, cost_scaling_seeded_in,
};
pub use harvey::harvey_exact;
pub use hk_semi::{hk_semi, hk_semi_in};
pub use mcf::{mcf, mcf_in, mcf_objective_in};
pub use unit::{
    exact_unit, exact_unit_in, exact_unit_replicated, exact_unit_replicated_in, ExactResult,
    SearchStrategy,
};
