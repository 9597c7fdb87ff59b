//! # semimatch-core
//!
//! Semi-matching algorithms for scheduling parallel tasks under resource
//! constraints — the primary contribution of Benoit, Langguth, Uçar
//! (IPDPSW 2013), re-implemented in Rust.
//!
//! ## Problems
//!
//! * `SINGLEPROC` — sequential tasks restricted to processor subsets: a
//!   semi-matching in a weighted bipartite graph ([`problem::SemiMatching`]).
//! * `MULTIPROC` — parallel tasks choosing among processor-set
//!   configurations: a semi-matching in a bipartite hypergraph
//!   ([`problem::HyperMatching`]). NP-complete even with unit weights
//!   (Theorem 1; executable in [`reduction`]).
//!
//! ## Algorithms
//!
//! `SINGLEPROC` is `MULTIPROC` with one-processor configurations, so each
//! algorithm the two classes share is written once, generic over
//! [`semimatch_graph::Configs`]; the per-class functions below are
//! one-line forwarders to it.
//!
//! * exact (`SINGLEPROC-UNIT`): [`exact::exact_unit`] (matching-based,
//!   §IV-A) and [`exact::harvey_exact`] (cost-reducing paths) —
//!   independent and cross-checked;
//! * exact (anything, small): the branch-and-bound searches behind
//!   [`exact::brute_force_multiproc`] and [`exact::brute_force_singleproc`];
//! * greedy heuristics (§IV-B, §IV-D): one current-load loop serves
//!   [`greedy::basic::basic_greedy`], [`greedy::sorted::sorted_greedy`],
//!   [`greedy::double_sorted::double_sorted`], [`hyper::sgh`] and the
//!   [`online`] dispatcher; one expected-load loop serves
//!   [`greedy::expected::expected_greedy`] and [`hyper::egh`]; the vector
//!   heuristics [`hyper::vgh`] and [`hyper::evg`] are hypergraph-only;
//! * the lower bound of §IV-C for either class
//!   ([`lower_bound::lower_bound_multiproc`],
//!   [`lower_bound::lower_bound_singleproc`]), extended to flow time and
//!   the other sum objectives ([`lower_bound::lower_bound_objective`]);
//! * beyond the paper: first-class cost models ([`objective`]: makespan,
//!   flow time, `L_p` norms, total load — the axis every solver entry
//!   point accepts), local-search [`refine`] and iterated local search
//!   with objective-aware move acceptance, one-pass streaming greedy
//!   (Konrad–Rosén; [`SolverKind::StreamingGreedy`] and
//!   [`SolverKind::StreamingTwoPass`]), the Graham LPT baseline
//!   ([`greedy::lpt`]), load-profile [`analysis`], and solution
//!   serialization ([`solution_io`]).
//!
//! ```
//! use semimatch_graph::Hypergraph;
//! use semimatch_core::hyper::evg::expected_vector_greedy_hyp;
//! use semimatch_core::lower_bound::lower_bound_multiproc;
//!
//! // Fig. 2 of the paper.
//! let h = Hypergraph::from_configs(
//!     3,
//!     &[vec![vec![0], vec![1, 2]], vec![vec![0]], vec![vec![2]], vec![vec![2]]],
//! )
//! .unwrap();
//! let hm = expected_vector_greedy_hyp(&h).unwrap();
//! let lb = lower_bound_multiproc(&h).unwrap();
//! assert!(hm.makespan(&h) >= lb);
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod error;
pub mod exact;
pub mod greedy;
pub mod hyper;
pub mod lower_bound;
pub mod objective;
pub mod online;
pub mod problem;
pub mod quality;
pub mod reduction;
pub mod refine;
pub mod solution_io;
pub mod solver;
mod streaming;

pub use error::{CoreError, Result};
pub use objective::{Objective, Score};
pub use problem::{HyperMatching, SemiMatching};
pub use solver::{
    solve, solve_many, solve_with, KindSolver, Problem, Solution, Solver, SolverClass, SolverKind,
};

#[cfg(test)]
mod tests {
    use super::*;
    use semimatch_graph::Bipartite;

    #[test]
    fn all_bipartite_heuristics_are_valid_and_bounded() {
        let g = Bipartite::from_edges(
            6,
            3,
            &[(0, 0), (0, 1), (1, 0), (2, 1), (2, 2), (3, 2), (4, 0), (4, 2), (5, 1)],
        )
        .unwrap();
        let lb = lower_bound::lower_bound_singleproc(&g).unwrap();
        let opt = exact::exact_unit(&g, exact::SearchStrategy::Bisection).unwrap().makespan;
        let problem = Problem::SingleProc(&g);
        for kind in SolverKind::BI_HEURISTICS {
            let sol = kind.solve(problem).unwrap();
            sol.validate(&problem).unwrap();
            let m = sol.makespan(&problem).unwrap();
            assert!(lb <= opt && opt <= m, "{}: lb {lb} opt {opt} makespan {m}", kind.label());
        }
    }

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<_> = SolverKind::BI_HEURISTICS.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 4);
    }
}
