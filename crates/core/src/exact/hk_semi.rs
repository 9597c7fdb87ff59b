//! Generalized Hopcroft–Karp exact backend for `SINGLEPROC-UNIT`.
//!
//! Katrenič–Semanišin's phase algorithm (*A generalization of
//! Hopcroft–Karp algorithm for semi-matchings*): per phase, one
//! multi-source BFS layers the processors from the current bottleneck set
//! and a stack DFS augments along **all** shortest load-reducing paths at
//! once — the `O(√n · m)`-flavored replacement for the one-path-at-a-time
//! descent behind [`crate::exact::unit`]'s repeated matching oracles. The
//! engine itself lives in [`semimatch_matching::semi`] (it is a phase
//! search over the shared [`SearchWorkspace`] substrate, exactly like the
//! matching engines); this module adapts it to the registry's problem
//! types and preconditions. The engine is sequential and does not read
//! the pool size, so every pool runs the same phases. On instances with
//! `p² ≤ m` (processors squared against edges) its phases read
//! processor-pair task counts in place of rescanning task lists; the
//! counts change no phase, flip or assignment.
//!
//! Under sum objectives the registry appends the Harvey cost-reducing
//! descent to the bottleneck-optimal result, the same composition the
//! other exact unit kinds use.

use semimatch_graph::Bipartite;
use semimatch_matching::semi::optimal_semi_assignment_in;
use semimatch_matching::SearchWorkspace;

use crate::error::Result;
use crate::exact::unit::{check_instance, ExactResult};
use crate::problem::SemiMatching;

/// Exact optimum via generalized Hopcroft–Karp phases, throwaway scratch.
///
/// Errors with [`crate::error::CoreError::RequiresUnitWeights`] on
/// weighted instances and [`crate::error::CoreError::UncoveredTask`] when
/// some task has no processor.
pub fn hk_semi(g: &Bipartite) -> Result<ExactResult> {
    hk_semi_in(g, &mut SearchWorkspace::new())
}

/// [`hk_semi`] drawing all phase scratch (level arrays, intrusive task
/// lists, queues, stacks) from `ws` — allocation-free on the warm path
/// except for the returned solution.
///
/// `oracle_calls` reports the number of BFS/DFS phases (the engine has no
/// matching oracle to count).
pub fn hk_semi_in(g: &Bipartite, ws: &mut SearchWorkspace) -> Result<ExactResult> {
    check_instance(g)?;
    let a = optimal_semi_assignment_in(g, ws);
    let solution = SemiMatching::from_procs(g, &a.task_to_proc)?;
    Ok(ExactResult { makespan: a.max_load() as u64, solution, oracle_calls: a.phases })
}

#[cfg(test)]
#[allow(clippy::type_complexity)] // edge-list test fixtures
mod tests {
    use super::*;
    use crate::error::CoreError;
    use crate::exact::unit::{exact_unit, SearchStrategy};

    #[test]
    fn agrees_with_the_matching_based_exact() {
        let cases: &[(u32, u32, &[(u32, u32)])] = &[
            (2, 2, &[(0, 0), (0, 1), (1, 0)]),
            (5, 1, &[(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]),
            (4, 2, &[(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0)]),
            (6, 3, &[(0, 0), (1, 0), (2, 1), (3, 1), (4, 2), (5, 2), (0, 1), (2, 2)]),
        ];
        for &(n1, n2, edges) in cases {
            let g = Bipartite::from_edges(n1, n2, edges).unwrap();
            let r = hk_semi(&g).unwrap();
            r.solution.validate(&g).unwrap();
            assert_eq!(r.solution.makespan(&g), r.makespan);
            assert_eq!(r.makespan, exact_unit(&g, SearchStrategy::Bisection).unwrap().makespan);
        }
    }

    #[test]
    fn preconditions_are_enforced() {
        let w = Bipartite::from_weighted_edges(1, 1, &[(0, 0)], &[2]).unwrap();
        assert_eq!(hk_semi(&w).unwrap_err(), CoreError::RequiresUnitWeights);
        let u = Bipartite::from_edges(2, 1, &[(0, 0)]).unwrap();
        assert_eq!(hk_semi(&u).unwrap_err(), CoreError::UncoveredTask(1));
    }

    #[test]
    fn empty_instance() {
        let g = Bipartite::from_edges(0, 2, &[]).unwrap();
        let r = hk_semi(&g).unwrap();
        assert_eq!(r.makespan, 0);
        assert_eq!(r.oracle_calls, 0);
    }
}
