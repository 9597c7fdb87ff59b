//! Registry-wide property tests: on random instances, every registered
//! [`SolverKind`] returns a solution that validates against its problem,
//! exact kinds agree with each other, and the warm (workspace-reusing)
//! [`Solver`] path is bit-for-bit equivalent to the stateless facade.

use proptest::prelude::*;
use semimatch::graph::{Bipartite, Hypergraph};
use semimatch::solver::{solve, solve_many, Objective, Problem, Solver, SolverKind};

/// Random unit-weight bipartite instances with every task covered (the
/// precondition of the exact `SINGLEPROC-UNIT` kinds), small enough for
/// brute force.
fn covered_bipartite() -> impl Strategy<Value = Bipartite> {
    (1u32..9, 1u32..6).prop_flat_map(|(n, p)| {
        proptest::collection::vec(
            proptest::collection::btree_set(0..p, 1..=(p as usize).min(3)),
            n as usize,
        )
        .prop_map(move |lists| {
            let lists: Vec<Vec<u32>> = lists.into_iter().map(|s| s.into_iter().collect()).collect();
            Bipartite::from_adjacency(n, p, &lists).unwrap()
        })
    })
}

/// Random unit-weight hypergraph instances: every task gets 1–3 distinct
/// configurations, each a nonempty processor set.
fn hypergraph() -> impl Strategy<Value = Hypergraph> {
    (1u32..8, 1u32..5).prop_flat_map(|(n, p)| {
        proptest::collection::vec(
            proptest::collection::btree_set(
                proptest::collection::btree_set(0..p, 1..=(p as usize).min(2)),
                1..4,
            ),
            n as usize,
        )
        .prop_map(move |tasks| {
            let configs: Vec<Vec<Vec<u32>>> = tasks
                .into_iter()
                .map(|cfgs| cfgs.into_iter().map(|s| s.into_iter().collect()).collect())
                .collect();
            Hypergraph::from_configs(p, &configs).unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_singleproc_kind_validates_and_exact_kinds_agree(g in covered_bipartite()) {
        let problem = Problem::SingleProc(&g);
        let mut exact_makespan = None;
        for kind in SolverKind::SINGLEPROC {
            let sol = solve(problem, kind)
                .unwrap_or_else(|e| panic!("{kind} failed: {e}"));
            sol.validate(&problem).unwrap_or_else(|e| panic!("{kind} invalid: {e}"));
            if kind.is_exact() {
                let m = sol.makespan(&problem).unwrap();
                match exact_makespan {
                    None => exact_makespan = Some(m),
                    Some(opt) => prop_assert_eq!(m, opt, "{} disagreed with the optimum", kind),
                }
            }
        }
        // Heuristics cannot beat the exact optimum.
        let opt = exact_makespan.expect("registry has exact SINGLEPROC kinds");
        for kind in SolverKind::BI_HEURISTICS {
            let m = solve(problem, kind).unwrap().makespan(&problem).unwrap();
            prop_assert!(m >= opt, "{} beat the optimum ({} < {})", kind, m, opt);
        }
    }

    #[test]
    fn every_multiproc_kind_validates(h in hypergraph()) {
        let problem = Problem::MultiProc(&h);
        let opt = solve(problem, SolverKind::BruteForce).unwrap().makespan(&problem).unwrap();
        for kind in SolverKind::MULTIPROC {
            let sol = solve(problem, kind)
                .unwrap_or_else(|e| panic!("{kind} failed: {e}"));
            sol.validate(&problem).unwrap_or_else(|e| panic!("{kind} invalid: {e}"));
            prop_assert!(sol.makespan(&problem).unwrap() >= opt, "{} beat brute force", kind);
        }
    }

    #[test]
    fn warm_solvers_and_batches_match_the_facade(g in covered_bipartite(), h in hypergraph()) {
        let problems = [Problem::SingleProc(&g), Problem::MultiProc(&h)];
        let kinds: Vec<SolverKind> = SolverKind::ALL.to_vec();
        let rows = solve_many(&problems, &kinds, Objective::Makespan);
        for (row, &problem) in rows.iter().zip(&problems) {
            for (slot, &kind) in row.iter().zip(&kinds) {
                match (slot, solve(problem, kind)) {
                    (Ok(batch), Ok(single)) => prop_assert_eq!(batch, &single, "{}", kind),
                    (Err(_), Err(_)) => {} // same class mismatch both ways
                    (got, want) => {
                        panic!("{kind}: batch {got:?} vs facade {want:?} disagree on Ok-ness")
                    }
                }
            }
        }
        // A single reused solver object across both classes of problems.
        let mut s = SolverKind::BruteForce.solver();
        for &p in &problems {
            prop_assert_eq!(s.solve(p).unwrap(), solve(p, SolverKind::BruteForce).unwrap());
        }
    }
}

/// Weighted variants of the instances above, for the two-pass streaming
/// refinement agreement (weights are where a second pass can pay off).
fn weighted_bipartite() -> impl Strategy<Value = Bipartite> {
    covered_bipartite().prop_flat_map(|g| {
        let m = g.num_edges();
        proptest::collection::vec(1u64..=9, m).prop_map(move |ws| {
            let mut g = g.clone();
            g.set_weights(ws).expect("positive weights of matching length");
            g
        })
    })
}

fn weighted_hypergraph() -> impl Strategy<Value = Hypergraph> {
    hypergraph().prop_flat_map(|h| {
        let m = h.n_hedges() as usize;
        proptest::collection::vec(1u64..=9, m).prop_map(move |ws| {
            let mut h = h.clone();
            h.set_weights(ws).expect("positive weights of matching length");
            h
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The two-pass streaming refinement agrees with one pass on
    /// validity and never scores worse, under every reported objective —
    /// the contract behind the `streaming-two-pass` kind.
    #[test]
    fn two_pass_streaming_never_scores_worse(
        g in weighted_bipartite(),
        h in weighted_hypergraph(),
    ) {
        use semimatch::core::streaming::{
            streaming_greedy_bipartite_two_pass_with, streaming_greedy_bipartite_with,
            streaming_greedy_hyper_two_pass_with, streaming_greedy_hyper_with,
        };
        for objective in Objective::REPORTED {
            let one = streaming_greedy_bipartite_with(&g, objective).unwrap();
            let two = streaming_greedy_bipartite_two_pass_with(&g, objective).unwrap();
            one.validate(&g).unwrap();
            two.validate(&g).unwrap();
            prop_assert!(
                two.score(&g, objective) <= one.score(&g, objective),
                "bipartite second pass worsened {objective:?}"
            );

            let one = streaming_greedy_hyper_with(&h, objective).unwrap();
            let two = streaming_greedy_hyper_two_pass_with(&h, objective).unwrap();
            one.validate(&h).unwrap();
            two.validate(&h).unwrap();
            prop_assert!(
                two.score(&h, objective) <= one.score(&h, objective),
                "hyper second pass worsened {objective:?}"
            );
        }
    }
}
