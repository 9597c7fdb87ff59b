//! Registry-wide property tests: on random instances, every registered
//! [`SolverKind`] returns a solution that validates against its problem,
//! exact kinds agree with each other, and the warm (workspace-reusing)
//! [`Solver`] path is bit-for-bit equivalent to the stateless facade.

use proptest::prelude::*;
use semimatch::graph::{Bipartite, BipartiteBuilder, Hypergraph, HypergraphBuilder};
use semimatch::solver::{solve, solve_many, solve_with, Objective, Problem, Solver, SolverKind};

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
        let problems = [("bipartite", Problem::SingleProc(&g)), ("hyper", Problem::MultiProc(&h))];
        for (class, problem) in problems {
            for objective in Objective::REPORTED {
                let one = solve_with(problem, SolverKind::StreamingGreedy, objective).unwrap();
                let two = solve_with(problem, SolverKind::StreamingTwoPass, objective).unwrap();
                one.validate(&problem).unwrap();
                two.validate(&problem).unwrap();
                let (one, two) = (one.score(&problem, objective), two.score(&problem, objective));
                prop_assert!(
                    two.unwrap() <= one.unwrap(),
                    "{class} second pass worsened {objective:?}"
                );
            }
        }
    }
}

/// Random weighted bipartite instances of up to 9 tasks. A quarter of
/// them may leave tasks uncovered, and weights are scaled by up to 2^40
/// so the expected-load forecasts round.
fn bipartite_maybe_uncovered() -> impl Strategy<Value = Bipartite> {
    (0u32..10, 1u32..6, 0u32..41, 0usize..4).prop_flat_map(|(n, p, shift, covered)| {
        let min_degree = covered.min(1);
        proptest::collection::vec(
            proptest::collection::btree_map(0..p, 1u64..=9, min_degree..=(p as usize).min(3)),
            n as usize,
        )
        .prop_map(move |tasks| {
            let mut b = BipartiteBuilder::new(n, p);
            for (t, edges) in tasks.into_iter().enumerate() {
                for (u, w) in edges {
                    b.weighted_edge(t as u32, u, w << shift);
                }
            }
            b.build().expect("distinct edges, positive weights")
        })
    })
}

/// `g` as a `MULTIPROC` instance: every edge becomes a one-processor
/// configuration, so configuration ids coincide with edge ids.
fn singleton_configs(g: &Bipartite) -> Hypergraph {
    let mut b = HypergraphBuilder::with_capacity(g.n_left(), g.n_right(), g.num_edges());
    for (_, v, u, w) in g.edges() {
        b.weighted_config(v, vec![u], w);
    }
    b.build().expect("a valid graph lifts to a valid hypergraph")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `SINGLEPROC` is `MULTIPROC` with one-processor configurations: on
    /// such an instance each bipartite heuristic and its hypergraph
    /// generalization (basic/online, sorted/SGH, expected/EGH), and each
    /// two-class kind on the two forms, pick the same ids or fail with
    /// the same error, under every reported objective. The lower bounds
    /// and scores agree too.
    #[test]
    fn singleton_hypergraph_agrees_with_its_bipartite_graph(g in bipartite_maybe_uncovered()) {
        let h = singleton_configs(&g);
        let (bi, hy) = (Problem::SingleProc(&g), Problem::MultiProc(&h));
        let mut pairs = vec![
            (SolverKind::Basic, SolverKind::Online),
            (SolverKind::Sorted, SolverKind::Sgh),
            (SolverKind::Expected, SolverKind::Egh),
            (SolverKind::StreamingGreedy, SolverKind::StreamingGreedy),
            (SolverKind::StreamingTwoPass, SolverKind::StreamingTwoPass),
        ];
        if g.n_left() <= 8 {
            pairs.push((SolverKind::BruteForce, SolverKind::BruteForce));
        }
        for objective in Objective::REPORTED {
            prop_assert_eq!(
                bi.lower_bound(objective),
                hy.lower_bound(objective),
                "lower bounds differ under {}",
                objective
            );
            for &(bk, hk) in &pairs {
                match (solve_with(bi, bk, objective), solve_with(hy, hk, objective)) {
                    (Ok(a), Ok(b)) => {
                        let (sm, hm) = (a.as_semi().unwrap(), b.as_hyper().unwrap());
                        prop_assert_eq!(
                            &sm.edge_of,
                            &hm.hedge_of,
                            "{} and {} picked different ids under {}",
                            bk,
                            hk,
                            objective
                        );
                        prop_assert_eq!(
                            a.score(&bi, objective),
                            b.score(&hy, objective),
                            "{} and {} scored differently under {}",
                            bk,
                            hk,
                            objective
                        );
                    }
                    (a, b) => prop_assert_eq!(
                        a.map(drop),
                        b.map(drop),
                        "{} and {} disagree on failure under {}",
                        bk,
                        hk,
                        objective
                    ),
                }
            }
        }
    }
}
