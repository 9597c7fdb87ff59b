//! The solver registry contract, exercised through the `semimatch::solver`
//! facade: every registered kind runs on a problem of its class, exact
//! kinds agree, names round-trip, and class mismatches error cleanly.

use semimatch::core::CoreError;
use semimatch::graph::{Bipartite, Hypergraph};
use semimatch::solver::{solve, Problem, Solution, SolverClass, SolverKind};

fn bipartite() -> Bipartite {
    Bipartite::from_edges(
        8,
        4,
        &[
            (0, 0),
            (0, 1),
            (1, 0),
            (2, 1),
            (2, 2),
            (3, 2),
            (4, 0),
            (4, 3),
            (5, 1),
            (5, 3),
            (6, 2),
            (7, 3),
        ],
    )
    .unwrap()
}

fn hypergraph() -> Hypergraph {
    Hypergraph::from_configs(
        4,
        &[
            vec![vec![0], vec![1, 2]],
            vec![vec![0], vec![3]],
            vec![vec![2]],
            vec![vec![2], vec![1, 3]],
            vec![vec![3]],
        ],
    )
    .unwrap()
}

#[test]
fn registry_meets_the_acceptance_floor() {
    assert!(SolverKind::ALL.len() >= 10, "registry too small: {}", SolverKind::ALL.len());
    let labels = |kinds: &[SolverKind]| kinds.iter().map(|k| k.label()).collect::<Vec<_>>();
    // The paper's presentation order (§IV-B) and the column order of its
    // Tables II/III (§V).
    assert_eq!(
        labels(&SolverKind::BI_HEURISTICS),
        ["basic", "sorted", "double-sorted", "expected"]
    );
    assert_eq!(labels(&SolverKind::HYPER_HEURISTICS), ["SGH", "VGH", "EGH", "EVG"]);
    assert!(SolverKind::EXACT_SINGLEPROC.len() >= 2);
}

#[test]
fn every_kind_is_exercised_on_its_own_class() {
    let g = bipartite();
    let h = hypergraph();
    for kind in SolverKind::ALL {
        let problems: Vec<Problem> = match kind.class() {
            SolverClass::SingleProc => vec![Problem::SingleProc(&g)],
            SolverClass::MultiProc => vec![Problem::MultiProc(&h)],
            SolverClass::Either => vec![Problem::SingleProc(&g), Problem::MultiProc(&h)],
        };
        for problem in problems {
            let sol = solve(problem, kind)
                .unwrap_or_else(|e| panic!("{} failed on its own class: {e}", kind.name()));
            sol.validate(&problem).unwrap();
            match (&sol, &problem) {
                (Solution::SingleProc(_), Problem::SingleProc(_)) => {}
                (Solution::MultiProc(_), Problem::MultiProc(_)) => {}
                _ => panic!("{} returned a solution of the wrong class", kind.name()),
            }
            assert!(sol.makespan(&problem).unwrap() >= 1);
        }
    }
}

#[test]
fn exact_kinds_agree_and_heuristics_bound_them() {
    let g = bipartite();
    let problem = Problem::SingleProc(&g);
    let opt = solve(problem, SolverKind::ExactBisection).unwrap().makespan(&problem).unwrap();
    for kind in SolverKind::SINGLEPROC {
        let m = solve(problem, kind).unwrap().makespan(&problem).unwrap();
        if kind.is_exact() {
            assert_eq!(m, opt, "{} is exact but disagreed", kind.name());
        } else {
            assert!(m >= opt, "{} beat the optimum", kind.name());
        }
    }
    let h = hypergraph();
    let hp = Problem::MultiProc(&h);
    let hopt = solve(hp, SolverKind::BruteForce).unwrap().makespan(&hp).unwrap();
    for kind in SolverKind::MULTIPROC {
        let m = solve(hp, kind).unwrap().makespan(&hp).unwrap();
        assert!(m >= hopt, "{} beat the optimum", kind.name());
    }
}

#[test]
fn names_round_trip_and_lookup_fails_cleanly() {
    for kind in SolverKind::ALL {
        assert_eq!(kind.name().parse::<SolverKind>().unwrap(), kind);
        assert!(!kind.description().is_empty());
        assert!(!kind.label().is_empty());
    }
    assert!(matches!("does-not-exist".parse::<SolverKind>(), Err(CoreError::UnknownSolver(_))));
}

#[test]
fn class_mismatches_error_cleanly() {
    let g = bipartite();
    let h = hypergraph();
    assert!(matches!(
        solve(Problem::MultiProc(&h), SolverKind::Harvey),
        Err(CoreError::KindMismatch { .. })
    ));
    assert!(matches!(
        solve(Problem::SingleProc(&g), SolverKind::Online),
        Err(CoreError::KindMismatch { .. })
    ));
}
