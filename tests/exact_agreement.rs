//! The exact algorithms — capacitated matching search (incremental and
//! bisection), literal `G_D` replication, Harvey cost-reducing paths, and
//! brute force — must agree on the optimal makespan; heuristics and lower
//! bounds must bracket it. All dispatch goes through the solver registry.

mod common;

use common::{covered_bipartite, covered_weighted_bipartite, tall_bipartite};
use proptest::prelude::*;
use semimatch::core::exact::{exact_unit, SearchStrategy};
use semimatch::core::lower_bound::lower_bound_singleproc;
use semimatch::graph::Bipartite;
use semimatch::solver::{solve, solve_with, Objective, Problem, SolverKind};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_exact_algorithms_agree(g in covered_bipartite(14, 6)) {
        let problem = Problem::SingleProc(&g);
        let mut makespans = Vec::new();
        for kind in SolverKind::EXACT_SINGLEPROC {
            let sol = solve(problem, kind).unwrap();
            sol.validate(&problem).unwrap();
            makespans.push((kind.name(), sol.makespan(&problem).unwrap()));
        }
        let brute = solve(problem, SolverKind::BruteForce).unwrap();
        brute.validate(&problem).unwrap();
        makespans.push(("brute-force", brute.makespan(&problem).unwrap()));

        let reference = makespans[0].1;
        for &(name, m) in &makespans {
            prop_assert_eq!(m, reference, "{} disagreed: {:?}", name, &makespans);
        }
    }

    #[test]
    fn lb_opt_heuristic_sandwich(g in covered_bipartite(20, 8)) {
        let problem = Problem::SingleProc(&g);
        let lb = lower_bound_singleproc(&g).unwrap();
        let opt = solve(problem, SolverKind::ExactBisection).unwrap().makespan(&problem).unwrap();
        prop_assert!(lb <= opt, "lower bound {lb} exceeds optimum {opt}");
        for kind in SolverKind::BI_HEURISTICS {
            let sol = solve(problem, kind).unwrap();
            sol.validate(&problem).unwrap();
            prop_assert!(sol.makespan(&problem).unwrap() >= opt, "{} beat the optimum", kind.name());
        }
    }

    #[test]
    fn weighted_brute_force_respects_lb(g in covered_weighted_bipartite(8, 4, 9)) {
        let problem = Problem::SingleProc(&g);
        let lb = lower_bound_singleproc(&g).unwrap();
        let brute = solve(problem, SolverKind::BruteForce).unwrap();
        brute.validate(&problem).unwrap();
        let opt = brute.makespan(&problem).unwrap();
        prop_assert!(lb <= opt);
        // Weighted heuristics stay above the weighted optimum too.
        for kind in SolverKind::BI_HEURISTICS {
            let m = solve(problem, kind).unwrap().makespan(&problem).unwrap();
            prop_assert!(m >= opt, "{} beat the weighted optimum", kind.name());
        }
    }

    /// Every exact kind — including the generalized Hopcroft–Karp and
    /// load-range divide-and-conquer backends — must be **score**-identical
    /// to brute force under every reported objective, not just agree on
    /// the makespan (the simultaneous-optimality contract).
    #[test]
    fn exact_kinds_are_score_identical_under_every_objective(g in covered_bipartite(9, 4)) {
        let problem = Problem::SingleProc(&g);
        for objective in Objective::REPORTED {
            let opt = solve_with(problem, SolverKind::BruteForce, objective)
                .unwrap()
                .score(&problem, objective)
                .unwrap();
            for kind in SolverKind::EXACT_SINGLEPROC {
                let sol = solve_with(problem, kind, objective).unwrap();
                sol.validate(&problem).unwrap();
                prop_assert_eq!(
                    sol.score(&problem, objective).unwrap(),
                    opt,
                    "{} disagreed with brute force under {}",
                    kind.name(),
                    objective
                );
            }
        }
    }

    /// `mcf` is the one fast exact kind accepting weighted instances. The
    /// total load (`weighted-load`, and `l1`, the same sum) separates per
    /// task, so `mcf` must hit the brute-force optimum under it — as every
    /// current-load greedy does too, since its marginal key is the edge
    /// weight. Under every other reported objective it must refuse
    /// cleanly (those are NP-hard with weights) — never return a silently
    /// suboptimal answer.
    #[test]
    fn mcf_is_exact_on_weighted_total_load(g in covered_weighted_bipartite(8, 4, 9)) {
        let problem = Problem::SingleProc(&g);
        for objective in Objective::REPORTED.into_iter().chain([Objective::LpNorm(1)]) {
            let result = solve_with(problem, SolverKind::MinCostFlow, objective);
            if g.is_unit() || matches!(objective, Objective::WeightedLoad | Objective::LpNorm(1)) {
                let sol = result.unwrap();
                sol.validate(&problem).unwrap();
                let opt = solve_with(problem, SolverKind::BruteForce, objective)
                    .unwrap()
                    .score(&problem, objective)
                    .unwrap();
                prop_assert_eq!(
                    sol.score(&problem, objective).unwrap(),
                    opt,
                    "mcf missed the weighted optimum under {}",
                    objective
                );
            } else {
                prop_assert_eq!(
                    result.unwrap_err(),
                    semimatch::core::error::CoreError::RequiresUnitWeights
                );
            }
        }
    }

    #[test]
    fn oracle_counts_favor_bisection_eventually(g in covered_bipartite(20, 2)) {
        // Oracle-call diagnostics sit below the registry, on the concrete
        // engine API. With few processors the optimum is far from the lower
        // bound often enough to exercise both searches; bisection never
        // needs more than ~2·log2(n) oracles.
        let inc = exact_unit(&g, SearchStrategy::Incremental).unwrap();
        let bis = exact_unit(&g, SearchStrategy::Bisection).unwrap();
        prop_assert_eq!(inc.makespan, bis.makespan);
        let n = g.n_left() as f64;
        prop_assert!(
            (bis.oracle_calls as f64) <= 2.0 * n.log2() + 4.0,
            "bisection used {} oracles on n = {}",
            bis.oracle_calls,
            g.n_left()
        );
    }
}

/// Paper-anchor instances with known optima: every exact kind must land
/// on the anchor makespan, and on the anchor flow time where the two
/// objectives pull apart.
#[test]
fn exact_kinds_agree_on_paper_anchors() {
    // (instance, optimal makespan): Fig. 1, the forced pileup, the §IV-A
    // mixed instance, and the k=3 adversarial chain of Fig. 3 (greedy
    // reaches 3, the optimum is 1).
    let fig3 = {
        let mut edges = Vec::new();
        let k = 3u32;
        let mut t = 0;
        for level in 0..k {
            let span = 1u32 << (k - 1 - level);
            for i in 1..=span {
                edges.push((t, i - 1));
                edges.push((t, i + span - 1));
                t += 1;
            }
        }
        Bipartite::from_edges(t, 1 << k, &edges).unwrap()
    };
    let anchors: Vec<(Bipartite, u64)> = vec![
        (Bipartite::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0)]).unwrap(), 1),
        (Bipartite::from_edges(5, 1, &[(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]).unwrap(), 5),
        (
            Bipartite::from_edges(4, 2, &[(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0)])
                .unwrap(),
            2,
        ),
        (fig3, 1),
    ];
    for (g, opt) in &anchors {
        let problem = Problem::SingleProc(g);
        let flow_opt = solve_with(problem, SolverKind::BruteForce, Objective::FlowTime)
            .unwrap()
            .score(&problem, Objective::FlowTime)
            .unwrap();
        for kind in SolverKind::EXACT_SINGLEPROC {
            let sol = solve(problem, kind).unwrap();
            sol.validate(&problem).unwrap();
            assert_eq!(sol.makespan(&problem).unwrap(), *opt, "{} missed the anchor", kind.name());
            let under_flow = solve_with(problem, kind, Objective::FlowTime).unwrap();
            assert_eq!(
                under_flow.score(&problem, Objective::FlowTime).unwrap(),
                flow_opt,
                "{} missed the anchor flow time",
                kind.name()
            );
        }
    }
}

/// A tall covered instance (n = 4096, p = 24, one to three processors per
/// task): `hk-semi`, `cost-scaling` and `mcf` must each land on
/// `exact-bisection`'s optimum. Sorted-greedy already sits on
/// ⌈n/p⌉ = 171 here, so `cost-scaling` makes no probe.
#[test]
fn tall_instance_fast_exact_kinds_hit_the_bisection_optimum() {
    let g = tall_bipartite(4096, 24, 0x5eed_7a11);
    let problem = Problem::SingleProc(&g);

    let opt = solve(problem, SolverKind::ExactBisection).unwrap().makespan(&problem).unwrap();
    for kind in [SolverKind::HopcroftKarpSemi, SolverKind::CostScaling, SolverKind::MinCostFlow] {
        let m = solve(problem, kind).unwrap().makespan(&problem).unwrap();
        assert_eq!(m, opt, "{kind} missed the optimum on the tall instance");
    }
}
