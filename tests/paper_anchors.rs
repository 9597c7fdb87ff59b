//! Paper-anchored regression tests: the concrete numbers the paper derives
//! on its hand-crafted instances, and the qualitative claims of its
//! evaluation section on a scaled-down version of the experimental grid.

use semimatch::core::exact::{exact_unit, SearchStrategy};
use semimatch::core::lower_bound::lower_bound_multiproc;
use semimatch::core::quality::{mean_f64, ratio};
use semimatch::gen::adversarial::{fig1, fig2, fig3, fig4, fig5};
use semimatch::gen::params::{Config, Family};
use semimatch::gen::weights::WeightScheme;
use semimatch::solver::{Problem, SolverKind};

fn makespan<'a>(kind: SolverKind, problem: impl Into<Problem<'a>>) -> u64 {
    let problem = problem.into();
    kind.solve(problem).unwrap().makespan(&problem).unwrap()
}

#[test]
fn fig1_basic_greedy_doubles_optimum() {
    let g = fig1();
    assert_eq!(exact_unit(&g, SearchStrategy::Bisection).unwrap().makespan, 1);
    assert_eq!(makespan(SolverKind::Basic, &g), 2);
    assert_eq!(makespan(SolverKind::Sorted, &g), 1);
}

#[test]
fn fig3_sorted_greedy_reaches_k() {
    for k in [2u32, 3, 5, 7] {
        let g = fig3(k);
        assert_eq!(
            exact_unit(&g, SearchStrategy::Bisection).unwrap().makespan,
            1,
            "optimal makespan is 1 (k = {k})"
        );
        assert_eq!(makespan(SolverKind::Basic, &g), k as u64, "basic (k = {k})");
        assert_eq!(makespan(SolverKind::Sorted, &g), k as u64, "sorted (k = {k})");
        // §IV-B3: breaking load ties by in-degree fixes this family.
        assert_eq!(makespan(SolverKind::DoubleSorted, &g), 1, "double-sorted (k = {k})");
        assert_eq!(makespan(SolverKind::Expected, &g), 1, "expected (k = {k})");
    }
}

#[test]
fn fig4_double_sorted_errs_expected_recovers() {
    let g = fig4();
    assert_eq!(exact_unit(&g, SearchStrategy::Bisection).unwrap().makespan, 1);
    assert_eq!(makespan(SolverKind::Sorted, &g), 3);
    // §IV-B3: processors tie on in-degree, so double-sorted errs like
    // sorted-greedy.
    assert_eq!(makespan(SolverKind::DoubleSorted, &g), 3);
    // Reproduction note (see gen::adversarial::fig4): the paper claims 1;
    // the construction as described admits 2 under uniform tie-breaking.
    // The qualitative claim — expected beats double-sorted — holds.
    assert_eq!(makespan(SolverKind::Expected, &g), 2);
}

#[test]
fn fig5_defeats_expected_greedy_too() {
    let g = fig5();
    assert_eq!(exact_unit(&g, SearchStrategy::Bisection).unwrap().makespan, 1);
    // §IV-B4: all o-values tie at 3/2 and expected-greedy errs like the
    // others.
    assert_eq!(makespan(SolverKind::Expected, &g), 3);
    assert_eq!(makespan(SolverKind::DoubleSorted, &g), 3);
    assert_eq!(makespan(SolverKind::Sorted, &g), 3);
}

#[test]
fn fig2_all_hyper_heuristics_optimal() {
    let h = fig2();
    let (opt, _) = semimatch::core::exact::brute_force_multiproc(&h, 100_000).unwrap();
    for kind in SolverKind::HYPER_HEURISTICS {
        assert_eq!(makespan(kind, &h), opt, "{}", kind.label());
    }
}

/// Median ratios of a scaled-down grid row (4 instances for speed).
fn grid_ratios(family: Family, weights: WeightScheme) -> Vec<f64> {
    let sizes = [(640u32, 128u32), (1280, 128)];
    let mut per_heuristic = vec![Vec::new(); SolverKind::HYPER_HEURISTICS.len()];
    for (n, p) in sizes {
        let cfg = Config { family, n, p, dv: 5, dh: 10, weights };
        for i in 0..4u64 {
            let h = cfg.instance(42, i);
            let lb = lower_bound_multiproc(&h).unwrap();
            for (j, kind) in SolverKind::HYPER_HEURISTICS.into_iter().enumerate() {
                per_heuristic[j].push(ratio(makespan(kind, &h), lb));
            }
        }
    }
    per_heuristic.iter().map(|xs| mean_f64(xs)).collect()
}

#[test]
fn table2_shape_vgh_wins_unweighted_fewgmanyg() {
    // Table II, FewgManyg half: VGH < EVG ≈ EGH < SGH in average quality.
    let [sgh, vgh, egh, evg] = grid_ratios(Family::Fg, WeightScheme::Unit)[..] else {
        panic!("four heuristics")
    };
    assert!(vgh <= egh + 1e-9, "VGH ({vgh:.3}) should beat EGH ({egh:.3})");
    assert!(vgh <= sgh + 1e-9, "VGH ({vgh:.3}) should beat SGH ({sgh:.3})");
    assert!(egh <= sgh + 1e-9, "EGH ({egh:.3}) should beat SGH ({sgh:.3})");
    assert!(evg <= sgh + 1e-9, "EVG ({evg:.3}) should beat SGH ({sgh:.3})");
}

#[test]
fn table2_shape_hilo_unweighted_ties() {
    // Table II, HiLo half: all four heuristics achieve the same quality.
    let ratios = grid_ratios(Family::Hlm, WeightScheme::Unit);
    let spread = ratios.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - ratios.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(spread < 0.02, "HiLo-unit heuristics should tie; ratios {ratios:?}");
}

#[test]
fn table3_shape_expected_strategies_win_weighted() {
    // Table III: EGH < SGH and EVG ≤ EGH on both generator families.
    for family in [Family::Fg, Family::Mg, Family::Hlm] {
        let [sgh, _vgh, egh, evg] = grid_ratios(family, WeightScheme::Related)[..] else {
            panic!("four heuristics")
        };
        assert!(egh <= sgh + 1e-9, "{family:?}: EGH ({egh:.3}) should beat SGH ({sgh:.3})");
        assert!(evg <= egh + 0.02, "{family:?}: EVG ({evg:.3}) should not lose to EGH ({egh:.3})");
    }
}
