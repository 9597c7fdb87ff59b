//! Crate-local property tests for the algorithm layer, driven by the real
//! generators (the root integration suite uses abstract proptest
//! strategies; here the inputs are the paper's own instance families).

use proptest::prelude::*;
use semimatch_core::exact::{exact_unit, harvey_exact, SearchStrategy};
use semimatch_core::lower_bound::{lower_bound_multiproc, lower_bound_singleproc};
use semimatch_core::refine::refine;
use semimatch_core::{Problem, SolverKind};
use semimatch_gen::hyper::{hyper_instance, HyperKind, HyperParams};
use semimatch_gen::rng::Xoshiro256;
use semimatch_gen::weights::{apply_weights, WeightScheme};
use semimatch_gen::{fewg_manyg, hilo_permuted};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn generated_singleproc_sandwich(seed in 0u64..10_000, hilo in proptest::bool::ANY) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let g = if hilo {
            hilo_permuted(80, 16, 4, 3, &mut rng)
        } else {
            fewg_manyg(80, 16, 4, 3, &mut rng)
        };
        let lb = lower_bound_singleproc(&g).unwrap();
        let exact = exact_unit(&g, SearchStrategy::Bisection).unwrap();
        let harvey = harvey_exact(&g).unwrap();
        prop_assert_eq!(exact.makespan, harvey.makespan(&g));
        prop_assert!(lb <= exact.makespan);
        let problem = Problem::SingleProc(&g);
        for kind in SolverKind::BI_HEURISTICS {
            let m = kind.solve(problem).unwrap().makespan(&problem).unwrap();
            prop_assert!(m >= exact.makespan, "{} beat the optimum", kind.label());
            // The greedy family is never catastrophically off on these
            // benign random families (loose sanity bound).
            prop_assert!(m <= 4 * exact.makespan + 4, "{} at {m} vs {}", kind.label(),
                exact.makespan);
        }
    }

    #[test]
    fn generated_multiproc_invariants(
        seed in 0u64..10_000,
        hilo in proptest::bool::ANY,
        weights in prop_oneof![
            Just(WeightScheme::Unit),
            Just(WeightScheme::Related),
            Just(WeightScheme::Random)
        ],
    ) {
        let kind = if hilo { HyperKind::HiLo } else { HyperKind::FewgManyg };
        let params = HyperParams { kind, n: 64, p: 16, g: 4, dv: 3, dh: 4 };
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut h = hyper_instance(params, &mut rng);
        apply_weights(&mut h, weights, &mut rng);
        let lb = lower_bound_multiproc(&h).unwrap();
        for kind in SolverKind::HYPER_HEURISTICS {
            let mut hm = kind.solve(Problem::MultiProc(&h)).unwrap().into_hyper().unwrap();
            hm.validate(&h).unwrap();
            let before = hm.makespan(&h);
            prop_assert!(before >= lb, "{} below LB", kind.label());
            refine(&h, &mut hm, 32).unwrap();
            prop_assert!(hm.makespan(&h) <= before);
            prop_assert!(hm.makespan(&h) >= lb);
        }
    }

    #[test]
    fn vector_heuristics_agree_with_naive_on_generated(seed in 0u64..10_000) {
        use semimatch_core::hyper::evg::{
            expected_vector_greedy_hyp, expected_vector_greedy_hyp_naive,
        };
        use semimatch_core::hyper::vgh::{vector_greedy_hyp, vector_greedy_hyp_naive};
        let params =
            HyperParams { kind: HyperKind::FewgManyg, n: 48, p: 12, g: 4, dv: 3, dh: 3 };
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut h = hyper_instance(params, &mut rng);
        apply_weights(&mut h, WeightScheme::Related, &mut rng);
        prop_assert_eq!(vector_greedy_hyp(&h).unwrap(), vector_greedy_hyp_naive(&h).unwrap());
        prop_assert_eq!(
            expected_vector_greedy_hyp(&h).unwrap(),
            expected_vector_greedy_hyp_naive(&h).unwrap()
        );
    }

    #[test]
    fn exact_oracle_counts(seed in 0u64..10_000) {
        // Bisection's oracle count is logarithmic in the search interval.
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let g = fewg_manyg(96, 8, 4, 3, &mut rng);
        let inc = exact_unit(&g, SearchStrategy::Incremental).unwrap();
        let bis = exact_unit(&g, SearchStrategy::Bisection).unwrap();
        prop_assert_eq!(inc.makespan, bis.makespan);
        prop_assert!(bis.oracle_calls <= 2 * (96f64.log2().ceil() as u32) + 2);
        // Incremental pays one oracle per unit of gap above the bound.
        let lb = 96u32.div_ceil(8);
        prop_assert_eq!(inc.oracle_calls as u64, inc.makespan - lb as u64 + 1);
    }
}

/// Both tasks fit only on P0, whose load ends at exactly `u64::MAX` (the
/// per-task maximum weights sum to `u64::MAX`, which the graph
/// constructors accept). Every public greedy entry point must place both:
/// a selection loop seeded with a `u64::MAX` sentinel never accepts the
/// second task's key `(u64::MAX − 1) + 1` and used to report it uncovered
/// (or, in LPT, panic).
#[test]
fn greedy_entry_points_fill_a_processor_to_u64_max() {
    use semimatch_core::greedy::{
        basic::basic_greedy, double_sorted::double_sorted, expected::expected_greedy,
        lpt::lpt_greedy, sorted::sorted_greedy,
    };
    use semimatch_core::hyper::{egh, evg, sgh, vgh};
    use semimatch_core::online::{online_schedule, OnlineRule};
    use semimatch_core::{HyperMatching, Objective, SemiMatching};
    use semimatch_graph::{Bipartite, Hypergraph};

    let g = Bipartite::from_weighted_edges(2, 1, &[(0, 0), (1, 0)], &[u64::MAX - 1, 1]).unwrap();
    let h = Hypergraph::from_hyperedges(2, 1, vec![(0, vec![0], u64::MAX - 1), (1, vec![0], 1)])
        .unwrap();
    type Entry<G, M> = (&'static str, fn(&G) -> semimatch_core::Result<M>);
    let bipartite: [Entry<Bipartite, SemiMatching>; 5] = [
        ("basic", basic_greedy),
        ("sorted", sorted_greedy),
        ("double-sorted", double_sorted),
        ("expected", expected_greedy),
        ("lpt", lpt_greedy),
    ];
    for (name, run) in bipartite {
        let sm = run(&g).unwrap_or_else(|e| panic!("{name}: {e}"));
        sm.validate(&g).unwrap();
        assert_eq!(sm.makespan(&g), u64::MAX, "{name}");
    }
    let hyper: [Entry<Hypergraph, HyperMatching>; 11] = [
        ("sgh", sgh::sorted_greedy_hyp),
        ("sgh-resulting", sgh::sorted_greedy_hyp_resulting),
        ("egh", egh::expected_greedy_hyp),
        ("vgh", vgh::vector_greedy_hyp),
        ("vgh-pinwise", vgh::vector_greedy_hyp_pinwise),
        ("vgh-naive", vgh::vector_greedy_hyp_naive),
        ("evg", evg::expected_vector_greedy_hyp),
        ("evg-naive", evg::expected_vector_greedy_hyp_naive),
        ("online-bottleneck", |h| online_schedule(h, OnlineRule::MinBottleneck)),
        ("online-resulting", |h| online_schedule(h, OnlineRule::MinResulting)),
        ("online-first-fit", |h| online_schedule(h, OnlineRule::FirstFit)),
    ];
    for (name, run) in hyper {
        let hm = run(&h).unwrap_or_else(|e| panic!("{name}: {e}"));
        hm.validate(&h).unwrap();
        assert_eq!(hm.makespan(&h), u64::MAX, "{name}");
    }
    for objective in Objective::REPORTED {
        for kind in [SolverKind::StreamingGreedy, SolverKind::StreamingTwoPass] {
            for problem in [Problem::SingleProc(&g), Problem::MultiProc(&h)] {
                let sol = kind.solve_with(problem, objective).unwrap();
                sol.validate(&problem).unwrap();
                assert_eq!(sol.makespan(&problem).unwrap(), u64::MAX, "{kind} under {objective}");
            }
        }
    }
}
