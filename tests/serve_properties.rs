//! Property tests for the serving engine: replaying a random event trace
//! incrementally must agree with solving the *final* live instance from
//! scratch.
//!
//! * Unit/single-processor traces under eager repair: after every event
//!   the engine's score **equals** the exact from-scratch optimum, under
//!   the makespan and under flow time (the augmenting-path repair
//!   maintains optimality through arrivals, departures, reweights and
//!   processor churn, and the flow-time descent keeps the makespan
//!   optimal too).
//! * Per-event re-solves (`Periodic { every: 1 }`): the final state is by
//!   construction the configured kind's from-scratch solution — pinning
//!   the snapshot/compaction/install machinery.
//! * Heuristic repair policies never *beat* the optimum, always produce a
//!   valid assignment whose recomputed makespan matches the engine's
//!   bottleneck, and never get worse from an extra repair.

use proptest::prelude::*;
use semimatch::gen::rng::Xoshiro256;
use semimatch::gen::trace::{generate_trace, TraceParams};
use semimatch::serve::{Engine, EngineConfig, RepairPolicy};
use semimatch::solver::{solve, solve_with, Objective, Problem, SolverKind};

/// Random unit-weight singleton traces (the `SINGLEPROC-UNIT` shape) with
/// full churn: departures, (unit) reweights, bursts and processor churn.
fn singleproc_trace() -> impl Strategy<Value = semimatch::serve::Trace> {
    singleproc_trace_below(6, 40)
}

/// [`singleproc_trace`] with fewer than `procs` processors and `arrivals`
/// arrivals.
fn singleproc_trace_below(
    procs: u32,
    arrivals: u32,
) -> impl Strategy<Value = semimatch::serve::Trace> {
    (1..procs, 1..arrivals, 0u32..=100, 0u32..5, 0u64..1_000_000).prop_map(
        |(procs, arrivals, churn, proc_events, seed)| {
            let params = TraceParams {
                n_procs: procs,
                arrivals,
                churn_pct: churn,
                max_configs: 3,
                max_pins: 1,
                max_weight: 1,
                proc_events,
                burst_every: 8,
                burst_len: 3,
            };
            generate_trace(&params, &mut Xoshiro256::seed_from_u64(seed))
        },
    )
}

/// Random weighted hypergraph traces, kept small enough for brute force.
fn hyper_trace() -> impl Strategy<Value = semimatch::serve::Trace> {
    (1u32..5, 1u32..10, 0u32..=100, 0u64..1_000_000).prop_map(|(procs, arrivals, churn, seed)| {
        let params = TraceParams {
            n_procs: procs,
            arrivals,
            churn_pct: churn,
            max_configs: 3,
            max_pins: 2,
            max_weight: 6,
            proc_events: 2,
            burst_every: 0,
            burst_len: 0,
        };
        generate_trace(&params, &mut Xoshiro256::seed_from_u64(seed))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Up to 12 processors and 80 arrivals, so that several processors
    /// often share the bottleneck. `mcf` is exact under every objective
    /// on unit instances.
    #[test]
    fn eager_incremental_repair_matches_from_scratch_exact(
        trace in singleproc_trace_below(13, 81)
    ) {
        for objective in [Objective::Makespan, Objective::FlowTime] {
            let cfg = EngineConfig { objective, ..EngineConfig::default() };
            let mut engine = Engine::new(cfg, trace.n_procs).unwrap();
            for (i, ev) in trace.events.iter().enumerate() {
                engine.apply(ev).unwrap();
                prop_assert!(engine.is_unit_singleton());
                if engine.n_live_tasks() == 0 {
                    prop_assert_eq!(engine.bottleneck(), 0);
                    continue;
                }
                let snap = engine.snapshot();
                snap.matching.validate(&snap.hypergraph).unwrap();
                let g = snap.to_bipartite().expect("singleton trace");
                let problem = Problem::SingleProc(&g);
                let optimum = |objective| {
                    solve_with(problem, SolverKind::MinCostFlow, objective)
                        .and_then(|s| s.score(&problem, objective))
                        .unwrap()
                };
                for checked in [objective, Objective::Makespan] {
                    prop_assert_eq!(
                        engine.score(checked),
                        optimum(checked),
                        "{} under {} diverged from the from-scratch optimum after event {} ({:?})",
                        checked,
                        objective,
                        i,
                        ev
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn per_event_resolves_equal_the_from_scratch_kind(trace in hyper_trace()) {
        for kind in [SolverKind::Evg, SolverKind::StreamingGreedy, SolverKind::BruteForce] {
            let cfg = EngineConfig {
                policy: RepairPolicy::Periodic { every: 1 },
                resolve_kind: kind,
                ..EngineConfig::default()
            };
            let engine = Engine::replay(cfg, &trace).unwrap();
            if engine.n_live_tasks() == 0 {
                prop_assert_eq!(engine.bottleneck(), 0);
                continue;
            }
            let snap = engine.snapshot();
            let problem = Problem::MultiProc(&snap.hypergraph);
            let scratch = solve(problem, kind).unwrap().makespan(&problem).unwrap();
            prop_assert_eq!(
                engine.bottleneck(),
                scratch,
                "{} resolves must land exactly on the from-scratch solution",
                kind
            );
        }
    }

    /// Periodic resolves through the bipartite-only exact backends: on
    /// unit singleton traces the engine converts the snapshot through
    /// `to_bipartite`, so the fast exact kinds serve as resolve backends
    /// — and per-event resolves through an exact kind must keep the
    /// bottleneck at the from-scratch optimum, exactly like eager
    /// incremental repair.
    #[test]
    fn periodic_singleproc_exact_resolves_stay_optimal(trace in singleproc_trace()) {
        for kind in [
            SolverKind::HopcroftKarpSemi,
            SolverKind::CostScaling,
            SolverKind::ExactBisection,
        ] {
            let cfg = EngineConfig {
                policy: RepairPolicy::Periodic { every: 1 },
                resolve_kind: kind,
                ..EngineConfig::default()
            };
            let engine = Engine::replay(cfg, &trace).unwrap();
            if engine.n_live_tasks() == 0 {
                prop_assert_eq!(engine.bottleneck(), 0);
                continue;
            }
            let snap = engine.snapshot();
            snap.matching.validate(&snap.hypergraph).unwrap();
            let g = snap.to_bipartite().expect("singleton trace");
            let problem = Problem::SingleProc(&g);
            let opt = solve(problem, kind).unwrap().makespan(&problem).unwrap();
            prop_assert_eq!(
                engine.bottleneck(),
                opt,
                "{} periodic resolves diverged from the from-scratch optimum",
                kind
            );
        }
    }

    #[test]
    fn heuristic_policies_are_valid_and_never_beat_the_optimum(trace in hyper_trace()) {
        let policies = [
            RepairPolicy::Eager,
            RepairPolicy::Lazy { slack: 2 },
            RepairPolicy::PlacementOnly, // the no-repair baseline
            RepairPolicy::Periodic { every: 4 },
        ];
        for policy in policies {
            let cfg = EngineConfig { policy, ..EngineConfig::default() };
            let mut engine = Engine::replay(cfg, &trace).unwrap();
            if engine.n_live_tasks() == 0 {
                prop_assert_eq!(engine.bottleneck(), 0);
                continue;
            }
            let snap = engine.snapshot();
            snap.matching.validate(&snap.hypergraph).unwrap();
            prop_assert_eq!(snap.matching.makespan(&snap.hypergraph), engine.bottleneck());
            let problem = Problem::MultiProc(&snap.hypergraph);
            let opt = solve(problem, SolverKind::BruteForce).unwrap().makespan(&problem).unwrap();
            prop_assert!(
                engine.bottleneck() >= opt,
                "{policy:?} beat the optimum: {} < {opt}",
                engine.bottleneck()
            );
            // Extra repair is monotone: it can only help.
            let before = engine.bottleneck();
            engine.repair_now();
            prop_assert!(engine.bottleneck() <= before, "{policy:?} repair made things worse");
            let after = engine.snapshot();
            after.matching.validate(&after.hypergraph).unwrap();
        }
    }

    /// At **every** event of a random trace — not just at the end — the
    /// engine's live score stays at or above its balanced lower bound,
    /// and the published gap is exactly their (saturating) difference.
    /// This is the invariant the daemon's per-tenant SLO check and its
    /// `daemon.tenant.<id>.{score,lower_bound,gap}` gauges rely on.
    #[test]
    fn score_never_drops_below_the_lower_bound_at_any_event(trace in hyper_trace()) {
        use semimatch::solver::Objective;
        for (policy, objective) in [
            (RepairPolicy::Eager, Objective::Makespan),
            (RepairPolicy::Lazy { slack: 4 }, Objective::FlowTime),
            (RepairPolicy::PlacementOnly, Objective::Makespan),
            (RepairPolicy::Periodic { every: 3 }, Objective::WeightedLoad),
        ] {
            let cfg = EngineConfig { policy, objective, ..EngineConfig::default() };
            let mut engine = Engine::new(cfg, trace.n_procs).unwrap();
            for (i, ev) in trace.events.iter().enumerate() {
                engine.apply(ev).unwrap();
                let score = engine.score(objective);
                let lb = engine.lower_bound_estimate();
                prop_assert!(
                    score >= lb,
                    "{policy:?}/{objective:?} event {i}: score {score} below lower bound {lb}"
                );
                prop_assert_eq!(engine.gap().0, score.0 - lb.0);
            }
        }
    }

    #[test]
    fn counters_account_for_every_event(trace in hyper_trace()) {
        let engine = Engine::replay(EngineConfig::default(), &trace).unwrap();
        let counters = engine.counters();
        prop_assert_eq!(counters.events as usize, trace.events.len());
        prop_assert_eq!(counters.repairs as usize, trace.events.len(), "eager repairs per event");
        prop_assert!(counters.placements >= trace.arrivals() as u64);
    }
}
