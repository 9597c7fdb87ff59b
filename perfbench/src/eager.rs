//! `unit-eager` and `weighted-eager`: one `Engine` under the `eager`
//! policy, replaying one generated trace per round.
//!
//! The untraced pass times every `Engine::apply`. The traced pass replays
//! the same trace under the placement-only policy with an explicit
//! `repair_now()` after every apply — exactly what `eager` does inside
//! `apply` — so ingest and repair are timed apart, and
//! `is_unit_singleton()` labels each repair exact or heuristic. It also
//! times one `Engine::gap` per event.

use std::time::Instant;

use semimatch_core::solver::{Problem, SolverKind};
use semimatch_gen::rng::Xoshiro256;
use semimatch_gen::trace::{generate_trace, Trace, TraceParams};
use semimatch_serve::{Counters, Engine, EngineConfig, RepairPolicy};

use crate::measure::{ns, percentile, pinned_rounds, ratio, setup_seconds, Best, Outcome};

const POLICY: &str = "eager";
const PLACEMENT_ONLY: &str = "lazy:18446744073709551615";
/// The from-scratch kind that checks unit-eager's final optimum.
const CHECK_KIND: &str = "hk-semi";
/// Engine constructions timed for `setup_s`.
const SETUP_REPS: usize = 201;

#[derive(Clone, Copy)]
pub enum Shape {
    /// Unit-weight singleton configurations: exact repair.
    Unit,
    /// Weighted multi-processor configurations: heuristic repair.
    Weighted,
}

fn params(shape: Shape) -> TraceParams {
    let base = TraceParams {
        churn_pct: 20,
        max_configs: 3,
        proc_events: 0,
        burst_every: 0,
        burst_len: 0,
        ..TraceParams::default()
    };
    match shape {
        Shape::Unit => {
            TraceParams { n_procs: 64, arrivals: 2000, max_pins: 1, max_weight: 1, ..base }
        }
        Shape::Weighted => {
            TraceParams { n_procs: 16, arrivals: 4096, max_pins: 2, max_weight: 8, ..base }
        }
    }
}

/// The state a round ends in; traced and untraced rounds must agree on it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Final {
    score: u128,
    lower_bound: u128,
    counters: Counters,
}

fn finish(engine: &Engine) -> Final {
    Final {
        score: engine.score(engine.config().objective).0,
        lower_bound: engine.lower_bound_estimate().0,
        counters: engine.counters(),
    }
}

pub fn run(shape: Shape, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let trace = generate_trace(&params(shape), &mut Xoshiro256::seed_from_u64(seed));
    let policy: RepairPolicy = POLICY.parse().expect("CLI policy name");
    let cfg = EngineConfig { policy, ..EngineConfig::default() };
    let mut out = Outcome {
        policies: vec![POLICY],
        kinds: vec![cfg.resolve_kind.name()],
        ..Outcome::default()
    };
    if let Shape::Unit = shape {
        out.kinds.push(CHECK_KIND);
    }
    if traced {
        layers(&mut out, &trace, cfg, seconds);
    } else {
        end_to_end(&mut out, shape, &trace, cfg, seconds);
    }
    out
}

fn end_to_end(out: &mut Outcome, shape: Shape, trace: &Trace, cfg: EngineConfig, seconds: f64) {
    let mut setup_s = f64::INFINITY;
    let mut apply = Best::default();
    let mut finals = Vec::new();
    let mut last = None;
    pinned_rounds(seconds, || {
        let setup = setup_seconds(SETUP_REPS, || Engine::new(cfg, trace.n_procs));
        setup_s = setup_s.min(setup);
        let mut engine = Engine::new(cfg, trace.n_procs).expect("valid engine config");
        for (i, ev) in trace.events.iter().enumerate() {
            let t = Instant::now();
            let applied = engine.apply(ev);
            apply.record(i, t.elapsed().as_secs_f64());
            out.attempted += 1;
            out.failed += u64::from(applied.is_err());
        }
        finals.push(finish(&engine));
        last = Some(engine);
    });
    let engine = last.expect("at least one round");
    let end = finals[0];
    out.check(finals.iter().all(|f| *f == end), || "rounds ended in different states".into());
    check_quality(out, shape, &engine);
    let latency_ms: Vec<f64> = apply.times().iter().map(|t| t * 1e3).collect();
    let quality = end.score as f64 / end.lower_bound.max(1) as f64;
    out.end_to_end(trace.events.len() as f64 / apply.total(), &latency_ms, quality, setup_s);
}

/// The quality contract of each shape: unit eager repair is exact (gap 0
/// and equal to a from-scratch exact solve); no score is below its bound.
fn check_quality(out: &mut Outcome, shape: Shape, engine: &Engine) {
    let end = finish(engine);
    out.check(end.score >= end.lower_bound, || {
        format!("score {} is below its lower bound {}", end.score, end.lower_bound)
    });
    if let Shape::Unit = shape {
        out.check(engine.gap().0 == 0, || format!("unit-eager ends at gap {}", engine.gap().0));
        let g = engine.snapshot().to_bipartite().expect("a unit trace stays singleton");
        let kind: SolverKind = CHECK_KIND.parse().expect("CLI kind name");
        let problem = Problem::SingleProc(&g);
        let optimum = kind.solve(problem).and_then(|s| s.makespan(&problem));
        let optimum = optimum.map(u128::from).map_err(|e| e.to_string());
        out.check(optimum == Ok(end.score), || {
            format!("eager makespan {} differs from the exact optimum {optimum:?}", end.score)
        });
    }
}

fn layers(out: &mut Outcome, trace: &Trace, cfg: EngineConfig, seconds: f64) {
    let placement_only: RepairPolicy = PLACEMENT_ONLY.parse().expect("CLI policy name");
    out.policies.push(PLACEMENT_ONLY);

    // Untraced: the eager engine.
    let mut plain = Best::default();
    let mut plain_final = None;
    pinned_rounds(seconds / 2.0, || {
        let mut engine = Engine::new(cfg, trace.n_procs).expect("valid engine config");
        for (i, ev) in trace.events.iter().enumerate() {
            let t = Instant::now();
            out.attempted += 1;
            out.failed += u64::from(engine.apply(ev).is_err());
            plain.record(i, t.elapsed().as_secs_f64());
        }
        plain_final = Some(finish(&engine));
    });

    // Traced: placement-only apply, then the repair eager would run.
    let traced_cfg = EngineConfig { policy: placement_only, ..cfg };
    let [mut whole, mut ingest, mut repair, mut gap] = std::array::from_fn(|_| Best::default());
    let mut exact_at = Vec::new();
    let (mut wall_ns, mut layer_ns) = (0.0, 0.0);
    let mut traced_final = None;
    pinned_rounds(seconds / 2.0, || {
        let mut engine = Engine::new(traced_cfg, trace.n_procs).expect("valid engine config");
        exact_at.clear();
        let start = Instant::now();
        for (i, ev) in trace.events.iter().enumerate() {
            let t0 = Instant::now();
            out.attempted += 1;
            out.failed += u64::from(engine.apply(ev).is_err());
            let t1 = Instant::now();
            exact_at.push(engine.is_unit_singleton());
            engine.repair_now();
            let t2 = Instant::now();
            std::hint::black_box(engine.gap());
            let t3 = Instant::now();
            whole.record(i, ns(t3 - t0));
            ingest.record(i, ns(t1 - t0));
            repair.record(i, ns(t2 - t1));
            gap.record(i, ns(t3 - t2));
            layer_ns += ns(t3 - t0);
        }
        wall_ns += ns(start.elapsed());
        traced_final = Some(finish(&engine));
    });
    out.check(traced_final == plain_final, || {
        format!("traced run ended in {traced_final:?}, untraced in {plain_final:?}")
    });

    let end = plain_final.expect("at least one round");
    let events = trace.events.len() as f64;
    let split = |exact: bool| -> Vec<f64> {
        repair
            .times()
            .iter()
            .zip(&exact_at)
            .filter(|(_, e)| **e == exact)
            .map(|(t, _)| *t)
            .collect()
    };
    let (exact, heuristic) = (split(true), split(false));
    let (exact_ns, heuristic_ns) = (exact.iter().sum::<f64>(), heuristic.iter().sum::<f64>());
    let c = end.counters;
    out.per_layer(&[
        ("serve.ingest.ns_per_event", ingest.total() / events),
        ("serve.repair.exact.ns_per_call", ratio(exact_ns, exact.len() as f64)),
        ("serve.repair.exact.p99_ns", percentile(&exact, 99.0)),
        ("serve.repair.exact.share", exact_ns / whole.total()),
        ("serve.repair.searches_per_event", c.searches as f64 / events),
        ("serve.repair.shifts_per_event", c.shifts as f64 / events),
        ("serve.repair.search_yield", ratio(c.shifts as f64, c.searches as f64)),
        ("serve.repair.heuristic.ns_per_call", ratio(heuristic_ns, heuristic.len() as f64)),
        ("serve.repair.heuristic.p99_ns", percentile(&heuristic, 99.0)),
        ("serve.repair.heuristic.share", heuristic_ns / whole.total()),
        ("serve.repair.moves_per_event", c.moves as f64 / events),
        ("serve.gap.ns_per_call", gap.total() / events),
        ("bench.trace_overhead_pct", (whole.total() / (plain.total() * 1e9) - 1.0) * 100.0),
        ("bench.layer_coverage", layer_ns / wall_ns),
    ]);
}
