//! Repeat-solve amortization: cold per-call scratch vs workspace-reusing
//! batched solving.
//!
//! The serving scenario behind the `Solver` trait: the same solver runs
//! over a sweep of same-shaped instances (deadline probes, bench grids,
//! request traffic). "cold" re-allocates every engine's scratch per
//! instance (the stateless `solve` facade); "warm" drives the sweep through
//! `solve_many` / a reused `SearchWorkspace`, so scratch is allocated once
//! and reset in `O(active)` between runs.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use semimatch_core::exact::{cost_scaling_cold_in, cost_scaling_in};
use semimatch_core::objective::Objective;
use semimatch_core::solver::{solve, solve_many, Problem, Solver, SolverKind};
use semimatch_gen::rng::Xoshiro256;
use semimatch_gen::{fewg_manyg, hilo_permuted};
use semimatch_graph::Bipartite;
use semimatch_matching::{maximum_matching, maximum_matching_in, Algorithm, SearchWorkspace};

/// A sweep of same-shaped instances, alternating both bipartite families.
fn sweep(count: u64, n: u32, p: u32, g: u32, d: u32) -> Vec<Bipartite> {
    let root = Xoshiro256::seed_from_u64(42);
    (0..count)
        .map(|i| {
            let mut rng = root.stream(i);
            if i % 2 == 0 {
                hilo_permuted(n, p, g, d, &mut rng)
            } else {
                fewg_manyg(n, p, g, d, &mut rng)
            }
        })
        .collect()
}

fn bench_repeat_solve(c: &mut Criterion) {
    let instances = sweep(24, 2048, 128, 16, 6);
    let problems: Vec<Problem<'_>> = instances.iter().map(Problem::SingleProc).collect();
    let kinds = [
        SolverKind::ExactBisection,
        SolverKind::ExactReplicated,
        SolverKind::HopcroftKarpSemi,
        SolverKind::CostScaling,
        SolverKind::MinCostFlow,
    ];

    let mut group = c.benchmark_group("repeat-solve");
    group.sample_size(10).measurement_time(Duration::from_secs(4));
    for kind in kinds {
        // Cold: the stateless facade, fresh scratch per instance.
        group.bench_with_input(BenchmarkId::new("cold", kind.name()), &problems, |b, ps| {
            b.iter(|| {
                ps.iter().map(|&p| solve(p, kind).unwrap().makespan(&p).unwrap()).sum::<u64>()
            })
        });
        // Warm: one workspace-backed solver serves the whole sweep.
        group.bench_with_input(BenchmarkId::new("warm", kind.name()), &problems, |b, ps| {
            b.iter(|| {
                let row: u64 = solve_many(ps, &[kind], Objective::Makespan)
                    .iter()
                    .zip(ps)
                    .map(|(r, p)| r[0].as_ref().unwrap().makespan(p).unwrap())
                    .sum();
                row
            })
        });
    }
    group.finish();

    // The same contrast one layer down, on the raw matching engines.
    let mut group = c.benchmark_group("repeat-matching");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    for algo in [Algorithm::HopcroftKarp, Algorithm::PushRelabel] {
        group.bench_with_input(BenchmarkId::new("cold", algo.name()), &instances, |b, gs| {
            b.iter(|| gs.iter().map(|g| maximum_matching(g, algo).cardinality()).sum::<usize>())
        });
        group.bench_with_input(BenchmarkId::new("warm", algo.name()), &instances, |b, gs| {
            let mut ws = SearchWorkspace::new();
            b.iter(|| {
                gs.iter()
                    .map(|g| maximum_matching_in(g, algo, &mut ws).cardinality())
                    .sum::<usize>()
            })
        });
    }
    group.finish();

    // The fast-exact contrast: tall (n ≫ p) loose-bound unit instances
    // (g = 4, d = 2 skews eligibility, pushing the optimum well above the
    // ⌈n/p⌉ counting bound), where the generalized Hopcroft–Karp phases
    // skip the matching oracle entirely and the load-range
    // divide-and-conquer brackets with a greedy witness. Row pair recorded
    // in results/BENCH_fast_exact.md.
    let tall = sweep(16, 8192, 32, 4, 2);
    let tall_problems: Vec<Problem<'_>> = tall.iter().map(Problem::SingleProc).collect();
    let mut group = c.benchmark_group("fast-exact-tall");
    group.sample_size(10).measurement_time(Duration::from_secs(4));
    for kind in kinds {
        group.bench_with_input(BenchmarkId::new("warm", kind.name()), &tall_problems, |b, ps| {
            b.iter(|| {
                let row: u64 = solve_many(ps, &[kind], Objective::Makespan)
                    .iter()
                    .zip(ps)
                    .map(|(r, p)| r[0].as_ref().unwrap().makespan(p).unwrap())
                    .sum();
                row
            })
        });
    }
    // The partitioned load-range search against plain bisection: the same
    // bracket and probe engine, but "bisection" never partitions the
    // instance and bounds the deficiency over all processors. Probe and
    // augmentation counters for the same contrast live in
    // results/BENCH_fast_exact.json (the fast_exact bin).
    group.bench_with_input(BenchmarkId::new("partitioned", "cost-scaling"), &tall, |b, gs| {
        let mut ws = SearchWorkspace::new();
        b.iter(|| gs.iter().map(|g| cost_scaling_in(g, &mut ws).unwrap().makespan).sum::<u64>())
    });
    group.bench_with_input(BenchmarkId::new("bisection", "cost-scaling"), &tall, |b, gs| {
        let mut ws = SearchWorkspace::new();
        b.iter(|| {
            gs.iter().map(|g| cost_scaling_cold_in(g, &mut ws).unwrap().makespan).sum::<u64>()
        })
    });
    group.finish();

    // Sanity: warm and cold must agree bit-for-bit, and the fast exact
    // backends must land on the reference optimum (run once, not timed).
    let mut warm = SolverKind::ExactBisection.solver();
    for &p in &problems[..4] {
        assert_eq!(warm.solve(p).unwrap(), solve(p, SolverKind::ExactBisection).unwrap());
    }
    for (g, &p) in tall.iter().zip(&tall_problems).take(2) {
        let opt = solve(p, SolverKind::ExactBisection).unwrap().makespan(&p).unwrap();
        for kind in [SolverKind::HopcroftKarpSemi, SolverKind::CostScaling, SolverKind::MinCostFlow]
        {
            assert_eq!(solve(p, kind).unwrap().makespan(&p).unwrap(), opt, "{kind} missed opt");
        }
        let mut ws = SearchWorkspace::new();
        assert_eq!(cost_scaling_in(g, &mut ws).unwrap().makespan, opt, "partitioned missed opt");
        assert_eq!(cost_scaling_cold_in(g, &mut ws).unwrap().makespan, opt, "bisection missed opt");
    }
}

criterion_group!(benches, bench_repeat_solve);
criterion_main!(benches);
