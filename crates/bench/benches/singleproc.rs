//! §V-B timing reproduction: the four `SINGLEPROC-UNIT` greedy heuristics
//! vs the exact algorithm on both generator families (paper sizes
//! n = 5120, p = 1024, d = 10).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use semimatch_core::exact::{exact_unit, SearchStrategy};
use semimatch_core::{Problem, SolverKind};
use semimatch_gen::rng::Xoshiro256;
use semimatch_gen::{fewg_manyg, hilo_permuted};

fn bench_singleproc(c: &mut Criterion) {
    let mut rng = Xoshiro256::seed_from_u64(42);
    let instances = vec![
        ("hilo-20-4", hilo_permuted(5120, 1024, 32, 10, &mut rng)),
        ("fewgmanyg-20-4", fewg_manyg(5120, 1024, 32, 10, &mut rng)),
    ];
    let mut group = c.benchmark_group("singleproc");
    group.sample_size(20).measurement_time(Duration::from_secs(3));
    for (name, g) in &instances {
        for kind in SolverKind::BI_HEURISTICS {
            group.bench_with_input(BenchmarkId::new(kind.label(), name), g, |b, g| {
                let problem = Problem::SingleProc(g);
                b.iter(|| kind.solve(problem).unwrap().makespan(&problem).unwrap())
            });
        }
        group.bench_with_input(BenchmarkId::new("exact-bisection", name), g, |b, g| {
            b.iter(|| exact_unit(g, SearchStrategy::Bisection).unwrap().makespan)
        });
    }
    group.finish();
}

criterion_group!(benches, bench_singleproc);
criterion_main!(benches);
