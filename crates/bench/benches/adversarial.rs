//! Fig. 3 family at growing `k`: heuristic and exact running times on the
//! adversarial instances (they are sparse, so everything should stay
//! near-linear even as the quality of basic/sorted degrades to `k`).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use semimatch_core::exact::{exact_unit, harvey_exact, SearchStrategy};
use semimatch_core::{Problem, SolverKind};
use semimatch_gen::adversarial::fig3;

fn bench_adversarial(c: &mut Criterion) {
    let mut group = c.benchmark_group("adversarial-fig3");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    for k in [10u32, 13, 16] {
        let g = fig3(k);
        for kind in SolverKind::BI_HEURISTICS {
            group.bench_with_input(BenchmarkId::new(kind.label(), k), &g, |b, g| {
                let problem = Problem::SingleProc(g);
                b.iter(|| kind.solve(problem).unwrap().makespan(&problem).unwrap())
            });
        }
        group.bench_with_input(BenchmarkId::new("exact-bisection", k), &g, |b, g| {
            b.iter(|| exact_unit(g, SearchStrategy::Bisection).unwrap().makespan)
        });
        if k <= 13 {
            group.bench_with_input(BenchmarkId::new("harvey", k), &g, |b, g| {
                b.iter(|| harvey_exact(g).unwrap().makespan(g))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_adversarial);
criterion_main!(benches);
