//! Tables II/III timing reproduction: SGH, VGH, EGH, EVG on the paper's
//! own instance sizes (`FG-5-1-MP`, `MG-5-1-MP`, `HLF-5-1-MP`,
//! `HLM-5-1-MP`; unit and related weights). The paper's Matlab numbers put
//! VGH/EVG roughly an order of magnitude above SGH/EGH — the *relative*
//! ordering is the reproduction target.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use semimatch_core::{Problem, SolverKind};
use semimatch_gen::params::{Config, Family};
use semimatch_gen::weights::WeightScheme;

fn bench_multiproc(c: &mut Criterion) {
    let mut group = c.benchmark_group("multiproc");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    for weights in [WeightScheme::Unit, WeightScheme::Related] {
        for family in [Family::Fg, Family::Mg, Family::Hlf, Family::Hlm] {
            let cfg = Config { family, n: 1280, p: 256, dv: 5, dh: 10, weights };
            let h = cfg.instance(42, 0);
            for kind in SolverKind::HYPER_HEURISTICS {
                group.bench_with_input(BenchmarkId::new(kind.label(), cfg.name()), &h, |b, h| {
                    let problem = Problem::MultiProc(h);
                    b.iter(|| kind.solve(problem).unwrap().makespan(&problem).unwrap())
                });
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_multiproc);
criterion_main!(benches);
