//! Design-choice ablations (DESIGN.md §6):
//!
//! * the naive `O(d_v |V2| log |V2|)` vector heuristics vs the
//!   sorted-list/multiset-difference variants sketched in §IV-D3 — the gap
//!   widens with `|V2|`;
//! * SGH's paper criterion (current load) vs the resulting-load variant;
//! * local-search refinement cost on top of a heuristic.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use semimatch_core::hyper::evg::{expected_vector_greedy_hyp, expected_vector_greedy_hyp_naive};
use semimatch_core::hyper::sgh::{sorted_greedy_hyp, sorted_greedy_hyp_resulting};
use semimatch_core::hyper::vgh::{
    vector_greedy_hyp, vector_greedy_hyp_naive, vector_greedy_hyp_pinwise,
};
use semimatch_core::online::{online_schedule, OnlineRule};
use semimatch_core::refine::refine;
use semimatch_gen::params::{Config, Family};
use semimatch_gen::weights::WeightScheme;

fn bench_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation");
    group.sample_size(10).measurement_time(Duration::from_secs(3));

    // Growing processor count at fixed n: the naive variants scale with
    // |V2|, the optimized ones with hyperedge sizes only.
    for p in [256u32, 1024, 4096] {
        let cfg = Config {
            family: Family::Fg,
            n: 2560,
            p,
            dv: 5,
            dh: 10,
            weights: WeightScheme::Related,
        };
        let h = cfg.instance(42, 0);
        group.bench_with_input(BenchmarkId::new("vgh-optimized", p), &h, |b, h| {
            b.iter(|| vector_greedy_hyp(h).unwrap().makespan(h))
        });
        group.bench_with_input(BenchmarkId::new("vgh-naive", p), &h, |b, h| {
            b.iter(|| vector_greedy_hyp_naive(h).unwrap().makespan(h))
        });
        group.bench_with_input(BenchmarkId::new("vgh-pinwise", p), &h, |b, h| {
            b.iter(|| vector_greedy_hyp_pinwise(h).unwrap().makespan(h))
        });
        group.bench_with_input(BenchmarkId::new("evg-optimized", p), &h, |b, h| {
            b.iter(|| expected_vector_greedy_hyp(h).unwrap().makespan(h))
        });
        group.bench_with_input(BenchmarkId::new("evg-naive", p), &h, |b, h| {
            b.iter(|| expected_vector_greedy_hyp_naive(h).unwrap().makespan(h))
        });
    }

    let cfg = Config {
        family: Family::Mg,
        n: 2560,
        p: 512,
        dv: 5,
        dh: 10,
        weights: WeightScheme::Related,
    };
    let h = cfg.instance(42, 0);
    group.bench_function("sgh-paper-criterion", |b| {
        b.iter(|| sorted_greedy_hyp(&h).unwrap().makespan(&h))
    });
    group.bench_function("sgh-resulting-criterion", |b| {
        b.iter(|| sorted_greedy_hyp_resulting(&h).unwrap().makespan(&h))
    });
    group.bench_function("bgh-no-sort", |b| {
        b.iter(|| online_schedule(&h, OnlineRule::MinBottleneck).unwrap().makespan(&h))
    });
    group.bench_function("sgh-plus-refinement", |b| {
        b.iter(|| {
            let mut hm = sorted_greedy_hyp(&h).unwrap();
            refine(&h, &mut hm, 16).unwrap();
            hm.makespan(&h)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
