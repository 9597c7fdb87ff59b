//! Fast-exact frontier: the partitioned load-range search against plain
//! bisection, plus the one-shot min-cost-flow backend.
//!
//! The workload is the tall (n ≫ p) unit sweep of the `fast-exact-tall`
//! bench group — loose counting bounds, so the load-range search really
//! probes. Three backends over the same instances:
//!
//! * `bisection` — plain bisection of the `[⌈n/p⌉, greedy]` bracket with
//!   the deficiency bound over all `p` processors; every probe solves the
//!   whole graph (`cost_scaling_cold_in`).
//! * `partitioned` — the shipped solver: every infeasible probe partitions
//!   the instance, the search continues on the saturated high side and
//!   the deficiency bound sharpens to its processors (`cost_scaling_in`).
//! * `mcf` — one min-cost max-flow with convex unit-arc bundles; no
//!   probe loop at all (`mcf_in`).
//!
//! Both searches probe with the same engine (Dinic on the bipartite graph
//! itself), so their contrast is partitioning and the sharpened bound.
//! Everything runs under a **1-worker local pool**. Per backend the run
//! records best-of-3 wall-clock seconds, the probe count (`oracle_calls`:
//! capacity probes for the search kinds, shortest-path augmentations for
//! `mcf`) and the flow-augmentation count metered off the workspace. The
//! run asserts all three land on identical makespans, then writes
//! `results/BENCH_fast_exact.md` and `results/BENCH_fast_exact.json`
//! (with `host_cores`, `threads` and the git revision, so numbers are
//! read in context, plus a `metrics` object holding the run's whole
//! telemetry registry — probe and partition counts, span histograms,
//! pool stats). An existing JSON recorded on a host with a different
//! core count is only overwritten under `--force`.

use std::sync::Arc;
use std::time::Instant;

use semimatch_bench::{
    emit_report, guard_host_cores, indent_json, markdown_table, record_pool_stats, Options,
    RunStamp,
};
use semimatch_core::exact::{cost_scaling_cold_in, cost_scaling_in, mcf_in};
use semimatch_gen::rng::Xoshiro256;
use semimatch_gen::{fewg_manyg, hilo_permuted};
use semimatch_graph::Bipartite;
use semimatch_matching::SearchWorkspace;

/// Timing repeats per backend; the best run is reported (counters are
/// identical across repeats — the backends are deterministic).
const REPEATS: usize = 3;

/// The tall loose-bound unit sweep of the `fast-exact-tall` bench group:
/// g = 4, d = 2 skews eligibility toward few processors per group, so the
/// optimum sits well above the `⌈n/p⌉` counting bound and the load-range
/// search genuinely probes in both directions.
fn tall_sweep(count: u64, n: u32, p: u32) -> Vec<Bipartite> {
    let root = Xoshiro256::seed_from_u64(42);
    (0..count)
        .map(|i| {
            let mut rng = root.stream(i);
            if i % 2 == 0 {
                hilo_permuted(n, p, 4, 2, &mut rng)
            } else {
                fewg_manyg(n, p, 4, 2, &mut rng)
            }
        })
        .collect()
}

struct Row {
    backend: &'static str,
    seconds: f64,
    probes: u64,
    augmentations: u64,
    checksum: u64,
}

/// Times one backend over the whole sweep, best of [`REPEATS`]. A fresh
/// workspace per repeat keeps repeats independent; within a repeat the
/// workspace is shared across instances, exactly like a serving loop.
fn run_backend(
    backend: &'static str,
    tall: &[Bipartite],
    pool: &rayon::ThreadPool,
    solve: impl Fn(&Bipartite, &mut SearchWorkspace) -> (u64, u32) + Sync,
) -> Row {
    let mut best = f64::INFINITY;
    let mut probes = 0u64;
    let mut augmentations = 0u64;
    let mut checksum = 0u64;
    for _ in 0..REPEATS {
        let mut ws = SearchWorkspace::new();
        let start = Instant::now();
        let (sum, calls, augs) = pool.install(|| {
            let mut sum = 0u64;
            let mut calls = 0u64;
            let before = ws.flow_augmentations();
            for g in tall {
                let (makespan, oracle_calls) = solve(g, &mut ws);
                sum += makespan;
                calls += oracle_calls as u64;
            }
            (sum, calls, ws.flow_augmentations() - before)
        });
        best = best.min(start.elapsed().as_secs_f64());
        probes = calls;
        augmentations = augs;
        checksum = sum;
    }
    Row { backend, seconds: best, probes, augmentations, checksum }
}

fn main() {
    let opts = Options::from_args();
    let scale = opts.scale.max(1);
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    guard_host_cores("BENCH_fast_exact.json", host_cores, opts.force);
    // The timed sections all run under the 1-worker local pool below.
    let stamp = RunStamp::capture(1);
    // Telemetry for the whole run: solver counters accumulate across every
    // backend and repeat, and land as the report's `metrics` object.
    let collecting = Arc::new(semimatch_obs::Collecting::new());
    semimatch_obs::install(collecting.clone());
    // p = 32 keeps HiLo's p-divisible-by-g precondition (g = 16).
    let (n, p) = ((8192 / scale).max(64), 32);
    let count = opts.instances.max(2);
    let tall = tall_sweep(count, n, p);
    // One worker: nothing runs in parallel.
    let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().expect("local pool");

    let rows = [
        run_backend("bisection", &tall, &pool, |g, ws| {
            let r = cost_scaling_cold_in(g, ws).expect("generated instances are unit + covered");
            (r.makespan, r.oracle_calls)
        }),
        run_backend("partitioned", &tall, &pool, |g, ws| {
            let r = cost_scaling_in(g, ws).expect("generated instances are unit + covered");
            (r.makespan, r.oracle_calls)
        }),
        run_backend("mcf", &tall, &pool, |g, ws| {
            let r = mcf_in(g, ws).expect("generated instances are unit + covered");
            (r.makespan, r.oracle_calls)
        }),
    ];
    for r in &rows[1..] {
        assert_eq!(r.checksum, rows[0].checksum, "{}: exact backends disagreed", r.backend);
    }
    record_pool_stats(&pool.stats());
    semimatch_obs::uninstall();
    let metrics = collecting.registry().render_json();
    let bisection = &rows[0];
    let partitioned = &rows[1];
    let speedup = bisection.seconds / partitioned.seconds.max(f64::EPSILON);

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.backend.to_string(),
                format!("{:.4}", r.seconds),
                r.probes.to_string(),
                r.augmentations.to_string(),
                format!("{:.2}×", bisection.seconds / r.seconds.max(f64::EPSILON)),
            ]
        })
        .collect();
    let report = format!(
        "# Fast exact: the partitioned load-range search and the min-cost-flow backend\n\n\
         Tall unit sweep (the `fast-exact-tall` instances): {count} instances, \
         n = {n}, p = {p}, seed = {}, best of {REPEATS} runs under a 1-worker \
         pool (nothing runs in parallel), host cores = {host_cores}.\n\n\
         \"probes\" counts capacity probes for the load-range kinds and \
         shortest-path augmentations for `mcf`; \"augmentations\" counts the \
         augmenting paths of every flow solve. All backends returned identical \
         makespans (Σ = {}).\n\n{}\n\
         Partitioning and the sharpened deficiency bound make the search \
         {speedup:.2}× faster than plain bisection; both probe with the same \
         engine.\n\n\
         Score-identity of every exact kind — including `mcf` on weighted \
         total-load instances — is enforced by `tests/exact_agreement.rs`.\n",
        opts.seed,
        bisection.checksum,
        markdown_table(
            &["backend", "seconds", "probes", "augmentations", "speedup vs bisection"],
            &table
        ),
    );
    emit_report("BENCH_fast_exact.md", &report);

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"meta\": {{\"scale\": {scale}, \"instances\": {count}, \"n\": {n}, \"p\": {p}, \
         \"seed\": {}, {}, \"repeats\": {REPEATS}, \
         \"pool_threads\": 1, \"partitioned_speedup_vs_bisection\": {speedup:.4}}},\n  \"rows\": [\n",
        opts.seed,
        stamp.json_fields()
    ));
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"backend\": \"{}\", \"seconds\": {:.6}, \"probes\": {}, \
             \"augmentations\": {}, \"makespan_sum\": {}}}{}\n",
            r.backend,
            r.seconds,
            r.probes,
            r.augmentations,
            r.checksum,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    // Whole-run telemetry (all backends × repeats): solver counters,
    // span histograms and pool stats.
    json.push_str(&format!("  \"metrics\": {}\n", indent_json(&metrics, "  ")));
    json.push_str("}\n");
    emit_report("BENCH_fast_exact.json", &json);
}
