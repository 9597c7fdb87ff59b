//! Parallel scaling: the in-run parallel path, run under local pools of
//! 1, 2, 4, … workers.
//!
//! * **fast-exact-tall** — the tall (n ≫ p) unit sweep from the
//!   `repeat_solve` bench, solved by `hk-semi`, whose phases extract
//!   augmenting paths on the work-stealing pool.
//!
//! Every (workload, pool size) cell reports best-of-`REPEATS` wall-clock
//! seconds and the speedup over the 1-worker run of the same workload;
//! the run asserts the result checksum is identical at every pool size
//! (the determinism contract). The report lands as markdown **and** as
//! `results/BENCH_parallel.json` with the host core count — on a 1-core
//! host the pools are oversubscribed and the speedup column honestly
//! records ≈1× (the numbers are only meaningful read next to
//! `host_cores`).

use std::sync::Arc;
use std::time::Instant;

use semimatch_bench::{
    emit_report, guard_host_cores, indent_json, markdown_table, record_pool_stats, Options,
    RunStamp,
};
use semimatch_core::objective::Objective;
use semimatch_core::solver::{solve_many, Problem, SolverKind};
use semimatch_gen::rng::Xoshiro256;
use semimatch_gen::{fewg_manyg, hilo_permuted};
use semimatch_graph::Bipartite;

/// Timing repeats per cell; the best run is reported.
const REPEATS: usize = 3;

/// Pool sizes to sweep: 1, 2, 4 and (when larger) every host core.
fn thread_counts() -> Vec<usize> {
    let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut ts = vec![1usize, 2, 4];
    if host > 4 {
        ts.push(host);
    }
    ts
}

/// The tall unit sweep of the `fast-exact-tall` bench group.
fn tall_sweep(count: u64, n: u32, p: u32) -> Vec<Bipartite> {
    let root = Xoshiro256::seed_from_u64(42);
    (0..count)
        .map(|i| {
            let mut rng = root.stream(i);
            if i % 2 == 0 {
                hilo_permuted(n, p, 16, 6, &mut rng)
            } else {
                fewg_manyg(n, p, 16, 6, &mut rng)
            }
        })
        .collect()
}

struct Cell {
    workload: String,
    threads: usize,
    seconds: f64,
}

/// Runs `work` under a `threads`-worker pool `REPEATS` times; returns
/// (best seconds, checksum).
fn time_under<F: FnMut() -> u64 + Send>(threads: usize, mut work: F) -> (f64, u64) {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("local pool");
    let mut best = f64::INFINITY;
    let mut checksum = 0u64;
    for _ in 0..REPEATS {
        let start = Instant::now();
        checksum = pool.install(&mut work);
        best = best.min(start.elapsed().as_secs_f64());
    }
    // Additive fold across every local pool of the sweep: the report's
    // `metrics` object then carries fleet totals (tasks, steals, sleeps).
    record_pool_stats(&pool.stats());
    (best, checksum)
}

fn main() {
    let opts = Options::from_args();
    let scale = opts.scale.max(1);
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    guard_host_cores("BENCH_parallel.json", host_cores, opts.force);
    let counts = thread_counts();
    let stamp = RunStamp::capture(*counts.last().expect("nonempty"));
    let collecting = Arc::new(semimatch_obs::Collecting::new());
    semimatch_obs::install(collecting.clone());

    // p = 32 keeps HiLo's p-divisible-by-g precondition (g = 16).
    let tall = tall_sweep(16, (8192 / scale).max(64), 32);
    let tall_problems: Vec<Problem<'_>> = tall.iter().map(Problem::SingleProc).collect();

    let mut cells: Vec<Cell> = Vec::new();
    let mut checksums: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for &t in &counts {
        let kind = SolverKind::HopcroftKarpSemi;
        let (secs, sum) = time_under(t, || {
            solve_many(&tall_problems, &[kind], Objective::Makespan)
                .iter()
                .zip(&tall_problems)
                .map(|(r, p)| r[0].as_ref().unwrap().makespan(p).unwrap())
                .sum()
        });
        let workload = format!("fast-exact-tall/{}", kind.name());
        match checksums.get(&workload) {
            None => {
                checksums.insert(workload.clone(), sum);
            }
            Some(&expect) => assert_eq!(sum, expect, "{workload}: result changed at {t} threads"),
        }
        cells.push(Cell { workload, threads: t, seconds: secs });
    }

    semimatch_obs::uninstall();
    let metrics = collecting.registry().render_json();

    let base = |w: &str| -> f64 {
        cells.iter().find(|c| c.workload == w && c.threads == 1).expect("1-thread cell").seconds
    };

    // Aggregate speedup at the widest pool: total 1-thread time over
    // total widest-pool time.
    let widest = *counts.last().expect("nonempty");
    let total_1: f64 = cells.iter().filter(|c| c.threads == 1).map(|c| c.seconds).sum();
    let total_w: f64 = cells.iter().filter(|c| c.threads == widest).map(|c| c.seconds).sum();
    let aggregate = total_1 / total_w.max(f64::EPSILON);

    // Markdown: workloads as rows, pool sizes as columns.
    let mut headers = vec!["Workload".to_string()];
    headers.extend(counts.iter().map(|t| format!("{t}T s (×)")));
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let workloads: Vec<String> = checksums.keys().cloned().collect();
    let rows: Vec<Vec<String>> = workloads
        .iter()
        .map(|w| {
            let mut row = vec![w.clone()];
            for &t in &counts {
                let c = cells
                    .iter()
                    .find(|c| &c.workload == w && c.threads == t)
                    .expect("cell computed above");
                row.push(format!(
                    "{:.3} ({:.2}×)",
                    c.seconds,
                    base(w) / c.seconds.max(f64::EPSILON)
                ));
            }
            row
        })
        .collect();
    let report = format!(
        "# Parallel scaling\n\nscale = {}, seed = {}, host cores = {}, repeats = {}\n\n{}\n\
         aggregate speedup at {} workers: {:.2}×\n\n\
         Checksums identical at every pool size (deterministic-equivalent \
         parallel paths).\n",
        scale,
        opts.seed,
        host_cores,
        REPEATS,
        markdown_table(&header_refs, &rows),
        widest,
        aggregate
    );
    emit_report("parallel_scaling.md", &report);

    // Machine-readable trajectory record.
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"meta\": {{\"scale\": {}, \"seed\": {}, {}, \"repeats\": {}, \
         \"widest_pool\": {}, \"aggregate_speedup_at_widest\": {:.4}}},\n  \"rows\": [\n",
        scale,
        opts.seed,
        stamp.json_fields(),
        REPEATS,
        widest,
        aggregate
    ));
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workload\": \"{}\", \"threads\": {}, \"seconds\": {:.6}, \
             \"speedup_vs_1t\": {:.4}}}{}\n",
            c.workload,
            c.threads,
            c.seconds,
            base(&c.workload) / c.seconds.max(f64::EPSILON),
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    // Whole-sweep telemetry: solver counters across every pool size plus
    // the summed work-stealing stats of all local pools.
    json.push_str(&format!("  \"metrics\": {}\n", indent_json(&metrics, "  ")));
    json.push_str("}\n");
    emit_report("BENCH_parallel.json", &json);
}
