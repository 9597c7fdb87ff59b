//! Serving-daemon scale: aggregate event throughput of the multi-tenant
//! daemon across tenant counts × shard counts × repair policies.
//!
//! Every cell generates a Zipf-multiplexed workload (`generate_multiplexed`,
//! hotness 1 — tenant 0 dominates), routes it through a fresh
//! [`Daemon`] in batches, and reports best-of-`REPEATS` aggregate
//! events/s. Two contracts are asserted while timing:
//!
//! * **determinism** — per-tenant final scores are identical at every
//!   shard count of the same (tenants, policy) cell (sharding is purely a
//!   throughput knob);
//! * **no silent shedding** — the batch size stays below the queue bound,
//!   so a nonzero shed counter fails the run instead of quietly deflating
//!   the numbers.
//!
//! The report lands as markdown and as `results/BENCH_serve_scale.json`
//! with the `threads`/`host_cores`/git stamp of the other bench bins; the
//! `guard_host_cores` check refuses to overwrite results from a different
//! machine without `--force`. On a 1-core host the multi-shard rows are
//! oversubscribed — read them next to `host_cores`.

use std::sync::Arc;
use std::time::Instant;

use semimatch_bench::{
    emit_report, guard_host_cores, indent_json, markdown_table, record_pool_stats, Options,
    RunStamp,
};
use semimatch_daemon::{Daemon, DaemonConfig};
use semimatch_gen::rng::Xoshiro256;
use semimatch_gen::trace::{generate_multiplexed, MultiplexParams, MultiplexedTrace, TraceParams};
use semimatch_serve::{EngineConfig, RepairPolicy};

/// Timing repeats per cell; the best run is reported.
const REPEATS: usize = 3;

/// Events accepted between pumps (below `queue_capacity`, so nothing is
/// shed at this load).
const BATCH: usize = 512;

/// Tenant counts swept (the {1, 8, 64} grid of the acceptance bar).
const TENANT_COUNTS: [u32; 3] = [1, 8, 64];

/// The policies compared: always-repair, drift-bounded, periodic
/// from-scratch resolves, and placement-only (no repair ever fires). The
/// last row isolates the router + greedy-placement pipe itself; it is the
/// aggregate-throughput ceiling the repairing policies trade quality work
/// against.
fn policies() -> [RepairPolicy; 4] {
    [
        RepairPolicy::Eager,
        RepairPolicy::Lazy { slack: 8 },
        RepairPolicy::Periodic { every: 64 },
        RepairPolicy::PlacementOnly,
    ]
}

/// Shard counts swept: single-shard and one shard per host core (with a
/// floor of 2 so the cross-shard determinism assert always has a
/// multi-shard row, even on a 1-core host).
fn shard_counts(host_cores: usize) -> Vec<u32> {
    let wide = (host_cores as u32).max(2);
    if wide == 1 {
        vec![1]
    } else {
        vec![1, wide]
    }
}

/// The multiplexed workload of one tenant count: Zipf hotness 1, weighted
/// hypergraph configurations, moderate churn, no processor churn (the
/// per-tenant pools stay at 16).
fn workload(tenants: u32, scale: u32, seed: u64) -> MultiplexedTrace {
    let params = MultiplexParams {
        tenants,
        hotness: 1,
        per_tenant: TraceParams {
            n_procs: 16,
            arrivals: (8192 / scale).max(128),
            churn_pct: 20,
            max_configs: 3,
            max_pins: 2,
            max_weight: 8,
            proc_events: 0,
            burst_every: 0,
            burst_len: 0,
        },
    };
    generate_multiplexed(&params, &mut Xoshiro256::seed_from_u64(seed))
}

struct Cell {
    tenants: u32,
    shards: u32,
    policy: RepairPolicy,
    events: u64,
    seconds: f64,
}

impl Cell {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.seconds.max(f64::EPSILON)
    }
}

fn main() {
    let opts = Options::from_args();
    let scale = opts.scale.max(1);
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    guard_host_cores("BENCH_serve_scale.json", host_cores, opts.force);
    let shard_grid = shard_counts(host_cores);
    let stamp = RunStamp::capture(opts.threads);
    let collecting = Arc::new(semimatch_obs::Collecting::new());
    semimatch_obs::install(collecting.clone());
    let pool =
        rayon::ThreadPoolBuilder::new().num_threads(opts.threads).build().expect("local pool");

    let mut cells: Vec<Cell> = Vec::new();
    for &tenants in &TENANT_COUNTS {
        let trace = workload(tenants, scale, opts.seed);
        for policy in policies() {
            // Per-tenant final scores of the 1-shard run; every other
            // shard count must reproduce them exactly.
            let mut pinned: Option<Vec<(u32, u128)>> = None;
            for &shards in &shard_grid {
                let cfg = DaemonConfig {
                    shards,
                    engine: EngineConfig { policy, ..EngineConfig::default() },
                    queue_capacity: BATCH * 4,
                    migration_budget: u64::MAX,
                    max_tenants: tenants as usize,
                    slo_gap: u128::MAX,
                };
                let mut best = f64::INFINITY;
                let mut events = 0u64;
                for _ in 0..REPEATS {
                    let mut daemon = Daemon::new(cfg).expect("validated config");
                    let start = Instant::now();
                    pool.install(|| daemon.run(&trace, BATCH).expect("applicable trace"));
                    best = best.min(start.elapsed().as_secs_f64());
                    let c = daemon.counters();
                    assert_eq!(c.shed(), 0, "this load must not shed");
                    events = c.applied;
                    let scores: Vec<(u32, u128)> =
                        daemon.statuses().iter().map(|s| (s.tenant, s.score.0)).collect();
                    match &pinned {
                        None => pinned = Some(scores),
                        Some(expect) => assert_eq!(
                            &scores, expect,
                            "{tenants} tenants / {policy}: scores changed at {shards} shards"
                        ),
                    }
                }
                cells.push(Cell { tenants, shards, policy, events, seconds: best });
            }
        }
    }

    record_pool_stats(&pool.stats());
    semimatch_obs::uninstall();
    let metrics = collecting.registry().render_json();

    let peak = cells.iter().map(Cell::events_per_sec).fold(0.0f64, f64::max);
    let headers = ["Tenants", "Shards", "Policy", "Events", "Seconds", "Events/s"];
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.tenants.to_string(),
                c.shards.to_string(),
                c.policy.to_string(),
                c.events.to_string(),
                format!("{:.4}", c.seconds),
                format!("{:.0}", c.events_per_sec()),
            ]
        })
        .collect();
    let report = format!(
        "# Serving-daemon scale\n\nscale = {}, seed = {}, host cores = {}, repeats = {}, \
         batch = {}\n\n{}\npeak aggregate throughput: {:.0} events/s\n\n\
         Per-tenant final scores identical at every shard count of each \
         (tenants, policy) cell; zero events shed.\n",
        scale,
        opts.seed,
        host_cores,
        REPEATS,
        BATCH,
        markdown_table(&headers, &rows),
        peak
    );
    emit_report("serve_scale.md", &report);

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"meta\": {{\"scale\": {}, \"seed\": {}, {}, \"repeats\": {}, \"batch\": {}, \
         \"tenant_counts\": [1, 8, 64], \"shard_counts\": {:?}, \
         \"peak_events_per_sec\": {:.0}}},\n  \"rows\": [\n",
        scale,
        opts.seed,
        stamp.json_fields(),
        REPEATS,
        BATCH,
        shard_grid,
        peak
    ));
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"tenants\": {}, \"shards\": {}, \"policy\": \"{}\", \"events\": {}, \
             \"seconds\": {:.6}, \"events_per_sec\": {:.0}}}{}\n",
            c.tenants,
            c.shards,
            c.policy,
            c.events,
            c.seconds,
            c.events_per_sec(),
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"metrics\": {}\n", indent_json(&metrics, "  ")));
    json.push_str("}\n");
    emit_report("BENCH_serve_scale.json", &json);
}
