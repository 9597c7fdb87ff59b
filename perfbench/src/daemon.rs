//! `daemon-placement`: a 64-tenant `Daemon` under the placement-only
//! policy, fed a Zipf-skewed multiplexed trace in one closed loop, pumped
//! every `BATCH` accepted submits on a 2-worker pool, with the program's
//! collecting recorder installed and `publish_metrics` after every pump.
//!
//! Every round stamps four instants per batch — window open, pump start,
//! pump end, publish end — so the batch's submits, pump and publish are
//! timed apart with no timer inside the submit loop. The traced pass adds
//! the pool's counters around each round; it is compared with
//! recorder-off rounds (`obs.overhead_pct`) and with standalone
//! placement-only engines fed each tenant's events
//! (`daemon.pump.engine_share`).

use std::sync::Arc;
use std::time::Instant;

use rayon::{ThreadPool, ThreadPoolBuilder};
use semimatch_daemon::{Daemon, DaemonConfig, DaemonCounters};
use semimatch_gen::rng::Xoshiro256;
use semimatch_gen::trace::{generate_multiplexed, MultiplexParams, MultiplexedTrace, TraceParams};
use semimatch_obs::Collecting;
use semimatch_serve::{Engine, EngineConfig, Event, RepairPolicy};

use crate::measure::{median, ns, rounds, setup_seconds, Best, Outcome, MIN_ROUNDS};

const POLICY: &str = "lazy:18446744073709551615";
const TENANTS: u32 = 64;
const SHARDS: u32 = 2;
const POOL_THREADS: usize = 2;
/// Accepted submits between pumps; queues hold `4 × BATCH`, so nothing
/// is shed at this load.
const BATCH: usize = 512;
/// Daemon builds (`Daemon::new` plus every `admit`) timed for `setup_s`.
const SETUP_REPS: usize = 21;
/// `statuses()` and per-engine `gap()` calls timed after a traced round.
const PROBE_REPS: usize = 64;

fn workload(seed: u64) -> MultiplexedTrace {
    let params = MultiplexParams {
        tenants: TENANTS,
        hotness: 1,
        per_tenant: TraceParams {
            n_procs: 16,
            arrivals: 65536,
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

fn config(policy: RepairPolicy) -> DaemonConfig {
    DaemonConfig {
        shards: SHARDS,
        engine: EngineConfig { policy, ..EngineConfig::default() },
        queue_capacity: BATCH * 4,
        migration_budget: u64::MAX,
        max_tenants: TENANTS as usize,
        slo_gap: u128::MAX,
    }
}

fn build(cfg: DaemonConfig, n_procs: u32) -> Daemon {
    let mut daemon = Daemon::new(cfg).expect("valid daemon config");
    for tenant in 0..TENANTS {
        daemon.admit(tenant, n_procs).expect("capacity fits every tenant");
    }
    daemon
}

/// One closed-loop round. Times are per batch window, in seconds: the
/// window is the batch's submits, its pump and its publish, in that order,
/// and the windows tile the loop.
struct Round {
    window: Vec<f64>,
    submit: Vec<f64>,
    pump: Vec<f64>,
    publish: Vec<f64>,
    /// Wall time of the whole loop.
    wall: f64,
    counters: DaemonCounters,
    scores: Vec<(u32, u128)>,
    /// Σ tenant score over Σ tenant lower bound.
    quality: f64,
}

/// Submits every event of `trace`, pumping and publishing after every
/// `BATCH` accepted submits, with the collecting recorder installed when
/// `recorder`. Returns the round and the daemon it ended with.
fn round(
    pool: &ThreadPool,
    cfg: DaemonConfig,
    trace: &MultiplexedTrace,
    recorder: bool,
) -> (Round, Daemon) {
    let events: Vec<(u32, Event)> = trace.events.clone();
    let mut daemon = build(cfg, trace.n_procs);
    if recorder {
        semimatch_obs::install(Arc::new(Collecting::new()));
    }
    let [mut window, mut submit, mut pump, mut publish] = std::array::from_fn(|_| Vec::new());
    let wall = pool.install(|| {
        let start = Instant::now();
        let mut opened = start;
        let mut queued = 0;
        let total = events.len();
        for (i, (tenant, ev)) in events.into_iter().enumerate() {
            // A submit that is not queued (full queue, unknown tenant)
            // fails `check_rounds`.
            queued += usize::from(daemon.submit(tenant, ev) == Ok(true));
            if queued == BATCH || (i + 1 == total && queued > 0) {
                let t0 = Instant::now();
                daemon.pump();
                let t1 = Instant::now();
                daemon.publish_metrics();
                let t2 = Instant::now();
                window.push((t2 - opened).as_secs_f64());
                submit.push((t0 - opened).as_secs_f64());
                pump.push((t1 - t0).as_secs_f64());
                publish.push((t2 - t1).as_secs_f64());
                (opened, queued) = (t2, 0);
            }
        }
        start.elapsed().as_secs_f64()
    });
    semimatch_obs::uninstall();
    let st = daemon.statuses();
    let scores = st.iter().map(|s| (s.tenant, s.score.0)).collect();
    let score: u128 = st.iter().map(|s| s.score.0).sum();
    let lower_bound: u128 = st.iter().map(|s| s.lower_bound.0).sum();
    let quality = score as f64 / lower_bound.max(1) as f64;
    let counters = daemon.counters();
    (Round { window, submit, pump, publish, wall, counters, scores, quality }, daemon)
}

/// Best-of-rounds times of one per-window series.
fn best(rounds: &[Round], series: impl Fn(&Round) -> &Vec<f64>) -> Best {
    let mut best = Best::default();
    for r in rounds {
        for (i, t) in series(r).iter().enumerate() {
            best.record(i, *t);
        }
    }
    best
}

/// The shed/applied contract, and equal per-tenant scores in every round.
fn check_rounds(out: &mut Outcome, events: usize, rounds: &[Round], reference: &[(u32, u128)]) {
    for r in rounds {
        let c = r.counters;
        out.attempted += events as u64;
        out.failed += c.shed() + (events as u64 - c.submitted - c.shed_queue_full);
        out.check(c.shed() == 0, || format!("{} events shed", c.shed()));
        out.check(c.applied == c.submitted && c.submitted == events as u64, || {
            format!("{} submitted, {} applied, of {events}", c.submitted, c.applied)
        });
        out.check(r.scores == reference, || "per-tenant final scores differ".into());
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let trace = workload(seed);
    let cfg = config(POLICY.parse().expect("CLI policy name"));
    let pool = ThreadPoolBuilder::new().num_threads(POOL_THREADS).build().expect("local pool");
    let mut out = Outcome {
        pool_threads: POOL_THREADS,
        policies: vec![POLICY],
        kinds: vec![cfg.engine.resolve_kind.name()],
        ..Outcome::default()
    };
    // Recorder off: the reference every other round's scores must match.
    let (off, _) = round(&pool, cfg, &trace, false);
    if traced {
        layers(&mut out, &pool, cfg, &trace, seconds, off);
        return out;
    }
    let mut setup_s = f64::INFINITY;
    let mut done = Vec::new();
    rounds(seconds, || {
        setup_s = setup_s.min(setup_seconds(SETUP_REPS, || build(cfg, trace.n_procs)));
        done.push(round(&pool, cfg, &trace, true).0);
    });
    check_rounds(&mut out, trace.events.len(), std::slice::from_ref(&off), &off.scores);
    check_rounds(&mut out, trace.events.len(), &done, &off.scores);
    let events_per_s = trace.events.len() as f64 / best(&done, |r| &r.window).total();
    let pump_ms: Vec<f64> = best(&done, |r| &r.pump).times().iter().map(|t| t * 1e3).collect();
    out.end_to_end(events_per_s, &pump_ms, done[0].quality, setup_s);
    out
}

fn layers(
    out: &mut Outcome,
    pool: &ThreadPool,
    cfg: DaemonConfig,
    trace: &MultiplexedTrace,
    seconds: f64,
    off: Round,
) {
    let events = trace.events.len();
    let reference = off.scores.clone();
    let mut offs = vec![off];
    rounds(seconds / 4.0, || offs.push(round(pool, cfg, trace, false).0));
    let mut ons = Vec::new();
    rounds(seconds / 4.0, || ons.push(round(pool, cfg, trace, true).0));
    // Traced: recorder on, as `ons`, plus the pool's counters per round.
    let mut traced = Vec::new();
    let mut last = None;
    let (mut tasks, mut steals, mut sleeps) = (0, 0, 0);
    rounds(seconds / 4.0, || {
        let before = pool.stats();
        let (r, daemon) = round(pool, cfg, trace, true);
        let after = pool.stats();
        tasks += after.tasks_executed() - before.tasks_executed();
        steals += after.steals() - before.steals();
        sleeps += after.sleeps() - before.sleeps();
        last = Some(daemon);
        traced.push(r);
    });
    for done in [&offs, &ons, &traced] {
        check_rounds(out, events, done, &reference);
    }

    // Off the timed path: status reads and the inputs' shard balance.
    let daemon = last.expect("at least one traced round");
    let start = Instant::now();
    for _ in 0..PROBE_REPS {
        std::hint::black_box(daemon.statuses());
    }
    let status_ns = ns(start.elapsed()) / (PROBE_REPS * TENANTS as usize) as f64;
    let skews: Vec<f64> = trace
        .events
        .chunks(BATCH)
        .map(|batch| {
            let mut per_shard = [0usize; SHARDS as usize];
            for (tenant, _) in batch {
                per_shard[daemon.shard_of(*tenant) as usize] += 1;
            }
            let max = *per_shard.iter().max().expect("shards") as f64;
            max / (batch.len() as f64 / f64::from(SHARDS))
        })
        .collect();

    // Standalone placement-only engines fed each tenant's events, with the
    // recorder in the pump's state: the engine work inside the pumps.
    let tenant_traces = trace.per_tenant();
    let mut engine_best = Best::default();
    let mut engines = Vec::new();
    semimatch_obs::install(Arc::new(Collecting::new()));
    for _ in 0..MIN_ROUNDS {
        engines.clear();
        for (t, tenant_trace) in tenant_traces.iter().enumerate() {
            let mut engine = Engine::new(cfg.engine, tenant_trace.n_procs).expect("valid config");
            let start = Instant::now();
            for ev in &tenant_trace.events {
                out.failed += u64::from(engine.apply(ev).is_err());
            }
            engine_best.record(t, start.elapsed().as_secs_f64());
            engines.push(engine);
        }
    }
    semimatch_obs::uninstall();
    let standalone: Vec<(u32, u128)> =
        (0..).zip(&engines).map(|(t, e)| (t, e.score(e.config().objective).0)).collect();
    out.check(standalone == reference, || "standalone engines disagree with the daemon".into());
    let start = Instant::now();
    for _ in 0..PROBE_REPS {
        for e in &engines {
            std::hint::black_box(e.gap());
        }
    }
    let gap_ns = ns(start.elapsed()) / (PROBE_REPS * engines.len()) as f64;

    let window = |rounds: &[Round]| best(rounds, |r| &r.window).total();
    let (submit, pump) = (best(&traced, |r| &r.submit), best(&traced, |r| &r.pump));
    let publish = best(&traced, |r| &r.publish);
    let traced_s = window(&traced);
    let layer_s: f64 = traced.iter().flat_map(|r| [&r.submit, &r.pump, &r.publish]).flatten().sum();
    let pumps = traced.iter().map(|r| r.pump.len()).sum::<usize>() as f64;
    out.per_layer(&[
        ("serve.ingest.ns_per_event", engine_best.total() * 1e9 / events as f64),
        ("serve.gap.ns_per_call", gap_ns),
        ("daemon.submit.ns_per_event", submit.total() * 1e9 / events as f64),
        ("daemon.pump.busy_share", pump.total() / traced_s),
        ("daemon.pump.engine_share", engine_best.total() / pump.total()),
        ("daemon.shard_skew", median(&skews)),
        ("daemon.status.ns_per_tenant", status_ns),
        ("obs.publish.ns_per_call", publish.total() * 1e9 / publish.times().len() as f64),
        ("obs.overhead_pct", (1.0 - window(&offs) / window(&ons)) * 100.0),
        ("rayon.tasks_per_pump", tasks as f64 / pumps),
        ("rayon.steals_per_pump", steals as f64 / pumps),
        ("rayon.sleeps_per_pump", sleeps as f64 / pumps),
        ("bench.trace_overhead_pct", (traced_s / window(&ons) - 1.0) * 100.0),
        ("bench.layer_coverage", layer_s / traced.iter().map(|r| r.wall).sum::<f64>()),
    ]);
}
