//! Telemetry subsystem properties: the README metric table is the
//! rendered catalog, exact counts under concurrency, the recorder's
//! zero-interference guarantee, Chrome trace export, the probe
//! accounting of the cost-scaling solver against plain bisection, and the daemon's
//! published counts and tenant gauges.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use semimatch::core::exact::{cost_scaling_cold_in, cost_scaling_seeded_in};
use semimatch::daemon::{Daemon, DaemonConfig, Event};
use semimatch::gen::rng::Xoshiro256;
use semimatch::gen::trace::{generate_multiplexed, MultiplexParams, TraceParams};
use semimatch::gen::{fewg_manyg, hilo_permuted};
use semimatch::graph::Bipartite;
use semimatch::matching::SearchWorkspace;
use semimatch::obs::{catalog::TABLE, Collecting, MetricValue, Registry};
use semimatch::solver::{solve_with, Objective, Problem, SolverKind};

/// The recorder slot is process-global; every test that installs one
/// holds this lock so the harness's parallel threads cannot interleave.
static GLOBAL_RECORDER_LOCK: Mutex<()> = Mutex::new(());

fn counter_value(reg: &Registry, name: &str) -> u64 {
    match reg.snapshot().into_iter().find(|(n, _)| n == name) {
        Some((_, MetricValue::Counter(v))) => v,
        other => panic!("expected counter '{name}', got {other:?}"),
    }
}

fn gauge_value(reg: &Registry, name: &str) -> i64 {
    match reg.snapshot().into_iter().find(|(n, _)| n == name) {
        Some((_, MetricValue::Gauge(v))) => v,
        other => panic!("expected gauge '{name}', got {other:?}"),
    }
}

// -------------------------------------------------------------------
// The README metric table is generated from the catalog
// -------------------------------------------------------------------

#[test]
fn readme_metric_table_is_the_rendered_catalog() {
    let readme =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md")).unwrap();
    let (_, rest) = readme.split_once("<!-- metric-catalog:begin -->\n").expect("begin marker");
    let (block, _) = rest.split_once("<!-- metric-catalog:end -->").expect("end marker");
    assert!(
        block == TABLE,
        "README metric table is stale; paste this between the metric-catalog markers:\n{TABLE}"
    );
}

// -------------------------------------------------------------------
// Registry exactness under a multi-threaded hammer
// -------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn registry_counts_exact_under_parallel_hammer(
        threads in 2usize..8,
        per_thread in 1u64..400,
        delta in 1u64..5,
    ) {
        let reg = Arc::new(Registry::new());
        let pool = semimatch::rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            use semimatch::rayon::prelude::*;
            (0..threads).into_par_iter().for_each(|t| {
                for i in 0..per_thread {
                    reg.counter("hammer.counter").add(delta);
                    reg.histogram("hammer.histogram").observe(i);
                    reg.gauge("hammer.gauge").set((t as i64) * 1000 + i as i64);
                }
            });
        });
        let expected = threads as u64 * per_thread * delta;
        prop_assert_eq!(counter_value(&reg, "hammer.counter"), expected);
        match reg.snapshot().into_iter().find(|(n, _)| n == "hammer.histogram") {
            Some((_, MetricValue::Histogram { count, sum, buckets })) => {
                prop_assert_eq!(count, threads as u64 * per_thread);
                // Σ 0..per_thread, once per thread.
                let per = per_thread * (per_thread - 1) / 2;
                prop_assert_eq!(sum, threads as u64 * per);
                let bucket_total: u64 = buckets.iter().map(|&(_, c)| c).sum();
                prop_assert_eq!(bucket_total, count);
            }
            other => return Err(TestCaseError::fail(format!("missing histogram: {other:?}"))),
        }
    }
}

// -------------------------------------------------------------------
// Solver outputs are bit-identical with telemetry off/on
// -------------------------------------------------------------------

#[test]
fn recorder_state_never_changes_solver_output() {
    let _guard = GLOBAL_RECORDER_LOCK.lock().unwrap();
    let mut rng = Xoshiro256::seed_from_u64(99);
    let instances = vec![
        hilo_permuted(96, 8, 4, 2, &mut rng),
        fewg_manyg(120, 12, 4, 3, &mut rng),
        hilo_permuted(64, 16, 4, 4, &mut rng),
    ];
    let kinds =
        [SolverKind::Basic, SolverKind::Expected, SolverKind::ExactBisection, SolverKind::Harvey];
    for g in &instances {
        let problem = Problem::SingleProc(g);
        for kind in kinds {
            // Baseline with no recorder installed.
            let baseline = solve_with(problem, kind, Objective::Makespan).unwrap();
            // Same solve with a collecting recorder swallowing every
            // metric and span: the Solution must be bit-identical.
            let collecting = Arc::new(Collecting::with_trace(1024));
            semimatch::obs::install(collecting.clone());
            let recorded = solve_with(problem, kind, Objective::Makespan);
            semimatch::obs::uninstall();
            let recorded = recorded.unwrap();
            let a = baseline.as_semi().unwrap();
            let b = recorded.as_semi().unwrap();
            assert_eq!(a.edge_of, b.edge_of, "{kind:?} diverged under telemetry");
        }
    }
}

// -------------------------------------------------------------------
// Chrome trace export: valid JSON, spans nest correctly
// -------------------------------------------------------------------

/// A minimal JSON validity walker (no serde in the tree): consumes one
/// JSON value from `s` starting at `i`, returning the next index.
fn json_value(s: &[u8], mut i: usize) -> Result<usize, String> {
    fn skip_ws(s: &[u8], mut i: usize) -> usize {
        while i < s.len() && (s[i] as char).is_whitespace() {
            i += 1;
        }
        i
    }
    i = skip_ws(s, i);
    if i >= s.len() {
        return Err("unexpected end".into());
    }
    match s[i] {
        b'{' => {
            i = skip_ws(s, i + 1);
            if s.get(i) == Some(&b'}') {
                return Ok(i + 1);
            }
            loop {
                i = json_value(s, i)?; // key (must be a string, checked below)
                i = skip_ws(s, i);
                if s.get(i) != Some(&b':') {
                    return Err(format!("expected ':' at {i}"));
                }
                i = json_value(s, i + 1)?;
                i = skip_ws(s, i);
                match s.get(i) {
                    Some(&b',') => i += 1,
                    Some(&b'}') => return Ok(i + 1),
                    other => return Err(format!("expected ',' or '}}' at {i}, got {other:?}")),
                }
            }
        }
        b'[' => {
            i = skip_ws(s, i + 1);
            if s.get(i) == Some(&b']') {
                return Ok(i + 1);
            }
            loop {
                i = json_value(s, i)?;
                i = skip_ws(s, i);
                match s.get(i) {
                    Some(&b',') => i += 1,
                    Some(&b']') => return Ok(i + 1),
                    other => return Err(format!("expected ',' or ']' at {i}, got {other:?}")),
                }
            }
        }
        b'"' => {
            i += 1;
            while i < s.len() {
                match s[i] {
                    b'\\' => i += 2,
                    b'"' => return Ok(i + 1),
                    _ => i += 1,
                }
            }
            Err("unterminated string".into())
        }
        b't' => {
            if s[i..].starts_with(b"true") {
                Ok(i + 4)
            } else {
                Err(format!("bad literal at {i}"))
            }
        }
        b'f' => {
            if s[i..].starts_with(b"false") {
                Ok(i + 5)
            } else {
                Err(format!("bad literal at {i}"))
            }
        }
        b'n' => {
            if s[i..].starts_with(b"null") {
                Ok(i + 4)
            } else {
                Err(format!("bad literal at {i}"))
            }
        }
        c if c == b'-' || c.is_ascii_digit() => {
            i += 1;
            while i < s.len()
                && (s[i].is_ascii_digit() || matches!(s[i], b'.' | b'e' | b'E' | b'+' | b'-'))
            {
                i += 1;
            }
            Ok(i)
        }
        c => Err(format!("unexpected byte '{}' at {i}", c as char)),
    }
}

/// Whole-document JSON check: one value plus trailing whitespace.
fn assert_valid_json(doc: &str) {
    let bytes = doc.as_bytes();
    let end = json_value(bytes, 0).unwrap_or_else(|e| panic!("invalid JSON: {e}\n{doc}"));
    assert!(
        bytes[end..].iter().all(|b| (*b as char).is_whitespace()),
        "trailing garbage after JSON value at byte {end}"
    );
}

#[test]
fn chrome_trace_is_valid_json_and_spans_nest() {
    let _guard = GLOBAL_RECORDER_LOCK.lock().unwrap();
    let collecting = Arc::new(Collecting::with_trace(1024));
    semimatch::obs::install(collecting.clone());
    {
        let _outer = semimatch::obs::span!("test.outer");
        std::thread::sleep(std::time::Duration::from_millis(2));
        {
            let _inner = semimatch::obs::span!("test.inner");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    semimatch::obs::uninstall();

    let ring = collecting.ring().expect("with_trace installs a ring");
    let events = ring.events();
    assert_eq!(events.len(), 2, "one event per closed span");
    // Spans close inner-first.
    let inner = &events[0];
    let outer = &events[1];
    assert_eq!(inner.name, "test.inner");
    assert_eq!(outer.name, "test.outer");
    assert_eq!(inner.tid, outer.tid, "same thread");
    // Proper nesting: the inner interval sits inside the outer one.
    assert!(outer.start_ns <= inner.start_ns);
    assert!(
        inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns,
        "inner span must end before its enclosing span"
    );
    // The export is a valid JSON array of complete ("ph":"X") events.
    let doc = ring.render_chrome_json();
    assert_valid_json(&doc);
    assert!(doc.contains("\"ph\": \"X\""));
    assert!(doc.contains("\"test.inner\""));
    // Registry side: each span close observed a duration histogram.
    let reg = collecting.registry();
    match reg.snapshot().into_iter().find(|(n, _)| n == "span.test.outer") {
        Some((_, MetricValue::Histogram { count, .. })) => assert_eq!(count, 1),
        other => panic!("missing span histogram: {other:?}"),
    }
}

// -------------------------------------------------------------------
// Partitioned-search vs plain-bisection probe accounting
// -------------------------------------------------------------------

/// A density staircase. An infeasible capacity probe's deficient closure
/// always has every closure processor saturated, so the FLN deficiency
/// bound `cap + ceil(uncovered / closure_procs)` equals the closure's
/// *average* density exactly — a single uniform block therefore resolves
/// in one probe. To force a genuine multi-probe session the closure must
/// hide a denser core behind a lighter bridge: here block A (120 tasks on
/// procs {0,1}, density 60) bridges through block B (48 tasks on {1,2})
/// so the first probe's closure is A∪B (density 56 < 60) and the second
/// probe runs on A alone.
fn density_staircase() -> Bipartite {
    let mut edges = Vec::new();
    let mut t = 0u32;
    for _ in 0..120 {
        edges.push((t, 0));
        edges.push((t, 1));
        t += 1;
    }
    for _ in 0..48 {
        edges.push((t, 1));
        edges.push((t, 2));
        t += 1;
    }
    // A private light block on proc 3 pads n so the initial global bracket
    // (lo = ceil(188/4) = 47) sits below |B| — the probe then saturates
    // proc 2 and spills B into the closure instead of draining it away.
    for _ in 0..20 {
        edges.push((t, 3));
        t += 1;
    }
    Bipartite::from_edges(t, 4, &edges).unwrap()
}

#[test]
fn seeded_cost_scaling_probes_less_than_the_cold_ablation() {
    let _guard = GLOBAL_RECORDER_LOCK.lock().unwrap();
    let g = density_staircase();
    // A deliberately skewed (but valid) seed: each task on its left pin,
    // which leaves a wide bracket above the counting bound.
    let seed: Vec<u32> =
        (0..g.n_left()).map(|t| g.edge_range(t).map(|e| g.edge_right(e)).min().unwrap()).collect();

    let collecting = Arc::new(Collecting::new());
    semimatch::obs::install(collecting.clone());
    let mut ws = SearchWorkspace::new();
    let seeded_run = cost_scaling_seeded_in(&g, Some(&seed), &mut ws);
    // The same workload through the plain-bisection ablation, plus a few
    // tall instances on both backends: the probe-count advantage of
    // partitioning shows up on the aggregate.
    let mut cold_ws = SearchWorkspace::new();
    let bisection_run = cost_scaling_cold_in(&g, &mut cold_ws);
    let mut rng = Xoshiro256::seed_from_u64(42);
    for i in 0..4u64 {
        let tall = hilo_permuted(2048, 8, 4, 2, &mut rng);
        let w = cost_scaling_seeded_in(&tall, None, &mut ws).unwrap();
        let c = cost_scaling_cold_in(&tall, &mut cold_ws).unwrap();
        assert_eq!(w.makespan, c.makespan, "instance {i}");
    }
    semimatch::obs::uninstall();
    let seeded_run = seeded_run.unwrap();
    let bisection_run = bisection_run.unwrap();
    assert_eq!(seeded_run.makespan, bisection_run.makespan, "both backends are exact");

    let reg = collecting.registry();
    let probes = counter_value(reg, "cost_scaling.probes");
    let cold_probes = counter_value(reg, "cost_scaling.cold_ablation.probes");
    assert!(
        probes < cold_probes,
        "the partitioned search must probe less than the plain bisection \
         ({probes} vs {cold_probes})"
    );
}

// -------------------------------------------------------------------
// The daemon publishes its own counts and its tenants' live scores
// -------------------------------------------------------------------

#[test]
fn daemon_publishes_applied_events_and_tenant_scores() {
    let _guard = GLOBAL_RECORDER_LOCK.lock().unwrap();
    let params = MultiplexParams {
        tenants: 5,
        hotness: 1,
        per_tenant: TraceParams {
            n_procs: 8,
            arrivals: 160,
            churn_pct: 20,
            ..TraceParams::default()
        },
    };
    let trace = generate_multiplexed(&params, &mut Xoshiro256::seed_from_u64(17));
    let mut daemon = Daemon::new(DaemonConfig { shards: 2, ..DaemonConfig::default() }).unwrap();
    for tenant in 0..trace.tenants {
        daemon.admit(tenant, trace.n_procs).unwrap();
    }

    let collecting = Arc::new(Collecting::new());
    semimatch::obs::install(collecting.clone());
    let reg = collecting.registry();
    for batch in trace.events.chunks(37) {
        for (tenant, ev) in batch {
            assert_eq!(daemon.submit(*tenant, ev.clone()), Ok(true));
        }
        daemon.pump();
        daemon.publish_metrics();
        // Publishes send deltas: the published total is the daemon's own
        // count after every pump, never a running sum of totals.
        assert_eq!(counter_value(reg, "daemon.applied"), daemon.counters().applied);
        for tenant in 0..trace.tenants {
            let score = daemon.status(tenant).unwrap().score.0;
            let gauge = gauge_value(reg, &format!("daemon.tenant.{tenant}.score"));
            assert_eq!(gauge as u128, score, "tenant {tenant} score gauge");
        }
    }
    // A publish with nothing new to report adds nothing.
    daemon.publish_metrics();
    semimatch::obs::uninstall();
    let applied = daemon.counters().applied;
    assert_eq!(applied, trace.events.len() as u64, "every submitted event applied");
    assert_eq!(counter_value(reg, "daemon.applied"), applied);
    assert_eq!(counter_value(reg, "daemon.submitted"), applied);
}

#[test]
fn daemon_publish_follows_the_installed_recorder_and_tenant_set() {
    let _guard = GLOBAL_RECORDER_LOCK.lock().unwrap();
    let params = MultiplexParams {
        tenants: 4,
        hotness: 1,
        per_tenant: TraceParams {
            n_procs: 8,
            arrivals: 60,
            churn_pct: 20,
            ..TraceParams::default()
        },
    };
    let trace = generate_multiplexed(&params, &mut Xoshiro256::seed_from_u64(23));
    let (first, second) = trace.events.split_at(trace.events.len() / 2);
    let mut daemon = Daemon::new(DaemonConfig { shards: 2, ..DaemonConfig::default() }).unwrap();
    for tenant in 0..trace.tenants {
        daemon.admit(tenant, trace.n_procs).unwrap();
    }
    let feed = |daemon: &mut Daemon, events: &[(u32, Event)]| {
        for (tenant, ev) in events {
            assert_eq!(daemon.submit(*tenant, ev.clone()), Ok(true));
        }
        daemon.pump();
        daemon.publish_metrics();
    };

    let a = Arc::new(Collecting::new());
    semimatch::obs::install(a.clone());
    feed(&mut daemon, first);
    let applied_under_a = daemon.counters().applied;
    // A new recorder: the daemon writes to it, not to the one it resolved
    // against first.
    let b = Arc::new(Collecting::new());
    semimatch::obs::install(b.clone());
    feed(&mut daemon, second);
    // A new tenant set: tenant 0 leaves and tenant 9 joins with its own
    // load, so a handle left over from tenant 0 would misreport.
    daemon.evict(0).unwrap();
    daemon.admit(9, trace.n_procs).unwrap();
    feed(&mut daemon, &[(9, Event::Arrive { task: 0, configs: vec![(vec![0], 5)] })]);
    semimatch::obs::uninstall();

    let (a, b) = (a.registry(), b.registry());
    assert_eq!(counter_value(a, "daemon.applied"), applied_under_a, "A stops at its last publish");
    assert_eq!(counter_value(b, "daemon.applied"), daemon.counters().applied - applied_under_a);
    assert_eq!(counter_value(b, "daemon.evictions"), 1);
    let forked = counter_value(a, "daemon.forked_pumps") + counter_value(b, "daemon.forked_pumps");
    assert_eq!(forked, daemon.counters().forked_pumps);
    assert_eq!(gauge_value(b, "daemon.tenants"), 4);
    let live: Vec<u32> = daemon.statuses().iter().map(|st| st.tenant).collect();
    assert_eq!(live, [1, 2, 3, 9]);
    for st in daemon.statuses() {
        let gauge = |series: &str| gauge_value(b, &format!("daemon.tenant.{}.{series}", st.tenant));
        assert_eq!(gauge("gap") as u128, st.gap.0, "tenant {} gap", st.tenant);
        assert_eq!(gauge("score") as u128, st.score.0, "tenant {} score", st.tenant);
        assert_eq!(gauge("lower_bound") as u128, st.lower_bound.0, "tenant {}", st.tenant);
        assert_eq!(gauge("queue_depth") as usize, st.queue_depth, "tenant {}", st.tenant);
    }
    assert_eq!(gauge_value(b, "daemon.tenant.9.score"), 5);
}
