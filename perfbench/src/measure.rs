//! What every workload reports, and the small statistics it is built from.

use std::time::{Duration, Instant};

/// One named metric with its unit.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The result of one workload run.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (events applied or submitted, solves).
    pub attempted: u64,
    /// Operations that failed, plus one per failed correctness check.
    pub failed: u64,
    /// The correctness checks that failed, described.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Run stamp: worker threads of the pool the workload runs on (0 when
    /// it runs on the calling thread alone), and the CLI strings of the
    /// repair policies and solver kinds it drives.
    pub pool_threads: usize,
    pub policies: Vec<&'static str>,
    pub kinds: Vec<&'static str>,
}

/// Every per-layer metric and its unit, in report order. A `--trace 1` run
/// prints all of them; a layer the workload bypasses reads 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("serve.ingest.ns_per_event", "ns"),
    ("serve.repair.exact.ns_per_call", "ns"),
    ("serve.repair.exact.p99_ns", "ns"),
    ("serve.repair.exact.share", "ratio"),
    ("serve.repair.searches_per_event", "count"),
    ("serve.repair.shifts_per_event", "count"),
    ("serve.repair.search_yield", "ratio"),
    ("serve.repair.heuristic.ns_per_call", "ns"),
    ("serve.repair.heuristic.p99_ns", "ns"),
    ("serve.repair.heuristic.share", "ratio"),
    ("serve.repair.moves_per_event", "count"),
    ("serve.gap.ns_per_call", "ns"),
    ("daemon.submit.ns_per_event", "ns"),
    ("daemon.pump.busy_share", "ratio"),
    ("daemon.pump.engine_share", "ratio"),
    ("daemon.shard_skew", "ratio"),
    ("daemon.status.ns_per_tenant", "ns"),
    ("obs.publish.ns_per_call", "ns"),
    ("obs.overhead_pct", "%"),
    ("core.solve.hk-semi.ms", "ms"),
    ("core.solve.cost-scaling.ms", "ms"),
    ("core.solve.hk-semi.ms_1t", "ms"),
    ("core.solve.cost-scaling.ms_1t", "ms"),
    ("core.par_speedup.hk-semi", "x"),
    ("core.par_speedup.cost-scaling", "x"),
    ("matching.hk_semi.phases", "count"),
    ("matching.hk_semi.paths_extracted", "count"),
    ("matching.hk_semi.par.cas_failures", "count"),
    ("core.cost_scaling.probes", "count"),
    ("core.cost_scaling.partitions", "count"),
    ("matching.flow.augmentations", "count"),
    ("matching.flow.dinic_phases", "count"),
    ("rayon.tasks_per_pump", "count"),
    ("rayon.steals_per_pump", "count"),
    ("rayon.sleeps_per_pump", "count"),
    ("rayon.steals_per_solve", "count"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.layer_coverage", "ratio"),
];

/// Least share of a traced round's wall time its layer self-times must
/// cover; the rest is the harness's own loop and timer reads.
pub const MIN_LAYER_COVERAGE: f64 = 0.9;

impl Outcome {
    fn metric(&mut self, name: &'static str, unit: &'static str, value: f64) {
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.0.
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        self.metrics.push(Metric { name, unit, value });
    }

    /// The end-to-end metrics: throughput and latency percentiles from
    /// best-of-rounds operation times, the final score over its lower
    /// bound, set-up time and peak memory.
    pub fn end_to_end(
        &mut self,
        events_per_s: f64,
        latency_ms: &[f64],
        quality: f64,
        setup_s: f64,
    ) {
        self.metric("events_per_s", "1/s", events_per_s);
        self.metric("latency_p50_ms", "ms", percentile(latency_ms, 50.0));
        self.metric("latency_p99_ms", "ms", percentile(latency_ms, 99.0));
        self.metric("score_over_lb", "ratio", quality);
        self.metric("setup_s", "s", setup_s);
        self.peak_rss_mb();
    }

    /// The per-layer metrics: `values` by name, every other [`PER_LAYER`]
    /// entry 0. Checks that the layer self-times cover the traced wall time.
    pub fn per_layer(&mut self, values: &[(&str, f64)]) {
        for (name, _) in values {
            assert!(PER_LAYER.iter().any(|(n, _)| n == name), "unlisted layer metric {name}");
        }
        for (name, unit) in PER_LAYER {
            let value = values.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v);
            self.metric(name, unit, value);
        }
        let coverage = values.iter().find(|(n, _)| *n == "bench.layer_coverage").map(|(_, v)| *v);
        self.check(coverage.is_some_and(|c| (MIN_LAYER_COVERAGE..=1.0).contains(&c)), || {
            format!("layer self-times cover {coverage:?} of the traced wall time")
        });
    }

    /// Records a correctness check; a failed one counts as a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.errors.push(what());
        }
    }

    /// The process's peak resident memory, in MiB (Linux `VmHWM`).
    pub fn peak_rss_mb(&mut self) {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        let kib = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
        self.check(kib.is_some(), || "peak resident memory is unreadable".into());
        self.metric("peak_rss_mb", "MB", kib.unwrap_or(0.0) / 1024.0);
    }

    /// The contract line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Rounds every timed pass runs at least, whatever its time budget: the
/// fewest that make a best-of-rounds time robust to a slow phase of the
/// shared machine.
pub const MIN_ROUNDS: usize = 3;

/// Runs `round` until `budget` seconds have elapsed and at least
/// [`MIN_ROUNDS`] rounds ran.
pub fn rounds(budget: f64, mut round: impl FnMut()) {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(budget);
    let mut done = 0;
    while done < MIN_ROUNDS || start.elapsed() < budget {
        round();
        done += 1;
    }
}

/// [`rounds`] for a workload that runs on the calling thread alone: round
/// `r` is pinned to the `r`-th CPU the process may use, in turn, so the
/// best-of-rounds times see every CPU (on a shared host one CPU can run
/// at half the speed of its neighbour for seconds). The thread's CPU set
/// is restored afterwards.
pub fn pinned_rounds(budget: f64, mut round: impl FnMut()) {
    let allowed = affinity::get();
    let cpus = allowed.as_ref().map(affinity::cpus).unwrap_or_default();
    let mut r = 0;
    rounds(budget, || {
        if !cpus.is_empty() {
            affinity::set(&affinity::only(cpus[r % cpus.len()]));
        }
        r += 1;
        round();
    });
    if let Some(mask) = allowed {
        affinity::set(&mask);
    }
}

/// The calling thread's CPU set, through the Linux scheduler calls that
/// the C library already linked into every Rust program provides.
mod affinity {
    /// A CPU set of 1024 bits, the C library's `cpu_set_t`.
    pub type Mask = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    pub fn get() -> Option<Mask> {
        let mut mask: Mask = [0; 16];
        // SAFETY: `mask` is a writable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    /// Sets the calling thread's CPU set; a failure leaves it unchanged,
    /// which only costs the benchmark some steadiness.
    pub fn set(mask: &Mask) {
        // SAFETY: `mask` is a readable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) };
    }

    pub fn cpus(mask: &Mask) -> Vec<usize> {
        (0..mask.len() * 64).filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1).collect()
    }

    pub fn only(cpu: usize) -> Mask {
        let mut mask: Mask = [0; 16];
        mask[cpu / 64] |= 1 << (cpu % 64);
        mask
    }
}

/// Best-of-rounds operation times. Every round repeats the same operations
/// on the same state, so the fastest repetition of operation `i` is its
/// cost with the least interference from other work on the machine. On a
/// shared host the same work can take twice as long for seconds at a time;
/// a median across runs swings with that, the per-operation minimum does
/// not.
#[derive(Default)]
pub struct Best(Vec<f64>);

impl Best {
    /// Records one repetition of operation `i` (`i` counts from 0 in every
    /// round).
    pub fn record(&mut self, i: usize, t: f64) {
        match self.0.get_mut(i) {
            Some(best) => *best = best.min(t),
            None => {
                assert_eq!(i, self.0.len(), "operations are recorded in order");
                self.0.push(t);
            }
        }
    }

    /// Best time of every operation, in order.
    pub fn times(&self) -> &[f64] {
        &self.0
    }

    /// Sum of the best times.
    pub fn total(&self) -> f64 {
        self.0.iter().sum()
    }
}

/// Median of `v` (0 if empty).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Percentile `p` (0–100) of `v`, interpolated linearly between the two
/// nearest ranks (0 if empty).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return 0.0;
    }
    let pos = (p / 100.0).clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median wall time of `reps` calls of `setup`, in seconds. Each call's
/// result is dropped outside the timed region.
pub fn setup_seconds<T>(reps: usize, mut setup: impl FnMut() -> T) -> f64 {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        let built = setup();
        times.push(start.elapsed().as_secs_f64());
        drop(built);
    }
    median(&times)
}

/// Nanoseconds of `d` as a float.
pub fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
