//! # semimatch-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper (see DESIGN.md §5 for the experiment index). Binaries:
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1` | Table I (instance statistics) |
//! | `table2` | Table II (unweighted quality/time) |
//! | `table3` | Table III (related weights) |
//! | `table8_random` | TR Table 8 (random weights) |
//! | `singleproc_report` | §V-B / TR tables (SINGLEPROC-UNIT) |
//! | `figures` | Figs. 1–5 worst-case behaviour |
//! | `ranking_sweep` | §V-C ranking-stability claim |
//!
//! All binaries accept `--scale K` (divide n and p by K), `--instances M`
//! (instances per configuration, default 10), `--seed S` (master seed,
//! default 42) and `--threads T` (work-stealing pool size; 0 = all
//! cores), and write a markdown report to `results/`.
//!
//! The harness follows the paper's protocol: median over the instances for
//! quality columns, mean wall-clock seconds for time rows. Instances fan
//! out across rayon's work-stealing pool; every solver runs sequentially
//! inside a solve, so the pool size sets how many instances run at once,
//! not how a solve runs.

pub mod singleproc;

use std::time::Instant;

use rayon::prelude::*;
use semimatch_core::lower_bound::{lower_bound_multiproc, lower_bound_objective};
use semimatch_core::objective::Objective;
use semimatch_core::quality::{mean_f64, median_f64, median_u64, ratio, score_ratio};
use semimatch_core::solver::{KindSolver, Problem, Solver, SolverKind};
use semimatch_gen::params::Config;
use semimatch_graph::HypergraphStats;

/// Command-line options shared by all experiment binaries.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Divide the paper's n and p by this factor (1 = full size).
    pub scale: u32,
    /// Instances per configuration (the paper uses 10).
    pub instances: u64,
    /// Master seed.
    pub seed: u64,
    /// Global pool size (`0` = automatic: `RAYON_NUM_THREADS`, else all
    /// cores).
    pub threads: usize,
    /// Overwrite a results JSON recorded on a different host
    /// (see [`guard_host_cores`]).
    pub force: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options { scale: 1, instances: 10, seed: 42, threads: 0, force: false }
    }
}

impl Options {
    /// Parses `--scale K --instances M --seed S --threads T [--force]`
    /// from `std::env::args` and pins the global pool to the requested
    /// size. Unknown flags abort with a usage message.
    pub fn from_args() -> Options {
        let mut opts = Options::default();
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            if flag == "--force" {
                opts.force = true;
                i += 1;
                continue;
            }
            let value = args.get(i + 1).unwrap_or_else(|| usage(flag));
            match flag {
                "--scale" => opts.scale = value.parse().unwrap_or_else(|_| usage(flag)),
                "--instances" => opts.instances = value.parse().unwrap_or_else(|_| usage(flag)),
                "--seed" => opts.seed = value.parse().unwrap_or_else(|_| usage(flag)),
                "--threads" => opts.threads = value.parse().unwrap_or_else(|_| usage(flag)),
                _ => usage(flag),
            }
            i += 2;
        }
        if let Err(e) = rayon::ThreadPoolBuilder::new().num_threads(opts.threads).build_global() {
            // Fires only when something already initialized the pool; the
            // run proceeds on the existing one.
            eprintln!("warning: --threads ignored: {e}");
        }
        opts
    }
}

fn usage(flag: &str) -> ! {
    eprintln!(
        "unknown or malformed flag {flag}; \
         expected --scale K --instances M --seed S --threads T [--force]"
    );
    std::process::exit(2)
}

/// Host and build provenance stamped into every machine-readable report:
/// core count, resolved pool width, and the source revision
/// (`git describe --always --dirty`, `"unknown"` outside a checkout).
#[derive(Clone, Debug)]
pub struct RunStamp {
    pub host_cores: usize,
    pub threads: usize,
    pub git: String,
}

impl RunStamp {
    /// Captures the stamp for the current process. `threads` should be
    /// the pool width the timed sections actually ran under.
    pub fn capture(threads: usize) -> RunStamp {
        let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let git = std::process::Command::new("git")
            .args(["describe", "--always", "--dirty"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        RunStamp { host_cores, threads, git }
    }

    /// The stamp as JSON object fields (no surrounding braces), ready to
    /// splice into a `"meta"` object.
    pub fn json_fields(&self) -> String {
        format!(
            "\"host_cores\": {}, \"threads\": {}, \"git\": \"{}\"",
            self.host_cores,
            self.threads,
            self.git.replace('\\', "\\\\").replace('"', "\\\"")
        )
    }
}

/// Timing rows from different hosts are not comparable, and the results
/// JSONs are checked in as trajectory records — refuse to clobber one
/// recorded with a different `host_cores` unless the caller passed
/// `--force`. Call this *before* the expensive run, so a refusal costs
/// nothing.
pub fn guard_host_cores(filename: &str, host_cores: usize, force: bool) {
    let path = std::path::Path::new("results").join(filename);
    let Ok(existing) = std::fs::read_to_string(&path) else {
        return; // nothing to overwrite
    };
    let recorded: Option<usize> = existing.split("\"host_cores\":").nth(1).and_then(|rest| {
        rest.trim_start().split(|c: char| !c.is_ascii_digit()).next()?.parse().ok()
    });
    match recorded {
        Some(prev) if prev != host_cores && !force => {
            eprintln!(
                "error: {} was recorded with host_cores = {prev}, this host has {host_cores}; \
                 timings are not comparable across hosts. Pass --force to overwrite.",
                path.display()
            );
            std::process::exit(2);
        }
        _ => {}
    }
}

/// Re-indents a rendered JSON document (e.g. the `obs` registry dump) so
/// it nests as an object value inside a hand-built report at the given
/// indent depth. The first line is left alone — it lands after a
/// `"metrics": ` key.
pub fn indent_json(doc: &str, indent: &str) -> String {
    let mut out = String::with_capacity(doc.len());
    for (i, line) in doc.lines().enumerate() {
        if i > 0 {
            out.push('\n');
            out.push_str(indent);
        }
        out.push_str(line);
    }
    out
}

/// Folds a pool's work-stealing statistics into the installed telemetry
/// registry (no-op when no recorder is installed). Counters are additive,
/// so calling this once per local pool accumulates fleet totals.
pub fn record_pool_stats(stats: &rayon::PoolStats) {
    if !semimatch_obs::enabled() {
        return;
    }
    use semimatch_obs::{catalog as metric, counter_add, gauge_set};
    gauge_set(&metric::POOL_THREADS, stats.threads() as i64);
    counter_add(&metric::POOL_TASKS_EXECUTED, stats.tasks_executed());
    counter_add(&metric::POOL_STEALS, stats.steals());
    counter_add(&metric::POOL_INJECTOR_POPS, stats.injector_pops());
    counter_add(&metric::POOL_SLEEPS, stats.sleeps());
    counter_add(&metric::POOL_WAKES, stats.wakes);
}

/// Scales a configuration down by `Options::scale`, preserving the n/p
/// ratio and group divisibility.
pub fn scale_config(mut c: Config, scale: u32) -> Config {
    if scale > 1 {
        let g = c.family.groups();
        c.n = (c.n / scale).max(g);
        c.p = ((c.p / scale).max(g) / g).max(1) * g;
    }
    c
}

/// Row label: the Table I name at full scale, explicit sizes otherwise
/// (the `n/256` convention would collide after scaling).
pub fn row_name(cfg: &Config, scale: u32) -> String {
    if scale == 1 {
        cfg.name()
    } else {
        format!("{}-n{}-p{}-MP{}", cfg.family.prefix(), cfg.n, cfg.p, cfg.weights.suffix())
    }
}

/// One row of Table II/III/TR-8: medians over instances.
#[derive(Clone, Debug)]
pub struct QualityRow {
    /// Instance name, e.g. `FG-20-4-MP-W`.
    pub name: String,
    /// Median lower bound LB (Eq. 1).
    pub lb: u64,
    /// Median `makespan / LB` per heuristic, in
    /// [`SolverKind::HYPER_HEURISTICS`] order.
    pub ratios: Vec<f64>,
    /// Median `flowtime / FLB` per heuristic (the flow-time gap against
    /// the balanced-spread flow-time lower bound), same order. The
    /// heuristics still optimize the makespan here — this column records
    /// how far the makespan-directed solutions drift on the second
    /// objective.
    pub flow_ratios: Vec<f64>,
    /// Mean wall-clock seconds per heuristic.
    pub times: Vec<f64>,
}

/// One workspace-backed solver per sweep kind — built once per rayon
/// worker and reused across that worker's share of the instances, instead
/// of allocating engine scratch per instance.
pub fn solver_set(kinds: &[SolverKind]) -> Vec<KindSolver> {
    kinds.iter().map(|&k| k.solver()).collect()
}

/// Per-instance sweep sample: `(LB, makespan ratios, flow ratios, times)`.
type InstanceSample = (u64, Vec<f64>, Vec<f64>, Vec<f64>);

/// Runs the four `MULTIPROC` heuristics on every instance of `cfg`,
/// dispatching through the [`Solver`] trait with per-worker solver sets.
pub fn quality_row(cfg: &Config, opts: &Options) -> QualityRow {
    let cfg = scale_config(*cfg, opts.scale);
    let per_instance: Vec<InstanceSample> = (0..opts.instances)
        .into_par_iter()
        .map_init(
            || solver_set(&SolverKind::HYPER_HEURISTICS),
            |solvers, i| {
                let h = cfg.instance(opts.seed, i);
                let problem = Problem::MultiProc(&h);
                let lb = lower_bound_multiproc(&h).expect("generated instances are covered");
                let flb = lower_bound_objective(&h, Objective::FlowTime).expect("covered");
                let mut ratios = Vec::with_capacity(solvers.len());
                let mut flow_ratios = Vec::with_capacity(solvers.len());
                let mut times = Vec::with_capacity(solvers.len());
                for solver in solvers.iter_mut() {
                    let start = Instant::now();
                    let sol = solver.solve(problem).expect("generated instances are covered");
                    times.push(start.elapsed().as_secs_f64());
                    ratios.push(ratio(sol.makespan(&problem).expect("class matches"), lb));
                    flow_ratios.push(score_ratio(
                        sol.score(&problem, Objective::FlowTime).expect("class matches"),
                        flb,
                    ));
                }
                (lb, ratios, flow_ratios, times)
            },
        )
        .collect();
    aggregate(row_name(&cfg, opts.scale), per_instance)
}

fn aggregate(name: String, per_instance: Vec<InstanceSample>) -> QualityRow {
    let k = per_instance.first().map_or(0, |(_, r, _, _)| r.len());
    let mut lbs: Vec<u64> = per_instance.iter().map(|&(lb, _, _, _)| lb).collect();
    let column_median = |pick: fn(&InstanceSample) -> &Vec<f64>| {
        (0..k)
            .map(|j| {
                let mut xs: Vec<f64> = per_instance.iter().map(|x| pick(x)[j]).collect();
                median_f64(&mut xs)
            })
            .collect::<Vec<f64>>()
    };
    let ratios = column_median(|x| &x.1);
    let flow_ratios = column_median(|x| &x.2);
    let times = (0..k)
        .map(|j| {
            let xs: Vec<f64> = per_instance.iter().map(|(_, _, _, t)| t[j]).collect();
            mean_f64(&xs)
        })
        .collect();
    QualityRow { name, lb: median_u64(&mut lbs), ratios, flow_ratios, times }
}

/// One row of Table I: structural medians over instances.
#[derive(Clone, Debug)]
pub struct StatsRow {
    /// Instance name.
    pub name: String,
    /// `|V1|`, `|V2|` (identical across instances).
    pub n_tasks: u32,
    /// Number of processors.
    pub n_procs: u32,
    /// Median `|N|`.
    pub n_hedges: u64,
    /// Median `Σ_h |h ∩ V2|`.
    pub pins: u64,
}

/// Generates the instances of `cfg` and reports Table I columns.
pub fn stats_row(cfg: &Config, opts: &Options) -> StatsRow {
    let cfg = scale_config(*cfg, opts.scale);
    let collected: Vec<(u64, u64)> = (0..opts.instances)
        .into_par_iter()
        .map(|i| {
            let h = cfg.instance(opts.seed, i);
            let s = HypergraphStats::of(&h);
            (s.n_hedges as u64, s.total_pins as u64)
        })
        .collect();
    let mut hedges: Vec<u64> = collected.iter().map(|&(h, _)| h).collect();
    let mut pins: Vec<u64> = collected.iter().map(|&(_, p)| p).collect();
    StatsRow {
        name: row_name(&cfg, opts.scale),
        n_tasks: cfg.n,
        n_procs: cfg.p,
        n_hedges: median_u64(&mut hedges),
        pins: median_u64(&mut pins),
    }
}

/// Renders a markdown table.
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push('|');
    for h in headers {
        out.push_str(&format!(" {h} |"));
    }
    out.push('\n');
    out.push('|');
    for _ in headers {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        out.push('|');
        for cell in row {
            out.push_str(&format!(" {cell} |"));
        }
        out.push('\n');
    }
    out
}

/// Writes `content` under `results/` (created on demand) and echoes it to
/// stdout.
pub fn emit_report(filename: &str, content: &str) {
    // Tolerate a closed pipe (`table2 … | head` must not panic on EPIPE);
    // any other stdout failure is reported but does not abort the report
    // file write below.
    {
        use std::io::Write;
        let echo = || -> std::io::Result<()> {
            let mut out = std::io::stdout();
            out.write_all(content.as_bytes())?;
            out.write_all(b"\n")
        };
        if let Err(e) = echo() {
            if e.kind() != std::io::ErrorKind::BrokenPipe {
                eprintln!("warning: could not echo report to stdout: {e}");
            }
        }
    }
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(filename);
        if let Err(e) = std::fs::write(&path, content) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            eprintln!("wrote {}", path.display());
        }
    }
}

/// Shared driver for Tables II, III and TR-8 (they differ only in the
/// weight scheme): runs the grid, formats the FewgManyg and HiLo halves
/// with their footers, and emits the report.
pub fn run_quality_table(title: &str, filename: &str, grid: &[Config], opts: &Options) {
    let (fm, hl): (Vec<_>, Vec<_>) = grid.iter().partition(|c| {
        matches!(c.family, semimatch_gen::params::Family::Fg | semimatch_gen::params::Family::Mg)
    });
    let mut report = format!(
        "# {title}\n\nscale = {}, instances = {}, seed = {}\n\n",
        opts.scale, opts.instances, opts.seed
    );
    for (label, configs) in [("FewgManyg", fm), ("HiLo", hl)] {
        let rows: Vec<QualityRow> = configs.iter().map(|c| quality_row(c, opts)).collect();
        let mut table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                let mut row = vec![r.name.clone(), r.lb.to_string()];
                row.extend(r.ratios.iter().map(|x| format!("{x:.2}")));
                row.extend(r.flow_ratios.iter().map(|x| format!("{x:.2}")));
                row
            })
            .collect();
        let (avg_q, avg_f, avg_t) = footer(&rows);
        let mut qrow = vec!["Average quality".to_string(), String::new()];
        qrow.extend(avg_q.iter().map(|x| format!("{x:.2}")));
        qrow.extend(avg_f.iter().map(|x| format!("{x:.2}")));
        table.push(qrow);
        let mut trow = vec!["Average time (s)".to_string(), String::new()];
        trow.extend(avg_t.iter().map(|x| format!("{x:.3}")));
        trow.extend(SolverKind::HYPER_HEURISTICS.iter().map(|_| String::new()));
        table.push(trow);
        // Makespan-gap columns first (the paper's Tables II/III), then the
        // flow-time gap of the same solutions against the flow-time bound.
        let mut headers = vec!["Instance", "LB"];
        headers.extend(SolverKind::HYPER_HEURISTICS.iter().map(|k| k.label()));
        let flow_headers: Vec<String> =
            SolverKind::HYPER_HEURISTICS.iter().map(|k| format!("{} f/FLB", k.label())).collect();
        headers.extend(flow_headers.iter().map(|s| s.as_str()));
        report.push_str(&format!("## {label}\n\n"));
        report.push_str(&markdown_table(&headers, &table));
        report.push('\n');
    }
    emit_report(filename, &report);
}

/// Column-wise averages of the quality rows (the paper's "Average quality"
/// and "Average time" footer lines, plus the flow-time gap averages).
pub fn footer(rows: &[QualityRow]) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let k = rows.first().map_or(0, |r| r.ratios.len());
    let avg_quality =
        (0..k).map(|j| mean_f64(&rows.iter().map(|r| r.ratios[j]).collect::<Vec<_>>())).collect();
    let avg_flow = (0..k)
        .map(|j| mean_f64(&rows.iter().map(|r| r.flow_ratios[j]).collect::<Vec<_>>()))
        .collect();
    let avg_time =
        (0..k).map(|j| mean_f64(&rows.iter().map(|r| r.times[j]).collect::<Vec<_>>())).collect();
    (avg_quality, avg_flow, avg_time)
}

#[cfg(test)]
mod tests {
    use super::*;
    use semimatch_gen::params::Family;
    use semimatch_gen::weights::WeightScheme;

    fn tiny_cfg() -> Config {
        Config { family: Family::Fg, n: 160, p: 32, dv: 3, dh: 4, weights: WeightScheme::Related }
    }

    #[test]
    fn quality_row_is_deterministic_and_sane() {
        let opts = Options { scale: 1, instances: 3, seed: 7, ..Options::default() };
        let a = quality_row(&tiny_cfg(), &opts);
        let b = quality_row(&tiny_cfg(), &opts);
        assert_eq!(a.lb, b.lb);
        assert_eq!(a.ratios, b.ratios);
        assert_eq!(a.ratios.len(), 4);
        assert_eq!(a.flow_ratios.len(), 4);
        for &r in &a.ratios {
            assert!(r >= 1.0 - 1e-9, "heuristics cannot beat the lower bound: {r}");
            assert!(r < 50.0, "ratio {r} is implausible");
        }
        for &f in &a.flow_ratios {
            assert!(f >= 1.0 - 1e-9, "flow gap cannot beat the flow-time bound: {f}");
            assert!(f.is_finite(), "flow gap must be finite on covered instances");
        }
    }

    #[test]
    fn stats_row_matches_config() {
        let opts = Options { scale: 1, instances: 3, seed: 7, ..Options::default() };
        let s = stats_row(&tiny_cfg(), &opts);
        assert_eq!(s.n_tasks, 160);
        assert_eq!(s.n_procs, 32);
        assert!(s.n_hedges >= 160, "every task has ≥ 1 configuration");
        assert!(s.pins >= s.n_hedges);
    }

    #[test]
    fn scaling_preserves_divisibility() {
        let scaled = scale_config(tiny_cfg(), 4);
        assert_eq!(scaled.p % scaled.family.groups(), 0);
    }

    #[test]
    fn markdown_shape() {
        let table = markdown_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("| a |"));
        assert!(lines[2].contains("| 1 |"));
    }

    #[test]
    fn footer_averages() {
        let rows = vec![
            QualityRow {
                name: "x".into(),
                lb: 1,
                ratios: vec![1.0, 2.0],
                flow_ratios: vec![2.0, 4.0],
                times: vec![0.1, 0.2],
            },
            QualityRow {
                name: "y".into(),
                lb: 1,
                ratios: vec![3.0, 4.0],
                flow_ratios: vec![4.0, 6.0],
                times: vec![0.3, 0.4],
            },
        ];
        let (q, f, t) = footer(&rows);
        assert_eq!(q, vec![2.0, 3.0]);
        assert_eq!(f, vec![3.0, 5.0]);
        assert!((t[0] - 0.2).abs() < 1e-12 && (t[1] - 0.3).abs() < 1e-12);
    }
}
