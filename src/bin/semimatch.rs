//! `semimatch` — command-line front end for the semi-matching scheduling
//! library.
//!
//! ```text
//! semimatch generate  --family FG --n 1280 --p 256 --weights related --out inst.hg
//! semimatch generate-bipartite --gen hilo --n 1280 --p 256 --g 32 --d 10 --out inst.bg
//! semimatch stats     inst.hg
//! semimatch solve     inst.hg --algo evg --refine
//! semimatch exact     inst.bg --strategy bisection
//! ```
//!
//! Instances use the text formats of `semimatch_graph::io` (`.hg` for
//! hypergraphs / MULTIPROC, `.bg` for bipartite graphs / SINGLEPROC).

use std::collections::HashMap;
use std::fs::File;
use std::process::ExitCode;

use semimatch::core::lower_bound::{lower_bound_multiproc, lower_bound_singleproc};
use semimatch::core::objective::Objective;
use semimatch::core::quality::{ratio, score_ratio};
use semimatch::core::refine::refine_with;
use semimatch::gen::params::{Config, Family};
use semimatch::gen::rng::Xoshiro256;
use semimatch::gen::weights::WeightScheme;
use semimatch::gen::{fewg_manyg, hilo_permuted};
use semimatch::graph::io::{read_bipartite, read_hypergraph, write_bipartite, write_hypergraph};
use semimatch::graph::{BipartiteStats, HypergraphStats};
use semimatch::solver::{solve_with as solve_kind_with, Problem, Solver, SolverClass, SolverKind};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `analyze` owns its exit-code contract (0 clean / 1 findings / 2
    // usage), so it bypasses the Result-based dispatch below.
    if args.first().map(String::as_str) == Some("analyze") {
        return ExitCode::from(semimatch::analyze::cli_main(&args[1..]).clamp(0, 255) as u8);
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
usage:
  semimatch generate            --family FG|MG|HLF|HLM --n N --p P
                                [--dv D] [--dh D] [--weights unit|related|random]
                                [--seed S] [--instance I] [--out FILE.hg]
  semimatch generate            --name FG-20-4-MP[-W|-R] [--seed S] [--instance I]
                                [--out FILE.hg]
  semimatch generate-bipartite  --gen hilo|fewgmanyg --n N --p P --g G --d D
                                [--seed S] [--out FILE.bg]
  semimatch stats               FILE.{hg,bg}
  semimatch solve               FILE.{hg,bg} [--algo KIND] [--refine PASSES]
                                [--objective OBJ] [--save FILE.sol]
  semimatch solve               FILE.{hg,bg} --kinds KIND,KIND,... [--objective OBJ]
                                (parse once, solve with every kind, print a
                                comparison table; workspaces are reused)
  semimatch verify              FILE.hg FILE.sol
  semimatch exact               FILE.bg [--strategy KIND]  (any exact SINGLEPROC
                                KIND; incremental|bisection|harvey still work)
  semimatch solvers             (the registry as a markdown table: every KIND
                                with its aliases, paper section and class)
  semimatch generate-trace      --procs P --arrivals N [--churn PCT]
                                [--max-configs C] [--max-pins K] [--max-weight W]
                                [--proc-events E] [--burst-every B] [--burst-len L]
                                [--seed S] [--out FILE.tr]
  semimatch replay              FILE.tr [--policy POLICY] [--kind KIND]
                                [--objective OBJ]
                                (stream the trace through the serving engine;
                                reports throughput, scores and repair work)
  semimatch serve               --tenants N [--shards S] [--policy POLICY]
                                [--slo-gap G] [--queue-cap Q] [--budget B]
                                [--max-tenants M] [--batch B] [--procs P] [--arrivals A]
                                [--hotness H] [--churn PCT] [--max-configs C]
                                [--max-pins K] [--max-weight W] [--proc-events E]
                                [--kind KIND] [--objective OBJ] [--seed S]
                                [--out FILE.mtr]
                                (multi-tenant serving daemon over a generated
                                multiplexed workload: sharded event router,
                                bounded per-tenant queues, migration budgets
                                and per-tenant optimality-gap SLO reporting)
  semimatch analyze             [--root DIR] [--baseline FILE | --no-baseline]
                                [--format text|json]
                                (workspace-native static analysis: the
                                atomic-ordering audits; clippy carries the
                                unsafe, thread-spawn and cast audits;
                                exits 0 clean, 1 on findings)
  semimatch dot                 FILE.{hg,bg} [--out FILE.dot]

KIND is any solver registry name (see `semimatch solvers`).
OBJ is a cost model: makespan (default) | flowtime | l<p> | weighted-load.
POLICY is a repair policy: eager (default) | lazy:SLACK | periodic:EVERY |
placement-only.

A command rejects any flag it does not read. Every command also accepts
--threads N to pin the size of the global work-stealing pool (0 = all
cores; the RAYON_NUM_THREADS environment variable is the fallback),
keeping runs reproducible on shared machines.

Telemetry (any command, most useful on solve/replay):
  --metrics[=text|json]   append a dump of every recorded counter, gauge
                          and histogram after the normal output. The JSON
                          dump is the last thing on stdout and starts at
                          the first line beginning with '{'.
  --trace-out FILE        also write span timings as Chrome trace_event
                          JSON (open in chrome://tracing or Perfetto).
replay --policy also accepts a comma-separated list; each policy replays
the trace through its own engine and the report shows per-policy final
gaps (score - lower bound) plus counter deltas against the first policy.";

/// Splits `args` into positional arguments and flag pairs. Flags come as
/// `--flag value` or `--flag=value`; `--metrics` alone is also accepted
/// (it defaults to the text format, and consumes a following bare token
/// only when it names a format).
fn parse(args: &[String]) -> Result<(Vec<&str>, HashMap<&str, &str>), String> {
    let mut positional = Vec::new();
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            if let Some((name, value)) = name.split_once('=') {
                flags.insert(name, value);
                i += 1;
            } else if name == "metrics" {
                match args.get(i + 1).map(String::as_str) {
                    Some(v @ ("json" | "text")) => {
                        flags.insert(name, v);
                        i += 2;
                    }
                    _ => {
                        flags.insert(name, "text");
                        i += 1;
                    }
                }
            } else {
                let value =
                    args.get(i + 1).ok_or_else(|| format!("flag --{name} needs a value"))?;
                flags.insert(name, value.as_str());
                i += 2;
            }
        } else {
            positional.push(args[i].as_str());
            i += 1;
        }
    }
    Ok((positional, flags))
}

/// Flags every command accepts: the pool size and the telemetry outputs.
const GLOBAL_FLAGS: &str = "threads metrics trace-out";

/// The flags each command reads beyond [`GLOBAL_FLAGS`], space-separated;
/// `None` for an unknown command. `run` rejects any other flag before the
/// command starts, so a misspelled option cannot be silently ignored.
fn command_flags(command: &str) -> Option<&'static str> {
    Some(match command {
        "generate" => "name family n p dv dh weights seed instance out",
        "generate-bipartite" => "gen n p g d seed out",
        "stats" | "verify" | "solvers" => "",
        "solve" => "algo kinds refine objective save",
        "exact" => "strategy",
        "generate-trace" => {
            "procs arrivals churn max-configs max-pins max-weight proc-events burst-every \
             burst-len seed out"
        }
        "replay" => "policy kind objective",
        "serve" => {
            "tenants shards policy slo-gap queue-cap budget max-tenants batch procs arrivals \
             hotness churn max-configs max-pins max-weight proc-events kind objective seed out"
        }
        "dot" => "out",
        _ => return None,
    })
}

/// The per-invocation telemetry session: when `--metrics` and/or
/// `--trace-out` are present, installs a [`Collecting`] recorder before
/// the command body runs (so every solver / engine / pool flush lands in
/// one registry) and emits the requested dumps after it succeeds.
struct Telemetry {
    recorder: Option<std::sync::Arc<semimatch::obs::Collecting>>,
    format: Option<&'static str>,
    trace_out: Option<String>,
}

impl Telemetry {
    fn from_flags(flags: &HashMap<&str, &str>) -> Result<Telemetry, String> {
        let format = match flags.get("metrics").copied() {
            None => None,
            Some("json") => Some("json"),
            Some("text") | Some("") => Some("text"),
            Some(other) => {
                return Err(format!("--metrics: unknown format '{other}' (json | text)"))
            }
        };
        let trace_out = flags.get("trace-out").map(|s| s.to_string());
        let recorder = if format.is_some() || trace_out.is_some() {
            let collecting = if trace_out.is_some() {
                semimatch::obs::Collecting::with_trace(semimatch::obs::DEFAULT_TRACE_CAPACITY)
            } else {
                semimatch::obs::Collecting::new()
            };
            let collecting = std::sync::Arc::new(collecting);
            semimatch::obs::install(collecting.clone());
            Some(collecting)
        } else {
            None
        };
        Ok(Telemetry { recorder, format, trace_out })
    }

    /// Folds the global pool's scheduler activity into the registry, then
    /// writes the metrics dump (last thing on stdout — a JSON dump starts
    /// at the first line beginning with `{`) and the Chrome trace file.
    /// Detaches the recorder without dumping (failed command).
    fn abort(self) {
        if self.recorder.is_some() {
            semimatch::obs::uninstall();
        }
    }

    fn finish(self) -> Result<(), String> {
        let Some(recorder) = self.recorder else { return Ok(()) };
        semimatch::obs::uninstall();
        if let Some(stats) = semimatch::rayon::global_pool_stats() {
            use semimatch::obs::catalog as metric;
            let reg = recorder.registry();
            reg.gauge_set(&metric::POOL_THREADS, stats.threads() as i64);
            reg.counter_add(&metric::POOL_TASKS_EXECUTED, stats.tasks_executed());
            reg.counter_add(&metric::POOL_STEALS, stats.steals());
            reg.counter_add(&metric::POOL_INJECTOR_POPS, stats.injector_pops());
            reg.counter_add(&metric::POOL_SLEEPS, stats.sleeps());
            reg.counter_add(&metric::POOL_WAKES, stats.wakes);
            for (i, w) in stats.workers.iter().enumerate() {
                reg.counter_add(&metric::POOL_WORKER_I_TASKS_EXECUTED.at(i), w.tasks_executed);
                reg.counter_add(&metric::POOL_WORKER_I_STEALS.at(i), w.steals);
            }
        }
        match self.format {
            Some("json") => {
                let mut dump = recorder.registry().render_json();
                dump.push('\n');
                emit_bytes(dump.as_bytes());
            }
            Some(_) => emit_bytes(recorder.registry().render_text().as_bytes()),
            None => {}
        }
        if let Some(path) = self.trace_out {
            let ring = recorder.ring().expect("--trace-out installs a trace ring");
            std::fs::write(&path, ring.render_chrome_json())
                .map_err(|e| format!("write {path}: {e}"))?;
            eprintln!("wrote {} ({} span events, {} dropped)", path, ring.len(), ring.dropped());
        }
        Ok(())
    }
}

fn req<'a>(flags: &HashMap<&str, &'a str>, name: &str) -> Result<&'a str, String> {
    flags.get(name).copied().ok_or_else(|| format!("missing required flag --{name}"))
}

fn num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("{what}: cannot parse '{s}'"))
}

/// Parses the optional flag `--name`, falling back to `default`.
fn opt_num<T: std::str::FromStr>(
    flags: &HashMap<&str, &str>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(name) {
        Some(v) => num(v, &format!("--{name}")),
        None => Ok(default),
    }
}

/// Handles a bulk-stdout write error: a closed pipe (`… | head`) ends the
/// dump quietly; any other I/O failure (e.g. ENOSPC on a redirect) must not
/// masquerade as success.
fn stdout_error(e: std::io::Error) {
    if e.kind() != std::io::ErrorKind::BrokenPipe {
        eprintln!("error: writing to stdout: {e}");
        std::process::exit(1);
    }
}

/// Writes a preassembled dump, tolerating only a closed pipe.
fn emit_bytes(buf: &[u8]) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().write_all(buf) {
        stdout_error(e);
    }
}

/// Writes bulk output lines, stopping quietly when the consumer closes the
/// pipe (`semimatch solve … | head` must not panic on EPIPE).
fn emit_lines<I: IntoIterator<Item = String>>(lines: I) {
    use std::io::Write;
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    for line in lines {
        if let Err(e) = writeln!(out, "{line}") {
            stdout_error(e);
            return;
        }
    }
    if let Err(e) = out.flush() {
        stdout_error(e);
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let (positional, flags) = parse(args)?;
    let command = *positional.first().ok_or("missing command")?;
    let accepted = command_flags(command).ok_or_else(|| format!("unknown command '{command}'"))?;
    let reads = |f: &str| {
        GLOBAL_FLAGS.split_whitespace().chain(accepted.split_whitespace()).any(|a| a == f)
    };
    let mut unread: Vec<&str> = flags.keys().copied().filter(|f| !reads(f)).collect();
    if !unread.is_empty() {
        unread.sort_unstable();
        return Err(format!("{command} does not take --{}", unread.join(", --")));
    }
    // Pin the global pool before any command touches it. `0` keeps the
    // automatic size (RAYON_NUM_THREADS, else all cores).
    if let Some(n) = flags.get("threads") {
        let n: usize = num(n, "--threads")?;
        semimatch::rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global()
            .map_err(|e| format!("--threads: {e}"))?;
    }
    // Install the collecting recorder (if requested) before the command
    // body so every gated instrumentation site in the stack records.
    let telemetry = Telemetry::from_flags(&flags)?;
    let result = match command {
        "generate" => generate(&flags),
        "generate-bipartite" => generate_bipartite(&flags),
        "stats" => stats(&positional),
        "solve" => solve(&positional, &flags),
        "exact" => exact(&positional, &flags),
        "solvers" => solvers(),
        "generate-trace" => generate_trace_cmd(&flags),
        "replay" => replay(&positional, &flags),
        "serve" => serve_cmd(&flags),
        "dot" => dot(&positional, &flags),
        "verify" => verify(&positional),
        other => Err(format!("unknown command '{other}'")),
    };
    if result.is_err() {
        telemetry.abort();
        return result;
    }
    telemetry.finish()
}

fn generate(flags: &HashMap<&str, &str>) -> Result<(), String> {
    let cfg = if let Some(name) = flags.get("name") {
        Config::from_name(name).ok_or_else(|| format!("'{name}' is not a Table I instance name"))?
    } else {
        let family = match req(flags, "family")? {
            "FG" => Family::Fg,
            "MG" => Family::Mg,
            "HLF" => Family::Hlf,
            "HLM" => Family::Hlm,
            other => return Err(format!("unknown family '{other}'")),
        };
        let weights = match flags.get("weights").copied().unwrap_or("unit") {
            "unit" => WeightScheme::Unit,
            "related" => WeightScheme::Related,
            "random" => WeightScheme::Random,
            other => return Err(format!("unknown weight scheme '{other}'")),
        };
        Config {
            family,
            n: num(req(flags, "n")?, "--n")?,
            p: num(req(flags, "p")?, "--p")?,
            dv: num(flags.get("dv").copied().unwrap_or("5"), "--dv")?,
            dh: num(flags.get("dh").copied().unwrap_or("10"), "--dh")?,
            weights,
        }
    };
    if cfg.p == 0 || cfg.dh == 0 {
        return Err("--p and --dh must be at least 1".into());
    }
    // Each task draws at most 2·dv configurations; their total must fit
    // the generator's u32 hyperedge count.
    if u64::from(cfg.n) * 2 * u64::from(cfg.dv) > u64::from(u32::MAX) {
        return Err(format!(
            "--dv {} lets {} tasks draw up to n·2·dv = {} configurations, more than {}",
            cfg.dv,
            cfg.n,
            u64::from(cfg.n) * 2 * u64::from(cfg.dv),
            u32::MAX
        ));
    }
    // Step 2 wires each configuration to at most 2·dh processors
    // (FewgManyg, drawn with replacement once that exceeds its window) or
    // 2·min(dh + 1, p/g) (HiLo, a range in each of two groups); the pins
    // of all n·2·dv configurations must fit u32 too.
    let per_config = match cfg.family {
        Family::Fg | Family::Mg => 2 * u128::from(cfg.dh),
        Family::Hlf | Family::Hlm => {
            2 * (u128::from(cfg.dh) + 1).min(u128::from(cfg.p / cfg.family.groups()))
        }
    };
    let pins = u128::from(cfg.n) * 2 * u128::from(cfg.dv) * per_config;
    if pins > u128::from(u32::MAX) {
        return Err(format!(
            "--dv {} and --dh {} let {} tasks' configurations take up to \
             n·2·dv·{per_config} = {pins} processor pins, more than {}",
            cfg.dv,
            cfg.dh,
            cfg.n,
            u32::MAX
        ));
    }
    if !cfg.p.is_multiple_of(cfg.family.groups()) {
        return Err(format!(
            "--p must be divisible by the family's group count ({})",
            cfg.family.groups()
        ));
    }
    let seed = num(flags.get("seed").copied().unwrap_or("42"), "--seed")?;
    let instance = num(flags.get("instance").copied().unwrap_or("0"), "--instance")?;
    let h = cfg.instance(seed, instance);
    match flags.get("out") {
        Some(path) => {
            let file = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
            write_hypergraph(&h, file).map_err(|e| e.to_string())?;
            eprintln!("wrote {} ({} hyperedges)", path, h.n_hedges());
        }
        None => {
            let mut out = Vec::new();
            write_hypergraph(&h, &mut out).map_err(|e| e.to_string())?;
            emit_bytes(&out);
        }
    }
    Ok(())
}

fn generate_bipartite(flags: &HashMap<&str, &str>) -> Result<(), String> {
    let n = num(req(flags, "n")?, "--n")?;
    let p: u32 = num(req(flags, "p")?, "--p")?;
    let g: u32 = num(req(flags, "g")?, "--g")?;
    let d: u32 = num(req(flags, "d")?, "--d")?;
    if p == 0 || d == 0 {
        return Err("--p and --d must be at least 1".into());
    }
    if g == 0 || !p.is_multiple_of(g) {
        return Err("--p must be divisible by --g".into());
    }
    let generator = req(flags, "gen")?;
    // FewgManyg draws up to 2·d processors per task.
    if generator == "fewgmanyg" && u64::from(n) * 2 * u64::from(d) > u64::from(u32::MAX) {
        return Err(format!(
            "--d {d} lets {n} tasks draw up to n·2·d = {} processors, more than {}",
            u64::from(n) * 2 * u64::from(d),
            u32::MAX
        ));
    }
    let seed = num(flags.get("seed").copied().unwrap_or("42"), "--seed")?;
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let graph = match generator {
        "hilo" => hilo_permuted(n, p, g, d, &mut rng),
        "fewgmanyg" => fewg_manyg(n, p, g, d, &mut rng),
        other => return Err(format!("unknown generator '{other}'")),
    };
    match flags.get("out") {
        Some(path) => {
            let file = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
            write_bipartite(&graph, file).map_err(|e| e.to_string())?;
            eprintln!("wrote {} ({} edges)", path, graph.num_edges());
        }
        None => {
            let mut out = Vec::new();
            write_bipartite(&graph, &mut out).map_err(|e| e.to_string())?;
            emit_bytes(&out);
        }
    }
    Ok(())
}

fn stats(positional: &[&str]) -> Result<(), String> {
    let path = *positional.get(1).ok_or("stats needs a file argument")?;
    let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    if path.ends_with(".bg") {
        let g = read_bipartite(file).map_err(|e| e.to_string())?;
        let s = BipartiteStats::of(&g);
        println!("bipartite instance {path}");
        println!("  |V1| = {}  |V2| = {}  |E| = {}", s.n_left, s.n_right, s.n_edges);
        println!(
            "  task degree: min {} / avg {:.2} / max {} (isolated: {})",
            s.min_deg_left, s.avg_deg_left, s.max_deg_left, s.isolated_left
        );
        println!(
            "  processor degree: min {} / avg {:.2} / max {}",
            s.min_deg_right, s.avg_deg_right, s.max_deg_right
        );
        let lb = lower_bound_singleproc(&g).map_err(|e| e.to_string())?;
        println!("  lower bound (Eq. 1): {lb}");
    } else {
        let h = read_hypergraph(file).map_err(|e| e.to_string())?;
        let s = HypergraphStats::of(&h);
        println!("hypergraph instance {path}");
        println!(
            "  |V1| = {}  |V2| = {}  |N| = {}  Σ|h∩V2| = {}",
            s.n_tasks, s.n_procs, s.n_hedges, s.total_pins
        );
        println!(
            "  configurations/task: min {} / avg {:.2} / max {}",
            s.min_deg_task, s.avg_deg_task, s.max_deg_task
        );
        println!(
            "  hyperedge size: min {} / avg {:.2} / max {}",
            s.min_hedge_size, s.avg_hedge_size, s.max_hedge_size
        );
        let lb = lower_bound_multiproc(&h).map_err(|e| e.to_string())?;
        println!("  lower bound (Eq. 1): {lb}");
    }
    Ok(())
}

/// Parses the optional `--objective` flag (default: makespan).
fn objective_flag(flags: &HashMap<&str, &str>) -> Result<Objective, String> {
    flags
        .get("objective")
        .copied()
        .unwrap_or("makespan")
        .parse()
        .map_err(|e: semimatch::core::CoreError| e.to_string())
}

fn solve(positional: &[&str], flags: &HashMap<&str, &str>) -> Result<(), String> {
    let path = *positional.get(1).ok_or("solve needs a file argument")?;
    let objective = objective_flag(flags)?;
    if let Some(kinds) = flags.get("kinds") {
        return solve_batch(path, kinds, objective, flags);
    }
    // Default to the strongest heuristic of the file's problem class.
    let default_algo = if path.ends_with(".bg") { "expected" } else { "evg" };
    let kind: SolverKind = flags
        .get("algo")
        .copied()
        .unwrap_or(default_algo)
        .parse()
        .map_err(|e: semimatch::core::CoreError| e.to_string())?;
    let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    if path.ends_with(".bg") {
        solve_bipartite(path, file, kind, objective, flags)
    } else {
        solve_hypergraph(path, file, kind, objective, flags)
    }
}

/// Multi-solver batch mode: parse the instance once, run every requested
/// kind through workspace-reusing solvers optimizing `objective`, print a
/// comparison table (makespan and objective score side by side).
fn solve_batch(
    path: &str,
    kinds_csv: &str,
    objective: Objective,
    flags: &HashMap<&str, &str>,
) -> Result<(), String> {
    if flags.contains_key("algo") || flags.contains_key("refine") || flags.contains_key("save") {
        return Err("--kinds cannot be combined with --algo/--refine/--save".into());
    }
    let kinds: Vec<SolverKind> = kinds_csv
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().map_err(|e: semimatch::core::CoreError| e.to_string()))
        .collect::<Result<_, _>>()?;
    if kinds.is_empty() {
        return Err("--kinds needs at least one solver name".into());
    }
    let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    // Parse once; hold the instance for the whole batch.
    let (bipartite, hypergraph);
    let problem = if path.ends_with(".bg") {
        bipartite = read_bipartite(file).map_err(|e| e.to_string())?;
        Problem::SingleProc(&bipartite)
    } else {
        hypergraph = read_hypergraph(file).map_err(|e| e.to_string())?;
        Problem::MultiProc(&hypergraph)
    };
    let lb = problem.lower_bound(objective).map_err(|e| e.to_string())?;
    println!("instance:  {path}");
    println!("objective: {objective}  (lower bound {lb})");
    println!(
        "{:<18} {:>10} {:>12} {:>8} {:>10}",
        "solver",
        "makespan",
        objective.name(),
        "ratio",
        "seconds"
    );
    // One workspace-backed solver per kind; each sees the already-parsed
    // instance (and would stay warm across a multi-instance batch).
    let mut solved = 0usize;
    for kind in &kinds {
        let mut solver = kind.solver();
        let start = std::time::Instant::now();
        let outcome = solver.solve_with(problem, objective);
        let secs = start.elapsed().as_secs_f64();
        match outcome {
            Ok(sol) => {
                // display_clamped: scores past u64::MAX (possibly saturated
                // L_p costs) print the >u64::MAX marker, never a silently
                // narrowed number.
                let m = sol.score(&problem, Objective::Makespan).map_err(|e| e.to_string())?;
                let score = sol.score(&problem, objective).map_err(|e| e.to_string())?;
                println!(
                    "{:<18} {:>10} {:>12} {:>8.3} {:>10.4}",
                    kind.name(),
                    m.display_clamped(),
                    score.display_clamped(),
                    score_ratio(score, lb),
                    secs
                );
                solved += 1;
            }
            Err(e) => println!("{:<18} {:>10} ({e})", kind.name(), "-"),
        }
    }
    // Per-kind failures are reported in their rows without aborting the
    // batch, but a batch where nothing solved is an error — matching the
    // --algo path's exit code for the same mistake.
    if solved == 0 {
        return Err(format!("none of the requested kinds solved {path}"));
    }
    Ok(())
}

fn solve_bipartite(
    path: &str,
    file: File,
    kind: SolverKind,
    objective: Objective,
    flags: &HashMap<&str, &str>,
) -> Result<(), String> {
    if flags.contains_key("refine") || flags.contains_key("save") {
        return Err("--refine/--save apply to hypergraph (.hg) instances only".into());
    }
    let g = read_bipartite(file).map_err(|e| e.to_string())?;
    let problem = Problem::SingleProc(&g);
    let sol = solve_kind_with(problem, kind, objective).map_err(|e| e.to_string())?;
    let sm = sol.as_semi().expect("SINGLEPROC problems yield SINGLEPROC solutions");
    let lb = lower_bound_singleproc(&g).map_err(|e| e.to_string())?;
    let m = sol.makespan(&problem).map_err(|e| e.to_string())?;
    println!("instance:  {path}");
    println!("solver:    {} ({})", kind.name(), kind.description());
    println!("objective: {objective}");
    println!("lower bound: {lb}");
    println!("makespan:    {m}  (ratio {:.3})", ratio(m, lb));
    if !objective.is_bottleneck() {
        let olb = problem.lower_bound(objective).map_err(|e| e.to_string())?;
        let score = sol.score(&problem, objective).map_err(|e| e.to_string())?;
        println!("{objective}:    {score}  (bound {olb}, ratio {:.3})", score_ratio(score, olb));
    }
    emit_lines((0..g.n_left()).map(|t| format!("  T{t} -> P{}", sm.proc_of(&g, t))));
    Ok(())
}

fn solve_hypergraph(
    path: &str,
    file: File,
    kind: SolverKind,
    objective: Objective,
    flags: &HashMap<&str, &str>,
) -> Result<(), String> {
    let h = read_hypergraph(file).map_err(|e| e.to_string())?;
    let problem = Problem::MultiProc(&h);
    let sol = solve_kind_with(problem, kind, objective).map_err(|e| e.to_string())?;
    let mut hm = sol.into_hyper().expect("MULTIPROC problems yield MULTIPROC solutions");
    // Pre-refine figures, captured together so the report never mixes the
    // pre- and post-refine solutions on adjacent lines.
    let base = hm.makespan(&h);
    let base_score = hm.score(&h, objective);
    let refined = if flags.contains_key("refine") {
        // --refine takes a pass count as its value; the descent accepts
        // moves under the requested objective.
        let passes = num(flags["refine"], "--refine")?;
        let stats = refine_with(&h, &mut hm, passes, objective).map_err(|e| e.to_string())?;
        Some((stats, hm.makespan(&h), hm.score(&h, objective)))
    } else {
        None
    };
    let lb = lower_bound_multiproc(&h).map_err(|e| e.to_string())?;
    println!("instance:  {path}");
    println!("solver:    {} ({})", kind.name(), kind.description());
    println!("objective: {objective}");
    println!("lower bound: {lb}");
    println!("makespan:    {base}  (ratio {:.3})", ratio(base, lb));
    let olb = if objective.is_bottleneck() {
        None
    } else {
        let olb = problem.lower_bound(objective).map_err(|e| e.to_string())?;
        println!(
            "{objective}:    {base_score}  (bound {olb}, ratio {:.3})",
            score_ratio(base_score, olb)
        );
        Some(olb)
    };
    if let Some((stats, m, score)) = refined {
        println!(
            "refined:     {m}  (ratio {:.3}; {} moves in {} passes)",
            ratio(m, lb),
            stats.moves,
            stats.passes
        );
        if let Some(olb) = olb {
            println!("refined {objective}: {score}  (ratio {:.3})", score_ratio(score, olb));
        }
    }
    if let Some(out) = flags.get("save") {
        let file = File::create(out).map_err(|e| format!("create {out}: {e}"))?;
        semimatch::core::solution_io::write_solution(&hm, file).map_err(|e| e.to_string())?;
        eprintln!("saved solution to {out}");
    } else {
        // Allocation dump: task → chosen hyperedge → processors.
        emit_lines(hm.hedge_of.iter().enumerate().map(|(t, &hid)| {
            format!("  T{t} -> h{hid} w={} procs={:?}", h.weight(hid), h.procs_of(hid))
        }));
    }
    Ok(())
}

fn verify(positional: &[&str]) -> Result<(), String> {
    let inst_path = *positional.get(1).ok_or("verify needs INSTANCE.hg SOLUTION.sol")?;
    let sol_path = *positional.get(2).ok_or("verify needs INSTANCE.hg SOLUTION.sol")?;
    let h = read_hypergraph(File::open(inst_path).map_err(|e| format!("open {inst_path}: {e}"))?)
        .map_err(|e| e.to_string())?;
    let sol_file = File::open(sol_path).map_err(|e| format!("open {sol_path}: {e}"))?;
    let hm = semimatch::core::solution_io::read_solution(&h, sol_file)
        .map_err(|e| format!("invalid solution: {e}"))?;
    let lb = lower_bound_multiproc(&h).map_err(|e| e.to_string())?;
    let profile = semimatch::core::analysis::LoadProfile::of(&h, &hm);
    // Through the EPIPE-safe writer: `verify … | head` must exit cleanly.
    emit_lines([
        "solution is VALID".to_string(),
        format!(
            "makespan: {} (lower bound {lb}, ratio {:.3})",
            hm.makespan(&h),
            ratio(hm.makespan(&h), lb)
        ),
        profile.summary(),
    ]);
    Ok(())
}

fn exact(positional: &[&str], flags: &HashMap<&str, &str>) -> Result<(), String> {
    let path = *positional.get(1).ok_or("exact needs a file argument")?;
    let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    let g = read_bipartite(file).map_err(|e| e.to_string())?;
    let kind: SolverKind = flags
        .get("strategy")
        .copied()
        .unwrap_or("bisection")
        .parse()
        .map_err(|e: semimatch::core::CoreError| e.to_string())?;
    if !kind.is_exact() || kind.class() == SolverClass::MultiProc {
        return Err(format!("'{}' is not an exact SINGLEPROC solver", kind.name()));
    }
    let problem = Problem::SingleProc(&g);
    let sol = solve_kind_with(problem, kind, Objective::Makespan).map_err(|e| e.to_string())?;
    let m = sol.makespan(&problem).map_err(|e| e.to_string())?;
    println!("instance: {path}");
    println!("optimal makespan: {m} ({})", kind.description());
    Ok(())
}

fn generate_trace_cmd(flags: &HashMap<&str, &str>) -> Result<(), String> {
    use semimatch::gen::trace::{generate_trace, TraceParams};
    let defaults = TraceParams::default();
    let params = TraceParams {
        n_procs: num(req(flags, "procs")?, "--procs")?,
        arrivals: num(req(flags, "arrivals")?, "--arrivals")?,
        churn_pct: opt_num(flags, "churn", defaults.churn_pct)?,
        max_configs: opt_num(flags, "max-configs", defaults.max_configs)?,
        max_pins: opt_num(flags, "max-pins", defaults.max_pins)?,
        max_weight: opt_num(flags, "max-weight", defaults.max_weight)?,
        proc_events: opt_num(flags, "proc-events", defaults.proc_events)?,
        burst_every: opt_num(flags, "burst-every", defaults.burst_every)?,
        burst_len: opt_num(flags, "burst-len", defaults.burst_len)?,
    };
    if params.n_procs == 0
        || params.max_configs == 0
        || params.max_pins == 0
        || params.max_weight == 0
    {
        return Err("--procs, --max-configs, --max-pins and --max-weight must be at least 1".into());
    }
    if params.churn_pct > 100 {
        return Err("--churn is a percentage (0-100)".into());
    }
    let seed = num(flags.get("seed").copied().unwrap_or("42"), "--seed")?;
    let trace = generate_trace(&params, &mut Xoshiro256::seed_from_u64(seed));
    match flags.get("out") {
        Some(path) => {
            let file = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
            trace.write(file).map_err(|e| e.to_string())?;
            eprintln!(
                "wrote {} ({} events, {} arrivals)",
                path,
                trace.events.len(),
                trace.arrivals()
            );
        }
        None => {
            let mut out = Vec::new();
            trace.write(&mut out).map_err(|e| e.to_string())?;
            emit_bytes(&out);
        }
    }
    Ok(())
}

fn replay(positional: &[&str], flags: &HashMap<&str, &str>) -> Result<(), String> {
    use semimatch::serve::{Counters, Engine, EngineConfig, RepairPolicy, Trace};
    let path = *positional.get(1).ok_or("replay needs a trace file argument")?;
    let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    let trace = Trace::read(file).map_err(|e| e.to_string())?;
    let policies: Vec<RepairPolicy> = flags
        .get("policy")
        .copied()
        .unwrap_or("eager")
        .split(',')
        .filter(|s| !s.is_empty())
        .map(str::parse)
        .collect::<Result<_, _>>()?;
    if policies.is_empty() {
        return Err("--policy needs at least one policy name".into());
    }
    let mut base = EngineConfig::default();
    if let Some(kind) = flags.get("kind") {
        base.resolve_kind = kind.parse().map_err(|e: semimatch::core::CoreError| e.to_string())?;
    }
    base.objective = objective_flag(flags)?;

    println!("trace:      {path} ({} events, {} arrivals)", trace.events.len(), trace.arrivals());
    let mut runs: Vec<(RepairPolicy, Engine, f64)> = Vec::with_capacity(policies.len());
    for &policy in &policies {
        let cfg = EngineConfig { policy, ..base };
        let mut engine = Engine::new(cfg, trace.n_procs).map_err(|e| e.to_string())?;
        let start = std::time::Instant::now();
        for (i, ev) in trace.events.iter().enumerate() {
            engine
                .apply(ev)
                .map_err(|e| format!("[{policy}] event {} ({}) failed: {e}", i + 1, ev.tag()))?;
        }
        let secs = start.elapsed().as_secs_f64();
        engine.counters().publish();
        runs.push((policy, engine, secs));
    }
    if let [(policy, engine, secs)] = &runs[..] {
        // Single policy: the classic report.
        println!(
            "policy:     {} (resolve kind {}, objective {})",
            policy, base.resolve_kind, base.objective
        );
        println!(
            "throughput: {:.0} events/sec ({:.4}s total)",
            trace.events.len() as f64 / secs.max(1e-9),
            secs
        );
        println!(
            "final:      {} live tasks on {} processors, bottleneck {}{}",
            engine.n_live_tasks(),
            engine.n_live_procs(),
            engine.bottleneck(),
            if engine.is_unit_singleton() { " (unit/singleton: repair is exact)" } else { "" }
        );
        let scores = engine
            .scores()
            .iter()
            .map(|(obj, score)| format!("{obj} {score}"))
            .collect::<Vec<_>>()
            .join("  ");
        println!("scores:     {scores}");
        println!(
            "gap:        {} ({} {} - lower bound {})",
            engine.gap(),
            base.objective,
            engine.score(base.objective),
            engine.lower_bound_estimate()
        );
        println!("repair:     {}", engine.counters());
        return Ok(());
    }
    // Multi-policy comparison: one engine per policy over the same trace;
    // counters reported as signed deltas against the first policy's run
    // (built from the saturating `Counters::delta` in both directions).
    println!(
        "compare:    {} policies (resolve kind {}, objective {})",
        runs.len(),
        base.resolve_kind,
        base.objective
    );
    let baseline: Counters = runs[0].1.counters();
    for (policy, engine, secs) in &runs {
        let counters = engine.counters();
        println!(
            "[{policy}]  {:.0} events/sec  bottleneck {}  {} {}  gap {}",
            trace.events.len() as f64 / secs.max(1e-9),
            engine.bottleneck(),
            base.objective,
            engine.score(base.objective),
            engine.gap(),
        );
        let gain = counters.delta(&baseline);
        let loss = baseline.delta(&counters);
        let row = counters
            .fields()
            .iter()
            .zip(gain.fields().iter().zip(loss.fields().iter()))
            .map(|((name, v), ((_, up), (_, down)))| {
                if *up > 0 {
                    format!("{name} {v} (+{up})")
                } else if *down > 0 {
                    format!("{name} {v} (-{down})")
                } else {
                    format!("{name} {v}")
                }
            })
            .collect::<Vec<_>>()
            .join("  ");
        println!("    {row}");
    }
    Ok(())
}

/// `semimatch serve`: the multi-tenant serving daemon over a generated
/// multiplexed workload. Generates per-tenant traces with Zipf-skewed
/// hotness, routes them through the sharded daemon in batches, and
/// reports aggregate throughput, backpressure accounting and every
/// tenant's live optimality gap against the configured SLO. With
/// `--metrics` the full daemon metric catalog (gap gauges, queue depths,
/// shed counters, per-shard pump histograms) lands in the dump.
fn serve_cmd(flags: &HashMap<&str, &str>) -> Result<(), String> {
    use semimatch::daemon::{Daemon, DaemonConfig};
    use semimatch::gen::trace::{generate_multiplexed, MultiplexParams, TraceParams};
    use semimatch::serve::{EngineConfig, RepairPolicy};

    let tenants: u32 = num(req(flags, "tenants")?, "--tenants")?;
    if tenants == 0 {
        return Err("--tenants must be at least 1".into());
    }
    let defaults = TraceParams::default();
    let per_tenant = TraceParams {
        n_procs: opt_num(flags, "procs", 8)?,
        arrivals: opt_num(flags, "arrivals", 512)?,
        churn_pct: opt_num(flags, "churn", defaults.churn_pct)?,
        max_configs: opt_num(flags, "max-configs", defaults.max_configs)?,
        max_pins: opt_num(flags, "max-pins", defaults.max_pins)?,
        max_weight: opt_num(flags, "max-weight", defaults.max_weight)?,
        proc_events: opt_num(flags, "proc-events", 0)?,
        burst_every: 0,
        burst_len: 0,
    };
    if per_tenant.n_procs == 0
        || per_tenant.arrivals == 0
        || per_tenant.max_configs == 0
        || per_tenant.max_pins == 0
        || per_tenant.max_weight == 0
    {
        return Err("--procs, --arrivals, --max-configs, --max-pins and --max-weight \
                    must be at least 1"
            .into());
    }
    if per_tenant.churn_pct > 100 {
        return Err("--churn is a percentage (0-100)".into());
    }
    let params = MultiplexParams { tenants, hotness: opt_num(flags, "hotness", 1)?, per_tenant };
    let seed = num(flags.get("seed").copied().unwrap_or("42"), "--seed")?;
    let trace = generate_multiplexed(&params, &mut Xoshiro256::seed_from_u64(seed));
    if let Some(path) = flags.get("out") {
        let file = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
        trace.write(file).map_err(|e| e.to_string())?;
        eprintln!("wrote {} ({} multiplexed events)", path, trace.events.len());
    }

    let policy: RepairPolicy = flags.get("policy").copied().unwrap_or("eager").parse()?;
    let mut engine = EngineConfig { policy, ..EngineConfig::default() };
    engine.objective = objective_flag(flags)?;
    if let Some(kind) = flags.get("kind") {
        engine.resolve_kind =
            kind.parse().map_err(|e: semimatch::core::CoreError| e.to_string())?;
    }
    let cfg = DaemonConfig {
        shards: opt_num(flags, "shards", 1)?,
        engine,
        queue_capacity: opt_num(flags, "queue-cap", 1024)?,
        migration_budget: opt_num(flags, "budget", u64::MAX)?,
        max_tenants: opt_num(flags, "max-tenants", tenants as usize)?,
        slo_gap: opt_num(flags, "slo-gap", u128::MAX)?,
    };
    let batch: usize = opt_num(flags, "batch", 256)?;
    let mut daemon = Daemon::new(cfg).map_err(|e| e.to_string())?;
    let start = std::time::Instant::now();
    daemon.run(&trace, batch).map_err(|e| e.to_string())?;
    let secs = start.elapsed().as_secs_f64();
    daemon.publish_metrics();

    let c = daemon.counters();
    println!(
        "daemon:     {} tenant(s) on {} shard(s), policy {}, objective {}",
        daemon.n_tenants(),
        cfg.shards,
        engine.policy,
        engine.objective
    );
    println!(
        "workload:   {} events (hotness {}, {} procs/tenant, seed {}), batch {}",
        trace.events.len(),
        params.hotness,
        trace.n_procs,
        seed,
        batch
    );
    println!(
        "throughput: {:.0} events/sec ({:.4}s total, {} pumps)",
        c.applied as f64 / secs.max(1e-9),
        secs,
        c.pumps
    );
    println!(
        "backpressure: {} shed (queue-full {}, apply-error {}), {} budget exhaustions",
        c.shed(),
        c.shed_queue_full,
        c.shed_apply_error,
        c.budget_exhaustions
    );
    let statuses = daemon.statuses();
    let violations = statuses.iter().filter(|st| !st.slo_ok).count();
    match cfg.slo_gap {
        u128::MAX => println!("slo:        no gap SLO configured"),
        g => println!("slo:        gap <= {g}: {violations} tenant(s) in violation"),
    }
    let header = format!(
        "{:>7} {:>5} {:>7} {:>7} {:>5} {:>10} {:>10} {:>10} {:>4}",
        "tenant", "shard", "events", "tasks", "shed", "score", "lower", "gap", "slo"
    );
    emit_lines(std::iter::once(header).chain(statuses.iter().map(|st| {
        format!(
            "{:>7} {:>5} {:>7} {:>7} {:>5} {:>10} {:>10} {:>10} {:>4}",
            st.tenant,
            st.shard,
            st.applied,
            st.live_tasks,
            st.shed,
            st.score.0,
            st.lower_bound.0,
            st.gap.0,
            if st.slo_ok { "ok" } else { "VIOL" }
        )
    })));
    Ok(())
}

/// Prints the registry as the markdown table the README carries between
/// its `solver-map` markers (a test keeps the two byte-identical).
fn solvers() -> Result<(), String> {
    let header = [
        "| name | aliases | paper | class | exact | description |".to_string(),
        "|---|---|---|---|---|---|".to_string(),
    ];
    emit_lines(header.into_iter().chain(SolverKind::ALL.into_iter().map(|kind| {
        let aliases: Vec<String> = kind.aliases().iter().map(|a| format!("`{a}`")).collect();
        let class = match kind.class() {
            SolverClass::SingleProc => "bipartite",
            SolverClass::MultiProc => "hypergraph",
            SolverClass::Either => "both",
        };
        format!(
            "| `{}` | {} | {} | {} | {} | {} |",
            kind.name(),
            aliases.join(", "),
            kind.paper_ref(),
            class,
            if kind.is_exact() { "yes" } else { "no" },
            kind.description()
        )
    })));
    Ok(())
}

fn dot(positional: &[&str], flags: &HashMap<&str, &str>) -> Result<(), String> {
    use semimatch::graph::dot::{write_dot_bipartite, write_dot_hypergraph};
    let path = *positional.get(1).ok_or("dot needs a file argument")?;
    let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    let mut buf = Vec::new();
    if path.ends_with(".bg") {
        let g = read_bipartite(file).map_err(|e| e.to_string())?;
        write_dot_bipartite(&g, &mut buf).map_err(|e| e.to_string())?;
    } else {
        let h = read_hypergraph(file).map_err(|e| e.to_string())?;
        write_dot_hypergraph(&h, &mut buf).map_err(|e| e.to_string())?;
    }
    match flags.get("out") {
        Some(out) => {
            std::fs::write(out, &buf).map_err(|e| format!("write {out}: {e}"))?;
            eprintln!("wrote {out}");
        }
        None => emit_bytes(&buf),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_splits_flags_and_positionals() {
        let args = argv(&["solve", "x.hg", "--algo", "sgh"]);
        let (pos, flags) = parse(&args).unwrap();
        assert_eq!(pos, vec!["solve", "x.hg"]);
        assert_eq!(flags["algo"], "sgh");
    }

    #[test]
    fn parse_rejects_dangling_flag() {
        let args = argv(&["solve", "--algo"]);
        assert!(parse(&args).is_err());
    }

    #[test]
    fn parse_accepts_equals_form_and_bare_metrics() {
        let args = argv(&["solve", "x.hg", "--algo=sgh", "--metrics"]);
        let (pos, flags) = parse(&args).unwrap();
        assert_eq!(pos, vec!["solve", "x.hg"]);
        assert_eq!(flags["algo"], "sgh");
        assert_eq!(flags["metrics"], "text", "bare --metrics defaults to text");
        // `--metrics` consumes a following token only when it is a format.
        let args = argv(&["replay", "--metrics", "json", "t.tr"]);
        let (pos, flags) = parse(&args).unwrap();
        assert_eq!(pos, vec!["replay", "t.tr"]);
        assert_eq!(flags["metrics"], "json");
        let args = argv(&["replay", "--metrics", "t.tr"]);
        let (pos, flags) = parse(&args).unwrap();
        assert_eq!(pos, vec!["replay", "t.tr"]);
        assert_eq!(flags["metrics"], "text");
        // The = form bypasses the lookahead entirely.
        let args = argv(&["replay", "--metrics=json"]);
        let (_, flags) = parse(&args).unwrap();
        assert_eq!(flags["metrics"], "json");
        // Unknown formats are rejected at telemetry setup.
        let mut bad = HashMap::new();
        bad.insert("metrics", "xml");
        assert!(Telemetry::from_flags(&bad).is_err());
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(run(&argv(&["frobnicate"])).is_err());
        assert!(run(&argv(&[])).is_err());
    }

    #[test]
    fn generate_requires_divisible_p() {
        let args = argv(&["generate", "--family", "FG", "--n", "64", "--p", "33"]);
        let err = run(&args).unwrap_err();
        assert!(err.contains("divisible"), "{err}");
    }

    #[test]
    fn end_to_end_generate_stats_solve_exact() {
        let dir = std::env::temp_dir().join("semimatch-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let hg = dir.join("t.hg");
        let bg = dir.join("t.bg");
        run(&argv(&[
            "generate",
            "--family",
            "FG",
            "--n",
            "64",
            "--p",
            "32",
            "--dv",
            "2",
            "--dh",
            "3",
            "--weights",
            "related",
            "--out",
            hg.to_str().unwrap(),
        ]))
        .unwrap();
        run(&argv(&["stats", hg.to_str().unwrap()])).unwrap();
        run(&argv(&["solve", hg.to_str().unwrap(), "--algo", "evg", "--refine", "8"])).unwrap();

        run(&argv(&[
            "generate-bipartite",
            "--gen",
            "fewgmanyg",
            "--n",
            "64",
            "--p",
            "16",
            "--g",
            "4",
            "--d",
            "3",
            "--out",
            bg.to_str().unwrap(),
        ]))
        .unwrap();
        run(&argv(&["stats", bg.to_str().unwrap()])).unwrap();
        for strategy in ["incremental", "bisection", "harvey"] {
            run(&argv(&["exact", bg.to_str().unwrap(), "--strategy", strategy])).unwrap();
        }

        // DOT export for both formats.
        let dot_out = dir.join("t.dot");
        run(&argv(&["dot", hg.to_str().unwrap(), "--out", dot_out.to_str().unwrap()])).unwrap();
        assert!(std::fs::read_to_string(&dot_out).unwrap().contains("graph semimatch"));
        run(&argv(&["dot", bg.to_str().unwrap()])).unwrap();

        // Save a solution, then independently verify it.
        let sol = dir.join("t.sol");
        run(&argv(&[
            "solve",
            hg.to_str().unwrap(),
            "--algo",
            "sgh",
            "--save",
            sol.to_str().unwrap(),
        ]))
        .unwrap();
        run(&argv(&["verify", hg.to_str().unwrap(), sol.to_str().unwrap()])).unwrap();
        // A corrupted solution must be rejected.
        std::fs::write(&sol, "1\n0\n").unwrap();
        assert!(run(&argv(&["verify", hg.to_str().unwrap(), sol.to_str().unwrap()])).is_err());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn solve_kinds_batch_mode() {
        let dir = std::env::temp_dir().join("semimatch-cli-kinds-test");
        std::fs::create_dir_all(&dir).unwrap();
        let bg = dir.join("k.bg");
        let hg = dir.join("k.hg");
        run(&argv(&[
            "generate-bipartite",
            "--gen",
            "hilo",
            "--n",
            "32",
            "--p",
            "8",
            "--g",
            "4",
            "--d",
            "2",
            "--out",
            bg.to_str().unwrap(),
        ]))
        .unwrap();
        // Parse once, solve with heuristics and both exact strategies.
        run(&argv(&[
            "solve",
            bg.to_str().unwrap(),
            "--kinds",
            "basic,expected,exact-incremental,exact-bisection",
        ]))
        .unwrap();
        // A class-mismatched kind reports per-row instead of aborting…
        run(&argv(&["solve", bg.to_str().unwrap(), "--kinds", "expected,sgh"])).unwrap();
        // …but a batch where nothing solves is an error (exit-code parity
        // with the --algo path).
        assert!(run(&argv(&["solve", bg.to_str().unwrap(), "--kinds", "sgh,evg"])).is_err());
        // Hypergraph side.
        run(&argv(&[
            "generate",
            "--family",
            "FG",
            "--n",
            "64",
            "--p",
            "32",
            "--dv",
            "2",
            "--dh",
            "3",
            "--out",
            hg.to_str().unwrap(),
        ]))
        .unwrap();
        run(&argv(&["solve", hg.to_str().unwrap(), "--kinds", "sgh,vgh,egh,evg"])).unwrap();
        // Error paths.
        assert!(run(&argv(&["solve", bg.to_str().unwrap(), "--kinds", ""])).is_err());
        assert!(run(&argv(&["solve", bg.to_str().unwrap(), "--kinds", "nonsense"])).is_err());
        assert!(run(&argv(&[
            "solve",
            bg.to_str().unwrap(),
            "--kinds",
            "basic",
            "--algo",
            "expected"
        ]))
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generate_trace_and_replay_round_trip() {
        let dir = std::env::temp_dir().join("semimatch-cli-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let tr = dir.join("t.tr");
        run(&argv(&[
            "generate-trace",
            "--procs",
            "8",
            "--arrivals",
            "64",
            "--churn",
            "25",
            "--proc-events",
            "4",
            "--burst-every",
            "16",
            "--seed",
            "7",
            "--out",
            tr.to_str().unwrap(),
        ]))
        .unwrap();
        for policy in ["eager", "lazy:4", "periodic:8"] {
            run(&argv(&["replay", tr.to_str().unwrap(), "--policy", policy])).unwrap();
        }
        run(&argv(&["replay", tr.to_str().unwrap(), "--policy", "periodic:4", "--kind", "sgh"]))
            .unwrap();
        // A SINGLEPROC-shaped trace reports the exact-repair marker.
        let str_tr = dir.join("s.tr");
        run(&argv(&[
            "generate-trace",
            "--procs",
            "4",
            "--arrivals",
            "32",
            "--max-pins",
            "1",
            "--max-weight",
            "1",
            "--out",
            str_tr.to_str().unwrap(),
        ]))
        .unwrap();
        run(&argv(&["replay", str_tr.to_str().unwrap()])).unwrap();
        // Comma-separated policies replay once per policy and compare.
        run(&argv(&["replay", tr.to_str().unwrap(), "--policy", "eager,lazy:4,periodic:8"]))
            .unwrap();
        // Error paths.
        assert!(run(&argv(&["replay", tr.to_str().unwrap(), "--policy", ","])).is_err());
        assert!(run(&argv(&["replay", tr.to_str().unwrap(), "--policy", "eager,bogus"])).is_err());
        assert!(run(&argv(&["replay", tr.to_str().unwrap(), "--policy", "bogus"])).is_err());
        assert!(run(&argv(&["replay", tr.to_str().unwrap(), "--kind", "nonsense"])).is_err());
        let err = run(&argv(&["replay", tr.to_str().unwrap(), "--shards", "2"])).unwrap_err();
        assert!(err.contains("--shards"), "{err}");
        assert!(run(&argv(&["replay", dir.join("missing.tr").to_str().unwrap()])).is_err());
        assert!(run(&argv(&["generate-trace", "--procs", "4"])).is_err(), "missing --arrivals");
        assert!(run(&argv(&[
            "generate-trace",
            "--procs",
            "4",
            "--arrivals",
            "8",
            "--churn",
            "200"
        ]))
        .is_err());
        assert!(run(&argv(&[
            "generate-trace",
            "--procs",
            "4",
            "--arrivals",
            "8",
            "--max-weight",
            "0"
        ]))
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn solve_objective_flag_and_tables() {
        use semimatch::graph::io::write_hypergraph;
        use semimatch::graph::Hypergraph;
        let dir = std::env::temp_dir().join("semimatch-cli-objective-test");
        std::fs::create_dir_all(&dir).unwrap();
        // The makespan/flow-time disagreement instance: T0 pinned to P0
        // (w3), T1 chooses {P0} w1 (flow-optimal) or a wide 7-processor
        // spread (makespan-optimal).
        let hg = dir.join("o.hg");
        let h = Hypergraph::from_hyperedges(
            2,
            8,
            vec![(0, vec![0], 3), (1, vec![0], 1), (1, vec![1, 2, 3, 4, 5, 6, 7], 1)],
        )
        .unwrap();
        write_hypergraph(&h, std::fs::File::create(&hg).unwrap()).unwrap();
        // Batch tables under both objectives, plus the single-algo path
        // with an objective-aware refine.
        for objective in ["makespan", "flowtime", "l2", "weighted-load"] {
            run(&argv(&[
                "solve",
                hg.to_str().unwrap(),
                "--kinds",
                "sgh,evg",
                "--objective",
                objective,
            ]))
            .unwrap();
        }
        run(&argv(&[
            "solve",
            hg.to_str().unwrap(),
            "--algo",
            "sgh",
            "--objective",
            "flowtime",
            "--refine",
            "4",
        ]))
        .unwrap();
        // Replay accepts the flag too.
        let tr = dir.join("o.tr");
        run(&argv(&[
            "generate-trace",
            "--procs",
            "4",
            "--arrivals",
            "32",
            "--out",
            tr.to_str().unwrap(),
        ]))
        .unwrap();
        run(&argv(&["replay", tr.to_str().unwrap(), "--objective", "flowtime"])).unwrap();
        run(&argv(&["replay", tr.to_str().unwrap(), "--objective", "l2", "--policy", "lazy:4"]))
            .unwrap();
        // Error path: an unknown objective is rejected everywhere.
        assert!(run(&argv(&["solve", hg.to_str().unwrap(), "--objective", "bogus"])).is_err());
        assert!(run(&argv(&["replay", tr.to_str().unwrap(), "--objective", "bogus"])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generate_by_table_name() {
        let dir = std::env::temp_dir().join("semimatch-cli-name-test");
        std::fs::create_dir_all(&dir).unwrap();
        let hg = dir.join("named.hg");
        // The smallest Table I instance, by its paper name.
        run(&argv(&["generate", "--name", "MG-5-1-MP-W", "--out", hg.to_str().unwrap()])).unwrap();
        run(&argv(&["stats", hg.to_str().unwrap()])).unwrap();
        assert!(run(&argv(&["generate", "--name", "bogus"])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
