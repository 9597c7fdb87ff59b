//! The semimatch benchmark: four closed-loop workloads driven from one
//! process through the public APIs of `serve`, `daemon` and `core`.
//!
//! ```text
//! perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--record FILE]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones (a separate traced pass, so the end-to-end numbers never pay for
//! it). The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it is
//! the run stamp. A failed correctness check still prints the result, then
//! exits with code 1. `--workload all` runs every workload in both modes,
//! each in its own child process, and writes the records to `--record`.
//! README.md lists the workloads, the metrics and the layers they load.

mod daemon;
mod eager;
mod measure;
mod solve;

use std::process::{Command, ExitCode};

use measure::Outcome;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = ["unit-eager", "weighted-eager", "daemon-placement", "solve-batch"];

/// The default workload seed. README.md names the held-out seed.
const DEFAULT_SEED: u64 = 42;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        record: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--record" => args.record = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {} or all", WORKLOADS.join(", ")));
    }
    Ok(args)
}

/// The commit of the checkout, read from `.git` in the working directory
/// (no `git` process, nothing read outside the checkout); `unknown` when
/// the checkout is not a repository.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id;
    }
    read(".git/packed-refs")
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn stamp_json(args: &Args, outcome: &Outcome) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let strings = |v: &[&str]| v.iter().map(|s| format!("\"{s}\"")).collect::<Vec<_>>().join(", ");
    format!(
        "{{\"stamp\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"pool_threads\": {}, \"git_commit\": \"{}\", \"policies\": [{}], \
         \"kinds\": [{}]}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc,
        outcome.pool_threads,
        git_commit(),
        strings(&outcome.policies),
        strings(&outcome.kinds),
    )
}

fn run_one(args: &Args) -> ExitCode {
    let outcome = match args.workload.as_str() {
        "unit-eager" => eager::run(eager::Shape::Unit, args.seed, args.seconds, args.trace),
        "weighted-eager" => eager::run(eager::Shape::Weighted, args.seed, args.seconds, args.trace),
        "daemon-placement" => daemon::run(args.seed, args.seconds, args.trace),
        "solve-batch" => solve::run(args.seed, args.seconds, args.trace),
        _ => unreachable!("validated by parse_args"),
    };
    for m in &outcome.metrics {
        println!("# {:<36} {:>22} {}", m.name, m.value, m.unit);
    }
    for e in &outcome.errors {
        println!("# CHECK FAILED: {e}");
        eprintln!("perfbench {}: check failed: {e}", args.workload);
    }
    println!("{}", stamp_json(args, &outcome));
    println!("{}", outcome.result_json());
    if outcome.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--workload all`: every workload in both modes, each in a child process
/// (so each reports its own peak memory), relaying the children's output
/// and collecting their stamp and result lines into one record.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut records = Vec::new();
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let out = Command::new(&exe)
                .args(["--workload", workload, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .output();
            let out = match out {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("perfbench: cannot run {workload}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let stdout = String::from_utf8_lossy(&out.stdout);
            println!("## {workload} --trace {trace}");
            print!("{stdout}");
            ok &= out.status.success();
            let lines: Vec<&str> = stdout.lines().rev().take(2).collect();
            if let [result, stamp] = lines[..] {
                records.push(format!("    {{\"run\": {stamp}, \"result\": {result}}}"));
            } else {
                ok = false;
            }
        }
    }
    if let Some(path) = &args.record {
        let body = format!("{{\n  \"records\": [\n{}\n  ]\n}}\n", records.join(",\n"));
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("perfbench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    }
}
