//! End-to-end test of the `semimatch` binary: generate → stats → solve
//! with every registry kind, driven through `std::process::Command` so the
//! real argv/exit-code/stdout surface is covered.

use std::fs::File;
use std::path::PathBuf;
use std::process::{Command, Output};

use semimatch::graph::io::{write_bipartite, write_hypergraph};
use semimatch::graph::{Bipartite, Hypergraph};
use semimatch::solver::{SolverClass, SolverKind};

fn semimatch(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_semimatch"))
        .args(args)
        .output()
        .expect("spawn semimatch binary")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn tmp_dir(tag: &str) -> PathBuf {
    // Keyed by pid so concurrent checkouts running `cargo test` on one
    // machine cannot clobber each other's instance files.
    let dir = std::env::temp_dir()
        .join(format!("semimatch-cli-integration-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes a tiny unit-weight bipartite and a tiny hypergraph instance —
/// small enough for every kind, including the exhaustive search.
fn write_tiny_instances(dir: &std::path::Path) -> (PathBuf, PathBuf) {
    let bg = dir.join("tiny.bg");
    let g = Bipartite::from_edges(
        6,
        3,
        &[(0, 0), (0, 1), (1, 0), (2, 1), (2, 2), (3, 2), (4, 0), (4, 2), (5, 1)],
    )
    .unwrap();
    write_bipartite(&g, File::create(&bg).unwrap()).unwrap();

    let hg = dir.join("tiny.hg");
    let h = Hypergraph::from_configs(
        3,
        &[vec![vec![0], vec![1, 2]], vec![vec![0]], vec![vec![2]], vec![vec![2]]],
    )
    .unwrap();
    write_hypergraph(&h, File::create(&hg).unwrap()).unwrap();
    (bg, hg)
}

#[test]
fn generate_and_stats_roundtrip() {
    let dir = tmp_dir("generate");
    let hg = dir.join("inst.hg");
    let bg = dir.join("inst.bg");

    // generate: the smallest FG-legal MULTIPROC instance (groups = 32).
    let out = semimatch(&[
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
    ]);
    assert!(out.status.success(), "generate failed: {out:?}");

    // generate-bipartite: a small unit-weight SINGLEPROC instance.
    let out = semimatch(&[
        "generate-bipartite",
        "--gen",
        "fewgmanyg",
        "--n",
        "24",
        "--p",
        "8",
        "--g",
        "4",
        "--d",
        "3",
        "--out",
        bg.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "generate-bipartite failed: {out:?}");

    // stats on both formats: exit 0, parseable lower bound line.
    for path in [&hg, &bg] {
        let out = semimatch(&["stats", path.to_str().unwrap()]);
        assert!(out.status.success(), "stats failed on {path:?}");
        let text = stdout(&out);
        let lb_line = text
            .lines()
            .find(|l| l.contains("lower bound"))
            .unwrap_or_else(|| panic!("no lower bound in stats output: {text}"));
        let lb: u64 = lb_line.rsplit(' ').next().unwrap().parse().expect("numeric lower bound");
        assert!(lb >= 1);
    }

    // A generated instance solves through the default registry kind.
    let out = semimatch(&["solve", hg.to_str().unwrap(), "--algo", "evg", "--refine", "8"]);
    assert!(out.status.success(), "solve on generated instance failed: {out:?}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn solve_accepts_every_registry_kind() {
    let dir = tmp_dir("solve");
    let (bg, hg) = write_tiny_instances(&dir);

    for kind in SolverKind::ALL {
        let paths: Vec<&PathBuf> = match kind.class() {
            SolverClass::SingleProc => vec![&bg],
            SolverClass::MultiProc => vec![&hg],
            SolverClass::Either => vec![&bg, &hg],
        };
        for path in paths {
            let out = semimatch(&["solve", path.to_str().unwrap(), "--algo", kind.name()]);
            assert!(
                out.status.success(),
                "solve --algo {} failed on {path:?}: {}",
                kind.name(),
                String::from_utf8_lossy(&out.stderr)
            );
            let text = stdout(&out);
            assert!(text.contains(kind.name()), "output names the solver: {text}");
            let makespan_line =
                text.lines().find(|l| l.starts_with("makespan:")).expect("makespan line");
            let m: u64 =
                makespan_line.split_whitespace().nth(1).unwrap().parse().expect("numeric makespan");
            assert!(m >= 1);
        }
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// `semimatch solvers` lists every kind, and its output is the README
/// solver map byte for byte: the map is generated, never hand-edited.
#[test]
fn solvers_subcommand_lists_the_whole_registry() {
    let out = semimatch(&["solvers"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for kind in SolverKind::ALL {
        assert!(text.contains(kind.name()), "missing {} in:\n{text}", kind.name());
    }
    let readme =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md")).unwrap();
    let (_, rest) = readme.split_once("<!-- solver-map:begin -->\n").expect("begin marker");
    let (block, _) = rest.split_once("<!-- solver-map:end -->").expect("end marker");
    assert!(
        block == text,
        "README solver map is stale; paste the output of `semimatch solvers` between the \
         solver-map markers.\n--- README ---\n{block}--- semimatch solvers ---\n{text}"
    );
}

#[test]
fn bad_usage_exits_2() {
    for args in [
        &["frobnicate"][..],
        &["solve", "/nonexistent/x.hg"][..],
        &["solve", "/nonexistent/x.hg", "--algo", "bogus"][..],
    ] {
        let out = semimatch(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
    }
    // Unknown solver name mentions the registry lookup failure.
    let dir = tmp_dir("badalgo");
    let (_, hg) = write_tiny_instances(&dir);
    let out = semimatch(&["solve", hg.to_str().unwrap(), "--algo", "nonsense"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown solver"));
    std::fs::remove_dir_all(&dir).ok();
}

/// A flag the subcommand does not read is an error naming it, not a
/// silently ignored misspelling; nothing is written or replayed.
#[test]
fn unread_flags_exit_2_and_name_the_flag() {
    let dir = tmp_dir("unread-flags");
    let tr = dir.join("smoke.tr");
    let gen = semimatch(&[
        "generate-trace",
        "--procs",
        "4",
        "--arrivals",
        "16",
        "--out",
        tr.to_str().unwrap(),
    ]);
    assert!(gen.status.success(), "{gen:?}");
    let tr = tr.to_str().unwrap();
    for (args, flag) in [
        (&["replay", tr, "--shards", "4"][..], "--shards"),
        (&["replay", tr, "--objectve", "flowtime"][..], "--objectve"),
        (&["generate-trace", "--procs", "4", "--arrivals", "3", "--max-pin", "1"][..], "--max-pin"),
    ] {
        let out = semimatch(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("does not take {flag}")), "args {args:?}: {err}");
        // Rejected before any work: no report, no trace on stdout.
        assert!(out.stdout.is_empty(), "args {args:?}: {}", stdout(&out));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Regression: two 2^63-weight arrivals on one processor used to wrap the
/// load and replay reported `bottleneck 0` against a lower bound of 2^64.
/// The overflowing event is now an error, not a score.
#[test]
fn replay_rejects_load_overflow_instead_of_wrapping() {
    let dir = tmp_dir("overflow");
    let tr = dir.join("overflow.tr");
    let half = 1u64 << 63;
    std::fs::write(&tr, format!("procs 1\narrive 0 {half}:0\narrive 1 {half}:0\n")).unwrap();
    let out = semimatch(&["replay", tr.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("event 2 (arrive) failed") && err.contains("u64::MAX"), "{err}");
    assert!(!stdout(&out).contains("gap:"), "{}", stdout(&out));
    std::fs::remove_dir_all(&dir).ok();
}

/// Regression: two 2^63-weight tasks on one processor used to solve to
/// `makespan: 0` (the load wrapped) under a `u64::MAX` lower bound.
#[test]
fn solve_rejects_weights_that_could_wrap_a_load() {
    let dir = tmp_dir("wrap");
    let bg = dir.join("wrap.bg");
    let half = 1u64 << 63;
    std::fs::write(&bg, format!("2 1 2\n0 0 {half}\n1 0 {half}\n")).unwrap();
    let out = semimatch(&["solve", bg.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("load overflow") && err.contains("u64::MAX"), "{err}");
    assert!(!stdout(&out).contains("makespan"), "{}", stdout(&out));
    std::fs::remove_dir_all(&dir).ok();
}

/// Every numeric flag of the generators and the daemon, set to 0 on an
/// otherwise small valid command, either succeeds or exits 2 with a
/// message: no zero reaches a generator's assertion.
#[test]
fn zero_valued_numeric_flags_exit_0_or_2() {
    let mut commands = Vec::new();
    for (family, p) in [("FG", 32), ("MG", 128), ("HLF", 32), ("HLM", 128)] {
        commands.push(format!(
            "generate --family {family} --n 64 --p {p} --dv 2 --dh 3 --seed 1 --instance 1"
        ));
    }
    for gen in ["hilo", "fewgmanyg"] {
        commands.push(format!("generate-bipartite --gen {gen} --n 24 --p 8 --g 4 --d 2 --seed 1"));
    }
    commands.push(
        "generate-trace --procs 4 --arrivals 32 --churn 20 --max-configs 2 --max-pins 2 \
         --max-weight 4 --proc-events 2 --burst-every 8 --burst-len 2 --seed 1"
            .into(),
    );
    commands.push(
        "serve --tenants 2 --shards 2 --slo-gap 4 --queue-cap 16 --budget 8 --max-tenants 2 \
         --batch 8 --procs 4 --arrivals 32 --hotness 1 --churn 20 --max-configs 2 \
         --max-pins 2 --max-weight 4 --proc-events 2 --seed 1"
            .into(),
    );
    let mut bad = Vec::new();
    for base in &commands {
        let base: Vec<&str> = base.split_whitespace().collect();
        // A flag is numeric when its value in the valid base command is.
        for i in (1..base.len()).step_by(2) {
            if base[i + 1].parse::<u64>().is_err() {
                continue;
            }
            let mut args = base.clone();
            args[i + 1] = "0";
            let out = semimatch(&args);
            let err = String::from_utf8_lossy(&out.stderr);
            if !matches!(out.status.code(), Some(0 | 2)) || err.contains("panicked") {
                bad.push(format!("{} -> {:?}: {err}", args.join(" "), out.status.code()));
            }
        }
    }
    assert!(bad.is_empty(), "{} command(s) failed:\n{}", bad.len(), bad.join("\n"));
}

#[test]
fn huge_shard_count_exits_0_or_2() {
    // Shards are created as tenants land on them, never up front.
    let out = semimatch(&["serve", "--tenants", "2", "--arrivals", "8", "--shards", "4000000000"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(matches!(out.status.code(), Some(0 | 2)), "exit {:?}: {err}", out.status.code());
}

/// `generate` rejects a `--dv` whose worst case, n·2·dv configurations,
/// overflows the u32 hyperedge count, before it draws anything. At
/// 2147483648 the trial count 2·dv wrapped to 0, and at 1073741824 the
/// degree sum wrapped after drawing for seconds.
#[test]
fn huge_dv_exits_2_before_drawing() {
    for dv in ["2147483648", "1073741824"] {
        let cmd = format!("generate --family FG --n 64 --p 32 --dv {dv} --dh 3");
        let out = semimatch(&cmd.split_whitespace().collect::<Vec<_>>());
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{cmd}: {err}");
        assert!(err.contains("--dv"), "{cmd}: {err}");
    }
}

/// FewgManyg draws up to 2·d processors per task, so a total past
/// `u32::MAX` exits 2 naming `--d` before anything is drawn or reserved.
/// The hypergraph families wire each of up to n·2·dv configurations to
/// at most 2·dh processors (FewgManyg) or 2·min(dh + 1, p/g) (HiLo); a
/// pin total past `u32::MAX` exits 2 naming `--dv` and `--dh`. The HLF
/// line passed the `--dv` check alone, then aborted on a step-2
/// allocation of tens of GB (exit 134).
#[test]
fn huge_fewgmanyg_degree_exits_2_before_drawing() {
    for (cmd, flags) in [
        ("generate-bipartite --gen fewgmanyg --n 10 --p 8 --g 2 --d 4294967295", &["--d"][..]),
        ("generate-bipartite --gen fewgmanyg --n 2 --p 8 --g 2 --d 1073741824", &["--d"]),
        ("generate --family FG --n 64 --p 32 --dv 2 --dh 4294967295", &["--dv", "--dh"]),
        ("generate --family MG --n 64 --p 128 --dv 1 --dh 16777216", &["--dv", "--dh"]),
        ("generate --family HLF --n 64 --p 32 --dv 33554431 --dh 2", &["--dv", "--dh"]),
        ("generate --family HLM --n 64 --p 1024 --dv 4194304 --dh 4294967295", &["--dv", "--dh"]),
    ] {
        let out = semimatch(&cmd.split_whitespace().collect::<Vec<_>>());
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{cmd}: {err}");
        assert!(flags.iter().all(|flag| err.contains(flag)), "{cmd}: {err}");
    }
    // Below the limit a degree far past the window of 3·p/g processors
    // builds at once.
    let out = semimatch(&[
        "generate-bipartite",
        "--gen",
        "fewgmanyg",
        "--n",
        "2",
        "--p",
        "8",
        "--g",
        "2",
        "--d",
        "1000000",
    ]);
    assert!(out.status.success(), "{out:?}");
}

/// HiLo gives a task at most min(d + 1, p/g) processors in each of two
/// groups, so a huge `--d` must neither size the edge reservation nor
/// change the instance: with p/g = 4, `--d u32::MAX` writes `--d 3`'s file.
#[test]
fn huge_hilo_degree_builds_the_capped_instance() {
    let dir = tmp_dir("huge-hilo");
    for (file, cmd) in [
        ("max.bg", "generate-bipartite --gen hilo --n 10 --p 8 --g 2 --d 4294967295"),
        ("three.bg", "generate-bipartite --gen hilo --n 10 --p 8 --g 2 --d 3"),
        ("max.hg", "generate --family HLF --n 64 --p 32 --dv 2 --dh 4294967295"),
    ] {
        let path = dir.join(file);
        let mut args: Vec<&str> = cmd.split_whitespace().collect();
        args.extend(["--out", path.to_str().unwrap()]);
        let out = semimatch(&args);
        assert!(out.status.success(), "{cmd}: {out:?}");
    }
    let read = |file| std::fs::read_to_string(dir.join(file)).unwrap();
    assert_eq!(read("max.bg"), read("three.bg"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn exact_strategies_agree_via_cli() {
    let dir = tmp_dir("exact");
    let (bg, _) = write_tiny_instances(&dir);
    let mut optima = Vec::new();
    for strategy in ["incremental", "bisection", "harvey", "exact-replicated"] {
        let out = semimatch(&["exact", bg.to_str().unwrap(), "--strategy", strategy]);
        assert!(out.status.success(), "exact --strategy {strategy} failed");
        let text = stdout(&out);
        let line = text.lines().find(|l| l.contains("optimal makespan")).unwrap();
        let m: u64 = line.split_whitespace().nth(2).unwrap().parse().unwrap();
        optima.push(m);
    }
    assert!(optima.windows(2).all(|w| w[0] == w[1]), "{optima:?}");
    // A heuristic kind is rejected by `exact`.
    let out = semimatch(&["exact", bg.to_str().unwrap(), "--strategy", "sorted"]);
    assert_eq!(out.status.code(), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_largest_lp_exponent_solves_at_once() {
    // An `l<k>` cost once took `k` multiplications per processor, so this
    // solve was still running after 20 s.
    let dir = tmp_dir("lmax");
    let bg = dir.join("three.bg");
    let g = Bipartite::from_edges(3, 2, &[(0, 0), (1, 0), (1, 1), (2, 1)]).unwrap();
    write_bipartite(&g, File::create(&bg).unwrap()).unwrap();
    let out = semimatch(&["solve", bg.to_str().unwrap(), "--objective", "l4294967295"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    // Two tasks on one processor cost 2^k, saturated.
    assert!(stdout(&out).contains(&format!("l4294967295:    {}", u128::MAX)), "{}", stdout(&out));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn objective_flag_changes_the_optimal_choice() {
    use semimatch::graph::io::write_hypergraph;
    let dir = tmp_dir("objective");
    // The disagreement instance: T0 pinned to P0 (w3); T1 either stacks
    // P0 (flow-time optimal: total cost 10 vs 13) or spreads over seven
    // processors (makespan optimal: bottleneck 3 vs 4).
    let hg = dir.join("disagree.hg");
    let h = Hypergraph::from_hyperedges(
        2,
        8,
        vec![(0, vec![0], 3), (1, vec![0], 1), (1, vec![1, 2, 3, 4, 5, 6, 7], 1)],
    )
    .unwrap();
    write_hypergraph(&h, File::create(&hg).unwrap()).unwrap();

    let run = |objective: &str| {
        let out = semimatch(&[
            "solve",
            hg.to_str().unwrap(),
            "--kinds",
            "sgh,evg",
            "--objective",
            objective,
        ]);
        assert!(out.status.success(), "--objective {objective} failed");
        stdout(&out)
    };
    let mk = run("makespan");
    let flow = run("flowtime");
    // Both kinds land on the makespan optimum (3) under makespan and on
    // the flow-time optimum (score 10, makespan 4) under flowtime — the
    // comparison tables visibly differ.
    assert_ne!(mk, flow, "objective flag must change the table");
    for line in mk.lines().filter(|l| l.starts_with("sgh") || l.starts_with("evg")) {
        let makespan: u64 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
        assert_eq!(makespan, 3, "makespan objective spreads wide: {line}");
    }
    for line in flow.lines().filter(|l| l.starts_with("sgh") || l.starts_with("evg")) {
        let cols: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(cols[1].parse::<u64>().unwrap(), 4, "flow objective stacks P0: {line}");
        assert_eq!(cols[2].parse::<u64>().unwrap(), 10, "flow-time score: {line}");
    }

    // Replay reports a live score board and accepts --objective.
    let tr = dir.join("t.tr");
    let gen = semimatch(&[
        "generate-trace",
        "--procs",
        "8",
        "--arrivals",
        "64",
        "--seed",
        "5",
        "--out",
        tr.to_str().unwrap(),
    ]);
    assert!(gen.status.success());
    let out = semimatch(&["replay", tr.to_str().unwrap(), "--objective", "flowtime"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("objective flowtime"), "{text}");
    assert!(text.contains("scores:") && text.contains("flowtime"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Regression: the `--kinds` comparison table must flag scores beyond
/// `u64::MAX` with a marker instead of printing a silently narrowed (or
/// saturated) number that reads as a real score.
#[test]
fn kinds_table_marks_scores_beyond_u64() {
    let dir = tmp_dir("marker");
    let bg = dir.join("huge.bg");
    // Two 2^62-weight tasks pinned to one processor: the makespan (2^63)
    // still fits u64 and must print exactly, but the l40 score saturates
    // far past u64::MAX.
    let w = 1u64 << 62;
    let g = Bipartite::from_weighted_edges(2, 1, &[(0, 0), (1, 0)], &[w, w]).unwrap();
    write_bipartite(&g, File::create(&bg).unwrap()).unwrap();

    let out =
        semimatch(&["solve", bg.to_str().unwrap(), "--kinds", "sorted", "--objective", "l40"]);
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    let row = text.lines().find(|l| l.starts_with("sorted")).unwrap_or_else(|| panic!("{text}"));
    assert!(row.contains(">u64::MAX"), "saturated l40 score must carry the marker: {row}");
    assert!(row.contains(&(1u64 << 63).to_string()), "exact makespan still prints: {row}");

    // Under makespan, everything fits: no marker anywhere.
    let out = semimatch(&["solve", bg.to_str().unwrap(), "--kinds", "sorted"]);
    assert!(out.status.success());
    assert!(!stdout(&out).contains(">u64::MAX"), "{}", stdout(&out));
    std::fs::remove_dir_all(&dir).ok();
}

/// Extracts the `--metrics=json` dump from a command's stdout: the suffix
/// starting at the first line that begins with `{` (the documented
/// extraction convention — the dump is the last thing printed).
fn metrics_json(text: &str) -> &str {
    let start = text
        .lines()
        .find(|l| l.starts_with('{'))
        .map(|l| l.as_ptr() as usize - text.as_ptr() as usize)
        .unwrap_or_else(|| panic!("no JSON dump in stdout: {text}"));
    text[start..].trim_end()
}

/// Checks the metrics dump's schema line by line: a sorted flat object
/// whose every value is `{"type": "counter"|"gauge", "value": N}` or
/// `{"type": "histogram", "count": N, "sum": N, "buckets": {...}}`.
fn assert_metrics_schema(json: &str) {
    assert!(json.starts_with("{\n") && json.ends_with('}'), "not an object: {json}");
    let mut names = Vec::new();
    for line in json.lines().skip(1) {
        if line == "}" {
            break;
        }
        let line = line.trim().trim_end_matches(',');
        let (name, value) = line
            .strip_prefix('"')
            .and_then(|l| l.split_once("\": "))
            .unwrap_or_else(|| panic!("malformed metric line: {line}"));
        names.push(name.to_string());
        let well_formed = (value.contains("\"type\": \"counter\"")
            || value.contains("\"type\": \"gauge\""))
            && value.contains("\"value\": ")
            || value.contains("\"type\": \"histogram\"")
                && value.contains("\"count\": ")
                && value.contains("\"sum\": ")
                && value.contains("\"buckets\": {");
        assert!(well_formed, "metric {name} breaks the schema: {value}");
    }
    assert!(!names.is_empty(), "metrics dump is empty");
    let mut sorted = names.clone();
    sorted.sort();
    assert_eq!(names, sorted, "dump must be sorted by metric name");
}

/// Reads the integer value of a `counter`/`gauge` metric out of the dump.
fn metric_value(json: &str, name: &str) -> i64 {
    let line = json
        .lines()
        .find(|l| l.trim_start().starts_with(&format!("\"{name}\"")))
        .unwrap_or_else(|| panic!("metric {name} missing from dump: {json}"));
    line.split("\"value\": ")
        .nth(1)
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit() && c != '-').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("metric {name} has no integer value: {line}"))
}

/// The CLI telemetry contract: `solve --metrics=json` and
/// `replay --metrics=json` both end stdout with a schema-conformant JSON
/// dump carrying the layer's key series (solver probes; the replay's
/// event count and repair span).
#[test]
fn solve_and_replay_emit_metrics_json() {
    let dir = tmp_dir("metrics");
    let bg = dir.join("inst.bg");
    let gen = semimatch(&[
        "generate-bipartite",
        "--gen",
        "hilo",
        "--n",
        "512",
        "--p",
        "8",
        "--g",
        "4",
        "--d",
        "2",
        "--out",
        bg.to_str().unwrap(),
    ]);
    assert!(gen.status.success());
    let out =
        semimatch(&["solve", bg.to_str().unwrap(), "--algo", "cost-scaling", "--metrics=json"]);
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    assert!(text.contains("makespan"), "normal output precedes the dump: {text}");
    let json = metrics_json(&text);
    assert_metrics_schema(json);
    assert!(metric_value(json, "cost_scaling.solves") >= 1, "{json}");
    assert!(metric_value(json, "cost_scaling.probes") >= 1, "{json}");
    assert!(json.contains("\"span.cost_scaling.solve\""), "span histogram missing: {json}");

    let tr = dir.join("inst.tr");
    let gen = semimatch(&[
        "generate-trace",
        "--procs",
        "16",
        "--arrivals",
        "300",
        "--churn",
        "20",
        "--seed",
        "9",
        "--out",
        tr.to_str().unwrap(),
    ]);
    assert!(gen.status.success());
    let out = semimatch(&["replay", tr.to_str().unwrap(), "--metrics=json"]);
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    let json = metrics_json(&text);
    assert_metrics_schema(json);
    let trace = semimatch::serve::Trace::read(File::open(&tr).unwrap()).unwrap();
    let events = metric_value(json, "serve.counters.events");
    assert_eq!(events, trace.events.len() as i64, "every trace event counted once");
    let line = json
        .lines()
        .find(|l| l.trim_start().starts_with("\"span.serve.repair\""))
        .expect("repair span histogram");
    assert!(line.contains("\"type\": \"histogram\""), "{line}");
    assert!(!line.contains("\"count\": 0,"), "repair span histogram must be populated: {line}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The serving-daemon subcommand (the ISSUE's smoke contract): a
/// per-tenant status table on stdout, a schema-conformant metrics dump
/// with a finite gap gauge per tenant, and zero shed at low load —
/// plus the `streaming-two-pass` kind and the per-policy gap column of
/// `replay --policy a,b,c`.
#[test]
fn serve_subcommand_reports_tenant_gaps_and_sheds_nothing() {
    let out = semimatch(&[
        "serve",
        "--tenants",
        "3",
        "--shards",
        "2",
        "--arrivals",
        "60",
        "--seed",
        "11",
        "--metrics=json",
    ]);
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    assert!(text.contains("daemon:") && text.contains("throughput:"), "{text}");
    assert!(text.contains("backpressure:"), "{text}");
    let json = metrics_json(&text);
    assert_metrics_schema(json);
    for t in 0..3 {
        let gap = metric_value(json, &format!("daemon.tenant.{t}.gap"));
        assert!(gap >= 0, "tenant {t} gap must be finite and non-negative: {gap}");
        let score = metric_value(json, &format!("daemon.tenant.{t}.score"));
        let lower = metric_value(json, &format!("daemon.tenant.{t}.lower_bound"));
        assert_eq!(gap, score - lower, "published gap disagrees with its gauges");
    }
    assert_eq!(metric_value(json, "daemon.tenants"), 3, "{json}");
    assert_eq!(metric_value(json, "daemon.shed_queue_full"), 0, "low load must not shed");
    assert_eq!(metric_value(json, "daemon.shed_apply_error"), 0, "generated traces apply cleanly");
    assert!(json.contains("\"daemon.tenant.gap\""), "gap histogram missing: {json}");

    // The two-pass streaming refinement is a kind of its own.
    let dir = tmp_dir("serve-cli");
    let (bg, _hg) = write_tiny_instances(&dir);
    let out = semimatch(&["solve", bg.to_str().unwrap(), "--algo", "streaming-two-pass"]);
    assert!(out.status.success(), "{out:?}");
    assert!(stdout(&out).contains("makespan"), "{}", stdout(&out));

    // The replay policy comparison prints a final gap per policy row.
    let tr = dir.join("t.tr");
    let gen = semimatch(&[
        "generate-trace",
        "--procs",
        "6",
        "--arrivals",
        "80",
        "--churn",
        "25",
        "--seed",
        "3",
        "--out",
        tr.to_str().unwrap(),
    ]);
    assert!(gen.status.success());
    let out = semimatch(&["replay", tr.to_str().unwrap(), "--policy", "eager,lazy:4,periodic:16"]);
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    for policy in ["[eager]", "[lazy:4]", "[periodic:16]"] {
        let row = text
            .lines()
            .find(|l| l.trim_start().starts_with(policy))
            .unwrap_or_else(|| panic!("no comparison row for {policy}: {text}"));
        assert!(row.contains("gap "), "row lacks the final gap: {row}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// An instance without tasks has makespan 0 over lower bound 0: every
/// ratio the reports print reads as a perfect 1.000, never `NaN`.
#[test]
fn empty_instances_print_finite_ratios() {
    let dir = tmp_dir("empty");
    let (bg, hg, sol) = (dir.join("empty.bg"), dir.join("empty.hg"), dir.join("empty.sol"));
    std::fs::write(&bg, "0 1 0\n").unwrap();
    std::fs::write(&hg, "0 1 0\n").unwrap();
    std::fs::write(&sol, "% semimatch solution\n0\n").unwrap();
    let (bg, hg, sol) = (bg.to_str().unwrap(), hg.to_str().unwrap(), sol.to_str().unwrap());
    for args in [
        vec!["solve", bg],
        vec!["solve", hg],
        vec!["solve", hg, "--refine", "4"],
        vec!["verify", hg, sol],
    ] {
        let out = semimatch(&args);
        assert!(out.status.success(), "{args:?}: {out:?}");
        let text = stdout(&out);
        assert!(text.contains("ratio 1.000"), "{args:?}: {text}");
        assert!(!text.contains("NaN"), "{args:?}: {text}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
