//! Workspace-native static analysis for the `semimatch` workspace.
//!
//! A zero-dependency lint engine for the one invariant clippy cannot check:
//! atomic orderings in the concurrency-bearing modules must argue their
//! strength, and a relaxed read-modify-write is flagged unconditionally.
//! The unsafe, thread-spawn and cast audits are clippy lints
//! (`[workspace.lints.clippy]` in the root manifest, `clippy.toml`, and a
//! module-level `deny` on the score and lower-bound arithmetic).
//!
//! The engine is a lightweight line/token lexer ([`lexer`]) feeding two rules
//! ([`rules`]), with a counted, justification-carrying allowlist
//! ([`baseline`]) and `file:line` diagnostics ([`report`]). The
//! `semimatch-analyze` binary (and `semimatch analyze` subcommand) exit
//! non-zero on any unbaselined finding or stale baseline entry, which is what
//! the CI gate runs.
//!
//! ```no_run
//! use semimatch_analyze::{analyze, Options};
//! let report = analyze(&Options::for_root("/path/to/workspace".as_ref())).unwrap();
//! assert!(report.ok());
//! ```

pub mod baseline;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod workspace;

pub use report::{Finding, Report};

use std::fs;
use std::path::{Path, PathBuf};

/// Default baseline file name, resolved relative to the analysis root.
pub const BASELINE_FILE: &str = "analyze.baseline";

/// Which allowlist a run applies.
#[derive(Debug, Clone, Default)]
pub enum BaselineChoice {
    /// `ROOT/analyze.baseline` when it exists, else none.
    #[default]
    Default,
    /// An explicit baseline file (must exist and parse).
    File(PathBuf),
    /// No baseline: report every finding.
    None,
}

/// How to run an analysis.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workspace root to scan.
    pub root: PathBuf,
    /// The allowlist to apply.
    pub baseline: BaselineChoice,
}

impl Options {
    /// Analyze `root` with its default baseline.
    pub fn for_root(root: &Path) -> Options {
        Options { root: root.to_path_buf(), baseline: BaselineChoice::Default }
    }
}

/// Run the full rule set and apply the baseline. `Err` means the run itself
/// could not proceed (bad root, malformed baseline) — distinct from a clean
/// run with findings.
pub fn analyze(opts: &Options) -> Result<Report, String> {
    let ws = workspace::Workspace::load(&opts.root)?;
    let (rules, raw_findings) = rules::run_all(&ws);
    let baseline_path = match &opts.baseline {
        BaselineChoice::File(p) => Some(p.clone()),
        BaselineChoice::Default => {
            let default = opts.root.join(BASELINE_FILE);
            default.is_file().then_some(default)
        }
        BaselineChoice::None => None,
    };
    let (findings, baselined, stale) = match baseline_path {
        Some(path) => {
            let text = fs::read_to_string(&path)
                .map_err(|e| format!("baseline {}: {e}", path.display()))?;
            let base =
                baseline::Baseline::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            base.apply(raw_findings)
        }
        None => (raw_findings, 0, Vec::new()),
    };
    Ok(Report {
        root: opts.root.display().to_string(),
        files_scanned: ws.files.len(),
        rules,
        findings,
        baselined,
        stale_baseline: stale,
    })
}

/// Shared CLI driver for `semimatch-analyze` and `semimatch analyze`.
/// Parses `--root DIR`, `--baseline FILE`, `--no-baseline`, `--format=json`;
/// prints the report to stdout; returns the process exit code
/// (0 clean, 1 findings or stale baseline, 2 usage/configuration error).
pub fn cli_main(args: &[String]) -> i32 {
    let mut root: Option<PathBuf> = None;
    let mut baseline = BaselineChoice::Default;
    let mut json = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => return usage("--root needs a directory"),
            },
            "--baseline" => match it.next() {
                Some(v) => baseline = BaselineChoice::File(PathBuf::from(v)),
                None => return usage("--baseline needs a file"),
            },
            "--no-baseline" => baseline = BaselineChoice::None,
            "--format=json" => json = true,
            "--format=text" => json = false,
            "--help" | "-h" => {
                println!("{USAGE}");
                return 0;
            }
            other => {
                if let Some(v) = other.strip_prefix("--root=") {
                    root = Some(PathBuf::from(v));
                } else if let Some(v) = other.strip_prefix("--baseline=") {
                    baseline = BaselineChoice::File(PathBuf::from(v));
                } else {
                    return usage(&format!("unknown argument {other:?}"));
                }
            }
        }
    }
    let root = match root {
        Some(r) => r,
        None => match workspace::discover_root(&std::env::current_dir().unwrap_or_default()) {
            Some(r) => r,
            None => return usage("no --root given and no [workspace] Cargo.toml above cwd"),
        },
    };
    match analyze(&Options { root, baseline }) {
        Ok(rep) => {
            if json {
                print!("{}", rep.render_json());
            } else {
                print!("{}", rep.render_text());
            }
            i32::from(!rep.ok())
        }
        Err(e) => {
            eprintln!("semimatch-analyze: error: {e}");
            2
        }
    }
}

fn usage(msg: &str) -> i32 {
    eprintln!("semimatch-analyze: error: {msg}\n{USAGE}");
    2
}

const USAGE: &str = "usage: semimatch-analyze [--root DIR] [--baseline FILE | --no-baseline] \
                     [--format=text|json]
  --root DIR        workspace root (default: nearest [workspace] Cargo.toml above cwd)
  --baseline FILE   allowlist file (default: ROOT/analyze.baseline when present)
  --no-baseline     ignore any baseline; report every finding
  --format=json     emit a single JSON object, last on stdout (like --metrics=json)
exit status: 0 clean, 1 findings or stale baseline entries, 2 usage/configuration error";
