//! The rule engine: five lints grounded in this repository's history.
//!
//! | id | checks |
//! |----|--------|
//! | `unsafe-safety-comment` | every `unsafe` block/fn/impl carries `// SAFETY:` (or a `# Safety` doc section) |
//! | `atomic-ordering-justified` | every atomic `Ordering::` use in concurrency-bearing modules carries `// ordering:` |
//! | `relaxed-rmw` | `Ordering::Relaxed` as the success ordering of a read-modify-write — flagged unconditionally (baseline-only) |
//! | `truncating-cast` | `as u64`/`as u32`/`as usize` in score/objective/lower-bound paths needs `// cast:` |
//! | `no-thread-spawn` | no `std::thread::spawn` / `thread::Builder` outside `vendor/rayon` |

pub mod casts;
pub mod ordering;
pub mod safety;
pub mod thread_spawn;

use crate::lexer::SourceFile;
use crate::report::Finding;
use crate::workspace::Workspace;

/// Run every rule; returns the rule ids that ran and all raw findings,
/// sorted by (file, line, rule) for stable output.
pub fn run_all(ws: &Workspace) -> (Vec<&'static str>, Vec<Finding>) {
    let rules: Vec<&'static str> = vec![
        safety::RULE,
        ordering::RULE_JUSTIFIED,
        ordering::RULE_RELAXED_RMW,
        casts::RULE,
        thread_spawn::RULE,
    ];
    let mut findings = Vec::new();
    findings.extend(safety::check(ws));
    findings.extend(ordering::check(ws));
    findings.extend(casts::check(ws));
    findings.extend(thread_spawn::check(ws));
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    (rules, findings)
}

/// Is the site at `idx` (0-based) justified by a comment containing `marker`?
///
/// Accepts a marker in the comment channel of the line itself, or in an
/// adjacent block of lines directly above that contains only comments, blank
/// lines, and attributes. When `doc_marker` is given (e.g. `# Safety` for
/// `unsafe fn`), it is accepted in that same adjacent block — rustdoc already
/// renders it as the canonical contract location.
pub(crate) fn justified(
    file: &SourceFile,
    idx: usize,
    marker: &str,
    doc_marker: Option<&str>,
) -> bool {
    let hit =
        |comment: &str| comment.contains(marker) || doc_marker.is_some_and(|d| comment.contains(d));
    if hit(&file.lines[idx].comment) {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let l = &file.lines[i];
        if hit(&l.comment) {
            return true;
        }
        let t = l.code.trim();
        let passthrough = t.is_empty() || t.starts_with("#[") || t.starts_with("#![");
        if !passthrough {
            return false;
        }
    }
    false
}

/// Trimmed raw text of a 1-based line — the baseline snippet key.
pub(crate) fn snippet(file: &SourceFile, lineno: usize) -> String {
    file.lines.get(lineno - 1).map(|l| l.raw.trim().to_string()).unwrap_or_default()
}
