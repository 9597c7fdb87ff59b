//! The rule engine: two atomic-ordering lints clippy has no equivalent for.
//!
//! | id | checks |
//! |----|--------|
//! | `atomic-ordering-justified` | every atomic `Ordering::` use in concurrency-bearing modules carries `// ordering:` |
//! | `relaxed-rmw` | `Ordering::Relaxed` as the success ordering of a read-modify-write — flagged unconditionally (baseline-only) |

pub mod ordering;

use crate::lexer::SourceFile;
use crate::report::Finding;
use crate::workspace::Workspace;

/// Run every rule; returns the rule ids that ran and all raw findings,
/// sorted by (file, line, rule) for stable output.
pub fn run_all(ws: &Workspace) -> (Vec<&'static str>, Vec<Finding>) {
    let rules = vec![ordering::RULE_JUSTIFIED, ordering::RULE_RELAXED_RMW];
    let mut findings = ordering::check(ws);
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    (rules, findings)
}

/// Is the site at `idx` (0-based) justified by a comment containing `marker`?
///
/// Accepts a marker in the comment channel of the line itself, or in an
/// adjacent block of lines directly above that contains only comments, blank
/// lines, and attributes.
pub(crate) fn justified(file: &SourceFile, idx: usize, marker: &str) -> bool {
    if file.lines[idx].comment.contains(marker) {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let l = &file.lines[i];
        if l.comment.contains(marker) {
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
