//! Atomic-ordering lints over the concurrency-bearing modules.
//!
//! `atomic-ordering-justified`: every use of an atomic memory ordering
//! (`Ordering::{Relaxed, Acquire, Release, AcqRel, SeqCst}`) must carry an
//! `// ordering:` justification on the same line or directly above. The
//! pattern matches only the five atomic variants, so `std::cmp::Ordering`
//! (`Less`/`Equal`/`Greater`) never trips it.
//!
//! `relaxed-rmw`: `Ordering::Relaxed` as the *success* ordering of a
//! read-modify-write (`fetch_*`, `swap`, `compare_exchange*`, `fetch_update`)
//! is flagged unconditionally — no comment silences it. Legitimate uses
//! (statistics counters whose values synchronize nothing) live in the
//! baseline with a written justification, where they are counted and decay.

use crate::lexer::{word_positions, Line};
use crate::report::Finding;
use crate::rules::{justified, snippet};
use crate::workspace::Workspace;

pub const RULE_JUSTIFIED: &str = "atomic-ordering-justified";
pub const RULE_RELAXED_RMW: &str = "relaxed-rmw";

/// The concurrency-bearing modules under audit. Paths are relative to the
/// analysis root, so fixture trees that mirror the layout are covered too.
pub const SCOPED_FILES: [&str; 6] = [
    "vendor/rayon/src/pool.rs",
    "crates/obs/src/registry.rs",
    "crates/obs/src/trace.rs",
    "crates/obs/src/lib.rs",
    "crates/serve/src/engine.rs",
    "crates/daemon/src/daemon.rs",
];

const ATOMIC_ORDERINGS: [&str; 5] = [
    "Ordering::Relaxed",
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::AcqRel",
    "Ordering::SeqCst",
];

/// Read-modify-write methods whose *first* `Ordering::` argument is the
/// success ordering (true for all of them: `swap`/`fetch_*` take one,
/// `fetch_update` takes success first, `compare_exchange*` success third in
/// the argument list but first among orderings).
const RMW_METHODS: [&str; 13] = [
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_nand",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "swap",
    "compare_exchange_weak",
    "compare_exchange",
    "compare_and_swap",
];

pub fn check(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in &ws.files {
        if !SCOPED_FILES.contains(&file.rel.as_str()) {
            continue;
        }
        for (lineno, line) in file.code_lines() {
            let has_atomic = ATOMIC_ORDERINGS.iter().any(|o| line.code.contains(o));
            if has_atomic && !justified(file, lineno - 1, "ordering:") {
                out.push(Finding {
                    rule: RULE_JUSTIFIED,
                    file: file.rel.clone(),
                    line: lineno,
                    message: "atomic memory ordering without an `// ordering:` justification"
                        .to_string(),
                    snippet: snippet(file, lineno),
                });
            }
            for meth in relaxed_rmw_methods(line) {
                out.push(Finding {
                    rule: RULE_RELAXED_RMW,
                    file: file.rel.clone(),
                    line: lineno,
                    message: format!(
                        "`Ordering::Relaxed` as the success ordering of `{meth}` — a relaxed \
                         read-modify-write is flagged unconditionally; if the value \
                         synchronizes nothing, baseline it with a justification"
                    ),
                    snippet: snippet(file, lineno),
                });
            }
        }
    }
    out
}

/// RMW method calls on this line whose success ordering is `Relaxed`.
fn relaxed_rmw_methods(line: &Line) -> Vec<&'static str> {
    let mut out = Vec::new();
    let chars: Vec<char> = line.code.chars().collect();
    for meth in RMW_METHODS {
        for pos in word_positions(&line.code, meth) {
            // Require a method call: `.meth(`.
            if pos == 0 || chars[pos - 1] != '.' {
                continue;
            }
            let open = pos + meth.len();
            if chars.get(open) != Some(&'(') {
                continue;
            }
            // Search only the call's own argument span (up to the matching
            // `)` on this line; if the call spans lines, the rest of the
            // line — a documented limitation of the line engine).
            let mut depth = 0i32;
            let mut end = chars.len();
            for (k, &c) in chars.iter().enumerate().skip(open) {
                if c == '(' {
                    depth += 1;
                } else if c == ')' {
                    depth -= 1;
                    if depth == 0 {
                        end = k;
                        break;
                    }
                }
            }
            let span: String = chars[open..end].iter().collect();
            let first =
                ATOMIC_ORDERINGS.iter().filter_map(|o| span.find(o).map(|at| (at, *o))).min();
            if let Some((_, "Ordering::Relaxed")) = first {
                out.push(meth);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::SourceFile;

    fn line(src: &str) -> Line {
        SourceFile::lex("x.rs", src).lines[0].clone()
    }

    #[test]
    fn relaxed_rmw_detected() {
        assert_eq!(
            relaxed_rmw_methods(&line("c.fetch_add(1, Ordering::Relaxed);")),
            vec!["fetch_add"]
        );
        assert!(relaxed_rmw_methods(&line("c.fetch_add(1, Ordering::SeqCst);")).is_empty());
    }

    #[test]
    fn compare_exchange_success_ordering_wins() {
        // Success ordering Acquire: the trailing Relaxed is the failure
        // ordering and must not trip the unconditional flag.
        let l = line("c.compare_exchange(FREE, HELD, Ordering::Acquire, Ordering::Relaxed);");
        assert!(relaxed_rmw_methods(&l).is_empty());
        let l = line("c.compare_exchange(FREE, HELD, Ordering::Relaxed, Ordering::Relaxed);");
        assert_eq!(relaxed_rmw_methods(&l), vec!["compare_exchange"]);
    }

    #[test]
    fn vec_swap_is_not_atomic() {
        let l = line("xs.swap(i, j); y.load(Ordering::Relaxed);");
        assert!(relaxed_rmw_methods(&l).is_empty());
    }
}
