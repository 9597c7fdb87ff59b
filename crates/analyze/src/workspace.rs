//! Loading the analysis root: walking source trees and lexing files.

use crate::lexer::SourceFile;
use std::fs;
use std::path::{Path, PathBuf};

/// The lexed view of an analysis root that rules run against.
#[derive(Debug, Default)]
pub struct Workspace {
    /// The root directory the relative paths below hang off.
    pub root: PathBuf,
    /// Every lexed `.rs` file, sorted by relative path.
    pub files: Vec<SourceFile>,
}

/// Top-level directories scanned for Rust sources. `tests/`, `benches/` and
/// `examples/` trees are intentionally out of scope: the lints audit
/// production code, and the fixture trees under `tests/analyze_fixtures/`
/// contain seeded-bad snippets that must never leak into a workspace run.
const SCAN_DIRS: [&str; 3] = ["src", "crates", "vendor"];

/// Directory names skipped wherever they appear under a scan root.
const SKIP_DIRS: [&str; 5] = ["tests", "benches", "examples", "target", "fixtures"];

impl Workspace {
    /// Load and lex every in-scope `.rs` file under `root`.
    pub fn load(root: &Path) -> Result<Workspace, String> {
        if !root.is_dir() {
            return Err(format!("analysis root {} is not a directory", root.display()));
        }
        let mut files = Vec::new();
        for dir in SCAN_DIRS {
            let top = root.join(dir);
            if top.is_dir() {
                walk(&top, root, &mut files)?;
            }
        }
        files.sort_by(|a, b| a.rel.cmp(&b.rel));
        Ok(Workspace { root: root.to_path_buf(), files })
    }
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<SourceFile>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().to_string();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) || name.starts_with('.') {
                continue;
            }
            walk(&path, root, out)?;
        } else if name.ends_with(".rs") {
            let text =
                fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
            let rel = rel_path(&path, root);
            out.push(SourceFile::lex(&rel, &text));
        }
    }
    Ok(())
}

/// Relative path with `/` separators regardless of platform.
fn rel_path(path: &Path, root: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().to_string())
        .collect::<Vec<_>>()
        .join("/")
}

/// Walk upward from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]` — the analyzer's default root when none is given.
pub fn discover_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start.to_path_buf());
    while let Some(dir) = cur {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        cur = dir.parent().map(|p| p.to_path_buf());
    }
    None
}
