//! A deliberately small line-oriented Rust lexer.
//!
//! The rule engine does not need a full parse tree: every lint in this crate
//! is a statement about *lines* — "this line uses an atomic ordering", "this
//! line calls a read-modify-write", "the adjacent comment carries a
//! justification". What it does need, and what a naive `grep` cannot deliver,
//! is a reliable separation of the two channels a source line interleaves:
//!
//! * **code** — the line with comments removed and string/char literal
//!   *contents* blanked (the quotes stay, so call shapes like `load("")`
//!   remain visible). Rules match tokens here, so `Ordering::Relaxed` inside
//!   a doc comment or a format string can never trip a lint.
//! * **comment** — the concatenated text of `//` and `/* */` comments that
//!   touch the line. The `ordering:` justification marker is looked up here.
//!
//! The lexer also tracks `#[cfg(test)] mod` regions by brace depth so rules
//! can skip test-only code (test modules may hammer orderings freely without
//! polluting the production audit).

/// One source line, split into the two channels described at module level.
#[derive(Debug, Clone, Default)]
pub struct Line {
    /// The raw line as it appears in the file (without the trailing newline).
    pub raw: String,
    /// Comment-free code with string/char contents blanked; quotes preserved.
    pub code: String,
    /// Concatenated text of every comment overlapping this line.
    pub comment: String,
    /// True when the line sits inside a `#[cfg(test)] mod` region.
    pub in_test: bool,
}

/// A lexed source file with a workspace-relative path.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Path relative to the analysis root, with `/` separators.
    pub rel: String,
    /// Lines in order; line numbers are `index + 1`.
    pub lines: Vec<Line>,
}

impl SourceFile {
    /// Lex `text` into per-line records.
    pub fn lex(rel: &str, text: &str) -> SourceFile {
        let mut lines = lex_lines(text);
        mark_test_regions(&mut lines);
        SourceFile { rel: rel.to_string(), lines }
    }

    /// 1-based line numbers paired with records, skipping test regions.
    pub fn code_lines(&self) -> impl Iterator<Item = (usize, &Line)> {
        self.lines.iter().enumerate().filter(|(_, l)| !l.in_test).map(|(i, l)| (i + 1, l))
    }
}

/// Cross-line lexer mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Code,
    /// Inside nested block comments at the given depth.
    Block(u32),
    /// Inside a normal `"` string (possibly continued across lines).
    Str,
    /// Inside a raw string with the given number of `#` marks.
    RawStr(u8),
}

fn lex_lines(text: &str) -> Vec<Line> {
    let mut out = Vec::new();
    let mut mode = Mode::Code;
    for raw in text.lines() {
        let (line, next) = lex_one(raw, mode);
        mode = next;
        out.push(line);
    }
    out
}

/// Lex a single line starting in `mode`; return the record and the mode the
/// next line starts in.
fn lex_one(raw: &str, start: Mode) -> (Line, Mode) {
    let b: Vec<char> = raw.chars().collect();
    let n = b.len();
    let mut code = String::new();
    let mut comment = String::new();
    let mut mode = start;
    let mut i = 0usize;
    while i < n {
        match mode {
            Mode::Block(depth) => {
                if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    mode = Mode::Block(depth + 1);
                    i += 2;
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    mode = if depth == 1 { Mode::Code } else { Mode::Block(depth - 1) };
                    i += 2;
                } else {
                    comment.push(b[i]);
                    i += 1;
                }
            }
            Mode::Str => {
                if b[i] == '"' {
                    code.push('"');
                    mode = Mode::Code;
                }
                i += if b[i] == '\\' { 2 } else { 1 };
            }
            Mode::RawStr(hashes) => {
                if b[i] == '"' && closes_raw(&b, i, hashes) {
                    code.push('"');
                    for _ in 0..hashes {
                        code.push('#');
                    }
                    mode = Mode::Code;
                    i += 1 + hashes as usize;
                } else {
                    i += 1;
                }
            }
            Mode::Code => {
                let c = b[i];
                if c == '/' && i + 1 < n && b[i + 1] == '/' {
                    // Line comment (incl. doc comments): rest of line.
                    comment.push_str(&raw[char_byte(raw, i)..]);
                    i = n;
                } else if c == '/' && i + 1 < n && b[i + 1] == '*' {
                    mode = Mode::Block(1);
                    i += 2;
                } else if c == '"' {
                    code.push('"');
                    mode = Mode::Str;
                    i += 1;
                } else if (c == 'r' || c == 'b') && is_raw_string_start(&b, i) {
                    let (hashes, skip) = raw_string_open(&b, i);
                    for k in 0..skip {
                        code.push(b[i + k]);
                    }
                    mode = Mode::RawStr(hashes);
                    i += skip;
                } else if c == 'b' && i + 1 < n && b[i + 1] == '"' {
                    code.push('b');
                    code.push('"');
                    mode = Mode::Str;
                    i += 2;
                } else if c == '\'' {
                    // Char literal vs lifetime. `'\x'`-style escapes and
                    // `'c'` are literals; `'a` followed by anything else is
                    // a lifetime and passes through as code.
                    if i + 1 < n && b[i + 1] == '\\' {
                        let mut j = i + 2;
                        while j < n && b[j] != '\'' {
                            j += if b[j] == '\\' { 2 } else { 1 };
                        }
                        code.push('\'');
                        code.push('\'');
                        i = (j + 1).min(n);
                    } else if i + 2 < n && b[i + 2] == '\'' {
                        code.push('\'');
                        code.push('\'');
                        i += 3;
                    } else {
                        code.push(c);
                        i += 1;
                    }
                } else {
                    code.push(c);
                    i += 1;
                }
            }
        }
    }
    (Line { raw: raw.to_string(), code, comment, in_test: false }, mode)
}

/// Does the `"` at `i` close a raw string with `hashes` trailing `#` marks?
fn closes_raw(b: &[char], i: usize, hashes: u8) -> bool {
    let h = hashes as usize;
    if i + h >= b.len() + usize::from(h == 0) && h > 0 {
        return false;
    }
    (1..=h).all(|k| i + k < b.len() && b[i + k] == '#')
}

/// Is `b[i]` the start of a raw (byte) string literal: `r"`, `r#"`, `br"`…?
fn is_raw_string_start(b: &[char], i: usize) -> bool {
    // Reject identifiers ending in r/b, e.g. `for"`-like shapes cannot occur
    // but `var"` could if `var` ended with r; require a non-ident char before.
    if i > 0 && (b[i - 1].is_alphanumeric() || b[i - 1] == '_') {
        return false;
    }
    let mut j = i;
    if b[j] == 'b' {
        j += 1;
        if j >= b.len() || b[j] != 'r' {
            return false;
        }
    }
    if j >= b.len() || b[j] != 'r' {
        return false;
    }
    j += 1;
    while j < b.len() && b[j] == '#' {
        j += 1;
    }
    j < b.len() && b[j] == '"'
}

/// Length (in chars) and hash count of a raw-string opener at `i`.
fn raw_string_open(b: &[char], i: usize) -> (u8, usize) {
    let mut j = i;
    if b[j] == 'b' {
        j += 1;
    }
    j += 1; // the `r`
    let mut hashes = 0u8;
    while j < b.len() && b[j] == '#' {
        hashes += 1;
        j += 1;
    }
    j += 1; // the `"`
    (hashes, j - i)
}

/// Byte offset of the `idx`-th char in `s`.
fn char_byte(s: &str, idx: usize) -> usize {
    s.char_indices().nth(idx).map(|(o, _)| o).unwrap_or(s.len())
}

/// Mark lines inside `#[cfg(test)] mod … { … }` regions.
///
/// Tracks brace depth over the comment/string-free `code` channel. A pending
/// `#[cfg(test)]` attribute arms the detector; the next item that is a `mod`
/// declaration opens a test region lasting until depth returns to the level
/// before its `{`.
fn mark_test_regions(lines: &mut [Line]) {
    let mut depth: i64 = 0;
    let mut pending_cfg_test = false;
    // Depth values at which an open test region ends (stack for nesting).
    let mut test_ends: Vec<i64> = Vec::new();
    for line in lines.iter_mut() {
        let trimmed = line.code.trim();
        let passthrough =
            trimmed.is_empty() || trimmed.starts_with("#[") || trimmed.starts_with("#![");
        if line.code.contains("#[cfg(test)]") {
            pending_cfg_test = true;
        }
        let is_mod_line = is_mod_decl(trimmed);
        if !test_ends.is_empty() {
            line.in_test = true;
        }
        let mut chars = line.code.chars().peekable();
        let mut saw_mod_brace = false;
        while let Some(c) = chars.next() {
            match c {
                '{' => {
                    if pending_cfg_test && is_mod_line && !saw_mod_brace {
                        test_ends.push(depth);
                        pending_cfg_test = false;
                        saw_mod_brace = true;
                        line.in_test = true;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if let Some(&end) = test_ends.last() {
                        if depth == end {
                            test_ends.pop();
                        }
                    }
                }
                _ => {
                    let _ = &mut chars;
                }
            }
        }
        // The attribute armed the detector but the item was not a module
        // (e.g. `#[cfg(test)] fn helper()`): disarm after that item line.
        if pending_cfg_test && !passthrough && !is_mod_line && !line.code.contains("#[cfg(test)]") {
            pending_cfg_test = false;
        }
    }
}

/// Is this trimmed code line a `mod` declaration (`mod x {`, `pub mod x;`…)?
fn is_mod_decl(trimmed: &str) -> bool {
    let t = trimmed.strip_prefix("pub ").unwrap_or(trimmed);
    let t = t.strip_prefix("pub(crate) ").unwrap_or(t);
    t.starts_with("mod ")
}

/// Find `needle` in `hay` as a whole word (not flanked by ident chars).
/// Returns char positions of every match start.
pub fn word_positions(hay: &str, needle: &str) -> Vec<usize> {
    let h: Vec<char> = hay.chars().collect();
    let nd: Vec<char> = needle.chars().collect();
    let mut out = Vec::new();
    if nd.is_empty() || h.len() < nd.len() {
        return out;
    }
    for start in 0..=(h.len() - nd.len()) {
        if h[start..start + nd.len()] != nd[..] {
            continue;
        }
        let before_ok = start == 0 || !is_ident(h[start - 1]);
        let after = start + nd.len();
        let after_ok = after >= h.len() || !is_ident(h[after]);
        if before_ok && after_ok {
            out.push(start);
        }
    }
    out
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_code_comment_string() {
        let f = SourceFile::lex("x.rs", "let a = \"Ordering::Relaxed\"; // ordering: note\n");
        let l = &f.lines[0];
        assert_eq!(l.code.trim_end(), "let a = \"\";");
        assert!(l.comment.contains("ordering: note"));
    }

    #[test]
    fn block_comments_and_nesting() {
        let f = SourceFile::lex("x.rs", "a /* c1 /* c2 */ still */ b\nplain\n");
        assert_eq!(f.lines[0].code.replace(' ', ""), "ab");
        assert!(f.lines[0].comment.contains("c1"));
        assert_eq!(f.lines[1].code, "plain");
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let f = SourceFile::lex("x.rs", "fn f<'a>(x: &'a str) { let c = '\"'; let d = 'y'; }\n");
        let l = &f.lines[0];
        assert!(l.code.contains("<'a>"));
        // Char-literal contents are blanked, so the quote char cannot open a
        // string that would swallow the rest of the line.
        assert!(l.code.contains("let c = '';") && l.code.contains("let d = '';"), "{}", l.code);
    }

    #[test]
    fn raw_strings() {
        let f = SourceFile::lex("x.rs", "let s = r#\"he \"quoted\" re\"#; x\n");
        assert_eq!(f.lines[0].code, "let s = r#\"\"#; x");
    }

    #[test]
    fn test_region_marking() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let f = SourceFile::lex("x.rs", src);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[2].in_test);
        assert!(f.lines[3].in_test);
        assert!(f.lines[4].in_test);
        assert!(!f.lines[5].in_test);
    }

    #[test]
    fn word_boundaries() {
        assert_eq!(word_positions("xas as asx as", "as"), vec![4, 11]);
    }
}
