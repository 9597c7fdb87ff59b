//! Plain-text serialization for graphs and hypergraphs.
//!
//! Two line-oriented formats, both with `%`-prefixed comment lines:
//!
//! Bipartite (`.bg`):
//! ```text
//! % semimatch bipartite
//! <n_left> <n_right> <n_edges>
//! <left> <right> <weight>        (one line per edge, 0-based ids)
//! ```
//!
//! Hypergraph (`.hg`):
//! ```text
//! % semimatch hypergraph
//! <n_tasks> <n_procs> <n_hedges>
//! <task> <weight> <k> <p1> ... <pk>   (one line per hyperedge)
//! ```
//!
//! Readers accept arbitrary whitespace and ignore blank lines. All I/O is
//! buffered (perf-book guidance).

use std::io::{BufRead, BufReader, BufWriter, Read, Write};

use crate::bipartite::Bipartite;
use crate::error::{GraphError, Result};
use crate::hypergraph::Hypergraph;

/// Writes `g` in the `.bg` text format.
pub fn write_bipartite<W: Write>(g: &Bipartite, w: W) -> Result<()> {
    let mut out = BufWriter::new(w);
    writeln!(out, "% semimatch bipartite")?;
    writeln!(out, "{} {} {}", g.n_left(), g.n_right(), g.num_edges())?;
    for (_, v, u, wt) in g.edges() {
        writeln!(out, "{v} {u} {wt}")?;
    }
    out.flush()?;
    Ok(())
}

/// Reads a graph in the `.bg` text format.
pub fn read_bipartite<R: Read>(r: R) -> Result<Bipartite> {
    let mut lines = ContentLines::new(r);
    let (line_no, header) = lines
        .next_content()?
        .ok_or_else(|| GraphError::Parse { line: 0, msg: "missing header line".into() })?;
    let [n_left, n_right, m] = dims(&header, line_no)?;
    // Counts read from the file bound nothing until the lines are there:
    // the vectors grow with the input, never with the header.
    let (mut edges, mut weights) = (Vec::new(), Vec::new());
    for _ in 0..m {
        let (line_no, line) = lines.next_content()?.ok_or_else(|| GraphError::Parse {
            line: 0,
            msg: format!("expected {m} edge lines, file ended early"),
        })?;
        let nums = parse_numbers(&line, line_no, 3)?;
        edges.push((as_u32(nums[0], line_no)?, as_u32(nums[1], line_no)?));
        weights.push(nums[2]);
    }
    Bipartite::from_weighted_edges(n_left, n_right, &edges, &weights)
}

/// Writes `h` in the `.hg` text format.
pub fn write_hypergraph<W: Write>(h: &Hypergraph, w: W) -> Result<()> {
    let mut out = BufWriter::new(w);
    writeln!(out, "% semimatch hypergraph")?;
    writeln!(out, "{} {} {}", h.n_tasks(), h.n_procs(), h.n_hedges())?;
    for hid in 0..h.n_hedges() {
        write!(out, "{} {} {}", h.task_of(hid), h.weight(hid), h.hedge_size(hid))?;
        for &p in h.procs_of(hid) {
            write!(out, " {p}")?;
        }
        writeln!(out)?;
    }
    out.flush()?;
    Ok(())
}

/// Reads a hypergraph in the `.hg` text format.
pub fn read_hypergraph<R: Read>(r: R) -> Result<Hypergraph> {
    let mut lines = ContentLines::new(r);
    let (line_no, header) = lines
        .next_content()?
        .ok_or_else(|| GraphError::Parse { line: 0, msg: "missing header line".into() })?;
    let [n_tasks, n_procs, n_hedges] = dims(&header, line_no)?;
    let mut hedges = Vec::new();
    for _ in 0..n_hedges {
        let (line_no, line) = lines.next_content()?.ok_or_else(|| GraphError::Parse {
            line: 0,
            msg: format!("expected {n_hedges} hyperedge lines, file ended early"),
        })?;
        let mut it = line.split_whitespace();
        let task = as_u32(parse_token(&mut it, line_no)?, line_no)?;
        let weight = parse_token(&mut it, line_no)?;
        let k = as_u32(parse_token(&mut it, line_no)?, line_no)?;
        let mut procs = Vec::new();
        for _ in 0..k {
            procs.push(as_u32(parse_token(&mut it, line_no)?, line_no)?);
        }
        if it.next().is_some() {
            return Err(GraphError::Parse {
                line: line_no,
                msg: "trailing tokens after pin list".into(),
            });
        }
        hedges.push((task, procs, weight));
    }
    Hypergraph::from_hyperedges(n_tasks, n_procs, hedges)
}

/// Line iterator that skips comments/blank lines and tracks line numbers.
struct ContentLines<R: Read> {
    reader: BufReader<R>,
    buf: String,
    line_no: usize,
}

impl<R: Read> ContentLines<R> {
    fn new(r: R) -> Self {
        ContentLines { reader: BufReader::new(r), buf: String::new(), line_no: 0 }
    }

    fn next_content(&mut self) -> Result<Option<(usize, String)>> {
        loop {
            self.buf.clear();
            let n = self.reader.read_line(&mut self.buf)?;
            if n == 0 {
                return Ok(None);
            }
            self.line_no += 1;
            let trimmed = self.buf.trim();
            if trimmed.is_empty() || trimmed.starts_with('%') || trimmed.starts_with('#') {
                continue;
            }
            return Ok(Some((self.line_no, trimmed.to_string())));
        }
    }
}

fn parse_numbers(line: &str, line_no: usize, expect: usize) -> Result<Vec<u64>> {
    let nums: std::result::Result<Vec<u64>, _> =
        line.split_whitespace().map(str::parse::<u64>).collect();
    let nums = nums.map_err(|e| GraphError::Parse { line: line_no, msg: e.to_string() })?;
    if nums.len() != expect {
        return Err(GraphError::Parse {
            line: line_no,
            msg: format!("expected {expect} numbers, found {}", nums.len()),
        });
    }
    Ok(nums)
}

/// The three `u32` counts of a header line.
fn dims(header: &str, line_no: usize) -> Result<[u32; 3]> {
    let nums = parse_numbers(header, line_no, 3)?;
    Ok([as_u32(nums[0], line_no)?, as_u32(nums[1], line_no)?, as_u32(nums[2], line_no)?])
}

fn parse_token<'a>(it: &mut impl Iterator<Item = &'a str>, line_no: usize) -> Result<u64> {
    let tok = it
        .next()
        .ok_or_else(|| GraphError::Parse { line: line_no, msg: "line ended early".into() })?;
    tok.parse::<u64>().map_err(|e| GraphError::Parse { line: line_no, msg: e.to_string() })
}

fn as_u32(x: u64, line_no: usize) -> Result<u32> {
    u32::try_from(x)
        .map_err(|_| GraphError::Parse { line: line_no, msg: format!("{x} exceeds u32") })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bipartite_roundtrip() {
        let g =
            Bipartite::from_weighted_edges(3, 2, &[(0, 0), (0, 1), (2, 1)], &[5, 1, 9]).unwrap();
        let mut buf = Vec::new();
        write_bipartite(&g, &mut buf).unwrap();
        let back = read_bipartite(&buf[..]).unwrap();
        assert_eq!(g, back);
        back.validate().unwrap();
    }

    #[test]
    fn hypergraph_roundtrip() {
        let h = Hypergraph::from_hyperedges(
            3,
            4,
            vec![(0, vec![0, 1], 3), (1, vec![2], 1), (2, vec![1, 2, 3], 7)],
        )
        .unwrap();
        let mut buf = Vec::new();
        write_hypergraph(&h, &mut buf).unwrap();
        let back = read_hypergraph(&buf[..]).unwrap();
        assert_eq!(h, back);
        back.validate().unwrap();
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "% comment\n\n# another\n2 2 1\n% mid comment\n0 1 4\n";
        let g = read_bipartite(text.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.weight(0), 4);
    }

    #[test]
    fn truncated_file_is_an_error() {
        let text = "2 2 2\n0 1 1\n";
        let err = read_bipartite(text.as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { .. }));
    }

    #[test]
    fn bad_token_reports_line_number() {
        let text = "2 2 1\n0 x 1\n";
        match read_bipartite(text.as_bytes()).unwrap_err() {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn hyperedge_trailing_tokens_rejected() {
        let text = "1 2 1\n0 1 1 0 99\n";
        assert!(read_hypergraph(text.as_bytes()).is_err());
    }

    #[test]
    fn oversized_counts_and_ids_are_parse_errors() {
        let parse_err = |r: Result<()>| matches!(r, Err(GraphError::Parse { .. }));
        for bg in ["1 1 1000000000000\n", "4294967297 1 1\n0 0 1\n"] {
            assert!(parse_err(read_bipartite(bg.as_bytes()).map(drop)), "{bg:?}");
        }
        for hg in [
            "1 1 1000000000000\n",
            "1 1 1\n0 1 1000000000000 0\n",
            "1 1 1\n4294967296 1 1 0\n",
            "1 1 1\n0 1 1 4294967296\n",
        ] {
            assert!(parse_err(read_hypergraph(hg.as_bytes()).map(drop)), "{hg:?}");
        }
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(read_bipartite(&b""[..]).is_err());
        assert!(read_hypergraph(&b""[..]).is_err());
    }
}
