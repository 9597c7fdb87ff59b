//! Error type shared by all graph construction and I/O routines.

use std::fmt;

/// Errors raised while building, validating, or (de)serializing graphs.
#[derive(Debug)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum GraphError {
    /// A left/task vertex index is `>= n_left`.
    LeftOutOfRange { vertex: u32, n_left: u32 },
    /// A right/processor vertex index is `>= n_right`.
    RightOutOfRange { vertex: u32, n_right: u32 },
    /// The same (left, right) edge was inserted twice.
    DuplicateEdge { left: u32, right: u32 },
    /// The same processor appears twice inside one hyperedge.
    DuplicatePin { hedge: u32, proc: u32 },
    /// A hyperedge with no processors was inserted.
    EmptyHyperedge { task: u32 },
    /// A weight vector does not match the number of edges/hyperedges.
    WeightLengthMismatch { expected: usize, got: usize },
    /// A zero weight was supplied (execution times must be positive).
    ZeroWeight { index: usize },
    /// The tasks' heaviest weights sum past `u64::MAX`, so a processor load
    /// could wrap. `task` is the task whose heaviest weight crosses it.
    LoadOverflow { task: u32 },
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed text while parsing a serialized graph.
    Parse { line: usize, msg: String },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::LeftOutOfRange { vertex, n_left } => {
                write!(f, "left vertex {vertex} out of range (n_left = {n_left})")
            }
            GraphError::RightOutOfRange { vertex, n_right } => {
                write!(f, "right vertex {vertex} out of range (n_right = {n_right})")
            }
            GraphError::DuplicateEdge { left, right } => {
                write!(f, "duplicate edge ({left}, {right})")
            }
            GraphError::DuplicatePin { hedge, proc } => {
                write!(f, "hyperedge {hedge} contains processor {proc} twice")
            }
            GraphError::EmptyHyperedge { task } => {
                write!(f, "task {task} has an empty configuration (hyperedge with no processors)")
            }
            GraphError::WeightLengthMismatch { expected, got } => {
                write!(f, "weight vector length {got} does not match edge count {expected}")
            }
            GraphError::ZeroWeight { index } => {
                write!(f, "weight at index {index} is zero; execution times must be positive")
            }
            GraphError::LoadOverflow { task } => write!(
                f,
                "load overflow: with task {task}, the tasks' heaviest weights sum past \
                 u64::MAX, so a processor load could wrap"
            ),
            GraphError::Io(e) => write!(f, "i/o error: {e}"),
            GraphError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, GraphError>;

/// Rejects weights whose per-task maxima sum past `u64::MAX`. A task adds at
/// most its heaviest weight to any processor, so below that sum no load can
/// wrap. `task_ptr` is the task → slot CSR over `weights`.
pub(crate) fn check_load_bound(task_ptr: &[usize], weights: &[u64]) -> Result<()> {
    let mut sum = 0u64;
    for (task, slots) in task_ptr.windows(2).enumerate() {
        let heaviest = weights[slots[0]..slots[1]].iter().copied().max().unwrap_or(0);
        sum = sum.checked_add(heaviest).ok_or(GraphError::LoadOverflow { task: task as u32 })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_offender() {
        let e = GraphError::LeftOutOfRange { vertex: 7, n_left: 4 };
        assert!(e.to_string().contains('7'));
        assert!(e.to_string().contains('4'));

        let e = GraphError::DuplicateEdge { left: 1, right: 2 };
        assert!(e.to_string().contains("(1, 2)"));

        let e = GraphError::WeightLengthMismatch { expected: 10, got: 9 };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains('9'));
    }

    #[test]
    fn io_error_is_source() {
        use std::error::Error;
        let e = GraphError::from(std::io::Error::other("boom"));
        assert!(e.source().is_some());
    }

    #[test]
    fn parse_error_reports_line() {
        let e = GraphError::Parse { line: 3, msg: "bad token".into() };
        let s = e.to_string();
        assert!(s.contains("line 3"));
        assert!(s.contains("bad token"));
    }
}
