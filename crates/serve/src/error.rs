//! Error type for the serving engine.

use std::fmt;

use semimatch_core::CoreError;

/// Errors surfaced while ingesting events or repairing the assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// An arriving task id is already live.
    DuplicateTask(u32),
    /// A depart/reweight referenced a task that is not live.
    UnknownTask(u32),
    /// An added processor id is already live.
    DuplicateProc(u32),
    /// A dropped processor id is not live.
    UnknownProc(u32),
    /// The last live processor cannot be dropped.
    LastProc(u32),
    /// A task arrived without configurations.
    NoConfigs(u32),
    /// A configuration has an empty processor set.
    EmptyConfig {
        /// The offending task.
        task: u32,
    },
    /// A configuration has weight zero.
    ZeroWeight {
        /// The offending task.
        task: u32,
    },
    /// An arriving configuration references a processor that is not live.
    DeadPin {
        /// The offending task.
        task: u32,
        /// The dead or unknown processor.
        proc: u32,
    },
    /// A task would be left without any fully-live configuration (on
    /// arrival, or by a processor drop).
    NoLiveConfig {
        /// The stranded task.
        task: u32,
    },
    /// A reweight supplied the wrong number of weights.
    WeightCountMismatch {
        /// The reweighted task.
        task: u32,
        /// Its configuration count.
        expected: usize,
        /// Weights supplied.
        got: usize,
    },
    /// Admitting the arrival or reweight would let the live tasks'
    /// heaviest configuration weights sum past `u64::MAX`, so some
    /// processor load could overflow. The engine is left unchanged.
    LoadOverflow {
        /// The arriving or reweighted task.
        task: u32,
    },
    /// The engine configuration is unusable for the instance (zero
    /// resolve period, or a bipartite-only resolve kind on a live instance
    /// with non-singleton configurations).
    Config {
        /// What is wrong.
        msg: &'static str,
    },
    /// A from-scratch resolve failed in the underlying solver.
    Core(CoreError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::DuplicateTask(t) => write!(f, "task {t} is already live"),
            ServeError::UnknownTask(t) => write!(f, "task {t} is not live"),
            ServeError::DuplicateProc(p) => write!(f, "processor {p} is already live"),
            ServeError::UnknownProc(p) => write!(f, "processor {p} is not live"),
            ServeError::LastProc(p) => {
                write!(f, "processor {p} is the last live processor and cannot be dropped")
            }
            ServeError::NoConfigs(t) => write!(f, "task {t} arrived without configurations"),
            ServeError::EmptyConfig { task } => {
                write!(f, "task {task} has a configuration with no processors")
            }
            ServeError::ZeroWeight { task } => {
                write!(f, "task {task} has a zero-weight configuration")
            }
            ServeError::DeadPin { task, proc } => {
                write!(f, "task {task} references processor {proc}, which is not live")
            }
            ServeError::NoLiveConfig { task } => {
                write!(f, "task {task} would be left without a fully-live configuration")
            }
            ServeError::WeightCountMismatch { task, expected, got } => {
                write!(f, "reweight of task {task}: got {got} weights for {expected} configs")
            }
            ServeError::LoadOverflow { task } => write!(
                f,
                "task {task} would push the live tasks' total weight past u64::MAX \
                 (processor loads could overflow)"
            ),
            ServeError::Config { msg } => write!(f, "engine configuration: {msg}"),
            ServeError::Core(e) => write!(f, "resolve failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        ServeError::Core(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, ServeError>;
