//! # semimatch-graph
//!
//! Bipartite graph and bipartite hypergraph data structures for the
//! semi-matching scheduling library.
//!
//! The crate provides the two instance representations of the paper
//! *Semi-matching algorithms for scheduling parallel tasks under resource
//! constraints* (Benoit, Langguth, Uçar; IPDPSW 2013):
//!
//! * [`Bipartite`] — `SINGLEPROC` instances: tasks on the left, processors
//!   on the right, one weighted edge per (task, eligible processor) pair.
//! * [`Hypergraph`] — `MULTIPROC` instances: each hyperedge couples one task
//!   with a *set* of processors (a configuration) and carries the execution
//!   time on every processor of the set.
//!
//! Both are stored as flat CSR arrays with both directions materialized, so
//! the algorithm crates never chase pointers. Construction validates all
//! structural invariants and returns [`GraphError`] on malformed input.
//!
//! `SINGLEPROC` is `MULTIPROC` with one-processor configurations, and the
//! [`Configs`] trait reads both types that way: a hyperedge is a
//! configuration, and so is a bipartite edge `(t, p)`, as the singleton
//! `{p}`. Algorithms written once over [`Configs`] run on either class.
//!
//! ```
//! use semimatch_graph::{Bipartite, Hypergraph};
//!
//! // Fig. 1 of the paper: two tasks, two processors.
//! let g = Bipartite::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0)]).unwrap();
//! assert_eq!(g.neighbors(0), &[0, 1]);
//!
//! // Fig. 2 of the paper: task 0 runs on {P0} or on {P1, P2} in parallel.
//! let h = Hypergraph::from_configs(
//!     3,
//!     &[vec![vec![0], vec![1, 2]], vec![vec![0]], vec![vec![2]], vec![vec![2]]],
//! )
//! .unwrap();
//! assert_eq!(h.deg_task(0), 2);
//!
//! // Both read as configurations; an edge pins one processor.
//! use semimatch_graph::Configs;
//! assert_eq!(g.pins(1), &[1]);
//! assert_eq!(h.pins(1), &[1, 2]);
//! ```

#![warn(missing_docs)]

pub mod bipartite;
pub mod builder;
pub mod configs;
pub mod dot;
pub mod error;
pub mod hypergraph;
pub mod io;
pub mod stats;

pub use bipartite::{Bipartite, EdgeId};
pub use builder::{BipartiteBuilder, HypergraphBuilder};
pub use configs::Configs;
pub use error::{GraphError, Result};
pub use hypergraph::Hypergraph;
pub use stats::{BipartiteStats, HypergraphStats};
