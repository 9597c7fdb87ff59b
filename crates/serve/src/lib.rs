//! # semimatch-serve
//!
//! The streaming & dynamic serving layer: incremental semi-matching over
//! event traces.
//!
//! The rest of the workspace solves one *static* instance per call; under
//! serving traffic, tasks arrive, depart and change weight continuously
//! and re-solving from scratch per event wastes nearly all of its work.
//! This crate maintains a live assignment instead:
//!
//! * [`Engine`] ingests [`Event`]s (arrivals with configuration lists,
//!   departures, reweights, processor adds/drops) and keeps per-processor
//!   loads current;
//! * a [`RepairPolicy`] decides when solution *quality* is restored:
//!   after every event (`Eager`), once the bottleneck drifts past a slack
//!   (`Lazy`), by periodic from-scratch re-solves through a resident
//!   warm-workspace solver of any registered `SolverKind` (`Periodic`),
//!   or never (`PlacementOnly`, the greedy baseline);
//! * repair itself is incremental — on the unit/single-processor shape,
//!   one multi-source augmenting-path search per one-unit shift, and one
//!   more that proves the optimum, over a resident processor→task index,
//!   all skipped when the loads meet Eq. 1's `⌈n/p⌉` (provably
//!   bottleneck-optimal at every event under `Eager`);
//!   local-search sweeps over the live tasks on the general hypergraph
//!   shape; `Lazy` trades that repair's cost against quality;
//! * the engine optimizes a configurable cost model
//!   ([`EngineConfig::objective`]): placement, local search, the lazy
//!   trigger and periodic resolves all target it, the exact unit-singleton
//!   repair extends to the full cost-reducing descent (simultaneously
//!   optimal for every symmetric convex objective), and `Engine::scores`
//!   reports a live score board across all reported objectives;
//! * [`Snapshot`] compacts the live instance back into the static
//!   [`Hypergraph`](semimatch_graph::Hypergraph) world for audits,
//!   from-scratch cross-checks and the property tests.
//!
//! Traces themselves (the event model, the `.tr` text format, the random
//! generator) live in [`semimatch_gen::trace`]; the `semimatch replay`
//! CLI subcommand and the `streaming` criterion bench drive this engine
//! over generated traces.

#![warn(missing_docs)]

mod engine;
mod error;
mod policy;

pub use engine::{Engine, Snapshot, LOCAL_PASSES};
pub use error::{Result, ServeError};
pub use policy::{Counters, EngineConfig, RepairPolicy};

// Re-exported so engine consumers need only this crate for the full
// event-ingestion surface.
pub use semimatch_gen::trace::{Event, Trace};
