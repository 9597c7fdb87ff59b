//! One view of both instance classes: tasks choosing among configurations.
//!
//! `SINGLEPROC` is the case of `MULTIPROC` in which every configuration
//! is one processor (§II of the paper). [`Configs`] reads both classes
//! that way, so an algorithm written once over it runs on either.

use std::ops::Range;

/// A `MULTIPROC` instance: each task owns a contiguous range of
/// configurations, and each configuration is a processor set with one
/// execution time.
///
/// [`Hypergraph`](crate::Hypergraph) implements it with its hyperedges.
/// [`Bipartite`](crate::Bipartite) reads each edge `(t, p)` as the
/// one-processor configuration `{p}` of task `t`, so configuration ids
/// are edge ids and [`Configs::pins`] is a one-element slice of the
/// forward CSR. Algorithms take the trait as a generic parameter.
pub trait Configs {
    /// Number of tasks, `|V1|`.
    fn n_tasks(&self) -> u32;

    /// Number of processors, `|V2|`.
    fn n_procs(&self) -> u32;

    /// Configuration ids of task `t`. The ranges of tasks `0, 1, …`
    /// follow each other in id order.
    fn configs(&self, t: u32) -> Range<u32>;

    /// Processors of configuration `c`, sorted ascending.
    fn pins(&self, c: u32) -> &[u32];

    /// Execution time `w_c` of configuration `c` on each of its processors.
    fn weight(&self, c: u32) -> u64;

    /// Number of configurations `d_t` of task `t`.
    #[inline]
    fn degree(&self, t: u32) -> u32 {
        let range = self.configs(t);
        range.end - range.start
    }
}
