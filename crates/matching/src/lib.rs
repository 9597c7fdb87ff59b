//! # semimatch-matching
//!
//! Maximum bipartite matching algorithms — a Rust rebuild of the substrate
//! the paper took from the MatchMaker suite (Duff, Kaya, Uçar, TOMS 2011;
//! Kaya, Langguth, Manne, Uçar, C&OR 2013).
//!
//! * initialization heuristics: [`greedy::greedy_init`], [`greedy::karp_sipser`]
//! * augmenting-path solvers: [`dfs::mc21`] (lookahead DFS), [`bfs::pfp`]
//! * [`hopcroft_karp::hopcroft_karp`] — `O(√V · E)`
//! * [`push_relabel::push_relabel`] — the paper's matching engine, FIFO with
//!   global relabeling
//! * [`capacitated::max_assignment`] — matchings in the deadline graph `G_D`
//!   via Dinic's max-flow run on the bipartite graph itself; the generic
//!   [`flow::FlowNetwork`] is its test reference and `mcf`'s min-cost
//!   network
//! * [`cover::certify_maximum`] — König vertex-cover certificates used by
//!   the test suite to *prove* matchings maximum
//!
//! ```
//! use semimatch_graph::Bipartite;
//! use semimatch_matching::{maximum_matching, Algorithm};
//!
//! let g = Bipartite::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0)]).unwrap();
//! let m = maximum_matching(&g, Algorithm::PushRelabel);
//! assert_eq!(m.cardinality(), 2);
//! ```

#![warn(missing_docs)]
// Index-based loops over parallel arrays are the idiom throughout the
// matching kernels (mate/degree/label arrays evolve together); the
// iterator rewrites clippy suggests would borrow-conflict.
#![allow(clippy::needless_range_loop)]

pub mod bfs;
pub mod capacitated;
pub mod cover;
pub mod dfs;
pub mod flow;
pub mod greedy;
pub mod hopcroft_karp;
pub mod matching;
pub mod push_relabel;
pub mod replicate;
pub mod semi;
pub mod workspace;

pub use capacitated::{feasible, max_assignment, max_assignment_with_capacities, Assignment};
pub use cover::{certify_maximum, koenig_cover, VertexCover};
pub use flow::FlowNetwork;
pub use matching::{Matching, NONE};
pub use semi::{optimal_semi_assignment, optimal_semi_assignment_in, SemiAssignment};
pub use workspace::SearchWorkspace;

/// Selector for the maximum-matching engines.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Lookahead DFS augmentation (MC21 style).
    Dfs,
    /// Per-vertex BFS augmentation (PFP style).
    Bfs,
    /// Hopcroft–Karp phases.
    HopcroftKarp,
    /// FIFO push-relabel with global relabeling (the paper's engine).
    PushRelabel,
}

impl Algorithm {
    /// All engines, for exhaustive cross-checking in tests and benches.
    pub const ALL: [Algorithm; 4] =
        [Algorithm::Dfs, Algorithm::Bfs, Algorithm::HopcroftKarp, Algorithm::PushRelabel];

    /// Short stable name (used in bench ids and reports).
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Dfs => "dfs-lookahead",
            Algorithm::Bfs => "bfs-pfp",
            Algorithm::HopcroftKarp => "hopcroft-karp",
            Algorithm::PushRelabel => "push-relabel",
        }
    }
}

/// Computes a maximum matching of `g` with the chosen engine.
pub fn maximum_matching(g: &semimatch_graph::Bipartite, algo: Algorithm) -> Matching {
    maximum_matching_with_init(g, algo, Init::Greedy)
}

/// Computes a maximum matching of `g` reusing `ws` for every piece of
/// engine scratch. The warm path of repeated solves: no allocation besides
/// the returned matching once the workspace has seen the sweep's largest
/// dimensions.
pub fn maximum_matching_in(
    g: &semimatch_graph::Bipartite,
    algo: Algorithm,
    ws: &mut SearchWorkspace,
) -> Matching {
    maximum_matching_with_init_in(g, algo, Init::Greedy, ws)
}

/// Jump-start heuristic handed to the exact engines.
///
/// The effect of initialization on matching performance is the subject of
/// the paper's reference \[16] (Langguth, Manne, Sanders, JEA 2010);
/// `benches/matching.rs` reproduces the experiment shape on the paper's
/// generators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Init {
    /// Start from the empty matching.
    None,
    /// Greedy maximal matching (the default).
    Greedy,
    /// Karp–Sipser degree-1 propagation.
    KarpSipser,
}

impl Init {
    /// All initializations, for sweeps.
    pub const ALL: [Init; 3] = [Init::None, Init::Greedy, Init::KarpSipser];

    /// Short stable name.
    pub fn name(self) -> &'static str {
        match self {
            Init::None => "empty",
            Init::Greedy => "greedy",
            Init::KarpSipser => "karp-sipser",
        }
    }

    /// Produces the initial matching.
    pub fn run(self, g: &semimatch_graph::Bipartite) -> Matching {
        match self {
            Init::None => Matching::empty(g.n_left(), g.n_right()),
            Init::Greedy => greedy::greedy_init(g),
            Init::KarpSipser => greedy::karp_sipser(g),
        }
    }
}

/// Computes a maximum matching with an explicit initialization heuristic.
pub fn maximum_matching_with_init(
    g: &semimatch_graph::Bipartite,
    algo: Algorithm,
    init: Init,
) -> Matching {
    maximum_matching_with_init_in(g, algo, init, &mut SearchWorkspace::new())
}

/// [`maximum_matching_with_init`] on a caller-owned workspace.
pub fn maximum_matching_with_init_in(
    g: &semimatch_graph::Bipartite,
    algo: Algorithm,
    init: Init,
    ws: &mut SearchWorkspace,
) -> Matching {
    let start = init.run(g);
    match algo {
        Algorithm::Dfs => dfs::mc21_from_in(g, start, ws),
        Algorithm::Bfs => bfs::pfp_from_in(g, start, ws),
        Algorithm::HopcroftKarp => hopcroft_karp::hopcroft_karp_from_in(g, start, ws),
        Algorithm::PushRelabel => push_relabel::push_relabel_from_in(g, start, ws),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semimatch_graph::Bipartite;

    #[test]
    fn all_engines_agree_and_certify() {
        let g = Bipartite::from_edges(
            6,
            5,
            &[(0, 0), (0, 1), (1, 0), (2, 2), (2, 3), (3, 2), (4, 4), (5, 4), (5, 0)],
        )
        .unwrap();
        let mut sizes = Vec::new();
        for algo in Algorithm::ALL {
            let m = maximum_matching(&g, algo);
            cover::certify_maximum(&g, &m).unwrap_or_else(|e| panic!("{}: {e}", algo.name()));
            sizes.push(m.cardinality());
        }
        assert!(sizes.windows(2).all(|w| w[0] == w[1]), "sizes {sizes:?}");
    }

    #[test]
    fn one_workspace_serves_interleaved_engines_and_graphs() {
        // Reusing a single workspace across engines and differently-sized
        // graphs must give exactly the cold-path results.
        let graphs = [
            Bipartite::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0)]).unwrap(),
            Bipartite::from_edges(
                6,
                5,
                &[(0, 0), (0, 1), (1, 0), (2, 2), (2, 3), (3, 2), (4, 4), (5, 4), (5, 0)],
            )
            .unwrap(),
            Bipartite::from_edges(3, 1, &[(0, 0), (1, 0), (2, 0)]).unwrap(),
            Bipartite::from_edges(1, 4, &[(0, 3)]).unwrap(),
        ];
        let mut ws = SearchWorkspace::new();
        for _round in 0..3 {
            for g in &graphs {
                for algo in Algorithm::ALL {
                    let warm = maximum_matching_in(g, algo, &mut ws);
                    let cold = maximum_matching(g, algo);
                    warm.validate(g).unwrap_or_else(|e| panic!("{}: {e}", algo.name()));
                    assert_eq!(warm, cold, "{} diverged under workspace reuse", algo.name());
                }
            }
        }
    }

    #[test]
    fn names_are_distinct() {
        let mut names: Vec<_> = Algorithm::ALL.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Algorithm::ALL.len());
    }

    #[test]
    fn every_init_reaches_the_same_maximum() {
        let g = Bipartite::from_edges(
            6,
            5,
            &[(0, 0), (0, 1), (1, 0), (2, 2), (2, 3), (3, 2), (4, 4), (5, 4), (5, 0)],
        )
        .unwrap();
        let reference = maximum_matching(&g, Algorithm::HopcroftKarp).cardinality();
        for algo in Algorithm::ALL {
            for init in Init::ALL {
                let m = maximum_matching_with_init(&g, algo, init);
                cover::certify_maximum(&g, &m)
                    .unwrap_or_else(|e| panic!("{}/{}: {e}", algo.name(), init.name()));
                assert_eq!(m.cardinality(), reference, "{}/{}", algo.name(), init.name());
            }
        }
    }
}
