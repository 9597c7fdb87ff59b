//! The unified solver registry: every semi-matching algorithm in the
//! workspace behind one entry point.
//!
//! [`SolverKind`] is the one algorithm selector: the CLI, bench harness,
//! scheduling policies and agreement tests all pick algorithms through it,
//! by name ([`SolverKind::from_str`]) or by enumeration
//! ([`SolverKind::ALL`] and the class subsets such as
//! [`SolverKind::BI_HEURISTICS`]), and run them through one
//! [`solve(problem, kind)`](solve) dispatcher.
//!
//! For repeated traffic the registry exposes a warm path: the [`Solver`]
//! trait binds a kind to a persistent [`SearchWorkspace`]
//! ([`SolverKind::solver`] → [`KindSolver`]), and [`solve_many`] batches a
//! whole instance set through workspace-reusing solvers. The stateless
//! [`solve(problem, kind)`](solve) facade remains for one-shot callers.
//!
//! The **cost model is a first-class axis**: every entry point takes (or
//! defaults) an [`Objective`] — [`solve_with`], [`SolverKind::solve_with`],
//! [`SolverKind::solve_in`], [`Solver::solve_with`] and [`solve_many`].
//! Under [`Objective::Makespan`] every kind runs its paper algorithm;
//! under a sum-type objective (flow time, `L_p`, total load) the
//! greedy/refine/ILS families run the same selection loops keyed by the
//! marginal objective cost, the
//! exhaustive search branch-and-bounds on the exact objective score, and
//! the exact `SINGLEPROC-UNIT` kinds append a cost-reducing-path descent
//! so their answer is optimal for **every** symmetric convex objective
//! simultaneously (Harvey–Ladner–Lovász–Tamir).
//!
//! The literature treats the engines as interchangeable substrates —
//! Fakcharoenphol–Laekhanukit–Nanongkai's faster semi-matching algorithms
//! (which optimize exactly the flow-time objective above) and
//! Katrenič–Semanišin's Hopcroft–Karp generalization slot into the same
//! problem interface — so they are registry kinds (`cost-scaling`,
//! `hk-semi`) like the paper's own algorithms.
//!
//! ```
//! use semimatch_graph::Hypergraph;
//! use semimatch_core::solver::{solve, Problem, SolverKind};
//!
//! let h = Hypergraph::from_configs(
//!     3,
//!     &[vec![vec![0], vec![1, 2]], vec![vec![0]], vec![vec![2]], vec![vec![2]]],
//! )
//! .unwrap();
//! let kind: SolverKind = "evg".parse().unwrap();
//! let solution = solve(Problem::MultiProc(&h), kind).unwrap();
//! assert!(solution.makespan(&Problem::MultiProc(&h)).unwrap() >= 2);
//! ```

use std::str::FromStr;

use semimatch_graph::{Bipartite, Hypergraph};
use semimatch_matching::SearchWorkspace;

use crate::error::{CoreError, Result};
use crate::exact::brute_force::brute_force;
use crate::exact::{
    cost_scaling_in, cost_scaling_seeded_in, exact_unit_in, exact_unit_replicated_in, harvey_exact,
    hk_semi_in, mcf_in, mcf_objective_in, SearchStrategy,
};
use crate::greedy::expected::expected_greedy_with;
use crate::greedy::{current_load, Key};
use crate::hyper::evg::expected_vector_greedy_hyp;
use crate::hyper::vgh::vector_greedy_hyp;
use crate::lower_bound::lower_bound_objective;
use crate::problem::{HyperMatching, SemiMatching};
use crate::refine::{iterated_refine_with, refine_with};
use crate::streaming::streaming_greedy;

/// The maximum-matching engine axis, re-exported so registry consumers have
/// one import surface for every algorithm selector in the workspace.
pub use semimatch_matching::Algorithm as MatchingEngine;

// The objective axis, re-exported for the same reason: `solver` is the
// one-stop import surface of the registry.
pub use crate::objective::{Objective, Score};

/// Node budget handed to the brute-force solvers by the registry.
pub const BRUTE_FORCE_BUDGET: u64 = 20_000_000;

/// Refinement passes used by the `*Refined` kinds.
pub const REFINE_PASSES: u32 = 16;

/// Bottleneck kicks used by [`SolverKind::SghIls`].
pub const ILS_KICKS: u32 = 12;

/// A problem instance handed to [`solve`]: the paper's two formalisms.
#[derive(Clone, Copy, Debug)]
pub enum Problem<'a> {
    /// `SINGLEPROC`: a weighted bipartite graph (§II-A).
    SingleProc(&'a Bipartite),
    /// `MULTIPROC`: a bipartite hypergraph of configurations (§II-B).
    MultiProc(&'a Hypergraph),
}

impl<'a> From<&'a Bipartite> for Problem<'a> {
    fn from(g: &'a Bipartite) -> Self {
        Problem::SingleProc(g)
    }
}

impl<'a> From<&'a Hypergraph> for Problem<'a> {
    fn from(h: &'a Hypergraph) -> Self {
        Problem::MultiProc(h)
    }
}

impl Problem<'_> {
    /// The class a solver must support to run on this problem.
    pub fn class(&self) -> SolverClass {
        match self {
            Problem::SingleProc(_) => SolverClass::SingleProc,
            Problem::MultiProc(_) => SolverClass::MultiProc,
        }
    }

    /// Human-readable class name, used by [`CoreError::ClassMismatch`].
    pub fn class_name(&self) -> &'static str {
        match self {
            Problem::SingleProc(_) => "SINGLEPROC (bipartite)",
            Problem::MultiProc(_) => "MULTIPROC (hypergraph)",
        }
    }

    /// Lower bound on the optimal score under `objective` (Eq. 1 for the
    /// makespan, the balanced-spread work bound for the sum objectives).
    pub fn lower_bound(&self, objective: Objective) -> Result<Score> {
        match self {
            Problem::SingleProc(g) => lower_bound_objective(*g, objective),
            Problem::MultiProc(h) => lower_bound_objective(*h, objective),
        }
    }
}

/// A solution returned by [`solve`], mirroring the problem classes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Solution {
    /// Allocation of one edge per task.
    SingleProc(SemiMatching),
    /// Allocation of one hyperedge (configuration) per task.
    MultiProc(HyperMatching),
}

impl Solution {
    /// Human-readable class name, used by [`CoreError::ClassMismatch`].
    pub fn class_name(&self) -> &'static str {
        match self {
            Solution::SingleProc(_) => "SINGLEPROC (bipartite)",
            Solution::MultiProc(_) => "MULTIPROC (hypergraph)",
        }
    }

    /// The solution's cost under `objective`, against the problem it was
    /// computed for.
    ///
    /// # Errors
    ///
    /// [`CoreError::ClassMismatch`] when `problem`'s class does not match
    /// the solution's.
    pub fn score(&self, problem: &Problem<'_>, objective: Objective) -> Result<Score> {
        match (self, problem) {
            (Solution::SingleProc(sm), Problem::SingleProc(g)) => Ok(sm.score(g, objective)),
            (Solution::MultiProc(hm), Problem::MultiProc(h)) => Ok(hm.score(h, objective)),
            _ => Err(CoreError::ClassMismatch {
                problem: problem.class_name(),
                solution: self.class_name(),
            }),
        }
    }

    /// Makespan against the problem the solution was computed for — a thin
    /// alias for [`score`](Self::score) under [`Objective::Makespan`].
    ///
    /// # Errors
    ///
    /// [`CoreError::ClassMismatch`] when `problem`'s class does not match
    /// the solution's (previously a panic).
    pub fn makespan(&self, problem: &Problem<'_>) -> Result<u64> {
        Ok(self.score(problem, Objective::Makespan)?.as_u64())
    }

    /// Validates the solution against its problem.
    pub fn validate(&self, problem: &Problem<'_>) -> Result<()> {
        match (self, problem) {
            (Solution::SingleProc(sm), Problem::SingleProc(g)) => sm.validate(g),
            (Solution::MultiProc(hm), Problem::MultiProc(h)) => hm.validate(h),
            _ => Err(CoreError::ClassMismatch {
                problem: problem.class_name(),
                solution: self.class_name(),
            }),
        }
    }

    /// The bipartite allocation, if this is a `SINGLEPROC` solution.
    pub fn as_semi(&self) -> Option<&SemiMatching> {
        match self {
            Solution::SingleProc(sm) => Some(sm),
            Solution::MultiProc(_) => None,
        }
    }

    /// The hypergraph allocation, if this is a `MULTIPROC` solution.
    pub fn as_hyper(&self) -> Option<&HyperMatching> {
        match self {
            Solution::MultiProc(hm) => Some(hm),
            Solution::SingleProc(_) => None,
        }
    }

    /// Consumes into the bipartite allocation.
    pub fn into_semi(self) -> Option<SemiMatching> {
        match self {
            Solution::SingleProc(sm) => Some(sm),
            Solution::MultiProc(_) => None,
        }
    }

    /// Consumes into the hypergraph allocation.
    pub fn into_hyper(self) -> Option<HyperMatching> {
        match self {
            Solution::MultiProc(hm) => Some(hm),
            Solution::SingleProc(_) => None,
        }
    }
}

/// Which problem class a [`SolverKind`] accepts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SolverClass {
    /// Bipartite (`SINGLEPROC`) instances only.
    SingleProc,
    /// Hypergraph (`MULTIPROC`) instances only.
    MultiProc,
    /// Both classes.
    Either,
}

impl SolverClass {
    /// Whether a solver of this class accepts `problem`.
    pub fn accepts(self, problem: &Problem<'_>) -> bool {
        match self {
            SolverClass::Either => true,
            SolverClass::SingleProc => matches!(problem, Problem::SingleProc(_)),
            SolverClass::MultiProc => matches!(problem, Problem::MultiProc(_)),
        }
    }
}

/// Everything the registry records about one kind apart from how it runs
/// (that is [`SolverKind::solve_in`]): one row of the registry table.
struct KindSpec {
    /// Canonical registry name.
    name: &'static str,
    /// Historical names that parse to this kind too.
    aliases: &'static [&'static str],
    /// Display label (the paper's column name where it has one).
    label: &'static str,
    /// Paper section implementing the kind; `None` for extensions.
    paper: Option<&'static str>,
    class: SolverClass,
    exact: bool,
    description: &'static str,
}

/// Declares [`SolverKind`] together with the registry table `SPECS`, one
/// row per variant in declaration order, so a kind cannot exist without
/// its row and `SPECS[kind as usize]` is always that kind's row.
macro_rules! registry {
    (
        $(#[$enum_attr:meta])*
        pub enum SolverKind { $($(#[$attr:meta])* $kind:ident => $spec:expr,)* }
    ) => {
        $(#[$enum_attr])*
        pub enum SolverKind { $($(#[$attr])* $kind,)* }

        const SPECS: [(SolverKind, KindSpec); [$(SolverKind::$kind),*].len()] =
            [$((SolverKind::$kind, $spec)),*];
    };
}

registry! {
    /// Every semi-matching solver in the workspace, unified.
    ///
    /// This is the registry the CLI, bench harness, scheduling policies and
    /// the agreement tests all dispatch through, and the only algorithm
    /// selector: [`SearchStrategy`] survives as a parameter of the exact
    /// unit solvers behind [`SolverKind::solve`]. `semimatch solvers`
    /// prints the table below as the README solver map.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    pub enum SolverKind {
        // --- SINGLEPROC heuristics (§IV-B) ---
        /// basic-greedy (Algorithm 1).
        Basic => KindSpec {
            name: "basic", aliases: &[], label: "basic", paper: Some("§IV-B"),
            class: SolverClass::SingleProc, exact: false,
            description: "basic-greedy, tasks in input order (Alg. 1)",
        },
        /// sorted-greedy.
        Sorted => KindSpec {
            name: "sorted", aliases: &[], label: "sorted", paper: Some("§IV-B"),
            class: SolverClass::SingleProc, exact: false,
            description: "sorted-greedy, tasks by non-decreasing degree",
        },
        /// double-sorted (Algorithm 2).
        DoubleSorted => KindSpec {
            name: "double-sorted", aliases: &[], label: "double-sorted", paper: Some("§IV-B"),
            class: SolverClass::SingleProc, exact: false,
            description: "double-sorted greedy (Alg. 2)",
        },
        /// expected-greedy (Algorithm 3).
        Expected => KindSpec {
            name: "expected", aliases: &[], label: "expected", paper: Some("§IV-B"),
            class: SolverClass::SingleProc, exact: false,
            description: "expected-load greedy (Alg. 3)",
        },
        // --- SINGLEPROC-UNIT exact (§IV-A and extensions) ---
        /// Exact via capacitated matchings, incremental deadline search.
        ExactIncremental => KindSpec {
            name: "exact-incremental", aliases: &["incremental"], label: "exact-incremental",
            paper: Some("§IV-A"), class: SolverClass::SingleProc, exact: true,
            description: "exact, incremental deadline search",
        },
        /// Exact via capacitated matchings, bisection deadline search.
        ExactBisection => KindSpec {
            name: "exact-bisection", aliases: &["bisection"], label: "exact-bisection",
            paper: Some("§IV-A"), class: SolverClass::SingleProc, exact: true,
            description: "exact, bisection deadline search",
        },
        /// Exact via literal `G_D` replication (push-relabel engine).
        ExactReplicated => KindSpec {
            name: "exact-replicated", aliases: &["replicated"], label: "exact-replicated",
            paper: Some("§IV-A"), class: SolverClass::SingleProc, exact: true,
            description: "exact, literal G_D replication",
        },
        /// Exact via cost-reducing paths (Harvey, Ladner, Lovász, Tamir).
        Harvey => KindSpec {
            name: "harvey", aliases: &[], label: "harvey", paper: Some("§IV-A"),
            class: SolverClass::SingleProc, exact: true,
            description: "exact, cost-reducing paths (Harvey et al.)",
        },
        /// Exact via generalized Hopcroft–Karp phases (Katrenič–Semanišin):
        /// all shortest load-reducing paths augmented at once.
        HopcroftKarpSemi => KindSpec {
            name: "hk-semi", aliases: &["hopcroft-karp-semi", "katrenic"], label: "HK-semi",
            paper: None, class: SolverClass::SingleProc, exact: true,
            description: "exact, generalized Hopcroft-Karp phases (Katrenic-Semanisin)",
        },
        /// Exact via divide-and-conquer on the load range with capacitated
        /// feasibility probes (Fakcharoenphol–Laekhanukit–Nanongkai style).
        CostScaling => KindSpec {
            name: "cost-scaling", aliases: &["fln", "load-range"], label: "cost-scaling",
            paper: None, class: SolverClass::SingleProc, exact: true,
            description: "exact, load-range divide-and-conquer (Fakcharoenphol et al.)",
        },
        /// Exact via one min-cost max-flow over convex unit-arc bundles
        /// (Johnson potentials, integer arithmetic). Balanced — hence
        /// simultaneously optimal for every reported objective — on unit
        /// instances; the first fast exact kind for weighted total load.
        MinCostFlow => KindSpec {
            name: "mcf", aliases: &["min-cost-flow", "mincostflow"], label: "mcf", paper: None,
            class: SolverClass::SingleProc, exact: true,
            description: "exact, one min-cost flow (weighted total load too)",
        },
        // --- MULTIPROC heuristics (§IV-D) ---
        /// sorted-greedy-hyp (Algorithm 4).
        Sgh => KindSpec {
            name: "sgh", aliases: &[], label: "SGH", paper: Some("§IV-D"),
            class: SolverClass::MultiProc, exact: false,
            description: "sorted-greedy-hyp (Alg. 4)",
        },
        /// vector-greedy-hyp.
        Vgh => KindSpec {
            name: "vgh", aliases: &[], label: "VGH", paper: Some("§IV-D"),
            class: SolverClass::MultiProc, exact: false,
            description: "vector-greedy-hyp",
        },
        /// expected-greedy-hyp (Algorithm 5).
        Egh => KindSpec {
            name: "egh", aliases: &[], label: "EGH", paper: Some("§IV-D"),
            class: SolverClass::MultiProc, exact: false,
            description: "expected-greedy-hyp (Alg. 5)",
        },
        /// expected-vector-greedy-hyp.
        Evg => KindSpec {
            name: "evg", aliases: &[], label: "EVG", paper: Some("§IV-D"),
            class: SolverClass::MultiProc, exact: false,
            description: "expected-vector-greedy-hyp",
        },
        // --- extensions beyond the paper ---
        /// EVG followed by local-search refinement.
        EvgRefined => KindSpec {
            name: "evg-refined", aliases: &["evg+refine"], label: "EVG+refine", paper: None,
            class: SolverClass::MultiProc, exact: false,
            description: "EVG + local-search refinement",
        },
        /// SGH followed by local-search refinement.
        SghRefined => KindSpec {
            name: "sgh-refined", aliases: &["sgh+refine"], label: "SGH+refine", paper: None,
            class: SolverClass::MultiProc, exact: false,
            description: "SGH + local-search refinement",
        },
        /// SGH followed by iterated local search with bottleneck kicks.
        SghIls => KindSpec {
            name: "sgh-ils", aliases: &["sgh+ils"], label: "SGH+ILS", paper: None,
            class: SolverClass::MultiProc, exact: false,
            description: "SGH + iterated local search",
        },
        /// Online min-bottleneck dispatcher (no sorting, no look-ahead).
        Online => KindSpec {
            name: "online", aliases: &[], label: "online", paper: None,
            class: SolverClass::MultiProc, exact: false,
            description: "online min-bottleneck dispatch",
        },
        /// One-pass streaming greedy over the edge/hyperedge stream
        /// (Konrad–Rosén style; both classes, `O(n + p)` state).
        StreamingGreedy => KindSpec {
            name: "streaming-greedy", aliases: &["streaming"], label: "streaming", paper: None,
            class: SolverClass::Either, exact: false,
            description: "one-pass streaming greedy (Konrad-Rosen)",
        },
        /// [`SolverKind::StreamingGreedy`] plus Konrad–Rosén's second pass,
        /// which re-places only tasks on processors above the balanced
        /// ceiling; never scores worse than one pass.
        StreamingTwoPass => KindSpec {
            name: "streaming-two-pass", aliases: &[], label: "streaming-2p", paper: None,
            class: SolverClass::Either, exact: false,
            description: "two-pass streaming greedy (Konrad-Rosen refinement)",
        },
        /// Branch-and-bound exhaustive search (both classes, small instances).
        BruteForce => KindSpec {
            name: "brute-force", aliases: &["bruteforce"], label: "brute-force", paper: None,
            class: SolverClass::Either, exact: true,
            description: "branch-and-bound exhaustive search",
        },
    }
}

/// The registry's kind lists, each a filter over `SPECS` in row order.
#[derive(Clone, Copy)]
enum Subset {
    All,
    SingleProc,
    MultiProc,
    Policies,
    BiHeuristics,
    HyperHeuristics,
    ExactSingleProc,
}

impl Subset {
    const fn keeps(self, spec: &KindSpec) -> bool {
        let single = matches!(spec.class, SolverClass::SingleProc | SolverClass::Either);
        let multi = matches!(spec.class, SolverClass::MultiProc | SolverClass::Either);
        match self {
            Subset::All => true,
            Subset::SingleProc => single,
            Subset::MultiProc => multi,
            // MULTIPROC is NP-complete even with unit weights (Theorem 1),
            // so the exact kinds accepting it are the exponential ones.
            Subset::Policies => multi && !spec.exact,
            Subset::BiHeuristics => single && !multi && !spec.exact,
            Subset::HyperHeuristics => multi && !single && spec.paper.is_some(),
            Subset::ExactSingleProc => single && !multi && spec.exact,
        }
    }

    const fn len(self) -> usize {
        let mut n = 0;
        let mut i = 0;
        while i < SPECS.len() {
            if self.keeps(&SPECS[i].1) {
                n += 1;
            }
            i += 1;
        }
        n
    }

    /// The kept kinds in row order; `N` must be [`Subset::len`].
    const fn kinds<const N: usize>(self) -> [SolverKind; N] {
        let mut out = [SolverKind::Basic; N];
        let mut n = 0;
        let mut i = 0;
        while i < SPECS.len() {
            if self.keeps(&SPECS[i].1) {
                out[n] = SPECS[i].0;
                n += 1;
            }
            i += 1;
        }
        assert!(n == N, "subset length mismatch");
        out
    }
}

impl SolverKind {
    /// Every registered solver.
    pub const ALL: [SolverKind; Subset::All.len()] = Subset::All.kinds();

    /// Solvers accepting bipartite (`SINGLEPROC`) problems.
    pub const SINGLEPROC: [SolverKind; Subset::SingleProc.len()] = Subset::SingleProc.kinds();

    /// Solvers accepting hypergraph (`MULTIPROC`) problems.
    pub const MULTIPROC: [SolverKind; Subset::MultiProc.len()] = Subset::MultiProc.kinds();

    /// Polynomial-time `MULTIPROC` solvers: safe as scheduling policies on
    /// arbitrary-size instances (everything in [`Self::MULTIPROC`] except
    /// the exhaustive search).
    pub const POLICIES: [SolverKind; Subset::Policies.len()] = Subset::Policies.kinds();

    /// The four `SINGLEPROC` heuristics, in the paper's order.
    pub const BI_HEURISTICS: [SolverKind; Subset::BiHeuristics.len()] =
        Subset::BiHeuristics.kinds();

    /// The four `MULTIPROC` heuristics, in the paper's table-column order.
    pub const HYPER_HEURISTICS: [SolverKind; Subset::HyperHeuristics.len()] =
        Subset::HyperHeuristics.kinds();

    /// The exact `SINGLEPROC-UNIT` algorithms.
    pub const EXACT_SINGLEPROC: [SolverKind; Subset::ExactSingleProc.len()] =
        Subset::ExactSingleProc.kinds();

    fn spec(self) -> &'static KindSpec {
        &SPECS[self as usize].1
    }

    /// Canonical registry name (stable; used by `from_str`, the CLI and
    /// reports).
    pub fn name(self) -> &'static str {
        self.spec().name
    }

    /// Historical names that [`from_str`](SolverKind::from_str) also
    /// resolves to this kind.
    pub fn aliases(self) -> &'static [&'static str] {
        self.spec().aliases
    }

    /// Display label used in tables (matches the paper's column names).
    pub fn label(self) -> &'static str {
        self.spec().label
    }

    /// Paper section implementing this solver (`"extension"` for the
    /// kinds beyond the paper).
    pub fn paper_ref(self) -> &'static str {
        self.spec().paper.unwrap_or("extension")
    }

    /// Which problem class this solver accepts.
    pub fn class(self) -> SolverClass {
        self.spec().class
    }

    /// Whether this solver is guaranteed optimal (on the instances it
    /// accepts; the `Exact*` kinds additionally require unit weights).
    /// Exactness holds for every [`Objective`]: the unit solvers append a
    /// cost-reducing-path descent under sum objectives (simultaneous
    /// optimality) and the exhaustive search bounds on the exact score.
    pub fn is_exact(self) -> bool {
        self.spec().exact
    }

    /// One-line description (CLI listing, README solver map).
    pub fn description(self) -> &'static str {
        self.spec().description
    }

    /// Runs this solver on `problem` under [`Objective::Makespan`] with
    /// throwaway scratch.
    ///
    /// One-shot convenience: repeated callers should hold a
    /// [`KindSolver`] (or go through [`solve_many`]) so the engine scratch
    /// is allocated once and reused.
    pub fn solve(self, problem: Problem<'_>) -> Result<Solution> {
        self.solve_with(problem, Objective::Makespan)
    }

    /// Runs this solver on `problem` optimizing `objective`, with
    /// throwaway scratch.
    pub fn solve_with(self, problem: Problem<'_>, objective: Objective) -> Result<Solution> {
        self.solve_in(problem, objective, &mut SearchWorkspace::new())
    }

    /// Builds a solver object for this kind, owning its own workspace.
    pub fn solver(self) -> KindSolver {
        KindSolver::new(self)
    }

    /// Runs this solver on `problem` optimizing `objective`, drawing all
    /// matching-engine scratch (flow arenas, BFS/DFS arrays) from `ws`.
    ///
    /// Under [`Objective::Makespan`] every kind runs its paper algorithm.
    /// Under a sum-type objective:
    ///
    /// * the greedy families (bipartite and hypergraph, including
    ///   [`SolverKind::Online`] and the two streaming kinds) run their
    ///   usual loop, visit order and tie-breaks with the **marginal
    ///   objective cost** as the key (the current-load pair SGH/VGH and
    ///   the expected-load pair EGH/EVG each collapse to one marginal
    ///   rule);
    /// * the refined/ILS kinds run their base heuristic and local search
    ///   with objective-aware move acceptance;
    /// * the exact `SINGLEPROC-UNIT` kinds solve for the optimal makespan
    ///   and then run the Harvey–Ladner–Lovász–Tamir cost-reducing-path
    ///   descent, whose fixpoint is **simultaneously optimal for every
    ///   symmetric convex objective** (makespan, flow time, all `L_p`
    ///   norms; under unit weights the total load is invariant, covering
    ///   [`Objective::WeightedLoad`] trivially);
    /// * [`SolverKind::BruteForce`] branch-and-bounds on the exact
    ///   objective score.
    pub fn solve_in(
        self,
        problem: Problem<'_>,
        objective: Objective,
        ws: &mut SearchWorkspace,
    ) -> Result<Solution> {
        use Solution::{MultiProc, SingleProc};
        let makespan = objective.is_bottleneck();
        Ok(match self {
            SolverKind::Basic | SolverKind::Sorted | SolverKind::DoubleSorted => {
                let g = self.bipartite(&problem)?;
                let key = Key::under(objective, Key::Current);
                let by_in_degree = self == SolverKind::DoubleSorted;
                let tie = |e| if by_in_degree { g.deg_right(g.edge_right(e)) } else { 0 };
                SingleProc(SemiMatching {
                    edge_of: current_load(g, self != SolverKind::Basic, key, tie)?,
                })
            }
            SolverKind::Expected => SingleProc(SemiMatching {
                edge_of: expected_greedy_with(self.bipartite(&problem)?, objective)?,
            }),
            SolverKind::ExactIncremental => {
                let g = self.bipartite(&problem)?;
                let sm = exact_unit_in(g, SearchStrategy::Incremental, ws)?.solution;
                SingleProc(descend(g, sm, objective))
            }
            SolverKind::ExactBisection => {
                let g = self.bipartite(&problem)?;
                let sm = exact_unit_in(g, SearchStrategy::Bisection, ws)?.solution;
                SingleProc(descend(g, sm, objective))
            }
            SolverKind::ExactReplicated => {
                let g = self.bipartite(&problem)?;
                let engine = MatchingEngine::PushRelabel;
                let r = exact_unit_replicated_in(g, engine, SearchStrategy::Incremental, ws)?;
                SingleProc(descend(g, r.solution, objective))
            }
            // Already a cost-reducing-path fixpoint: optimal for every
            // symmetric convex objective as computed.
            SolverKind::Harvey => SingleProc(harvey_exact(self.bipartite(&problem)?)?),
            SolverKind::HopcroftKarpSemi => {
                let g = self.bipartite(&problem)?;
                SingleProc(descend(g, hk_semi_in(g, ws)?.solution, objective))
            }
            SolverKind::CostScaling => {
                let g = self.bipartite(&problem)?;
                SingleProc(descend(g, cost_scaling_in(g, ws)?.solution, objective))
            }
            // The balanced flow is majorization-minimal as computed (no
            // descent needed), and the weighted path handles total load.
            SolverKind::MinCostFlow => {
                let g = self.bipartite(&problem)?;
                SingleProc(if makespan {
                    mcf_in(g, ws)?.solution
                } else {
                    mcf_objective_in(g, objective, ws)?
                })
            }
            SolverKind::Vgh if makespan => {
                MultiProc(vector_greedy_hyp(self.hypergraph(&problem)?)?)
            }
            SolverKind::Evg if makespan => {
                MultiProc(expected_vector_greedy_hyp(self.hypergraph(&problem)?)?)
            }
            SolverKind::Sgh | SolverKind::Vgh | SolverKind::Online => {
                let key = Key::under(objective, Key::Current);
                let sorted = self != SolverKind::Online;
                MultiProc(HyperMatching {
                    hedge_of: current_load(self.hypergraph(&problem)?, sorted, key, |_| 0)?,
                })
            }
            SolverKind::Egh | SolverKind::Evg => MultiProc(HyperMatching {
                hedge_of: expected_greedy_with(self.hypergraph(&problem)?, objective)?,
            }),
            SolverKind::EvgRefined | SolverKind::SghRefined | SolverKind::SghIls => {
                let h = self.hypergraph(&problem)?;
                let base =
                    if self == SolverKind::EvgRefined { SolverKind::Evg } else { SolverKind::Sgh };
                let Some(mut hm) = base.solve_in(problem, objective, ws)?.into_hyper() else {
                    unreachable!("MULTIPROC problems yield MULTIPROC solutions")
                };
                if self == SolverKind::SghIls {
                    iterated_refine_with(h, &mut hm, ILS_KICKS, REFINE_PASSES, objective)?;
                } else {
                    refine_with(h, &mut hm, REFINE_PASSES, objective)?;
                }
                MultiProc(hm)
            }
            SolverKind::StreamingGreedy | SolverKind::StreamingTwoPass => {
                let two_pass = self == SolverKind::StreamingTwoPass;
                match problem {
                    Problem::SingleProc(g) => SingleProc(SemiMatching {
                        edge_of: streaming_greedy(g, objective, two_pass)?,
                    }),
                    Problem::MultiProc(h) => MultiProc(HyperMatching {
                        hedge_of: streaming_greedy(h, objective, two_pass)?,
                    }),
                }
            }
            SolverKind::BruteForce => match problem {
                Problem::SingleProc(g) => SingleProc(SemiMatching {
                    edge_of: brute_force(g, BRUTE_FORCE_BUDGET, objective)?.1,
                }),
                Problem::MultiProc(h) => MultiProc(HyperMatching {
                    hedge_of: brute_force(h, BRUTE_FORCE_BUDGET, objective)?.1,
                }),
            },
        })
    }

    fn bipartite<'a>(self, problem: &Problem<'a>) -> Result<&'a Bipartite> {
        match problem {
            Problem::SingleProc(g) => Ok(g),
            Problem::MultiProc(_) => Err(CoreError::KindMismatch {
                solver: self.name(),
                expected: "a bipartite (SINGLEPROC) instance",
            }),
        }
    }

    fn hypergraph<'a>(self, problem: &Problem<'a>) -> Result<&'a Hypergraph> {
        match problem {
            Problem::MultiProc(h) => Ok(h),
            Problem::SingleProc(_) => Err(CoreError::KindMismatch {
                solver: self.name(),
                expected: "a hypergraph (MULTIPROC) instance",
            }),
        }
    }
}

/// A makespan-optimal unit assignment, optimized for `objective`: under a
/// sum objective, the Harvey–Ladner–Lovász–Tamir cost-reducing-path
/// descent, whose fixpoint is optimal for every symmetric convex
/// objective at once.
fn descend(g: &Bipartite, sm: SemiMatching, objective: Objective) -> SemiMatching {
    if objective.is_bottleneck() {
        sm
    } else {
        crate::exact::harvey::optimize(g, sm)
    }
}

impl FromStr for SolverKind {
    type Err = CoreError;

    /// Looks a solver up by its registry [`name`](SolverKind::name) or one
    /// of its historical [`aliases`](SolverKind::aliases) (`incremental`,
    /// `bisection`, `evg+refine`, …), case-insensitively.
    fn from_str(s: &str) -> Result<SolverKind> {
        let lower = s.to_ascii_lowercase();
        SPECS
            .iter()
            .find(|(_, spec)| spec.name == lower || spec.aliases.contains(&lower.as_str()))
            .map(|&(kind, _)| kind)
            .ok_or_else(|| CoreError::UnknownSolver(s.to_string()))
    }
}

impl std::fmt::Display for SolverKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Runs `kind` on `problem` under [`Objective::Makespan`] — the single
/// dispatch point for every consumer.
///
/// Thin compatibility facade over the [`Solver`] trait: allocates throwaway
/// scratch per call. Hot loops should hold a [`KindSolver`] (or use
/// [`solve_many`]) to amortize workspace allocation across solves.
pub fn solve(problem: Problem<'_>, kind: SolverKind) -> Result<Solution> {
    kind.solve(problem)
}

/// Runs `kind` on `problem` optimizing `objective` — [`solve`] with the
/// cost-model axis exposed.
pub fn solve_with(
    problem: Problem<'_>,
    kind: SolverKind,
    objective: Objective,
) -> Result<Solution> {
    kind.solve_with(problem, objective)
}

/// A solver object: one algorithm plus the scratch state it reuses between
/// runs.
///
/// Where [`solve`] is the stateless facade, a `Solver` is the warm path:
/// the object owns its [`SearchWorkspace`] (visited stamps, BFS/DFS arrays,
/// flow residual arena), so consecutive [`Solver::solve`] calls on
/// same-shaped instances perform no scratch allocation. [`KindSolver`] is
/// its one implementation; consumers (the CLI batch mode, the bench
/// sweeps, the scheduling policies) hold it through the trait.
pub trait Solver {
    /// The registry entry this solver implements.
    fn kind(&self) -> SolverKind;

    /// Solves `problem` optimizing `objective`, reusing the solver's
    /// internal scratch. The required method: the objective is part of
    /// the solver contract, not an afterthought.
    fn solve_with(&mut self, problem: Problem<'_>, objective: Objective) -> Result<Solution>;

    /// Solves `problem` under [`Objective::Makespan`], reusing the
    /// solver's internal scratch.
    fn solve(&mut self, problem: Problem<'_>) -> Result<Solution> {
        self.solve_with(problem, Objective::Makespan)
    }

    /// Pre-sizes internal scratch for `problem`'s dimensions, so the first
    /// real [`Solver::solve`] hits the warm path. Optional; a no-op by
    /// default.
    fn warm_start(&mut self, _problem: &Problem<'_>) {}

    /// [`Solver::warm_start`] plus a *solution seed*: `seed[v]` names the
    /// processor currently running task `v` (one entry per task). Backends
    /// that can exploit a known-good assignment — the load-range search
    /// tightens its bracket to the seed's makespan and starts probing below
    /// it — consume the seed on their **next** solve of the same problem;
    /// everyone else just pre-sizes. The seed is advisory: entries that
    /// name a processor not adjacent to their task are ignored, and the
    /// solve result is identical to the unseeded one (only faster).
    fn warm_start_with(&mut self, problem: &Problem<'_>, _seed: &[u32]) {
        self.warm_start(problem);
    }
}

/// The registry's [`Solver`] implementation: a [`SolverKind`] bound to a
/// persistent [`SearchWorkspace`].
#[derive(Clone, Debug)]
pub struct KindSolver {
    kind: SolverKind,
    ws: SearchWorkspace,
    /// One-shot solution seed installed by [`Solver::warm_start_with`],
    /// consumed (taken) by the next solve. Only the kinds that can exploit
    /// it store one.
    seed: Option<Vec<u32>>,
}

impl KindSolver {
    /// A solver for `kind` with an empty (lazily grown) workspace.
    pub fn new(kind: SolverKind) -> Self {
        KindSolver { kind, ws: SearchWorkspace::new(), seed: None }
    }

    /// The underlying workspace (e.g. to share it with non-registry code).
    pub fn workspace(&mut self) -> &mut SearchWorkspace {
        &mut self.ws
    }
}

impl Solver for KindSolver {
    fn kind(&self) -> SolverKind {
        self.kind
    }

    fn solve_with(&mut self, problem: Problem<'_>, objective: Objective) -> Result<Solution> {
        if self.kind == SolverKind::CostScaling {
            if let (Some(seed), Problem::SingleProc(g)) = (self.seed.take(), &problem) {
                let r = cost_scaling_seeded_in(g, Some(&seed), &mut self.ws)?;
                return Ok(Solution::SingleProc(descend(g, r.solution, objective)));
            }
        }
        self.seed = None;
        self.kind.solve_in(problem, objective, &mut self.ws)
    }

    fn warm_start(&mut self, problem: &Problem<'_>) {
        // SINGLEPROC kinds draw on the workspace: pre-size the traversal
        // arrays, and for `mcf`, the one kind that builds a flow network,
        // its balanced min-cost network (source + tasks + procs + sink; a
        // source arc per task and an edge arc and a sink arc per edge, each
        // with a residual twin). MULTIPROC (hypergraph) kinds keep their
        // scratch inside their own algorithms, so there is nothing to
        // pre-size for them.
        if let Problem::SingleProc(g) = problem {
            self.ws.reserve(g.n_left(), g.n_right());
            if self.kind == SolverKind::MinCostFlow {
                let (n1, n2, m) = (g.n_left() as usize, g.n_right() as usize, g.num_edges());
                self.ws.reserve_flow(n1 + n2 + 2, 2 * (n1 + 2 * m), m);
            }
        }
    }

    fn warm_start_with(&mut self, problem: &Problem<'_>, seed: &[u32]) {
        self.warm_start(problem);
        // Only the load-range search exploits a solution seed today; other
        // kinds would store it to no effect, so they skip the copy.
        if self.kind == SolverKind::CostScaling {
            if let Problem::SingleProc(g) = problem {
                if seed.len() == g.n_left() as usize {
                    match &mut self.seed {
                        Some(buf) => {
                            buf.clear();
                            buf.extend_from_slice(seed);
                        }
                        slot => *slot = Some(seed.to_vec()),
                    }
                }
            }
        }
    }
}

/// Solves every problem with every kind under `objective`, reusing one
/// workspace-backed solver per kind across the whole batch.
///
/// Returns one row per problem, holding the kinds' results in `kinds`
/// order. Class-mismatched pairs yield `Err(CoreError::KindMismatch)` in
/// their slot without aborting the rest of the batch — a batch can mix
/// `SINGLEPROC` and `MULTIPROC` instances.
///
/// The batch runs on the calling thread; parallel drivers (the bench
/// harness) shard the problem list and call `solve_many` — or hold
/// [`KindSolver`]s — once per worker, which is what "one workspace per
/// thread" means operationally.
pub fn solve_many(
    problems: &[Problem<'_>],
    kinds: &[SolverKind],
    objective: Objective,
) -> Vec<Vec<Result<Solution>>> {
    let mut solvers: Vec<KindSolver> = kinds.iter().map(|&k| KindSolver::new(k)).collect();
    problems
        .iter()
        .map(|&problem| solvers.iter_mut().map(|s| s.solve_with(problem, objective)).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bipartite() -> Bipartite {
        Bipartite::from_edges(
            6,
            3,
            &[(0, 0), (0, 1), (1, 0), (2, 1), (2, 2), (3, 2), (4, 0), (4, 2), (5, 1)],
        )
        .unwrap()
    }

    fn hypergraph() -> Hypergraph {
        Hypergraph::from_configs(
            3,
            &[vec![vec![0], vec![1, 2]], vec![vec![0]], vec![vec![2]], vec![vec![2]]],
        )
        .unwrap()
    }

    #[test]
    fn registry_has_at_least_ten_kinds_with_distinct_names() {
        assert!(SolverKind::ALL.len() >= 10);
        let mut names: Vec<_> = SolverKind::ALL
            .iter()
            .flat_map(|k| [k.name()].into_iter().chain(k.aliases().to_vec()))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name or alias is claimed twice");
    }

    #[test]
    fn every_name_round_trips_through_from_str() {
        for kind in SolverKind::ALL {
            assert_eq!(kind.name().parse::<SolverKind>().unwrap(), kind);
        }
        assert!(matches!("nonsense".parse::<SolverKind>(), Err(CoreError::UnknownSolver(_))));
    }

    #[test]
    fn every_singleproc_kind_solves_and_validates() {
        let g = bipartite();
        let problem = Problem::SingleProc(&g);
        let opt = SolverKind::ExactBisection.solve(problem).unwrap().makespan(&problem).unwrap();
        for kind in SolverKind::SINGLEPROC {
            let sol = solve(problem, kind).unwrap();
            sol.validate(&problem).unwrap();
            let m = sol.makespan(&problem).unwrap();
            if kind.is_exact() {
                assert_eq!(m, opt, "{kind} is exact but disagreed");
            } else {
                assert!(m >= opt, "{kind} beat the optimum");
            }
        }
    }

    #[test]
    fn every_multiproc_kind_solves_and_validates() {
        let h = hypergraph();
        let problem = Problem::MultiProc(&h);
        let opt = SolverKind::BruteForce.solve(problem).unwrap().makespan(&problem).unwrap();
        for kind in SolverKind::MULTIPROC {
            let sol = solve(problem, kind).unwrap();
            sol.validate(&problem).unwrap();
            assert!(sol.makespan(&problem).unwrap() >= opt, "{kind} beat the optimum");
        }
    }

    #[test]
    fn every_kind_solves_every_reported_objective() {
        let g = bipartite();
        let h = hypergraph();
        for kind in SolverKind::ALL {
            let problem = match kind.class() {
                SolverClass::SingleProc | SolverClass::Either => Problem::SingleProc(&g),
                SolverClass::MultiProc => Problem::MultiProc(&h),
            };
            for obj in Objective::REPORTED {
                let sol = solve_with(problem, kind, obj).unwrap();
                sol.validate(&problem).unwrap();
                // Exact kinds must hit the brute-force optimum under every
                // objective (the simultaneous-optimality contract).
                if kind.is_exact() {
                    let opt = solve_with(problem, SolverKind::BruteForce, obj)
                        .unwrap()
                        .score(&problem, obj)
                        .unwrap();
                    assert_eq!(sol.score(&problem, obj).unwrap(), opt, "{kind} under {obj}");
                }
            }
        }
    }

    #[test]
    fn score_and_makespan_report_class_mismatch() {
        let g = bipartite();
        let h = hypergraph();
        let sol = solve(Problem::SingleProc(&g), SolverKind::Basic).unwrap();
        assert!(matches!(
            sol.makespan(&Problem::MultiProc(&h)),
            Err(CoreError::ClassMismatch { .. })
        ));
        assert!(matches!(
            sol.score(&Problem::MultiProc(&h), Objective::FlowTime),
            Err(CoreError::ClassMismatch { .. })
        ));
        assert!(matches!(
            sol.validate(&Problem::MultiProc(&h)),
            Err(CoreError::ClassMismatch { .. })
        ));
    }

    #[test]
    fn class_mismatch_is_a_clean_error() {
        let g = bipartite();
        let h = hypergraph();
        assert!(matches!(
            SolverKind::Sgh.solve(Problem::SingleProc(&g)),
            Err(CoreError::KindMismatch { .. })
        ));
        assert!(matches!(
            SolverKind::Basic.solve(Problem::MultiProc(&h)),
            Err(CoreError::KindMismatch { .. })
        ));
    }

    #[test]
    fn aliases_resolve() {
        // Every historical alias keeps its kind; lookup is case-insensitive.
        for (alias, kind) in [
            ("incremental", SolverKind::ExactIncremental),
            ("bisection", SolverKind::ExactBisection),
            ("replicated", SolverKind::ExactReplicated),
            ("hopcroft-karp-semi", SolverKind::HopcroftKarpSemi),
            ("katrenic", SolverKind::HopcroftKarpSemi),
            ("fln", SolverKind::CostScaling),
            ("load-range", SolverKind::CostScaling),
            ("min-cost-flow", SolverKind::MinCostFlow),
            ("mincostflow", SolverKind::MinCostFlow),
            ("EVG+refine", SolverKind::EvgRefined),
            ("sgh+refine", SolverKind::SghRefined),
            ("sgh+ils", SolverKind::SghIls),
            ("streaming", SolverKind::StreamingGreedy),
            ("bruteforce", SolverKind::BruteForce),
        ] {
            assert_eq!(alias.parse::<SolverKind>().unwrap(), kind, "{alias}");
        }
    }

    #[test]
    fn seeded_warm_start_matches_unseeded_solves() {
        // warm_start_with feeds the previous assignment back as a seed; the
        // result must be score-identical to the unseeded solve for every
        // kind (seed-consuming or not), under every reported objective.
        let g = bipartite();
        let problem = Problem::SingleProc(&g);
        for kind in [SolverKind::CostScaling, SolverKind::MinCostFlow, SolverKind::Sorted] {
            let mut s = kind.solver();
            let mut prev: Option<Solution> = None;
            for obj in Objective::REPORTED {
                match &prev {
                    Some(Solution::SingleProc(sm)) => {
                        let procs: Vec<u32> = sm.edge_of.iter().map(|&e| g.edge_right(e)).collect();
                        s.warm_start_with(&problem, &procs);
                    }
                    _ => s.warm_start(&problem),
                }
                let seeded = s.solve_with(problem, obj).unwrap();
                seeded.validate(&problem).unwrap();
                let fresh = solve_with(problem, kind, obj).unwrap();
                assert_eq!(
                    seeded.score(&problem, obj).unwrap(),
                    fresh.score(&problem, obj).unwrap(),
                    "{kind} under {obj} diverged when seeded"
                );
                prev = Some(seeded);
            }
            // A garbage-length seed is ignored, not an error.
            s.warm_start_with(&problem, &[0]);
            s.solve(problem).unwrap().validate(&problem).unwrap();
        }
    }

    #[test]
    fn warm_solver_matches_stateless_facade() {
        // A KindSolver reused across many solves must return exactly what
        // the stateless facade returns per call.
        let g = bipartite();
        let h = hypergraph();
        for kind in SolverKind::ALL {
            let mut s = kind.solver();
            assert_eq!(s.kind(), kind);
            let problem = match kind.class() {
                SolverClass::SingleProc | SolverClass::Either => Problem::SingleProc(&g),
                SolverClass::MultiProc => Problem::MultiProc(&h),
            };
            s.warm_start(&problem);
            for _ in 0..3 {
                let warm = s.solve(problem).unwrap();
                let cold = solve(problem, kind).unwrap();
                assert_eq!(warm, cold, "{kind} diverged under workspace reuse");
            }
        }
    }

    #[test]
    fn solve_many_matches_per_call_solves_and_isolates_mismatches() {
        let g = bipartite();
        let h = hypergraph();
        let problems = [Problem::SingleProc(&g), Problem::MultiProc(&h)];
        let kinds = [SolverKind::ExactBisection, SolverKind::Evg, SolverKind::BruteForce];
        let rows = solve_many(&problems, &kinds, Objective::Makespan);
        assert_eq!(rows.len(), problems.len());
        for (row, problem) in rows.iter().zip(&problems) {
            assert_eq!(row.len(), kinds.len());
            for (slot, &kind) in row.iter().zip(&kinds) {
                match (slot, solve(*problem, kind)) {
                    (Ok(batch), Ok(single)) => {
                        assert_eq!(batch, &single, "{kind}");
                        batch.validate(problem).unwrap();
                    }
                    (Err(CoreError::KindMismatch { .. }), Err(CoreError::KindMismatch { .. })) => {}
                    (got, want) => panic!("{kind}: batch {got:?} vs single {want:?}"),
                }
            }
        }
    }

    #[test]
    fn solver_trait_is_object_safe() {
        let g = bipartite();
        let problem = Problem::SingleProc(&g);
        let mut solvers: Vec<Box<dyn Solver>> =
            vec![Box::new(SolverKind::Expected.solver()), Box::new(SolverKind::Harvey.solver())];
        for s in &mut solvers {
            s.solve(problem).unwrap().validate(&problem).unwrap();
        }
    }
}
