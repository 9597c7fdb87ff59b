//! Pins the exact output of every registry kind under every reported
//! objective, plus the objective-aware local search, on a fixed set of
//! seeded instances. Each `(instance, kind, objective, assignment or
//! error)` is folded into one FNV-1a digest, so any change to a
//! selection rule, a tie-break or an error path shows up as a digest
//! mismatch. A refactor of the solvers must leave the digest unchanged.
//!
//! `mcf` has two digests of its own: its assignments and errors, and its
//! score under every reported objective (or its error). On unit
//! instances it returns one of many flow-time-optimal assignments, all
//! with the same scores, so a change of backend may move the first
//! digest and must leave the second unchanged.
//!
//! Another digest pins the `hk-semi` engine's assignment, phase count
//! and flip count on tall instances whose processors squared do not
//! exceed their edges (`p² ≤ m`), a shape none of the registry instances
//! has.
//!
//! A last one pins the capacity-probe searches (`cost-scaling` and the
//! bisection deadline search) on tall instances where `cost-scaling`
//! partitions the instance and probes the surviving sub-view, which the
//! registry instances are too small to do.

mod common;

use common::tall_bipartite;
use semimatch::core::exact::{cost_scaling_in, exact_unit_in, SearchStrategy};
use semimatch::core::refine::{iterated_refine_with, refine_with};
use semimatch::core::HyperMatching;
use semimatch::gen::adversarial::{fig2, fig3, fig4};
use semimatch::gen::fewg_manyg::fewg_manyg;
use semimatch::gen::hilo::hilo_permuted;
use semimatch::gen::params::{Config, Family};
use semimatch::gen::rng::Xoshiro256;
use semimatch::gen::weights::{apply_random_edge_weights, WeightScheme};
use semimatch::graph::{Bipartite, Hypergraph};
use semimatch::matching::{optimal_semi_assignment_in, SearchWorkspace};
use semimatch::solver::{Objective, Problem, Solution, SolverKind};

/// The digest of every output below except `mcf`'s.
const PINNED: u64 = 0x3265_3cd1_1f95_9bbf;

/// The digest of `mcf`'s assignments and errors on the same instances
/// and objectives.
const PINNED_MCF: u64 = 0x31fd_2e96_f006_f472;

/// The digest of `mcf`'s score under every reported objective, or its
/// error, on the same instances and objectives.
const PINNED_MCF_SCORES: u64 = 0xe573_1aa9_db51_da0f;

/// The digest of the `hk-semi` engine's outputs on the tall instances of
/// [`tall_hk_semi_outputs_match_the_pinned_digest`].
const PINNED_TALL_HK_SEMI: u64 = 0xc911_647d_2f6e_82fc;

/// The digest of the capacity-probe searches' outputs on the instances of
/// [`probe_search_outputs_match_the_pinned_digest`].
const PINNED_PROBE_SEARCH: u64 = 0xeb6e_8948_13b0_e63a;

/// Instances with at most this many tasks also run the exhaustive search.
const BRUTE_FORCE_MAX_TASKS: u32 = 12;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn ids(&mut self, ids: &[u32]) {
        for id in ids {
            self.bytes(&id.to_le_bytes());
        }
    }
}

enum Instance {
    Bi(Bipartite),
    Hyper(Hypergraph),
}

impl Instance {
    fn problem(&self) -> Problem<'_> {
        match self {
            Instance::Bi(g) => Problem::SingleProc(g),
            Instance::Hyper(h) => Problem::MultiProc(h),
        }
    }

    fn n_tasks(&self) -> u32 {
        match self {
            Instance::Bi(g) => g.n_left(),
            Instance::Hyper(h) => h.n_tasks(),
        }
    }
}

fn instances() -> Vec<(String, Instance)> {
    let mut out = Vec::new();
    let families = [(Family::Fg, 128, 32), (Family::Mg, 256, 128), (Family::Hlf, 128, 32)]
        .into_iter()
        .chain([(Family::Hlm, 256, 128)]);
    for (family, n, p) in families {
        for weights in [WeightScheme::Unit, WeightScheme::Related, WeightScheme::Random] {
            let cfg = Config { family, n, p, dv: 3, dh: 4, weights };
            out.push((cfg.name(), Instance::Hyper(cfg.instance(7, 0))));
        }
    }
    let hilo = hilo_permuted(96, 32, 4, 3, &mut Xoshiro256::seed_from_u64(11));
    out.push(("hilo.bg".into(), Instance::Bi(hilo)));
    let fewg = fewg_manyg(96, 32, 4, 3, &mut Xoshiro256::seed_from_u64(12));
    out.push(("fewgmanyg.bg".into(), Instance::Bi(fewg)));
    let mut rng = Xoshiro256::seed_from_u64(13);
    let mut weighted = fewg_manyg(64, 16, 4, 3, &mut rng);
    apply_random_edge_weights(&mut weighted, 9, &mut rng);
    out.push(("weighted.bg".into(), Instance::Bi(weighted)));
    out.push(("fig3(5)".into(), Instance::Bi(fig3(5))));
    out.push(("fig4".into(), Instance::Bi(fig4())));
    out.push(("fig2".into(), Instance::Hyper(fig2())));
    // Weighted, with task 2 uncovered: every kind errors, and which error
    // it reports depends on the kind and the objective.
    let uncovered =
        Bipartite::from_weighted_edges(3, 2, &[(0, 0), (0, 1), (1, 1)], &[2, 3, 4]).unwrap();
    out.push(("uncovered.bg".into(), Instance::Bi(uncovered)));
    // Both tasks on P0, whose load ends at exactly u64::MAX.
    let full = Bipartite::from_weighted_edges(2, 1, &[(0, 0), (1, 0)], &[u64::MAX - 1, 1]).unwrap();
    out.push(("full.bg".into(), Instance::Bi(full)));
    let full = Hypergraph::from_hyperedges(2, 1, vec![(0, vec![0], u64::MAX - 1), (1, vec![0], 1)])
        .unwrap();
    out.push(("full.hg".into(), Instance::Hyper(full)));
    out
}

fn fold_result(fnv: &mut Fnv, result: &semimatch::core::Result<Solution>) {
    match result {
        Ok(Solution::SingleProc(sm)) => {
            fnv.bytes(b"S");
            fnv.ids(&sm.edge_of);
        }
        Ok(Solution::MultiProc(hm)) => {
            fnv.bytes(b"M");
            fnv.ids(&hm.hedge_of);
        }
        Err(e) => {
            fnv.bytes(b"E");
            fnv.bytes(format!("{e:?}").as_bytes());
        }
    }
}

/// Local search from the first-fit start (every task on its first
/// configuration), so the descent has work to do.
fn fold_refine(fnv: &mut Fnv, h: &Hypergraph, objective: Objective) {
    let first_fit =
        HyperMatching { hedge_of: (0..h.n_tasks()).map(|t| h.hedges_of(t).start).collect() };
    let mut hm = first_fit.clone();
    let stats = refine_with(h, &mut hm, 16, objective).unwrap();
    fnv.bytes(b"refine");
    fnv.bytes(&stats.moves.to_le_bytes());
    fnv.bytes(&stats.passes.to_le_bytes());
    fnv.ids(&hm.hedge_of);
    let mut hm = first_fit;
    let stats = iterated_refine_with(h, &mut hm, 4, 8, objective).unwrap();
    fnv.bytes(b"ils");
    fnv.bytes(&[stats.kicks.to_le_bytes(), stats.improvements.to_le_bytes()].concat());
    fnv.bytes(&stats.moves.to_le_bytes());
    fnv.ids(&hm.hedge_of);
}

#[test]
fn every_kind_output_matches_the_pinned_digest() {
    let mut fnv = Fnv::new();
    for (name, instance) in instances() {
        fnv.bytes(name.as_bytes());
        let problem = instance.problem();
        for kind in SolverKind::ALL {
            if !kind.class().accepts(&problem)
                || kind == SolverKind::MinCostFlow
                || (kind == SolverKind::BruteForce && instance.n_tasks() > BRUTE_FORCE_MAX_TASKS)
            {
                continue;
            }
            for objective in Objective::REPORTED {
                fnv.bytes(kind.name().as_bytes());
                fnv.bytes(objective.name().as_bytes());
                fold_result(&mut fnv, &kind.solve_with(problem, objective));
            }
        }
        if let Instance::Hyper(h) = &instance {
            for objective in Objective::REPORTED {
                fnv.bytes(objective.name().as_bytes());
                fold_refine(&mut fnv, h, objective);
            }
        }
    }
    assert_eq!(fnv.0, PINNED, "digest {:#018x} differs from the pinned outputs", fnv.0);
}

/// `mcf` on the instances of [`every_kind_output_matches_the_pinned_digest`]
/// under every reported objective: the scores first, then the
/// assignments.
#[test]
fn mcf_outputs_match_the_pinned_digests() {
    let (mut outputs, mut scores) = (Fnv::new(), Fnv::new());
    for (name, instance) in instances() {
        let problem = instance.problem();
        if !SolverKind::MinCostFlow.class().accepts(&problem) {
            continue;
        }
        outputs.bytes(name.as_bytes());
        scores.bytes(name.as_bytes());
        for objective in Objective::REPORTED {
            let result = SolverKind::MinCostFlow.solve_with(problem, objective);
            outputs.bytes(objective.name().as_bytes());
            fold_result(&mut outputs, &result);
            scores.bytes(objective.name().as_bytes());
            match &result {
                Ok(solution) => {
                    for scored in Objective::REPORTED {
                        let score = solution.score(&problem, scored).unwrap();
                        scores.bytes(&score.0.to_le_bytes());
                    }
                }
                Err(e) => scores.bytes(format!("E{e:?}").as_bytes()),
            }
        }
    }
    assert_eq!(
        scores.0, PINNED_MCF_SCORES,
        "score digest {:#018x} differs from the pinned scores",
        scores.0
    );
    assert_eq!(outputs.0, PINNED_MCF, "digest {:#018x} differs from the pinned outputs", outputs.0);
}

/// HiLo and FewgManyg at n = 4096, p = 32, g = 16, d = 6 and the
/// `exact_agreement` tall shape (n = 4096, p = 24), three seeds each,
/// solved through one shared workspace.
#[test]
fn tall_hk_semi_outputs_match_the_pinned_digest() {
    let mut graphs = Vec::new();
    for seed in 1..=3 {
        graphs.push(hilo_permuted(4096, 32, 16, 6, &mut Xoshiro256::seed_from_u64(seed)));
        graphs.push(fewg_manyg(4096, 32, 16, 6, &mut Xoshiro256::seed_from_u64(seed)));
        graphs.push(tall_bipartite(4096, 24, 0x5eed_7a11 + seed - 1));
    }
    let mut ws = SearchWorkspace::new();
    let mut fnv = Fnv::new();
    for g in &graphs {
        let p = g.n_right() as usize;
        assert!(p * p <= g.num_edges(), "{p} processors, {} edges", g.num_edges());
        let a = optimal_semi_assignment_in(g, &mut ws);
        fnv.ids(&a.task_to_proc);
        fnv.bytes(&a.phases.to_le_bytes());
        fnv.bytes(&a.flips.to_le_bytes());
    }
    assert_eq!(
        fnv.0, PINNED_TALL_HK_SEMI,
        "digest {:#018x} differs from the pinned outputs",
        fnv.0
    );
}

/// `cost-scaling` and the bisection deadline search through one shared
/// workspace: HiLo n = 1024, p = 16, g = 4, d = 2 (two probes, one
/// partition), the `exact_agreement`-style tall shape at n = 2048,
/// p = 256 (one or two partitions) and the HiLo and FewgManyg graphs of
/// [`tall_hk_semi_outputs_match_the_pinned_digest`] (one feasible probe),
/// three seeds each. Folds each solve's assignment and probe count.
#[test]
fn probe_search_outputs_match_the_pinned_digest() {
    let mut graphs = Vec::new();
    for seed in 1..=3 {
        graphs.push(hilo_permuted(1024, 16, 4, 2, &mut Xoshiro256::seed_from_u64(seed)));
        graphs.push(tall_bipartite(2048, 256, seed));
        graphs.push(hilo_permuted(4096, 32, 16, 6, &mut Xoshiro256::seed_from_u64(seed)));
        graphs.push(fewg_manyg(4096, 32, 16, 6, &mut Xoshiro256::seed_from_u64(seed)));
    }
    let mut ws = SearchWorkspace::new();
    let mut fnv = Fnv::new();
    for g in &graphs {
        for r in [
            cost_scaling_in(g, &mut ws).unwrap(),
            exact_unit_in(g, SearchStrategy::Bisection, &mut ws).unwrap(),
        ] {
            fnv.ids(&r.solution.edge_of);
            fnv.bytes(&r.oracle_calls.to_le_bytes());
        }
    }
    assert_eq!(
        fnv.0, PINNED_PROBE_SEARCH,
        "digest {:#018x} differs from the pinned outputs",
        fnv.0
    );
}
