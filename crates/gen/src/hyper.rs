//! The two-step hypergraph generator for `MULTIPROC` instances (§V-A2).
//!
//! Step 1 draws the number of configurations `d_t` of every task from a
//! binomial distribution with mean `dv`, creating `|N| = Σ_t d_t`
//! hyperedges (each owned by exactly one task, so the task→hyperedge
//! bipartite graph is determined by the degrees alone).
//!
//! Step 2 fills in the hyperedge→processor connections by calling one of
//! the bipartite generators — `HiLo(|N|, p, g, dh)` or
//! `FewgManyg(|N|, p, g, dh)` — with the hyperedges as the left side.

use semimatch_graph::{Hypergraph, HypergraphBuilder};

use crate::binomial::degree_with_mean;
use crate::fewg_manyg::fewg_manyg;
use crate::hilo::{hilo_permuted, permute_bipartite};
use crate::rng::Xoshiro256;

/// Which bipartite generator wires hyperedges to processors in step 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HyperKind {
    /// FewgManyg step 2 (families `FG-…` for g=32 and `MG-…` for g=128).
    FewgManyg,
    /// HiLo step 2 (families `HLF-…` for g=32 and `HLM-…` for g=128).
    HiLo,
}

/// Parameters of a `MULTIPROC` instance (Table I naming).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct HyperParams {
    /// Step-2 generator.
    pub kind: HyperKind,
    /// Number of tasks `n = |V1|`.
    pub n: u32,
    /// Number of processors `p = |V2|`.
    pub p: u32,
    /// Number of groups `g`.
    pub g: u32,
    /// Mean configurations per task (step 1).
    pub dv: u32,
    /// Degree parameter of the step-2 generator.
    pub dh: u32,
}

/// Generates a unit-weight `MULTIPROC` hypergraph.
///
/// # Panics
///
/// If the drawn configurations number more than `u32::MAX` (possible only
/// when `n·2·dv` exceeds it).
pub fn hyper_instance(params: HyperParams, rng: &mut Xoshiro256) -> Hypergraph {
    let HyperParams { kind, n, p, g, dv, dh } = params;
    // Step 1: configuration counts per task.
    let degrees: Vec<u32> = (0..n).map(|_| degree_with_mean(rng, dv)).collect();
    let n_hedges = hyperedge_count(&degrees);
    // Step 2: processor sets via a bipartite generator over the hyperedges.
    let wiring = match kind {
        HyperKind::FewgManyg => fewg_manyg(n_hedges, p, g, dh, rng),
        HyperKind::HiLo => {
            // HiLo is deterministic; permute so the ten instances of the
            // experimental protocol differ (see DESIGN.md §3). Only the
            // processor side needs relabeling but permuting both is harmless
            // — hyperedge identity is given by the owner task below.
            hilo_permuted(n_hedges, p, g, dh, rng)
        }
    };
    assemble(n, p, &degrees, &wiring)
}

/// Variant that keeps HiLo wiring unpermuted (for structure inspection).
pub fn hyper_instance_deterministic_hilo(params: HyperParams, rng: &mut Xoshiro256) -> Hypergraph {
    let HyperParams { kind, n, p, g, dv, dh } = params;
    assert_eq!(kind, HyperKind::HiLo, "only meaningful for HiLo wiring");
    let degrees: Vec<u32> = (0..n).map(|_| degree_with_mean(rng, dv)).collect();
    let wiring = crate::hilo::hilo(hyperedge_count(&degrees), p, g, dh);
    assemble(n, p, &degrees, &wiring)
}

/// The number of hyperedges step 1 creates: the sum of the degrees.
fn hyperedge_count(degrees: &[u32]) -> u32 {
    degrees
        .iter()
        .try_fold(0u32, |sum, &d| sum.checked_add(d))
        .expect("configuration count fits in u32")
}

fn assemble(n: u32, p: u32, degrees: &[u32], wiring: &semimatch_graph::Bipartite) -> Hypergraph {
    let mut builder = HypergraphBuilder::with_capacity(n, p, wiring.n_left() as usize);
    let mut hedge: u32 = 0;
    for (t, &deg) in degrees.iter().enumerate() {
        for _ in 0..deg {
            let procs = wiring.neighbors(hedge).to_vec();
            builder.config(t as u32, procs);
            hedge += 1;
        }
    }
    builder.build().expect("two-step construction is structurally valid")
}

/// Re-rolls processor sides of an existing hypergraph (rarely needed; kept
/// for experiments that fix step 1 while varying step 2).
pub fn rewire_hilo(h: &Hypergraph, g: u32, dh: u32, rng: &mut Xoshiro256) -> Hypergraph {
    let wiring = permute_bipartite(&crate::hilo::hilo(h.n_hedges(), h.n_procs(), g, dh), rng)
        .expect("permutation preserves validity");
    let degrees: Vec<u32> = (0..h.n_tasks()).map(|t| h.deg_task(t)).collect();
    assemble(h.n_tasks(), h.n_procs(), &degrees, &wiring)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params(kind: HyperKind) -> HyperParams {
        HyperParams { kind, n: 128, p: 32, g: 4, dv: 3, dh: 4 }
    }

    #[test]
    fn every_task_has_a_configuration() {
        for kind in [HyperKind::FewgManyg, HyperKind::HiLo] {
            let mut rng = Xoshiro256::seed_from_u64(1);
            let h = hyper_instance(small_params(kind), &mut rng);
            h.validate().unwrap();
            assert!(h.uncovered_tasks().is_empty(), "{kind:?}");
            assert_eq!(h.n_tasks(), 128);
            assert_eq!(h.n_procs(), 32);
        }
    }

    #[test]
    fn hyperedge_count_tracks_dv() {
        let mut rng = Xoshiro256::seed_from_u64(2);
        let h = hyper_instance(small_params(HyperKind::FewgManyg), &mut rng);
        let expect = 128.0 * 3.0;
        let got = h.n_hedges() as f64;
        assert!((got - expect).abs() / expect < 0.25, "|N| = {got}, expected ≈ {expect}");
    }

    #[test]
    fn unit_weights_by_default() {
        let mut rng = Xoshiro256::seed_from_u64(3);
        let h = hyper_instance(small_params(HyperKind::HiLo), &mut rng);
        assert!(h.is_unit());
    }

    #[test]
    fn deterministic_given_seed() {
        let a =
            hyper_instance(small_params(HyperKind::FewgManyg), &mut Xoshiro256::seed_from_u64(9));
        let b =
            hyper_instance(small_params(HyperKind::FewgManyg), &mut Xoshiro256::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn instances_differ_across_streams() {
        let root = Xoshiro256::seed_from_u64(10);
        let a = hyper_instance(small_params(HyperKind::HiLo), &mut root.stream(0));
        let b = hyper_instance(small_params(HyperKind::HiLo), &mut root.stream(1));
        assert_ne!(a, b);
    }

    #[test]
    fn hilo_wiring_bounds_hyperedge_sizes() {
        let mut rng = Xoshiro256::seed_from_u64(4);
        // pg = p/g = 4, dh = 10 > pg: sizes ≈ 2·pg (two groups of 4).
        let params = HyperParams { kind: HyperKind::HiLo, n: 64, p: 16, g: 4, dv: 2, dh: 10 };
        let h = hyper_instance(params, &mut rng);
        for hid in 0..h.n_hedges() {
            assert!(h.hedge_size(hid) <= 8);
        }
    }

    #[test]
    fn rewire_preserves_task_degrees() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        let h = hyper_instance(small_params(HyperKind::HiLo), &mut rng);
        let r = rewire_hilo(&h, 4, 2, &mut rng);
        assert_eq!(h.n_tasks(), r.n_tasks());
        for t in 0..h.n_tasks() {
            assert_eq!(h.deg_task(t), r.deg_task(t));
        }
    }
}
