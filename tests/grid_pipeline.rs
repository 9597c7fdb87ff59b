//! End-to-end pipeline over the paper's instance grid (scaled down):
//! generate → statistics → lower bound → all heuristics → refinement →
//! serialize instance and solution → reload → re-validate. Exactly the
//! path a downstream user of the library (or the CLI) takes.

use semimatch::core::analysis::LoadProfile;
use semimatch::core::lower_bound::lower_bound_multiproc;
use semimatch::core::refine::{iterated_refine, refine};
use semimatch::core::solution_io::{read_solution, write_solution};
use semimatch::gen::params::{Config, Family};
use semimatch::gen::weights::WeightScheme;
use semimatch::graph::io::{read_hypergraph, write_hypergraph};
use semimatch::graph::{Hypergraph, HypergraphStats};
use semimatch::solver::{Problem, SolverKind};

fn tiny_grid() -> Vec<Config> {
    let mut out = Vec::new();
    for family in Family::ALL {
        let g = family.groups();
        for weights in [WeightScheme::Unit, WeightScheme::Related] {
            out.push(Config { family, n: 4 * g, p: g, dv: 3, dh: 4, weights });
        }
    }
    out
}

fn makespan(kind: SolverKind, h: &Hypergraph) -> u64 {
    let problem = Problem::MultiProc(h);
    kind.solve(problem).unwrap().makespan(&problem).unwrap()
}

#[test]
fn full_pipeline_on_every_family() {
    for cfg in tiny_grid() {
        for instance in 0..2u64 {
            let h = cfg.instance(123, instance);
            h.validate().unwrap();

            // Statistics are structurally consistent.
            let stats = HypergraphStats::of(&h);
            assert_eq!(stats.n_tasks, cfg.n);
            assert_eq!(stats.n_procs, cfg.p);
            assert!(stats.min_deg_task >= 1, "{}", cfg.name());

            let lb = lower_bound_multiproc(&h).unwrap();
            assert!(lb >= 1);

            for kind in SolverKind::HYPER_HEURISTICS {
                let mut hm = kind.solve(Problem::MultiProc(&h)).unwrap().into_hyper().unwrap();
                hm.validate(&h).unwrap();
                let before = hm.makespan(&h);
                assert!(before >= lb, "{} {} below LB", cfg.name(), kind.label());

                // Refinement chain never regresses.
                refine(&h, &mut hm, 8).unwrap();
                let refined = hm.makespan(&h);
                assert!(refined <= before);
                iterated_refine(&h, &mut hm, 4, 8).unwrap();
                assert!(hm.makespan(&h) <= refined);
                assert!(hm.makespan(&h) >= lb);

                // Profile sanity.
                let profile = LoadProfile::of(&h, &hm);
                assert_eq!(profile.max, hm.makespan(&h));
                assert!(profile.imbalance >= 1.0 - 1e-12);

                // Round-trip instance + solution through the text formats.
                let mut ibuf = Vec::new();
                write_hypergraph(&h, &mut ibuf).unwrap();
                let h2 = read_hypergraph(&ibuf[..]).unwrap();
                assert_eq!(h2, h);
                let mut sbuf = Vec::new();
                write_solution(&hm, &mut sbuf).unwrap();
                let hm2 = read_solution(&h2, &sbuf[..]).unwrap();
                assert_eq!(hm2, hm);
                assert_eq!(hm2.makespan(&h2), hm.makespan(&h));
            }
        }
    }
}

#[test]
fn unit_hilo_families_tie_across_heuristics() {
    // The Table II HiLo signature at miniature scale: identical quality
    // for all four heuristics on most instances.
    let cfg =
        Config { family: Family::Hlm, n: 512, p: 128, dv: 5, dh: 10, weights: WeightScheme::Unit };
    let mut ties = 0;
    let total = 4;
    for i in 0..total {
        let h = cfg.instance(7, i);
        let makespans: Vec<u64> =
            SolverKind::HYPER_HEURISTICS.iter().map(|&kind| makespan(kind, &h)).collect();
        if makespans.windows(2).all(|w| w[0] == w[1]) {
            ties += 1;
        }
    }
    assert!(ties * 2 >= total, "heuristics tied on only {ties}/{total} HiLo instances");
}

#[test]
fn related_weights_order_evg_before_sgh() {
    // Table III's headline at miniature scale, aggregated to damp noise.
    let cfg = Config {
        family: Family::Mg,
        n: 1280,
        p: 128,
        dv: 5,
        dh: 10,
        weights: WeightScheme::Related,
    };
    let mut sgh_total = 0u64;
    let mut evg_total = 0u64;
    for i in 0..4 {
        let h = cfg.instance(11, i);
        sgh_total += makespan(SolverKind::Sgh, &h);
        evg_total += makespan(SolverKind::Evg, &h);
    }
    assert!(
        evg_total <= sgh_total,
        "EVG ({evg_total}) should not lose to SGH ({sgh_total}) on related weights"
    );
}
