//! `SINGLEPROC-UNIT` experiment harness (§V-B and the technical-report
//! tables): exact optimum vs the four greedy heuristics on HiLo and
//! FewgManyg bipartite instances.

use std::time::Instant;

use rayon::prelude::*;
use semimatch_core::quality::{mean_f64, median_f64, median_u64, ratio};
use semimatch_core::solver::{Problem, Solver, SolverKind};
use semimatch_gen::rng::Xoshiro256;
use semimatch_gen::{fewg_manyg, hilo_permuted};

use crate::{solver_set, Options};

/// Bipartite generator family for `SINGLEPROC` experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BiFamily {
    /// FewgManyg(n, p, g, d).
    FewgManyg,
    /// HiLo(n, p, g, d) with random relabeling per instance.
    HiLo,
}

impl BiFamily {
    /// Short prefix used in row names.
    pub fn prefix(self) -> &'static str {
        match self {
            BiFamily::FewgManyg => "FM",
            BiFamily::HiLo => "HL",
        }
    }
}

/// One `SINGLEPROC-UNIT` experiment configuration.
#[derive(Clone, Copy, Debug)]
pub struct BiConfig {
    /// Generator family.
    pub family: BiFamily,
    /// Tasks.
    pub n: u32,
    /// Processors.
    pub p: u32,
    /// Groups.
    pub g: u32,
    /// Degree parameter.
    pub d: u32,
}

impl BiConfig {
    /// Row name, e.g. `FM-20-4-g32-d10`.
    pub fn name(&self) -> String {
        format!(
            "{}-{}-{}-g{}-d{}",
            self.family.prefix(),
            self.n / 256,
            self.p / 256,
            self.g,
            self.d
        )
    }

    /// Generates the `index`-th instance.
    pub fn instance(&self, master_seed: u64, index: u64) -> semimatch_graph::Bipartite {
        let tag = (self.n as u64) << 32
            ^ (self.p as u64) << 16
            ^ (self.g as u64) << 8
            ^ self.d as u64
            ^ match self.family {
                BiFamily::FewgManyg => 0x55,
                BiFamily::HiLo => 0xAA,
            };
        let root = Xoshiro256::seed_from_u64(master_seed ^ tag.wrapping_mul(0x9E3779B97F4A7C15));
        let mut rng = root.stream(index);
        match self.family {
            BiFamily::FewgManyg => fewg_manyg(self.n, self.p, self.g, self.d, &mut rng),
            BiFamily::HiLo => hilo_permuted(self.n, self.p, self.g, self.d, &mut rng),
        }
    }
}

/// One row of the §V-B report.
#[derive(Clone, Debug)]
pub struct SingleProcRow {
    /// Row name.
    pub name: String,
    /// Median optimal makespan.
    pub opt: u64,
    /// Median `makespan / M_opt` per heuristic
    /// ([`SolverKind::BI_HEURISTICS`] order).
    pub ratios: Vec<f64>,
    /// Mean heuristic seconds ([`SolverKind::BI_HEURISTICS`] order).
    pub times: Vec<f64>,
    /// Mean exact-algorithm seconds.
    pub exact_time: f64,
}

/// Runs exact + heuristics over the instances of `cfg`, dispatching through
/// the [`Solver`] trait. Each rayon worker holds one exact solver (whose
/// workspace stays warm across its instances — the dominant win) plus one
/// solver per heuristic.
pub fn singleproc_row(cfg: &BiConfig, opts: &Options) -> SingleProcRow {
    let cfg = scale_bi(*cfg, opts.scale);
    let per_instance: Vec<(u64, Vec<f64>, Vec<f64>, f64)> = (0..opts.instances)
        .into_par_iter()
        .map_init(
            || (SolverKind::ExactBisection.solver(), solver_set(&SolverKind::BI_HEURISTICS)),
            |(exact_solver, heuristics), i| {
                let g = cfg.instance(opts.seed, i);
                let problem = Problem::SingleProc(&g);
                let t0 = Instant::now();
                let exact = exact_solver.solve(problem).expect("generator degrees are clamped ≥ 1");
                let exact_time = t0.elapsed().as_secs_f64();
                let opt = exact.makespan(&problem).expect("solution matches problem class");
                let mut ratios = Vec::with_capacity(heuristics.len());
                let mut times = Vec::with_capacity(heuristics.len());
                for solver in heuristics.iter_mut() {
                    let t1 = Instant::now();
                    let sol = solver.solve(problem).expect("covered");
                    times.push(t1.elapsed().as_secs_f64());
                    ratios.push(ratio(
                        sol.makespan(&problem).expect("solution matches problem class"),
                        opt,
                    ));
                }
                (opt, ratios, times, exact_time)
            },
        )
        .collect();
    let mut opt: Vec<u64> = per_instance.iter().map(|x| x.0).collect();
    let k = SolverKind::BI_HEURISTICS.len();
    let ratios = (0..k)
        .map(|j| {
            let mut xs: Vec<f64> = per_instance.iter().map(|x| x.1[j]).collect();
            median_f64(&mut xs)
        })
        .collect();
    let times = (0..k)
        .map(|j| mean_f64(&per_instance.iter().map(|x| x.2[j]).collect::<Vec<_>>()))
        .collect();
    let exact_time = mean_f64(&per_instance.iter().map(|x| x.3).collect::<Vec<_>>());
    let name = if opts.scale == 1 {
        cfg.name()
    } else {
        format!("{}-n{}-p{}-g{}-d{}", cfg.family.prefix(), cfg.n, cfg.p, cfg.g, cfg.d)
    };
    SingleProcRow { name, opt: median_u64(&mut opt), ratios, times, exact_time }
}

fn scale_bi(mut c: BiConfig, scale: u32) -> BiConfig {
    if scale > 1 {
        c.n = (c.n / scale).max(c.g);
        c.p = ((c.p / scale).max(c.g) / c.g).max(1) * c.g;
    }
    c
}

/// The §V-A size grid restricted to `n ≥ 5p` (same as MULTIPROC).
pub fn bi_grid(d: u32, g: u32) -> Vec<BiConfig> {
    semimatch_gen::SIZE_GRID
        .iter()
        .flat_map(|&(n, p)| {
            [BiFamily::FewgManyg, BiFamily::HiLo].into_iter().map(move |family| BiConfig {
                family,
                n,
                p,
                g,
                d,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_is_sane_on_tiny_instances() {
        let cfg = BiConfig { family: BiFamily::FewgManyg, n: 128, p: 32, g: 4, d: 3 };
        let opts = Options { scale: 1, instances: 3, seed: 11, ..Options::default() };
        let row = singleproc_row(&cfg, &opts);
        assert!(row.opt >= 128_u64.div_ceil(32), "opt at least ⌈n/p⌉");
        assert_eq!(row.ratios.len(), 4);
        for &r in &row.ratios {
            assert!(r >= 1.0 - 1e-9, "heuristics cannot beat the optimum: {r}");
        }
    }

    #[test]
    fn hilo_rows_work_too() {
        let cfg = BiConfig { family: BiFamily::HiLo, n: 64, p: 16, g: 4, d: 2 };
        let opts = Options { scale: 1, instances: 2, seed: 3, ..Options::default() };
        let row = singleproc_row(&cfg, &opts);
        assert!(row.opt >= 4);
    }

    #[test]
    fn grid_covers_both_families() {
        let grid = bi_grid(10, 32);
        assert_eq!(grid.len(), 12);
        assert!(grid.iter().any(|c| c.family == BiFamily::HiLo));
        assert!(grid.iter().any(|c| c.family == BiFamily::FewgManyg));
    }
}
