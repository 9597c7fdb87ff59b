//! Quality ablation for the §IV-D3 ambiguity and the SGH criterion:
//! compares, on the Table III (related-weights) grid,
//!
//! * VGH with the *resulting-vector* reading (our default),
//! * VGH with the *current-loads / pinwise* reading (weight-blind),
//! * SGH (paper criterion) and SGH on resulting loads,
//! * SGH + local-search refinement (the extension).
//!
//! The pinwise reading tracks SGH on weighted instances — which is exactly
//! what the paper's Table III reports for its VGH — while the
//! resulting-vector reading is weight-aware and beats it.

use rayon::prelude::*;
use semimatch_bench::{emit_report, markdown_table, row_name, scale_config, Options};
use semimatch_core::hyper::sgh::{sorted_greedy_hyp, sorted_greedy_hyp_resulting};
use semimatch_core::hyper::vgh::{vector_greedy_hyp, vector_greedy_hyp_pinwise};
use semimatch_core::lower_bound::lower_bound_multiproc;
use semimatch_core::online::{online_schedule, OnlineRule};
use semimatch_core::quality::{median_f64, ratio};
use semimatch_core::refine::refine;
use semimatch_gen::params::table1_grid;
use semimatch_gen::weights::WeightScheme;
use semimatch_graph::Hypergraph;

type Variant = (&'static str, fn(&Hypergraph) -> u64);

fn sgh_refined(h: &Hypergraph) -> u64 {
    let mut hm = sorted_greedy_hyp(h).unwrap();
    refine(h, &mut hm, 16).unwrap();
    hm.makespan(h)
}

fn main() {
    let opts = Options::from_args();
    let variants: Vec<Variant> = vec![
        ("BGH", |h| online_schedule(h, OnlineRule::MinBottleneck).unwrap().makespan(h)),
        ("SGH", |h| sorted_greedy_hyp(h).unwrap().makespan(h)),
        ("SGH-resulting", |h| sorted_greedy_hyp_resulting(h).unwrap().makespan(h)),
        ("VGH-resulting", |h| vector_greedy_hyp(h).unwrap().makespan(h)),
        ("VGH-pinwise", |h| vector_greedy_hyp_pinwise(h).unwrap().makespan(h)),
        ("SGH+refine", sgh_refined),
    ];
    let grid = table1_grid(WeightScheme::Related);
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut sums = vec![0.0f64; variants.len()];
    for cfg in &grid {
        let scaled = scale_config(*cfg, opts.scale);
        let per_instance: Vec<Vec<f64>> = (0..opts.instances)
            .into_par_iter()
            .map(|i| {
                let h = scaled.instance(opts.seed, i);
                let lb = lower_bound_multiproc(&h).unwrap();
                variants.iter().map(|(_, f)| ratio(f(&h), lb)).collect()
            })
            .collect();
        let medians: Vec<f64> = (0..variants.len())
            .map(|j| {
                let mut xs: Vec<f64> = per_instance.iter().map(|r| r[j]).collect();
                median_f64(&mut xs)
            })
            .collect();
        for (j, &m) in medians.iter().enumerate() {
            sums[j] += m;
        }
        let mut row = vec![row_name(&scaled, opts.scale)];
        row.extend(medians.iter().map(|x| format!("{x:.3}")));
        rows.push(row);
    }
    let mut avg = vec!["Average".to_string()];
    avg.extend(sums.iter().map(|s| format!("{:.3}", s / grid.len() as f64)));
    rows.push(avg);

    let mut headers: Vec<&str> = vec!["Instance"];
    headers.extend(variants.iter().map(|(n, _)| *n));
    let mut report = format!(
        "# Ablation — SGH/VGH design choices on related weights\n\nscale = {}, instances = {}, seed = {}\n\n",
        opts.scale, opts.instances, opts.seed
    );
    report.push_str(&markdown_table(&headers, &rows));
    report.push_str(
        "\nReading guide: `VGH-pinwise` ranks configurations by the current loads\n\
         of their processors (weight-blind, the paper's empirical VGH behaviour);\n\
         `VGH-resulting` includes the candidate's own weight. `SGH+refine` is the\n\
         local-search extension beyond the paper.\n",
    );
    emit_report("ablation_quality.md", &report);
}
