//! Vector-greedy-hyp (VGH, §IV-D3).

use semimatch_graph::Hypergraph;

use crate::error::{CoreError, Result};
use crate::greedy::tasks_by_degree;
use crate::hyper::lex::{cmp_sorted_desc, full_sorted_vector, LexScratch};
use crate::problem::HyperMatching;

/// Vector-greedy-hyp: among a task's configurations, pick the one whose
/// *resulting global load vector*, sorted in descending order, is
/// lexicographically smallest — i.e. minimize the bottleneck, break ties
/// on the second-largest load, then the third, and so on.
///
/// This is the optimized sorted-list variant sketched at the end of
/// §IV-D3: candidates are compared through the multiset symmetric
/// difference of their touched loads ([`crate::hyper::lex`]), giving
/// `O(Σ_v Σ_{h∋v} |h| log |h|)` total instead of a `|V2| log |V2|` sort
/// per candidate.
pub fn vector_greedy_hyp(h: &Hypergraph) -> Result<HyperMatching> {
    let mut loads = vec![0u64; h.n_procs() as usize];
    let mut hedge_of = vec![0u32; h.n_tasks() as usize];
    let mut scratch = LexScratch::default();
    for v in tasks_by_degree(h) {
        let mut candidates = h.hedges_of(v);
        let mut best = candidates.next().ok_or(CoreError::UncoveredTask(v))?;
        for hid in candidates {
            let ord = scratch.cmp_candidates(
                &loads,
                h.procs_of(hid),
                h.weight(hid),
                h.procs_of(best),
                h.weight(best),
            );
            if ord == std::cmp::Ordering::Less {
                best = hid;
            }
        }
        hedge_of[v as usize] = best;
        let w = h.weight(best);
        for &u in h.procs_of(best) {
            loads[u as usize] += w;
        }
    }
    Ok(HyperMatching { hedge_of })
}

/// The *current-loads* reading of §IV-D3 (ablation variant).
///
/// The paper's prose is ambiguous between ranking candidates by the load
/// vector **after** tentatively adding the hyperedge (our
/// [`vector_greedy_hyp`]) and by the *current* loads of the candidate's
/// processors with deeper tie-breaking. The second reading ignores `w_h`
/// exactly like SGH does — which matches the paper's Table III finding
/// that "vector-greedy-hyp cannot improve upon sorted-greedy-hyp" on
/// weighted instances, whereas the resulting-vector reading is
/// weight-aware and beats SGH there (see EXPERIMENTS.md). This variant
/// ranks candidates by the descending-sorted multiset of the current
/// loads of their pins.
pub fn vector_greedy_hyp_pinwise(h: &Hypergraph) -> Result<HyperMatching> {
    let mut loads = vec![0u64; h.n_procs() as usize];
    let mut hedge_of = vec![0u32; h.n_tasks() as usize];
    let mut best_key: Vec<u64> = Vec::new();
    let mut cand_key: Vec<u64> = Vec::new();
    for v in tasks_by_degree(h) {
        let mut best: Option<u32> = None;
        for hid in h.hedges_of(v) {
            cand_key.clear();
            cand_key.extend(h.procs_of(hid).iter().map(|&u| loads[u as usize]));
            cand_key.sort_unstable_by(|a, b| b.cmp(a));
            let better = match best {
                None => true,
                Some(_) => cmp_sorted_desc(&cand_key, &best_key) == std::cmp::Ordering::Less,
            };
            if better {
                best = Some(hid);
                std::mem::swap(&mut best_key, &mut cand_key);
            }
        }
        let hid = best.ok_or(CoreError::UncoveredTask(v))?;
        hedge_of[v as usize] = hid;
        let w = h.weight(hid);
        for &u in h.procs_of(hid) {
            loads[u as usize] += w;
        }
    }
    Ok(HyperMatching { hedge_of })
}

/// Naive transcription of §IV-D3: materializes and sorts the full
/// resulting load vector for every candidate —
/// `O(Σ_v d_v |V2| log |V2|)`. Kept as the reference implementation (the
/// paper's own experiments use this form) and for the ablation bench.
pub fn vector_greedy_hyp_naive(h: &Hypergraph) -> Result<HyperMatching> {
    let mut loads = vec![0u64; h.n_procs() as usize];
    let mut hedge_of = vec![0u32; h.n_tasks() as usize];
    for v in tasks_by_degree(h) {
        let mut best: Option<(u32, Vec<u64>)> = None;
        for hid in h.hedges_of(v) {
            let vec = full_sorted_vector(&loads, h.procs_of(hid), h.weight(hid));
            let better = match &best {
                None => true,
                Some((_, cur)) => cmp_sorted_desc(&vec, cur) == std::cmp::Ordering::Less,
            };
            if better {
                best = Some((hid, vec));
            }
        }
        let (hid, _) = best.ok_or(CoreError::UncoveredTask(v))?;
        hedge_of[v as usize] = hid;
        let w = h.weight(hid);
        for &u in h.procs_of(hid) {
            loads[u as usize] += w;
        }
    }
    Ok(HyperMatching { hedge_of })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimized_equals_naive_on_handcrafted_cases() {
        let cases = vec![
            Hypergraph::from_hyperedges(
                3,
                3,
                vec![
                    (0, vec![0, 1], 2),
                    (0, vec![2], 3),
                    (1, vec![0], 1),
                    (1, vec![1, 2], 1),
                    (2, vec![0, 1, 2], 1),
                    (2, vec![1], 4),
                ],
            )
            .unwrap(),
            Hypergraph::from_hyperedges(
                2,
                4,
                vec![(0, vec![0, 1, 2, 3], 1), (0, vec![0], 2), (1, vec![1, 2], 3)],
            )
            .unwrap(),
        ];
        for h in cases {
            let a = vector_greedy_hyp(&h).unwrap();
            let b = vector_greedy_hyp_naive(&h).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn breaks_bottleneck_ties_on_second_largest() {
        // Both candidates give the same maximum (2) but different second
        // loads: {P0,P1} → [2,2,0] vs {P2} alone → [2,1,1]... construct:
        // loads start at (1, 1, 0); T0 may add 1 to {P0,P1} → (2,2,0)
        // or add 2 to {P2} → (1,1,2). Vectors: [2,2,0] vs [2,1,1] → second.
        let h = Hypergraph::from_hyperedges(
            3,
            3,
            vec![(0, vec![0], 1), (1, vec![1], 1), (2, vec![0, 1], 1), (2, vec![2], 2)],
        )
        .unwrap();
        let hm = vector_greedy_hyp(&h).unwrap();
        assert_eq!(hm.hedge_of[2], 3, "prefers [2,1,1] over [2,2,0]");
        assert_eq!(hm.loads(&h), vec![1, 1, 2]);
    }

    #[test]
    fn vgh_sees_weights_through_ties_where_sgh_is_blind() {
        // Both configurations touch empty processors, so SGH's criterion
        // (current load) ties and keeps the first, expensive one. VGH
        // compares the *resulting* vectors [2,0] vs [1,0] and picks the
        // cheap configuration — the §IV-D3 motivation.
        let h = Hypergraph::from_hyperedges(1, 2, vec![(0, vec![0], 2), (0, vec![1], 1)]).unwrap();
        let sgh = crate::hyper::sgh::sorted_greedy_hyp(&h).unwrap();
        assert_eq!(sgh.makespan(&h), 2);
        let vgh = vector_greedy_hyp(&h).unwrap();
        assert_eq!(vgh.makespan(&h), 1);
        let mut ls = sgh.loads(&h);
        let mut lv = vgh.loads(&h);
        ls.sort_unstable_by(|a, b| b.cmp(a));
        lv.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(cmp_sorted_desc(&lv, &ls), std::cmp::Ordering::Less);
    }

    #[test]
    fn uncovered_task_errors() {
        let h = Hypergraph::from_hyperedges(1, 1, vec![]).unwrap();
        assert!(matches!(vector_greedy_hyp(&h).unwrap_err(), CoreError::UncoveredTask(0)));
        assert!(matches!(vector_greedy_hyp_naive(&h).unwrap_err(), CoreError::UncoveredTask(0)));
        assert!(matches!(vector_greedy_hyp_pinwise(&h).unwrap_err(), CoreError::UncoveredTask(0)));
    }

    #[test]
    fn pinwise_variant_is_weight_blind_like_sgh() {
        // The instance from `vgh_sees_weights_through_ties…`: both
        // configurations touch empty processors. The pinwise reading ties
        // on current loads and keeps the expensive first configuration,
        // exactly like SGH; the resulting-vector reading picks the cheap
        // one.
        let h = Hypergraph::from_hyperedges(1, 2, vec![(0, vec![0], 2), (0, vec![1], 1)]).unwrap();
        let pinwise = vector_greedy_hyp_pinwise(&h).unwrap();
        assert_eq!(pinwise.makespan(&h), 2);
        let sgh = crate::hyper::sgh::sorted_greedy_hyp(&h).unwrap();
        assert_eq!(pinwise.hedge_of, sgh.hedge_of);
        assert_eq!(vector_greedy_hyp(&h).unwrap().makespan(&h), 1);
    }

    #[test]
    fn pinwise_breaks_ties_deeper_than_sgh() {
        // Current maxima tie (both candidates' bottleneck is 2), but the
        // pinwise second element differs: {P0,P1} has loads [2,0], {P2,P3}
        // has [2,2]. SGH ties and keeps the first; pinwise picks the
        // second... constructed the other way around so pinwise improves.
        let h = Hypergraph::from_hyperedges(
            3,
            4,
            vec![
                (0, vec![2], 2),
                (1, vec![0, 3], 2),
                (2, vec![2, 3], 1), // loads [2, 2] — SGH's pick (first)
                (2, vec![1, 2], 1), // loads [0, 2] — strictly better tail
            ],
        )
        .unwrap();
        let sgh = crate::hyper::sgh::sorted_greedy_hyp(&h).unwrap();
        assert_eq!(sgh.hedge_of[2], 2, "SGH keeps the first on a bottleneck tie");
        let pinwise = vector_greedy_hyp_pinwise(&h).unwrap();
        assert_eq!(pinwise.hedge_of[2], 3, "pinwise sees the second-largest load");
    }
}
