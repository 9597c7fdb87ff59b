//! Expected-vector-greedy-hyp (EVG, §IV-D4).

use semimatch_graph::Hypergraph;

use crate::error::{CoreError, Result};
use crate::greedy::expected::expected_loads;
use crate::greedy::tasks_by_degree;
use crate::hyper::lex::cmp_sorted_desc;
use crate::problem::HyperMatching;

/// Expected-vector-greedy-hyp: combines the expected loads of EGH with the
/// lexicographic vector criterion of VGH.
///
/// For each candidate hyperedge `h` of task `v`, `h` is *tentatively
/// realized* (its processors receive the full `w_h`) while all of `v`'s
/// other configurations are *tentatively discarded* (their `w_{h'}/d_v`
/// shares are withdrawn); candidates are ranked by the resulting expected
/// load vector, sorted descending, compared lexicographically.
///
/// Every candidate touches the same processor set — the union `U` of the
/// pins of `v`'s configurations — so the comparison only needs the values
/// on `U`: cost `O(d_v Σ_{h∋v} |h| log)` per task, the complexity the
/// paper quotes for the list-based variant.
pub fn expected_vector_greedy_hyp(h: &Hypergraph) -> Result<HyperMatching> {
    let mut o = expected_loads(h);
    let mut hedge_of = vec![0u32; h.n_tasks() as usize];
    // Scratch buffers reused across tasks.
    let mut union: Vec<u32> = Vec::new();
    let mut stripped: Vec<f64> = Vec::new();
    let mut cand_vec: Vec<f64> = Vec::new();
    let mut best_vec: Vec<f64> = Vec::new();

    for v in tasks_by_degree(h) {
        if h.deg_task(v) == 0 {
            return Err(CoreError::UncoveredTask(v));
        }
        let dv = h.deg_task(v) as f64;
        // U = union of pins over v's configurations.
        union.clear();
        for hid in h.hedges_of(v) {
            union.extend_from_slice(h.procs_of(hid));
        }
        union.sort_unstable();
        union.dedup();
        // stripped(u) = o(u) with all of v's own shares withdrawn — the
        // common part of every candidate's tentative vector.
        stripped.clear();
        stripped.extend(union.iter().map(|&u| o[u as usize]));
        for hid in h.hedges_of(v) {
            let share = h.weight(hid) as f64 / dv;
            for &u in h.procs_of(hid) {
                let k = union.binary_search(&u).expect("pin is in the union");
                stripped[k] -= share;
            }
        }
        // Rank candidates by their tentative vector over U.
        let mut best: Option<u32> = None;
        for hid in h.hedges_of(v) {
            cand_vec.clear();
            cand_vec.extend_from_slice(&stripped);
            let w = h.weight(hid) as f64;
            for &u in h.procs_of(hid) {
                let k = union.binary_search(&u).expect("pin is in the union");
                cand_vec[k] += w;
            }
            cand_vec.sort_unstable_by(|a, b| b.total_cmp(a));
            let better = match best {
                None => true,
                Some(_) => cmp_sorted_desc(&cand_vec, &best_vec) == std::cmp::Ordering::Less,
            };
            if better {
                best = Some(hid);
                std::mem::swap(&mut best_vec, &mut cand_vec);
            }
        }
        let hid = best.expect("task has at least one configuration");
        hedge_of[v as usize] = hid;
        // Commit: withdraw all shares, realize the chosen hyperedge.
        for other in h.hedges_of(v) {
            let share = h.weight(other) as f64 / dv;
            for &u in h.procs_of(other) {
                o[u as usize] -= share;
            }
        }
        let w = h.weight(hid) as f64;
        for &u in h.procs_of(hid) {
            o[u as usize] += w;
        }
    }
    Ok(HyperMatching { hedge_of })
}

/// Naive reference: materializes the full tentative `o`-vector (length
/// `|V2|`) per candidate. `O(Σ_v d_v |V2| log |V2|)`.
pub fn expected_vector_greedy_hyp_naive(h: &Hypergraph) -> Result<HyperMatching> {
    let mut o = expected_loads(h);
    let mut hedge_of = vec![0u32; h.n_tasks() as usize];
    for v in tasks_by_degree(h) {
        if h.deg_task(v) == 0 {
            return Err(CoreError::UncoveredTask(v));
        }
        let dv = h.deg_task(v) as f64;
        // Strip v's shares once (identical arithmetic to the optimized
        // variant so results are bit-equal).
        let mut stripped = o.clone();
        for hid in h.hedges_of(v) {
            let share = h.weight(hid) as f64 / dv;
            for &u in h.procs_of(hid) {
                stripped[u as usize] -= share;
            }
        }
        let mut best: Option<(u32, Vec<f64>)> = None;
        for hid in h.hedges_of(v) {
            let mut tentative = stripped.clone();
            let w = h.weight(hid) as f64;
            for &u in h.procs_of(hid) {
                tentative[u as usize] += w;
            }
            tentative.sort_unstable_by(|a, b| b.total_cmp(a));
            let better = match &best {
                None => true,
                Some((_, cur)) => cmp_sorted_desc(&tentative, cur) == std::cmp::Ordering::Less,
            };
            if better {
                best = Some((hid, tentative));
            }
        }
        let (hid, _) = best.expect("non-empty");
        hedge_of[v as usize] = hid;
        for other in h.hedges_of(v) {
            let share = h.weight(other) as f64 / dv;
            for &u in h.procs_of(other) {
                o[u as usize] -= share;
            }
        }
        let w = h.weight(hid) as f64;
        for &u in h.procs_of(hid) {
            o[u as usize] += w;
        }
    }
    Ok(HyperMatching { hedge_of })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimized_equals_naive() {
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
                4,
                4,
                vec![
                    (0, vec![0, 1], 1),
                    (0, vec![2, 3], 1),
                    (1, vec![0], 2),
                    (1, vec![3], 2),
                    (2, vec![1, 2], 3),
                    (3, vec![0, 1, 2, 3], 1),
                    (3, vec![2], 5),
                ],
            )
            .unwrap(),
        ];
        for h in cases {
            let a = expected_vector_greedy_hyp(&h).unwrap();
            let b = expected_vector_greedy_hyp_naive(&h).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn anticipates_like_egh_but_breaks_ties_like_vgh() {
        // Inflexible heavy tasks want P0; the flexible task should avoid
        // it even though current loads tie.
        let h = Hypergraph::from_hyperedges(
            3,
            2,
            vec![(0, vec![0], 2), (1, vec![0], 2), (2, vec![0], 1), (2, vec![1], 1)],
        )
        .unwrap();
        let hm = expected_vector_greedy_hyp(&h).unwrap();
        assert_eq!(hm.hedge_of[2], 3);
        assert_eq!(hm.makespan(&h), 4);
    }

    #[test]
    fn valid_on_parallel_configurations() {
        let h = Hypergraph::from_hyperedges(
            2,
            3,
            vec![(0, vec![0, 1], 1), (0, vec![2], 2), (1, vec![1, 2], 1)],
        )
        .unwrap();
        let hm = expected_vector_greedy_hyp(&h).unwrap();
        hm.validate(&h).unwrap();
    }

    #[test]
    fn uncovered_task_errors() {
        let h = Hypergraph::from_hyperedges(1, 1, vec![]).unwrap();
        assert!(matches!(expected_vector_greedy_hyp(&h).unwrap_err(), CoreError::UncoveredTask(0)));
    }
}
