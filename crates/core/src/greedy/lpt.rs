//! LPT (longest processing time first) — the classical Graham baseline.
//!
//! The paper situates `SINGLEPROC` next to minimum-makespan scheduling on
//! identical machines (Graham et al. \[13]), whose standard heuristic is
//! LPT: place the longest tasks first, each on the machine where it
//! *finishes* earliest. This module implements LPT under resource
//! constraints as the natural weighted baseline the paper's greedy family
//! can be compared against:
//!
//! * tasks are visited by **non-increasing minimum execution time**
//!   (longest first — the opposite order of sorted-greedy's
//!   most-constrained-first);
//! * each task takes the eligible edge minimizing the *resulting* load
//!   `l(u) + w(e)` (unlike Algorithm 1, which minimizes the current load
//!   and is blind to per-edge weights).
//!
//! On instances with no restrictions (complete bipartite graphs) and one
//! weight per task this is exactly Graham's LPT with its
//! `4/3 − 1/(3p)` guarantee — pinned by a test below.

use semimatch_graph::Bipartite;

use crate::error::{CoreError, Result};
use crate::problem::SemiMatching;

/// LPT under resource constraints. `O(|E| + n log n)`.
pub fn lpt_greedy(g: &Bipartite) -> Result<SemiMatching> {
    // Task key: its fastest possible execution time.
    let mut order: Vec<u32> = (0..g.n_left()).collect();
    let mut key = vec![0u64; g.n_left() as usize];
    for v in 0..g.n_left() {
        key[v as usize] =
            g.edge_range(v).map(|e| g.weight(e)).min().ok_or(CoreError::UncoveredTask(v))?;
    }
    // Longest first; ties keep input order (stable).
    order.sort_by_key(|&v| std::cmp::Reverse(key[v as usize]));

    let mut loads = vec![0u64; g.n_right() as usize];
    let mut edge_of = vec![0u32; g.n_left() as usize];
    for v in order {
        // The earliest finish; the first candidate wins ties.
        let e = g
            .edge_range(v)
            .min_by_key(|&e| loads[g.edge_right(e) as usize] + g.weight(e))
            .expect("covered tasks have edges");
        edge_of[v as usize] = e;
        loads[g.edge_right(e) as usize] += g.weight(e);
    }
    Ok(SemiMatching { edge_of })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::brute_force::brute_force_singleproc;

    /// Builds an unrestricted (complete bipartite) instance with one
    /// weight per task — the identical-machines setting.
    fn identical_machines(weights: &[u64], p: u32) -> Bipartite {
        let mut edges = Vec::new();
        let mut ws = Vec::new();
        for (t, &w) in weights.iter().enumerate() {
            for u in 0..p {
                edges.push((t as u32, u));
                ws.push(w);
            }
        }
        Bipartite::from_weighted_edges(weights.len() as u32, p, &edges, &ws).unwrap()
    }

    #[test]
    fn graham_guarantee_on_identical_machines() {
        // Exhaustive-ish check of the 4/3 − 1/(3p) bound on small cases.
        let cases: Vec<(Vec<u64>, u32)> = vec![
            (vec![5, 5, 4, 4, 3, 3], 2),
            (vec![7, 6, 5, 4, 3, 2, 1], 3),
            (vec![9, 9, 9], 3),
            (vec![10, 1, 1, 1, 1, 1], 2),
            (vec![3, 3, 2, 2, 2], 2), // the classic LPT-tight family
        ];
        for (weights, p) in cases {
            let g = identical_machines(&weights, p);
            let lpt = lpt_greedy(&g).unwrap();
            lpt.validate(&g).unwrap();
            let (opt, _) = brute_force_singleproc(&g, 10_000_000).unwrap();
            let bound = (4.0 / 3.0 - 1.0 / (3.0 * p as f64)) * opt as f64 + 1e-9;
            let got = lpt.makespan(&g) as f64;
            assert!(got <= bound, "weights {weights:?}, p {p}: LPT {got} vs bound {bound}");
        }
    }

    #[test]
    fn weight_aware_where_basic_greedy_is_blind() {
        // T0 may run on P0 (cost 10) or P1 (cost 1); both empty. Basic-
        // greedy ties on current load and takes P0; LPT compares finish
        // times and takes P1.
        let g = Bipartite::from_weighted_edges(1, 2, &[(0, 0), (0, 1)], &[10, 1]).unwrap();
        assert_eq!(crate::greedy::basic::basic_greedy(&g).unwrap().makespan(&g), 10);
        assert_eq!(lpt_greedy(&g).unwrap().makespan(&g), 1);
    }

    #[test]
    fn respects_resource_constraints() {
        // The longest task is restricted to P0; LPT must not place it
        // elsewhere.
        let g =
            Bipartite::from_weighted_edges(3, 2, &[(0, 0), (1, 0), (1, 1), (2, 1)], &[9, 2, 2, 3])
                .unwrap();
        let sm = lpt_greedy(&g).unwrap();
        sm.validate(&g).unwrap();
        assert_eq!(sm.proc_of(&g, 0), 0);
        // Optimal here: T0→P0 (9), T1→P1, T2→P1 (5). LPT finds it.
        assert_eq!(sm.makespan(&g), 9);
    }

    #[test]
    fn unit_weights_degenerate_to_longest_is_everyone() {
        // With unit weights LPT order is input order and the criterion is
        // min resulting = min current + 1: identical decisions to
        // basic-greedy.
        let g =
            Bipartite::from_edges(4, 2, &[(0, 0), (0, 1), (1, 0), (2, 1), (3, 0), (3, 1)]).unwrap();
        let a = lpt_greedy(&g).unwrap();
        let b = crate::greedy::basic::basic_greedy(&g).unwrap();
        assert_eq!(a.makespan(&g), b.makespan(&g));
    }

    #[test]
    fn uncovered_task_errors() {
        let g = Bipartite::from_edges(2, 1, &[(0, 0)]).unwrap();
        assert_eq!(lpt_greedy(&g).unwrap_err(), CoreError::UncoveredTask(1));
    }
}
