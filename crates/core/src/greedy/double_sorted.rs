//! Algorithm 2: double-sorted greedy.

use semimatch_graph::Bipartite;

use crate::error::Result;
use crate::greedy::{current_load, Key};
use crate::problem::SemiMatching;

/// Double-sorted (Algorithm 2): like sorted-greedy, but among processors
/// of minimum load it prefers the one with the smallest in-degree `d_u`
/// (the least-contended processor). `O(|E|)`.
///
/// Tie-breaking note: the paper's pseudo-code tests `d_u ≤ min_d`, which
/// would let the *last* minimal candidate win full ties — but then the
/// §IV-B3 walk-through (double-sorted erring exactly like sorted-greedy
/// on the extended Fig. 3 instance, makespan 3) cannot be realized. The
/// narrative presumes first-candidate tie-breaking, so we test strictly
/// (`<`), keeping the first minimum; `benches/adversarial.rs` and the
/// `figures` binary confirm the §IV-B3 behaviour under this reading.
pub fn double_sorted(g: &Bipartite) -> Result<SemiMatching> {
    let edge_of = current_load(g, true, Key::Current, |e| g.deg_right(g.edge_right(e)))?;
    Ok(SemiMatching { edge_of })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CoreError;

    #[test]
    fn prefers_less_contended_processor() {
        // T0 may use P0 (in-degree 3) or P1 (in-degree 1); both empty.
        // Double-sorted picks P1, leaving P0 for the inflexible tasks.
        let g = Bipartite::from_edges(3, 2, &[(0, 0), (0, 1), (1, 0), (2, 0)]).unwrap();
        let sm = double_sorted(&g).unwrap();
        sm.validate(&g).unwrap();
        assert_eq!(sm.proc_of(&g, 0), 1);
        assert_eq!(sm.makespan(&g), 2); // T1, T2 share P0 — unavoidable
    }

    #[test]
    fn full_tie_takes_first_candidate() {
        // Two identical processors (same load, same in-degree): the first
        // minimum wins (see the tie-breaking note on `double_sorted`).
        let g = Bipartite::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0), (1, 1)]).unwrap();
        let sm = double_sorted(&g).unwrap();
        assert_eq!(sm.proc_of(&g, 0), 0);
        // T1 then takes the empty P1: optimal despite the blind spot.
        assert_eq!(sm.makespan(&g), 1);
    }

    #[test]
    fn fig1_still_optimal() {
        let g = Bipartite::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0)]).unwrap();
        assert_eq!(double_sorted(&g).unwrap().makespan(&g), 1);
    }

    #[test]
    fn uncovered_task_errors() {
        let g = Bipartite::from_edges(2, 1, &[(1, 0)]).unwrap();
        assert_eq!(double_sorted(&g).unwrap_err(), CoreError::UncoveredTask(0));
    }
}
