//! Sorted-greedy: Algorithm 1 with tasks visited by non-decreasing degree.

use semimatch_graph::Bipartite;

use crate::error::Result;
use crate::greedy::{current_load, Key};
use crate::problem::SemiMatching;

/// Sorted-greedy (§IV-B2): schedule the most constrained tasks (fewest
/// eligible processors) first, then proceed as basic-greedy. `O(|E|)`.
///
/// Fixes the paper's Fig. 1 example but still reaches makespan `k` on the
/// Fig. 3 family (see `semimatch-gen`'s `adversarial::fig3`).
pub fn sorted_greedy(g: &Bipartite) -> Result<SemiMatching> {
    Ok(SemiMatching { edge_of: current_load(g, true, Key::Current, |_| 0)? })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixes_fig1() {
        // T1 (degree 1) goes first → P0; T0 then takes P1: makespan 1.
        let g = Bipartite::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0)]).unwrap();
        let sm = sorted_greedy(&g).unwrap();
        sm.validate(&g).unwrap();
        assert_eq!(sm.makespan(&g), 1);
    }

    #[test]
    fn still_fooled_by_uniform_degrees() {
        // All degrees equal → order degenerates to input order and the
        // heuristic behaves exactly like basic-greedy.
        let g = Bipartite::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0), (1, 1)]).unwrap();
        let a = sorted_greedy(&g).unwrap();
        let b = crate::greedy::basic::basic_greedy(&g).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn weighted_instance() {
        let g = Bipartite::from_weighted_edges(
            3,
            2,
            &[(0, 0), (1, 0), (1, 1), (2, 0), (2, 1)],
            &[4, 3, 3, 2, 2],
        )
        .unwrap();
        let sm = sorted_greedy(&g).unwrap();
        sm.validate(&g).unwrap();
        // T0 (deg 1) → P0 (load 4); T1 → P1 (3); T2 → P1? loads (4,3) → P1
        // has smaller load → (4, 5). Makespan 5.
        assert_eq!(sm.makespan(&g), 5);
    }
}
