//! Algorithm 1: basic-greedy.

use semimatch_graph::Bipartite;

use crate::error::Result;
use crate::greedy::{current_load, Key};
use crate::problem::SemiMatching;

/// Basic-greedy (Algorithm 1): visit tasks in input order, assign each to
/// the incident processor with the smallest current load. `O(|E|)`.
///
/// The paper shows (Fig. 1, Fig. 3) that this heuristic has no
/// approximation guarantee.
pub fn basic_greedy(g: &Bipartite) -> Result<SemiMatching> {
    Ok(SemiMatching { edge_of: current_load(g, false, Key::Current, |_| 0)? })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CoreError;

    #[test]
    fn fig1_worst_case() {
        // T0 picks P0 (tie, smallest id); T1 is then forced onto P0 too:
        // makespan 2 while the optimum is 1 — the paper's Fig. 1 story.
        let g = Bipartite::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0)]).unwrap();
        let sm = basic_greedy(&g).unwrap();
        sm.validate(&g).unwrap();
        assert_eq!(sm.makespan(&g), 2);
    }

    #[test]
    fn balances_when_possible() {
        // 4 tasks all eligible everywhere on 2 processors → 2 + 2.
        let g = Bipartite::from_edges(
            4,
            2,
            &[(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1)],
        )
        .unwrap();
        let sm = basic_greedy(&g).unwrap();
        assert_eq!(sm.makespan(&g), 2);
        let loads = sm.loads(&g);
        assert_eq!(loads, vec![2, 2]);
    }

    #[test]
    fn uses_weights_in_loads() {
        let g = Bipartite::from_weighted_edges(
            2,
            2,
            &[(0, 0), (0, 1), (1, 0), (1, 1)],
            &[10, 10, 1, 1],
        )
        .unwrap();
        let sm = basic_greedy(&g).unwrap();
        // T0 → P0 (w 10); T1 then sees loads (10, 0) → P1 (w 1).
        assert_eq!(sm.loads(&g), vec![10, 1]);
    }

    #[test]
    fn uncovered_task_errors() {
        let g = Bipartite::from_edges(2, 1, &[(0, 0)]).unwrap();
        assert_eq!(basic_greedy(&g).unwrap_err(), CoreError::UncoveredTask(1));
    }

    #[test]
    fn empty_instance() {
        let g = Bipartite::from_edges(0, 3, &[]).unwrap();
        let sm = basic_greedy(&g).unwrap();
        assert_eq!(sm.makespan(&g), 0);
    }
}
