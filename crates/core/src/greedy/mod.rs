//! Greedy heuristics for `SINGLEPROC` (§IV-B, Algorithms 1–3).
//!
//! All four heuristics run in `O(|E|)` (plus a counting sort) and differ in
//! the visiting order of tasks and in the criterion that picks a processor:
//!
//! | heuristic | task order | criterion | tie-break |
//! |---|---|---|---|
//! | [`basic::basic_greedy`] | input order | min load | first (smallest id) |
//! | [`sorted::sorted_greedy`] | non-decreasing degree | min load | first |
//! | [`double_sorted::double_sorted`] | non-decreasing degree | min load | min processor in-degree (first on full tie) |
//! | [`expected::expected_greedy`] | non-decreasing degree | min *expected* load `o(u)` | first |
//!
//! The first three share one selection loop. Under a sum objective the
//! registry runs the same loops with the marginal cost `cost(l(u) + w(e)) −
//! cost(l(u))` (for expected-greedy: over `o(u)`) as the criterion, keeping
//! each heuristic's order and tie-break.
//!
//! The paper presents them for unit weights; the implementations accept
//! weighted instances by accumulating `w(e)` (they specialize to the
//! paper's pseudo-code when all weights are 1). [`lpt::lpt_greedy`] adds
//! the classical Graham LPT baseline for the weighted setting.

pub mod basic;
pub mod double_sorted;
pub mod expected;
pub mod lpt;
pub mod sorted;

use semimatch_graph::Bipartite;

use crate::error::{CoreError, Result};
use crate::objective::Objective;
use crate::problem::SemiMatching;

/// What a load-driven greedy minimizes when it places weight `w` on the
/// processors `pins`. Every selection loop scans its candidates in id order
/// and keeps the first one with the smallest key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Key {
    /// The current bottleneck `max_{u∈pins} l(u)`, blind to `w`: the
    /// paper's criterion (Algorithms 1, 2 and 4).
    Current,
    /// The resulting bottleneck `max_{u∈pins} l(u) + w`.
    Resulting,
    /// No criterion: the first candidate wins.
    FirstFit,
    /// The total marginal cost `Σ_{u∈pins} (cost(l(u) + w) − cost(l(u)))`
    /// under a sum objective.
    Marginal(Objective),
}

impl Key {
    /// `makespan` under [`Objective::Makespan`], the marginal cost under a
    /// sum objective.
    pub(crate) fn under(objective: Objective, makespan: Key) -> Key {
        if objective.is_bottleneck() {
            makespan
        } else {
            Key::Marginal(objective)
        }
    }

    /// The key of adding `w` to every processor of `pins` over `loads`.
    pub(crate) fn of(self, loads: &[u64], pins: &[u32], w: u64) -> u128 {
        let bottleneck = || u128::from(pins.iter().map(|&u| loads[u as usize]).max().unwrap_or(0));
        match self {
            Key::Current => bottleneck(),
            Key::Resulting => bottleneck() + u128::from(w),
            Key::FirstFit => 0,
            Key::Marginal(objective) => pins.iter().fold(0u128, |acc, &u| {
                acc.saturating_add(objective.marginal(loads[u as usize], w))
            }),
        }
    }
}

/// The tasks `0..n` ordered by non-decreasing `degree`; stable (ties keep
/// input order), via counting sort. Serves both problem classes.
pub(crate) fn tasks_by_degree(n: u32, degree: impl Fn(u32) -> u32) -> Vec<u32> {
    let max_deg = (0..n).map(&degree).max().unwrap_or(0) as usize;
    let mut count = vec![0usize; max_deg + 2];
    for t in 0..n {
        count[degree(t) as usize + 1] += 1;
    }
    for i in 0..max_deg + 1 {
        count[i + 1] += count[i];
    }
    let mut order = vec![0u32; n as usize];
    for t in 0..n {
        let d = degree(t) as usize;
        order[count[d]] = t;
        count[d] += 1;
    }
    order
}

/// The selection loop of basic-, sorted- and double-sorted greedy: visits
/// tasks along `order` and gives each the incident edge with the smallest
/// key — the current load under the makespan, the marginal cost under a
/// sum objective. Ties go to the processor of smallest in-degree when
/// `by_in_degree` (double-sorted), then to the first (smallest-id) edge.
pub(crate) fn greedy_in_order(
    g: &Bipartite,
    order: &[u32],
    objective: Objective,
    by_in_degree: bool,
) -> Result<SemiMatching> {
    let key = Key::under(objective, Key::Current);
    let mut loads = vec![0u64; g.n_right() as usize];
    let mut edge_of = vec![0u32; g.n_left() as usize];
    for &v in order {
        let e = g
            .edge_range(v)
            .min_by_key(|&e| {
                let u = g.edge_right(e);
                (key.of(&loads, &[u], g.weight(e)), if by_in_degree { g.deg_right(u) } else { 0 })
            })
            .ok_or(CoreError::UncoveredTask(v))?;
        edge_of[v as usize] = e;
        loads[g.edge_right(e) as usize] += g.weight(e);
    }
    Ok(SemiMatching { edge_of })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degree_order_is_stable() {
        let g =
            Bipartite::from_edges(4, 3, &[(0, 0), (0, 1), (1, 0), (2, 0), (2, 1), (2, 2), (3, 1)])
                .unwrap();
        // degrees: 2, 1, 3, 1 → order: 1, 3 (deg 1, input order), 0, 2.
        assert_eq!(tasks_by_degree(g.n_left(), |v| g.deg_left(v)), vec![1, 3, 0, 2]);
    }

    #[test]
    fn degree_order_handles_isolated() {
        let g = Bipartite::from_edges(3, 1, &[(1, 0)]).unwrap();
        assert_eq!(tasks_by_degree(g.n_left(), |v| g.deg_left(v)), vec![0, 2, 1]);
    }

    #[test]
    fn empty() {
        let g = Bipartite::from_edges(0, 0, &[]).unwrap();
        assert!(tasks_by_degree(g.n_left(), |v| g.deg_left(v)).is_empty());
    }
}
