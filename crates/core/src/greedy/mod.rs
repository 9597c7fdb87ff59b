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
//! An edge is a one-processor configuration ([`Configs`]), so each
//! heuristic is a one-line forwarder to a loop written once for both
//! classes: the first three to the current-load loop that also runs SGH
//! and the online dispatcher (double-sorted passes the processor
//! in-degree as its tie-break), expected-greedy to the expected-load loop
//! that also runs EGH (Algorithm 5 is Algorithm 3's forecast over
//! configurations). Under a sum objective the registry runs the same
//! loops with the marginal cost `cost(l(u) + w(e)) − cost(l(u))` (for
//! expected-greedy: over `o(u)`) as the criterion, keeping each
//! heuristic's order and tie-break.
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

use semimatch_graph::Configs;

use crate::error::{CoreError, Result};
use crate::objective::Objective;

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

/// The tasks of `g` ordered by non-decreasing degree; stable (ties keep
/// input order), via counting sort.
pub(crate) fn tasks_by_degree<G: Configs>(g: &G) -> Vec<u32> {
    let n = g.n_tasks();
    let max_deg = (0..n).map(|t| g.degree(t)).max().unwrap_or(0) as usize;
    let mut count = vec![0usize; max_deg + 2];
    for t in 0..n {
        count[g.degree(t) as usize + 1] += 1;
    }
    for i in 0..max_deg + 1 {
        count[i + 1] += count[i];
    }
    let mut order = vec![0u32; n as usize];
    for t in 0..n {
        let d = g.degree(t) as usize;
        order[count[d]] = t;
        count[d] += 1;
    }
    order
}

/// The current-load selection loop of basic-, sorted- and double-sorted
/// greedy, SGH, its resulting-load ablation and the online dispatcher:
/// visits tasks in id order, or by non-decreasing degree when `sorted`,
/// gives each the configuration with the smallest `(key, tie)` over the
/// current loads (equal pairs keep the lowest id), and charges its weight
/// to its processors. Returns the chosen configuration of each task.
pub(crate) fn current_load<G: Configs>(
    g: &G,
    sorted: bool,
    key: Key,
    tie: impl Fn(u32) -> u32,
) -> Result<Vec<u32>> {
    let order = if sorted { tasks_by_degree(g) } else { (0..g.n_tasks()).collect() };
    let mut loads = vec![0u64; g.n_procs() as usize];
    let mut chosen = vec![0u32; g.n_tasks() as usize];
    for t in order {
        let c = g
            .configs(t)
            .min_by_key(|&c| (key.of(&loads, g.pins(c), g.weight(c)), tie(c)))
            .ok_or(CoreError::UncoveredTask(t))?;
        chosen[t as usize] = c;
        let w = g.weight(c);
        for &u in g.pins(c) {
            loads[u as usize] += w;
        }
    }
    Ok(chosen)
}

#[cfg(test)]
mod tests {
    use semimatch_graph::Bipartite;

    use super::*;

    #[test]
    fn degree_order_is_stable() {
        let g =
            Bipartite::from_edges(4, 3, &[(0, 0), (0, 1), (1, 0), (2, 0), (2, 1), (2, 2), (3, 1)])
                .unwrap();
        // degrees: 2, 1, 3, 1 → order: 1, 3 (deg 1, input order), 0, 2.
        assert_eq!(tasks_by_degree(&g), vec![1, 3, 0, 2]);
    }

    #[test]
    fn degree_order_handles_isolated() {
        let g = Bipartite::from_edges(3, 1, &[(1, 0)]).unwrap();
        assert_eq!(tasks_by_degree(&g), vec![0, 2, 1]);
    }

    #[test]
    fn empty() {
        let g = Bipartite::from_edges(0, 0, &[]).unwrap();
        assert!(tasks_by_degree(&g).is_empty());
    }
}
