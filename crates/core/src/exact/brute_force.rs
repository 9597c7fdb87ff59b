//! Branch-and-bound exhaustive search — the ground truth for small
//! instances (weighted, hypergraph, anything).
//!
//! Both searches are written once over [`Configs`], so they run on either
//! class directly: a bipartite edge is a one-processor configuration.
//! Tasks are assigned in order of fewest configurations first; the
//! incumbent starts from the current-load greedy (SGH, or sorted-greedy
//! on a bipartite instance) so pruning bites immediately. A node budget
//! guards against accidental exponential blowups in tests.

use semimatch_graph::{Bipartite, Configs, Hypergraph};

use crate::error::{CoreError, Result};
use crate::greedy::{current_load, tasks_by_degree, Key};
use crate::lower_bound::task_time;
use crate::objective::{Objective, Score};
use crate::problem::{loads_of, HyperMatching, SemiMatching};

/// Exhaustive optimum of a `MULTIPROC` instance.
///
/// `budget` bounds the number of search nodes; exceeding it returns
/// [`CoreError::BudgetExceeded`]. A few million is fine for ≤ ~20 tasks
/// with a handful of configurations each.
pub fn brute_force_multiproc(h: &Hypergraph, budget: u64) -> Result<(u64, HyperMatching)> {
    let (makespan, hedge_of) = brute_force(h, budget, Objective::Makespan)?;
    Ok((makespan.as_u64(), HyperMatching { hedge_of }))
}

/// Exhaustive optimum of a `SINGLEPROC` instance (weighted allowed).
pub fn brute_force_singleproc(g: &Bipartite, budget: u64) -> Result<(u64, SemiMatching)> {
    let (makespan, edge_of) = brute_force(g, budget, Objective::Makespan)?;
    Ok((makespan.as_u64(), SemiMatching { edge_of }))
}

/// Exhaustive optimum of a `MULTIPROC` instance under an arbitrary
/// [`Objective`] — the ground truth the flow-time and `L_p` tests compare
/// against. [`Objective::Makespan`] runs the makespan search of
/// [`brute_force_multiproc`] (which carries the stronger averaged-work
/// bound); sum-type objectives run a branch-and-bound over the exact
/// partial score, pruned by the residual minimum work.
pub fn brute_force_multiproc_objective(
    h: &Hypergraph,
    budget: u64,
    objective: Objective,
) -> Result<(Score, HyperMatching)> {
    let (score, hedge_of) = brute_force(h, budget, objective)?;
    Ok((score, HyperMatching { hedge_of }))
}

/// [`brute_force_multiproc_objective`] for `SINGLEPROC` instances.
pub fn brute_force_singleproc_objective(
    g: &Bipartite,
    budget: u64,
    objective: Objective,
) -> Result<(Score, SemiMatching)> {
    let (score, edge_of) = brute_force(g, budget, objective)?;
    Ok((score, SemiMatching { edge_of }))
}

/// The exhaustive optimum under `objective` and the chosen configuration
/// of each task. Under the makespan, a choice is pruned when the partial
/// makespan or the averaged residual work (residual Eq. 1) reaches the
/// incumbent; under a sum objective, when the exact partial score plus
/// the residual minimum work does.
pub(crate) fn brute_force<G: Configs>(
    g: &G,
    budget: u64,
    objective: Objective,
) -> Result<(Score, Vec<u32>)> {
    // Incumbent: the current-load greedy under the objective's key (SGH
    // under the makespan) gives a feasible upper bound for pruning. It
    // visits uncovered tasks first, so it reports the lowest one.
    let best = current_load(g, true, Key::under(objective, Key::Current), |_| 0)?;
    let best_score = objective.evaluate(&loads_of(g, &best)).0;
    if g.n_tasks() == 0 {
        return Ok((Score(best_score), best));
    }
    let order = tasks_by_degree(g);
    let mut suffix_min_work = vec![0u128; order.len() + 1];
    for k in (0..order.len()).rev() {
        suffix_min_work[k] = suffix_min_work[k + 1] + task_time(g, order[k])?;
    }
    let mut search = Search {
        g,
        order,
        suffix_min_work,
        loads: vec![0; g.n_procs() as usize],
        chosen: vec![0; g.n_tasks() as usize],
        best,
        best_score,
        nodes: 0,
        budget,
    };
    if objective.is_bottleneck() {
        search.makespan(0, 0)?;
    } else {
        search.objective(objective, 0, 0)?;
    }
    Ok((Score(search.best_score), search.best))
}

/// The depth-first search state of both strategies.
struct Search<'a, G> {
    g: &'a G,
    /// Tasks by non-decreasing degree: the assignment order.
    order: Vec<u32>,
    /// `suffix_min_work[k]` is the least total work `Σ time_t` the tasks
    /// `order[k..]` can still add.
    suffix_min_work: Vec<u128>,
    loads: Vec<u64>,
    chosen: Vec<u32>,
    /// The incumbent and its score.
    best: Vec<u32>,
    best_score: u128,
    nodes: u64,
    budget: u64,
}

impl<G: Configs> Search<'_, G> {
    /// Counts a search node against the budget.
    fn visit(&mut self) -> Result<()> {
        self.nodes += 1;
        if self.nodes > self.budget {
            return Err(CoreError::BudgetExceeded);
        }
        Ok(())
    }

    /// Keeps the complete assignment `chosen` if it scores below the
    /// incumbent.
    fn offer(&mut self, score: u128) {
        if score < self.best_score {
            self.best_score = score;
            self.best.copy_from_slice(&self.chosen);
        }
    }

    /// Adds (`add`) or removes configuration `c` of task `t`.
    fn place(&mut self, t: u32, c: u32, add: bool) {
        self.chosen[t as usize] = c;
        let w = self.g.weight(c);
        for &u in self.g.pins(c) {
            let load = &mut self.loads[u as usize];
            *load = if add { *load + w } else { *load - w };
        }
    }

    /// Makespan search from `depth`, with `placed_work` already placed.
    fn makespan(&mut self, depth: usize, placed_work: u128) -> Result<()> {
        self.visit()?;
        if depth == self.order.len() {
            self.offer(u128::from(self.loads.iter().copied().max().unwrap_or(0)));
            return Ok(());
        }
        let (g, t) = (self.g, self.order[depth]);
        let p = u128::from(g.n_procs().max(1));
        for c in g.configs(t) {
            let w = g.weight(c);
            let work = u128::from(w) * g.pins(c).len() as u128;
            // Bound 1: the partial makespan after this choice.
            let peak = g.pins(c).iter().map(|&u| self.loads[u as usize] + w).max().unwrap_or(0);
            // Bound 2: averaged residual work (residual Eq. 1).
            let avg = (placed_work + work + self.suffix_min_work[depth + 1]).div_ceil(p);
            if u128::from(peak).max(avg) >= self.best_score {
                continue; // cannot strictly improve
            }
            self.place(t, c, true);
            self.makespan(depth + 1, placed_work + work)?;
            self.place(t, c, false);
        }
        Ok(())
    }

    /// Sum-objective search from `depth`, with exact partial score
    /// `partial`: each configuration's marginal cost is at least its work
    /// `w_c · |c|`, so the remaining tasks add at least their minimum work.
    fn objective(&mut self, objective: Objective, depth: usize, partial: u128) -> Result<()> {
        self.visit()?;
        if depth == self.order.len() {
            self.offer(partial);
            return Ok(());
        }
        let (g, t) = (self.g, self.order[depth]);
        for c in g.configs(t) {
            let delta = Key::Marginal(objective).of(&self.loads, g.pins(c), g.weight(c));
            let floor =
                partial.saturating_add(delta).saturating_add(self.suffix_min_work[depth + 1]);
            if floor >= self.best_score {
                continue; // cannot strictly improve
            }
            self.place(t, c, true);
            self.objective(objective, depth + 1, partial + delta)?;
            self.place(t, c, false);
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::type_complexity)] // edge-list test fixtures
mod tests {
    use super::*;

    #[test]
    fn fig1_optimum() {
        let g = Bipartite::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0)]).unwrap();
        let (m, sm) = brute_force_singleproc(&g, 10_000).unwrap();
        assert_eq!(m, 1);
        sm.validate(&g).unwrap();
        assert_eq!(sm.makespan(&g), 1);
    }

    #[test]
    fn weighted_singleproc() {
        // T0: P0 w5 / P1 w3; T1: P0 w2. Optimum: T0→P1 (3), T1→P0 (2) → 3.
        let g =
            Bipartite::from_weighted_edges(2, 2, &[(0, 0), (0, 1), (1, 0)], &[5, 3, 2]).unwrap();
        let (m, _) = brute_force_singleproc(&g, 10_000).unwrap();
        assert_eq!(m, 3);
    }

    #[test]
    fn multiproc_parallel_configs() {
        // One task: {P0} w4 or {P0,P1} w3. Parallel loads both but max is 3.
        let h =
            Hypergraph::from_hyperedges(1, 2, vec![(0, vec![0], 4), (0, vec![0, 1], 3)]).unwrap();
        let (m, hm) = brute_force_multiproc(&h, 1000).unwrap();
        assert_eq!(m, 3);
        assert_eq!(hm.hedge_of[0], 1);
    }

    #[test]
    fn agrees_with_exact_unit_on_random_like_cases() {
        use crate::exact::unit::{exact_unit, SearchStrategy};
        let cases: Vec<(u32, u32, Vec<(u32, u32)>)> = vec![
            (4, 2, vec![(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0)]),
            (5, 3, vec![(0, 0), (1, 0), (2, 1), (3, 2), (4, 0), (4, 1), (0, 2)]),
        ];
        for (n1, n2, edges) in cases {
            let g = Bipartite::from_edges(n1, n2, &edges).unwrap();
            let (bf, _) = brute_force_singleproc(&g, 1_000_000).unwrap();
            let ex = exact_unit(&g, SearchStrategy::Incremental).unwrap();
            assert_eq!(bf, ex.makespan);
        }
    }

    #[test]
    fn heuristics_never_beat_brute_force() {
        let h = Hypergraph::from_hyperedges(
            4,
            3,
            vec![
                (0, vec![0, 1], 2),
                (0, vec![2], 3),
                (1, vec![0], 1),
                (1, vec![1, 2], 1),
                (2, vec![0, 1, 2], 1),
                (2, vec![1], 4),
                (3, vec![2], 2),
                (3, vec![0], 2),
            ],
        )
        .unwrap();
        let (opt, solution) = brute_force_multiproc(&h, 1_000_000).unwrap();
        solution.validate(&h).unwrap();
        let problem = crate::solver::Problem::MultiProc(&h);
        for kind in crate::solver::SolverKind::HYPER_HEURISTICS {
            let m = kind.solve(problem).unwrap().makespan(&problem).unwrap();
            assert!(m >= opt, "{}", kind.label());
        }
    }

    #[test]
    fn budget_exceeded_reported() {
        // A zero budget fails on the very first search node. (Non-trivial
        // budgets are hard to exceed deliberately: the averaged-work bound
        // often proves the greedy incumbent optimal at the root.)
        let mut hedges = Vec::new();
        for t in 0..10u32 {
            hedges.push((t, vec![0u32], 1u64));
            hedges.push((t, vec![1u32], 1u64));
        }
        let h = Hypergraph::from_hyperedges(10, 2, hedges).unwrap();
        assert_eq!(brute_force_multiproc(&h, 0).unwrap_err(), CoreError::BudgetExceeded);
    }

    #[test]
    fn averaged_bound_tames_balanced_instances() {
        // 2^18 leaves, but the averaged-work bound certifies the balanced
        // greedy incumbent immediately: the search stays tiny.
        let mut hedges = Vec::new();
        for t in 0..18u32 {
            hedges.push((t, vec![0u32], 1u64));
            hedges.push((t, vec![1u32], 1u64));
        }
        let h = Hypergraph::from_hyperedges(18, 2, hedges).unwrap();
        let (opt, _) = brute_force_multiproc(&h, 1_000).unwrap();
        assert_eq!(opt, 9);
    }

    /// Regression: the makespan search took `w_h · |h|` and its residual
    /// sums in `u64`, which overflowed (a debug panic, a weaker bound in
    /// release) although every processor load fits.
    #[test]
    fn makespan_search_work_is_exact_beyond_u64() {
        let all = vec![0, 1, 2, 3];
        let one = Hypergraph::from_hyperedges(1, 4, vec![(0, all.clone(), 1 << 63)]).unwrap();
        let four =
            Hypergraph::from_hyperedges(4, 4, (0..4).map(|t| (t, all.clone(), 1 << 61)).collect())
                .unwrap();
        for h in [one, four] {
            assert_eq!(brute_force_multiproc(&h, 1_000).unwrap().0, 1 << 63);
            let problem = crate::solver::Problem::MultiProc(&h);
            let sol = crate::solver::SolverKind::BruteForce.solve(problem).unwrap();
            assert_eq!(sol.makespan(&problem).unwrap(), 1 << 63);
        }
    }

    #[test]
    fn uncovered_task_rejected() {
        let h = Hypergraph::from_hyperedges(2, 1, vec![(0, vec![0], 1)]).unwrap();
        assert_eq!(brute_force_multiproc(&h, 100).unwrap_err(), CoreError::UncoveredTask(1));
    }
}
