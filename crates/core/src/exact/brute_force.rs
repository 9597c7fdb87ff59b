//! Branch-and-bound exhaustive search — the ground truth for small
//! instances (weighted, hypergraph, anything).
//!
//! Tasks are assigned in order of fewest configurations first; the
//! incumbent starts from SGH so pruning bites immediately. A node budget
//! guards against accidental exponential blowups in tests.

use semimatch_graph::{Bipartite, Hypergraph};

use crate::error::{CoreError, Result};
use crate::greedy::{tasks_by_degree, Key};
use crate::hyper::sgh::{greedy_hyp, sorted_greedy_hyp};
use crate::objective::{Objective, Score};
use crate::problem::{HyperMatching, SemiMatching};

/// Exhaustive optimum of a `MULTIPROC` instance.
///
/// `budget` bounds the number of search nodes; exceeding it returns
/// [`CoreError::BudgetExceeded`]. A few million is fine for ≤ ~20 tasks
/// with a handful of configurations each.
pub fn brute_force_multiproc(h: &Hypergraph, budget: u64) -> Result<(u64, HyperMatching)> {
    for t in 0..h.n_tasks() {
        if h.deg_task(t) == 0 {
            return Err(CoreError::UncoveredTask(t));
        }
    }
    // Incumbent: SGH gives a feasible upper bound for pruning.
    let incumbent = sorted_greedy_hyp(h)?;
    let mut best_makespan = incumbent.makespan(h);
    let mut best = incumbent;
    if h.n_tasks() == 0 {
        return Ok((0, best));
    }

    let order = tasks_by_degree(h.n_tasks(), |t| h.deg_task(t));
    // Averaged-work bound: suffix_min_work[k] is the least total work the
    // tasks order[k..] can still add; together with the work already placed
    // it lower-bounds every completion's makespan by the residual Eq. 1.
    let min_work: Vec<u64> = (0..h.n_tasks())
        .map(|t| {
            h.hedges_of(t)
                .map(|hid| h.weight(hid) * h.hedge_size(hid) as u64)
                .min()
                .expect("covered")
        })
        .collect();
    let mut suffix_min_work = vec![0u64; order.len() + 1];
    for k in (0..order.len()).rev() {
        suffix_min_work[k] = suffix_min_work[k + 1] + min_work[order[k] as usize];
    }
    let p = h.n_procs().max(1) as u64;

    let mut loads = vec![0u64; h.n_procs() as usize];
    let mut chosen = vec![0u32; h.n_tasks() as usize];
    let mut nodes = 0u64;

    #[allow(clippy::too_many_arguments)]
    fn dfs(
        h: &Hypergraph,
        order: &[u32],
        suffix_min_work: &[u64],
        p: u64,
        depth: usize,
        placed_work: u64,
        loads: &mut [u64],
        chosen: &mut [u32],
        best_makespan: &mut u64,
        best: &mut HyperMatching,
        nodes: &mut u64,
        budget: u64,
    ) -> Result<()> {
        *nodes += 1;
        if *nodes > budget {
            return Err(CoreError::BudgetExceeded);
        }
        if depth == order.len() {
            let makespan = loads.iter().copied().max().unwrap_or(0);
            if makespan < *best_makespan {
                *best_makespan = makespan;
                best.hedge_of.copy_from_slice(chosen);
            }
            return Ok(());
        }
        let t = order[depth];
        for hid in h.hedges_of(t) {
            let w = h.weight(hid);
            let work = w * h.hedge_size(hid) as u64;
            // Bound 1: the partial makespan after this choice.
            let mut peak = 0u64;
            for &u in h.procs_of(hid) {
                peak = peak.max(loads[u as usize] + w);
            }
            // Bound 2: averaged residual work (residual Eq. 1).
            let avg = (placed_work + work + suffix_min_work[depth + 1]).div_ceil(p);
            if peak.max(avg) >= *best_makespan {
                continue; // cannot strictly improve
            }
            for &u in h.procs_of(hid) {
                loads[u as usize] += w;
            }
            chosen[t as usize] = hid;
            dfs(
                h,
                order,
                suffix_min_work,
                p,
                depth + 1,
                placed_work + work,
                loads,
                chosen,
                best_makespan,
                best,
                nodes,
                budget,
            )?;
            for &u in h.procs_of(hid) {
                loads[u as usize] -= w;
            }
        }
        Ok(())
    }

    dfs(
        h,
        &order,
        &suffix_min_work,
        p,
        0,
        0,
        &mut loads,
        &mut chosen,
        &mut best_makespan,
        &mut best,
        &mut nodes,
        budget,
    )?;
    Ok((best_makespan, best))
}

/// Exhaustive optimum of a `MULTIPROC` instance under an arbitrary
/// [`Objective`] — the ground truth the flow-time and `L_p` tests compare
/// against. [`Objective::Makespan`] delegates to [`brute_force_multiproc`]
/// (which carries the stronger averaged-work bound); sum-type objectives
/// run a branch-and-bound over the exact partial score, pruned by the
/// residual minimum work (each hyperedge's marginal cost is at least its
/// total work `w_h · |h ∩ V2|`, so the cheapest completion of the
/// remaining tasks costs at least their summed minimum works).
pub fn brute_force_multiproc_objective(
    h: &Hypergraph,
    budget: u64,
    objective: Objective,
) -> Result<(Score, HyperMatching)> {
    if objective.is_bottleneck() {
        let (m, hm) = brute_force_multiproc(h, budget)?;
        return Ok((Score(m as u128), hm));
    }
    for t in 0..h.n_tasks() {
        if h.deg_task(t) == 0 {
            return Err(CoreError::UncoveredTask(t));
        }
    }
    // Incumbent: the objective-aware greedy gives a feasible upper bound.
    let incumbent = greedy_hyp(h, true, Key::Marginal(objective))?;
    let mut best_score = incumbent.score(h, objective);
    let mut best = incumbent;
    if h.n_tasks() == 0 {
        return Ok((Score(0), best));
    }

    let order = tasks_by_degree(h.n_tasks(), |t| h.deg_task(t));
    let min_work: Vec<u128> = (0..h.n_tasks())
        .map(|t| {
            h.hedges_of(t)
                .map(|hid| h.weight(hid) as u128 * h.hedge_size(hid) as u128)
                .min()
                .expect("covered")
        })
        .collect();
    let mut suffix_min_work = vec![0u128; order.len() + 1];
    for k in (0..order.len()).rev() {
        suffix_min_work[k] = suffix_min_work[k + 1] + min_work[order[k] as usize];
    }

    let mut loads = vec![0u64; h.n_procs() as usize];
    let mut chosen = vec![0u32; h.n_tasks() as usize];
    let mut nodes = 0u64;

    #[allow(clippy::too_many_arguments)]
    fn dfs(
        h: &Hypergraph,
        objective: Objective,
        order: &[u32],
        suffix_min_work: &[u128],
        depth: usize,
        partial: u128,
        loads: &mut [u64],
        chosen: &mut [u32],
        best_score: &mut Score,
        best: &mut HyperMatching,
        nodes: &mut u64,
        budget: u64,
    ) -> Result<()> {
        *nodes += 1;
        if *nodes > budget {
            return Err(CoreError::BudgetExceeded);
        }
        if depth == order.len() {
            if Score(partial) < *best_score {
                *best_score = Score(partial);
                best.hedge_of.copy_from_slice(chosen);
            }
            return Ok(());
        }
        let t = order[depth];
        for hid in h.hedges_of(t) {
            let w = h.weight(hid);
            let delta = Key::Marginal(objective).of(loads, h.procs_of(hid), w);
            // Prune: exact partial score plus the residual work floor.
            let floor = partial.saturating_add(delta).saturating_add(suffix_min_work[depth + 1]);
            if Score(floor) >= *best_score {
                continue; // cannot strictly improve
            }
            for &u in h.procs_of(hid) {
                loads[u as usize] += w;
            }
            chosen[t as usize] = hid;
            dfs(
                h,
                objective,
                order,
                suffix_min_work,
                depth + 1,
                partial + delta,
                loads,
                chosen,
                best_score,
                best,
                nodes,
                budget,
            )?;
            for &u in h.procs_of(hid) {
                loads[u as usize] -= w;
            }
        }
        Ok(())
    }

    dfs(
        h,
        objective,
        &order,
        &suffix_min_work,
        0,
        0,
        &mut loads,
        &mut chosen,
        &mut best_score,
        &mut best,
        &mut nodes,
        budget,
    )?;
    Ok((best_score, best))
}

/// [`brute_force_multiproc_objective`] for `SINGLEPROC` instances, by
/// lifting every edge to a singleton configuration.
pub fn brute_force_singleproc_objective(
    g: &Bipartite,
    budget: u64,
    objective: Objective,
) -> Result<(Score, SemiMatching)> {
    let (score, hm) = brute_force_multiproc_objective(&lift(g), budget, objective)?;
    let sm = SemiMatching { edge_of: hm.hedge_of };
    debug_assert!(sm.validate(g).is_ok());
    Ok((score, sm))
}

/// Lifts a bipartite instance to singleton hyperedges; hyperedge ids
/// coincide with edge ids because both are grouped by task in insertion
/// order.
fn lift(g: &Bipartite) -> Hypergraph {
    let mut b =
        semimatch_graph::HypergraphBuilder::with_capacity(g.n_left(), g.n_right(), g.num_edges());
    for (_, v, u, w) in g.edges() {
        b.weighted_config(v, vec![u], w);
    }
    b.build().expect("lifting a valid graph is valid")
}

/// Exhaustive optimum of a `SINGLEPROC` instance (weighted allowed), by
/// lifting every edge to a singleton configuration.
pub fn brute_force_singleproc(g: &Bipartite, budget: u64) -> Result<(u64, SemiMatching)> {
    let (makespan, hm) = brute_force_multiproc(&lift(g), budget)?;
    let sm = SemiMatching { edge_of: hm.hedge_of };
    debug_assert!(sm.validate(g).is_ok());
    Ok((makespan, sm))
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

    #[test]
    fn uncovered_task_rejected() {
        let h = Hypergraph::from_hyperedges(2, 1, vec![(0, vec![0], 1)]).unwrap();
        assert_eq!(brute_force_multiproc(&h, 100).unwrap_err(), CoreError::UncoveredTask(1));
    }
}
