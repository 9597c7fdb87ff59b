//! Deadline queries: "can every task finish by time D?"
//!
//! For `SINGLEPROC-UNIT` instances the question is decidable in polynomial
//! time (one capacitated matching — the inner loop of the paper's exact
//! algorithm). For everything else it is NP-hard (Theorem 1 and Low 2006),
//! so the API answers with a three-valued verdict: a heuristic schedule
//! meeting D proves *yes*, the lower bound exceeding D proves *no*, and
//! otherwise the question remains open (callers can escalate to
//! `semimatch_core::exact::brute_force_multiproc` at small sizes).

use semimatch_core::error::Result;
use semimatch_core::hyper::evg::expected_vector_greedy_hyp;
use semimatch_core::lower_bound::lower_bound_multiproc;
use semimatch_core::refine::refine;
use semimatch_matching::capacitated::max_assignment;

use crate::convert::{to_bipartite, to_hypergraph};
use crate::model::Instance;
use crate::schedule::Schedule;

/// Outcome of a deadline query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeadlineVerdict {
    /// A schedule meeting the deadline exists (witness included).
    Feasible(Schedule),
    /// Provably no schedule meets the deadline.
    Infeasible,
    /// Heuristics found no witness and the bounds do not exclude one
    /// (possible for NP-hard variants; `exact` decides at small sizes).
    Unknown,
}

/// Decides (or bounds) whether `inst` can finish by `deadline`.
///
/// Decision procedure:
/// 1. `SINGLEPROC-UNIT` instances: exact capacitated-matching answer.
/// 2. Otherwise: *no* when the Eq. 1 lower bound exceeds the deadline;
///    *yes* when EVG (+ refinement) meets it; *unknown* otherwise.
pub fn meets_deadline(inst: &Instance, deadline: u64) -> Result<DeadlineVerdict> {
    let h = to_hypergraph(inst);
    // Exact fast path: unit sequential tasks.
    if inst.is_unit() && inst.is_singleproc() {
        if let Some(g) = to_bipartite(inst) {
            let d32 = deadline.min(u32::MAX as u64) as u32;
            if d32 == 0 {
                return Ok(if inst.n_tasks() == 0 {
                    DeadlineVerdict::Feasible(Schedule { choice: Vec::new() })
                } else {
                    DeadlineVerdict::Infeasible
                });
            }
            let a = max_assignment(&g, d32);
            if !a.is_complete() {
                return Ok(DeadlineVerdict::Infeasible);
            }
            // Translate processor choices back to configuration indices.
            let sm = semimatch_core::problem::SemiMatching::from_procs(&g, &a.task_to_proc)?;
            let hm = semimatch_core::problem::HyperMatching { hedge_of: sm.edge_of };
            return Ok(DeadlineVerdict::Feasible(Schedule::from_hyper_matching(&h, &hm)));
        }
    }
    // NP-hard territory: bound from below…
    let lb = lower_bound_multiproc(&h)?;
    if lb > deadline {
        return Ok(DeadlineVerdict::Infeasible);
    }
    // …and witness from above.
    let mut hm = expected_vector_greedy_hyp(&h)?;
    refine(&h, &mut hm, 16)?;
    if hm.makespan(&h) <= deadline {
        return Ok(DeadlineVerdict::Feasible(Schedule::from_hyper_matching(&h, &hm)));
    }
    Ok(DeadlineVerdict::Unknown)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_singleproc_is_decided_exactly() {
        // Fig. 1: optimum 1.
        let mut inst = Instance::new(2);
        inst.add_sequential_task("a", &[(0, 1), (1, 1)]);
        inst.add_sequential_task("b", &[(0, 1)]);
        match meets_deadline(&inst, 1).unwrap() {
            DeadlineVerdict::Feasible(s) => {
                s.validate(&inst).unwrap();
                assert!(s.makespan(&inst) <= 1);
            }
            other => panic!("expected feasible, got {other:?}"),
        }
        assert_eq!(meets_deadline(&inst, 0).unwrap(), DeadlineVerdict::Infeasible);
    }

    #[test]
    fn unit_singleproc_infeasible_below_optimum() {
        // 3 tasks on one processor: optimum 3.
        let mut inst = Instance::new(1);
        for i in 0..3 {
            inst.add_sequential_task(format!("t{i}"), &[(0, 1)]);
        }
        assert_eq!(meets_deadline(&inst, 2).unwrap(), DeadlineVerdict::Infeasible);
        assert!(matches!(meets_deadline(&inst, 3).unwrap(), DeadlineVerdict::Feasible(_)));
    }

    #[test]
    fn weighted_instance_uses_bounds() {
        let mut inst = Instance::new(2);
        let t = inst.add_task("wide");
        inst.add_config(t, vec![0, 1], 4);
        inst.add_config(t, vec![0], 6);
        // LB: cheapest work = min(4·2, 6·1) = 6 over 2 procs → 3; but a
        // single processor must carry ≥ 4 (cheapest per-proc time).
        assert_eq!(meets_deadline(&inst, 3).unwrap(), DeadlineVerdict::Infeasible);
        match meets_deadline(&inst, 4).unwrap() {
            DeadlineVerdict::Feasible(s) => assert_eq!(s.makespan(&inst), 4),
            other => panic!("expected feasible, got {other:?}"),
        }
    }

    #[test]
    fn empty_instance_meets_everything() {
        let inst = Instance::new(3);
        assert!(matches!(meets_deadline(&inst, 0).unwrap(), DeadlineVerdict::Feasible(_)));
    }

    #[test]
    fn witness_schedules_validate() {
        let mut inst = Instance::new(3);
        for i in 0..5 {
            let t = inst.add_task(format!("k{i}"));
            inst.add_config(t, vec![i % 3], 2);
            inst.add_config(t, vec![(i + 1) % 3, (i + 2) % 3], 1);
        }
        if let DeadlineVerdict::Feasible(s) = meets_deadline(&inst, 10).unwrap() {
            s.validate(&inst).unwrap();
            assert!(s.makespan(&inst) <= 10);
        } else {
            panic!("generous deadline must be met");
        }
    }
}
