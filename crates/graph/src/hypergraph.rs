//! Bipartite hypergraphs for the `MULTIPROC` problem.
//!
//! Following §II-B of the paper, a `MULTIPROC` instance is a hypergraph
//! `H = (V1 ∪ V2, N)` in which every hyperedge contains exactly one task
//! vertex from `V1` and one or more processor vertices from `V2`. The
//! hyperedges of a task are its possible *configurations*; a semi-matching
//! picks exactly one hyperedge per task.
//!
//! The structure is stored as two CSR maps: task → hyperedges and
//! hyperedge → processors ("pins"), plus the owner task of each hyperedge.

use crate::configs::Configs;
use crate::error::{check_load_bound, GraphError, Result};

/// A bipartite hypergraph with one weight per hyperedge.
///
/// Invariants (enforced by constructors):
/// * each hyperedge has exactly one owning task and ≥ 1 processors,
/// * pin lists are sorted and duplicate-free,
/// * all indices in range, all weights positive,
/// * the tasks' heaviest weights sum to at most `u64::MAX`, so no processor
///   load can wrap,
/// * the hyperedges of a task are contiguous in hyperedge-id order
///   (hyperedges are grouped by task).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hypergraph {
    n_tasks: u32,
    n_procs: u32,
    /// Task → hyperedge CSR: hyperedges of task `t` are the id range
    /// `task_ptr[t] .. task_ptr[t + 1]` (hyperedges are grouped by task).
    task_ptr: Vec<usize>,
    /// Hyperedge → processor CSR ("pins").
    hedge_ptr: Vec<usize>,
    pins: Vec<u32>,
    /// Owning task of each hyperedge.
    hedge_task: Vec<u32>,
    /// Execution time `w_h` of each hyperedge.
    weights: Vec<u64>,
}

impl Hypergraph {
    /// Builds a hypergraph from per-task configuration lists.
    ///
    /// `configs[t]` is the collection `S_t` of processor sets on which task
    /// `t` may run; all hyperedges get unit weight.
    pub fn from_configs(n_procs: u32, configs: &[Vec<Vec<u32>>]) -> Result<Self> {
        let mut flat: Vec<(u32, Vec<u32>, u64)> = Vec::new();
        for (t, sets) in configs.iter().enumerate() {
            for s in sets {
                flat.push((t as u32, s.clone(), 1));
            }
        }
        Self::from_hyperedges(configs.len() as u32, n_procs, flat)
    }

    /// Builds a hypergraph from `(task, processors, weight)` triples.
    ///
    /// Hyperedges may arrive in any order; they are grouped by task
    /// internally. Pin lists may be unsorted but must not repeat a processor.
    /// Zero weights and weights whose per-task maxima sum past `u64::MAX`
    /// are rejected.
    pub fn from_hyperedges(
        n_tasks: u32,
        n_procs: u32,
        mut hedges: Vec<(u32, Vec<u32>, u64)>,
    ) -> Result<Self> {
        for (i, (t, procs, w)) in hedges.iter().enumerate() {
            if *t >= n_tasks {
                return Err(GraphError::LeftOutOfRange { vertex: *t, n_left: n_tasks });
            }
            if procs.is_empty() {
                return Err(GraphError::EmptyHyperedge { task: *t });
            }
            for &p in procs {
                if p >= n_procs {
                    return Err(GraphError::RightOutOfRange { vertex: p, n_right: n_procs });
                }
            }
            if *w == 0 {
                return Err(GraphError::ZeroWeight { index: i });
            }
        }
        // Group hyperedges by owning task (stable, so a task's configuration
        // order is preserved).
        hedges.sort_by_key(|&(t, _, _)| t);
        let n_hedges = hedges.len();
        let mut task_ptr = vec![0usize; n_tasks as usize + 1];
        for &(t, _, _) in &hedges {
            task_ptr[t as usize + 1] += 1;
        }
        for i in 0..n_tasks as usize {
            task_ptr[i + 1] += task_ptr[i];
        }
        let mut hedge_ptr = Vec::with_capacity(n_hedges + 1);
        hedge_ptr.push(0usize);
        let total_pins: usize = hedges.iter().map(|(_, p, _)| p.len()).sum();
        let mut pins = Vec::with_capacity(total_pins);
        let mut hedge_task = Vec::with_capacity(n_hedges);
        let mut weights = Vec::with_capacity(n_hedges);
        for (h, (t, mut procs, w)) in hedges.into_iter().enumerate() {
            procs.sort_unstable();
            for k in 1..procs.len() {
                if procs[k - 1] == procs[k] {
                    return Err(GraphError::DuplicatePin { hedge: h as u32, proc: procs[k] });
                }
            }
            pins.extend_from_slice(&procs);
            hedge_ptr.push(pins.len());
            hedge_task.push(t);
            weights.push(w);
        }
        check_load_bound(&task_ptr, &weights)?;
        Ok(Hypergraph { n_tasks, n_procs, task_ptr, hedge_ptr, pins, hedge_task, weights })
    }

    /// Number of task vertices, `|V1|`.
    #[inline]
    pub fn n_tasks(&self) -> u32 {
        self.n_tasks
    }

    /// Number of processor vertices, `|V2|`.
    #[inline]
    pub fn n_procs(&self) -> u32 {
        self.n_procs
    }

    /// Number of hyperedges, `|N|`.
    #[inline]
    pub fn n_hedges(&self) -> u32 {
        self.hedge_task.len() as u32
    }

    /// Total number of pins, `Σ_h |h ∩ V2|` (last column of Table I).
    #[inline]
    pub fn total_pins(&self) -> usize {
        self.pins.len()
    }

    /// Hyperedge ids of task `t` (its configurations), contiguous.
    #[inline]
    pub fn hedges_of(&self, t: u32) -> std::ops::Range<u32> {
        self.task_ptr[t as usize] as u32..self.task_ptr[t as usize + 1] as u32
    }

    /// Out-degree `d_v` of task `t`: the number of its configurations.
    #[inline]
    pub fn deg_task(&self, t: u32) -> u32 {
        (self.task_ptr[t as usize + 1] - self.task_ptr[t as usize]) as u32
    }

    /// Processors of hyperedge `h`, sorted ascending.
    #[inline]
    pub fn procs_of(&self, h: u32) -> &[u32] {
        &self.pins[self.hedge_ptr[h as usize]..self.hedge_ptr[h as usize + 1]]
    }

    /// Size `s_h = |h ∩ V2|` of hyperedge `h`.
    #[inline]
    pub fn hedge_size(&self, h: u32) -> u32 {
        (self.hedge_ptr[h as usize + 1] - self.hedge_ptr[h as usize]) as u32
    }

    /// Owning task of hyperedge `h`.
    #[inline]
    pub fn task_of(&self, h: u32) -> u32 {
        self.hedge_task[h as usize]
    }

    /// Weight `w_h` of hyperedge `h`.
    #[inline]
    pub fn weight(&self, h: u32) -> u64 {
        self.weights[h as usize]
    }

    /// All hyperedge weights, indexed by hyperedge id.
    #[inline]
    pub fn weights(&self) -> &[u64] {
        &self.weights
    }

    /// True when every hyperedge weight is 1 (`MULTIPROC-UNIT`).
    pub fn is_unit(&self) -> bool {
        self.weights.iter().all(|&w| w == 1)
    }

    /// Replaces all hyperedge weights. Length, positivity and the load bound
    /// are validated.
    pub fn set_weights(&mut self, weights: Vec<u64>) -> Result<()> {
        if weights.len() != self.hedge_task.len() {
            return Err(GraphError::WeightLengthMismatch {
                expected: self.hedge_task.len(),
                got: weights.len(),
            });
        }
        if let Some(i) = weights.iter().position(|&w| w == 0) {
            return Err(GraphError::ZeroWeight { index: i });
        }
        check_load_bound(&self.task_ptr, &weights)?;
        self.weights = weights;
        Ok(())
    }

    /// Smallest and largest hyperedge sizes `(s_min, s_max)`, or `None` for a
    /// hypergraph without hyperedges. Used by the paper's *related* weight
    /// scheme `w_h = ⌈s_min · s_max / s_h⌉`.
    pub fn size_extrema(&self) -> Option<(u32, u32)> {
        if self.hedge_task.is_empty() {
            return None;
        }
        let mut lo = u32::MAX;
        let mut hi = 0;
        for h in 0..self.n_hedges() {
            let s = self.hedge_size(h);
            lo = lo.min(s);
            hi = hi.max(s);
        }
        Some((lo, hi))
    }

    /// Tasks with no configuration at all (they can never be scheduled).
    pub fn uncovered_tasks(&self) -> Vec<u32> {
        (0..self.n_tasks).filter(|&t| self.deg_task(t) == 0).collect()
    }

    /// Builds the processor → hyperedge transpose CSR on demand.
    ///
    /// Returns `(ptr, list)` where the hyperedges containing processor `p`
    /// are `list[ptr[p] .. ptr[p + 1]]`.
    pub fn build_proc_transpose(&self) -> (Vec<usize>, Vec<u32>) {
        let mut ptr = vec![0usize; self.n_procs as usize + 1];
        for &p in &self.pins {
            ptr[p as usize + 1] += 1;
        }
        for i in 0..self.n_procs as usize {
            ptr[i + 1] += ptr[i];
        }
        let mut list = vec![0u32; self.pins.len()];
        let mut cursor = ptr.clone();
        for h in 0..self.n_hedges() {
            for &p in self.procs_of(h) {
                list[cursor[p as usize]] = h;
                cursor[p as usize] += 1;
            }
        }
        (ptr, list)
    }

    /// Checks all structural invariants.
    pub fn validate(&self) -> Result<()> {
        if self.task_ptr.len() != self.n_tasks as usize + 1
            || self.hedge_ptr.len() != self.hedge_task.len() + 1
        {
            return Err(GraphError::Parse { line: 0, msg: "csr pointer length mismatch".into() });
        }
        if self.weights.len() != self.hedge_task.len() {
            return Err(GraphError::WeightLengthMismatch {
                expected: self.hedge_task.len(),
                got: self.weights.len(),
            });
        }
        for t in 0..self.n_tasks {
            for h in self.hedges_of(t) {
                if self.task_of(h) != t {
                    return Err(GraphError::Parse {
                        line: 0,
                        msg: format!("hyperedge {h} grouped under wrong task"),
                    });
                }
            }
        }
        for h in 0..self.n_hedges() {
            let ps = self.procs_of(h);
            if ps.is_empty() {
                return Err(GraphError::EmptyHyperedge { task: self.task_of(h) });
            }
            for (k, &p) in ps.iter().enumerate() {
                if p >= self.n_procs {
                    return Err(GraphError::RightOutOfRange { vertex: p, n_right: self.n_procs });
                }
                if k > 0 && ps[k - 1] >= p {
                    return Err(GraphError::DuplicatePin { hedge: h, proc: p });
                }
            }
            if self.weights[h as usize] == 0 {
                return Err(GraphError::ZeroWeight { index: h as usize });
            }
        }
        Ok(())
    }
}

impl Configs for Hypergraph {
    #[inline]
    fn n_tasks(&self) -> u32 {
        self.n_tasks
    }

    #[inline]
    fn n_procs(&self) -> u32 {
        self.n_procs
    }

    #[inline]
    fn configs(&self, t: u32) -> std::ops::Range<u32> {
        self.hedges_of(t)
    }

    #[inline]
    fn pins(&self, h: u32) -> &[u32] {
        self.procs_of(h)
    }

    #[inline]
    fn weight(&self, h: u32) -> u64 {
        self.weights[h as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig. 2 of the paper: T1 can run on {P1} or {P2,P3}; T2 on {P1,P2} or
    /// {P2} (an arbitrary two-config choice); T3 and T4 only on {P3}.
    pub(crate) fn fig2() -> Hypergraph {
        Hypergraph::from_configs(
            3,
            &[vec![vec![0], vec![1, 2]], vec![vec![0, 1], vec![1]], vec![vec![2]], vec![vec![2]]],
        )
        .unwrap()
    }

    #[test]
    fn fig2_structure() {
        let h = fig2();
        assert_eq!(h.n_tasks(), 4);
        assert_eq!(h.n_procs(), 3);
        assert_eq!(h.n_hedges(), 6);
        assert_eq!(h.total_pins(), 1 + 2 + 2 + 1 + 1 + 1);
        assert_eq!(h.deg_task(0), 2);
        assert_eq!(h.deg_task(2), 1);
        let hs: Vec<u32> = h.hedges_of(0).collect();
        assert_eq!(hs, vec![0, 1]);
        assert_eq!(h.procs_of(1), &[1, 2]);
        assert_eq!(h.task_of(1), 0);
        assert_eq!(h.hedge_size(1), 2);
        assert!(h.is_unit());
        h.validate().unwrap();
    }

    #[test]
    fn hyperedges_grouped_by_task_regardless_of_input_order() {
        let h = Hypergraph::from_hyperedges(
            3,
            4,
            vec![(2, vec![0], 1), (0, vec![1, 2], 5), (1, vec![3], 2), (0, vec![0], 3)],
        )
        .unwrap();
        // Task 0 owns the first two hyperedges, in original relative order.
        assert_eq!(h.hedges_of(0), 0..2);
        assert_eq!(h.procs_of(0), &[1, 2]);
        assert_eq!(h.weight(0), 5);
        assert_eq!(h.procs_of(1), &[0]);
        assert_eq!(h.weight(1), 3);
        assert_eq!(h.hedges_of(1), 2..3);
        assert_eq!(h.hedges_of(2), 3..4);
        h.validate().unwrap();
    }

    #[test]
    fn pins_sorted_and_duplicates_rejected() {
        let h = Hypergraph::from_hyperedges(1, 5, vec![(0, vec![4, 1, 3], 1)]).unwrap();
        assert_eq!(h.procs_of(0), &[1, 3, 4]);
        let err = Hypergraph::from_hyperedges(1, 5, vec![(0, vec![2, 2], 1)]).unwrap_err();
        assert!(matches!(err, GraphError::DuplicatePin { .. }));
    }

    #[test]
    fn empty_hyperedge_rejected() {
        let err = Hypergraph::from_hyperedges(1, 2, vec![(0, vec![], 1)]).unwrap_err();
        assert!(matches!(err, GraphError::EmptyHyperedge { task: 0 }));
    }

    #[test]
    fn out_of_range_rejected() {
        assert!(Hypergraph::from_hyperedges(1, 2, vec![(1, vec![0], 1)]).is_err());
        assert!(Hypergraph::from_hyperedges(1, 2, vec![(0, vec![2], 1)]).is_err());
    }

    #[test]
    fn zero_weight_rejected() {
        let err = Hypergraph::from_hyperedges(1, 2, vec![(0, vec![0], 0)]).unwrap_err();
        assert!(matches!(err, GraphError::ZeroWeight { .. }));
    }

    #[test]
    fn load_overflow_rejected() {
        let w = 1u64 << 63;
        let one_task = vec![(0, vec![0], w), (0, vec![0, 1], w)];
        let mut h = Hypergraph::from_hyperedges(2, 2, one_task).unwrap();
        let two_tasks = vec![(1, vec![0], w), (0, vec![0, 1], w)];
        let err = Hypergraph::from_hyperedges(2, 2, two_tasks).unwrap_err();
        assert!(matches!(err, GraphError::LoadOverflow { task: 1 }));
        assert!(h.set_weights(vec![w, w - 1]).is_ok());
        assert!(h.set_weights(vec![u64::MAX, 1]).is_ok());
    }

    #[test]
    fn size_extrema_and_related_weight_inputs() {
        let h = Hypergraph::from_hyperedges(
            2,
            6,
            vec![(0, vec![0], 1), (0, vec![1, 2, 3], 1), (1, vec![4, 5], 1)],
        )
        .unwrap();
        assert_eq!(h.size_extrema(), Some((1, 3)));
        let empty = Hypergraph::from_hyperedges(1, 1, vec![(0, vec![0], 1)]).unwrap();
        assert_eq!(empty.size_extrema(), Some((1, 1)));
    }

    #[test]
    fn uncovered_tasks_detected() {
        let h = Hypergraph::from_hyperedges(3, 2, vec![(0, vec![0], 1), (2, vec![1], 1)]).unwrap();
        assert_eq!(h.uncovered_tasks(), vec![1]);
    }

    #[test]
    fn proc_transpose_is_consistent() {
        let h = fig2();
        let (ptr, list) = h.build_proc_transpose();
        assert_eq!(*ptr.last().unwrap(), h.total_pins());
        for p in 0..h.n_procs() {
            for &hid in &list[ptr[p as usize]..ptr[p as usize + 1]] {
                assert!(h.procs_of(hid).contains(&p));
            }
        }
        // Every pin appears exactly once in the transpose.
        let mut count = 0;
        for p in 0..h.n_procs() {
            count += ptr[p as usize + 1] - ptr[p as usize];
        }
        assert_eq!(count, h.total_pins());
    }

    #[test]
    fn set_weights_validates() {
        let mut h = fig2();
        assert!(h.set_weights(vec![1; 5]).is_err());
        assert!(h.set_weights(vec![2; 6]).is_ok());
        assert!(!h.is_unit());
        assert_eq!(h.weight(3), 2);
    }
}
