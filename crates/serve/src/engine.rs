//! The incremental serving engine.
//!
//! [`Engine`] ingests [`Event`]s, maintains a live task→configuration
//! assignment with per-processor loads, and repairs solution quality
//! incrementally instead of re-solving the instance per event:
//!
//! * **unit / single-processor traces** (every live configuration a unit
//!   weight singleton — the `SINGLEPROC-UNIT` shape): augmenting-path
//!   repair. Repair returns at once when the live loads already meet the
//!   paper's Eq. 1 bound `⌈n/p⌉`. Otherwise each round runs one BFS over
//!   the "task may relocate" relation, seeded with every bottleneck
//!   processor, and shifts one unit along the first path it finds to a
//!   processor two units lighter. A search that finds no path proves the
//!   makespan optimal (the argument in `matching::semi`'s module doc), so
//!   eager repair keeps the engine's bottleneck equal to a from-scratch
//!   exact solve at all times. The processor→task index the searches
//!   walk stays resident between repairs.
//! * **hypergraph / weighted traces**: greedy re-placement plus a bounded
//!   `refine`-style local search (up to [`LOCAL_PASSES`] first-improvement
//!   sweeps over every live task, each re-placed on the configuration the
//!   engine's objective prefers). The `lazy:SLACK` policy is the
//!   speed/quality dial for this repair.
//!
//! Full from-scratch resolves (the periodic policy) go through a resident
//! [`KindSolver`] so the workspace warm path of the solver registry is
//! reused across resolves.

use semimatch_core::objective::{balanced_score, Objective, Score};
use semimatch_core::problem::HyperMatching;
use semimatch_core::solver::{KindSolver, Problem, Solution, Solver, SolverClass};
use semimatch_gen::trace::{Event, Trace};
use semimatch_graph::{Bipartite, Hypergraph};

use semimatch_obs as obs;

use crate::error::{Result, ServeError};
use crate::policy::{Counters, EngineConfig, RepairPolicy};

/// Local-search sweeps per repair invocation (hypergraph repair).
pub const LOCAL_PASSES: u32 = 4;

/// One configuration of a live task.
#[derive(Clone, Debug)]
struct ConfigState {
    /// Sorted, duplicate-free processor set.
    pins: Vec<u32>,
    weight: u64,
}

/// A live task: its configurations and the index of the chosen one.
///
/// Invariant: the chosen configuration's pins are all live (drops re-place
/// affected tasks before completing).
#[derive(Clone, Debug)]
struct TaskState {
    configs: Vec<ConfigState>,
    chosen: u32,
}

/// The cheapest weight among a task's configurations: its unavoidable
/// contribution to total work under *any* assignment.
fn min_config_weight(configs: &[ConfigState]) -> u128 {
    configs.iter().map(|c| c.weight).min().unwrap_or(0) as u128
}

fn max_config_weight(configs: &[ConfigState]) -> u128 {
    configs.iter().map(|c| c.weight).max().unwrap_or(0) as u128
}

#[derive(Clone, Copy, Debug, Default)]
struct ProcSlot {
    live: bool,
    load: u64,
}

/// Stamped scratch for the augmenting-path repair, resident in the engine
/// (the same allocate-once idiom as `SearchWorkspace`).
#[derive(Clone, Debug, Default)]
struct RepairScratch {
    /// Stamped visited marks per processor (`u32::MAX` = never).
    visited: Vec<u32>,
    stamp: u32,
    /// BFS tree: the task moved into this processor, the processor it
    /// moves from and the configuration index the move uses. A search's
    /// sources are their own `pred_proc`.
    pred_task: Vec<u32>,
    pred_proc: Vec<u32>,
    pred_cfg: Vec<u32>,
    queue: Vec<u32>,
    /// Processor → live tasks whose chosen configuration starts on it,
    /// valid while `indexed`. The first exact repair builds it; arrivals,
    /// departures and shifts keep it current; processor drops, local-search
    /// sweeps and resolves drop it, and the next exact repair rebuilds it
    /// (the lists keep their capacity).
    assigned: Vec<Vec<u32>>,
    indexed: bool,
}

impl RepairScratch {
    /// Lists `task` on `proc`, if the index is built.
    fn list(&mut self, proc: u32, task: u32) {
        if self.indexed {
            self.assigned[proc as usize].push(task);
        }
    }

    /// Takes `task` off `proc`'s list, if the index is built.
    fn unlist(&mut self, proc: u32, task: u32) {
        if self.indexed {
            let list = &mut self.assigned[proc as usize];
            let pos = list.iter().position(|&x| x == task).expect("task listed on its processor");
            list.swap_remove(pos);
        }
    }

    /// One BFS over "a task on `x` may move to `v`" edges, seeded with
    /// every processor in `sources`. Records the BFS tree and returns the
    /// first live processor it reaches whose load is at most `target`.
    fn search(
        &mut self,
        procs: &[ProcSlot],
        tasks: &[Option<TaskState>],
        sources: impl IntoIterator<Item = u32>,
        target: u64,
    ) -> Option<u32> {
        let stamp = self.next_stamp(procs.len());
        self.queue.clear();
        for s in sources {
            self.visited[s as usize] = stamp;
            self.pred_proc[s as usize] = s;
            self.queue.push(s);
        }
        let mut head = 0;
        while head < self.queue.len() {
            let x = self.queue[head];
            head += 1;
            for &t in &self.assigned[x as usize] {
                let state = tasks[t as usize].as_ref().expect("indexed task is live");
                for (ci, c) in state.configs.iter().enumerate() {
                    let v = c.pins[0];
                    if !procs[v as usize].live || self.visited[v as usize] == stamp {
                        continue;
                    }
                    self.visited[v as usize] = stamp;
                    self.pred_task[v as usize] = t;
                    self.pred_proc[v as usize] = x;
                    self.pred_cfg[v as usize] = ci as u32;
                    if procs[v as usize].load <= target {
                        return Some(v);
                    }
                    self.queue.push(v);
                }
            }
        }
        None
    }

    fn next_stamp(&mut self, n_procs: usize) -> u32 {
        if self.visited.len() < n_procs {
            self.visited.resize(n_procs, u32::MAX);
            self.pred_task.resize(n_procs, 0);
            self.pred_proc.resize(n_procs, 0);
            self.pred_cfg.resize(n_procs, 0);
        }
        if self.stamp >= u32::MAX - 1 {
            self.visited.iter_mut().for_each(|m| *m = u32::MAX);
            self.stamp = 0;
        }
        self.stamp += 1;
        self.stamp
    }
}

/// A compacted view of the live instance: the hypergraph over live tasks
/// and processors (live configurations only), the engine's current
/// assignment on it, and the id maps back to trace ids.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// The live instance (compacted ids, fully-live configurations only).
    pub hypergraph: Hypergraph,
    /// The engine's current assignment over [`Snapshot::hypergraph`].
    pub matching: HyperMatching,
    /// Original trace id of each compacted task.
    pub task_ids: Vec<u32>,
    /// Original trace id of each compacted processor.
    pub proc_ids: Vec<u32>,
    /// Per compacted task: original configuration index of each of its
    /// hyperedges, in hyperedge order.
    pub live_configs: Vec<Vec<u32>>,
}

impl Snapshot {
    /// The live instance as a weighted bipartite (`SINGLEPROC`) graph, if
    /// every live configuration is a singleton. Parallel `(task, proc)`
    /// configurations collapse to their lightest weight.
    pub fn to_bipartite(&self) -> Option<Bipartite> {
        let h = &self.hypergraph;
        let mut edges = Vec::with_capacity(h.n_hedges() as usize);
        let mut weights = Vec::with_capacity(h.n_hedges() as usize);
        for t in 0..h.n_tasks() {
            // Collapse parallel configurations (same singleton processor)
            // to the lightest weight; `procs_of` singletons keep id order.
            let mut seen: Vec<(u32, u64)> = Vec::new();
            for hid in h.hedges_of(t) {
                let pins = h.procs_of(hid);
                if pins.len() != 1 {
                    return None;
                }
                match seen.iter_mut().find(|(p, _)| *p == pins[0]) {
                    Some((_, w)) => *w = (*w).min(h.weight(hid)),
                    None => seen.push((pins[0], h.weight(hid))),
                }
            }
            for (p, w) in seen {
                edges.push((t, p));
                weights.push(w);
            }
        }
        Some(
            Bipartite::from_weighted_edges(h.n_tasks(), h.n_procs(), &edges, &weights)
                .expect("snapshot invariants satisfy the bipartite constructor"),
        )
    }
}

/// The event-driven incremental semi-matching engine.
///
/// ```
/// use semimatch_gen::trace::Event;
/// use semimatch_serve::{Engine, EngineConfig};
///
/// let mut engine = Engine::new(EngineConfig::default(), 2).unwrap();
/// // T0 prefers the light {P1} w1 config on arrival…
/// engine.apply(&Event::Arrive { task: 0, configs: vec![(vec![0], 2), (vec![1], 1)] }).unwrap();
/// // …but when T1 (P1-only, w2) lands, eager repair moves T0 to P0.
/// engine.apply(&Event::Arrive { task: 1, configs: vec![(vec![1], 2)] }).unwrap();
/// assert_eq!(engine.bottleneck(), 2);
/// engine.apply(&Event::Depart { task: 1 }).unwrap();
/// assert_eq!(engine.bottleneck(), 1); // repair drifts T0 back to {P1}
/// ```
#[derive(Debug)]
pub struct Engine {
    cfg: EngineConfig,
    procs: Vec<ProcSlot>,
    n_live_procs: usize,
    tasks: Vec<Option<TaskState>>,
    n_live_tasks: usize,
    /// Live configurations (over live tasks) with more than one pin.
    wide_configs: usize,
    /// Live configurations (over live tasks) with weight ≠ 1.
    nonunit_configs: usize,
    counters: Counters,
    /// Σ over live tasks of their cheapest configuration weight: the work
    /// any assignment must place somewhere, maintained incrementally so
    /// [`Engine::lower_bound_estimate`] is O(1).
    min_weight_sum: u128,
    /// Σ over live tasks of their heaviest configuration weight. No task
    /// adds more than its heaviest weight to a processor, so every load is
    /// at most this sum; arrivals and reweights that would push it past
    /// `u64::MAX` are rejected, so no load arithmetic can wrap.
    max_weight_sum: u128,
    events_since_resolve: u32,
    /// Objective score right after the last repair/resolve (lazy
    /// threshold, in the configured objective's units).
    baseline: Score,
    /// Resident warm-workspace solver for from-scratch resolves, boxed:
    /// its workspace is large and rarely touched, so the engine's hot
    /// fields keep their offsets whatever the workspace holds.
    resolver: Box<KindSolver>,
    /// Task→processor seed handed to the resolver before each bipartite
    /// resolve (the live assignment, compacted ids); persists so seeding
    /// allocates nothing once warm.
    seed_buf: Vec<u32>,
    scratch: RepairScratch,
}

impl Engine {
    /// An engine over the initial pool `0..n_procs`, validated config.
    pub fn new(cfg: EngineConfig, n_procs: u32) -> Result<Engine> {
        if let RepairPolicy::Periodic { every: 0 } = cfg.policy {
            return Err(ServeError::Config { msg: "resolve period must be at least 1" });
        }
        Ok(Engine {
            cfg,
            procs: vec![ProcSlot { live: true, load: 0 }; n_procs as usize],
            n_live_procs: n_procs as usize,
            tasks: Vec::new(),
            n_live_tasks: 0,
            wide_configs: 0,
            nonunit_configs: 0,
            counters: Counters::default(),
            min_weight_sum: 0,
            max_weight_sum: 0,
            events_since_resolve: 0,
            baseline: Score(0),
            resolver: Box::new(cfg.resolve_kind.solver()),
            seed_buf: Vec::new(),
            scratch: RepairScratch::default(),
        })
    }

    /// Builds an engine and replays the whole trace through it.
    pub fn replay(cfg: EngineConfig, trace: &Trace) -> Result<Engine> {
        let mut engine = Engine::new(cfg, trace.n_procs)?;
        for ev in &trace.events {
            engine.apply(ev)?;
        }
        Ok(engine)
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Live tasks currently assigned.
    pub fn n_live_tasks(&self) -> usize {
        self.n_live_tasks
    }

    /// Live processors in the pool.
    pub fn n_live_procs(&self) -> usize {
        self.n_live_procs
    }

    /// Current bottleneck: the maximum live-processor load.
    pub fn bottleneck(&self) -> u64 {
        self.procs.iter().filter(|p| p.live).map(|p| p.load).max().unwrap_or(0)
    }

    /// Live score of the assignment under `objective`, computed from the
    /// maintained per-processor loads (`O(p)`, no instance rebuild).
    pub fn score(&self, objective: Objective) -> Score {
        if objective.is_bottleneck() {
            return Score(self.bottleneck() as u128);
        }
        Score(
            self.procs
                .iter()
                .filter(|p| p.live)
                .fold(0u128, |acc, p| acc.saturating_add(objective.proc_cost(p.load))),
        )
    }

    /// The live score board: every reported objective with its current
    /// score, in [`Objective::REPORTED`] order.
    pub fn scores(&self) -> [(Objective, Score); Objective::REPORTED.len()] {
        Objective::REPORTED.map(|obj| (obj, self.score(obj)))
    }

    /// Load of processor `proc`, if it is live.
    pub fn load_of(&self, proc: u32) -> Option<u64> {
        self.procs.get(proc as usize).filter(|p| p.live).map(|p| p.load)
    }

    /// Repair-work counters accumulated so far.
    pub fn counters(&self) -> Counters {
        self.counters
    }

    /// An `O(1)` lower bound on the configured objective over the live
    /// instance: every live task must place at least its cheapest
    /// configuration's weight somewhere, and no assignment beats spreading
    /// that total perfectly evenly. Paired with [`Engine::score`] this
    /// gives a live optimality-gap estimate after every event.
    pub fn lower_bound_estimate(&self) -> Score {
        balanced_score(self.cfg.objective, self.min_weight_sum, self.n_live_procs as u64)
    }

    /// The live optimality gap under the configured objective:
    /// `score − lower_bound_estimate` (saturating). Zero means the live
    /// assignment matches the balanced lower bound, unless both saturate:
    /// `l<k>` scores and bounds clamp at `u128::MAX`, where a gap of 0
    /// proves nothing. The daemon compares this against each tenant's SLO
    /// after every pump.
    pub fn gap(&self) -> Score {
        let score = self.score(self.cfg.objective);
        Score(score.0.saturating_sub(self.lower_bound_estimate().0))
    }

    /// Swaps the repair policy of a **live** engine, leaving state and
    /// counters intact. The serving daemon uses this seam for per-tenant
    /// policy control: a tenant that exhausts its migration budget is
    /// demoted to pure greedy placement ([`RepairPolicy::PlacementOnly`])
    /// for the rest of the batch and restored afterwards. Returns the
    /// policy that was in force.
    pub fn set_policy(&mut self, policy: RepairPolicy) -> Result<RepairPolicy> {
        if let RepairPolicy::Periodic { every: 0 } = policy {
            return Err(ServeError::Config { msg: "resolve period must be at least 1" });
        }
        let old = self.cfg.policy;
        self.cfg.policy = policy;
        Ok(old)
    }

    /// Whether every live configuration is a unit-weight singleton — the
    /// shape on which repair is exact. Conservative: a weighted or wide
    /// configuration pinned on dropped processors still counts.
    pub fn is_unit_singleton(&self) -> bool {
        self.wide_configs == 0 && self.nonunit_configs == 0
    }

    /// Ingests one event, then repairs according to the policy.
    pub fn apply(&mut self, ev: &Event) -> Result<()> {
        let res = self.step(ev);
        debug_assert_eq!(self.check_invariants(), Ok(()), "after {ev:?}");
        res
    }

    fn step(&mut self, ev: &Event) -> Result<()> {
        match ev {
            Event::Arrive { task, configs } => self.arrive(*task, configs)?,
            Event::Depart { task } => self.depart(*task)?,
            Event::Reweight { task, weights } => self.reweight(*task, weights)?,
            Event::AddProc { proc } => self.add_proc(*proc)?,
            Event::DropProc { proc } => self.drop_proc(*proc)?,
        }
        self.counters.events += 1;
        self.run_policy()
    }

    /// The policy dispatch of [`Engine::apply`]: decides whether the
    /// ingested event triggers repair work, and runs it.
    fn run_policy(&mut self) -> Result<()> {
        match self.cfg.policy {
            RepairPolicy::Eager => self.repair_now(),
            RepairPolicy::Lazy { slack } => {
                let drift = Score(self.baseline.0.saturating_add(slack as u128));
                if self.score(self.cfg.objective) > drift {
                    self.repair_now();
                }
            }
            RepairPolicy::PlacementOnly => {}
            RepairPolicy::Periodic { every } => {
                self.events_since_resolve += 1;
                if self.events_since_resolve >= every {
                    self.events_since_resolve = 0;
                    self.resolve()?;
                }
            }
        }
        Ok(())
    }

    /// Recomputes the incrementally kept state from the live tasks and
    /// reports the first field that disagrees: every live processor's
    /// load is the sum of the chosen weights pinned on it, dead
    /// processors hold load 0, chosen configurations are pinned on live
    /// processors only, the live counts, configuration counts and weight
    /// sums match, and a built processor→task index lists every live task
    /// exactly once, on its chosen configuration's first processor.
    /// `apply` checks it after every event in debug builds.
    fn check_invariants(&self) -> std::result::Result<(), String> {
        let mut loads = vec![0u128; self.procs.len()];
        let (mut wide, mut nonunit, mut min_sum, mut max_sum) = (0, 0, 0u128, 0u128);
        for (t, state) in self.live_tasks() {
            let c = &state.configs[state.chosen as usize];
            for &p in &c.pins {
                if !self.procs[p as usize].live {
                    return Err(format!("task {t} is placed on dead processor {p}"));
                }
                loads[p as usize] += c.weight as u128;
            }
            wide += state.configs.iter().filter(|c| c.pins.len() > 1).count();
            nonunit += state.configs.iter().filter(|c| c.weight != 1).count();
            min_sum += min_config_weight(&state.configs);
            max_sum += max_config_weight(&state.configs);
        }
        if let Some(p) = (0..self.procs.len()).find(|&p| self.procs[p].load as u128 != loads[p]) {
            return Err(format!(
                "processor {p} holds load {}, not {}",
                self.procs[p].load, loads[p]
            ));
        }
        let counts =
            [self.n_live_tasks, self.n_live_procs, self.wide_configs, self.nonunit_configs];
        let kept = (counts, [self.min_weight_sum, self.max_weight_sum]);
        let live_procs = self.procs.iter().filter(|p| p.live).count();
        let fresh = ([self.live_tasks().count(), live_procs, wide, nonunit], [min_sum, max_sum]);
        if kept != fresh {
            return Err(format!(
                "live tasks, live procs, wide and non-unit configs, min and max weight sums \
                 are {kept:?}, recomputed {fresh:?}"
            ));
        }
        if self.scratch.indexed {
            if self.scratch.assigned.len() != self.procs.len() {
                return Err(format!(
                    "the index has {} lists for {} processors",
                    self.scratch.assigned.len(),
                    self.procs.len()
                ));
            }
            let mut listed = vec![false; self.tasks.len()];
            for (p, list) in self.scratch.assigned.iter().enumerate() {
                for &t in list {
                    let on = self.tasks.get(t as usize).and_then(Option::as_ref);
                    let on = on.map(|s| s.configs[s.chosen as usize].pins[0] as usize);
                    if on != Some(p) || std::mem::replace(&mut listed[t as usize], true) {
                        return Err(format!(
                            "the index lists task {t} on processor {p}, not once on its chosen \
                             processor {on:?}"
                        ));
                    }
                }
            }
            if let Some((t, _)) = self.live_tasks().find(|&(t, _)| !listed[t as usize]) {
                return Err(format!("the index misses live task {t}"));
            }
        }
        Ok(())
    }

    // ---------------------------------------------------------------
    // Event ingestion
    // ---------------------------------------------------------------

    fn arrive(&mut self, task: u32, configs: &[(Vec<u32>, u64)]) -> Result<()> {
        let slot = task as usize;
        if self.tasks.len() <= slot {
            self.tasks.resize_with(slot + 1, || None);
        }
        if self.tasks[slot].is_some() {
            return Err(ServeError::DuplicateTask(task));
        }
        if configs.is_empty() {
            return Err(ServeError::NoConfigs(task));
        }
        let mut states = Vec::with_capacity(configs.len());
        for (pins, weight) in configs {
            if pins.is_empty() {
                return Err(ServeError::EmptyConfig { task });
            }
            if *weight == 0 {
                return Err(ServeError::ZeroWeight { task });
            }
            let mut pins = pins.clone();
            pins.sort_unstable();
            pins.dedup();
            // A bipartite-only resolve kind can never serve a multi-pin
            // configuration: reject it here, *before* any state mutates,
            // so a failed apply() leaves the engine untouched (the resolve
            // path keeps a defensive check, but it cannot fire for events
            // validated here).
            if pins.len() > 1 && self.resolver.kind().class() == SolverClass::SingleProc {
                return Err(ServeError::Config {
                    msg: "single-processor (bipartite) resolve kinds require a \
                          singleton live instance",
                });
            }
            for &p in &pins {
                if !self.procs.get(p as usize).is_some_and(|s| s.live) {
                    return Err(ServeError::DeadPin { task, proc: p });
                }
            }
            states.push(ConfigState { pins, weight: *weight });
        }
        let max_weight_sum = self.max_weight_sum + max_config_weight(&states);
        if max_weight_sum > u64::MAX as u128 {
            return Err(ServeError::LoadOverflow { task });
        }
        let chosen =
            self.choose(&states).expect("all arriving configurations are live by validation");
        self.wide_configs += states.iter().filter(|c| c.pins.len() > 1).count();
        self.nonunit_configs += states.iter().filter(|c| c.weight != 1).count();
        let state = TaskState { configs: states, chosen };
        self.add_contribution(&state);
        self.scratch.list(state.configs[chosen as usize].pins[0], task);
        self.min_weight_sum += min_config_weight(&state.configs);
        self.max_weight_sum = max_weight_sum;
        self.tasks[slot] = Some(state);
        self.n_live_tasks += 1;
        self.counters.placements += 1;
        Ok(())
    }

    fn depart(&mut self, task: u32) -> Result<()> {
        let state = self
            .tasks
            .get_mut(task as usize)
            .and_then(Option::take)
            .ok_or(ServeError::UnknownTask(task))?;
        self.remove_contribution(&state);
        self.scratch.unlist(state.configs[state.chosen as usize].pins[0], task);
        self.min_weight_sum = self.min_weight_sum.saturating_sub(min_config_weight(&state.configs));
        self.max_weight_sum -= max_config_weight(&state.configs);
        self.wide_configs -= state.configs.iter().filter(|c| c.pins.len() > 1).count();
        self.nonunit_configs -= state.configs.iter().filter(|c| c.weight != 1).count();
        self.n_live_tasks -= 1;
        Ok(())
    }

    fn reweight(&mut self, task: u32, weights: &[u64]) -> Result<()> {
        let state = self
            .tasks
            .get(task as usize)
            .and_then(Option::as_ref)
            .ok_or(ServeError::UnknownTask(task))?;
        if weights.len() != state.configs.len() {
            return Err(ServeError::WeightCountMismatch {
                task,
                expected: state.configs.len(),
                got: weights.len(),
            });
        }
        if weights.contains(&0) {
            return Err(ServeError::ZeroWeight { task });
        }
        let heaviest = weights.iter().copied().max().unwrap_or(0) as u128;
        let max_weight_sum = self.max_weight_sum - max_config_weight(&state.configs) + heaviest;
        if max_weight_sum > u64::MAX as u128 {
            return Err(ServeError::LoadOverflow { task });
        }
        // Re-borrow mutably only after validation.
        let mut state = self.tasks[task as usize].take().expect("checked live above");
        self.remove_contribution(&state);
        self.min_weight_sum = self.min_weight_sum.saturating_sub(min_config_weight(&state.configs));
        for (cfg, &w) in state.configs.iter_mut().zip(weights) {
            match (cfg.weight != 1, w != 1) {
                (false, true) => self.nonunit_configs += 1,
                (true, false) => self.nonunit_configs -= 1,
                _ => {}
            }
            cfg.weight = w;
        }
        self.min_weight_sum += min_config_weight(&state.configs);
        self.max_weight_sum = max_weight_sum;
        self.add_contribution(&state);
        self.tasks[task as usize] = Some(state);
        Ok(())
    }

    fn add_proc(&mut self, proc: u32) -> Result<()> {
        let slot = proc as usize;
        if self.procs.len() <= slot {
            self.procs.resize(slot + 1, ProcSlot::default());
        }
        if self.procs[slot].live {
            return Err(ServeError::DuplicateProc(proc));
        }
        self.procs[slot] = ProcSlot { live: true, load: 0 };
        self.n_live_procs += 1;
        // A dead processor's list is already empty: the drop dropped the
        // index, and a rebuild lists no task on a dead processor.
        if self.scratch.indexed {
            self.scratch.assigned.resize(self.procs.len(), Vec::new());
        }
        Ok(())
    }

    fn drop_proc(&mut self, proc: u32) -> Result<()> {
        let slot = proc as usize;
        if !self.procs.get(slot).is_some_and(|p| p.live) {
            return Err(ServeError::UnknownProc(proc));
        }
        if self.n_live_procs == 1 {
            return Err(ServeError::LastProc(proc));
        }
        // Feasibility first: every task running on `proc` must have an
        // alternative fully-live configuration avoiding it. Nothing is
        // mutated until the whole drop is known to be applicable.
        let mut displaced = Vec::new();
        for (t, state) in self.live_tasks() {
            if state.configs[state.chosen as usize].pins.contains(&proc) {
                let ok = state.configs.iter().any(|c| {
                    !c.pins.contains(&proc) && c.pins.iter().all(|&p| self.procs[p as usize].live)
                });
                if !ok {
                    return Err(ServeError::NoLiveConfig { task: t });
                }
                displaced.push(t);
            }
        }
        self.procs[slot].live = false;
        self.procs[slot].load = 0;
        self.n_live_procs -= 1;
        self.scratch.indexed = false;
        for t in displaced {
            let mut state = self.tasks[t as usize].take().expect("displaced task is live");
            // Subtract the old contribution from its still-live pins (the
            // dropped processor's load is already zeroed).
            let w = state.configs[state.chosen as usize].weight;
            for &p in &state.configs[state.chosen as usize].pins {
                if self.procs[p as usize].live {
                    self.procs[p as usize].load -= w;
                }
            }
            state.chosen = self.choose(&state.configs).expect("feasibility was pre-checked");
            self.add_contribution(&state);
            self.tasks[t as usize] = Some(state);
            self.counters.placements += 1;
        }
        Ok(())
    }

    // ---------------------------------------------------------------
    // Placement
    // ---------------------------------------------------------------

    /// Iterates live tasks in ascending id order.
    fn live_tasks(&self) -> impl Iterator<Item = (u32, &TaskState)> {
        self.tasks.iter().enumerate().filter_map(|(t, s)| Some((t as u32, s.as_ref()?)))
    }

    /// Greedy choice among fully-live configurations, keyed by the
    /// engine's objective: minimize the resulting bottleneck over the
    /// configuration's processors under the makespan, the total marginal
    /// cost under a sum objective; ties keep the lowest index.
    fn choose(&self, configs: &[ConfigState]) -> Option<u32> {
        let objective = self.cfg.objective;
        let mut best: Option<(u128, u32)> = None;
        for (i, c) in configs.iter().enumerate() {
            if !c.pins.iter().all(|&p| self.procs[p as usize].live) {
                continue;
            }
            let key = if objective.is_bottleneck() {
                (c.pins.iter().map(|&p| self.procs[p as usize].load).max().unwrap_or(0) + c.weight)
                    as u128
            } else {
                c.pins.iter().fold(0u128, |acc, &p| {
                    acc.saturating_add(objective.marginal(self.procs[p as usize].load, c.weight))
                })
            };
            if best.is_none_or(|(k, _)| key < k) {
                best = Some((key, i as u32));
            }
        }
        best.map(|(_, i)| i)
    }

    fn add_contribution(&mut self, state: &TaskState) {
        let c = &state.configs[state.chosen as usize];
        for &p in &c.pins {
            self.procs[p as usize].load += c.weight;
        }
    }

    fn remove_contribution(&mut self, state: &TaskState) {
        let c = &state.configs[state.chosen as usize];
        for &p in &c.pins {
            self.procs[p as usize].load -= c.weight;
        }
    }

    // ---------------------------------------------------------------
    // Repair
    // ---------------------------------------------------------------

    /// Runs a full repair immediately, regardless of policy: exact
    /// augmenting-path repair on unit/singleton state (extended to the
    /// full cost-reducing descent when the engine optimizes a sum
    /// objective, so eager repair is simultaneously optimal there too),
    /// local-search sweeps otherwise. Never worsens the configured
    /// objective; debug builds check this after every repair.
    pub fn repair_now(&mut self) {
        let _span = obs::span!("serve.repair");
        self.counters.repairs += 1;
        let objective = self.cfg.objective;
        // The O(p) score before repair is only needed by the debug check.
        let before = if cfg!(debug_assertions) { self.score(objective) } else { Score(0) };
        if self.is_unit_singleton() {
            self.exact_repair();
        } else {
            self.local_sweeps();
        }
        self.baseline = self.score(objective);
        debug_assert!(
            self.baseline <= before,
            "repair worsened the {objective} score from {before} to {}",
            self.baseline
        );
    }

    /// Augmenting-path repair for the unit/single-processor shape, kept out
    /// of line: inlined into [`Engine::repair_now`], it once slowed the
    /// weighted workload through code layout alone.
    ///
    /// Repair first reads the live loads against the paper's Eq. 1: every
    /// assignment of `n` unit tasks to `p` processors has a bottleneck of
    /// at least `⌈n/p⌉`, and under a sum objective the loads
    /// `⌊n/p⌋`/`⌈n/p⌉` are optimal. When the loads meet that bound, repair
    /// returns without building the index or searching. Otherwise each
    /// round runs one BFS (one `searches` count) seeded with every live
    /// processor at the bottleneck and shifts one unit along the first
    /// path it finds to a processor of load ≤ bottleneck − 2. When a
    /// search finds no path, no assignment of the live instance has a
    /// smaller makespan: the processors it reached carry load
    /// ≥ bottleneck − 1 and their tasks have no configuration outside
    /// them (the argument in `matching::semi`'s module doc).
    #[inline(never)]
    fn exact_repair(&mut self) {
        let Some(mut max) = self.unbalanced_bottleneck() else { return };
        if !self.scratch.indexed {
            self.build_index();
        }
        while max >= 2 {
            self.counters.searches += 1;
            let procs = &self.procs;
            let sources = (0..procs.len() as u32)
                .filter(|&u| procs[u as usize].live && procs[u as usize].load == max);
            let Some(v) = self.scratch.search(procs, &self.tasks, sources, max - 2) else {
                break;
            };
            self.apply_shift(v);
            max = self.bottleneck();
        }
        // Under a sum objective the bottleneck loop is not enough: a
        // non-bottleneck processor two units above some reachable one
        // still admits a cost-reducing path. Continue the descent from
        // *every* processor until none admits one — the fixpoint is the
        // Harvey et al. optimal semi-matching, simultaneously optimal for
        // every symmetric convex objective.
        if !self.cfg.objective.is_bottleneck() {
            loop {
                let mut improved = false;
                let mut order: Vec<u32> = (0..self.procs.len() as u32)
                    .filter(|&u| self.procs[u as usize].live && self.procs[u as usize].load >= 2)
                    .collect();
                order.sort_by_key(|&u| std::cmp::Reverse(self.procs[u as usize].load));
                // Drain each source fully and finish the pass before
                // re-sorting: every shift re-reads live loads, so a stale
                // order only affects visit priority, and the outer loop
                // certifies the fixpoint with a clean full pass. This keeps
                // the rebuild+sort cost at one per improving pass instead
                // of one per one-unit shift.
                for u in order {
                    loop {
                        let lu = self.procs[u as usize].load;
                        if lu < 2 {
                            break;
                        }
                        self.counters.searches += 1;
                        let Some(v) = self.scratch.search(&self.procs, &self.tasks, [u], lu - 2)
                        else {
                            break;
                        };
                        self.apply_shift(v);
                        improved = true;
                    }
                }
                if !improved {
                    break;
                }
            }
        }
    }

    /// The live bottleneck when the unit state's loads do not yet meet
    /// Eq. 1, `None` when they do: under the makespan when the bottleneck
    /// is at most `⌈n/p⌉`, under a sum objective when every live load is
    /// `⌊n/p⌋` or `⌈n/p⌉`, over live tasks and live processors. It reads
    /// the loads, not [`Engine::gap`]: saturated `l<k>` scores make a gap
    /// of 0 prove nothing.
    fn unbalanced_bottleneck(&self) -> Option<u64> {
        let n = self.n_live_tasks as u64;
        // With no live processor there is no live task to place.
        let floor = n.checked_div(self.n_live_procs as u64)?;
        let ceil = n.div_ceil(self.n_live_procs as u64);
        let (mut low, mut max) = (u64::MAX, 0);
        for slot in self.procs.iter().filter(|p| p.live) {
            low = low.min(slot.load);
            max = max.max(slot.load);
        }
        let met = max <= ceil && (self.cfg.objective.is_bottleneck() || low >= floor);
        (!met).then_some(max)
    }

    /// Lists every live task on its chosen configuration's first processor.
    fn build_index(&mut self) {
        let assigned = &mut self.scratch.assigned;
        assigned.iter_mut().for_each(Vec::clear);
        assigned.resize(self.procs.len(), Vec::new());
        for (t, state) in self.tasks.iter().enumerate() {
            if let Some(state) = state {
                assigned[state.configs[state.chosen as usize].pins[0] as usize].push(t as u32);
            }
        }
        self.scratch.indexed = true;
    }

    /// Shifts every task on the last search's tree path from its source to
    /// `v` one hop forward: `v` gains one unit and the source loses one.
    fn apply_shift(&mut self, v: u32) {
        let mut end = v;
        loop {
            let from = self.scratch.pred_proc[end as usize];
            if from == end {
                break;
            }
            let t = self.scratch.pred_task[end as usize];
            let state = self.tasks[t as usize].as_mut().expect("shifted task is live");
            state.chosen = self.scratch.pred_cfg[end as usize];
            self.scratch.unlist(from, t);
            self.scratch.list(end, t);
            end = from;
        }
        self.procs[end as usize].load -= 1;
        self.procs[v as usize].load += 1;
        self.counters.shifts += 1;
    }

    /// Hypergraph repair: up to [`LOCAL_PASSES`] first-improvement sweeps
    /// over the live tasks (ascending id), each task re-placed on its best
    /// fully-live configuration by [`Engine::choose`]. A task's current
    /// configuration is always among the candidates, so no move worsens
    /// the configured objective. Drops the processor→task index, which
    /// the moves do not keep.
    fn local_sweeps(&mut self) {
        self.scratch.indexed = false;
        for _ in 0..LOCAL_PASSES {
            let mut moved = false;
            for t in 0..self.tasks.len() {
                if self.tasks[t].as_ref().is_none_or(|s| s.configs.len() <= 1) {
                    continue;
                }
                let mut state = self.tasks[t].take().expect("checked live above");
                self.remove_contribution(&state);
                let best = self
                    .choose(&state.configs)
                    .expect("the chosen configuration itself is always eligible");
                if best != state.chosen {
                    state.chosen = best;
                    self.counters.moves += 1;
                    moved = true;
                }
                self.add_contribution(&state);
                self.tasks[t] = Some(state);
            }
            if !moved {
                break;
            }
        }
    }

    /// Re-solves the whole live instance from scratch with the configured
    /// kind (through the resident warm-workspace solver) and installs the
    /// result.
    ///
    /// `SINGLEPROC`-class resolve kinds (the exact unit backends) see the
    /// snapshot through [`Snapshot::to_bipartite`]; they require every
    /// live configuration to be a singleton, and error otherwise.
    fn resolve(&mut self) -> Result<()> {
        let _span = obs::span!("serve.resolve");
        self.counters.resolves += 1;
        if self.n_live_tasks == 0 {
            self.baseline = Score(0);
            return Ok(());
        }
        let snap = self.snapshot();
        if self.resolver.kind().class() == SolverClass::SingleProc {
            self.resolve_singleproc(&snap)?;
        } else {
            self.resolve_multiproc(&snap)?;
        }
        // Rebuild loads wholesale and drop the index; the resolve replaced
        // the assignment.
        self.scratch.indexed = false;
        for p in self.procs.iter_mut() {
            p.load = 0;
        }
        for t in 0..self.tasks.len() {
            if let Some(state) = self.tasks[t].take() {
                self.add_contribution(&state);
                self.tasks[t] = Some(state);
            }
        }
        self.baseline = self.score(self.cfg.objective);
        Ok(())
    }

    /// The hypergraph resolve path: solve the snapshot instance directly.
    fn resolve_multiproc(&mut self, snap: &Snapshot) -> Result<()> {
        let solution =
            self.resolver.solve_with(Problem::MultiProc(&snap.hypergraph), self.cfg.objective)?;
        let Solution::MultiProc(hm) = solution else {
            unreachable!("MULTIPROC problems yield MULTIPROC solutions")
        };
        for (new_t, &hid) in hm.hedge_of.iter().enumerate() {
            let t = snap.task_ids[new_t];
            let k = hid - snap.hypergraph.hedges_of(new_t as u32).start;
            let orig_cfg = snap.live_configs[new_t][k as usize];
            let state = self.tasks[t as usize].as_mut().expect("snapshot task is live");
            state.chosen = orig_cfg;
        }
        Ok(())
    }

    /// The bipartite resolve path: solve the singleton-collapsed snapshot
    /// and map each task's chosen processor back to its lightest live
    /// singleton configuration on that processor (the same collapse rule
    /// [`Snapshot::to_bipartite`] applies, so scores round-trip exactly).
    fn resolve_singleproc(&mut self, snap: &Snapshot) -> Result<()> {
        let Some(g) = snap.to_bipartite() else {
            return Err(ServeError::Config {
                msg: "single-processor (bipartite) resolve kinds require a \
                      singleton live instance",
            });
        };
        // Seed the resolver with the live assignment: each compacted task's
        // chosen configuration is a singleton, so its processor is a valid
        // starting point. Seed-aware kinds (the load-range search) tighten
        // their bracket to it; the result is identical either way.
        let problem = Problem::SingleProc(&g);
        self.seed_buf.clear();
        self.seed_buf
            .extend(snap.matching.hedge_of.iter().map(|&hid| snap.hypergraph.procs_of(hid)[0]));
        self.resolver.warm_start_with(&problem, &self.seed_buf);
        let solution = self.resolver.solve_with(problem, self.cfg.objective)?;
        let Solution::SingleProc(sm) = solution else {
            unreachable!("SINGLEPROC problems yield SINGLEPROC solutions")
        };
        let h = &snap.hypergraph;
        for (new_t, &eid) in sm.edge_of.iter().enumerate() {
            let chosen_proc = g.edge_right(eid);
            let mut best: Option<(u32, u64)> = None;
            for (k, hid) in h.hedges_of(new_t as u32).enumerate() {
                if h.procs_of(hid) == [chosen_proc] && best.is_none_or(|(_, w)| h.weight(hid) < w) {
                    best = Some((k as u32, h.weight(hid)));
                }
            }
            let (k, _) = best.expect("the bipartite edge came from a live singleton config");
            let orig_cfg = snap.live_configs[new_t][k as usize];
            let t = snap.task_ids[new_t];
            let state = self.tasks[t as usize].as_mut().expect("snapshot task is live");
            state.chosen = orig_cfg;
        }
        Ok(())
    }

    /// Compacts the live instance into a [`Snapshot`].
    ///
    /// Only fully-live configurations are materialized; by the engine's
    /// invariants every live task has at least one, and the chosen one is
    /// among them.
    pub fn snapshot(&self) -> Snapshot {
        let mut proc_map = vec![u32::MAX; self.procs.len()];
        let mut proc_ids = Vec::with_capacity(self.n_live_procs);
        for (p, slot) in self.procs.iter().enumerate() {
            if slot.live {
                proc_map[p] = proc_ids.len() as u32;
                proc_ids.push(p as u32);
            }
        }
        let mut task_ids = Vec::with_capacity(self.n_live_tasks);
        let mut live_configs = Vec::with_capacity(self.n_live_tasks);
        let mut hedges = Vec::new();
        let mut chosen_pos = Vec::with_capacity(self.n_live_tasks);
        for (t, state) in self.live_tasks() {
            let new_t = task_ids.len() as u32;
            task_ids.push(t);
            let mut idxs = Vec::new();
            for (i, c) in state.configs.iter().enumerate() {
                if c.pins.iter().all(|&p| self.procs[p as usize].live) {
                    if i as u32 == state.chosen {
                        chosen_pos.push(idxs.len() as u32);
                    }
                    idxs.push(i as u32);
                    let pins = c.pins.iter().map(|&p| proc_map[p as usize]).collect();
                    hedges.push((new_t, pins, c.weight));
                }
            }
            live_configs.push(idxs);
        }
        debug_assert_eq!(chosen_pos.len(), task_ids.len(), "chosen configs are live");
        let hypergraph =
            Hypergraph::from_hyperedges(task_ids.len() as u32, proc_ids.len() as u32, hedges)
                .expect("engine invariants satisfy the hypergraph constructor");
        let hedge_of = chosen_pos
            .iter()
            .enumerate()
            .map(|(new_t, &k)| hypergraph.hedges_of(new_t as u32).start + k)
            .collect();
        Snapshot {
            hypergraph,
            matching: HyperMatching { hedge_of },
            task_ids,
            proc_ids,
            live_configs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semimatch_core::solver::{solve, SolverKind};

    fn eager() -> EngineConfig {
        EngineConfig::default()
    }

    fn arrive(task: u32, configs: &[(&[u32], u64)]) -> Event {
        Event::Arrive { task, configs: configs.iter().map(|(p, w)| (p.to_vec(), *w)).collect() }
    }

    #[test]
    fn config_validation() {
        assert!(Engine::new(
            EngineConfig { policy: RepairPolicy::Periodic { every: 0 }, ..eager() },
            2
        )
        .is_err());
        // Bipartite resolve kinds are valid config now; shape errors
        // surface at resolve time instead (see the tests below).
        assert!(Engine::new(
            EngineConfig { resolve_kind: SolverKind::ExactBisection, ..eager() },
            2
        )
        .is_ok());
        assert!(Engine::new(eager(), 2).is_ok());
    }

    #[test]
    fn singleproc_resolve_kind_serves_singleton_instances() {
        for kind in [
            SolverKind::ExactBisection,
            SolverKind::HopcroftKarpSemi,
            SolverKind::CostScaling,
            SolverKind::MinCostFlow,
        ] {
            let cfg = EngineConfig {
                policy: RepairPolicy::Periodic { every: 1 },
                resolve_kind: kind,
                ..EngineConfig::default()
            };
            let mut e = Engine::new(cfg, 2).unwrap();
            // Both tasks can only fit makespan 1 by splitting processors.
            e.apply(&arrive(0, &[(&[0], 1), (&[1], 1)])).unwrap();
            e.apply(&arrive(1, &[(&[0], 1)])).unwrap();
            assert_eq!(e.bottleneck(), 1, "{kind} resolve missed the optimum");
            let snap = e.snapshot();
            snap.matching.validate(&snap.hypergraph).unwrap();
        }
    }

    #[test]
    fn seeded_periodic_resolves_replay_like_unseeded_ones() {
        // Every Periodic resolve hands the live assignment to the resolver
        // as a warm-start seed. The seed is advisory: across a churny
        // replay, each post-resolve state must still be the from-scratch
        // optimum of the live instance — byte-for-byte the behavior of an
        // unseeded engine.
        let cfg = EngineConfig {
            policy: RepairPolicy::Periodic { every: 1 },
            resolve_kind: SolverKind::CostScaling,
            ..eager()
        };
        let mut e = Engine::new(cfg, 3).unwrap();
        let events = [
            arrive(0, &[(&[0], 1), (&[1], 1)]),
            arrive(1, &[(&[0], 1)]),
            arrive(2, &[(&[0], 1), (&[2], 1)]),
            arrive(3, &[(&[1], 1), (&[2], 1)]),
            Event::Depart { task: 1 },
            arrive(4, &[(&[0], 1)]),
            arrive(5, &[(&[0], 1), (&[1], 1)]),
            Event::Depart { task: 3 },
            arrive(6, &[(&[2], 1)]),
        ];
        for ev in &events {
            e.apply(ev).unwrap();
            if e.n_live_tasks() == 0 {
                continue;
            }
            let snap = e.snapshot();
            snap.matching.validate(&snap.hypergraph).unwrap();
            let g = snap.to_bipartite().expect("trace is all singletons");
            let opt = solve(Problem::SingleProc(&g), SolverKind::ExactBisection)
                .unwrap()
                .makespan(&Problem::SingleProc(&g))
                .unwrap();
            assert_eq!(e.bottleneck(), opt, "seeded resolve drifted from the optimum");
        }
        assert_eq!(e.counters().resolves, events.len() as u64);
    }

    #[test]
    fn singleproc_resolve_kind_rejects_wide_configs_before_ingesting() {
        let cfg = EngineConfig {
            policy: RepairPolicy::Periodic { every: 1 },
            resolve_kind: SolverKind::HopcroftKarpSemi,
            ..EngineConfig::default()
        };
        let mut e = Engine::new(cfg, 2).unwrap();
        let err = e.apply(&arrive(0, &[(&[0], 1), (&[0, 1], 1)])).unwrap_err();
        assert!(matches!(err, ServeError::Config { .. }), "got {err:?}");
        // The failed apply must leave the engine untouched: no half-admitted
        // task, and later singleton events keep working.
        assert_eq!(e.n_live_tasks(), 0);
        assert_eq!(e.bottleneck(), 0);
        e.apply(&arrive(0, &[(&[0], 1)])).unwrap();
        assert_eq!(e.bottleneck(), 1);
        // Duplicate pins collapse to a singleton and are accepted.
        e.apply(&arrive(1, &[(&[1, 1], 1)])).unwrap();
        assert_eq!(e.n_live_tasks(), 2);
    }

    #[test]
    fn ingest_validation_errors() {
        let mut e = Engine::new(eager(), 2).unwrap();
        e.apply(&arrive(0, &[(&[0], 1)])).unwrap();
        assert_eq!(e.apply(&arrive(0, &[(&[0], 1)])), Err(ServeError::DuplicateTask(0)));
        assert_eq!(
            e.apply(&Event::Arrive { task: 1, configs: vec![] }),
            Err(ServeError::NoConfigs(1))
        );
        assert_eq!(
            e.apply(&arrive(1, &[(&[5], 1)])),
            Err(ServeError::DeadPin { task: 1, proc: 5 })
        );
        assert_eq!(e.apply(&arrive(1, &[(&[0], 0)])), Err(ServeError::ZeroWeight { task: 1 }));
        assert_eq!(e.apply(&Event::Depart { task: 9 }), Err(ServeError::UnknownTask(9)));
        assert_eq!(
            e.apply(&Event::Reweight { task: 0, weights: vec![1, 2] }),
            Err(ServeError::WeightCountMismatch { task: 0, expected: 1, got: 2 })
        );
        assert_eq!(e.apply(&Event::AddProc { proc: 1 }), Err(ServeError::DuplicateProc(1)));
        assert_eq!(e.apply(&Event::DropProc { proc: 7 }), Err(ServeError::UnknownProc(7)));
        // T0 only runs on P0: dropping it must be rejected, state unchanged.
        assert_eq!(
            e.apply(&Event::DropProc { proc: 0 }),
            Err(ServeError::NoLiveConfig { task: 0 })
        );
        assert_eq!(e.n_live_procs(), 2);
        assert_eq!(e.bottleneck(), 1);
        // Dropping the last processor is refused even when it is idle.
        e.apply(&Event::Depart { task: 0 }).unwrap();
        e.apply(&Event::DropProc { proc: 0 }).unwrap();
        assert_eq!(e.apply(&Event::DropProc { proc: 1 }), Err(ServeError::LastProc(1)));
    }

    #[test]
    fn load_overflowing_events_are_rejected_before_any_state_changes() {
        // Two 2^63 arrivals on one processor would load it 2^64: the second
        // is refused, and the engine still reports the first one exactly.
        let half = 1u64 << 63;
        let mut e = Engine::new(eager(), 1).unwrap();
        e.apply(&arrive(0, &[(&[0], half)])).unwrap();
        let before = (e.bottleneck(), e.scores(), e.lower_bound_estimate(), e.n_live_tasks());
        assert_eq!(e.apply(&arrive(1, &[(&[0], half)])), Err(ServeError::LoadOverflow { task: 1 }));
        assert_eq!(
            (e.bottleneck(), e.scores(), e.lower_bound_estimate(), e.n_live_tasks()),
            before
        );
        assert_eq!(e.bottleneck(), half);
        // A reweight counts the task's heaviest configuration, not its
        // chosen one, and is refused the same way.
        e.apply(&arrive(1, &[(&[0], half - 1)])).unwrap();
        assert_eq!(
            e.apply(&Event::Reweight { task: 1, weights: vec![half] }),
            Err(ServeError::LoadOverflow { task: 1 })
        );
        assert_eq!(e.bottleneck(), u64::MAX);
        // Departures release the headroom.
        e.apply(&Event::Depart { task: 0 }).unwrap();
        e.apply(&Event::Reweight { task: 1, weights: vec![u64::MAX] }).unwrap();
        assert_eq!(e.bottleneck(), u64::MAX);
    }

    /// The from-scratch optimal makespan of the engine's live instance.
    fn exact_makespan(e: &Engine) -> u64 {
        let g = e.snapshot().to_bipartite().expect("singleton configs");
        let problem = Problem::SingleProc(&g);
        solve(problem, SolverKind::ExactBisection).unwrap().makespan(&problem).unwrap()
    }

    #[test]
    fn repair_without_a_live_processor_returns() {
        for objective in [Objective::Makespan, Objective::FlowTime] {
            let mut e = Engine::new(EngineConfig { objective, ..eager() }, 0).unwrap();
            e.repair_now();
            assert_eq!((e.bottleneck(), e.counters().searches), (0, 0), "{objective}");
        }
    }

    #[test]
    fn the_resident_index_follows_every_event_that_touches_it() {
        // `apply` checks a built index against the live tasks after every
        // event (debug builds). This walks it through each path that keeps,
        // drops or rebuilds it, with whether it is built after each event;
        // on unit state the makespan must be the exact optimum throughout.
        let walk = [
            (arrive(0, &[(&[0], 1), (&[1], 1)]), false),
            // T1 stacks P0 past ⌈2/2⌉: the first search builds the index.
            (arrive(1, &[(&[0], 1)]), true),
            (arrive(2, &[(&[0], 1), (&[1], 1)]), true),
            (Event::Depart { task: 2 }, true),
            (Event::Reweight { task: 0, weights: vec![1, 1] }, true),
            // Weight 3 leaves unit state, and `local_sweeps` moves T0 back
            // to P0 and drops the index.
            (Event::Reweight { task: 0, weights: vec![1, 3] }, false),
            // Back on unit state, P0 at 2 > ⌈2/2⌉: the search rebuilds it.
            (Event::Reweight { task: 0, weights: vec![1, 1] }, true),
            (Event::Reweight { task: 0, weights: vec![2, 2] }, false),
            // Eq. 1 met: nothing rebuilds it.
            (Event::Reweight { task: 0, weights: vec![1, 1] }, false),
            (arrive(3, &[(&[1], 1)]), false),
            (arrive(4, &[(&[1], 1), (&[0], 1)]), false),
            (arrive(5, &[(&[1], 1)]), false),
            // P1 at 4 > ⌈6/2⌉: the search rebuilds it.
            (arrive(6, &[(&[1], 1)]), true),
            // A processor new to the index gets an empty list…
            (Event::AddProc { proc: 3 }, true),
            // …which the next arrival lands on.
            (arrive(7, &[(&[3], 1), (&[1], 1)]), true),
            (Event::DropProc { proc: 3 }, false),
            // P1 at 4 > ⌈7/3⌉ once P3 is back: the search rebuilds it.
            (Event::AddProc { proc: 3 }, true),
            (arrive(8, &[(&[1], 1), (&[3], 1)]), true),
            (arrive(9, &[(&[1], 1)]), true),
            // Resolved under `periodic:1` below: the resolve drops it.
            (arrive(10, &[(&[0], 1), (&[3], 1)]), false),
            (arrive(11, &[(&[1], 1)]), true),
            (Event::Depart { task: 1 }, true),
            (Event::Depart { task: 11 }, true),
            (Event::Depart { task: 7 }, true),
        ];
        for objective in [Objective::Makespan, Objective::FlowTime] {
            let mut e = Engine::new(EngineConfig { objective, ..eager() }, 2).unwrap();
            for (ev, indexed) in &walk {
                let resolve = matches!(ev, Event::Arrive { task: 10, .. });
                if resolve {
                    e.set_policy(RepairPolicy::Periodic { every: 1 }).unwrap();
                }
                e.apply(ev).unwrap();
                if resolve {
                    e.set_policy(RepairPolicy::Eager).unwrap();
                }
                assert_eq!(e.scratch.indexed, *indexed, "{objective}: index after {ev:?}");
                if e.is_unit_singleton() {
                    assert_eq!(e.bottleneck(), exact_makespan(&e), "{objective} after {ev:?}");
                }
            }
        }
    }

    #[test]
    fn eager_unit_singleton_stays_exact() {
        // Three unit tasks over two processors; the greedy stream order
        // would stack P0, the repair must spread them: bottleneck 2.
        let mut e = Engine::new(eager(), 2).unwrap();
        e.apply(&arrive(0, &[(&[0], 1)])).unwrap();
        e.apply(&arrive(1, &[(&[0], 1), (&[1], 1)])).unwrap();
        e.apply(&arrive(2, &[(&[0], 1), (&[1], 1)])).unwrap();
        assert!(e.is_unit_singleton());
        assert_eq!(e.bottleneck(), 2);
        // Cross-check against the exact solver on the snapshot.
        let snap = e.snapshot();
        snap.matching.validate(&snap.hypergraph).unwrap();
        let g = snap.to_bipartite().expect("singleton configs");
        let opt = solve(Problem::SingleProc(&g), SolverKind::ExactBisection)
            .unwrap()
            .makespan(&Problem::SingleProc(&g))
            .unwrap();
        assert_eq!(e.bottleneck(), opt);
    }

    #[test]
    fn augmenting_repair_uses_multi_hop_paths() {
        // T0 on {P0}|{P1} lands on P0 (lowest-id tie), T1 on {P1}|{P2}
        // lands on P1. T2 on {P0}|{P1} then stacks P0 to load 2; the only
        // way down is the 2-hop path P0 —T0→ P1 —T1→ P2, which the BFS
        // must find and shift (T1: P1→P2, then T0: P0→P1).
        let mut e = Engine::new(eager(), 3).unwrap();
        e.apply(&arrive(0, &[(&[0], 1), (&[1], 1)])).unwrap();
        e.apply(&arrive(1, &[(&[1], 1), (&[2], 1)])).unwrap();
        e.apply(&arrive(2, &[(&[0], 1), (&[1], 1)])).unwrap();
        assert_eq!(e.bottleneck(), 1, "2-hop shift reaches the perfect spread");
        assert_eq!((e.load_of(0), e.load_of(1), e.load_of(2)), (Some(1), Some(1), Some(1)));
        assert!(e.counters().shifts >= 1);
        let snap = e.snapshot();
        let g = snap.to_bipartite().unwrap();
        let opt = solve(Problem::SingleProc(&g), SolverKind::ExactBisection)
            .unwrap()
            .makespan(&Problem::SingleProc(&g))
            .unwrap();
        assert_eq!(e.bottleneck(), opt);
    }

    #[test]
    fn hyper_repair_never_increases_bottleneck() {
        let mut e = Engine::new(eager(), 3).unwrap();
        e.apply(&arrive(0, &[(&[0, 1], 5), (&[2], 2)])).unwrap();
        e.apply(&arrive(1, &[(&[0], 3), (&[1], 3)])).unwrap();
        e.apply(&arrive(2, &[(&[2], 4), (&[0], 4)])).unwrap();
        assert!(!e.is_unit_singleton());
        let before = e.bottleneck();
        e.repair_now();
        assert!(e.bottleneck() <= before);
        let snap = e.snapshot();
        snap.matching.validate(&snap.hypergraph).unwrap();
        assert_eq!(snap.matching.makespan(&snap.hypergraph), e.bottleneck());
    }

    #[test]
    fn reweight_and_depart_update_loads() {
        let mut e = Engine::new(eager(), 2).unwrap();
        e.apply(&arrive(0, &[(&[0], 2), (&[1], 5)])).unwrap();
        assert_eq!(e.bottleneck(), 2);
        e.apply(&Event::Reweight { task: 0, weights: vec![9, 4] }).unwrap();
        // Eager repair re-places T0 onto the now-cheaper {P1} w4.
        assert_eq!(e.bottleneck(), 4);
        assert!(!e.is_unit_singleton());
        e.apply(&Event::Depart { task: 0 }).unwrap();
        assert_eq!(e.bottleneck(), 0);
        assert_eq!(e.n_live_tasks(), 0);
        assert!(e.is_unit_singleton(), "counts drained with the departures");
    }

    #[test]
    fn lower_bound_tracks_live_min_weights_and_never_exceeds_score() {
        let mut e = Engine::new(eager(), 2).unwrap();
        assert_eq!(e.lower_bound_estimate(), Score(0));
        // T0's cheapest configuration is w2 ⇒ ⌈2/2⌉ = 1.
        e.apply(&arrive(0, &[(&[0], 2), (&[1], 5)])).unwrap();
        assert_eq!(e.lower_bound_estimate(), Score(1));
        // T1 adds its cheapest w4 ⇒ ⌈6/2⌉ = 3; eager repair hits it.
        e.apply(&arrive(1, &[(&[0], 4), (&[1], 4)])).unwrap();
        assert_eq!(e.lower_bound_estimate(), Score(3));
        assert!(e.lower_bound_estimate() <= e.score(e.config().objective));
        // Reweighting swaps which configuration is cheapest (min 5→3).
        e.apply(&Event::Reweight { task: 0, weights: vec![9, 3] }).unwrap();
        assert_eq!(e.lower_bound_estimate(), Score(4), "⌈(3 + 4)/2⌉");
        assert!(e.lower_bound_estimate() <= e.score(e.config().objective));
        // Departures drain the sum back to the remaining task.
        e.apply(&Event::Depart { task: 0 }).unwrap();
        assert_eq!(e.lower_bound_estimate(), Score(2));
        e.apply(&Event::Depart { task: 1 }).unwrap();
        assert_eq!(e.lower_bound_estimate(), Score(0));
    }

    #[test]
    fn proc_churn_relocates_and_extends() {
        let mut e = Engine::new(eager(), 2).unwrap();
        e.apply(&arrive(0, &[(&[0], 1), (&[1], 1)])).unwrap();
        e.apply(&arrive(1, &[(&[0], 1), (&[1], 1)])).unwrap();
        assert_eq!(e.bottleneck(), 1);
        e.apply(&Event::DropProc { proc: 1 }).unwrap();
        assert_eq!(e.n_live_procs(), 1);
        assert_eq!(e.bottleneck(), 2, "both tasks squeezed onto P0");
        // The dropped processor rejoins: dormant {P1} configurations come
        // back to life and repair spreads the load out again.
        e.apply(&Event::AddProc { proc: 1 }).unwrap();
        assert_eq!(e.bottleneck(), 1, "repair re-uses the rejoined processor");
        // A brand-new processor joins idle (no configuration targets it
        // yet, so loads are untouched).
        e.apply(&Event::AddProc { proc: 2 }).unwrap();
        assert_eq!(e.load_of(2), Some(0));
        assert_eq!(e.n_live_procs(), 3);
        assert_eq!(e.bottleneck(), 1);
    }

    #[test]
    fn periodic_policy_resolves_with_the_configured_kind() {
        let cfg = EngineConfig {
            policy: RepairPolicy::Periodic { every: 1 },
            resolve_kind: SolverKind::BruteForce,
            ..eager()
        };
        let mut e = Engine::new(cfg, 2).unwrap();
        e.apply(&arrive(0, &[(&[0], 3), (&[1], 2)])).unwrap();
        e.apply(&arrive(1, &[(&[0], 2), (&[1], 3)])).unwrap();
        e.apply(&arrive(2, &[(&[0], 2), (&[1], 2)])).unwrap();
        // With per-event resolves, the final state IS the from-scratch
        // optimum of the final instance.
        let snap = e.snapshot();
        let opt = solve(Problem::MultiProc(&snap.hypergraph), SolverKind::BruteForce)
            .unwrap()
            .makespan(&Problem::MultiProc(&snap.hypergraph))
            .unwrap();
        assert_eq!(e.bottleneck(), opt);
        assert_eq!(e.counters().resolves, 3);
    }

    #[test]
    fn lazy_policy_repairs_only_past_the_slack() {
        let cfg = EngineConfig { policy: RepairPolicy::Lazy { slack: 10 }, ..eager() };
        let mut e = Engine::new(cfg, 2).unwrap();
        for t in 0..6 {
            e.apply(&arrive(t, &[(&[0], 1), (&[1], 1)])).unwrap();
        }
        assert_eq!(e.counters().repairs, 0, "under the slack nothing repairs");
        let cfg = EngineConfig { policy: RepairPolicy::Lazy { slack: 0 }, ..eager() };
        let mut tight = Engine::new(cfg, 2).unwrap();
        for t in 0..6 {
            tight.apply(&arrive(t, &[(&[0], 1), (&[1], 1)])).unwrap();
        }
        assert!(tight.counters().repairs >= 1);
        assert_eq!(tight.bottleneck(), 3);
    }

    #[test]
    fn snapshot_maps_ids_and_drops_dead_configs() {
        let mut e = Engine::new(eager(), 3).unwrap();
        e.apply(&arrive(4, &[(&[0], 1), (&[2], 1)])).unwrap();
        e.apply(&arrive(7, &[(&[2], 1)])).unwrap();
        e.apply(&Event::DropProc { proc: 0 }).unwrap();
        let snap = e.snapshot();
        assert_eq!(snap.task_ids, vec![4, 7]);
        assert_eq!(snap.proc_ids, vec![1, 2]);
        // T4's {P0} config is dead: only {P2} survives, remapped to pin 1.
        assert_eq!(snap.hypergraph.n_hedges(), 2);
        assert_eq!(snap.live_configs, vec![vec![1], vec![0]]);
        assert_eq!(snap.hypergraph.procs_of(0), &[1]);
        snap.matching.validate(&snap.hypergraph).unwrap();
    }

    #[test]
    fn scores_board_reports_every_objective() {
        let mut e = Engine::new(eager(), 2).unwrap();
        e.apply(&arrive(0, &[(&[0], 1)])).unwrap();
        e.apply(&arrive(1, &[(&[0], 1)])).unwrap();
        // Loads (2, 0): makespan 2, flow 3, l2 4, total 2.
        let board = e.scores();
        assert_eq!(board[0], (Objective::Makespan, Score(2)));
        assert!(board.contains(&(Objective::FlowTime, Score(3))));
        assert!(board.contains(&(Objective::LpNorm(2), Score(4))));
        assert!(board.contains(&(Objective::WeightedLoad, Score(2))));
    }

    #[test]
    fn flowtime_repair_descends_past_the_bottleneck_loop() {
        use semimatch_core::exact::brute_force_singleproc_objective;
        // The bottleneck (P0, load 4) is immovable, so the makespan-only
        // repair loop finds nothing — but P1 at load 2 still admits a
        // cost-reducing path to the idle P2. Only the full descent (the
        // sum-objective extension) takes it: (4,2,0) flow 13 → (4,1,1)
        // flow 12, the brute-force flow optimum.
        let cfg = EngineConfig {
            objective: Objective::FlowTime,
            policy: RepairPolicy::PlacementOnly,
            ..eager()
        };
        let mut e = Engine::new(cfg, 3).unwrap();
        for t in 0..4 {
            e.apply(&arrive(t, &[(&[0], 1)])).unwrap();
        }
        e.apply(&arrive(4, &[(&[1], 1), (&[2], 1)])).unwrap(); // ties → P1
        e.apply(&arrive(5, &[(&[1], 1)])).unwrap();
        assert_eq!(e.score(Objective::FlowTime), Score(10 + 3));
        e.repair_now();
        assert_eq!(e.score(Objective::FlowTime), Score(10 + 1 + 1));
        let snap = e.snapshot();
        let g = snap.to_bipartite().expect("singleton configs");
        let (opt, _) = brute_force_singleproc_objective(&g, 100_000, Objective::FlowTime).unwrap();
        assert_eq!(e.score(Objective::FlowTime), opt, "full descent reaches the flow optimum");
        // Simultaneous optimality: the makespan is optimal too.
        let (mk, _) = brute_force_singleproc_objective(&g, 100_000, Objective::Makespan).unwrap();
        assert_eq!(Score(e.bottleneck() as u128), mk);
    }

    #[test]
    fn weighted_flowtime_repair_never_worsens_the_score() {
        let cfg = EngineConfig { objective: Objective::FlowTime, ..eager() };
        let mut e = Engine::new(cfg, 4).unwrap();
        for t in 0..8 {
            e.apply(&arrive(t, &[(&[0, 1], 4), (&[t % 4], 5), (&[(t + 1) % 4], 3)])).unwrap();
        }
        let before = e.score(Objective::FlowTime);
        e.repair_now();
        assert!(e.score(Objective::FlowTime) <= before);
        let snap = e.snapshot();
        snap.matching.validate(&snap.hypergraph).unwrap();
        assert_eq!(
            snap.matching.score(&snap.hypergraph, Objective::FlowTime),
            e.score(Objective::FlowTime)
        );
    }

    #[test]
    fn replay_runs_a_generated_trace_end_to_end() {
        use semimatch_gen::rng::Xoshiro256;
        use semimatch_gen::trace::{generate_trace, TraceParams};
        let params = TraceParams {
            n_procs: 6,
            arrivals: 120,
            churn_pct: 30,
            proc_events: 4,
            burst_every: 24,
            burst_len: 6,
            ..TraceParams::default()
        };
        let trace = generate_trace(&params, &mut Xoshiro256::seed_from_u64(5));
        let e = Engine::replay(eager(), &trace).unwrap();
        assert_eq!(e.counters().events as usize, trace.events.len());
        let snap = e.snapshot();
        snap.matching.validate(&snap.hypergraph).unwrap();
        assert_eq!(snap.matching.makespan(&snap.hypergraph), e.bottleneck());
    }
}
