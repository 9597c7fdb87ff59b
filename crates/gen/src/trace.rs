//! Event traces for the streaming / dynamic serving scenario.
//!
//! A [`Trace`] describes a *dynamic* `MULTIPROC` (or, when every
//! configuration is a singleton, `SINGLEPROC`) instance as a sequence of
//! [`Event`]s over an initial processor pool: tasks arrive with their
//! configuration lists, depart, change weight, and processors join or
//! leave the pool. The `serve` crate's engine consumes traces and
//! maintains a semi-matching incrementally; this module owns the workload
//! *description* — the event model, a line-oriented text format (`.tr`)
//! and a reproducible generator ([`generate_trace`]) with tunable arrival
//! volume, churn ratio, processor churn and adversarial hot-spot bursts
//! (every burst pins a run of single-configuration tasks onto one
//! processor, the worst case for load balance).
//!
//! ```
//! use semimatch_gen::rng::Xoshiro256;
//! use semimatch_gen::trace::{generate_trace, Event, TraceParams};
//!
//! let params = TraceParams { n_procs: 4, arrivals: 12, ..TraceParams::default() };
//! let trace = generate_trace(&params, &mut Xoshiro256::seed_from_u64(7));
//! assert_eq!(trace.n_procs, 4);
//! assert!(trace.events.iter().any(|e| matches!(e, Event::Arrive { .. })));
//! // The text form round-trips.
//! let mut buf = Vec::new();
//! trace.write(&mut buf).unwrap();
//! assert_eq!(semimatch_gen::trace::Trace::read(&buf[..]).unwrap(), trace);
//! ```

use std::io::{BufRead, BufReader, Read, Write};

use crate::rng::Xoshiro256;

/// One step of a dynamic instance.
///
/// Task and processor ids are chosen by the trace (the generator hands out
/// fresh ids monotonically); the engine validates them against its live
/// state on ingest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A task arrives with its configuration list: `(processors, weight)`
    /// pairs, each the paper's hyperedge `(h ∩ V2, w_h)`. Singleton
    /// processor sets make this a `SINGLEPROC` edge list.
    Arrive {
        /// Fresh task id.
        task: u32,
        /// Configurations `S_t`: nonempty processor sets with weights.
        configs: Vec<(Vec<u32>, u64)>,
    },
    /// A live task leaves the system; its load is released.
    Depart {
        /// The departing task.
        task: u32,
    },
    /// A live task's execution times change (one weight per configuration,
    /// in configuration order).
    Reweight {
        /// The task whose configurations are re-weighted.
        task: u32,
        /// New weight of each configuration.
        weights: Vec<u64>,
    },
    /// A processor joins the pool (a fresh id, or a previously dropped one
    /// re-joining empty).
    AddProc {
        /// The joining processor.
        proc: u32,
    },
    /// A processor leaves the pool; tasks running on it must be re-placed.
    DropProc {
        /// The leaving processor.
        proc: u32,
    },
}

impl Event {
    /// Short tag used by the text format and reports.
    pub fn tag(&self) -> &'static str {
        match self {
            Event::Arrive { .. } => "arrive",
            Event::Depart { .. } => "depart",
            Event::Reweight { .. } => "reweight",
            Event::AddProc { .. } => "addproc",
            Event::DropProc { .. } => "dropproc",
        }
    }
}

/// A dynamic-instance description: the initial processor pool `0..n_procs`
/// plus an event sequence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    /// Processors alive before the first event (ids `0..n_procs`).
    pub n_procs: u32,
    /// The event sequence, in arrival order.
    pub events: Vec<Event>,
}

impl Trace {
    /// Serializes to the line-oriented `.tr` text format:
    ///
    /// ```text
    /// procs 3
    /// arrive 0 2:0,1 1:2      # task 0: {P0,P1} w2  or  {P2} w1
    /// reweight 0 3 1
    /// addproc 3
    /// arrive 1 1:3
    /// dropproc 0
    /// depart 1
    /// ```
    pub fn write<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(w, "procs {}", self.n_procs)?;
        for ev in &self.events {
            match ev {
                Event::Arrive { task, configs } => {
                    write!(w, "arrive {task}")?;
                    for (pins, weight) in configs {
                        write!(w, " {weight}:")?;
                        for (i, p) in pins.iter().enumerate() {
                            if i > 0 {
                                write!(w, ",")?;
                            }
                            write!(w, "{p}")?;
                        }
                    }
                    writeln!(w)?;
                }
                Event::Depart { task } => writeln!(w, "depart {task}")?,
                Event::Reweight { task, weights } => {
                    write!(w, "reweight {task}")?;
                    for wt in weights {
                        write!(w, " {wt}")?;
                    }
                    writeln!(w)?;
                }
                Event::AddProc { proc } => writeln!(w, "addproc {proc}")?,
                Event::DropProc { proc } => writeln!(w, "dropproc {proc}")?,
            }
        }
        Ok(())
    }

    /// Parses the `.tr` text format written by [`Trace::write`]. Blank
    /// lines and `#` comments are skipped; a `procs`, `depart`, `addproc`
    /// or `dropproc` line with a token after its number is an error.
    pub fn read<R: Read>(r: R) -> Result<Trace, TraceParseError> {
        let reader = BufReader::new(r);
        let mut n_procs: Option<u32> = None;
        let mut events = Vec::new();
        for (idx, line) in reader.lines().enumerate() {
            let line_no = idx + 1;
            let line = line.map_err(|e| TraceParseError::new(line_no, format!("io: {e}")))?;
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut tokens = line.split_whitespace();
            let tag = tokens.next().expect("non-empty line has a first token");
            let fail = |msg: String| TraceParseError::new(line_no, msg);
            match tag {
                "procs" => {
                    if n_procs.is_some() {
                        return Err(fail("duplicate 'procs' header".into()));
                    }
                    n_procs = Some(parse_sole(tokens, "processor count", line_no)?);
                }
                "arrive" => {
                    let task = parse_num(tokens.next(), "task id", line_no)?;
                    let mut configs = Vec::new();
                    for tok in tokens {
                        let (w, pins) = tok
                            .split_once(':')
                            .ok_or_else(|| fail(format!("config '{tok}' is not WEIGHT:PINS")))?;
                        let weight = w
                            .parse::<u64>()
                            .map_err(|_| fail(format!("bad weight in config '{tok}'")))?;
                        let pins = pins
                            .split(',')
                            .map(|p| p.parse::<u32>())
                            .collect::<Result<Vec<u32>, _>>()
                            .map_err(|_| fail(format!("bad pin list in config '{tok}'")))?;
                        configs.push((pins, weight));
                    }
                    if configs.is_empty() {
                        return Err(fail(format!("task {task} arrives without configurations")));
                    }
                    events.push(Event::Arrive { task, configs });
                }
                "depart" => {
                    events.push(Event::Depart { task: parse_sole(tokens, "task id", line_no)? })
                }
                "reweight" => {
                    let task = parse_num(tokens.next(), "task id", line_no)?;
                    let weights = tokens
                        .map(|t| t.parse::<u64>())
                        .collect::<Result<Vec<u64>, _>>()
                        .map_err(|_| fail("bad weight list".into()))?;
                    if weights.is_empty() {
                        return Err(fail(format!("reweight of task {task} without weights")));
                    }
                    events.push(Event::Reweight { task, weights });
                }
                "addproc" => {
                    events.push(Event::AddProc { proc: parse_sole(tokens, "proc id", line_no)? })
                }
                "dropproc" => {
                    events.push(Event::DropProc { proc: parse_sole(tokens, "proc id", line_no)? })
                }
                other => return Err(fail(format!("unknown event '{other}'"))),
            }
        }
        let n_procs =
            n_procs.ok_or_else(|| TraceParseError::new(0, "missing 'procs' header".into()))?;
        Ok(Trace { n_procs, events })
    }

    /// Number of [`Event::Arrive`] events.
    pub fn arrivals(&self) -> usize {
        self.events.iter().filter(|e| matches!(e, Event::Arrive { .. })).count()
    }
}

fn parse_num<T: std::str::FromStr>(
    tok: Option<&str>,
    what: &str,
    line: usize,
) -> Result<T, TraceParseError> {
    tok.ok_or_else(|| TraceParseError::new(line, format!("missing {what}")))?
        .parse()
        .map_err(|_| TraceParseError::new(line, format!("cannot parse {what}")))
}

/// Parses the one number a `procs`, `depart`, `addproc` or `dropproc`
/// line carries, rejecting any token after it.
fn parse_sole<'a, T: std::str::FromStr>(
    mut tokens: impl Iterator<Item = &'a str>,
    what: &str,
    line: usize,
) -> Result<T, TraceParseError> {
    let value = parse_num(tokens.next(), what, line)?;
    match tokens.next() {
        None => Ok(value),
        Some(tok) => {
            Err(TraceParseError::new(line, format!("trailing token '{tok}' after {what}")))
        }
    }
}

/// Malformed text while parsing a [`Trace`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based offending line (0 for whole-file problems).
    pub line: usize,
    /// Parser message.
    pub msg: String,
}

impl TraceParseError {
    fn new(line: usize, msg: String) -> Self {
        TraceParseError { line, msg }
    }
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace parse error at line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for TraceParseError {}

/// Parameters of the random trace generator.
///
/// Defaults describe a moderate serving workload: weighted multi-processor
/// configurations, 10% churn, no processor churn, no bursts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceParams {
    /// Initial processor pool size (must be ≥ 1).
    pub n_procs: u32,
    /// Number of regular (non-burst) task arrivals.
    pub arrivals: u32,
    /// Percentage (0–100) of arrivals followed by a churn event (a
    /// departure or a reweight of a random live task).
    pub churn_pct: u32,
    /// Maximum configurations per arriving task (≥ 1).
    pub max_configs: u32,
    /// Maximum processors per configuration (1 ⇒ a `SINGLEPROC` trace).
    pub max_pins: u32,
    /// Maximum configuration weight (1 ⇒ unit weights).
    pub max_weight: u64,
    /// Number of processor add/drop events sprinkled across the trace
    /// (alternating, drops only when every live task stays coverable).
    pub proc_events: u32,
    /// Every `burst_every`-th arrival triggers an adversarial burst
    /// (0 ⇒ never).
    pub burst_every: u32,
    /// Burst length: tasks with a single configuration pinned on one
    /// common processor.
    pub burst_len: u32,
}

impl Default for TraceParams {
    fn default() -> Self {
        TraceParams {
            n_procs: 16,
            arrivals: 256,
            churn_pct: 10,
            max_configs: 3,
            max_pins: 2,
            max_weight: 8,
            proc_events: 0,
            burst_every: 0,
            burst_len: 8,
        }
    }
}

/// A task's configuration list: `(processors, weight)` pairs.
type Configs = Vec<(Vec<u32>, u64)>;

/// State the generator tracks so every emitted event is applicable: live
/// tasks with their configurations (for drop-safety) and the live pool.
struct GenState {
    live_procs: Vec<u32>,
    next_proc: u32,
    /// `(task, configs)` of every live task.
    live_tasks: Vec<(u32, Configs)>,
    next_task: u32,
}

impl GenState {
    /// Whether dropping `victim` leaves every live task with at least one
    /// fully-live configuration.
    fn drop_is_safe(&self, victim: u32) -> bool {
        let alive = |p: u32| p != victim && self.live_procs.contains(&p);
        self.live_tasks
            .iter()
            .all(|(_, configs)| configs.iter().any(|(pins, _)| pins.iter().all(|&p| alive(p))))
    }
}

/// Generates a reproducible random trace. All randomness flows through
/// `rng`, so `(params, seed)` pins the trace bit-for-bit forever (the same
/// contract as the instance generators).
pub fn generate_trace(params: &TraceParams, rng: &mut Xoshiro256) -> Trace {
    assert!(params.n_procs >= 1, "need at least one initial processor");
    assert!(params.max_configs >= 1 && params.max_pins >= 1 && params.max_weight >= 1);
    let mut st = GenState {
        live_procs: (0..params.n_procs).collect(),
        next_proc: params.n_procs,
        live_tasks: Vec::new(),
        next_task: 0,
    };
    let mut events = Vec::new();
    let mut pool = Vec::new();
    // Processor churn happens every `proc_gap` arrivals, alternating
    // add/drop so the pool size stays roughly stable.
    let proc_gap =
        params.arrivals.checked_div(params.proc_events).map_or(u32::MAX, |gap| gap.max(1));

    for i in 0..params.arrivals {
        arrive(&mut events, &mut st, params, rng, &mut pool, None);

        // Adversarial hot-spot burst: a run of inflexible tasks all pinned
        // on one processor, chosen at random per burst.
        if params.burst_every > 0 && (i + 1) % params.burst_every == 0 {
            let target = st.live_procs[rng.below(st.live_procs.len() as u64) as usize];
            for _ in 0..params.burst_len {
                arrive(&mut events, &mut st, params, rng, &mut pool, Some(target));
            }
        }

        // Churn: a departure or a reweight of a random live task.
        if rng.below(100) < params.churn_pct as u64 && !st.live_tasks.is_empty() {
            let idx = rng.below(st.live_tasks.len() as u64) as usize;
            if rng.below(2) == 0 {
                let (task, _) = st.live_tasks.swap_remove(idx);
                events.push(Event::Depart { task });
            } else {
                let (task, configs) = &st.live_tasks[idx];
                let weights =
                    configs.iter().map(|_| rng.range_inclusive(1, params.max_weight)).collect();
                events.push(Event::Reweight { task: *task, weights });
            }
        }

        // Processor churn: alternate add and (safe) drop.
        if (i + 1) % proc_gap == 0 {
            if (i + 1) / proc_gap % 2 == 1 {
                let proc = st.next_proc;
                st.next_proc += 1;
                st.live_procs.push(proc);
                events.push(Event::AddProc { proc });
            } else if st.live_procs.len() > 1 {
                let idx = rng.below(st.live_procs.len() as u64) as usize;
                let victim = st.live_procs[idx];
                if st.drop_is_safe(victim) {
                    st.live_procs.swap_remove(idx);
                    events.push(Event::DropProc { proc: victim });
                }
            }
        }
    }
    Trace { n_procs: params.n_procs, events }
}

/// Emits one arrival. `pinned` forces a single configuration on that
/// processor (burst mode); otherwise configurations are sampled from the
/// live pool. When `max_pins == 1` the configurations use *distinct*
/// processors, so the trace stays a well-formed `SINGLEPROC` edge list.
fn arrive(
    events: &mut Vec<Event>,
    st: &mut GenState,
    params: &TraceParams,
    rng: &mut Xoshiro256,
    pool: &mut Vec<u64>,
    pinned: Option<u32>,
) {
    let task = st.next_task;
    st.next_task += 1;
    let configs: Configs = if let Some(target) = pinned {
        vec![(vec![target], rng.range_inclusive(1, params.max_weight))]
    } else {
        let live = st.live_procs.len() as u64;
        let k = rng.range_inclusive(1, params.max_configs.min(live as u32).max(1) as u64) as usize;
        if params.max_pins == 1 {
            // SINGLEPROC shape: one distinct processor per configuration.
            rng.sample_distinct(live, k, pool)
                .into_iter()
                .map(|j| {
                    (vec![st.live_procs[j as usize]], rng.range_inclusive(1, params.max_weight))
                })
                .collect()
        } else {
            (0..k)
                .map(|_| {
                    let s = rng.range_inclusive(1, params.max_pins.min(live as u32) as u64);
                    let mut pins: Vec<u32> = rng
                        .sample_distinct(live, s as usize, pool)
                        .into_iter()
                        .map(|j| st.live_procs[j as usize])
                        .collect();
                    pins.sort_unstable();
                    (pins, rng.range_inclusive(1, params.max_weight))
                })
                .collect()
        }
    };
    st.live_tasks.push((task, configs.clone()));
    events.push(Event::Arrive { task, configs });
}

/// Parameters of the multi-tenant multiplexed generator
/// ([`generate_multiplexed`]).
///
/// Each tenant gets its own independent per-tenant trace (generated from
/// `per_tenant` under a derived rng stream, so tenant `t`'s trace depends
/// only on `(per_tenant, seed, t)`); the multiplexer then interleaves the
/// per-tenant streams into one global event sequence with *skewed tenant
/// hotness*: tenant `t`'s arrival volume is scaled by `1 / (t+1)^hotness`
/// and its events are drawn into the interleave with probability
/// proportional to the same Zipf-like weight (`hotness == 0` is uniform).
/// Tenant 0 is the hottest, mirroring real multi-tenant traffic where a
/// few tenants dominate the event rate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MultiplexParams {
    /// Number of tenants (≥ 1); ids are `0..tenants`.
    pub tenants: u32,
    /// Zipf-like skew exponent: tenant `t` carries weight
    /// `1 / (t+1)^hotness`, which scales both its arrival volume and its
    /// interleave probability. `0` ⇒ uniform tenants.
    pub hotness: u32,
    /// Trace shape of the hottest tenant (tenant 0). Cooler tenants reuse
    /// it with `arrivals` scaled down by their Zipf weight (min 1), each
    /// under an independent rng stream.
    pub per_tenant: TraceParams,
}

impl Default for MultiplexParams {
    fn default() -> Self {
        MultiplexParams { tenants: 4, hotness: 1, per_tenant: TraceParams::default() }
    }
}

/// A multi-tenant event sequence: per-tenant [`Trace`] streams interleaved
/// into one global arrival order. Every tenant owns an *independent*
/// instance (its own processor pool `0..n_procs` and task-id space), so
/// demultiplexing by tenant recovers exactly the per-tenant traces.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MultiplexedTrace {
    /// Initial processor-pool size of **each** tenant's instance.
    pub n_procs: u32,
    /// Number of tenants; ids are `0..tenants`.
    pub tenants: u32,
    /// The interleaved stream: `(tenant, event)` in global arrival order.
    /// Events of one tenant appear in that tenant's original trace order.
    pub events: Vec<(u32, Event)>,
}

impl MultiplexedTrace {
    /// Demultiplexes back into one [`Trace`] per tenant (index = tenant
    /// id), preserving per-tenant event order. The round-trip property the
    /// serving daemon's determinism contract rests on: replaying tenant
    /// `t`'s demultiplexed trace through a standalone engine must agree
    /// with the daemon's engine for tenant `t` at any shard count.
    pub fn per_tenant(&self) -> Vec<Trace> {
        let mut traces: Vec<Trace> = (0..self.tenants)
            .map(|_| Trace { n_procs: self.n_procs, events: Vec::new() })
            .collect();
        for (tenant, ev) in &self.events {
            traces[*tenant as usize].events.push(ev.clone());
        }
        traces
    }

    /// Writes the interleaved stream in an extended `.tr` form with a
    /// tenant column: `tenants T`, `procs N`, then `T <tenant> <event…>`
    /// lines reusing the single-tenant event syntax.
    pub fn write<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(w, "tenants {}", self.tenants)?;
        writeln!(w, "procs {}", self.n_procs)?;
        for (tenant, ev) in &self.events {
            write!(w, "T {tenant} ")?;
            let single = Trace { n_procs: 0, events: vec![ev.clone()] };
            let mut line = Vec::new();
            single.write(&mut line)?;
            // Drop the `procs 0` header the helper emits.
            let text = String::from_utf8(line).expect("trace text is ascii");
            let body = text.lines().nth(1).expect("one event line");
            writeln!(w, "{body}")?;
        }
        Ok(())
    }
}

/// Generates a reproducible multi-tenant trace: per-tenant traces from
/// derived rng streams, interleaved with Zipf-skewed tenant hotness. All
/// randomness flows through `rng`, so `(params, seed)` pins the multiplex
/// bit-for-bit (the same contract as [`generate_trace`]).
pub fn generate_multiplexed(params: &MultiplexParams, rng: &mut Xoshiro256) -> MultiplexedTrace {
    assert!(params.tenants >= 1, "need at least one tenant");
    // Per-tenant traces from independent derived streams; the root rng
    // itself then drives the interleave choices.
    // Zipf-like weights: w_t = SCALE / (t+1)^hotness, clamped to ≥ 1 so
    // every tenant both receives arrivals and drains. hotness == 0
    // degenerates to uniform.
    const SCALE: u64 = 1 << 20;
    let weight = |t: u32| -> u64 {
        let denom = (t as u64 + 1).saturating_pow(params.hotness).max(1);
        (SCALE / denom).max(1)
    };
    let mut streams: Vec<std::vec::IntoIter<Event>> = (0..params.tenants)
        .map(|t| {
            let arrivals = ((params.per_tenant.arrivals as u64 * weight(t)) / SCALE).max(1) as u32;
            let shape = TraceParams { arrivals, ..params.per_tenant.clone() };
            let mut trng = rng.stream(t as u64);
            generate_trace(&shape, &mut trng).events.into_iter()
        })
        .collect();
    let mut alive: Vec<u32> = (0..params.tenants).collect();
    let mut total: u64 = alive.iter().map(|&t| weight(t)).sum();
    let mut events = Vec::new();
    while !alive.is_empty() {
        // Weighted draw over tenants that still have events.
        let mut r = rng.below(total);
        let mut pick = alive.len() - 1;
        for (i, &t) in alive.iter().enumerate() {
            let w = weight(t);
            if r < w {
                pick = i;
                break;
            }
            r -= w;
        }
        let tenant = alive[pick];
        match streams[tenant as usize].next() {
            Some(ev) => events.push((tenant, ev)),
            None => {
                alive.remove(pick);
                total -= weight(tenant);
            }
        }
    }
    MultiplexedTrace { n_procs: params.per_tenant.n_procs, tenants: params.tenants, events }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> TraceParams {
        TraceParams {
            n_procs: 6,
            arrivals: 64,
            churn_pct: 40,
            max_configs: 3,
            max_pins: 2,
            max_weight: 5,
            proc_events: 6,
            burst_every: 16,
            burst_len: 4,
        }
    }

    /// Applies the trace naively, asserting every event is applicable.
    fn check_applicable(trace: &Trace) {
        let mut live_procs: Vec<u32> = (0..trace.n_procs).collect();
        let mut live: Vec<(u32, usize)> = Vec::new(); // (task, n_configs)
        for ev in &trace.events {
            match ev {
                Event::Arrive { task, configs } => {
                    assert!(!live.iter().any(|(t, _)| t == task), "duplicate task {task}");
                    assert!(!configs.is_empty());
                    for (pins, w) in configs {
                        assert!(*w >= 1);
                        assert!(!pins.is_empty());
                        for p in pins {
                            assert!(live_procs.contains(p), "dead pin {p}");
                        }
                    }
                    live.push((*task, configs.len()));
                }
                Event::Depart { task } => {
                    let i = live.iter().position(|(t, _)| t == task).expect("departing live task");
                    live.swap_remove(i);
                }
                Event::Reweight { task, weights } => {
                    let &(_, k) =
                        live.iter().find(|(t, _)| t == task).expect("reweighting live task");
                    assert_eq!(weights.len(), k, "one weight per configuration");
                    assert!(weights.iter().all(|&w| w >= 1));
                }
                Event::AddProc { proc } => {
                    assert!(!live_procs.contains(proc));
                    live_procs.push(*proc);
                }
                Event::DropProc { proc } => {
                    let i = live_procs.iter().position(|p| p == proc).expect("dropping live proc");
                    live_procs.swap_remove(i);
                    assert!(!live_procs.is_empty());
                }
            }
        }
    }

    #[test]
    fn generated_traces_are_applicable_and_deterministic() {
        let p = params();
        let a = generate_trace(&p, &mut Xoshiro256::seed_from_u64(3));
        let b = generate_trace(&p, &mut Xoshiro256::seed_from_u64(3));
        assert_eq!(a, b, "same seed, same trace");
        check_applicable(&a);
        assert!(a.arrivals() > 64, "bursts add arrivals");
        assert!(a.events.iter().any(|e| matches!(e, Event::Depart { .. })));
        assert!(a.events.iter().any(|e| matches!(e, Event::AddProc { .. })));
    }

    #[test]
    fn singleproc_traces_use_distinct_singleton_pins() {
        let p = TraceParams { max_pins: 1, max_weight: 1, ..params() };
        let trace = generate_trace(&p, &mut Xoshiro256::seed_from_u64(9));
        check_applicable(&trace);
        for ev in &trace.events {
            if let Event::Arrive { configs, .. } = ev {
                let mut procs: Vec<u32> = configs.iter().map(|(pins, _)| pins[0]).collect();
                assert!(configs.iter().all(|(pins, w)| pins.len() == 1 && *w == 1));
                procs.sort_unstable();
                procs.dedup();
                assert_eq!(procs.len(), configs.len(), "distinct procs per task");
            }
        }
    }

    #[test]
    fn text_format_round_trips() {
        let trace = generate_trace(&params(), &mut Xoshiro256::seed_from_u64(12));
        let mut buf = Vec::new();
        trace.write(&mut buf).unwrap();
        let back = Trace::read(&buf[..]).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn parser_reports_malformed_lines() {
        assert!(Trace::read("".as_bytes()).is_err(), "missing header");
        assert!(Trace::read("procs 2\nprocs 3\n".as_bytes()).is_err(), "duplicate header");
        assert!(Trace::read("procs 2\narrive 0\n".as_bytes()).is_err(), "no configs");
        assert!(Trace::read("procs 2\narrive 0 5\n".as_bytes()).is_err(), "not WEIGHT:PINS");
        assert!(Trace::read("procs 2\nfrobnicate 1\n".as_bytes()).is_err(), "unknown tag");
        assert!(Trace::read("procs 2\nreweight 0\n".as_bytes()).is_err(), "empty weights");
        let ok =
            Trace::read("procs 2 # pool\n\n# comment\narrive 0 3:0,1 1:1\n".as_bytes()).unwrap();
        assert_eq!(ok.n_procs, 2);
        assert_eq!(
            ok.events,
            vec![Event::Arrive { task: 0, configs: vec![(vec![0, 1], 3), (vec![1], 1)] }]
        );
    }

    #[test]
    fn single_number_lines_reject_trailing_tokens() {
        for (text, line) in [
            ("procs 2 9\n", 1),
            ("procs 2\narrive 0 1:0\ndepart 0 7\n", 3),
            ("procs 2\naddproc 2 3\n", 2),
            ("procs 2\ndropproc 1 4\n", 2),
        ] {
            let err = Trace::read(text.as_bytes()).unwrap_err();
            assert_eq!(err.line, line, "{text:?}: {err}");
            assert!(err.msg.contains("trailing token"), "{text:?}: {err}");
        }
        // A trailing comment is not a token.
        let ok = Trace::read("procs 2 # pool\ndropproc 1 # retire\n".as_bytes()).unwrap();
        assert_eq!(ok.events, vec![Event::DropProc { proc: 1 }]);
    }

    #[test]
    fn burst_tasks_share_one_target() {
        let p = TraceParams {
            churn_pct: 0,
            proc_events: 0,
            burst_every: 8,
            burst_len: 5,
            arrivals: 8,
            ..params()
        };
        let trace = generate_trace(&p, &mut Xoshiro256::seed_from_u64(1));
        // Arrivals 9..=13 are the burst: single-config, common pin.
        let burst: Vec<&Event> = trace.events.iter().skip(8).take(5).collect();
        let first = match burst[0] {
            Event::Arrive { configs, .. } => configs[0].0[0],
            other => panic!("expected burst arrival, got {other:?}"),
        };
        for ev in burst {
            match ev {
                Event::Arrive { configs, .. } => {
                    assert_eq!(configs.len(), 1);
                    assert_eq!(configs[0].0, vec![first]);
                }
                other => panic!("expected burst arrival, got {other:?}"),
            }
        }
    }

    fn mplex_params() -> MultiplexParams {
        MultiplexParams {
            tenants: 6,
            hotness: 1,
            per_tenant: TraceParams { n_procs: 4, arrivals: 48, churn_pct: 20, ..params() },
        }
    }

    #[test]
    fn multiplexed_traces_are_deterministic_and_demux_to_applicable_tenants() {
        let p = mplex_params();
        let a = generate_multiplexed(&p, &mut Xoshiro256::seed_from_u64(11));
        let b = generate_multiplexed(&p, &mut Xoshiro256::seed_from_u64(11));
        assert_eq!(a, b, "same seed, same multiplex");
        assert_eq!(a.tenants, 6);
        let per = a.per_tenant();
        assert_eq!(per.len(), 6);
        for (t, trace) in per.iter().enumerate() {
            assert_eq!(trace.n_procs, 4);
            assert!(!trace.events.is_empty(), "tenant {t} got events");
            check_applicable(trace);
        }
        // Demux preserves per-tenant order and loses nothing.
        let total: usize = per.iter().map(|t| t.events.len()).sum();
        assert_eq!(total, a.events.len());
    }

    #[test]
    fn hotness_skews_tenant_volume_and_zero_is_uniform() {
        let hot = generate_multiplexed(&mplex_params(), &mut Xoshiro256::seed_from_u64(2));
        let per = hot.per_tenant();
        assert!(
            per[0].events.len() > 2 * per[5].events.len(),
            "tenant 0 ({}) should dominate tenant 5 ({})",
            per[0].events.len(),
            per[5].events.len()
        );
        let flat = MultiplexParams { hotness: 0, ..mplex_params() };
        let uniform = generate_multiplexed(&flat, &mut Xoshiro256::seed_from_u64(2));
        let per = uniform.per_tenant();
        let (lo, hi) = (
            per.iter().map(|t| t.arrivals()).min().unwrap(),
            per.iter().map(|t| t.arrivals()).max().unwrap(),
        );
        // Uniform weights give every tenant the same arrival budget; only
        // churn/burst randomness differs.
        assert!(hi < lo + lo, "uniform tenants stay comparable ({lo}..{hi})");
    }

    #[test]
    fn multiplexed_text_form_has_tenant_column() {
        let p = MultiplexParams {
            tenants: 2,
            hotness: 0,
            per_tenant: TraceParams {
                n_procs: 2,
                arrivals: 3,
                churn_pct: 0,
                proc_events: 0,
                burst_every: 0,
                ..TraceParams::default()
            },
        };
        let m = generate_multiplexed(&p, &mut Xoshiro256::seed_from_u64(5));
        let mut buf = Vec::new();
        m.write(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("tenants 2"));
        assert_eq!(lines.next(), Some("procs 2"));
        for line in lines {
            assert!(line.starts_with("T 0 ") || line.starts_with("T 1 "), "{line}");
        }
    }
}
