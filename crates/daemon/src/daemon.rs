//! The multi-tenant serving daemon: tenant router, shard pump,
//! backpressure accounting and SLO reporting.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rayon::prelude::*;
use semimatch_core::objective::Score;
use semimatch_gen::trace::MultiplexedTrace;
use semimatch_obs::catalog::{self as metric, Family};
use semimatch_obs::{self as obs, Collecting, Counter, Gauge, Histogram};
use semimatch_serve::{Engine, Event, RepairPolicy, Snapshot};

use crate::config::DaemonConfig;
use crate::error::{DaemonError, Result};

/// Engine time, summed over shards, that each of the previous two pumps
/// must have taken before [`Daemon::pump`] forks its shards onto the
/// pool; otherwise every shard pumps on the calling thread. Two pumps, so
/// that one pump slowed by a page-fault burst or a preemption does not
/// fork the next: with the previous pump alone, 5 of 30 placement-only
/// `semimatch serve` runs forked 1–3 of their 183 pumps; with two, none
/// did. Measured on a 2-core host with 2 shards, 64 tenants and 512-event
/// batches:
///
/// * a placement-only pump takes 0.12–0.15 ms inline. Called from outside
///   the pool (`semimatch serve`), forking every such pump ran 0.88–1.15M
///   events/s against 1.35–1.54M inline. Called from a worker of a
///   2-thread pool, where a fork is one stolen `join` half, forking ran
///   about 4% faster (medians 3.43M against 3.29M events/s);
/// * a uniform-hotness `lazy:8` pump carries about 11 ms of engine work,
///   and 2 forked shards ran it about 1.5× faster than 1 shard.
///
/// 1 ms sits about 7× above the first and 11× below the second.
const FORK_MIN_ENGINE_NS: u64 = 1_000_000;

/// One admitted tenant: its live engine, its bounded ingest queue and its
/// backpressure accounting.
struct Tenant {
    id: u32,
    engine: Engine,
    queue: VecDeque<Event>,
    /// Events applied to the engine (successful `Engine::apply` calls).
    applied: u64,
    /// Submits rejected because the queue was full.
    shed_queue_full: u64,
    /// Queued events the engine rejected at apply time (malformed for the
    /// tenant's live state); dropped with accounting, never fatal.
    shed_apply_error: u64,
    /// Pumps in which this tenant ran out of migration budget and was
    /// demoted to pure greedy placement for the remainder of the batch.
    budget_exhaustions: u64,
}

impl Tenant {
    fn status(&self, shard: u32, slo_gap: u128) -> TenantStatus {
        let score = self.engine.score(self.engine.config().objective);
        let lower_bound = self.engine.lower_bound_estimate();
        let gap = Score(score.0.saturating_sub(lower_bound.0));
        TenantStatus {
            tenant: self.id,
            shard,
            live_tasks: self.engine.n_live_tasks(),
            live_procs: self.engine.n_live_procs(),
            queue_depth: self.queue.len(),
            applied: self.applied,
            score,
            lower_bound,
            gap,
            slo_ok: gap.0 <= slo_gap,
            shed: self.shed_queue_full + self.shed_apply_error,
            budget_exhaustions: self.budget_exhaustions,
        }
    }
}

/// One router shard: the tenants hashed onto it, pumped in the order
/// they sit in `tenants`. Shards never share tenants, so a forked pump
/// needs no synchronization beyond the fork/join itself.
struct Shard {
    id: u32,
    tenants: Vec<Tenant>,
}

/// Where a live tenant sits: `Daemon::shards[shard].tenants[pos]`.
#[derive(Clone, Copy, Debug)]
struct Slot {
    shard: usize,
    pos: usize,
}

/// What one shard did during one pump.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct ShardReport {
    applied: u64,
    shed_apply_error: u64,
    budget_exhaustions: u64,
    /// Time spent draining the shard, nanoseconds.
    engine_ns: u64,
}

impl Shard {
    fn has_work(&self) -> bool {
        self.tenants.iter().any(|t| !t.queue.is_empty())
    }

    /// Drains every tenant queue on this shard, metering each tenant's
    /// repair work against the migration budget. Per-tenant outcomes
    /// depend only on that tenant's engine state and queued events, so
    /// they are invariant under the daemon's shard count.
    fn pump(&mut self, cfg: &DaemonConfig) -> ShardReport {
        let mut report = ShardReport::default();
        let start = Instant::now();
        for tenant in &mut self.tenants {
            let before = repair_work(&tenant.engine);
            let mut demoted_from: Option<RepairPolicy> = None;
            while let Some(ev) = tenant.queue.pop_front() {
                if tenant.engine.apply(&ev).is_err() {
                    tenant.shed_apply_error += 1;
                    report.shed_apply_error += 1;
                    continue;
                }
                tenant.applied += 1;
                report.applied += 1;
                if demoted_from.is_none()
                    && repair_work(&tenant.engine) - before > cfg.migration_budget
                {
                    // Migration budget exhausted: reject further repair
                    // work (not further events) for the rest of this pump.
                    let old = tenant
                        .engine
                        .set_policy(RepairPolicy::PlacementOnly)
                        .expect("placement-only policy is always valid");
                    demoted_from = Some(old);
                    tenant.budget_exhaustions += 1;
                    report.budget_exhaustions += 1;
                }
            }
            if let Some(old) = demoted_from {
                tenant.engine.set_policy(old).expect("restoring a policy that was in force");
            }
        }
        report.engine_ns = nanos(start.elapsed());
        report
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Repair work spent so far by an engine, in migration-budget units: every
/// augmenting-path shift, accepted local-search move and from-scratch
/// resolve counts one.
fn repair_work(engine: &Engine) -> u64 {
    let c = engine.counters();
    c.shifts + c.moves + c.resolves
}

/// The four `daemon.tenant.<id>.*` gauges of one tenant.
struct TenantGauges {
    gap: Arc<Gauge>,
    score: Arc<Gauge>,
    lower_bound: Arc<Gauge>,
    queue_depth: Arc<Gauge>,
}

/// Every metric handle [`Daemon::pump`] and [`Daemon::publish_metrics`]
/// write, resolved against one recorder so that no write looks a series
/// up by name. Resolved on the first pump or publish under a recorder,
/// dropped by every admit and evict (the tenant and shard rows follow the
/// tenant set), and resolved again when a different recorder is
/// installed.
struct Handles {
    /// The recorder the handles belong to. Held strongly: a freed
    /// recorder's address could be reused by its successor and pass a
    /// pointer comparison.
    recorder: Arc<Collecting>,
    /// One entry per live tenant, in `Daemon::index` order.
    tenants: Vec<TenantGauges>,
    tenant_gap: Arc<Histogram>,
    tenants_live: Arc<Gauge>,
    queue_depth: Arc<Gauge>,
    slo_violations: Arc<Gauge>,
    /// One `daemon.<counter>` per [`DaemonCounters::fields`] entry, in its
    /// order.
    counters: [Arc<Counter>; DaemonCounters::FIELDS],
    pump_ns: Arc<Histogram>,
    /// One `daemon.shard.<id>.pump_ns` per shard, in `Daemon::shards`
    /// order.
    shard_pump_ns: Vec<Arc<Histogram>>,
}

impl Handles {
    /// The cached handles when they belong to the installed recorder,
    /// freshly resolved ones otherwise; `None` when no recorder is
    /// installed.
    fn current<'a>(
        cache: &'a mut Option<Handles>,
        index: &BTreeMap<u32, Slot>,
        shards: &[Shard],
    ) -> Option<&'a Handles> {
        let recorder = obs::recorder()?;
        if !cache.as_ref().is_some_and(|h| Arc::ptr_eq(&h.recorder, &recorder)) {
            *cache = Some(Handles::resolve(recorder, index, shards));
        }
        cache.as_ref()
    }

    fn resolve(recorder: Arc<Collecting>, index: &BTreeMap<u32, Slot>, shards: &[Shard]) -> Self {
        let reg = recorder.registry();
        let gauge = |family: &Family<Gauge>, tenant: u32| reg.resolve_gauge(&family.at(tenant));
        let tenants = index
            .keys()
            .map(|&t| TenantGauges {
                gap: gauge(&metric::DAEMON_TENANT_ID_GAP, t),
                score: gauge(&metric::DAEMON_TENANT_ID_SCORE, t),
                lower_bound: gauge(&metric::DAEMON_TENANT_ID_LOWER_BOUND, t),
                queue_depth: gauge(&metric::DAEMON_TENANT_ID_QUEUE_DEPTH, t),
            })
            .collect();
        let counters = DaemonCounters::default()
            .fields()
            .map(|(name, _)| reg.resolve_counter(&metric::DAEMON_COUNTER.at(name)));
        let shard_pump_ns = shards
            .iter()
            .map(|s| reg.resolve_histogram(&metric::DAEMON_SHARD_ID_PUMP_NS.at(s.id)))
            .collect();
        Handles {
            tenants,
            tenant_gap: reg.resolve_histogram(&metric::DAEMON_TENANT_GAP),
            tenants_live: reg.resolve_gauge(&metric::DAEMON_TENANTS),
            queue_depth: reg.resolve_gauge(&metric::DAEMON_QUEUE_DEPTH),
            slo_violations: reg.resolve_gauge(&metric::DAEMON_SLO_VIOLATIONS),
            counters,
            pump_ns: reg.resolve_histogram(&metric::DAEMON_PUMP_NS),
            shard_pump_ns,
            recorder,
        }
    }
}

/// Monotonic daemon-wide accounting, one field per control- and
/// data-plane outcome. Published to the obs registry as `daemon.<field>`
/// counters by `Daemon::publish_metrics`. Every accepted submit ends in
/// exactly one of `applied`, `shed_apply_error` and
/// `discarded_on_evict`, or is still queued.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DaemonCounters {
    /// Tenants admitted.
    pub admitted: u64,
    /// Admissions rejected by capacity control.
    pub rejected_admissions: u64,
    /// Tenants evicted.
    pub evictions: u64,
    /// Events accepted into a tenant queue.
    pub submitted: u64,
    /// Submits shed because the tenant queue was full.
    pub shed_queue_full: u64,
    /// Queued events shed because the tenant's engine rejected them.
    pub shed_apply_error: u64,
    /// Queued events dropped, never applied, because their tenant was
    /// evicted.
    pub discarded_on_evict: u64,
    /// Events applied to tenant engines.
    pub applied: u64,
    /// Tenant-pump demotions after migration-budget exhaustion.
    pub budget_exhaustions: u64,
    /// Pump invocations.
    pub pumps: u64,
    /// Pumps that forked their shards onto the pool.
    pub forked_pumps: u64,
}

impl DaemonCounters {
    /// Number of fields.
    const FIELDS: usize = 11;

    /// Field names and values, for generic rendering and metric export.
    pub fn fields(&self) -> [(&'static str, u64); Self::FIELDS] {
        [
            ("admitted", self.admitted),
            ("rejected_admissions", self.rejected_admissions),
            ("evictions", self.evictions),
            ("submitted", self.submitted),
            ("shed_queue_full", self.shed_queue_full),
            ("shed_apply_error", self.shed_apply_error),
            ("discarded_on_evict", self.discarded_on_evict),
            ("applied", self.applied),
            ("budget_exhaustions", self.budget_exhaustions),
            ("pumps", self.pumps),
            ("forked_pumps", self.forked_pumps),
        ]
    }

    /// Total events shed on either path (full queue or apply rejection).
    pub fn shed(&self) -> u64 {
        self.shed_queue_full + self.shed_apply_error
    }
}

/// A tenant's live service report: assignment quality against its SLO,
/// queue depth and backpressure history. All score fields are in the
/// tenant engine's configured objective units.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TenantStatus {
    /// The tenant id.
    pub tenant: u32,
    /// The shard the tenant is routed to.
    pub shard: u32,
    /// Live tasks currently placed.
    pub live_tasks: usize,
    /// Live processors in the tenant's pool.
    pub live_procs: usize,
    /// Events waiting in the tenant's ingest queue.
    pub queue_depth: usize,
    /// Events applied to the tenant's engine so far.
    pub applied: u64,
    /// Live objective score of the tenant's assignment.
    pub score: Score,
    /// Live balanced lower bound (`Engine::lower_bound_estimate`).
    pub lower_bound: Score,
    /// `score − lower_bound` (saturating): the live optimality gap.
    pub gap: Score,
    /// Whether the gap is within the configured SLO.
    pub slo_ok: bool,
    /// Events shed for this tenant (full queue + apply rejections).
    pub shed: u64,
    /// Pumps in which this tenant exhausted its migration budget.
    pub budget_exhaustions: u64,
}

/// What one [`Daemon::pump`] did, summed over shards.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PumpReport {
    /// Events applied across all tenants.
    pub applied: u64,
    /// Queued events shed because an engine rejected them.
    pub shed_apply_error: u64,
    /// Tenants demoted after exhausting their migration budget.
    pub budget_exhaustions: u64,
    /// Wall-clock seconds the pump took.
    pub seconds: f64,
}

/// The multi-tenant serving daemon: N independent [`Engine`]s behind a
/// sharded event router.
///
/// * **Routing** — a tenant-id hash picks the shard at admission, and a
///   shard exists while a tenant is on it. [`Daemon::pump`] drains every
///   shard: on the calling thread, or forked onto the vendored
///   work-stealing pool when the last two pumps' engine times say a
///   fork pays.
/// * **Backpressure** — per-tenant queues are bounded
///   ([`DaemonConfig::queue_capacity`]); a submit to a full queue is shed
///   with accounting. Per-pump repair work is metered against
///   [`DaemonConfig::migration_budget`]; a tenant that exhausts it keeps
///   *placing* events but stops *migrating* until the next pump.
/// * **Admission control** — at most [`DaemonConfig::max_tenants`] live
///   tenants; excess admissions are rejected and counted.
/// * **SLOs** — every tenant continuously reports score, lower bound and
///   gap ([`TenantStatus`]); [`Daemon::publish_metrics`] pushes them
///   through `semimatch-obs`.
///
/// **Determinism contract:** per-tenant engines are independent and each
/// tenant's events are applied in submission order, so every tenant's
/// final score is invariant under the shard count and under whether a
/// pump forks — both are purely throughput knobs.
pub struct Daemon {
    cfg: DaemonConfig,
    /// The shards that hold at least one tenant, in no particular order.
    shards: Vec<Shard>,
    /// tenant id → where the tenant sits, ordered for deterministic
    /// reporting.
    index: BTreeMap<u32, Slot>,
    counters: DaemonCounters,
    /// Snapshot of `counters` at the last `publish_metrics`, so counter
    /// families receive deltas, not totals, on re-publish.
    published: DaemonCounters,
    /// Engine time of the last two pumps, each summed over shards,
    /// nanoseconds, oldest first.
    last_engine_ns: [u64; 2],
    /// Metric handles, once a pump or publish has run under a recorder.
    handles: Option<Handles>,
}

impl Daemon {
    /// A daemon with no tenants and a validated config. Shards are created
    /// as tenants land on them, so the shard count costs no memory.
    pub fn new(cfg: DaemonConfig) -> Result<Daemon> {
        cfg.validate()?;
        Ok(Daemon {
            cfg,
            shards: Vec::new(),
            index: BTreeMap::new(),
            counters: DaemonCounters::default(),
            published: DaemonCounters::default(),
            last_engine_ns: [0; 2],
            handles: None,
        })
    }

    /// The daemon configuration.
    pub fn config(&self) -> &DaemonConfig {
        &self.cfg
    }

    /// Live tenants.
    pub fn n_tenants(&self) -> usize {
        self.index.len()
    }

    /// Monotonic daemon-wide counters.
    pub fn counters(&self) -> DaemonCounters {
        self.counters
    }

    /// The shard tenant id `tenant` routes to (splitmix64 of the id).
    pub fn shard_of(&self, tenant: u32) -> u32 {
        let mut x = (tenant as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        (x % self.cfg.shards as u64) as u32
    }

    /// Admits a new tenant with an empty engine over the initial pool
    /// `0..n_procs`, subject to capacity control. Returns the shard the
    /// tenant was routed to.
    pub fn admit(&mut self, tenant: u32, n_procs: u32) -> Result<u32> {
        if self.index.contains_key(&tenant) {
            return Err(DaemonError::TenantExists(tenant));
        }
        if self.index.len() >= self.cfg.max_tenants {
            self.counters.rejected_admissions += 1;
            return Err(DaemonError::AtCapacity { limit: self.cfg.max_tenants });
        }
        let engine = Engine::new(self.cfg.engine, n_procs)
            .map_err(|source| DaemonError::Engine { tenant, source })?;
        let id = self.shard_of(tenant);
        let shard = match self.shards.iter().position(|s| s.id == id) {
            Some(shard) => shard,
            None => {
                self.shards.push(Shard { id, tenants: Vec::new() });
                self.shards.len() - 1
            }
        };
        let tenants = &mut self.shards[shard].tenants;
        self.index.insert(tenant, Slot { shard, pos: tenants.len() });
        tenants.push(Tenant {
            id: tenant,
            engine,
            queue: VecDeque::new(),
            applied: 0,
            shed_queue_full: 0,
            shed_apply_error: 0,
            budget_exhaustions: 0,
        });
        self.handles = None;
        self.counters.admitted += 1;
        Ok(id)
    }

    /// Evicts a live tenant, returning its final status. Queued events
    /// that were never pumped are discarded: the returned status's
    /// `queue_depth` and [`DaemonCounters::discarded_on_evict`] count them.
    pub fn evict(&mut self, tenant: u32) -> Result<TenantStatus> {
        let Slot { shard, pos } =
            self.index.remove(&tenant).ok_or(DaemonError::UnknownTenant(tenant))?;
        let id = self.shards[shard].id;
        let tenants = &mut self.shards[shard].tenants;
        let gone = tenants.swap_remove(pos);
        if let Some(moved) = tenants.get(pos) {
            self.index.get_mut(&moved.id).expect("shard tenants are indexed").pos = pos;
        }
        if tenants.is_empty() {
            self.shards.swap_remove(shard);
            if let Some(moved) = self.shards.get(shard) {
                for t in &moved.tenants {
                    self.index.get_mut(&t.id).expect("shard tenants are indexed").shard = shard;
                }
            }
        }
        self.handles = None;
        self.counters.discarded_on_evict += gone.queue.len() as u64;
        self.counters.evictions += 1;
        Ok(gone.status(id, self.cfg.slo_gap))
    }

    /// Enqueues one event for a live tenant. Returns `Ok(true)` when
    /// queued, `Ok(false)` when shed because the tenant's bounded queue is
    /// full (backpressure — the caller may retry after a pump).
    pub fn submit(&mut self, tenant: u32, ev: Event) -> Result<bool> {
        let capacity = self.cfg.queue_capacity;
        let slot = self.index.get(&tenant).ok_or(DaemonError::UnknownTenant(tenant))?;
        let t = &mut self.shards[slot.shard].tenants[slot.pos];
        if t.queue.len() >= capacity {
            t.shed_queue_full += 1;
            self.counters.shed_queue_full += 1;
            return Ok(false);
        }
        t.queue.push_back(ev);
        self.counters.submitted += 1;
        Ok(true)
    }

    /// Drains every tenant queue. Engines apply their tenant's events in
    /// submission order; apply rejections are shed with accounting, never
    /// fatal.
    ///
    /// The shards fork onto the work-stealing pool only when at least two
    /// hold queued work, the pool has at least two workers, and each of
    /// the last two pumps spent at least 1 ms in the engines, summed over
    /// shards (`FORK_MIN_ENGINE_NS`, measured so that placement-only
    /// pumps stay inline and repair-heavy ones fork). Otherwise every
    /// shard pumps on the calling thread, in turn. Either way each
    /// tenant's outcome is the same.
    pub fn pump(&mut self) -> PumpReport {
        let start = Instant::now();
        let cfg = self.cfg;
        let fork = self.last_engine_ns.iter().all(|&ns| ns >= FORK_MIN_ENGINE_NS)
            && self.shards.iter().filter(|s| s.has_work()).count() >= 2
            && rayon::current_num_threads() >= 2;
        let reports: Vec<ShardReport> = if fork {
            // Move the shards through the pool by value: each worker owns
            // its shard outright, results come back in shard order.
            let pairs: Vec<(Shard, ShardReport)> = std::mem::take(&mut self.shards)
                .into_par_iter()
                .map(|mut s| {
                    let r = s.pump(&cfg);
                    (s, r)
                })
                .collect();
            let reports;
            (self.shards, reports) = pairs.into_iter().unzip();
            reports
        } else {
            self.shards.iter_mut().map(|s| s.pump(&cfg)).collect()
        };
        let mut out = PumpReport::default();
        for r in &reports {
            out.applied += r.applied;
            out.shed_apply_error += r.shed_apply_error;
            out.budget_exhaustions += r.budget_exhaustions;
        }
        self.last_engine_ns = [self.last_engine_ns[1], reports.iter().map(|r| r.engine_ns).sum()];
        self.counters.applied += out.applied;
        self.counters.shed_apply_error += out.shed_apply_error;
        self.counters.budget_exhaustions += out.budget_exhaustions;
        self.counters.pumps += 1;
        self.counters.forked_pumps += u64::from(fork);
        let elapsed = start.elapsed();
        out.seconds = elapsed.as_secs_f64();
        if obs::enabled() {
            if let Some(h) = Handles::current(&mut self.handles, &self.index, &self.shards) {
                for (histogram, r) in h.shard_pump_ns.iter().zip(&reports) {
                    histogram.observe(r.engine_ns);
                }
                h.pump_ns.observe(nanos(elapsed));
            }
        }
        out
    }

    /// A live tenant's service report, or `None` if not admitted.
    pub fn status(&self, tenant: u32) -> Option<TenantStatus> {
        self.index.get(&tenant).map(|&slot| self.status_at(slot))
    }

    /// Every live tenant's status, ascending by tenant id.
    pub fn statuses(&self) -> Vec<TenantStatus> {
        self.index.values().map(|&slot| self.status_at(slot)).collect()
    }

    fn status_at(&self, slot: Slot) -> TenantStatus {
        let shard = &self.shards[slot.shard];
        shard.tenants[slot.pos].status(shard.id, self.cfg.slo_gap)
    }

    /// Compacts a live tenant back into the static instance world (the
    /// engine's [`Snapshot`] seam), for audits and independent gap
    /// recomputation.
    pub fn snapshot_of(&self, tenant: u32) -> Option<Snapshot> {
        let slot = self.index.get(&tenant)?;
        Some(self.shards[slot.shard].tenants[slot.pos].engine.snapshot())
    }

    /// Overrides one live tenant's repair policy (per-tenant service
    /// tiers: an important tenant can run `Eager` while the fleet default
    /// stays `Lazy`). Returns the policy previously in force.
    pub fn set_tenant_policy(&mut self, tenant: u32, policy: RepairPolicy) -> Result<RepairPolicy> {
        let slot = self.index.get(&tenant).ok_or(DaemonError::UnknownTenant(tenant))?;
        let engine = &mut self.shards[slot.shard].tenants[slot.pos].engine;
        engine.set_policy(policy).map_err(|source| DaemonError::Engine { tenant, source })
    }

    /// Admits every tenant of a multiplexed trace and streams its events
    /// through the router, pumping after every `batch` accepted submits
    /// (and once at the end). The finite-workload entry point the CLI
    /// drives; a long-running front end would call `submit`/`pump` itself.
    pub fn run(&mut self, trace: &MultiplexedTrace, batch: usize) -> Result<()> {
        let batch = batch.max(1);
        for tenant in 0..trace.tenants {
            self.admit(tenant, trace.n_procs)?;
        }
        let mut queued = 0usize;
        for (tenant, ev) in &trace.events {
            if self.submit(*tenant, ev.clone())? {
                queued += 1;
            }
            if queued >= batch {
                self.pump();
                queued = 0;
            }
        }
        if queued > 0 {
            self.pump();
        }
        Ok(())
    }

    /// Publishes the per-tenant, fleet and [`DaemonCounters`] rows of the
    /// `daemon.*` metric catalog to the installed obs recorder (no-op when
    /// telemetry is off), through handles resolved once per recorder and
    /// tenant set. Counters are published as deltas since the previous
    /// publish, so repeated publishes never double-count.
    pub fn publish_metrics(&mut self) {
        if !obs::enabled() {
            return;
        }
        let Some(h) = Handles::current(&mut self.handles, &self.index, &self.shards) else {
            return;
        };
        let clamp = |v: u128| i64::try_from(v).unwrap_or(i64::MAX);
        let mut queue_depth = 0usize;
        let mut violations = 0i64;
        for (slot, gauges) in self.index.values().zip(&h.tenants) {
            let shard = &self.shards[slot.shard];
            let st = shard.tenants[slot.pos].status(shard.id, self.cfg.slo_gap);
            gauges.gap.set(clamp(st.gap.0));
            gauges.score.set(clamp(st.score.0));
            gauges.lower_bound.set(clamp(st.lower_bound.0));
            gauges.queue_depth.set(st.queue_depth as i64);
            h.tenant_gap.observe(u64::try_from(st.gap.0).unwrap_or(u64::MAX));
            queue_depth += st.queue_depth;
            violations += i64::from(!st.slo_ok);
        }
        h.tenants_live.set(self.index.len() as i64);
        h.queue_depth.set(queue_depth as i64);
        h.slo_violations.set(violations);
        let (now, then) = (self.counters.fields(), self.published.fields());
        for (counter, ((_, now), (_, then))) in h.counters.iter().zip(now.into_iter().zip(then)) {
            counter.add(now - then);
        }
        self.published = self.counters;
    }
}
