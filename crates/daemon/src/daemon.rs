//! The multi-tenant serving daemon: tenant router, shard pump,
//! backpressure accounting and SLO reporting.

use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

use rayon::prelude::*;
use semimatch_core::objective::Score;
use semimatch_gen::trace::MultiplexedTrace;
use semimatch_obs::{self as obs, catalog as metric};
use semimatch_serve::{Engine, Event, RepairPolicy, Snapshot};

use crate::config::DaemonConfig;
use crate::error::{DaemonError, Result};

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

/// One router shard: the tenants hashed onto it, pumped in admission
/// order. Shards never share tenants, so the pump parallelizes across
/// shards with no synchronization beyond the fork/join itself.
struct Shard {
    id: u32,
    tenants: Vec<Tenant>,
}

/// What one shard did during one pump.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct ShardReport {
    applied: u64,
    shed_apply_error: u64,
    budget_exhaustions: u64,
}

impl Shard {
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
        if obs::enabled() {
            let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            obs::observe(&metric::DAEMON_SHARD_ID_PUMP_NS.at(self.id), ns);
        }
        report
    }
}

/// Repair work spent so far by an engine, in migration-budget units: every
/// augmenting-path shift, accepted local-search move and from-scratch
/// resolve counts one.
fn repair_work(engine: &Engine) -> u64 {
    let c = engine.counters();
    c.shifts + c.moves + c.resolves
}

/// Monotonic daemon-wide accounting, one field per control- and
/// data-plane outcome. Published to the obs registry as `daemon.<field>`
/// counters by `Daemon::publish_metrics`.
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
    /// Events applied to tenant engines.
    pub applied: u64,
    /// Tenant-pump demotions after migration-budget exhaustion.
    pub budget_exhaustions: u64,
    /// Pump invocations.
    pub pumps: u64,
}

impl DaemonCounters {
    /// Field names and values, for generic rendering and metric export.
    pub fn fields(&self) -> [(&'static str, u64); 9] {
        [
            ("admitted", self.admitted),
            ("rejected_admissions", self.rejected_admissions),
            ("evictions", self.evictions),
            ("submitted", self.submitted),
            ("shed_queue_full", self.shed_queue_full),
            ("shed_apply_error", self.shed_apply_error),
            ("applied", self.applied),
            ("budget_exhaustions", self.budget_exhaustions),
            ("pumps", self.pumps),
        ]
    }

    /// Per-field saturating difference (work since `earlier`).
    pub fn delta(&self, earlier: &DaemonCounters) -> DaemonCounters {
        let mut out = DaemonCounters::default();
        let now = self.fields();
        let then = earlier.fields();
        let slots = [
            &mut out.admitted,
            &mut out.rejected_admissions,
            &mut out.evictions,
            &mut out.submitted,
            &mut out.shed_queue_full,
            &mut out.shed_apply_error,
            &mut out.applied,
            &mut out.budget_exhaustions,
            &mut out.pumps,
        ];
        for (slot, (now, then)) in slots.into_iter().zip(now.iter().zip(then.iter())) {
            *slot = now.1.saturating_sub(then.1);
        }
        out
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
/// * **Routing** — a tenant-id hash picks the shard at admission;
///   [`Daemon::pump`] drains every shard, in parallel on the vendored
///   work-stealing pool when more than one shard holds work.
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
/// final score is invariant under the shard count — sharding is purely a
/// throughput knob.
pub struct Daemon {
    cfg: DaemonConfig,
    shards: Vec<Shard>,
    /// tenant id → shard index, ordered for deterministic reporting.
    index: BTreeMap<u32, u32>,
    counters: DaemonCounters,
    /// Snapshot of `counters` at the last `publish_metrics`, so counter
    /// families receive deltas, not totals, on re-publish.
    published: DaemonCounters,
}

impl Daemon {
    /// A daemon with `cfg.shards` empty shards, validated config.
    pub fn new(cfg: DaemonConfig) -> Result<Daemon> {
        cfg.validate()?;
        let shards = (0..cfg.shards).map(|id| Shard { id, tenants: Vec::new() }).collect();
        Ok(Daemon {
            cfg,
            shards,
            index: BTreeMap::new(),
            counters: DaemonCounters::default(),
            published: DaemonCounters::default(),
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
        let shard = self.shard_of(tenant);
        self.shards[shard as usize].tenants.push(Tenant {
            id: tenant,
            engine,
            queue: VecDeque::new(),
            applied: 0,
            shed_queue_full: 0,
            shed_apply_error: 0,
            budget_exhaustions: 0,
        });
        self.index.insert(tenant, shard);
        self.counters.admitted += 1;
        Ok(shard)
    }

    /// Evicts a live tenant, returning its final status. Queued events
    /// that were never pumped are discarded (they are reflected in the
    /// returned status's `queue_depth`).
    pub fn evict(&mut self, tenant: u32) -> Result<TenantStatus> {
        let status = self.status(tenant).ok_or(DaemonError::UnknownTenant(tenant))?;
        let shard = self.index.remove(&tenant).expect("status() checked liveness");
        let tenants = &mut self.shards[shard as usize].tenants;
        let pos = tenants.iter().position(|t| t.id == tenant).expect("index points at shard");
        tenants.remove(pos);
        self.counters.evictions += 1;
        Ok(status)
    }

    /// Enqueues one event for a live tenant. Returns `Ok(true)` when
    /// queued, `Ok(false)` when shed because the tenant's bounded queue is
    /// full (backpressure — the caller may retry after a pump).
    pub fn submit(&mut self, tenant: u32, ev: Event) -> Result<bool> {
        let capacity = self.cfg.queue_capacity;
        let t = self.tenant_mut(tenant).ok_or(DaemonError::UnknownTenant(tenant))?;
        if t.queue.len() >= capacity {
            t.shed_queue_full += 1;
            self.counters.shed_queue_full += 1;
            return Ok(false);
        }
        t.queue.push_back(ev);
        self.counters.submitted += 1;
        Ok(true)
    }

    /// Drains every tenant queue, shards in parallel on the work-stealing
    /// pool (when more than one shard holds queued work). Engines apply
    /// their tenant's events in submission order; apply rejections are
    /// shed with accounting, never fatal.
    pub fn pump(&mut self) -> PumpReport {
        let start = Instant::now();
        let cfg = self.cfg;
        let busy = self.shards.iter().filter(|s| s.tenants.iter().any(|t| !t.queue.is_empty()));
        let reports: Vec<ShardReport> = if busy.count() > 1 {
            // Move the shards through the pool by value: each worker owns
            // its shard outright, results come back in shard order.
            let shards = std::mem::take(&mut self.shards);
            let pairs: Vec<(Shard, ShardReport)> = shards
                .into_par_iter()
                .map(|mut s| {
                    let r = s.pump(&cfg);
                    (s, r)
                })
                .collect();
            let mut reports = Vec::with_capacity(pairs.len());
            self.shards = pairs
                .into_iter()
                .map(|(s, r)| {
                    reports.push(r);
                    s
                })
                .collect();
            reports
        } else {
            self.shards.iter_mut().map(|s| s.pump(&cfg)).collect()
        };
        let mut out = PumpReport::default();
        for r in reports {
            out.applied += r.applied;
            out.shed_apply_error += r.shed_apply_error;
            out.budget_exhaustions += r.budget_exhaustions;
        }
        self.counters.applied += out.applied;
        self.counters.shed_apply_error += out.shed_apply_error;
        self.counters.budget_exhaustions += out.budget_exhaustions;
        self.counters.pumps += 1;
        out.seconds = start.elapsed().as_secs_f64();
        if obs::enabled() {
            let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            obs::observe(&metric::DAEMON_PUMP_NS, ns);
        }
        out
    }

    /// A live tenant's service report, or `None` if not admitted.
    pub fn status(&self, tenant: u32) -> Option<TenantStatus> {
        let shard = *self.index.get(&tenant)?;
        let t = self.shards[shard as usize].tenants.iter().find(|t| t.id == tenant)?;
        let score = t.engine.score(t.engine.config().objective);
        let lower_bound = t.engine.lower_bound_estimate();
        let gap = t.engine.gap();
        Some(TenantStatus {
            tenant,
            shard,
            live_tasks: t.engine.n_live_tasks(),
            live_procs: t.engine.n_live_procs(),
            queue_depth: t.queue.len(),
            applied: t.applied,
            score,
            lower_bound,
            gap,
            slo_ok: gap.0 <= self.cfg.slo_gap,
            shed: t.shed_queue_full + t.shed_apply_error,
            budget_exhaustions: t.budget_exhaustions,
        })
    }

    /// Every live tenant's status, ascending by tenant id.
    pub fn statuses(&self) -> Vec<TenantStatus> {
        self.index.keys().map(|&t| self.status(t).expect("indexed tenant is live")).collect()
    }

    /// Compacts a live tenant back into the static instance world (the
    /// engine's [`Snapshot`] seam), for audits and independent gap
    /// recomputation.
    pub fn snapshot_of(&self, tenant: u32) -> Option<Snapshot> {
        let shard = *self.index.get(&tenant)?;
        let t = self.shards[shard as usize].tenants.iter().find(|t| t.id == tenant)?;
        Some(t.engine.snapshot())
    }

    /// Overrides one live tenant's repair policy (per-tenant service
    /// tiers: an important tenant can run `Eager` while the fleet default
    /// stays `Lazy`). Returns the policy previously in force.
    pub fn set_tenant_policy(&mut self, tenant: u32, policy: RepairPolicy) -> Result<RepairPolicy> {
        let t = self.tenant_mut(tenant).ok_or(DaemonError::UnknownTenant(tenant))?;
        t.engine.set_policy(policy).map_err(|source| DaemonError::Engine { tenant, source })
    }

    /// Admits every tenant of a multiplexed trace and streams its events
    /// through the router, pumping after every `batch` accepted submits
    /// (and once at the end). The finite-workload entry point the CLI and
    /// the serve-scale bench drive; a long-running front end would call
    /// `submit`/`pump` itself.
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
    /// telemetry is off). Counters are published as deltas since the
    /// previous publish, so repeated publishes never double-count.
    pub fn publish_metrics(&mut self) {
        if !obs::enabled() {
            return;
        }
        let clamp = |v: u128| v.min(i64::MAX as u128) as i64;
        let mut queue_depth = 0usize;
        let mut violations = 0i64;
        for st in self.statuses() {
            let t = st.tenant;
            obs::gauge_set(&metric::DAEMON_TENANT_ID_GAP.at(t), clamp(st.gap.0));
            obs::gauge_set(&metric::DAEMON_TENANT_ID_SCORE.at(t), clamp(st.score.0));
            obs::gauge_set(&metric::DAEMON_TENANT_ID_LOWER_BOUND.at(t), clamp(st.lower_bound.0));
            obs::gauge_set(&metric::DAEMON_TENANT_ID_QUEUE_DEPTH.at(t), st.queue_depth as i64);
            obs::observe(&metric::DAEMON_TENANT_GAP, st.gap.0.min(u64::MAX as u128) as u64);
            queue_depth += st.queue_depth;
            violations += i64::from(!st.slo_ok);
        }
        obs::gauge_set(&metric::DAEMON_TENANTS, self.index.len() as i64);
        obs::gauge_set(&metric::DAEMON_QUEUE_DEPTH, queue_depth as i64);
        obs::gauge_set(&metric::DAEMON_SLO_VIOLATIONS, violations);
        let delta = self.counters.delta(&self.published);
        for (name, v) in delta.fields() {
            obs::counter_add(&metric::DAEMON_COUNTER.at(name), v);
        }
        self.published = self.counters;
    }

    fn tenant_mut(&mut self, tenant: u32) -> Option<&mut Tenant> {
        let shard = *self.index.get(&tenant)?;
        self.shards[shard as usize].tenants.iter_mut().find(|t| t.id == tenant)
    }
}
