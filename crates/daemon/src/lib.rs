//! # semimatch-daemon
//!
//! The multi-tenant serving daemon: the deployable layer between the
//! single-instance [`semimatch_serve::Engine`] and production traffic.
//!
//! One engine repairs one instance; real serving traffic is many
//! independent tenants × high event rates. This crate owns N engines
//! behind a sharded event router and composes the rest of the stack into
//! a serving surface:
//!
//! * [`Daemon`] — admission control, tenant-id-hash → shard routing,
//!   bounded per-tenant ingest queues, and a batched [`Daemon::pump`]
//!   that drains the shards on the calling thread, or forks them onto
//!   the vendored work-stealing pool when the last two pumps' engine
//!   times (each at least 1 ms) say the fork pays;
//! * **backpressure** — a full tenant queue sheds submits with
//!   accounting; a per-pump *migration budget* caps how much repair work
//!   (shifts, moves, resolves) one tenant may consume before being
//!   demoted to `RepairPolicy::PlacementOnly` for the rest of the batch;
//! * **live SLOs** — every tenant continuously reports score, lower
//!   bound and optimality gap ([`TenantStatus`]), checked against a
//!   configurable gap SLO and published through `semimatch-obs` (the
//!   `daemon.*` rows of its metric catalog);
//! * **determinism** — tenant engines are independent and per-tenant
//!   event order is preserved, so every tenant's final score is invariant
//!   under the shard count and under whether a pump forks.
//!
//! Workloads come from [`semimatch_gen::trace::generate_multiplexed`]
//! (per-tenant traces interleaved with Zipf-skewed tenant hotness); the
//! `semimatch serve` CLI subcommand drives [`Daemon::run`] over them.
//!
//! ```
//! use semimatch_daemon::{Daemon, DaemonConfig};
//! use semimatch_gen::rng::Xoshiro256;
//! use semimatch_gen::trace::{generate_multiplexed, MultiplexParams};
//!
//! let params = MultiplexParams { tenants: 3, ..MultiplexParams::default() };
//! let trace = generate_multiplexed(&params, &mut Xoshiro256::seed_from_u64(7));
//! let mut daemon = Daemon::new(DaemonConfig { shards: 2, ..DaemonConfig::default() }).unwrap();
//! daemon.run(&trace, 64).unwrap();
//! for st in daemon.statuses() {
//!     assert!(st.score.0 >= st.lower_bound.0);
//!     assert_eq!(st.gap.0, st.score.0 - st.lower_bound.0);
//! }
//! ```

#![warn(missing_docs)]

mod config;
mod daemon;
mod error;

pub use config::DaemonConfig;
pub use daemon::{Daemon, DaemonCounters, PumpReport, TenantStatus};
pub use error::{DaemonError, Result};

// Re-exported so daemon embedders need only this crate for the full
// tenant-serving surface.
pub use semimatch_gen::trace::{generate_multiplexed, MultiplexParams, MultiplexedTrace};
pub use semimatch_serve::{Engine, EngineConfig, Event, RepairPolicy};

#[cfg(test)]
mod tests {
    use semimatch_gen::rng::Xoshiro256;
    use semimatch_gen::trace::{generate_multiplexed, MultiplexParams, TraceParams};
    use semimatch_serve::RepairPolicy;

    use super::*;

    fn small_trace(tenants: u32) -> MultiplexedTrace {
        let params = MultiplexParams {
            tenants,
            hotness: 1,
            per_tenant: TraceParams {
                n_procs: 4,
                arrivals: 40,
                churn_pct: 20,
                max_configs: 3,
                max_pins: 2,
                max_weight: 6,
                proc_events: 2,
                burst_every: 0,
                burst_len: 0,
            },
        };
        generate_multiplexed(&params, &mut Xoshiro256::seed_from_u64(21))
    }

    #[test]
    fn admission_control_rejects_and_accounts() {
        let cfg = DaemonConfig { max_tenants: 2, ..DaemonConfig::default() };
        let mut d = Daemon::new(cfg).unwrap();
        d.admit(0, 4).unwrap();
        d.admit(1, 4).unwrap();
        assert!(matches!(d.admit(2, 4), Err(DaemonError::AtCapacity { limit: 2 })));
        assert!(matches!(d.admit(1, 4), Err(DaemonError::TenantExists(1))));
        assert_eq!(d.counters().admitted, 2);
        assert_eq!(d.counters().rejected_admissions, 1);
        let st = d.evict(1).unwrap();
        assert_eq!(st.tenant, 1);
        d.admit(2, 4).unwrap();
        assert_eq!(d.n_tenants(), 2);
        assert!(matches!(d.evict(7), Err(DaemonError::UnknownTenant(7))));
    }

    #[test]
    fn full_queues_shed_with_accounting() {
        let cfg = DaemonConfig { queue_capacity: 2, ..DaemonConfig::default() };
        let mut d = Daemon::new(cfg).unwrap();
        d.admit(0, 2).unwrap();
        let ev = |t: u32| Event::Arrive { task: t, configs: vec![(vec![0], 1)] };
        assert!(d.submit(0, ev(0)).unwrap());
        assert!(d.submit(0, ev(1)).unwrap());
        assert!(!d.submit(0, ev(2)).unwrap(), "third submit hits the bound");
        assert_eq!(d.counters().shed_queue_full, 1);
        assert_eq!(d.status(0).unwrap().queue_depth, 2);
        d.pump();
        assert_eq!(d.status(0).unwrap().queue_depth, 0);
        assert!(d.submit(0, ev(2)).unwrap(), "pump relieves the backpressure");
        assert!(matches!(d.submit(9, ev(3)), Err(DaemonError::UnknownTenant(9))));
    }

    #[test]
    fn apply_rejections_are_shed_not_fatal() {
        let mut d = Daemon::new(DaemonConfig::default()).unwrap();
        d.admit(0, 2).unwrap();
        d.submit(0, Event::Arrive { task: 0, configs: vec![(vec![0], 1)] }).unwrap();
        // Duplicate arrival: the engine rejects it at apply time.
        d.submit(0, Event::Arrive { task: 0, configs: vec![(vec![1], 1)] }).unwrap();
        d.submit(0, Event::Arrive { task: 1, configs: vec![(vec![1], 1)] }).unwrap();
        let report = d.pump();
        assert_eq!(report.applied, 2);
        assert_eq!(report.shed_apply_error, 1);
        let st = d.status(0).unwrap();
        assert_eq!(st.live_tasks, 2);
        assert_eq!(st.shed, 1);
    }

    #[test]
    fn migration_budget_demotes_and_restores() {
        // Eager repair on a churny weighted trace spends moves/shifts;
        // a zero budget demotes each tenant on its first unit of repair
        // work and restores the policy between pumps.
        let cfg = DaemonConfig {
            migration_budget: 0,
            engine: EngineConfig { policy: RepairPolicy::Eager, ..EngineConfig::default() },
            ..DaemonConfig::default()
        };
        let mut d = Daemon::new(cfg).unwrap();
        d.run(&small_trace(2), 16).unwrap();
        let budget_hits: u64 = d.statuses().iter().map(|s| s.budget_exhaustions).sum();
        assert!(budget_hits > 0, "zero budget must trip on this workload");
        assert_eq!(d.counters().budget_exhaustions, budget_hits);
        // The demotion is transient: engines are back on Eager.
        for st in d.statuses() {
            let old = d.set_tenant_policy(st.tenant, RepairPolicy::Eager).unwrap();
            assert_eq!(old, RepairPolicy::Eager, "policy restored after each pump");
        }
    }

    #[test]
    fn statuses_report_consistent_gaps() {
        let mut d = Daemon::new(DaemonConfig { shards: 3, ..DaemonConfig::default() }).unwrap();
        d.run(&small_trace(5), 32).unwrap();
        let statuses = d.statuses();
        assert_eq!(statuses.len(), 5);
        for st in statuses {
            assert!(st.score.0 >= st.lower_bound.0, "score below its own lower bound");
            assert_eq!(st.gap.0, st.score.0 - st.lower_bound.0);
            assert!(st.slo_ok, "default SLO is unbounded");
            assert_eq!(st.queue_depth, 0, "run() drains everything");
        }
        let c = d.counters();
        assert_eq!(c.applied + c.shed_apply_error, c.submitted, "every accepted submit lands");
        assert_eq!(c.shed_queue_full, 0, "batch below queue capacity never sheds");
    }

    #[test]
    fn repair_heavy_pumps_fork_and_match_one_shard() {
        // Eager repair of weighted two-pin configurations. The first two
        // pumps (1200 and 450 events over 4 tenants) each carry 5–8 ms of
        // engine work in a release build on a 2-core host, at least 5× the
        // fork threshold, so the third pump forks when both shards hold
        // work.
        let params = MultiplexParams {
            tenants: 4,
            hotness: 0,
            per_tenant: TraceParams {
                n_procs: 16,
                arrivals: 360,
                churn_pct: 20,
                max_configs: 3,
                max_pins: 2,
                max_weight: 8,
                proc_events: 0,
                burst_every: 0,
                burst_len: 0,
            },
        };
        let trace = generate_multiplexed(&params, &mut Xoshiro256::seed_from_u64(5));
        let pool = rayon::ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let run = |shards: u32| {
            let engine = EngineConfig { policy: RepairPolicy::Eager, ..EngineConfig::default() };
            let mut d =
                Daemon::new(DaemonConfig { shards, engine, ..DaemonConfig::default() }).unwrap();
            for tenant in 0..trace.tenants {
                d.admit(tenant, trace.n_procs).unwrap();
            }
            let mut events = trace.events.iter();
            pool.install(|| {
                for batch in [1200, 450, usize::MAX] {
                    for (tenant, ev) in events.by_ref().take(batch) {
                        assert_eq!(d.submit(*tenant, ev.clone()), Ok(true));
                    }
                    d.pump();
                }
            });
            let outcomes: Vec<TenantStatus> =
                d.statuses().into_iter().map(|st| TenantStatus { shard: 0, ..st }).collect();
            (d.counters(), outcomes)
        };
        let (one, expect) = run(1);
        let (two, got) = run(2);
        assert_eq!(one.forked_pumps, 0, "one shard never forks");
        assert_eq!(two.forked_pumps, 1, "the third pump forks, after two repair-heavy ones");
        assert_eq!(got, expect, "forking changed a per-tenant outcome");
    }

    #[test]
    fn per_tenant_scores_are_invariant_across_shard_counts() {
        let trace = small_trace(6);
        let mut baseline: Option<Vec<(u32, u128)>> = None;
        for shards in [1u32, 2, 4, 8] {
            let mut d = Daemon::new(DaemonConfig { shards, ..DaemonConfig::default() }).unwrap();
            d.run(&trace, 24).unwrap();
            let scores: Vec<(u32, u128)> =
                d.statuses().iter().map(|s| (s.tenant, s.score.0)).collect();
            match &baseline {
                None => baseline = Some(scores),
                Some(expect) => {
                    assert_eq!(&scores, expect, "shard count {shards} changed a tenant score")
                }
            }
        }
    }
}
