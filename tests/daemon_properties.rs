//! Property tests for the multi-tenant serving daemon.
//!
//! * **Gap honesty** — the per-tenant optimality gap the daemon reports
//!   (and publishes as `daemon.tenant.<id>.gap`) equals an *independent*
//!   recomputation on the tenant's snapshot: score from the materialized
//!   matching, lower bound from `balanced_score` over the per-task
//!   minimum configuration weights. Traces carry no processor churn so
//!   the snapshot materializes exactly the configurations the engine's
//!   running `min_weight_sum` accounts for.
//! * **Shard-count determinism** — tenant engines are independent and
//!   per-tenant event order is FIFO, so every per-tenant outcome (score,
//!   lower bound, gap, applied count, live sizes) is invariant under the
//!   shard count; sharding is purely a throughput knob.
//! * **Accounting** — every accepted submit is applied, shed with an
//!   apply error, or discarded because its tenant was evicted, at any
//!   queue capacity.

use proptest::prelude::*;
use semimatch::core::objective::balanced_score;
use semimatch::daemon::{Daemon, DaemonConfig};
use semimatch::gen::rng::Xoshiro256;
use semimatch::gen::trace::{generate_multiplexed, MultiplexParams, TraceParams};
use semimatch::serve::EngineConfig;
use semimatch::solver::Objective;

/// Random multiplexed traces: 1–5 tenants with Zipf-skewed volume,
/// weighted hypergraph configurations, task churn, `proc_events`
/// processor-churn events per tenant.
fn multiplexed(proc_events: u32) -> impl Strategy<Value = semimatch::daemon::MultiplexedTrace> {
    ((1u32..6, 0u32..3, 1u32..5), (1u32..30, 0u32..=60, 0u64..1_000_000)).prop_map(
        move |((tenants, hotness, procs), (arrivals, churn, seed))| {
            let params = MultiplexParams {
                tenants,
                hotness,
                per_tenant: TraceParams {
                    n_procs: procs,
                    arrivals,
                    churn_pct: churn,
                    max_configs: 3,
                    max_pins: 2,
                    max_weight: 6,
                    proc_events,
                    burst_every: 0,
                    burst_len: 0,
                },
            };
            generate_multiplexed(&params, &mut Xoshiro256::seed_from_u64(seed))
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The daemon's reported per-tenant gap equals an independent
    /// recomputation on the tenant snapshot, under bottleneck and sum
    /// objectives alike.
    #[test]
    fn reported_gap_matches_independent_recomputation(trace in multiplexed(0)) {
        for objective in [Objective::Makespan, Objective::FlowTime] {
            let cfg = DaemonConfig {
                shards: 2,
                engine: EngineConfig { objective, ..EngineConfig::default() },
                ..DaemonConfig::default()
            };
            let mut d = Daemon::new(cfg).unwrap();
            d.run(&trace, 16).unwrap();
            for st in d.statuses() {
                let snap = d.snapshot_of(st.tenant).expect("admitted tenant");
                snap.matching.validate(&snap.hypergraph).unwrap();
                let score = snap.matching.score(&snap.hypergraph, objective);
                let min_sum: u128 = (0..snap.hypergraph.n_tasks())
                    .map(|t| {
                        snap.hypergraph
                            .hedges_of(t)
                            .map(|h| snap.hypergraph.weight(h))
                            .min()
                            .expect("covered task") as u128
                    })
                    .sum();
                let lb = balanced_score(objective, min_sum, snap.hypergraph.n_procs() as u64);
                prop_assert_eq!(st.score, score, "tenant {} score diverged", st.tenant);
                prop_assert_eq!(st.lower_bound, lb, "tenant {} lower bound diverged", st.tenant);
                prop_assert_eq!(
                    st.gap.0,
                    score.0.saturating_sub(lb.0),
                    "tenant {} gap is not score − lower bound", st.tenant
                );
            }
        }
    }

    /// Per-tenant outcomes are invariant under the shard count — the
    /// daemon's determinism contract.
    #[test]
    fn per_tenant_outcomes_are_shard_count_invariant(trace in multiplexed(2)) {
        let outcome = |d: &Daemon| -> Vec<(u32, u128, u128, u128, u64, usize, usize)> {
            d.statuses()
                .iter()
                .map(|s| {
                    (s.tenant, s.score.0, s.lower_bound.0, s.gap.0, s.applied, s.live_tasks,
                     s.live_procs)
                })
                .collect()
        };
        let mut baseline = None;
        for shards in [1u32, 2, 5] {
            let mut d = Daemon::new(DaemonConfig { shards, ..DaemonConfig::default() }).unwrap();
            d.run(&trace, 8).unwrap();
            let c = d.counters();
            prop_assert_eq!(c.applied + c.shed_apply_error, c.submitted);
            prop_assert_eq!(c.shed_queue_full, 0, "batch below capacity never sheds");
            let got = outcome(&d);
            match &baseline {
                None => baseline = Some(got),
                Some(expect) => prop_assert_eq!(
                    &got, expect,
                    "shard count {} changed a per-tenant outcome", shards
                ),
            }
        }
    }

    /// Accounting stays consistent even when the queue bound bites and
    /// tenants are evicted with events still queued: every accepted
    /// submit is applied, shed with an apply error or discarded on
    /// evict, queue-full sheds are counted, nothing is lost or
    /// double-counted, and the tenant index still finds every tenant.
    #[test]
    fn accounting_is_exact_under_queue_pressure(
        trace in multiplexed(1),
        cap in 1usize..8,
        evictions in proptest::collection::vec((0usize..200, 0u32..5), 0..8),
    ) {
        let cfg = DaemonConfig { queue_capacity: cap, ..DaemonConfig::default() };
        let mut d = Daemon::new(cfg).unwrap();
        for tenant in 0..trace.tenants {
            d.admit(tenant, trace.n_procs).unwrap();
        }
        let mut evicted_shed = 0;
        let mut queued = 0;
        for (i, (tenant, ev)) in trace.events.iter().enumerate() {
            queued += usize::from(d.submit(*tenant, ev.clone()).unwrap());
            for &(_, victim) in evictions.iter().filter(|(at, _)| *at == i) {
                // Re-admitted at once, so the victim's later events still
                // land (on a fresh engine, which may reject them).
                let victim = victim % trace.tenants;
                evicted_shed += d.evict(victim).unwrap().shed;
                d.admit(victim, trace.n_procs).unwrap();
            }
            // Pump far above the queue bound, so hot tenants shed.
            if queued == 64 {
                d.pump();
                queued = 0;
            }
        }
        d.pump();
        let c = d.counters();
        prop_assert_eq!(c.applied + c.shed_apply_error + c.discarded_on_evict, c.submitted);
        let per_tenant_shed: u64 = d.statuses().iter().map(|s| s.shed).sum();
        prop_assert_eq!(per_tenant_shed + evicted_shed, c.shed_queue_full + c.shed_apply_error);
        for tenant in 0..trace.tenants {
            let st = d.status(tenant).expect("every tenant is live");
            prop_assert_eq!(st.tenant, tenant, "the index found another tenant");
            prop_assert_eq!(st.queue_depth, 0, "the last pump drains every queue");
            prop_assert!(st.score >= st.lower_bound);
        }
    }
}
