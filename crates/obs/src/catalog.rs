//! The metric catalog: every metric the workspace emits, declared once
//! with its registry name, kind and help text. The writers take a [`Decl`]
//! of their own kind; a [`Family`] row (`daemon.tenant.<id>.gap`) names
//! one series per key through [`Family::at`]. [`TABLE`] is the README
//! metric table.

use std::borrow::Cow;
use std::fmt;
use std::marker::PhantomData;

use crate::registry::{Counter, Gauge, Histogram};

/// A declared metric of kind `K` ([`Counter`], [`Gauge`] or
/// [`Histogram`]): a catalog row, or a [`Family`] member.
#[derive(Debug)]
pub struct Decl<K> {
    pub(crate) name: Cow<'static, str>,
    kind: PhantomData<fn() -> K>,
}

impl<K> Decl<K> {
    const fn new(name: &'static str) -> Self {
        assert!(!has_placeholder(name.as_bytes()), "a family row must be declared as a `Family`");
        Decl { name: Cow::Borrowed(name), kind: PhantomData }
    }
}

/// A catalog row of kind `K` whose name holds one `<…>` placeholder:
/// one series per key.
#[derive(Debug)]
pub struct Family<K> {
    name: &'static str,
    kind: PhantomData<fn() -> K>,
}

impl<K> Family<K> {
    const fn new(name: &'static str) -> Self {
        assert!(has_placeholder(name.as_bytes()), "a `Family` name needs a `<…>` placeholder");
        Family { name, kind: PhantomData }
    }

    /// The series for `key`: the row's name with its placeholder replaced.
    pub fn at(&self, key: impl fmt::Display) -> Decl<K> {
        let (head, rest) = self.name.split_once('<').expect("checked at declaration");
        let (_, tail) = rest.split_once('>').expect("placeholders are closed");
        Decl { name: Cow::Owned(format!("{head}{key}{tail}")), kind: PhantomData }
    }
}

const fn has_placeholder(name: &[u8]) -> bool {
    match name {
        [] => false,
        [first, rest @ ..] => *first == b'<' || has_placeholder(rest),
    }
}

/// The registry type of a catalog kind.
#[rustfmt::skip]
macro_rules! kind {
    (counter) => (Counter);
    (gauge) => (Gauge);
    (histogram) => (Histogram);
}

/// Declares each row as a `pub static` and renders all of them, in order,
/// into [`TABLE`].
macro_rules! catalog {
    ($($id:ident: $form:ident<$kind:ident> = $name:literal, $help:literal;)*) => {
        $(
            #[doc = concat!("`", $name, "` (", stringify!($kind), "): ", $help, ".")]
            pub static $id: $form<kind!($kind)> = $form::new($name);
        )*

        /// The catalog as the markdown table between the README's
        /// `metric-catalog` markers.
        pub const TABLE: &str = concat!(
            "| metric | kind | meaning |\n|---|---|---|\n",
            $("| `", $name, "` | ", stringify!($kind), " | ", $help, " |\n",)*
        );
    };
}

catalog! {
    COST_SCALING_SOLVES: Decl<counter> = "cost_scaling.solves",
        "exact cost-scaling solves completed";
    COST_SCALING_PROBES: Decl<counter> = "cost_scaling.probes",
        "capacity probes issued across all solves";
    COST_SCALING_PARTITIONS: Decl<counter> = "cost_scaling.partitions",
        "FLN instance partitions solved independently";
    COST_SCALING_DEFICIENCY_SKIPS: Decl<counter> = "cost_scaling.deficiency_skips",
        "probes skipped via the deficiency bound";
    COST_SCALING_COLD_ABLATION_SOLVES: Decl<counter> = "cost_scaling.cold_ablation.solves",
        "solves taken by the plain-bisection ablation (no partitioning)";
    COST_SCALING_COLD_ABLATION_PROBES: Decl<counter> = "cost_scaling.cold_ablation.probes",
        "probes issued by the plain-bisection ablation";
    HK_SEMI_SOLVES: Decl<counter> = "hk_semi.solves",
        "Hopcroft–Karp-style semi-matching solves";
    HK_SEMI_PHASES: Decl<counter> = "hk_semi.phases",
        "BFS/DFS phases across all solves";
    HK_SEMI_PATHS_EXTRACTED: Decl<counter> = "hk_semi.paths_extracted",
        "augmenting (cost-reducing) paths applied";
    HK_SEMI_BFS_LEVELS: Decl<counter> = "hk_semi.bfs_levels",
        "BFS levels built across all phases";
    FLOW_AUGMENTATIONS: Decl<counter> = "flow.augmentations",
        "Dinic blocking-flow augmentations";
    FLOW_DINIC_PHASES: Decl<counter> = "flow.dinic_phases",
        "Dinic level-graph phases";
    SERVE_COUNTERS_NAME: Family<counter> = "serve.counters.<name>",
        "per-policy repair counters (one series per `serve::Counters` field)";
    DAEMON_TENANT_ID_GAP: Family<gauge> = "daemon.tenant.<id>.gap",
        "per-tenant optimality gap (score − lower bound)";
    DAEMON_TENANT_ID_SCORE: Family<gauge> = "daemon.tenant.<id>.score",
        "per-tenant live objective value";
    DAEMON_TENANT_ID_LOWER_BOUND: Family<gauge> = "daemon.tenant.<id>.lower_bound",
        "per-tenant certified lower bound";
    DAEMON_TENANT_ID_QUEUE_DEPTH: Family<gauge> = "daemon.tenant.<id>.queue_depth",
        "per-tenant pending-event queue depth";
    DAEMON_TENANT_GAP: Decl<histogram> = "daemon.tenant.gap",
        "cross-tenant gap distribution, one observation per tenant per publish";
    DAEMON_TENANTS: Decl<gauge> = "daemon.tenants",
        "tenants currently admitted";
    DAEMON_QUEUE_DEPTH: Decl<gauge> = "daemon.queue_depth",
        "total pending events across all tenants";
    DAEMON_SLO_VIOLATIONS: Decl<gauge> = "daemon.slo_violations",
        "tenants currently out of their gap SLO";
    DAEMON_COUNTER: Family<counter> = "daemon.<counter>",
        "daemon lifecycle counters (one series per `DaemonCounters` field: `admitted`, \
         `evictions`, `shed_queue_full`, …)";
    DAEMON_PUMP_NS: Decl<histogram> = "daemon.pump_ns",
        "whole-daemon pump latency, nanoseconds";
    DAEMON_SHARD_ID_PUMP_NS: Family<histogram> = "daemon.shard.<id>.pump_ns",
        "per-shard pump latency, nanoseconds";
    POOL_THREADS: Decl<gauge> = "pool.threads",
        "worker threads in the rayon pool";
    POOL_TASKS_EXECUTED: Decl<counter> = "pool.tasks_executed",
        "jobs executed across all workers";
    POOL_STEALS: Decl<counter> = "pool.steals",
        "successful steals from sibling deques";
    POOL_INJECTOR_POPS: Decl<counter> = "pool.injector_pops",
        "jobs taken from the global injector";
    POOL_SLEEPS: Decl<counter> = "pool.sleeps",
        "idle-worker park events";
    POOL_WAKES: Decl<counter> = "pool.wakes",
        "wake broadcasts to parked threads, after a push or a finished job";
    POOL_WORKER_I_TASKS_EXECUTED: Family<counter> = "pool.worker.<i>.tasks_executed",
        "per-worker job count";
    POOL_WORKER_I_STEALS: Family<counter> = "pool.worker.<i>.steals",
        "per-worker successful steals";
    SPAN_NAME: Family<histogram> = "span.<name>",
        "one duration histogram per span site, nanoseconds";
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_name_is_declared_once() {
        let names: Vec<&str> = super::TABLE.lines().filter_map(|l| l.split('`').nth(1)).collect();
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a metric is declared twice");
    }
}
