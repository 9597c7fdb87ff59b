//! Daemon configuration: sharding, backpressure and SLO knobs.

use semimatch_serve::EngineConfig;

use crate::error::{DaemonError, Result};

/// Full serving-daemon configuration.
///
/// The daemon owns one [`semimatch_serve::Engine`] per tenant, routed to
/// `shards` shards by a tenant-id hash; everything else here bounds how
/// much work and memory one tenant can consume before the daemon pushes
/// back (queue capacity, migration budget) or refuses service outright
/// (tenant capacity).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DaemonConfig {
    /// Router shards (≥ 1). Tenants hash to a shard, and a shard is
    /// created when its first tenant is admitted. A pump forks the shards
    /// onto the work-stealing pool only when at least two hold queued
    /// work, the pool has at least two workers, and each of the last two
    /// pumps spent at least 1 ms in the engines; otherwise they pump in
    /// turn on the calling thread. Per-tenant results are invariant under the
    /// shard count — sharding only changes *who runs next to whom*, never
    /// per-tenant event order.
    pub shards: u32,
    /// Per-tenant engine configuration (repair policy, resolve kind,
    /// objective). Every admitted tenant starts from this;
    /// `Daemon::set_tenant_policy` overrides per tenant.
    pub engine: EngineConfig,
    /// Bounded per-tenant ingest queue (≥ 1). A submit to a full queue is
    /// *shed*: rejected with accounting, never blocking the router.
    pub queue_capacity: usize,
    /// Migration budget: repair work units (augmenting-path shifts,
    /// local-search moves and resolves) one tenant may spend per pump. A
    /// tenant that exhausts it is demoted to pure greedy placement for the
    /// rest of that pump and restored afterwards. `u64::MAX` means
    /// unmetered.
    pub migration_budget: u64,
    /// Admission control: live-tenant capacity (≥ 1). Admissions beyond
    /// it are rejected with [`DaemonError::AtCapacity`] and counted.
    pub max_tenants: usize,
    /// The per-tenant optimality-gap SLO, in the engine objective's units:
    /// a tenant with `score − lower_bound > slo_gap` is in violation
    /// (reported, gauged — the daemon never blocks on it).
    pub slo_gap: u128,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            shards: 1,
            engine: EngineConfig::default(),
            queue_capacity: 1024,
            migration_budget: u64::MAX,
            max_tenants: 1024,
            slo_gap: u128::MAX,
        }
    }
}

impl DaemonConfig {
    /// Validates the static knobs (shard, queue and tenant capacities).
    pub fn validate(&self) -> Result<()> {
        if self.shards == 0 {
            return Err(DaemonError::Config { msg: "shard count must be at least 1" });
        }
        if self.queue_capacity == 0 {
            return Err(DaemonError::Config { msg: "queue capacity must be at least 1" });
        }
        if self.max_tenants == 0 {
            return Err(DaemonError::Config { msg: "tenant capacity must be at least 1" });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        let cfg = DaemonConfig::default();
        cfg.validate().unwrap();
        assert_eq!(cfg.shards, 1);
        assert_eq!(cfg.slo_gap, u128::MAX, "no SLO unless asked");
    }

    #[test]
    fn zero_knobs_are_rejected() {
        for bad in [
            DaemonConfig { shards: 0, ..DaemonConfig::default() },
            DaemonConfig { queue_capacity: 0, ..DaemonConfig::default() },
            DaemonConfig { max_tenants: 0, ..DaemonConfig::default() },
        ] {
            assert!(matches!(bad.validate(), Err(DaemonError::Config { .. })));
        }
    }
}
