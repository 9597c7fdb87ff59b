//! Engine configuration: repair policies and counters.

use std::fmt;
use std::str::FromStr;

use semimatch_core::objective::Objective;
use semimatch_core::solver::SolverKind;

/// When the engine repairs its live assignment.
///
/// Every policy places arriving (and displaced) tasks greedily first; the
/// policy decides when the *repair* machinery — augmenting-path searches
/// for the unit/single-processor case, local-search sweeps for the
/// hypergraph case, or a full from-scratch re-solve — runs on top of that.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepairPolicy {
    /// Repair after every event: the assignment is always at its
    /// post-repair quality (optimal in the unit/single-processor case).
    Eager,
    /// Repair only when the engine's objective score exceeds the last
    /// repaired score by more than `slack` (in the configured
    /// [`EngineConfig::objective`]'s units: load for the makespan,
    /// cost for the sum objectives).
    Lazy {
        /// Tolerated objective-score growth before a repair triggers.
        slack: u64,
    },
    /// Never repair: pure greedy placement, the no-repair baseline. The
    /// daemon demotes a tenant that exhausts its migration budget to this
    /// policy for the rest of the pump.
    PlacementOnly,
    /// Re-solve the whole live instance from scratch every `every` events
    /// with the engine's configured [`SolverKind`], through a resident
    /// warm-workspace solver. `every == 1` is the re-solve-per-event
    /// baseline the benches compare incremental repair against.
    Periodic {
        /// Events between from-scratch resolves (≥ 1).
        every: u32,
    },
}

impl fmt::Display for RepairPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairPolicy::Eager => write!(f, "eager"),
            RepairPolicy::Lazy { slack } => write!(f, "lazy:{slack}"),
            RepairPolicy::PlacementOnly => write!(f, "placement-only"),
            RepairPolicy::Periodic { every } => write!(f, "periodic:{every}"),
        }
    }
}

impl FromStr for RepairPolicy {
    type Err = String;

    /// Parses `eager`, `lazy:SLACK`, `periodic:EVERY` and `placement-only`
    /// (the CLI names). `lazy:18446744073709551615` (`u64::MAX`), the
    /// older spelling of placement-only, parses to
    /// [`RepairPolicy::PlacementOnly`].
    fn from_str(s: &str) -> std::result::Result<Self, String> {
        let lower = s.to_ascii_lowercase();
        if lower == "eager" {
            return Ok(RepairPolicy::Eager);
        }
        if lower == "placement-only" {
            return Ok(RepairPolicy::PlacementOnly);
        }
        if let Some(v) = lower.strip_prefix("lazy:") {
            return match v.parse().map_err(|_| format!("bad lazy slack '{v}'"))? {
                u64::MAX => Ok(RepairPolicy::PlacementOnly),
                slack => Ok(RepairPolicy::Lazy { slack }),
            };
        }
        if let Some(v) = lower.strip_prefix("periodic:") {
            let every: u32 = v.parse().map_err(|_| format!("bad resolve period '{v}'"))?;
            return Ok(RepairPolicy::Periodic { every });
        }
        Err(format!(
            "unknown repair policy '{s}' (eager | lazy:SLACK | periodic:EVERY | placement-only)"
        ))
    }
}

/// Full engine configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// When to repair (see [`RepairPolicy`]).
    pub policy: RepairPolicy,
    /// Solver used by from-scratch resolves (the periodic policy). Any
    /// registered kind: hypergraph (`MULTIPROC`) kinds solve the live
    /// instance directly; bipartite-only (`SINGLEPROC`) kinds solve its
    /// singleton collapse, and the engine then rejects arrivals with a
    /// multi-processor configuration.
    pub resolve_kind: SolverKind,
    /// The cost model the engine optimizes: greedy placement, local
    /// search, lazy triggering and periodic resolves all target this
    /// objective. The engine reports live scores for *all* reported
    /// objectives regardless (see `Engine::scores`).
    pub objective: Objective,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            policy: RepairPolicy::Eager,
            resolve_kind: SolverKind::Evg,
            objective: Objective::Makespan,
        }
    }
}

/// Repair-work accounting, reported by `semimatch replay` and asserted on
/// by the benches: how much work the engine did beyond raw placement.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Events ingested.
    pub events: u64,
    /// Greedy placements (arrivals plus drop-displaced re-placements).
    pub placements: u64,
    /// Full repair invocations (eager: one per event).
    pub repairs: u64,
    /// BFS searches run by the exact repair: one per round of its
    /// bottleneck loop, seeded with every bottleneck processor, and one per
    /// step of the sum-objective descent, seeded with one processor.
    pub searches: u64,
    /// Augmenting paths applied (each shifts ≥ 1 task).
    pub shifts: u64,
    /// Accepted local-search moves in the hypergraph repair.
    pub moves: u64,
    /// From-scratch resolves of the whole live instance.
    pub resolves: u64,
}

impl Counters {
    /// Work done since `earlier` was captured: per-field saturating
    /// difference. `replay` uses this to report per-policy increments
    /// (and policy-vs-policy comparisons) instead of raw totals.
    pub fn delta(&self, earlier: &Counters) -> Counters {
        Counters {
            events: self.events.saturating_sub(earlier.events),
            placements: self.placements.saturating_sub(earlier.placements),
            repairs: self.repairs.saturating_sub(earlier.repairs),
            searches: self.searches.saturating_sub(earlier.searches),
            shifts: self.shifts.saturating_sub(earlier.shifts),
            moves: self.moves.saturating_sub(earlier.moves),
            resolves: self.resolves.saturating_sub(earlier.resolves),
        }
    }

    /// Field names and values in [`fmt::Display`] order, for generic
    /// rendering (tables, metric export).
    pub fn fields(&self) -> [(&'static str, u64); 7] {
        [
            ("events", self.events),
            ("placements", self.placements),
            ("repairs", self.repairs),
            ("searches", self.searches),
            ("shifts", self.shifts),
            ("moves", self.moves),
            ("resolves", self.resolves),
        ]
    }

    /// Adds every field to the installed obs recorder as
    /// `serve.counters.<field>` counters (no-op when telemetry is off).
    pub fn publish(&self) {
        if !semimatch_obs::enabled() {
            return;
        }
        for (name, v) in self.fields() {
            semimatch_obs::counter_add(&semimatch_obs::catalog::SERVE_COUNTERS_NAME.at(name), v);
        }
    }
}

impl fmt::Display for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "events {}  placements {}  repairs {}  searches {}  shifts {}  moves {}  resolves {}",
            self.events,
            self.placements,
            self.repairs,
            self.searches,
            self.shifts,
            self.moves,
            self.resolves
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_parse_and_round_trip() {
        for policy in [
            RepairPolicy::Eager,
            RepairPolicy::Lazy { slack: 7 },
            RepairPolicy::Periodic { every: 32 },
            RepairPolicy::PlacementOnly,
        ] {
            let shown = policy.to_string();
            assert_eq!(shown.parse::<RepairPolicy>().unwrap(), policy, "{shown}");
        }
        assert_eq!(RepairPolicy::PlacementOnly.to_string(), "placement-only");
        let unbounded = format!("lazy:{}", u64::MAX);
        assert_eq!(unbounded.parse::<RepairPolicy>().unwrap(), RepairPolicy::PlacementOnly);
        assert!("nonsense".parse::<RepairPolicy>().is_err());
        assert!("lazy:x".parse::<RepairPolicy>().is_err());
        assert!("periodic:".parse::<RepairPolicy>().is_err());
    }

    #[test]
    fn counter_deltas_saturate_per_field() {
        let earlier = Counters { events: 10, placements: 4, repairs: 9, ..Default::default() };
        let later = Counters { events: 25, placements: 7, repairs: 3, ..Default::default() };
        let d = later.delta(&earlier);
        assert_eq!(d.events, 15);
        assert_eq!(d.placements, 3);
        assert_eq!(d.repairs, 0, "regressions saturate to zero");
        assert_eq!(d.moves, 0);
        assert_eq!(later.delta(&later), Counters::default());
    }

    #[test]
    fn default_config_is_eager_single_shard() {
        let cfg = EngineConfig::default();
        assert_eq!(cfg.policy, RepairPolicy::Eager);
        assert_eq!(cfg.objective, Objective::Makespan);
        assert_eq!(cfg.resolve_kind, SolverKind::Evg);
    }
}
