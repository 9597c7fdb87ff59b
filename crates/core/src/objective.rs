//! First-class cost models: the objective axis of the solver API.
//!
//! The paper optimizes the **makespan** `max_u l(u)`, but the semi-matching
//! literature is explicitly multi-objective: Fakcharoenphol, Laekhanukit
//! and Nanongkai (*Faster Algorithms for Semi-Matching Problems*) minimize
//! the **total cost / flow time** `Σ_u l(u)·(l(u)+1)/2`, and Harvey,
//! Ladner, Lovász and Tamir show that a cost-optimal unit semi-matching is
//! simultaneously optimal for *every* symmetric convex cost — including
//! the makespan and all `L_p` norms. This module makes the cost model a
//! value ([`Objective`]) threaded through the whole solver stack instead
//! of a hard-wired `max`:
//!
//! * [`Objective::Makespan`] — `max_u l(u)` (the paper's §II objective);
//! * [`Objective::FlowTime`] — `Σ_u l(u)·(l(u)+1)/2`, the total completion
//!   time of unit jobs served FIFO per processor (FLN's "total cost");
//! * [`Objective::LpNorm`]`(p)` — `Σ_u l(u)^p`, the convex family
//!   interpolating between total load (`p = 1`) and makespan (`p → ∞`);
//! * [`Objective::WeightedLoad`] — `Σ_u l(u)`, the total occupied
//!   processor time (distinguishes configurations by `w_h · |h ∩ V2|`).
//!
//! Scores are exact integers ([`Score`], a total order over `u128`), so
//! comparisons never suffer float round-off and `u64` loads cannot
//! overflow a sum of squares.

#![deny(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)]

use std::fmt;
use std::str::FromStr;

use crate::error::{CoreError, Result};

/// A totally ordered objective value: smaller is better for every
/// [`Objective`].
///
/// Backed by `u128` so that flow time and `L_p` norms of `u64` loads fit
/// exactly; [`Objective::LpNorm`] saturates instead of wrapping on the
/// (astronomically large) overflow boundary, preserving the order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Score(pub u128);

impl Score {
    /// The score as `u64`, saturating (exact for makespan and any
    /// realistic flow time).
    pub fn as_u64(self) -> u64 {
        u64::try_from(self.0).unwrap_or(u64::MAX)
    }

    /// The score as a real number, for ratio reporting.
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Table rendering: the exact value when it fits in `u64`, the
    /// `>u64::MAX` marker otherwise.
    ///
    /// Fixed-width comparison tables (CLI `solve --kinds`, bench reports)
    /// previously narrowed through [`Score::as_u64`]-style saturation, so
    /// a saturated 39-digit `L_p` score printed as a plausible-looking but
    /// wrong number. Anything beyond `u64::MAX` is either genuinely
    /// astronomical or a clamped [`Objective::LpNorm`] cost — both are
    /// better flagged than misread.
    pub fn display_clamped(self) -> String {
        if self.0 > u64::MAX as u128 {
            ">u64::MAX".into()
        } else {
            self.0.to_string()
        }
    }
}

impl fmt::Display for Score {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// The cost model a solver optimizes (smaller is better).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Bottleneck load `max_u l(u)` (§II of the paper).
    Makespan,
    /// Total flow time `Σ_u l(u)·(l(u)+1)/2`: with unit jobs served one
    /// at a time, the `k`-th job on a processor finishes at time `k`, so a
    /// processor of load `l` contributes `1 + 2 + … + l`.
    FlowTime,
    /// `Σ_u l(u)^p` for `p ≥ 1` (the `p`-th power of the `L_p` norm,
    /// which orders identically). `p = 1` coincides with
    /// [`Objective::WeightedLoad`]; large `p` approaches the makespan.
    LpNorm(u32),
    /// Total occupied processor time `Σ_u l(u)`.
    WeightedLoad,
}

impl Objective {
    /// The objectives reported side by side in comparison tables and by
    /// the serving engine's live score board.
    pub const REPORTED: [Objective; 4] =
        [Objective::Makespan, Objective::FlowTime, Objective::LpNorm(2), Objective::WeightedLoad];

    /// Whether the objective is the bottleneck (`max`) rather than a sum
    /// of per-processor costs.
    pub fn is_bottleneck(self) -> bool {
        matches!(self, Objective::Makespan)
    }

    /// The cost a single processor of load `load` contributes. For
    /// [`Objective::Makespan`] the aggregate is the maximum of these, for
    /// every other objective it is the sum.
    pub fn proc_cost(self, load: u64) -> u128 {
        let l = load as u128;
        match self {
            Objective::Makespan | Objective::WeightedLoad => l,
            Objective::FlowTime => l * (l + 1) / 2,
            // Saturates at `u128::MAX`, order-preserving: the partial
            // products of a base ≥ 2 only grow.
            Objective::LpNorm(p) => l.checked_pow(p).unwrap_or(u128::MAX),
        }
    }

    /// Evaluates a full load vector.
    pub fn evaluate(self, loads: &[u64]) -> Score {
        let total = if self.is_bottleneck() {
            loads.iter().map(|&l| self.proc_cost(l)).max().unwrap_or(0)
        } else {
            loads.iter().fold(0u128, |acc, &l| acc.saturating_add(self.proc_cost(l)))
        };
        Score(total)
    }

    /// The cost increase of raising one processor from `load` to
    /// `load + add`. Meaningful for the sum-type objectives (the greedy
    /// and local-search selection key); for [`Objective::Makespan`] it
    /// degenerates to `add` and callers keep their bottleneck criteria
    /// instead.
    ///
    /// On the (astronomical) [`Objective::LpNorm`] saturation boundary
    /// both costs clamp to `u128::MAX` and the marginal reads 0 —
    /// selection loops must therefore seed with their first candidate
    /// rather than a `u128::MAX` sentinel, and comparisons degrade to
    /// tie-breaks instead of misordering.
    ///
    /// Uses exactly the [`Objective::proc_cost`] integer arithmetic on
    /// both ends (never a float fallback), so greedy marginal ranking and
    /// the exact score agree bit-for-bit; at the `u64` domain boundary
    /// the raised load saturates instead of wrapping, keeping the
    /// difference defined and order-preserving (`proc_cost` is monotone,
    /// so the subtraction cannot underflow).
    pub fn marginal(self, load: u64, add: u64) -> u128 {
        self.proc_cost(load.saturating_add(add)) - self.proc_cost(load)
    }

    /// [`Objective::marginal`] over fractional (expected) loads, for the
    /// expected-load heuristic family. Overflowing float costs
    /// (`∞ − ∞ = NaN` under huge `L_p` exponents) are clamped to `+∞` so
    /// the key stays totally ordered and finite candidates always win.
    pub fn marginal_f64(self, load: f64, add: f64) -> f64 {
        let cost = |l: f64| match self {
            Objective::Makespan | Objective::WeightedLoad => l,
            Objective::FlowTime => l * (l + 1.0) / 2.0,
            Objective::LpNorm(p) => l.powi(i32::try_from(p).unwrap_or(i32::MAX)),
        };
        let delta = cost(load + add) - cost(load);
        if delta.is_nan() {
            f64::INFINITY
        } else {
            delta
        }
    }

    /// Canonical registry name (stable; used by `FromStr`, the CLI and
    /// reports): `makespan`, `flowtime`, `l<p>`, `weighted-load`.
    pub fn name(self) -> String {
        match self {
            Objective::Makespan => "makespan".into(),
            Objective::FlowTime => "flowtime".into(),
            Objective::LpNorm(p) => format!("l{p}"),
            Objective::WeightedLoad => "weighted-load".into(),
        }
    }
}

impl fmt::Display for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

impl FromStr for Objective {
    type Err = CoreError;

    /// Looks an objective up by its [`name`](Objective::name); the
    /// aliases `flow-time`, `total-cost` (FLN's term), `lp:<p>` and
    /// `total-load` resolve too.
    fn from_str(s: &str) -> Result<Objective> {
        let lower = s.to_ascii_lowercase();
        match lower.as_str() {
            "makespan" => return Ok(Objective::Makespan),
            "flowtime" | "flow-time" | "total-cost" => return Ok(Objective::FlowTime),
            "weighted-load" | "total-load" => return Ok(Objective::WeightedLoad),
            _ => {}
        }
        let digits = lower.strip_prefix("lp:").or_else(|| lower.strip_prefix('l'));
        if let Some(p) = digits.and_then(|d| d.parse::<u32>().ok()) {
            if p >= 1 {
                return Ok(Objective::LpNorm(p));
            }
        }
        Err(CoreError::UnknownObjective(s.to_string()))
    }
}

/// The smallest value `Σ_u proc_cost(l(u))` can take over `p` processors
/// given `Σ_u l(u) = work` — attained by the balanced (max-spread) load
/// vector, since every sum-type objective is convex in each load. Used by
/// the objective lower bounds; for [`Objective::Makespan`] it degenerates
/// to `⌈work / p⌉`.
/// An empty processor set (`p == 0`) cannot serve positive work: the
/// guard returns `Score(0)` for zero work and `Score(u128::MAX)` (the
/// "infeasible" top of the order) otherwise instead of dividing by zero.
/// When `work / p` itself exceeds the `u64` load domain, the bottleneck
/// arm stays exact in `u128` and the sum arm clamps the per-processor
/// load to `u64::MAX` (costs are monotone, so the clamped value remains a
/// valid floor) — previously the quotient was truncated with `as u64`,
/// silently *wrapping* to a tiny, invalid bound.
pub fn balanced_score(objective: Objective, work: u128, p: u64) -> Score {
    if p == 0 {
        return Score(if work == 0 { 0 } else { u128::MAX });
    }
    let q = work / p as u128;
    let r = work % p as u128;
    if objective.is_bottleneck() {
        return Score(if r > 0 { q.saturating_add(1) } else { q });
    }
    let q = u64::try_from(q).unwrap_or(u64::MAX);
    let high = objective.proc_cost(q.saturating_add(1)).saturating_mul(r);
    let low = objective.proc_cost(q).saturating_mul(p as u128 - r);
    Score(high.saturating_add(low))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_costs_match_definitions() {
        assert_eq!(Objective::Makespan.proc_cost(7), 7);
        assert_eq!(Objective::WeightedLoad.proc_cost(7), 7);
        assert_eq!(Objective::FlowTime.proc_cost(4), 10); // 1+2+3+4
        assert_eq!(Objective::LpNorm(2).proc_cost(5), 25);
        assert_eq!(Objective::LpNorm(3).proc_cost(2), 8);
    }

    #[test]
    fn evaluate_max_vs_sum() {
        let loads = [3u64, 1, 2];
        assert_eq!(Objective::Makespan.evaluate(&loads), Score(3));
        assert_eq!(Objective::WeightedLoad.evaluate(&loads), Score(6));
        assert_eq!(Objective::FlowTime.evaluate(&loads), Score(6 + 1 + 3));
        assert_eq!(Objective::LpNorm(2).evaluate(&loads), Score(9 + 1 + 4));
        assert_eq!(Objective::Makespan.evaluate(&[]), Score(0));
    }

    #[test]
    fn marginal_is_cost_difference() {
        for obj in Objective::REPORTED {
            for load in [0u64, 1, 5, 100] {
                for add in [1u64, 3] {
                    assert_eq!(
                        obj.marginal(load, add),
                        obj.proc_cost(load + add) - obj.proc_cost(load),
                        "{obj} {load}+{add}"
                    );
                }
            }
        }
        // Flow time's marginal grows with the existing load — the term
        // that makes greedy under FlowTime prefer spreading out.
        assert!(Objective::FlowTime.marginal(5, 1) > Objective::FlowTime.marginal(0, 1));
    }

    #[test]
    fn names_round_trip_and_aliases_resolve() {
        for obj in [
            Objective::Makespan,
            Objective::FlowTime,
            Objective::LpNorm(3),
            Objective::WeightedLoad,
        ] {
            assert_eq!(obj.name().parse::<Objective>().unwrap(), obj);
        }
        assert_eq!("flow-time".parse::<Objective>().unwrap(), Objective::FlowTime);
        assert_eq!("total-cost".parse::<Objective>().unwrap(), Objective::FlowTime);
        assert_eq!("lp:2".parse::<Objective>().unwrap(), Objective::LpNorm(2));
        assert_eq!("total-load".parse::<Objective>().unwrap(), Objective::WeightedLoad);
        assert!(matches!("l0".parse::<Objective>(), Err(CoreError::UnknownObjective(_))));
        assert!(matches!("nonsense".parse::<Objective>(), Err(CoreError::UnknownObjective(_))));
    }

    #[test]
    fn scores_order_totally() {
        assert!(Score(3) < Score(4));
        assert_eq!(Score(u64::MAX as u128 + 1).as_u64(), u64::MAX);
        assert_eq!(Score(42).as_f64(), 42.0);
    }

    /// Regression (integer/float cost-path divergence): `marginal` must
    /// use exactly the `proc_cost` saturating integer arithmetic. Beyond
    /// 2^53 an `f64` power loses whole units, so a float fallback would
    /// rank candidates differently than the exact score.
    #[test]
    fn marginal_agrees_with_proc_cost_at_large_loads() {
        let objectives =
            [Objective::Makespan, Objective::FlowTime, Objective::LpNorm(2), Objective::LpNorm(3)];
        for obj in objectives {
            for load in [0u64, 1, (1 << 32) - 1, 1 << 53, u64::MAX - 7, u64::MAX] {
                for add in [0u64, 1, 3, u64::MAX] {
                    let exact = obj
                        .proc_cost(load.saturating_add(add))
                        .checked_sub(obj.proc_cost(load))
                        .expect("proc_cost is monotone");
                    assert_eq!(obj.marginal(load, add), exact, "{obj} {load}+{add}");
                }
            }
        }
        // l = 2^32: (l+1)² − l² = 2l + 1 exactly. The f64 path rounds the
        // costs to multiples of 2048 here and reports 2^33 instead.
        let l = 1u64 << 32;
        assert_eq!(Objective::LpNorm(2).marginal(l, 1), 2 * l as u128 + 1);
        let f = Objective::LpNorm(2).marginal_f64(l as f64, 1.0);
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "f is 2^33, a positive integer well inside u128"
        )]
        let f = f as u128;
        assert_ne!(f, 2 * l as u128 + 1, "the float path really does diverge here");
    }

    /// Regression: `marginal` at the `u64` domain boundary must stay
    /// defined (the raised load saturates) instead of overflowing.
    #[test]
    fn marginal_is_defined_on_the_domain_boundary() {
        for obj in Objective::REPORTED {
            assert_eq!(obj.marginal(u64::MAX, 1), 0, "{obj}");
            assert_eq!(obj.marginal(u64::MAX, u64::MAX), 0, "{obj}");
        }
        assert_eq!(Objective::WeightedLoad.marginal(u64::MAX - 2, 5), 2);
    }

    #[test]
    fn lp_norm_saturates_instead_of_wrapping() {
        let huge = Objective::LpNorm(40).proc_cost(u64::MAX);
        assert_eq!(huge, u128::MAX);
        assert!(Objective::LpNorm(40).evaluate(&[u64::MAX, u64::MAX]) >= Score(huge));
    }

    #[test]
    fn lp_norm_at_the_largest_exponent_is_immediate() {
        // The cost is computed by squaring, not by `k` multiplications.
        let lmax = Objective::LpNorm(u32::MAX);
        assert_eq!([0, 1, 2].map(|l| lmax.proc_cost(l)), [0, 1, u128::MAX]);
    }

    #[test]
    fn balanced_score_spreads_work() {
        // 7 units over 3 processors → loads (3, 2, 2).
        assert_eq!(balanced_score(Objective::Makespan, 7, 3), Score(3));
        assert_eq!(balanced_score(Objective::WeightedLoad, 7, 3), Score(7));
        assert_eq!(balanced_score(Objective::FlowTime, 7, 3), Score(6 + 3 + 3));
        assert_eq!(balanced_score(Objective::LpNorm(2), 7, 3), Score(9 + 4 + 4));
        // Degenerate processor counts.
        assert_eq!(balanced_score(Objective::FlowTime, 0, 0), Score(0));
        assert_eq!(balanced_score(Objective::FlowTime, 1, 0), Score(u128::MAX));
        for obj in Objective::REPORTED {
            assert_eq!(balanced_score(obj, 0, 0), Score(0), "{obj}");
            assert_eq!(balanced_score(obj, 7, 0), Score(u128::MAX), "{obj}");
            assert_eq!(balanced_score(obj, 0, 5), Score(0), "{obj}");
        }
    }

    /// Regression: a per-processor quotient beyond `u64::MAX` used to be
    /// `as u64`-truncated into a tiny (invalid) bound; it must clamp for
    /// the sum objectives and stay exact for the bottleneck.
    #[test]
    fn balanced_score_survives_quotients_beyond_u64() {
        let work = (u64::MAX as u128) * 6 + 5; // q = 3·u64::MAX + 2 over p = 2
        let q = (u64::MAX as u128) * 3 + 2;
        assert_eq!(balanced_score(Objective::Makespan, work, 2), Score(q + 1));
        // The sum arms clamp the load to u64::MAX: still a valid floor,
        // and far from the near-zero value truncation produced.
        for obj in [Objective::WeightedLoad, Objective::FlowTime, Objective::LpNorm(2)] {
            let got = balanced_score(obj, work, 2);
            let floor = obj.proc_cost(u64::MAX).saturating_mul(2);
            assert!(got >= Score(floor), "{obj} truncated: {got}");
        }
    }

    #[test]
    fn balanced_score_is_a_valid_floor() {
        // Any split of 7 units over 3 processors costs at least the
        // balanced split, for every reported objective.
        let splits: [[u64; 3]; 4] = [[3, 2, 2], [4, 2, 1], [5, 1, 1], [7, 0, 0]];
        for obj in Objective::REPORTED {
            for split in &splits {
                assert!(
                    obj.evaluate(split) >= balanced_score(obj, 7, 3),
                    "{obj} {split:?} beat the balanced floor"
                );
            }
        }
    }
}
