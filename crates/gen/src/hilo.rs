//! The HiLo bipartite generator (§V-A1).
//!
//! HiLo(n, p, g, d): `V1` and `V2` are split into `g` groups. Writing
//! `x_i^j` for the `i`-th vertex (1-based) of group `j` of `V1` and
//! `y_k^j` likewise for `V2`, vertex `x_i^j` is adjacent to every `y_k^j`
//! with `k = max(1, min(i, p/g) − d) ..= min(i, p/g)` and, when `j < g`,
//! to the same `k`-range in group `j + 1`.
//!
//! The construction itself is deterministic. Following the generator's use
//! in matching studies, [`hilo_permuted`] additionally relabels both vertex
//! sides with a random permutation; the structure is untouched but the
//! visiting order of the greedy heuristics — and hence their tie-breaking —
//! varies across instances, which realizes the paper's
//! ten-random-instances-per-configuration protocol (DESIGN.md §3).

use semimatch_graph::{Bipartite, BipartiteBuilder, Result};

use crate::rng::Xoshiro256;

/// Deterministic HiLo instance.
///
/// `n` may be arbitrary (groups are filled as evenly as possible, the first
/// `n mod g` groups take one extra vertex); `p` must be divisible by `g`,
/// as in all configurations used by the paper.
///
/// # Panics
/// Panics if `g == 0`, `p % g != 0`, or `d == 0`.
pub fn hilo(n: u32, p: u32, g: u32, d: u32) -> Bipartite {
    assert!(g > 0, "need at least one group");
    assert!(
        p.is_multiple_of(g),
        "HiLo requires p divisible by g (paper configurations satisfy this)"
    );
    assert!(d > 0, "degree parameter must be positive");
    let pg = p / g; // processors per group

    // Each task takes at most min(d + 1, p/g) processors in each of two
    // groups; a huge `d` must not size the reservation.
    let per_task = (d as usize).saturating_add(1).min(pg as usize).saturating_mul(2);
    let mut builder = BipartiteBuilder::with_capacity(n, p, (n as usize).saturating_mul(per_task));
    let base = n / g;
    let extra = n % g;
    let mut v = 0u32; // global V1 index
    for j in 0..g {
        let group_size = base + u32::from(j < extra);
        for i in 1..=group_size {
            let hi = i.min(pg);
            let lo = hi.saturating_sub(d).max(1);
            for k in lo..=hi {
                builder.edge(v, j * pg + (k - 1));
                if j + 1 < g {
                    builder.edge(v, (j + 1) * pg + (k - 1));
                }
            }
            v += 1;
        }
    }
    builder.build().expect("HiLo construction is structurally valid")
}

/// HiLo with randomly relabeled vertices (structure-preserving).
pub fn hilo_permuted(n: u32, p: u32, g: u32, d: u32, rng: &mut Xoshiro256) -> Bipartite {
    permute_bipartite(&hilo(n, p, g, d), rng).expect("permutation preserves validity")
}

/// Relabels both sides of `g` with uniform random permutations.
pub fn permute_bipartite(g: &Bipartite, rng: &mut Xoshiro256) -> Result<Bipartite> {
    let mut left_map: Vec<u32> = (0..g.n_left()).collect();
    let mut right_map: Vec<u32> = (0..g.n_right()).collect();
    rng.shuffle(&mut left_map);
    rng.shuffle(&mut right_map);
    let mut edges = Vec::with_capacity(g.num_edges());
    let mut weights = Vec::with_capacity(g.num_edges());
    for (_, v, u, w) in g.edges() {
        edges.push((left_map[v as usize], right_map[u as usize]));
        weights.push(w);
    }
    Bipartite::from_weighted_edges(g.n_left(), g.n_right(), &edges, &weights)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_instance_structure() {
        // n = p = 8, g = 2, d = 1: pg = 4.
        let g = hilo(8, 8, 2, 1);
        assert_eq!(g.n_left(), 8);
        assert_eq!(g.n_right(), 8);
        // Vertex x_1^1 (global 0): hi = min(1,4) = 1, lo = 1 → k = 1 in
        // groups 1 and 2 → processors 0 and 4.
        assert_eq!(g.neighbors(0), &[0, 4]);
        // Vertex x_2^1 (global 1): hi = 2, lo = 1 → k ∈ {1,2} both groups.
        assert_eq!(g.neighbors(1), &[0, 1, 4, 5]);
        // Vertex x_1^2 (global 4): group 2 is last → only its own group.
        assert_eq!(g.neighbors(4), &[4]);
        g.validate().unwrap();
    }

    #[test]
    fn admits_left_perfect_assignment_when_square() {
        // The defining property of HiLo graphs with n == p: a perfect
        // matching exists (x_i^j ↔ y_{min(i,pg)}^j is NOT it, but the
        // diagonal k = i works since i ≤ pg within each group).
        let g = hilo(16, 16, 4, 2);
        let m = max_matching_size(&g);
        assert_eq!(m, 16);
    }

    /// Maximum-matching *cardinality* via a minimal augmenting-path
    /// matcher — not a semi-matching; kept local to avoid a dev-dependency
    /// cycle with semimatch-matching.
    fn max_matching_size(g: &Bipartite) -> usize {
        let n1 = g.n_left() as usize;
        let n2 = g.n_right() as usize;
        let mut mate_l = vec![u32::MAX; n1];
        let mut mate_r = vec![u32::MAX; n2];
        fn try_augment(
            g: &Bipartite,
            v: u32,
            seen: &mut [bool],
            mate_l: &mut [u32],
            mate_r: &mut [u32],
        ) -> bool {
            for &u in g.neighbors(v) {
                if seen[u as usize] {
                    continue;
                }
                seen[u as usize] = true;
                if mate_r[u as usize] == u32::MAX
                    || try_augment(g, mate_r[u as usize], seen, mate_l, mate_r)
                {
                    mate_r[u as usize] = v;
                    mate_l[v as usize] = u;
                    return true;
                }
            }
            false
        }
        let mut count = 0;
        for v in 0..n1 as u32 {
            let mut seen = vec![false; n2];
            if try_augment(g, v, &mut seen, &mut mate_l, &mut mate_r) {
                count += 1;
            }
        }
        count
    }

    #[test]
    fn degree_clipped_by_group_width() {
        // pg = 2 but d = 10: each vertex sees at most 2 processors per
        // group (the HLM regime of the paper, where hyperedges are small).
        let g = hilo(8, 8, 4, 10);
        for v in 0..g.n_left() {
            assert!(g.deg_left(v) <= 4);
        }
    }

    #[test]
    fn uneven_task_groups_distribute() {
        let g = hilo(10, 8, 4, 1);
        assert_eq!(g.n_left(), 10);
        g.validate().unwrap();
    }

    #[test]
    fn permutation_preserves_shape() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        let a = hilo(32, 16, 4, 3);
        let b = hilo_permuted(32, 16, 4, 3, &mut rng);
        assert_eq!(a.n_left(), b.n_left());
        assert_eq!(a.num_edges(), b.num_edges());
        // Degree multisets are preserved.
        let mut da: Vec<u32> = (0..a.n_left()).map(|v| a.deg_left(v)).collect();
        let mut db: Vec<u32> = (0..b.n_left()).map(|v| b.deg_left(v)).collect();
        da.sort_unstable();
        db.sort_unstable();
        assert_eq!(da, db);
        b.validate().unwrap();
    }

    #[test]
    fn permutations_differ_across_streams() {
        let root = Xoshiro256::seed_from_u64(9);
        let a = hilo_permuted(32, 16, 4, 3, &mut root.stream(0));
        let b = hilo_permuted(32, 16, 4, 3, &mut root.stream(1));
        assert_ne!(a, b, "different streams give different relabelings");
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn indivisible_p_rejected() {
        hilo(8, 9, 2, 1);
    }
}
