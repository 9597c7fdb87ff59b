//! The FewgManyg bipartite generator (§V-A1).
//!
//! FewgManyg(n, p, g, d): both vertex sets are split into `g` groups. The
//! degree `d_i` of each `V1` vertex is sampled from a binomial distribution
//! with mean `d`; its neighbors are then drawn uniformly **without
//! replacement** from the `V2` vertices of groups `j−1`, `j`, `j+1`
//! (wrap-around), where `j` is the vertex's own group. When `d_i` exceeds
//! the `3p/g` vertices of that window, the draw is **with replacement**
//! (duplicates collapse, so the realized degree is smaller) — exactly the
//! rule stated in the paper.
//!
//! `g = 32` gives the paper's "Fewg" (FG) family, `g = 128` "Manyg" (MG).

use semimatch_graph::{Bipartite, BipartiteBuilder};

use crate::binomial::degree_with_mean;
use crate::rng::Xoshiro256;

/// Generates a FewgManyg(n, p, g, d) instance.
///
/// # Panics
/// Panics if `g == 0`, `p % g != 0`, or `d == 0`.
pub fn fewg_manyg(n: u32, p: u32, g: u32, d: u32, rng: &mut Xoshiro256) -> Bipartite {
    assert!(g > 0, "need at least one group");
    assert!(
        p.is_multiple_of(g),
        "FewgManyg requires p divisible by g (paper configurations satisfy this)"
    );
    assert!(d > 0, "degree parameter must be positive");
    let pg = p / g; // processors per group
                    // Candidate neighbors live in groups j−1, j, j+1; with fewer than three
                    // groups the wrap-around makes those coincide, so the window shrinks.
    let window = g.min(3) * pg;
    let base = n / g;
    let extra = n % g;
    // A task gets at most `window` distinct neighbours, whatever `d` is.
    let edges = (n as usize).saturating_mul(d.min(window) as usize);
    let mut builder = BipartiteBuilder::with_capacity(n, p, edges);
    let mut pool: Vec<u64> = Vec::with_capacity(window as usize);
    let mut dedup: Vec<u32> = Vec::with_capacity(window as usize);
    let mut drawn: Vec<bool> = Vec::with_capacity(window as usize);

    let mut v = 0u32;
    for j in 0..g {
        let group_size = base + u32::from(j < extra);
        // The window starts at group j−1 (wrapping); position t of the
        // window maps to processor ((j+g−1)·pg + t) mod p.
        let window_start = ((j + g - 1) % g) * pg;
        for _ in 0..group_size {
            let di = degree_with_mean(rng, d);
            dedup.clear();
            if di <= window {
                for t in rng.sample_distinct(window as u64, di as usize, &mut pool) {
                    dedup.push(offset_to_proc(window_start, t as u32, p));
                }
            } else {
                // With replacement: duplicates collapse, so only whether
                // each window position was drawn is kept.
                drawn.clear();
                drawn.resize(window as usize, false);
                for _ in 0..di {
                    drawn[rng.below(window as u64) as usize] = true;
                }
                for t in (0..window).filter(|&t| drawn[t as usize]) {
                    dedup.push(offset_to_proc(window_start, t, p));
                }
                dedup.sort_unstable();
            }
            for &u in &dedup {
                builder.edge(v, u);
            }
            v += 1;
        }
    }
    builder.build().expect("FewgManyg construction is structurally valid")
}

#[inline]
fn offset_to_proc(window_start: u32, offset: u32, p: u32) -> u32 {
    (window_start + offset) % p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degrees_within_window() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        let g = fewg_manyg(256, 64, 8, 5, &mut rng);
        assert_eq!(g.n_left(), 256);
        assert_eq!(g.n_right(), 64);
        g.validate().unwrap();
        // Window is 3·8 = 24 processors; no vertex can exceed it.
        for v in 0..g.n_left() {
            let deg = g.deg_left(v);
            assert!(deg >= 1, "degrees are clamped to ≥ 1");
            assert!(deg <= 24);
        }
    }

    #[test]
    fn neighbors_restricted_to_adjacent_groups() {
        let mut rng = Xoshiro256::seed_from_u64(2);
        let n = 64;
        let p = 32;
        let groups = 8;
        let pg = p / groups;
        let g = fewg_manyg(n, p, groups, 2, &mut rng);
        let base = n / groups;
        for v in 0..g.n_left() {
            let j = v / base; // group of v (n divisible by groups here)
            for &u in g.neighbors(v) {
                let ju = u / pg;
                let dist = (ju + groups - j) % groups;
                assert!(
                    dist == 0 || dist == 1 || dist == groups - 1,
                    "task {v} (group {j}) linked to processor {u} (group {ju})"
                );
            }
        }
    }

    #[test]
    fn tight_window_collapses_duplicates() {
        // pg = 2 → window 6 < mean degree 10: the with-replacement branch.
        let mut rng = Xoshiro256::seed_from_u64(3);
        let g = fewg_manyg(128, 16, 8, 10, &mut rng);
        g.validate().unwrap();
        let avg: f64 =
            (0..g.n_left()).map(|v| g.deg_left(v) as f64).sum::<f64>() / g.n_left() as f64;
        // Expected distinct of ~10 draws from 6 ≈ 6·(1−(5/6)^10) ≈ 5.0.
        assert!(avg > 3.5 && avg < 6.0, "realized mean degree {avg}");
    }

    #[test]
    fn wide_window_keeps_mean_degree() {
        let mut rng = Xoshiro256::seed_from_u64(4);
        let g = fewg_manyg(2048, 256, 8, 5, &mut rng);
        let avg: f64 =
            (0..g.n_left()).map(|v| g.deg_left(v) as f64).sum::<f64>() / g.n_left() as f64;
        assert!((avg - 5.0).abs() < 0.3, "realized mean degree {avg}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = fewg_manyg(64, 32, 4, 3, &mut Xoshiro256::seed_from_u64(77));
        let b = fewg_manyg(64, 32, 4, 3, &mut Xoshiro256::seed_from_u64(77));
        assert_eq!(a, b);
        let c = fewg_manyg(64, 32, 4, 3, &mut Xoshiro256::seed_from_u64(78));
        assert_ne!(a, c);
    }

    #[test]
    fn single_group_wraps_onto_itself() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        let g = fewg_manyg(16, 8, 1, 3, &mut rng);
        g.validate().unwrap();
        for v in 0..g.n_left() {
            assert!(g.deg_left(v) >= 1);
        }
    }
}
