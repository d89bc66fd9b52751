//! Seeded random hypergraph generators — the workload generators behind every
//! experiment in the `experiments` bin (E1–E10, see ROADMAP.md).
//!
//! All generators take a caller-supplied [`Rng`] so that experiments and tests
//! are reproducible (`rand_chacha::ChaCha8Rng::seed_from_u64` throughout the
//! workspace). Edge lists are always returned deduplicated via
//! [`HypergraphBuilder`], so the requested edge count is an upper bound when
//! collisions occur; generators resample to hit the exact count unless the
//! vertex set is too small for that to be possible.

use std::collections::BTreeSet;

use rand::seq::SliceRandom;
use rand::Rng;

use crate::builder::HypergraphBuilder;
use crate::graph::{Hypergraph, VertexId};
use crate::params::SblParams;

/// Draws a uniformly random `k`-subset of `0..n` (sorted).
///
/// Uses Floyd's algorithm: `O(k)` expected draws, no `O(n)` allocation.
pub fn random_subset<R: Rng + ?Sized>(rng: &mut R, n: usize, k: usize) -> Vec<VertexId> {
    assert!(k <= n, "cannot draw {k} distinct vertices out of {n}");
    let mut chosen: BTreeSet<VertexId> = BTreeSet::new();
    for j in (n - k)..n {
        let t = rng.gen_range(0..=j) as VertexId;
        if !chosen.insert(t) {
            chosen.insert(j as VertexId);
        }
    }
    chosen.into_iter().collect()
}

/// A `d`-uniform random hypergraph: `m` distinct edges, each a uniformly
/// random `d`-subset of the `n` vertices.
///
/// # Panics
/// Panics if `d > n`, or if `m` exceeds the number of distinct `d`-subsets
/// for small instances (detected by failing to make progress).
pub fn d_uniform<R: Rng + ?Sized>(rng: &mut R, n: usize, m: usize, d: usize) -> Hypergraph {
    assert!(d >= 1 && d <= n, "need 1 <= d <= n (d={d}, n={n})");
    let mut seen: BTreeSet<Vec<VertexId>> = BTreeSet::new();
    let mut builder = HypergraphBuilder::with_capacity(n, m);
    let mut stall = 0usize;
    while seen.len() < m {
        let e = random_subset(rng, n, d);
        if seen.insert(e.clone()) {
            builder.add_edge(e);
            stall = 0;
        } else {
            stall += 1;
            assert!(
                stall < 10_000,
                "cannot place {m} distinct {d}-uniform edges on {n} vertices"
            );
        }
    }
    builder.build()
}

/// A mixed-dimension random hypergraph: `m` distinct edges whose sizes are
/// drawn uniformly from `sizes`.
pub fn mixed_dimension<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    m: usize,
    sizes: &[usize],
) -> Hypergraph {
    assert!(!sizes.is_empty(), "need at least one edge size");
    assert!(
        sizes.iter().all(|&s| s >= 1 && s <= n),
        "every edge size must lie in 1..=n"
    );
    let mut seen: BTreeSet<Vec<VertexId>> = BTreeSet::new();
    let mut builder = HypergraphBuilder::with_capacity(n, m);
    let mut stall = 0usize;
    while seen.len() < m {
        let &d = sizes.choose(rng).expect("sizes non-empty");
        let e = random_subset(rng, n, d);
        if seen.insert(e.clone()) {
            builder.add_edge(e);
            stall = 0;
        } else {
            stall += 1;
            assert!(
                stall < 10_000,
                "cannot place {m} distinct edges with sizes {sizes:?} on {n} vertices"
            );
        }
    }
    builder.build()
}

/// A random *linear* hypergraph (any two edges share at most one vertex) with
/// edges of size `d`. Generation is greedy-rejection: up to `max_tries`
/// candidate edges are drawn and kept only if they preserve linearity, so the
/// result may have fewer than `m` edges on dense parameter choices; the actual
/// count is whatever fits.
///
/// Linear hypergraphs are the class for which Łuczak–Szymańska proved an RNC
/// algorithm (referenced in the paper's related work); experiment E9 uses
/// these instances.
pub fn linear<R: Rng + ?Sized>(rng: &mut R, n: usize, m: usize, d: usize) -> Hypergraph {
    assert!(d >= 2 && d <= n, "need 2 <= d <= n");
    let mut edges: Vec<Vec<VertexId>> = Vec::with_capacity(m);
    // pair_used[(u,v)] marks that some edge already contains both u and v.
    let mut pair_used: BTreeSet<(VertexId, VertexId)> = BTreeSet::new();
    let max_tries = 50 * m + 1000;
    let mut tries = 0;
    while edges.len() < m && tries < max_tries {
        tries += 1;
        let e = random_subset(rng, n, d);
        let mut ok = true;
        'pairs: for i in 0..e.len() {
            for j in (i + 1)..e.len() {
                if pair_used.contains(&(e[i], e[j])) {
                    ok = false;
                    break 'pairs;
                }
            }
        }
        if ok {
            for i in 0..e.len() {
                for j in (i + 1)..e.len() {
                    pair_used.insert((e[i], e[j]));
                }
            }
            edges.push(e);
        }
    }
    let mut builder = HypergraphBuilder::with_capacity(n, edges.len());
    builder.add_edges(edges);
    builder.build()
}

/// A hypergraph in the *paper regime* of Theorem 1: `n` vertices and
/// `m = ⌊n^β⌋`-ish edges (clamped to at least `min_m`) with a mixture of edge
/// sizes between 2 and `max_edge_size`, so the instance is a *general*
/// hypergraph (no dimension restriction) that still satisfies `m ≤ n^β`.
///
/// Edge sizes are drawn from a truncated geometric-like distribution: small
/// edges are common, large edges are rare — mirroring the paper's point that
/// the sampled sub-hypergraph has small dimension with high probability while
/// the input hypergraph itself may have huge edges.
pub fn paper_regime<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    min_m: usize,
    max_edge_size: usize,
) -> Hypergraph {
    let params = SblParams::practical_default(n);
    let m = (params.m_bound.floor() as usize).clamp(min_m, 10 * n.max(1));
    let max_size = max_edge_size.clamp(2, n.max(2));
    let mut sizes = Vec::with_capacity(m);
    for _ in 0..m {
        // Truncated geometric with ratio 1/2 starting at 2.
        let mut s = 2usize;
        while s < max_size && rng.gen_bool(0.5) {
            s += 1;
        }
        sizes.push(s);
    }
    let mut builder = HypergraphBuilder::with_capacity(n, m);
    let mut seen: BTreeSet<Vec<VertexId>> = BTreeSet::new();
    for &s in &sizes {
        // A bounded number of retries per edge; duplicates are just skipped
        // (the edge-count requirement is an upper bound, so losing a couple of
        // edges to collisions is fine).
        for _ in 0..20 {
            let e = random_subset(rng, n, s);
            if seen.insert(e.clone()) {
                builder.add_edge(e);
                break;
            }
        }
    }
    builder.build()
}

/// A hypergraph with a *planted* independent set: the vertices
/// `0..planted_size` never appear together as a full edge, so they form an
/// independent set (not necessarily maximal). Useful for correctness tests
/// that need a known certificate.
///
/// Every edge has size `d` and at least one vertex outside the planted set.
pub fn planted_independent<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    m: usize,
    d: usize,
    planted_size: usize,
) -> Hypergraph {
    assert!(
        planted_size < n,
        "planted set must leave at least one vertex"
    );
    assert!(d >= 2 && d <= n);
    let mut builder = HypergraphBuilder::with_capacity(n, m);
    let mut seen: BTreeSet<Vec<VertexId>> = BTreeSet::new();
    let mut stall = 0;
    while seen.len() < m {
        // Draw d-1 arbitrary vertices plus one guaranteed outside the planted set.
        let outside = rng.gen_range(planted_size..n) as VertexId;
        let mut e = random_subset(rng, n, d - 1);
        if !e.contains(&outside) {
            e.push(outside);
            e.sort_unstable();
        } else {
            continue;
        }
        if seen.insert(e.clone()) {
            builder.add_edge(e);
            stall = 0;
        } else {
            stall += 1;
            assert!(stall < 10_000, "cannot place {m} planted edges");
        }
    }
    builder.build()
}

/// Small deterministic families used by unit tests and the examples.
pub mod special {
    use super::*;

    /// The complete graph `K_n` as a 2-uniform hypergraph.
    pub fn complete_graph(n: usize) -> Hypergraph {
        let mut b = HypergraphBuilder::new(n);
        for u in 0..n as VertexId {
            for v in (u + 1)..n as VertexId {
                b.add_edge([u, v]);
            }
        }
        b.build()
    }

    /// A path `0 - 1 - … - (n-1)` as a 2-uniform hypergraph.
    pub fn path(n: usize) -> Hypergraph {
        let mut b = HypergraphBuilder::new(n);
        for v in 1..n as VertexId {
            b.add_edge([v - 1, v]);
        }
        b.build()
    }

    /// A cycle on `n ≥ 3` vertices.
    pub fn cycle(n: usize) -> Hypergraph {
        assert!(n >= 3, "a cycle needs at least 3 vertices");
        let mut b = HypergraphBuilder::new(n);
        for v in 0..n as VertexId {
            b.add_edge([v, ((v as usize + 1) % n) as VertexId]);
        }
        b.build()
    }

    /// A star: vertex 0 joined to each of `1..n` by a 2-edge.
    pub fn star(n: usize) -> Hypergraph {
        assert!(n >= 2);
        let mut b = HypergraphBuilder::new(n);
        for v in 1..n as VertexId {
            b.add_edge([0, v]);
        }
        b.build()
    }

    /// One giant edge over the first `g` vertices, plus a star of `k` 2-edges
    /// hanging off vertex 0. The giant edge is far above any practical
    /// dimension cap, so SBL must reach it through sampling rounds; the star
    /// keeps vertex 0 high-degree. Stresses the mixed giant/small edge paths
    /// of the trimming and domination machinery.
    pub fn giant_edge_with_stars(g: usize, k: usize) -> Hypergraph {
        assert!(g >= 2, "the giant edge needs at least 2 vertices");
        let n = g + k;
        let mut b = HypergraphBuilder::new(n);
        b.add_edge(0..g as VertexId);
        for i in 0..k {
            b.add_edge([0, (g + i) as VertexId]);
        }
        b.build()
    }

    /// Every vertex trapped by its own singleton edge `{v}`: the unique MIS
    /// is empty. Stresses the singleton-removal path of every algorithm.
    pub fn all_singletons(n: usize) -> Hypergraph {
        let mut b = HypergraphBuilder::new(n);
        for v in 0..n as VertexId {
            b.add_edge([v]);
        }
        b.build()
    }

    /// The "sunflower" with `k` petals of size `d` sharing a common core of
    /// size `c`: every pair of petals intersects exactly in the core. With
    /// `c = 1` this is a linear hypergraph; it stresses the dominated-edge and
    /// degree machinery.
    pub fn sunflower(k: usize, d: usize, c: usize) -> Hypergraph {
        assert!(c < d, "core must be smaller than the petal size");
        let petal_extra = d - c;
        let n = c + k * petal_extra;
        let mut b = HypergraphBuilder::new(n);
        for i in 0..k {
            let mut e: Vec<VertexId> = (0..c as VertexId).collect();
            let start = c + i * petal_extra;
            e.extend((start..start + petal_extra).map(|v| v as VertexId));
            b.add_edge(e);
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn random_subset_is_sorted_distinct_and_in_range() {
        let mut r = rng(1);
        for _ in 0..100 {
            let s = random_subset(&mut r, 50, 7);
            assert_eq!(s.len(), 7);
            assert!(s.windows(2).all(|w| w[0] < w[1]));
            assert!(s.iter().all(|&v| v < 50));
        }
        assert_eq!(random_subset(&mut r, 5, 5), vec![0, 1, 2, 3, 4]);
        assert!(random_subset(&mut r, 5, 0).is_empty());
    }

    #[test]
    fn special_adversarial_shapes() {
        let h = special::giant_edge_with_stars(10, 4);
        assert_eq!(h.n_vertices(), 14);
        assert_eq!(h.n_edges(), 5);
        assert_eq!(h.dimension(), 10);
        assert_eq!(h.degree(0), 5); // giant edge + all four star edges

        let h = special::all_singletons(6);
        assert_eq!(h.n_edges(), 6);
        assert_eq!(h.dimension(), 1);
        assert!(h.is_maximal_independent(&[]));
    }

    #[test]
    fn d_uniform_shape() {
        let mut r = rng(2);
        let h = d_uniform(&mut r, 100, 200, 3);
        assert_eq!(h.n_vertices(), 100);
        assert_eq!(h.n_edges(), 200);
        assert!(h.edges().all(|e| e.len() == 3));
    }

    #[test]
    fn d_uniform_is_deterministic_under_seed() {
        let h1 = d_uniform(&mut rng(7), 60, 80, 4);
        let h2 = d_uniform(&mut rng(7), 60, 80, 4);
        assert_eq!(h1, h2);
        let h3 = d_uniform(&mut rng(8), 60, 80, 4);
        assert_ne!(h1, h3);
    }

    #[test]
    fn mixed_dimension_sizes_respected() {
        let mut r = rng(3);
        let h = mixed_dimension(&mut r, 80, 120, &[2, 3, 5]);
        assert_eq!(h.n_edges(), 120);
        assert!(h.edges().all(|e| [2, 3, 5].contains(&e.len())));
        assert!(h.dimension() <= 5);
    }

    #[test]
    fn linear_hypergraph_property_holds() {
        let mut r = rng(4);
        let h = linear(&mut r, 120, 60, 3);
        assert!(h.n_edges() > 0);
        let edges: Vec<&[u32]> = h.edges().collect();
        for i in 0..edges.len() {
            for j in (i + 1)..edges.len() {
                let inter = edges[i].iter().filter(|v| edges[j].contains(v)).count();
                assert!(inter <= 1, "edges {i} and {j} share {inter} vertices");
            }
        }
    }

    #[test]
    fn paper_regime_respects_edge_bound_shape() {
        let mut r = rng(5);
        let h = paper_regime(&mut r, 500, 50, 12);
        assert_eq!(h.n_vertices(), 500);
        assert!(h.n_edges() >= 1);
        assert!(h.dimension() <= 12);
        assert!(h.dimension() >= 2);
    }

    #[test]
    fn planted_set_is_independent() {
        let mut r = rng(6);
        let planted = 40;
        let h = planted_independent(&mut r, 100, 300, 4, planted);
        let set: Vec<u32> = (0..planted as u32).collect();
        assert!(h.is_independent(&set));
        assert_eq!(h.n_edges(), 300);
    }

    #[test]
    fn special_families() {
        let k5 = special::complete_graph(5);
        assert_eq!(k5.n_edges(), 10);
        assert_eq!(k5.dimension(), 2);

        let p4 = special::path(4);
        assert_eq!(p4.n_edges(), 3);
        assert!(p4.is_maximal_independent(&[0, 2]) || p4.is_independent(&[0, 2]));

        let c5 = special::cycle(5);
        assert_eq!(c5.n_edges(), 5);
        assert!(c5.is_independent(&[0, 2]));
        assert!(!c5.is_independent(&[0, 1]));

        let s6 = special::star(6);
        assert_eq!(s6.n_edges(), 5);
        assert!(s6.is_maximal_independent(&[1, 2, 3, 4, 5]));
        assert!(s6.is_maximal_independent(&[0]));

        let sf = special::sunflower(4, 3, 1);
        assert_eq!(sf.n_edges(), 4);
        assert_eq!(sf.dimension(), 3);
        assert_eq!(sf.n_vertices(), 1 + 4 * 2);
    }

    #[test]
    #[should_panic(expected = "cannot place")]
    fn impossible_edge_count_panics() {
        let mut r = rng(9);
        // Only C(4,2)=6 distinct pairs exist; asking for 10 must fail loudly.
        let _ = d_uniform(&mut r, 4, 10, 2);
    }
}
