//! Shared workload builders and reporting helpers for the `experiments`
//! harness and the `perfbench` benchmark.
//!
//! Every experiment states its workload in terms of the functions here, so
//! each run measures exactly the same instances.

pub mod baseline;
pub mod load;

use hypergraph::{generate, Hypergraph};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The fixed base seed used by every experiment (reproducibility).
pub const BASE_SEED: u64 = 0x5BA1_2014;

/// A seeded RNG for workload `tag` (so different experiments do not share
/// random streams).
pub fn rng_for(tag: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(BASE_SEED ^ tag)
}

/// E1/E5 workload: a general hypergraph in the paper regime (`m ≈ n^β`,
/// clamped to at least `n/8` edges so small instances are non-trivial), edge
/// sizes 2..=16.
pub fn paper_workload(n: usize, seed: u64) -> Hypergraph {
    let mut rng = rng_for(seed.wrapping_mul(31).wrapping_add(n as u64));
    generate::paper_regime(&mut rng, n, (n / 8).max(16), 16)
}

/// E2 workload: a `d`-uniform hypergraph with `m = 2n` edges.
pub fn uniform_workload(n: usize, d: usize, seed: u64) -> Hypergraph {
    let mut rng = rng_for(seed.wrapping_mul(97).wrapping_add((n * 10 + d) as u64));
    generate::d_uniform(&mut rng, n, 2 * n, d)
}

/// E9 workload: a random linear hypergraph with edges of size 3.
pub fn linear_workload(n: usize, seed: u64) -> Hypergraph {
    let mut rng = rng_for(seed.wrapping_mul(193).wrapping_add(n as u64));
    generate::linear(&mut rng, n, (2 * n) / 3, 3)
}

/// Renders a markdown table (used by the experiments harness so its output can
/// be pasted into EXPERIMENTS.md verbatim).
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str("| ");
    out.push_str(&headers.join(" | "));
    out.push_str(" |\n|");
    for _ in headers {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        out.push_str("| ");
        out.push_str(&row.join(" | "));
        out.push_str(" |\n");
    }
    out
}

/// Geometric mean of a slice (0 if empty or any non-positive entry).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0) {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_reproducible() {
        assert_eq!(paper_workload(256, 1), paper_workload(256, 1));
        assert_eq!(uniform_workload(128, 3, 2), uniform_workload(128, 3, 2));
        assert_eq!(linear_workload(128, 3), linear_workload(128, 3));
        assert_ne!(paper_workload(256, 1), paper_workload(256, 2));
    }

    #[test]
    fn workload_shapes() {
        let h = paper_workload(512, 0);
        assert_eq!(h.n_vertices(), 512);
        assert!(h.n_edges() >= 16);
        let u = uniform_workload(100, 3, 0);
        assert_eq!(u.n_edges(), 200);
        assert_eq!(u.dimension(), 3);
        let l = linear_workload(120, 0);
        assert!(l.n_edges() > 0);
    }

    #[test]
    fn markdown_and_geomean() {
        let t = markdown_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert!(t.contains("| a | b |"));
        assert!(t.contains("| 1 | 2 |"));
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(geomean(&[1.0, 0.0]), 0.0);
    }
}
