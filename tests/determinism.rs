//! Deterministic-reproducibility suite: every algorithm in the workspace is a
//! pure function of (hypergraph, RNG seed). Same `ChaCha8Rng` seed ⇒ the
//! identical independent set *and* identical cost-model accounting (work,
//! depth, rounds), run after run — including when the PRAM primitives execute
//! on multi-threaded rayon pools, and across different pool sizes.
//!
//! This is the foundation every experiment (E1–E10, see ROADMAP.md) rests
//! on: if a seeded run is not bit-stable, no reported table is trustworthy.

use hypergraph_mis::hypergraph::Hypergraph;
use hypergraph_mis::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Everything a run of an algorithm can observably produce, flattened for
/// equality comparison: the set itself plus the cost-model quantities.
type Fingerprint = (Vec<u32>, u64, u64, u64);

fn fingerprint(set: &[u32], cost: &CostTracker) -> Fingerprint {
    (
        set.to_vec(),
        cost.cost().work,
        cost.cost().depth,
        cost.rounds(),
    )
}

fn small_instance(seed: u64) -> Hypergraph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    generate::paper_regime(&mut rng, 400, 60, 10)
}

/// Large enough that `par_tabulate`/`par_map` cross the sequential cutoff
/// (4096) inside the PRAM primitives, so the parallel code paths really run.
fn large_instance(seed: u64) -> Hypergraph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    generate::paper_regime(&mut rng, 6000, 900, 12)
}

/// Also past the parallel cutoff in vertex count, but sparse: the
/// quadratic-ish per-stage work of BL/KUW stays cheap in debug builds while
/// the per-vertex primitives still run multi-threaded.
fn sparse_large_instance(seed: u64) -> Hypergraph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    generate::d_uniform(&mut rng, 6000, 400, 4)
}

#[test]
fn sbl_same_seed_same_everything() {
    let h = small_instance(1);
    let run = |seed: u64| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let out = sbl_mis(&h, &mut rng);
        assert!(verify_mis(&h, &out.independent_set).is_ok());
        (
            fingerprint(&out.independent_set, &out.cost),
            out.trace.n_rounds(),
        )
    };
    assert_eq!(run(7), run(7));
    assert_eq!(run(8), run(8));
}

#[test]
fn bl_same_seed_same_everything() {
    let h = small_instance(2);
    let run = |seed: u64| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let out = bl_mis(&h, &mut rng, &BlConfig::default());
        assert!(verify_mis(&h, &out.independent_set).is_ok());
        fingerprint(&out.independent_set, &out.cost)
    };
    assert_eq!(run(7), run(7));
    assert_eq!(run(1234), run(1234));
}

#[test]
fn kuw_same_seed_same_everything() {
    let h = small_instance(3);
    let run = |seed: u64| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let out = kuw_mis(&h, &mut rng);
        assert!(verify_mis(&h, &out.independent_set).is_ok());
        fingerprint(&out.independent_set, &out.cost)
    };
    assert_eq!(run(7), run(7));
    assert_eq!(run(99), run(99));
}

#[test]
fn greedy_is_deterministic_with_and_without_order() {
    let h = small_instance(4);
    let a = greedy_mis(&h, None);
    let b = greedy_mis(&h, None);
    assert_eq!(
        fingerprint(&a.independent_set, &a.cost),
        fingerprint(&b.independent_set, &b.cost)
    );
    let order: Vec<u32> = (0..h.n_vertices() as u32).rev().collect();
    let c = greedy_mis(&h, Some(&order));
    let d = greedy_mis(&h, Some(&order));
    assert_eq!(c.independent_set, d.independent_set);
}

#[test]
fn permutation_same_seed_same_everything() {
    let h = small_instance(5);
    let run = |seed: u64| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let out = permutation_mis(&h, &mut rng);
        assert!(verify_mis(&h, &out.independent_set).is_ok());
        (
            fingerprint(&out.independent_set, &out.cost),
            out.permutation.clone(),
        )
    };
    assert_eq!(run(7), run(7));
    assert_eq!(run(31), run(31));
}

#[test]
fn linear_same_seed_same_everything() {
    let mut gen_rng = ChaCha8Rng::seed_from_u64(6);
    let h = generate::linear(&mut gen_rng, 300, 180, 3);
    assert!(check_linear(&h).is_ok());
    let run = |seed: u64| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let out = linear_mis(&h, &mut rng).expect("instance is linear");
        assert!(verify_mis(&h, &out.independent_set).is_ok());
        fingerprint(&out.independent_set, &out.cost)
    };
    assert_eq!(run(7), run(7));
    assert_eq!(run(70), run(70));
}

/// Seeded generation itself must be reproducible, or nothing downstream is.
#[test]
fn generators_are_reproducible() {
    assert_eq!(small_instance(11), small_instance(11));
    let mk = |seed| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (
            generate::d_uniform(&mut rng, 120, 240, 4),
            generate::mixed_dimension(&mut rng, 100, 150, &[2, 3, 5]),
            generate::planted_independent(&mut rng, 90, 180, 3, 30),
        )
    };
    assert_eq!(mk(21), mk(21));
}

/// The same seeded run, executed under rayon pools of different sizes, must
/// produce identical results and identical cost accounting: the PRAM
/// primitives are order-preserving, so thread count is unobservable.
#[test]
fn sbl_is_thread_count_invariant() {
    let h = large_instance(12);
    let run = |threads: usize| {
        with_threads(threads, || {
            let mut rng = ChaCha8Rng::seed_from_u64(424242);
            let out = sbl_mis(&h, &mut rng);
            assert!(verify_mis(&h, &out.independent_set).is_ok());
            fingerprint(&out.independent_set, &out.cost)
        })
    };
    let single = run(1);
    assert_eq!(single, run(2));
    assert_eq!(single, run(4));
    // And twice under the same pool size.
    assert_eq!(run(4), run(4));
}

#[test]
fn kuw_is_thread_count_invariant() {
    let h = sparse_large_instance(13);
    let run = |threads: usize| {
        with_threads(threads, || {
            let mut rng = ChaCha8Rng::seed_from_u64(777);
            let out = kuw_mis(&h, &mut rng);
            fingerprint(&out.independent_set, &out.cost)
        })
    };
    assert_eq!(run(1), run(4));
}

#[test]
fn bl_is_thread_count_invariant() {
    let h = sparse_large_instance(14);
    let run = |threads: usize| {
        with_threads(threads, || {
            let mut rng = ChaCha8Rng::seed_from_u64(3141);
            let out = bl_mis(&h, &mut rng, &BlConfig::default());
            fingerprint(&out.independent_set, &out.cost)
        })
    };
    assert_eq!(run(1), run(3));
}

/// Different seeds should (overwhelmingly) explore different runs; guard
/// against an accidentally seed-independent code path. Checked on the
/// permutation algorithm, whose output is a direct function of the shuffle.
#[test]
fn different_seeds_actually_differ() {
    let h = small_instance(15);
    let perm_of = |seed: u64| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        permutation_mis(&h, &mut rng).permutation
    };
    assert_ne!(perm_of(1), perm_of(2));
}
