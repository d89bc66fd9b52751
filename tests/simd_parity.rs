//! Scalar-vs-SIMD parity: the vectorized hot loops (ChaCha8 keystream
//! batches in `rand_chacha::simd`, status sweeps in `pram::simd`) must be
//! *observationally invisible* — random seeds and fill lengths produce
//! identical byte streams on every backend, and whole algorithm runs make
//! identical decisions whether the sweeps run scalar or wide.
//!
//! The in-crate tests already pin known-answer vectors and batch-level
//! backend agreement; this suite closes the loop at the facade level, where
//! the real consumers live: the RNG stream as the algorithms consume it
//! (mixed `next_u32`/`next_u64` patterns across refill seams) and the
//! end-to-end independent sets + cost accounting of SBL/BL runs.

use hypergraph_mis::hypergraph::Hypergraph;
use hypergraph_mis::prelude::*;
use proptest::prelude::*;
use rand::{RngCore, SeedableRng};
use rand_chacha::{simd as rng_simd, ChaCha8Rng};

/// 32 seed bytes + the little-endian key words `ChaCha8Rng::from_seed`
/// derives from them, expanded deterministically from a `u64`.
fn seed_and_key(seed: u64) -> ([u8; 32], [u32; 8]) {
    let mut seeder = ChaCha8Rng::seed_from_u64(seed);
    let mut bytes = [0u8; 32];
    for chunk in bytes.chunks_exact_mut(4) {
        chunk.copy_from_slice(&seeder.next_u32().to_le_bytes());
    }
    let key = core::array::from_fn(|i| {
        u32::from_le_bytes([
            bytes[4 * i],
            bytes[4 * i + 1],
            bytes[4 * i + 2],
            bytes[4 * i + 3],
        ])
    });
    (bytes, key)
}

/// The first `words` keystream words for `key`, computed with the scalar
/// reference batch fill only.
fn scalar_reference_stream(key: &[u32; 8], words: usize) -> Vec<u32> {
    let mut stream = Vec::with_capacity(words.next_multiple_of(rng_simd::BATCH_WORDS));
    let mut counter = 0u64;
    while stream.len() < words {
        let mut batch = [0u32; rng_simd::BATCH_WORDS];
        rng_simd::fill_batch_scalar(key, counter, &mut batch);
        stream.extend_from_slice(&batch);
        counter += rng_simd::BATCH_BLOCKS as u64;
    }
    stream
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random seeds × random consumption patterns: the `ChaCha8Rng` stream
    /// (whatever backend filled its batches) equals the scalar reference
    /// word for word, under arbitrary interleavings of `next_u32`,
    /// `next_u64` and `fill_bytes` that repeatedly cross refill seams.
    /// `fill_bytes` must consume the stream as the vendored `RngCore`
    /// default does: two words per started 8-byte chunk, written as
    /// little-endian bytes in stream order, so lengths that are not a
    /// multiple of 8 still consume the whole last chunk.
    #[test]
    fn rng_stream_matches_scalar_reference(
        seed in 0u64..u64::MAX,
        lead in 0usize..8,
        pattern in prop::collection::vec((0u8..4u8, 0usize..=1100), 1..300),
    ) {
        let (seed_bytes, key) = seed_and_key(seed);
        let words_of = |&(step, len): &(u8, usize)| match step {
            0 => 1,
            1 | 2 => 2,
            _ => len.div_ceil(8) * 2,
        };
        let odd_lead = 2 * lead + 1;
        let reference = scalar_reference_stream(
            &key,
            odd_lead + pattern.iter().map(words_of).sum::<usize>(),
        );
        let mut rng = ChaCha8Rng::from_seed(seed_bytes);
        // An odd number of `next_u32` calls first, so the pattern starts
        // from an odd word offset (and later steps shift the parity again).
        for &word in &reference[..odd_lead] {
            prop_assert_eq!(rng.next_u32(), word);
        }
        let mut at = odd_lead;
        for step in &pattern {
            match step.0 {
                0 => prop_assert_eq!(rng.next_u32(), reference[at]),
                1 | 2 => {
                    let expected =
                        u64::from(reference[at]) | (u64::from(reference[at + 1]) << 32);
                    prop_assert_eq!(rng.next_u64(), expected);
                }
                _ => {
                    let mut bytes = vec![0u8; step.1];
                    rng.fill_bytes(&mut bytes);
                    let expected: Vec<u8> = reference[at..at + words_of(step)]
                        .iter()
                        .flat_map(|w| w.to_le_bytes())
                        .take(step.1)
                        .collect();
                    prop_assert!(
                        bytes == expected,
                        "fill of {} bytes at word {} diverged",
                        step.1,
                        at
                    );
                }
            }
            at += words_of(step);
        }
    }

    /// Random seeds × random batch counters: every available keystream
    /// backend fills the identical batch.
    #[test]
    fn rng_backends_fill_identical_batches(
        seed in 0u64..u64::MAX,
        counter in 0u64..u64::MAX,
    ) {
        let (_, key) = seed_and_key(seed);
        let mut expected = [0u32; rng_simd::BATCH_WORDS];
        rng_simd::fill_batch_scalar(&key, counter, &mut expected);
        for backend in rng_simd::available_backends() {
            let mut got = [0u32; rng_simd::BATCH_WORDS];
            rng_simd::fill_batch_using(backend, &key, counter, &mut got);
            prop_assert!(
                got == expected,
                "backend {:?} diverged at counter {:#x}",
                backend,
                counter
            );
        }
    }
}

/// Everything a run observably produces, for cross-path comparison.
type Outcome = (Vec<u32>, u64, u64, u64);

fn run_sbl(h: &Hypergraph, seed: u64) -> Outcome {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let out = sbl_mis(h, &mut rng);
    assert!(verify_mis(h, &out.independent_set).is_ok());
    (
        out.independent_set,
        out.cost.cost().work,
        out.cost.cost().depth,
        out.cost.rounds(),
    )
}

fn run_bl(h: &Hypergraph, seed: u64) -> Outcome {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let out = bl_mis(h, &mut rng, &BlConfig::default());
    assert!(verify_mis(h, &out.independent_set).is_ok());
    (
        out.independent_set,
        out.cost.cost().work,
        out.cost.cost().depth,
        out.cost.rounds(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random graphs × random seeds: whole SBL/BL runs make byte-identical
    /// decisions (same set, same work/depth/rounds) with the status sweeps
    /// pinned to the scalar loops as with the auto-detected wide path.
    #[test]
    fn engine_decisions_identical_forced_scalar_vs_auto(
        gseed in 0u64..u64::MAX,
        seed in 0u64..u64::MAX,
        n in 60usize..320,
    ) {
        let mut grng = ChaCha8Rng::seed_from_u64(gseed);
        let m = (n / 6).max(8);
        let h = generate::paper_regime(&mut grng, n, m, 8);

        let auto_sbl = run_sbl(&h, seed);
        let scalar_sbl =
            pram::simd::with_capability(pram::simd::Capability::Scalar, || run_sbl(&h, seed));
        prop_assert_eq!(&auto_sbl, &scalar_sbl);

        let auto_bl = run_bl(&h, seed);
        let scalar_bl =
            pram::simd::with_capability(pram::simd::Capability::Scalar, || run_bl(&h, seed));
        prop_assert_eq!(&auto_bl, &scalar_bl);
    }
}

/// Every *individual* sweep capability (not just scalar vs the widest)
/// yields the same outcomes on a fixed workload.
#[test]
fn all_sweep_capabilities_agree_end_to_end() {
    let mut grng = ChaCha8Rng::seed_from_u64(0xCAFE);
    let h = generate::paper_regime(&mut grng, 500, 80, 10);
    let baseline = run_sbl(&h, 41);
    for cap in pram::simd::available() {
        let got = pram::simd::with_capability(cap, || run_sbl(&h, 41));
        assert_eq!(
            got, baseline,
            "sweep capability {cap:?} changed the outcome"
        );
    }
}
