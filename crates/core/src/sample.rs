//! Bulk Bernoulli draws for the per-vertex coin flips of SBL's sampling
//! step, Beame–Luby's marking step and linear marking.
//!
//! One sampling round flips a coin for every undecided vertex, so a solve
//! makes hundreds of thousands of draws. [`for_each_hit`] makes the same
//! decisions as a loop of `gen_bool(p)` calls, from the same generator words
//! in the same order, but reads the words in bulk and compares integers.

use hypergraph::VertexId;
use rand::RngCore;

/// Generator words read per [`RngCore::fill_bytes`] call.
const CHUNK_WORDS: usize = 256;

/// Calls `on_hit(v)`, in order, for every `v` of `candidates` that a
/// Bernoulli(`p`) draw selects, consuming exactly one `u64` generator word
/// per candidate.
///
/// This mirrors the vendored `rand::Rng::gen_bool(p)` bit for bit. That
/// method maps a word `x` to `(x >> 11) · 2⁻⁵³`, which is exact, and accepts
/// when it is below `p`; for an integer `k = x >> 11`, `k · 2⁻⁵³ < p` holds
/// exactly when `k < ⌈p · 2⁵³⌉`, and `p · 2⁵³` is exact too. The words are
/// read [`CHUNK_WORDS`] at a time through [`RngCore::fill_bytes`], whose
/// vendored default (and `ChaCha8Rng`'s override) hands out the same
/// little-endian `next_u64` words a `gen_bool` loop would take. The registry
/// `rand` computes `gen_bool` differently, so swapping it back in changes
/// both together: this function must then follow that crate's `gen_bool`,
/// and seeded outputs must be re-pinned either way.
///
/// # Panics
/// Panics unless `0.0 <= p <= 1.0`, like `gen_bool`.
pub(crate) fn for_each_hit<R: RngCore + ?Sized>(
    rng: &mut R,
    p: f64,
    candidates: &[VertexId],
    mut on_hit: impl FnMut(VertexId),
) {
    assert!((0.0..=1.0).contains(&p), "p={p} is not a probability");
    let threshold = (p * (1u64 << 53) as f64).ceil() as u64;
    let mut bytes = [0u8; 8 * CHUNK_WORDS];
    for chunk in candidates.chunks(CHUNK_WORDS) {
        let bytes = &mut bytes[..8 * chunk.len()];
        rng.fill_bytes(bytes);
        for (&v, word) in chunk.iter().zip(bytes.chunks_exact(8)) {
            let x = u64::from_le_bytes(word.try_into().expect("chunks of 8 bytes"));
            if (x >> 11) < threshold {
                on_hit(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// A generator that keeps the vendored default `fill_bytes`.
    #[derive(Clone)]
    struct Splitmix(u64);

    impl RngCore for Splitmix {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }

        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// Runs the bulk sampler on one generator and a `gen_bool` loop on an
    /// identical one, then checks the hits and the words that follow.
    fn assert_matches_gen_bool<G: RngCore + Clone>(rng: &G, p: f64, count: usize) {
        let candidates: Vec<VertexId> = (0..count as VertexId).map(|v| v * 3 + 1).collect();
        let (mut bulk, mut single) = (rng.clone(), rng.clone());
        let mut bulk_hits = Vec::new();
        for_each_hit(&mut bulk, p, &candidates, |v| bulk_hits.push(v));
        let single_hits: Vec<VertexId> = candidates
            .iter()
            .copied()
            .filter(|_| single.gen_bool(p))
            .collect();
        assert_eq!(bulk_hits, single_hits, "p={p}, count={count}");
        for _ in 0..3 {
            assert_eq!(bulk.next_u64(), single.next_u64(), "p={p}, count={count}");
        }
        assert_eq!(bulk.next_u32(), single.next_u32(), "p={p}, count={count}");
    }

    #[test]
    fn bulk_draws_match_a_gen_bool_loop() {
        let probabilities = [
            0.0,
            1e-9,
            f64::MIN_POSITIVE,
            0.05,
            0.5,
            1.0 - f64::EPSILON / 2.0,
            1.0,
        ];
        let counts = [0, 1, 255, 256, 257, 773];
        for seed in [1u64, 0xD1CE] {
            let even = ChaCha8Rng::seed_from_u64(seed);
            let mut odd = even.clone();
            odd.next_u32();
            for &p in &probabilities {
                for &count in &counts {
                    assert_matches_gen_bool(&even, p, count);
                    assert_matches_gen_bool(&odd, p, count);
                    assert_matches_gen_bool(&Splitmix(seed), p, count);
                }
            }
        }
    }

    /// Words whose top 53 bits sit right around `p · 2⁵³`, where rounding
    /// the threshold the wrong way would flip a decision.
    #[test]
    fn decisions_at_the_threshold_match_gen_bool() {
        struct Fixed(std::vec::IntoIter<u64>);
        impl RngCore for Fixed {
            fn next_u32(&mut self) -> u32 {
                self.next_u64() as u32
            }
            fn next_u64(&mut self) -> u64 {
                self.0.next().expect("enough words")
            }
        }
        for p in [0.5, 0.1, 1e-9, f64::MIN_POSITIVE, 1.0 - f64::EPSILON / 2.0] {
            let at = (p * (1u64 << 53) as f64).floor() as u64;
            let last = (at + 2).min((1 << 53) - 1);
            let words: Vec<u64> = (at.saturating_sub(2)..=last).map(|k| k << 11).collect();
            let candidates: Vec<VertexId> = (0..words.len() as VertexId).collect();
            let mut hits = Vec::new();
            for_each_hit(&mut Fixed(words.clone().into_iter()), p, &candidates, |v| {
                hits.push(v)
            });
            let mut single = Fixed(words.into_iter());
            let expected: Vec<VertexId> = candidates
                .iter()
                .copied()
                .filter(|_| single.gen_bool(p))
                .collect();
            assert_eq!(hits, expected, "p={p}");
        }
    }

    #[test]
    #[should_panic(expected = "is not a probability")]
    fn rejects_out_of_range_probability() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for_each_hit(&mut rng, 1.5, &[0], |_| {});
    }
}
