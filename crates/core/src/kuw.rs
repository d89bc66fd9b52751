//! A Karp–Upfal–Wigderson style parallel-search baseline.
//!
//! Karp, Upfal and Wigderson ("The complexity of parallel search", JCSS 1988)
//! gave an `O(√n)`-time, `poly(m,n)`-processor algorithm for MIS in the
//! independence-oracle model; the paper uses it both as the prior state of the
//! art for general hypergraphs and as the finisher for SBL's residual
//! instance.
//!
//! The oracle model is not directly executable, so this module implements the
//! standard *batched random search* adaptation:
//! in every round the algorithm
//!
//! 1. discards vertices that can no longer join (singleton edges) — they are
//!    decided red;
//! 2. tests, **in parallel**, a family of random candidate subsets of the
//!    undecided vertices (several subsets per size, sizes doubling from 1 to
//!    the number of undecided vertices) against the independence oracle
//!    "does the current hypergraph have an edge inside this set?";
//! 3. commits the largest candidate that passed, removes its vertices and
//!    trims the edges.
//!
//! Each round costs polylogarithmic depth (all candidate tests are
//! independent) and commits at least one vertex, and the doubling search makes
//! it commit large batches whenever large independent batches exist — this is
//! the behaviour the `O(√n)` analysis exploits. Experiment E5 measures the
//! resulting round counts next to SBL's.

use hypergraph::{ActiveEngine, ActiveHypergraph, Hypergraph, VertexId};
use pram::cost::{Cost, CostTracker};
use pram::Workspace;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::trace::{KuwRoundStats, KuwTrace};

/// Number of random candidate subsets tested per size per round.
const TRIES_PER_SIZE: usize = 3;

/// Result of a KUW-style run.
#[derive(Debug, Clone)]
pub struct KuwOutcome {
    /// The maximal independent set found (sorted vertex ids).
    pub independent_set: Vec<VertexId>,
    /// Per-round instrumentation.
    pub trace: KuwTrace,
    /// Work–depth accounting.
    pub cost: CostTracker,
}

/// Runs the KUW-style baseline on a full hypergraph with the default (flat)
/// engine.
pub fn kuw_mis<R: Rng + ?Sized>(h: &Hypergraph, rng: &mut R) -> KuwOutcome {
    kuw_mis_with_engine::<ActiveHypergraph, R>(h, rng)
}

/// Runs the KUW-style baseline with a caller-owned [`Workspace`], reusing
/// its buffers and parked engine across solves. Identical results to
/// [`kuw_mis`] for the same seed.
pub fn kuw_mis_in<R: Rng + ?Sized>(h: &Hypergraph, rng: &mut R, ws: &mut Workspace) -> KuwOutcome {
    kuw_mis_with_engine_in::<ActiveHypergraph, R>(h, rng, ws)
}

/// Runs the KUW-style baseline on a full hypergraph with an explicit
/// [`ActiveEngine`] (used by the differential suites). Thin wrapper owning a
/// fresh workspace.
pub fn kuw_mis_with_engine<E: ActiveEngine + Send + 'static, R: Rng + ?Sized>(
    h: &Hypergraph,
    rng: &mut R,
) -> KuwOutcome {
    kuw_mis_with_engine_in::<E, R>(h, rng, &mut Workspace::new())
}

/// Engine-generic, workspace-reusing KUW entry point.
pub fn kuw_mis_with_engine_in<E: ActiveEngine + Send + 'static, R: Rng + ?Sized>(
    h: &Hypergraph,
    rng: &mut R,
    ws: &mut Workspace,
) -> KuwOutcome {
    let mut active: E = match ws.take_any::<E>("mis.kuw.engine") {
        Some(mut engine) => {
            engine.reset_from(h);
            engine
        }
        None => E::from_hypergraph(h),
    };
    let mut cost = CostTracker::new();
    let (independent_set, trace) = kuw_on_active_in(&mut active, rng, &mut cost, ws);
    ws.put_any("mis.kuw.engine", active);
    KuwOutcome {
        independent_set,
        trace,
        cost,
    }
}

/// Runs the KUW-style baseline on an [`ActiveEngine`] in place, deciding
/// every alive vertex. Returns the added vertices (sorted, global ids) and the
/// round trace; costs are recorded into `cost`.
pub fn kuw_on_active<E: ActiveEngine, R: Rng + ?Sized>(
    active: &mut E,
    rng: &mut R,
    cost: &mut CostTracker,
) -> (Vec<VertexId>, KuwTrace) {
    kuw_on_active_in(active, rng, cost, &mut Workspace::new())
}

/// Workspace-reusing variant of [`kuw_on_active`]: the per-round flag and
/// candidate buffers come from (and return to) `ws`, and the commit flags
/// are unwound through the committed batch instead of being reallocated, so
/// a warmed-up workspace makes the round loop allocation-free. Decisions,
/// RNG consumption order and the recorded cost script are identical.
pub fn kuw_on_active_in<E: ActiveEngine, R: Rng + ?Sized>(
    active: &mut E,
    rng: &mut R,
    cost: &mut CostTracker,
    ws: &mut Workspace,
) -> (Vec<VertexId>, KuwTrace) {
    let id_space = active.id_space();
    let mut independent_set: Vec<VertexId> = Vec::new();
    let mut trace = KuwTrace::default();
    let mut round = 0usize;
    // Each round decides at least one vertex, so this cap is never reached in
    // practice; it guards against a logic error turning into a hang.
    let max_rounds = 4 * id_space + 16;
    // Per-round scratch: `flags` is cleared through the committed batch at
    // the end of every round, so it stays all-false between rounds.
    let mut flags = ws.take_flags("mis.kuw.flags", id_space);
    let mut alive = ws.take_u32("mis.kuw.alive");
    let mut scratch = ws.take_u32("mis.kuw.scratch");
    let mut best = ws.take_u32("mis.kuw.best");

    while active.n_alive() > 0 && round < max_rounds {
        let n_alive = active.n_alive();
        let m = active.n_live_edges();

        // Step 1: vertices trapped by singleton edges are decided out.
        let excluded = active.remove_singleton_edges();
        cost.record(Cost::parallel_step(m as u64));

        if active.n_live_edges() == 0 {
            // No constraints remain: everything still alive joins.
            active.alive_into(&mut alive);
            for &v in &alive {
                flags[v as usize] = true;
            }
            active.kill_vertices(&alive);
            active.shrink_edges_by(&flags, &alive);
            for &v in &alive {
                flags[v as usize] = false;
            }
            cost.record(Cost::parallel_step(alive.len() as u64));
            cost.bump_round();
            trace.rounds.push(KuwRoundStats {
                round,
                n_alive,
                m,
                candidates_tested: 0,
                batch_added: alive.len(),
                excluded: excluded.len(),
            });
            independent_set.extend(alive.iter().copied());
            round += 1;
            continue;
        }

        // Step 2: parallel search over random candidate subsets with doubling
        // sizes.
        active.alive_into(&mut alive);
        best.clear();
        let mut tested = 0usize;
        let mut size = 1usize;
        scratch.clear();
        scratch.extend_from_slice(&alive);
        // The instance does not change while candidates are tested, so the
        // per-test oracle charge is a constant this round.
        let oracle_work = active.total_live_size() as u64;
        while size <= alive.len() {
            for _ in 0..TRIES_PER_SIZE {
                scratch.shuffle(rng);
                tested += 1;
                let independent = !active.contains_live_edge_within(&scratch[..size]);
                cost.record(Cost::parallel_step(oracle_work));
                if independent && size > best.len() {
                    best.clear();
                    best.extend_from_slice(&scratch[..size]);
                }
            }
            if size == alive.len() {
                break;
            }
            size = (size * 2).min(alive.len());
        }
        // After singleton cleanup every single vertex is an independent set,
        // so `best` is non-empty whenever any vertex is alive.
        debug_assert!(!best.is_empty() || alive.is_empty());

        // Step 3: commit the batch.
        for &v in &best {
            flags[v as usize] = true;
        }
        active.kill_vertices(&best);
        let emptied = active.shrink_edges_by(&flags, &best);
        debug_assert_eq!(emptied, 0, "committed batch was not independent");
        for &v in &best {
            flags[v as usize] = false;
        }
        cost.record(Cost::parallel_step(m as u64));
        cost.bump_round();

        trace.rounds.push(KuwRoundStats {
            round,
            n_alive,
            m,
            candidates_tested: tested,
            batch_added: best.len(),
            excluded: excluded.len(),
        });
        independent_set.extend(best.iter().copied());
        round += 1;
    }

    ws.put_flags("mis.kuw.flags", flags);
    ws.put_u32("mis.kuw.alive", alive);
    ws.put_u32("mis.kuw.scratch", scratch);
    ws.put_u32("mis.kuw.best", best);
    independent_set.sort_unstable();
    (independent_set, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_valid_mis;
    use hypergraph::builder::hypergraph_from_edges;
    use hypergraph::generate;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn kuw_on_toy_is_valid() {
        let h = hypergraph_from_edges(6, vec![vec![0, 1, 2], vec![2, 3], vec![3, 4, 5]]);
        let out = kuw_mis(&h, &mut rng(1));
        assert!(is_valid_mis(&h, &out.independent_set));
        assert!(out.trace.n_rounds() >= 1);
    }

    #[test]
    fn kuw_on_edgeless_takes_everything_in_one_round() {
        let h = hypergraph_from_edges::<Vec<u32>>(12, vec![]);
        let out = kuw_mis(&h, &mut rng(2));
        assert_eq!(out.independent_set.len(), 12);
        assert_eq!(out.trace.n_rounds(), 1);
    }

    #[test]
    fn kuw_handles_singleton_edges() {
        let h = hypergraph_from_edges(5, vec![vec![0], vec![0, 1], vec![2, 3, 4]]);
        let out = kuw_mis(&h, &mut rng(3));
        assert!(!out.independent_set.contains(&0));
        assert!(is_valid_mis(&h, &out.independent_set));
    }

    #[test]
    fn kuw_valid_on_random_instances() {
        for seed in 0..4u64 {
            let mut r = rng(50 + seed);
            let h = generate::mixed_dimension(&mut r, 80, 160, &[2, 3, 4, 5]);
            let out = kuw_mis(&h, &mut r);
            assert!(is_valid_mis(&h, &out.independent_set), "seed {seed}");
        }
    }

    #[test]
    fn kuw_valid_on_large_edge_hypergraphs() {
        // Unlike BL, KUW has no dimension restriction at all.
        let mut r = rng(9);
        let h = generate::paper_regime(&mut r, 300, 60, 15);
        let out = kuw_mis(&h, &mut r);
        assert!(is_valid_mis(&h, &out.independent_set));
    }

    #[test]
    fn kuw_round_count_is_sublinear_on_sparse_instances() {
        let mut r = rng(4);
        let n = 400;
        let h = generate::d_uniform(&mut r, n, 300, 3);
        let out = kuw_mis(&h, &mut r);
        assert!(is_valid_mis(&h, &out.independent_set));
        assert!(
            out.trace.n_rounds() < n / 2,
            "{} rounds for n={n}",
            out.trace.n_rounds()
        );
    }

    #[test]
    fn kuw_deterministic_for_fixed_seed() {
        let h = generate::d_uniform(&mut rng(5), 60, 120, 3);
        let a = kuw_mis(&h, &mut rng(21));
        let b = kuw_mis(&h, &mut rng(21));
        assert_eq!(a.independent_set, b.independent_set);
    }
}
