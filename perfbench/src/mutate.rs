//! `mutate_query`: writes beside reads. One thread runs induced Beame–Luby
//! queries pinned to `Latest` on a 2-shard `ShardedRunner` and, after every
//! fixed number of queries, applies a batch of edge edits with
//! `ResidentRegistry::apply`. Each new epoch copies the graph, rebuilds the
//! engine and makes the shards rewarm, so a read-path gain that assumes a
//! stable graph shows its cost here.

use crate::closed::{self, Timings};
use crate::common::{
    digest, load_plan, query_specs, report_apply_e2e, report_writes, retention, sampled,
    serve_config, us, Ctx, QuerySpec, Writes, N,
};
use crate::report::Report;
use crate::solve::report_pool;
use crate::stats::{ratio, Samples};
use crate::trace::Recorder;
use crate::{END_TO_END as E, PER_LAYER as L};
use hypergraph_mis::hypergraph::{apply_edits, io, GraphEdit};
use hypergraph_mis::serve::{
    Epoch, EpochPin, GraphId, ResidentRegistry, ShardedRunner, SolveOutcome, SolveRequest,
    SolveTrace,
};
use hypergraph_mis::BatchRunner;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Queries between two edit batches.
const QUERIES_PER_APPLY: usize = 512;
/// Edits per batch.
const EDITS_PER_BATCH: usize = 16;
/// Batches already in the WAL the registry is restored from.
const LOGGED_BATCHES: usize = 4;
/// Distinct vertex lists the queries cycle through (each query has its own
/// solve seed).
const QUERY_POOL: usize = 16384;
const DEPTH: usize = 1;
const HI_DEPTH: usize = 2;
/// The latency limit `slo_rps` is judged by: p95 at most this many ms.
const SLO_P95_MS: f64 = 10.0;
const SAMPLE_EVERY: u64 = 64;
/// Length of one round of the two phases, in seconds.
const ROUND_S: f64 = 1.0;

/// One delivered query, kept for the replay after timing.
struct Done {
    query: usize,
    epoch: Option<u64>,
    digest: u64,
    rounds: u64,
    work: u64,
    depth: u64,
    bl_stages: usize,
    full: Option<SolveOutcome>,
}

/// What the replay found for one delivered query.
struct Replayed {
    t0: Instant,
    t1: Instant,
    same_digest: bool,
    /// For the seeded sample: whether every field matched.
    same_fields: Option<bool>,
}

/// Query `i`: vertex list `i mod QUERY_POOL` with a seed of its own.
fn query(pool: &[QuerySpec], seed: u64, i: usize) -> QuerySpec {
    let mut q = pool[i % pool.len()].clone();
    q.seed = seed ^ (i as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
    q
}

fn latest(q: &QuerySpec, graph: GraphId) -> SolveRequest {
    q.request(graph)
}

pub fn run(ctx: &Ctx, rep: &mut Report) -> std::io::Result<()> {
    let s = ctx.seconds;
    // Inputs, all written before any timing.
    let graph = bench::uniform_workload(N, 3, ctx.seed ^ 0x6D75_7461);
    let rounds = ((s / ROUND_S).round() as usize).max(1);
    let round_s = s / rounds as f64;
    // Enough batches for an apply every 10 ms of a traced run, which runs
    // the base phase twice.
    let script = crate::common::edit_script(
        &mut ctx.rng(21),
        &graph,
        LOGGED_BATCHES + (s * 160.0) as usize + 16,
        EDITS_PER_BATCH,
        3..=3,
    );
    let (logged, live) = script.split_at(LOGGED_BATCHES);
    let logged: Vec<&[GraphEdit]> = logged.iter().map(|b| b.as_slice()).collect();
    let wal = ctx.path("mutate.hgwal");
    io::write_wal(&wal, 0, &graph, &logged)?;
    let arrivals = load_plan(ctx.seed ^ 0x6D75, QUERY_POOL, 1.0);
    let pool = query_specs(&mut ctx.rng(22), &arrivals);
    let qseed = ctx.seed.wrapping_mul(0x2545_F491_4F6C_DD1D);
    let mut start_graph = graph.clone();
    for b in &logged {
        start_graph = apply_edits(&start_graph, b).expect("a logged batch applies");
    }
    let new_reference = || {
        let mut r = ResidentRegistry::with_retention(retention());
        let id = r.register(graph.clone());
        for b in &logged {
            r.apply(id, b).expect("a logged batch applies");
        }
        (r, id)
    };
    let (reference, ref_id) = new_reference();
    let mut ref_runner = BatchRunner::new();
    let first = digest(&ref_runner.solve(&reference, &latest(&query(&pool, qseed, 0), ref_id)));

    // Set-up: restore the registry from its WAL, start the runner, first
    // correct answer.
    let mut setup_s = Samples::new();
    let mut restore_ms = Samples::new();
    let mut last = None;
    for _ in 0..ctx.setups(31) {
        drop(last.take());
        let t0 = Instant::now();
        let mut registry = ResidentRegistry::with_retention(retention());
        let id = registry
            .restore(&wal)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        let t1 = Instant::now();
        let registry = Arc::new(registry);
        let mut runner = ShardedRunner::new(Arc::clone(&registry), &serve_config());
        runner.submit(latest(&query(&pool, qseed, 0), id));
        let out = runner.collect_ordered(1).remove(0);
        let t2 = Instant::now();
        rep.check(1, (digest(&out) != first) as u64, || {
            "set-up: first answer differs from the reference".into()
        });
        setup_s.push((t2 - t0).as_secs_f64());
        restore_ms.push((t1 - t0).as_secs_f64() * 1e3);
        last = Some((runner, registry, id));
    }
    let (mut runner, registry, id) = last.expect("at least one set-up");
    rep.set_timing(&E, "setup_s", &mut setup_s, 50.0, 1.0);

    let mut next_query = 1usize;
    let mut next_batch = 0usize;
    let mut done: Vec<Done> = Vec::new();
    // One slice of a phase: the closed loop at `depth` for `secs`, with an
    // edit batch applied after every `QUERIES_PER_APPLY` queries.
    let mut slice = |runner: &mut ShardedRunner,
                     depth: usize,
                     secs: f64,
                     t: &mut Timings,
                     writes: &mut Writes,
                     done: &mut Vec<Done>,
                     rec: Option<&Recorder>| {
        let start = Instant::now();
        let before = t.completed;
        let applies_before = writes.apply_us.len();
        let until = start + Duration::from_secs_f64(secs);
        while Instant::now() < until {
            let stop = next_query + QUERIES_PER_APPLY;
            closed::run(
                runner,
                depth,
                until,
                t,
                || {
                    let i = next_query;
                    if i >= stop {
                        return None;
                    }
                    next_query += 1;
                    Some((i, latest(&query(&pool, qseed, i), id)))
                },
                |i, out| {
                    let bl_stages = match &out.trace {
                        SolveTrace::Bl(t) => t.stages.len(),
                        _ => 0,
                    };
                    done.push(Done {
                        query: i,
                        epoch: out.epoch.map(|e| e.0),
                        digest: digest(&out),
                        rounds: out.rounds,
                        work: out.work,
                        depth: out.depth,
                        bl_stages,
                        full: sampled(ctx.seed, i, SAMPLE_EVERY).then_some(out),
                    });
                },
            );
            if Instant::now() >= until {
                break;
            }
            let Some(batch) = live.get(next_batch) else {
                break;
            };
            next_batch += 1;
            writes.apply(&registry, id, batch, rec);
        }
        // The rate counts queries over the time spent reading: the time
        // inside `apply` is `apply_p50_ms`'s, and a slow stretch of a shared
        // host stretches a graph copy far more than a query.
        let applying_us: f64 = writes.apply_us.values()[applies_before..].iter().sum();
        let reading_s = start.elapsed().as_secs_f64() - applying_us * 1e-6;
        t.rates.push((t.completed - before) as f64 / reading_s);
    };

    // A traced run first measures the base phase untraced, for the overhead
    // ratio, and restarts the runner on the warmed pool.
    let mut untraced = Timings::default();
    let mut untraced_writes = Writes::default();
    let mut fresh_before = 0;
    if ctx.trace {
        for _ in 0..rounds {
            slice(
                &mut runner,
                DEPTH,
                0.6 * round_s,
                &mut untraced,
                &mut untraced_writes,
                &mut done,
                None,
            );
        }
        let pool = runner.shutdown();
        fresh_before = pool.fresh_allocations();
        runner = ShardedRunner::with_pool(Arc::clone(&registry), &serve_config(), pool);
        let bad = untraced_writes.bad;
        rep.check(untraced_writes.applied as u64, bad, || {
            "untraced apply calls failed or skipped an epoch".into()
        });
    }
    let untraced_p50 = untraced.lat_us.median();
    let rec = ctx.trace.then(|| Recorder::new(Instant::now()));
    // The two phases alternate in rounds, so that a slow stretch of a
    // shared host lands on both alike.
    let (mut base, mut hi) = (Timings::default(), Timings::default());
    let mut writes = Writes::default();
    for _ in 0..rounds {
        slice(
            &mut runner,
            DEPTH,
            0.6 * round_s,
            &mut base,
            &mut writes,
            &mut done,
            rec.as_ref(),
        );
        slice(
            &mut runner,
            HI_DEPTH,
            0.4 * round_s,
            &mut hi,
            &mut writes,
            &mut done,
            rec.as_ref(),
        );
    }
    rep.set_steady(&E, "lat_p50_ms", &mut base.lat_us, 50.0, 1e-3);
    rep.set_steady(&E, "lat_p95_ms", &mut base.lat_us, 95.0, 1e-3);
    rep.set_steady(&E, "hi_lat_p50_ms", &mut hi.lat_us, 50.0, 1e-3);
    rep.set_steady(&E, "hi_lat_p95_ms", &mut hi.lat_us, 95.0, 1e-3);
    let fast = crate::stats::FAST_SIDE_RATE;
    let (base_rps, hi_rps) = (base.rates.percentile(fast), hi.rates.percentile(fast));
    rep.set_detail(
        &E,
        "throughput_rps",
        base_rps,
        format!(
            "fast quartile of {rounds} slices, {} queries over the time outside apply, {DEPTH} outstanding",
            base.completed
        ),
    );
    let slo = if hi.lat_us.steady(95.0) <= SLO_P95_MS * 1e3 {
        hi_rps
    } else if base.lat_us.steady(95.0) <= SLO_P95_MS * 1e3 {
        base_rps
    } else {
        0.0
    };
    rep.set_detail(
        &E,
        "slo_rps",
        slo,
        format!("highest of {DEPTH}/{HI_DEPTH} outstanding with p95 <= {SLO_P95_MS} ms"),
    );
    report_apply_e2e(rep, &mut writes);
    let stats = runner.stats();
    let serve_pool = runner.shutdown();
    if let Some(rec) = &rec {
        // The wire path over the same registry, once the writes are done.
        let specs = (0..(0.25 * s * 2000.0) as usize)
            .map(|i| query(&pool, qseed, next_query + i))
            .collect();
        crate::wire::net_layer(
            rep,
            rec,
            &registry,
            id,
            specs,
            ctx.seed ^ 0x6E65_7477,
            rounds,
        )?;
    }

    // Replay: the same edit script applied in order to a fresh registry,
    // each query re-answered at the epoch its outcome reports. The queries
    // of one epoch are split between two threads.
    let (replay, replay_id) = new_reference();
    let mut applied = 0usize;
    let mut exec_us = Samples::new();
    let (mut wrong, mut sampled_count) = (0u64, 0usize);
    let mut runners = [ref_runner, BatchRunner::new()];
    let mut at = 0;
    while at < done.len() {
        let Some(epoch) = done[at].epoch else {
            wrong += 1;
            at += 1;
            continue;
        };
        let group = done[at..]
            .iter()
            .take_while(|d| d.epoch == Some(epoch))
            .count();
        while replay.current_epoch(replay_id).0 < epoch && applied < next_batch {
            replay
                .apply(replay_id, &live[applied])
                .expect("a generated batch applies");
            applied += 1;
        }
        let (first_half, second_half) = done[at..at + group].split_at(group.div_ceil(2));
        let checked: Vec<Replayed> = std::thread::scope(|s| {
            let [a, b] = &mut runners;
            let replay = &replay;
            let check = |runner: &'_ mut BatchRunner, part: &'_ [Done]| {
                part.iter()
                    .map(|d| {
                        let q = query(&pool, qseed, d.query);
                        let req = q.pinned(replay_id, EpochPin::At(Epoch(epoch)));
                        let t0 = Instant::now();
                        let want = runner.solve(replay, &req);
                        let t1 = Instant::now();
                        Replayed {
                            t0,
                            t1,
                            same_digest: digest(&want) == d.digest,
                            same_fields: d
                                .full
                                .as_ref()
                                .map(|o| want.fingerprint() == o.fingerprint()),
                        }
                    })
                    .collect::<Vec<_>>()
            };
            let other = s.spawn(move || check(b, second_half));
            let mut mine = check(a, first_half);
            mine.extend(other.join().expect("a replay thread finishes"));
            mine
        });
        for (i, r) in checked.into_iter().enumerate() {
            let k = at + i;
            exec_us.push(us(r.t0, r.t1));
            wrong += u64::from(!r.same_digest);
            if let Some(same) = r.same_fields {
                sampled_count += 1;
                wrong += u64::from(!same);
                if let Some(rec) = &rec {
                    let root = rec.record("offline.request", r.t0, r.t1, None, k as u64);
                    rec.record("batch.execute", r.t0, r.t1, Some(root), k as u64);
                }
            }
        }
        at += group;
    }
    rep.check(done.len() as u64, wrong, || {
        "queries differ from the sequential replay".into()
    });
    if sampled_count == 0 {
        rep.fail("no query fell in the seeded sample".into());
    }
    rep.notes.push(format!(
        "[mutate_query] replayed {} queries over {} epochs ({sampled_count} field by field)",
        done.len(),
        applied
    ));

    if let Some(rec) = &rec {
        base.record(rec, "mutate.request");
        hi.record(rec, "mutate.request");
        let mut submit = base.submit_us;
        rep.set_timing(&L, "serve.submit_p50_us", &mut submit, 50.0, 1.0);
        rep.set_timing(&L, "serve.submit_p95_us", &mut submit, 95.0, 1.0);
        rep.set_timing(&L, "serve.collect_wait_us", &mut base.wait_us, 50.0, 1.0);
        report_pool(rep, &serve_pool, fresh_before);
        rep.set(&L, "serve.delivered", stats.delivered as f64);
        rep.set(&L, "serve.denied", stats.denied as f64);
        report_writes(rep, &mut writes, &start_graph, live, Some(rec));
        rep.set_timing(&L, "batch.execute_p50_us", &mut exec_us, 50.0, 1.0);
        rep.set_timing(&L, "batch.execute_p95_us", &mut exec_us, 95.0, 1.0);
        let lat_p50 = base.lat_us.median();
        rep.set(&L, "batch.execute_share", ratio(exec_us.median(), lat_p50));
        let n = done.len() as f64;
        let mean = |f: fn(&Done) -> f64| done.iter().map(f).sum::<f64>() / n;
        let (rounds, work) = (mean(|d| d.rounds as f64), mean(|d| d.work as f64));
        rep.set(&L, "mis_core.rounds", rounds);
        rep.set(&L, "mis_core.work", work);
        rep.set(&L, "mis_core.depth", mean(|d| d.depth as f64));
        rep.set(&L, "mis_core.bl_stages", mean(|d| d.bl_stages as f64));
        rep.set(&L, "mis_core.sbl_round_us", ratio(exec_us.mean(), rounds));
        rep.set(
            &L,
            "mis_core.ns_per_work",
            ratio(exec_us.mean() * 1e3, work),
        );
        rep.set_timing(&L, "serve.restore_ms", &mut restore_ms, 50.0, 1.0);
        rep.set(&L, "trace.overhead_ratio", ratio(lat_p50, untraced_p50));
        for name in [
            "hypergraph.open_mapped_ms",
            "hypergraph.read_file_ms",
            "serve.register_ms",
        ] {
            rep.set(&L, name, 0.0);
        }
        crate::wire::finish_trace(ctx, rep, rec)?;
    }
    Ok(())
}
