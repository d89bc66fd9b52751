//! `solve_sbl`: full SBL solves of four resident paper-regime graphs, in
//! process, with two requests outstanding on a 2-shard `ShardedRunner`.
//!
//! Nearly all the time goes to the algorithm (`mis_core`, the engine and the
//! `pram` keystream and sweeps); the wire is not used, so front-end changes
//! should show no change here.

use crate::closed::{self, Timings};
use crate::common::{
    report_apply_e2e, report_writes, retention, sampled, serve_config, us, Ctx, Writes, N,
};
use crate::report::Report;
use crate::stats::{ratio, Samples};
use crate::trace::Recorder;
use crate::{END_TO_END as E, PER_LAYER as L};
use hypergraph_mis::hypergraph::{io, Hypergraph, VertexId};
use hypergraph_mis::mis_core::{verify_mis, SblConfig};
use hypergraph_mis::serve::{
    Algorithm, GraphId, ResidentRegistry, ShardedRunner, SolveOutcome, SolveRequest, SolveTrace,
    TenantId,
};
use hypergraph_mis::BatchRunner;
use rand::{Rng, RngCore};
use std::sync::Arc;
use std::time::{Duration, Instant};

const GRAPHS: usize = 4;
/// Requests outstanding in the base and the high-load phase.
const DEPTH: usize = 2;
const HI_DEPTH: usize = 4;
/// The latency limit `slo_rps` is judged by: p95 at most this many ms.
const SLO_P95_MS: f64 = 50.0;
/// About one request in this many is also compared field by field against
/// an in-process reference solve.
const SAMPLE_EVERY: u64 = 32;
/// Length of one round of the two phases and the writes, in seconds.
const ROUND_S: f64 = 1.0;
/// A rough `apply` time on these graphs, in seconds, for sizing the
/// writes of a round.
const APPLY_GUESS_S: f64 = 0.001;

/// A delivered outcome, kept compactly until the check after timing.
struct Done {
    graph: usize,
    /// The independent set as a bitmap over the graph's vertices.
    set: Vec<u64>,
    error: bool,
    rounds: u64,
    work: u64,
    depth: u64,
    bl_stages: usize,
    /// The whole outcome, for the seeded sample.
    full: Option<(SolveRequest, SolveOutcome)>,
}

fn request(graph: GraphId, seed: u64, tenant: usize) -> SolveRequest {
    SolveRequest::for_graph(graph)
        .algorithm(Algorithm::Sbl(SblConfig::default()))
        .seed(seed)
        .tenant(TenantId(tenant as u64))
        .build()
}

fn compact(graph: usize, out: SolveOutcome, full: Option<SolveRequest>) -> Done {
    let mut set = vec![0u64; N.div_ceil(64)];
    for &v in &out.independent_set {
        set[v as usize / 64] |= 1 << (v % 64);
    }
    let bl_stages = match &out.trace {
        SolveTrace::Sbl(t) => t.rounds.iter().map(|r| r.bl_stages).sum(),
        _ => 0,
    };
    Done {
        graph,
        set,
        error: out.error.is_some(),
        rounds: out.rounds,
        work: out.work,
        depth: out.depth,
        bl_stages,
        full: full.map(|r| (r, out)),
    }
}

pub fn run(ctx: &Ctx, rep: &mut Report) -> std::io::Result<()> {
    let s = ctx.seconds;
    // Inputs, all written before any timing.
    let graphs: Vec<Hypergraph> = (0..GRAPHS)
        .map(|i| bench::paper_workload(N, ctx.seed.wrapping_mul(GRAPHS as u64) + i as u64))
        .collect();
    let paths: Vec<_> = (0..GRAPHS)
        .map(|i| ctx.path(&format!("solve-{i}.txt")))
        .collect();
    for (g, p) in graphs.iter().zip(&paths) {
        io::write_file(g, p)?;
    }
    let mut rng = ctx.rng(11);
    let plan: Vec<(usize, u64)> = (0..(s * 1000.0) as usize + 64)
        .map(|_| (rng.gen_range(0..GRAPHS), rng.next_u64()))
        .collect();
    let rounds = ((s / ROUND_S).round() as usize).max(1);
    let round_s = s / rounds as f64;
    let per_round = ((0.1 * round_s / APPLY_GUESS_S) as usize).max(2);
    let script =
        crate::common::edit_script(&mut ctx.rng(12), &graphs[0], per_round * rounds, 16, 2..=16);
    let mut reference = ResidentRegistry::new();
    let ref_ids: Vec<GraphId> = graphs
        .iter()
        .map(|g| reference.register(g.clone()))
        .collect();
    let mut ref_runner = BatchRunner::new();
    let first = ref_runner.solve(
        &reference,
        &request(ref_ids[plan[0].0], plan[0].1, plan[0].0),
    );

    // Set-up: read and register the four graphs, start the runner, first
    // correct answer.
    let mut setup_s = Samples::new();
    let (mut read_ms, mut register_ms) = (Samples::new(), Samples::new());
    let mut last = None;
    for _ in 0..ctx.setups(31) {
        drop(last.take());
        // The writes go to a separate copy of graph 0, so the reads always
        // see the graphs their checks use.
        let mut registry = ResidentRegistry::with_retention(retention());
        let writer = registry.register(graphs[0].clone());
        let t0 = Instant::now();
        let (mut read, mut register) = (0.0, 0.0);
        let mut ids = Vec::with_capacity(GRAPHS);
        for p in &paths {
            let a = Instant::now();
            let h = io::read_file(p).map_err(|e| std::io::Error::other(e.to_string()))?;
            let b = Instant::now();
            ids.push(registry.register(h));
            read += us(a, b);
            register += us(b, Instant::now());
        }
        let registry = Arc::new(registry);
        let mut runner = ShardedRunner::new(Arc::clone(&registry), &serve_config());
        runner.submit(request(ids[plan[0].0], plan[0].1, plan[0].0));
        let out = runner.collect_ordered(1).remove(0);
        let t1 = Instant::now();
        rep.check(1, (out.fingerprint() != first.fingerprint()) as u64, || {
            "set-up: first answer differs from the reference".into()
        });
        setup_s.push((t1 - t0).as_secs_f64());
        read_ms.push(read / 1e3);
        register_ms.push(register / 1e3);
        last = Some((runner, registry, ids, writer));
    }
    let (mut runner, registry, ids, writer) = last.expect("at least one set-up");
    rep.set_timing(&E, "setup_s", &mut setup_s, 50.0, 1.0);

    let mut next = 1usize;
    let mut done: Vec<Done> = Vec::new();
    // One slice of a phase: the closed loop at `depth` for `secs`.
    let mut slice = |runner: &mut ShardedRunner,
                     depth: usize,
                     secs: f64,
                     t: &mut Timings,
                     done: &mut Vec<Done>| {
        let start = Instant::now();
        let before = t.completed;
        closed::run(
            runner,
            depth,
            start + Duration::from_secs_f64(secs),
            t,
            || {
                let i = next;
                next += 1;
                let &(g, seed) = plan.get(i)?;
                Some((i, request(ids[g], seed, g)))
            },
            |i, out| {
                let g = plan[i].0;
                let full =
                    sampled(ctx.seed, i, SAMPLE_EVERY).then(|| request(ref_ids[g], plan[i].1, g));
                done.push(compact(g, out, full));
            },
        );
        t.rates
            .push((t.completed - before) as f64 / start.elapsed().as_secs_f64());
    };

    // A traced run first measures the base phase untraced, for the overhead
    // ratio, and restarts the runner on the warmed pool.
    let mut untraced = Timings::default();
    let mut fresh_before = 0;
    if ctx.trace {
        for _ in 0..rounds {
            slice(&mut runner, DEPTH, 0.55 * round_s, &mut untraced, &mut done);
        }
        let pool = runner.shutdown();
        fresh_before = pool.fresh_allocations();
        runner = ShardedRunner::with_pool(Arc::clone(&registry), &serve_config(), pool);
    }
    let untraced_p50 = untraced.lat_us.median();
    let rec = ctx.trace.then(|| Recorder::new(Instant::now()));
    // The phases and the writes alternate in rounds, so that a slow stretch
    // of a shared host lands on all of them alike.
    let (mut base, mut hi) = (Timings::default(), Timings::default());
    let mut writes = Writes::default();
    let mut batches = script.iter();
    for _ in 0..rounds {
        slice(&mut runner, DEPTH, 0.55 * round_s, &mut base, &mut done);
        slice(&mut runner, HI_DEPTH, 0.35 * round_s, &mut hi, &mut done);
        // Writes on the copy of graph 0, with nothing in flight.
        for batch in batches.by_ref().take(per_round) {
            writes.apply(&registry, writer, batch, rec.as_ref());
        }
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
            "fast quartile of {rounds} slices, {} solves, {DEPTH} outstanding",
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
    let stats = runner.stats();
    report_apply_e2e(rep, &mut writes);
    let pool = runner.shutdown();

    // Every outcome must be a maximal independent set of its graph; the
    // seeded sample must also match the in-process reference exactly.
    let mut exec_us = Samples::new();
    let (mut not_mis, mut mismatched, mut sampled_count) = (0, 0, 0);
    let mut codec = Codec::default();
    for (k, d) in done.iter().enumerate() {
        let set: Vec<VertexId> = (0..N as VertexId)
            .filter(|&v| d.set[v as usize / 64] >> (v % 64) & 1 == 1)
            .collect();
        if d.error || verify_mis(&graphs[d.graph], &set).is_err() {
            not_mis += 1;
        }
        if let Some((req, out)) = &d.full {
            sampled_count += 1;
            let t0 = Instant::now();
            let want = ref_runner.solve(&reference, req);
            let t1 = Instant::now();
            exec_us.push(us(t0, t1));
            if let Some(rec) = &rec {
                let root = rec.record("offline.request", t0, t1, None, k as u64);
                rec.record("batch.execute", t0, t1, Some(root), k as u64);
                codec.time(req, out, rec, root, k as u64);
            }
            if want.fingerprint() != out.fingerprint() {
                mismatched += 1;
            }
        }
    }
    rep.check(done.len() as u64, not_mis, || {
        "outcomes are not maximal independent sets".into()
    });
    rep.check(0, mismatched, || {
        format!("of {sampled_count} sampled outcomes differ from the reference")
    });
    if sampled_count == 0 {
        rep.fail("no outcome fell in the seeded sample".into());
    }
    rep.notes.push(format!(
        "[solve_sbl] verified {} outcomes as maximal independent sets, {sampled_count} field by field",
        done.len()
    ));

    if let Some(rec) = &rec {
        base.record(rec, "solve.request");
        hi.record(rec, "solve.request");
        let mut submit = base.submit_us;
        rep.set_timing(&L, "serve.submit_p50_us", &mut submit, 50.0, 1.0);
        rep.set_timing(&L, "serve.submit_p95_us", &mut submit, 95.0, 1.0);
        rep.set_timing(&L, "serve.collect_wait_us", &mut base.wait_us, 50.0, 1.0);
        report_pool(rep, &pool, fresh_before);
        rep.set(&L, "serve.delivered", stats.delivered as f64);
        rep.set(&L, "serve.denied", stats.denied as f64);
        report_writes(rep, &mut writes, &graphs[0], &script, Some(rec));
        rep.set_timing(&L, "batch.execute_p50_us", &mut exec_us, 50.0, 1.0);
        rep.set_timing(&L, "batch.execute_p95_us", &mut exec_us, 95.0, 1.0);
        let lat_p50 = base.lat_us.median();
        rep.set(&L, "batch.execute_share", ratio(exec_us.median(), lat_p50));
        codec.report(rep);
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
        rep.set_timing(&L, "hypergraph.read_file_ms", &mut read_ms, 50.0, 1.0);
        rep.set_timing(&L, "serve.register_ms", &mut register_ms, 50.0, 1.0);
        rep.set(&L, "trace.overhead_ratio", ratio(lat_p50, untraced_p50));
        for name in [
            "net.submit_us",
            "net.residual_p50_us",
            "net.residual_p95_us",
            "net.protocol_errors",
            "hypergraph.induce_us",
            "hypergraph.open_mapped_ms",
            "serve.restore_ms",
            "loadgen.late_p99_us",
            "loadgen.late_max_us",
            "loadgen.backlog_end",
        ] {
            rep.set(&L, name, 0.0);
        }
        crate::wire::finish_trace(ctx, rep, rec)?;
    }
    Ok(())
}

/// Records the runner's `WorkspacePool` totals.
pub fn report_pool(
    rep: &mut Report,
    pool: &hypergraph_mis::pram::WorkspacePool,
    fresh_before: u64,
) {
    let (hits, misses) = pool.tenant_rewarm_totals();
    let (ehits, rewarms) = pool.graph_epoch_totals();
    rep.set_detail(
        &L,
        "serve.rewarm_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
        format!("{hits} hits of {} solves", hits + misses),
    );
    rep.set_detail(
        &L,
        "serve.epoch_rewarm_hit_ratio",
        ratio(ehits as f64, (ehits + rewarms) as f64),
        format!("{ehits} hits of {} solves", ehits + rewarms),
    );
    rep.set(
        &L,
        "pram.fresh_allocations_warm",
        (pool.fresh_allocations() - fresh_before) as f64,
    );
    rep.set(
        &L,
        "pram.overflow_checkouts",
        pool.overflow_checkouts() as f64,
    );
}

/// The `MISP` codec applied outside the timed path to sampled requests and
/// their outcomes.
#[derive(Default)]
pub struct Codec {
    t: [Samples; 4],
    req_bytes: Samples,
    out_bytes: Samples,
}

impl Codec {
    pub fn time(
        &mut self,
        req: &SolveRequest,
        out: &SolveOutcome,
        rec: &Recorder,
        root: u64,
        k: u64,
    ) {
        use hypergraph_mis::net::codec::{
            decode_outcome_payload, decode_request_payload, encode_outcome_frame,
            encode_request_frame,
        };
        use hypergraph_mis::net::frame::{decode_frame, DEFAULT_MAX_PAYLOAD};
        let c0 = Instant::now();
        let frame = encode_request_frame(k, req);
        let c1 = Instant::now();
        let r = decode_frame(&frame, DEFAULT_MAX_PAYLOAD)
            .and_then(|(f, _)| decode_request_payload(f.payload));
        let c2 = Instant::now();
        let reply = encode_outcome_frame(k, out);
        let c3 = Instant::now();
        let o = decode_frame(&reply, DEFAULT_MAX_PAYLOAD)
            .and_then(|(f, _)| decode_outcome_payload(f.payload));
        let c4 = Instant::now();
        assert!(
            r.is_ok() && o.is_ok(),
            "the codec round-trips its own frames"
        );
        let names = [
            "net.encode_request",
            "net.decode_request",
            "net.encode_outcome",
            "net.decode_outcome",
        ];
        for (i, (a, b)) in [(c0, c1), (c1, c2), (c2, c3), (c3, c4)]
            .into_iter()
            .enumerate()
        {
            rec.record(names[i], a, b, Some(root), k);
            self.t[i].push(us(a, b));
        }
        self.req_bytes.push(frame.len() as f64);
        self.out_bytes.push(reply.len() as f64);
    }

    pub fn report(&mut self, rep: &mut Report) {
        let names = [
            "net.encode_request_us",
            "net.decode_request_us",
            "net.encode_outcome_us",
            "net.decode_outcome_us",
        ];
        for (i, name) in names.into_iter().enumerate() {
            rep.set_timing(&L, name, &mut self.t[i], 50.0, 1.0);
        }
        rep.set_timing(&L, "net.request_bytes", &mut self.req_bytes, 50.0, 1.0);
        rep.set_timing(&L, "net.outcome_bytes", &mut self.out_bytes, 50.0, 1.0);
    }
}
