//! `wire_query`: induced Beame–Luby queries over one loopback `MISP`
//! connection, open loop.
//!
//! A sender thread paces requests to a seeded `bench::load` schedule and a
//! receiver thread takes the replies, so latency is timed from each
//! request's scheduled send time and a stall delays every later request.
//! Two fixed-rate phases (2000 and 8000 req/s) are followed by a search for
//! the highest rate that meets the latency limit without a growing backlog;
//! a closed loop with a window of requests in flight measures capacity.

use crate::common::{
    digest, load_plan, query_specs, report_apply_e2e, report_writes, retention, serve_config, us,
    wait_until, Ctx, QuerySpec, Writes, N,
};
use crate::report::Report;
use crate::stats::{ratio, Samples};
use crate::trace::Recorder;
use crate::{END_TO_END as E, PER_LAYER as L};
use hypergraph_mis::hypergraph::builder::hypergraph_from_edges;
use hypergraph_mis::hypergraph::{io, ActiveHypergraph, VertexId};
use hypergraph_mis::net::codec::{
    decode_outcome_payload, decode_request_payload, encode_outcome_frame, encode_request_frame,
};
use hypergraph_mis::net::frame::{decode_frame, DEFAULT_MAX_PAYLOAD};
use hypergraph_mis::net::{Client, ClientReceiver, ClientSender, NetConfig, Server};
use hypergraph_mis::serve::{GraphId, ResidentRegistry};
use hypergraph_mis::BatchRunner;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The fixed rates, in requests per second.
const LOW_RPS: f64 = 2000.0;
const HIGH_RPS: f64 = 8000.0;
/// The latency limit of the rate search: p95 at most this many ms.
const SLO_P95_MS: f64 = 10.0;
/// The search ladder, as shares of the measured capacity, and how many
/// slices each rate runs.
const LADDER: [f64; 11] = [
    0.3, 0.37, 0.44, 0.51, 0.58, 0.65, 0.72, 0.79, 0.86, 0.93, 1.0,
];
const LADDER_REPEATS: usize = 3;
/// Length of one round of fixed-rate slices, a capacity run and writes, in
/// seconds.
const ROUND_S: f64 = 2.0;
/// A rough capacity, in requests per second, for sizing the capacity runs
/// and the request pool before anything is measured.
const CAPACITY_GUESS_RPS: f64 = 20000.0;
/// Requests kept in flight while measuring capacity.
const WINDOW: u64 = 64;
/// A rough `apply` time, in seconds, for sizing the edit script.
const APPLY_GUESS_S: f64 = 0.012;
/// A fixed-rate slice whose sends started later than this (p99, in µs),
/// or whose sender stretched its schedule (see [`MIN_KEPT_SHARE`]), fell
/// behind its schedule: it is not recorded. Shorter stalls of the sender
/// are part of the measured latency, which runs from the schedule.
const LATE_BOUND_US: f64 = 20000.0;
/// A sender whose schedule span, over the time it took to send it, is below
/// this share fell behind and did not offer the schedule's rate.
const MIN_KEPT_SHARE: f64 = 0.95;
/// Attempts at a fixed-rate phase before the run is declared invalid.
const ATTEMPTS: usize = 3;

/// One open-loop phase: the requests, their schedule and expected digests.
struct Plan {
    specs: Vec<QuerySpec>,
    due_us: Vec<u64>,
    expect: Vec<u64>,
}

/// What one open-loop phase measured.
struct Phase {
    lat_us: Vec<f64>,
    late_us: Samples,
    /// Requests sent but not yet answered, sampled at each send.
    backlog: Vec<u32>,
    /// The schedule's span over the time the sender took to send it: below
    /// 1 when the sender fell behind.
    kept_share: f64,
    /// Requests delivered per second in each 0.25-s window.
    delivered_rps: Vec<f64>,
    mismatches: u64,
    missing: u64,
    start: Instant,
    sends: Vec<(Instant, Instant)>,
    recvs: Vec<Option<Instant>>,
}

impl Phase {
    fn lat(&self) -> Samples {
        let mut s = Samples::new();
        for &v in &self.lat_us {
            if v >= 0.0 {
                s.push(v);
            }
        }
        s
    }

    fn late_p99(&mut self) -> f64 {
        self.late_us.percentile(99.0)
    }

    /// Whether the sender kept to its schedule.
    fn kept_up(&mut self) -> bool {
        self.late_p99() <= LATE_BOUND_US && self.kept_share >= MIN_KEPT_SHARE
    }

    fn backlog_end(&self) -> u64 {
        self.backlog.last().copied().unwrap_or(0) as u64
    }

    /// Mean backlog over the first and the second half of the schedule.
    fn backlog_halves(&self) -> (f64, f64) {
        let (a, b) = self.backlog.split_at(self.backlog.len() / 2);
        let mean = |x: &[u32]| ratio(x.iter().map(|&v| v as f64).sum(), x.len() as f64);
        (mean(a), mean(b))
    }

    /// Whether the backlog grew: its mean over the second half of the
    /// schedule exceeds twice that of the first half by more than 1 ms of
    /// arrivals. A single sample would read a short stall as growth.
    fn grew(&self, rate: f64) -> bool {
        let (first, second) = self.backlog_halves();
        second > 2.0 * first + (rate * 0.001).max(16.0)
    }

    /// Records the phase's request spans: the request from its scheduled
    /// send time to its reply, the sender's lateness and the submit call.
    fn record(&self, rec: &Recorder, due_us: &[u64], base: u64) {
        for (i, recv) in self.recvs.iter().enumerate() {
            let Some(recv) = *recv else { continue };
            let due = self.start + Duration::from_micros(due_us[i]);
            let (send, sent) = self.sends[i];
            let req = base + i as u64;
            let root = rec.record("wire.request", due, recv, None, req);
            if send > due {
                rec.record("loadgen.late", due, send, Some(root), req);
            }
            rec.record("net.submit", send, sent, Some(root), req);
        }
    }
}

/// The connection every phase shares, with its running correlation id.
struct Conn {
    tx: ClientSender,
    rx: ClientReceiver,
    next: u64,
}

/// Runs one phase over `conn`: open loop on the plan's schedule, or, with
/// a `window`, a closed loop that keeps that many requests in flight.
fn run_phase(
    conn: &mut Conn,
    plan: &Plan,
    count: usize,
    graph: GraphId,
    window: Option<u64>,
) -> Phase {
    let requests: Vec<_> = plan.specs[..count]
        .iter()
        .map(|s| s.request(graph))
        .collect();
    let base = conn.next;
    conn.next += count as u64;
    let sent = AtomicU64::new(0);
    let received = AtomicU64::new(0);
    let start = Instant::now() + Duration::from_millis(5);
    let mut lat_us = vec![-1.0; count];
    let mut recvs = vec![None; count];
    let (mut mismatches, mut missing) = (0, 0);
    let Conn { tx, rx, .. } = conn;
    let (sends, backlog) = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut sends = Vec::with_capacity(count);
            let mut backlog = Vec::with_capacity(count);
            for (i, request) in requests.iter().enumerate() {
                wait_until(start + Duration::from_micros(plan.due_us[i]));
                if let Some(w) = window {
                    // The receiver unparks this thread after every reply.
                    while sent.load(Ordering::SeqCst) - received.load(Ordering::SeqCst) >= w {
                        std::thread::park_timeout(Duration::from_millis(1));
                    }
                }
                let t0 = Instant::now();
                let ok = tx.submit(request).is_ok();
                let t1 = Instant::now();
                sends.push((t0, t1));
                if !ok {
                    break;
                }
                let n = sent.fetch_add(1, Ordering::SeqCst) + 1;
                backlog.push(n.saturating_sub(received.load(Ordering::SeqCst)) as u32);
            }
            (sends, backlog)
        });
        for _ in 0..count {
            let Ok(reply) = rx.recv() else { break };
            let t = Instant::now();
            received.fetch_add(1, Ordering::SeqCst);
            if window.is_some() {
                sender.thread().unpark();
            }
            let Some(i) = reply
                .correlation
                .checked_sub(base)
                .map(|i| i as usize)
                .filter(|&i| i < count && recvs[i].is_none())
            else {
                mismatches += 1;
                continue;
            };
            recvs[i] = Some(t);
            let due = start + Duration::from_micros(plan.due_us[i]);
            lat_us[i] = us(due, t);
            if digest(&reply.outcome) != plan.expect[i] {
                mismatches += 1;
            }
        }
        sender.join().expect("sender thread panicked")
    });
    missing += recvs.iter().filter(|r| r.is_none()).count() as u64;
    let mut late_us = Samples::new();
    for (i, &(t0, _)) in sends.iter().enumerate() {
        late_us.push(us(start + Duration::from_micros(plan.due_us[i]), t0));
    }
    Phase {
        lat_us,
        late_us,
        backlog,
        kept_share: sends.last().map_or(0.0, |last| {
            let due = plan.due_us[sends.len() - 1] as f64 / 1e6;
            let took = last.0.saturating_duration_since(start).as_secs_f64();
            if took <= due {
                1.0
            } else {
                due / took
            }
        }),
        delivered_rps: crate::stats::window_rates(
            &recvs
                .iter()
                .flatten()
                .map(|t| t.saturating_duration_since(start).as_secs_f64())
                .collect::<Vec<_>>(),
            0.25,
        ),
        mismatches,
        missing,
        start,
        sends,
        recvs,
    }
}

/// Builds a phase of `count` requests at `rate` from a seeded plan.
fn make_plan(ctx: &Ctx, tag: u64, count: usize, rate: f64, reference: &mut Reference) -> Plan {
    let arrivals = load_plan(ctx.seed ^ tag, count, rate);
    let specs = query_specs(&mut ctx.rng(tag), &arrivals);
    let expect = specs.iter().map(|s| reference.digest(s)).collect();
    Plan {
        due_us: arrivals.iter().map(|a| a.at_us).collect(),
        specs,
        expect,
    }
}

impl Plan {
    /// Requests `range` of the plan, with the schedule scaled by `speedup`
    /// and shifted to start at 0 (`speedup` 0 sends them unpaced).
    fn slice(&self, range: std::ops::Range<usize>, speedup: f64) -> Plan {
        let t0 = self.due_us[range.start] as f64;
        Plan {
            specs: self.specs[range.clone()].to_vec(),
            due_us: self.due_us[range.clone()]
                .iter()
                .map(|&t| {
                    if speedup > 0.0 {
                        ((t as f64 - t0) / speedup) as u64
                    } else {
                        0
                    }
                })
                .collect(),
            expect: self.expect[range].to_vec(),
        }
    }

    /// The `k`-th of `n` consecutive, equal parts of the plan.
    fn part(&self, k: usize, n: usize) -> Plan {
        let len = self.specs.len();
        self.slice(len * k / n..len * (k + 1) / n, 1.0)
    }
}

/// In-process answers every wire outcome is compared against, computed on
/// an owned copy of the graph before any timing.
struct Reference {
    registry: ResidentRegistry,
    id: GraphId,
    runner: BatchRunner,
}

impl Reference {
    fn digest(&mut self, spec: &QuerySpec) -> u64 {
        digest(&self.runner.solve(&self.registry, &spec.request(self.id)))
    }
}

fn net_config() -> NetConfig {
    NetConfig {
        serve: serve_config(),
        ..NetConfig::default()
    }
}

/// Counts a phase's outcomes into the report.
fn check(rep: &mut Report, phase: &Phase, count: usize, name: &str) {
    let (bad, missing) = (phase.mismatches, phase.missing);
    rep.check(count as u64, bad + missing, || {
        format!(
            "{name}: {bad} wire outcomes differ from the in-process reference, {missing} missing"
        )
    });
}

/// Runs a fixed-rate slice, running it again while the generator
/// falls behind its schedule.
fn fixed_phase(
    conn: &mut Conn,
    plan: &Plan,
    graph: GraphId,
    name: &str,
    rep: &mut Report,
) -> Phase {
    let count = plan.specs.len();
    let mut phase = run_phase(conn, plan, count, graph, None);
    check(rep, &phase, count, name);
    for attempt in 1..ATTEMPTS {
        if phase.kept_up() {
            break;
        }
        rep.notes.push(format!(
            "[wire_query] {name} attempt {attempt} discarded: generator late p99 {:.0} us, kept {:.2} of its schedule",
            phase.late_p99(),
            phase.kept_share
        ));
        phase = run_phase(conn, plan, count, graph, None);
        check(rep, &phase, count, name);
    }
    if !phase.kept_up() {
        rep.fail(format!(
            "{name}: the generator fell behind its schedule in {ATTEMPTS} attempts (late p99 {:.0} us)",
            phase.late_p99()
        ));
    }
    phase
}

/// One rate of the search ladder, over its slices.
#[derive(Default)]
struct Step {
    p95_us: Vec<f64>,
    grew: usize,
    kept_share: Vec<f64>,
}

impl Step {
    fn p95(&self) -> f64 {
        median(&self.p95_us)
    }

    fn meets(&self) -> bool {
        self.p95() <= SLO_P95_MS * 1e3
            && 2 * self.grew <= self.p95_us.len()
            && median(&self.kept_share) >= MIN_KEPT_SHARE
    }
}

fn median(v: &[f64]) -> f64 {
    let mut s = Samples::new();
    for &x in v {
        s.push(x);
    }
    s.median()
}

/// The highest rate of the ladder below the first that misses the limit.
/// When that one misses on latency, the rate where p95 crosses the limit
/// is interpolated between the two, on a log scale of latency.
fn slo_rate(ladder: &[f64], steps: &[Step]) -> f64 {
    let Some(k) = steps.iter().position(|s| !s.meets()) else {
        return ladder.last().copied().unwrap_or(0.0);
    };
    if k == 0 {
        return 0.0;
    }
    let (lo, hi) = (&steps[k - 1], &steps[k]);
    let limit = SLO_P95_MS * 1e3;
    let (r0, r1) = (ladder[k - 1], ladder[k]);
    if hi.p95() <= limit || hi.p95() <= lo.p95() {
        return r0;
    }
    let f = ((limit.ln() - lo.p95().ln()) / (hi.p95().ln() - lo.p95().ln())).clamp(0.0, 1.0);
    r0 + f * (r1 - r0)
}

pub fn run(ctx: &Ctx, rep: &mut Report) -> std::io::Result<()> {
    let s = ctx.seconds;
    // Every measurement is spread over the whole run in rounds, so that a
    // slow stretch of a shared host lands on all of them alike.
    let rounds = ((s / ROUND_S).round() as usize).max(1);
    let round_s = s / rounds as f64;
    // Inputs, all written before any timing.
    let graph = bench::uniform_workload(N, 3, ctx.seed);
    let csr = ctx.path("wire.hgcsr");
    io::write_csr(&graph, &csr)?;
    let mut registry = ResidentRegistry::new();
    let id = registry.register(graph.clone());
    let mut reference = Reference {
        registry,
        id,
        runner: BatchRunner::new(),
    };
    let low = make_plan(
        ctx,
        1,
        (LOW_RPS * 0.25 * s) as usize,
        LOW_RPS,
        &mut reference,
    );
    let high = make_plan(
        ctx,
        2,
        (HIGH_RPS * 0.15 * s) as usize,
        HIGH_RPS,
        &mut reference,
    );
    let cap_run = ((CAPACITY_GUESS_RPS * 0.1 * round_s) as usize).max(64);
    let slice_s = 0.4 * s / (LADDER.len() * LADDER_REPEATS) as f64;
    // One pool of requests serves the capacity runs and every search slice; a
    // slice at rate r sends a run of the pool on its schedule scaled to r.
    let pool_len = ((CAPACITY_GUESS_RPS * 1.5 * slice_s) as usize)
        .max(cap_run)
        .max(64);
    let pool = make_plan(ctx, 3, pool_len, 1.0, &mut reference);
    let per_round = ((0.1 * round_s / APPLY_GUESS_S) as usize).max(2);
    let script = crate::common::edit_script(&mut ctx.rng(4), &graph, per_round * rounds, 16, 3..=3);

    // Set-up: open the snapshot, bind, connect, first correct answer.
    let mut setup_s = Samples::new();
    let mut open_ms = Samples::new();
    let mut last: Option<(Server, Client, Arc<ResidentRegistry>, GraphId, GraphId)> = None;
    for _ in 0..ctx.setups(31) {
        if let Some((server, ..)) = last.take() {
            Server::shutdown(server);
        }
        // The writes go to a second resident copy, so the reads always see
        // the graph their references were computed on.
        let mut registry = ResidentRegistry::with_retention(retention());
        let writer = registry
            .open_mapped(&csr)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        let t0 = Instant::now();
        let id = registry
            .open_mapped(&csr)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        let t1 = Instant::now();
        let registry = Arc::new(registry);
        let server = Server::bind("127.0.0.1:0", Arc::clone(&registry), &net_config())?;
        let mut client = Client::connect(server.local_addr())?;
        client
            .submit(&low.specs[0].request(id))
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        let reply = client
            .recv()
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        let t2 = Instant::now();
        rep.check(1, (digest(&reply.outcome) != low.expect[0]) as u64, || {
            "set-up: first wire answer differs from the reference".into()
        });
        setup_s.push((t2 - t0).as_secs_f64());
        open_ms.push((t1 - t0).as_secs_f64() * 1e3);
        last = Some((server, client, registry, id, writer));
    }
    let (server, client, registry, id, writer) = last.expect("at least one set-up");
    let (tx, rx) = client.split()?;
    let mut conn = Conn { tx, rx, next: 1 };
    rep.set_timing(&E, "setup_s", &mut setup_s, 50.0, 1.0);

    // In a traced run, the low-rate slices first run untraced for the
    // overhead ratio; the traced rounds follow.
    let mut untraced = Samples::new();
    if ctx.trace {
        for k in 0..rounds {
            let p = fixed_phase(
                &mut conn,
                &low.part(k, rounds),
                id,
                "untraced 2000 req/s",
                rep,
            );
            for &v in &p.lat_us {
                untraced.push(v);
            }
        }
    }
    let rec = ctx.trace.then(|| Recorder::new(Instant::now()));
    let (mut lat_a, mut lat_b) = (Samples::new(), Samples::new());
    let mut low_lat_us = Vec::with_capacity(low.specs.len());
    let (mut late_a, mut submit_a, mut backlog_end) = (Samples::new(), Samples::new(), 0);
    let mut capacity = Samples::new();
    let mut writes = Writes::default();
    let mut batches = script.iter();
    for k in 0..rounds {
        let plan = low.part(k, rounds);
        let base = conn.next;
        let a = fixed_phase(&mut conn, &plan, id, "2000 req/s", rep);
        for &v in &a.lat_us {
            lat_a.push(v);
            low_lat_us.push(v);
        }
        for (&late, &(t0, t1)) in a.late_us.values().iter().zip(&a.sends) {
            late_a.push(late);
            submit_a.push(us(t0, t1));
        }
        backlog_end = a.backlog_end();
        if let Some(rec) = &rec {
            a.record(rec, &plan.due_us, base);
        }
        let plan = high.part(k, rounds);
        let base = conn.next;
        let b = fixed_phase(&mut conn, &plan, id, "8000 req/s", rep);
        for &v in &b.lat_us {
            lat_b.push(v);
        }
        if let Some(rec) = &rec {
            b.record(rec, &plan.due_us, base);
        }
        // Capacity: a run of the pool with a window of requests always in
        // flight, which keeps the server busy without a sender that spins.
        let from = (k * cap_run) % (pool.specs.len() - cap_run + 1);
        let p = run_phase(
            &mut conn,
            &pool.slice(from..from + cap_run, 0.0),
            cap_run,
            id,
            Some(WINDOW),
        );
        check(rep, &p, cap_run, "capacity window");
        for &r in &p.delivered_rps {
            capacity.push(r);
        }
        // Writes, with nothing in flight.
        for batch in batches.by_ref().take(per_round) {
            writes.apply(&registry, writer, batch, rec.as_ref());
        }
    }
    rep.set_steady(&E, "lat_p50_ms", &mut lat_a, 50.0, 1e-3);
    rep.set_steady(&E, "lat_p95_ms", &mut lat_a, 95.0, 1e-3);
    rep.set_steady(&E, "hi_lat_p50_ms", &mut lat_b, 50.0, 1e-3);
    rep.set_steady(&E, "hi_lat_p95_ms", &mut lat_b, 95.0, 1e-3);
    let cap = capacity.percentile(crate::stats::FAST_SIDE_RATE);
    rep.set_detail(
        &E,
        "throughput_rps",
        cap,
        format!(
            "fast quartile of 0.25-s windows of {rounds} runs of {cap_run} with {WINDOW} in flight"
        ),
    );
    report_apply_e2e(rep, &mut writes);

    // The rate search: a ladder of rates relative to the capacity, each
    // run in several short slices interleaved with the others.
    let ladder: Vec<f64> = LADDER.iter().map(|f| f * cap).collect();
    let mut steps: Vec<Step> = ladder.iter().map(|_| Step::default()).collect();
    let mut from = 0;
    for _ in 0..LADDER_REPEATS {
        for (rate, step) in ladder.iter().zip(&mut steps) {
            let count = ((rate * slice_s) as usize).clamp(16, pool.specs.len());
            if from + count > pool.specs.len() {
                from = 0;
            }
            let p = run_phase(
                &mut conn,
                &pool.slice(from..from + count, *rate),
                count,
                id,
                None,
            );
            from += count;
            check(rep, &p, count, "rate search");
            step.p95_us.push(p.lat().percentile(95.0));
            step.grew += p.grew(*rate) as usize;
            step.kept_share.push(p.kept_share);
        }
    }
    for (rate, step) in ladder.iter().zip(&steps) {
        rep.notes.push(format!(
            "[wire_query] search {rate:.0} req/s: p95 {:.3} ms over {} slices, backlog grew in {}, sender kept {:.2} of the schedule: {}",
            step.p95() / 1e3,
            step.p95_us.len(),
            step.grew,
            median(&step.kept_share),
            if step.meets() { "meets" } else { "misses" }
        ));
    }
    rep.set_detail(
        &E,
        "slo_rps",
        slo_rate(&ladder, &steps),
        format!("ladder of {} rates x {LADDER_REPEATS} slices of {slice_s:.2} s, p95 <= {SLO_P95_MS} ms", ladder.len()),
    );

    if let Some(rec) = &rec {
        offline(rep, rec, &registry, id, &low, &low_lat_us, &mut submit_a);
        let ratio_p50 = ratio(median(&low_lat_us), untraced.median());
        rep.set(&L, "trace.overhead_ratio", ratio_p50);
    }
    drop(conn);
    let stats = server.shutdown();
    let protocol_errors: u64 = stats.connections.iter().map(|c| c.protocol_errors).sum();
    if protocol_errors > 0 {
        rep.fail(format!(
            "{protocol_errors} protocol errors on clean connections"
        ));
    }
    if let Some(rec) = &rec {
        report_writes(rep, &mut writes, &graph, &script, Some(rec));
        rep.set(&L, "net.protocol_errors", protocol_errors as f64);
        rep.set(&L, "serve.delivered", stats.delivered as f64);
        rep.set(&L, "serve.denied", stats.denied as f64);
        rep.set_timing(&L, "hypergraph.open_mapped_ms", &mut open_ms, 50.0, 1.0);
        rep.set(&L, "loadgen.late_p99_us", late_a.percentile(99.0));
        rep.set(&L, "loadgen.late_max_us", late_a.max());
        rep.set(&L, "loadgen.backlog_end", backlog_end as f64);
        for name in [
            "serve.submit_p50_us",
            "serve.submit_p95_us",
            "serve.collect_wait_us",
            "serve.rewarm_hit_ratio",
            "serve.epoch_rewarm_hit_ratio",
            "pram.overflow_checkouts",
            "hypergraph.read_file_ms",
            "serve.register_ms",
            "serve.restore_ms",
        ] {
            rep.set(&L, name, 0.0);
        }
        finish_trace(ctx, rep, rec)?;
    }
    Ok(())
}

/// Writes the spans and the per-layer table of a traced run.
pub fn finish_trace(ctx: &Ctx, rep: &mut Report, rec: &Recorder) -> std::io::Result<()> {
    let spans = rec.spans();
    rec.write_tsv(&ctx.path(&format!("spans-{}.tsv", ctx.workload)))?;
    let mut rows = crate::trace::layer_table(&spans);
    rep.notes
        .push(crate::trace::render_table(&ctx.workload, &mut rows));
    Ok(())
}

/// The traced run's offline pass over the low phase's requests: each layer
/// the wire path crosses, timed outside the timed path on the same request
/// or outcome, and the residual the wire adds on top of them.
fn offline(
    rep: &mut Report,
    rec: &Recorder,
    registry: &ResidentRegistry,
    id: GraphId,
    plan: &Plan,
    lat_us: &[f64],
    submit_us: &mut Samples,
) {
    let mut runner = BatchRunner::new();
    let requests: Vec<_> = plan.specs.iter().map(|s| s.request(id)).collect();
    for r in &requests {
        runner.solve(registry, r);
    }
    let fresh_before = runner.workspace().fresh_allocations();
    let snapshot = registry.latest(id);
    let engine = snapshot.engine();
    let mut sub =
        ActiveHypergraph::from_hypergraph(&hypergraph_from_edges(0, Vec::<Vec<VertexId>>::new()));
    let mut marked = vec![false; engine.id_space()];
    let mut t = [(); 7].map(|_| Samples::new());
    let (mut req_bytes, mut out_bytes, mut residual) =
        (Samples::new(), Samples::new(), Samples::new());
    let (mut rounds, mut work, mut depth, mut stages) = (
        Samples::new(),
        Samples::new(),
        Samples::new(),
        Samples::new(),
    );
    for (i, request) in requests.iter().enumerate() {
        let c0 = Instant::now();
        let frame = encode_request_frame(i as u64, request);
        let c1 = Instant::now();
        let decoded = decode_frame(&frame, DEFAULT_MAX_PAYLOAD)
            .and_then(|(f, _)| decode_request_payload(f.payload));
        let c2 = Instant::now();
        let out = runner.solve(registry, request);
        let c3 = Instant::now();
        let reply = encode_outcome_frame(i as u64, &out);
        let c4 = Instant::now();
        let back = decode_frame(&reply, DEFAULT_MAX_PAYLOAD)
            .and_then(|(f, _)| decode_outcome_payload(f.payload));
        let c5 = Instant::now();
        for &v in plan.specs[i].vertices.iter() {
            marked[v as usize] = true;
        }
        let c6 = Instant::now();
        engine.induced_by_into(&marked, &plan.specs[i].vertices, &mut sub);
        let c7 = Instant::now();
        for &v in plan.specs[i].vertices.iter() {
            marked[v as usize] = false;
        }
        if decoded.map(|d| d.1 != *request).unwrap_or(true)
            || back.map(|b| digest(&b.1) != plan.expect[i]).unwrap_or(true)
            || digest(&out) != plan.expect[i]
        {
            rep.fail(format!("offline pass: request {i} did not round-trip"));
        }
        let root = rec.record("offline.request", c0, c7, None, i as u64);
        for (k, (name, a, b)) in [
            ("net.encode_request", c0, c1),
            ("net.decode_request", c1, c2),
            ("batch.execute", c2, c3),
            ("net.encode_outcome", c3, c4),
            ("net.decode_outcome", c4, c5),
            ("hypergraph.induce", c6, c7),
        ]
        .into_iter()
        .enumerate()
        {
            rec.record(name, a, b, Some(root), i as u64);
            t[k].push(us(a, b));
        }
        req_bytes.push(frame.len() as f64);
        out_bytes.push(reply.len() as f64);
        rounds.push(out.rounds as f64);
        work.push(out.work as f64);
        depth.push(out.depth as f64);
        if let hypergraph_mis::serve::SolveTrace::Bl(bl) = &out.trace {
            stages.push(bl.stages.len() as f64);
        }
        let accounted = us(c0, c3) + us(c3, c5);
        if lat_us[i] >= 0.0 {
            residual.push(lat_us[i] - accounted);
        }
    }
    let fresh = runner.workspace().fresh_allocations() - fresh_before;
    let [enc_req, dec_req, exec, enc_out, dec_out, induce, _] = &mut t;
    rep.set_timing(&L, "net.encode_request_us", enc_req, 50.0, 1.0);
    rep.set_timing(&L, "net.decode_request_us", dec_req, 50.0, 1.0);
    rep.set_timing(&L, "net.encode_outcome_us", enc_out, 50.0, 1.0);
    rep.set_timing(&L, "net.decode_outcome_us", dec_out, 50.0, 1.0);
    rep.set_timing(&L, "net.request_bytes", &mut req_bytes, 50.0, 1.0);
    rep.set_timing(&L, "net.outcome_bytes", &mut out_bytes, 50.0, 1.0);
    rep.set_timing(&L, "net.residual_p50_us", &mut residual, 50.0, 1.0);
    rep.set_timing(&L, "net.residual_p95_us", &mut residual, 95.0, 1.0);
    rep.set_timing(&L, "net.submit_us", submit_us, 50.0, 1.0);
    rep.set_timing(&L, "batch.execute_p50_us", exec, 50.0, 1.0);
    rep.set_timing(&L, "batch.execute_p95_us", exec, 95.0, 1.0);
    let lat_p50 = median(lat_us);
    rep.set(&L, "batch.execute_share", ratio(exec.median(), lat_p50));
    rep.set_timing(&L, "hypergraph.induce_us", induce, 50.0, 1.0);
    rep.set(&L, "mis_core.rounds", rounds.mean());
    rep.set(&L, "mis_core.work", work.mean());
    rep.set(&L, "mis_core.depth", depth.mean());
    rep.set(&L, "mis_core.bl_stages", stages.mean());
    rep.set(
        &L,
        "mis_core.sbl_round_us",
        ratio(exec.mean(), rounds.mean()),
    );
    rep.set(
        &L,
        "mis_core.ns_per_work",
        ratio(exec.mean() * 1e3, work.mean()),
    );
    rep.set(&L, "pram.fresh_allocations_warm", fresh as f64);
    let codec = enc_req.median() + dec_req.median() + enc_out.median() + dec_out.median();
    rep.notes.push(format!(
        "[MISP path] lat p50 {:.1} us = execute p50 {:.1} + codec p50s {:.1} + residual p50 {:.1} (sum {:.1} us)",
        lat_p50,
        exec.median(),
        codec,
        residual.median(),
        exec.median() + codec + residual.median()
    ));
}

/// The `MISP` path measured from another workload's traced run: `count`
/// of `specs`, served over one loopback connection at 2000 req/s in
/// `rounds` slices, with the offline pass that splits each request's wire
/// latency into execute, codec and residual time. Sets the `net.*` and
/// `loadgen.*` per-layer metrics; a later `set` of a shared metric by the
/// calling workload replaces the one set here.
pub fn net_layer(
    rep: &mut Report,
    rec: &Recorder,
    registry: &Arc<ResidentRegistry>,
    id: GraphId,
    specs: Vec<QuerySpec>,
    seed: u64,
    rounds: usize,
) -> std::io::Result<()> {
    let arrivals = load_plan(seed, specs.len(), LOW_RPS);
    let mut runner = BatchRunner::new();
    let expect = specs
        .iter()
        .map(|s| digest(&runner.solve(registry, &s.request(id))))
        .collect();
    let plan = Plan {
        due_us: arrivals.iter().map(|a| a.at_us).collect(),
        specs,
        expect,
    };
    let server = Server::bind("127.0.0.1:0", Arc::clone(registry), &net_config())?;
    let (tx, rx) = Client::connect(server.local_addr())?.split()?;
    let mut conn = Conn { tx, rx, next: 0 };
    let (mut lat_us, mut submit, mut late) = (Vec::new(), Samples::new(), Samples::new());
    let mut backlog_end = 0;
    for k in 0..rounds {
        let part = plan.part(k, rounds);
        let base = conn.next;
        let p = fixed_phase(&mut conn, &part, id, "MISP pass at 2000 req/s", rep);
        p.record(rec, &part.due_us, base);
        lat_us.extend_from_slice(&p.lat_us);
        for (&l, &(t0, t1)) in p.late_us.values().iter().zip(&p.sends) {
            late.push(l);
            submit.push(us(t0, t1));
        }
        backlog_end = p.backlog_end();
    }
    drop(conn);
    let stats = server.shutdown();
    let protocol_errors: u64 = stats.connections.iter().map(|c| c.protocol_errors).sum();
    if protocol_errors > 0 {
        rep.fail(format!(
            "{protocol_errors} protocol errors on a clean connection"
        ));
    }
    offline(rep, rec, registry, id, &plan, &lat_us, &mut submit);
    rep.set(&L, "net.protocol_errors", protocol_errors as f64);
    rep.set(&L, "loadgen.late_p99_us", late.percentile(99.0));
    rep.set(&L, "loadgen.late_max_us", late.max());
    rep.set(&L, "loadgen.backlog_end", backlog_end as f64);
    Ok(())
}
