//! The in-process closed loop of `solve_sbl` and `mutate_query`: one thread
//! keeps a fixed number of requests outstanding on a `ShardedRunner`,
//! submitting the next one as soon as an outcome is delivered.

use crate::common::us;
use crate::stats::Samples;
use crate::trace::Recorder;
use hypergraph_mis::serve::{ShardedRunner, SolveOutcome, SolveRequest};
use std::collections::BTreeMap;
use std::time::Instant;

/// Timings of one or more closed-loop stretches.
#[derive(Debug, Default)]
pub struct Timings {
    /// Submit to delivery, per request.
    pub lat_us: Samples,
    /// Time inside `ShardedRunner::submit`.
    pub submit_us: Samples,
    /// Time blocked in `collect_streaming` per delivered outcome.
    pub wait_us: Samples,
    pub completed: usize,
    /// Completions per second of each slice of a phase.
    pub rates: Samples,
    /// `(submit start, submit end, delivered, ticket)` per request.
    spans: Vec<(Instant, Instant, Instant, u64)>,
    /// `(wait start, wait end, ticket delivered)` per collect call.
    waits: Vec<(Instant, Instant, u64)>,
}

impl Timings {
    /// Records the request spans (`<workload>.request` with its
    /// `serve.submit` child) and the `serve.collect_wait` spans.
    pub fn record(&self, rec: &Recorder, root: &'static str) {
        for &(t0, t1, done, ticket) in &self.spans {
            let id = rec.record(root, t0, done, None, ticket);
            rec.record("serve.submit", t0, t1, Some(id), ticket);
        }
        for &(a, b, ticket) in &self.waits {
            rec.record("serve.collect_wait", a, b, None, ticket);
        }
    }
}

/// Runs the loop with `depth` requests outstanding until `next` runs dry
/// or `until` passes, then drains. `next` yields a caller index and a
/// request; `done` receives each outcome with that index.
pub fn run(
    runner: &mut ShardedRunner,
    depth: usize,
    until: Instant,
    timings: &mut Timings,
    mut next: impl FnMut() -> Option<(usize, SolveRequest)>,
    mut done: impl FnMut(usize, SolveOutcome),
) {
    let mut in_flight: BTreeMap<u64, (usize, Instant, Instant)> = BTreeMap::new();
    let mut submit =
        |runner: &mut ShardedRunner, in_flight: &mut BTreeMap<_, _>, timings: &mut Timings| {
            if Instant::now() >= until {
                return false;
            }
            let Some((idx, request)) = next() else {
                return false;
            };
            let t0 = Instant::now();
            let ticket = runner.submit(request);
            let t1 = Instant::now();
            timings.submit_us.push(us(t0, t1));
            in_flight.insert(ticket, (idx, t0, t1));
            true
        };
    for _ in 0..depth {
        if !submit(runner, &mut in_flight, timings) {
            break;
        }
    }
    while !in_flight.is_empty() {
        let a = Instant::now();
        let out = runner
            .collect_streaming(1)
            .next()
            .expect("an outstanding request is delivered");
        let b = Instant::now();
        let (idx, t0, t1) = in_flight
            .remove(&out.ticket)
            .expect("the runner delivers only tickets it issued");
        timings.wait_us.push(us(a, b));
        timings.lat_us.push(us(t0, b));
        timings.spans.push((t0, t1, b, out.ticket));
        timings.waits.push((a, b, out.ticket));
        timings.completed += 1;
        // The next request goes out before this outcome is processed.
        submit(runner, &mut in_flight, timings);
        done(idx, out);
    }
}
