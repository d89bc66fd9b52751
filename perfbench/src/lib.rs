//! The benchmark of the hypergraph-MIS serving stack.
//!
//! One command runs one of three seeded workloads against the public API of
//! the `hypergraph_mis` facade, checks every outcome, and prints the
//! end-to-end metrics (or, with `--trace 1`, the per-layer metrics) as the
//! last line of its output. `README.md` next to this crate defines every
//! workload and metric.

pub mod closed;
pub mod common;
pub mod json;
pub mod mutate;
pub mod report;
pub mod solve;
pub mod stats;
pub mod trace;
pub mod wire;

/// The workloads the command runs. `BENCHMARK.json` gates `solve_sbl` and
/// `mutate_query`; `README.md` says why `wire_query` is run by hand.
pub const WORKLOADS: [&str; 3] = ["wire_query", "solve_sbl", "mutate_query"];

/// End-to-end metrics: `(name, unit)`. Every workload prints all of them on
/// its report lines; the result object carries the [`GATED`] ones.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("lat_p50_ms", "ms"),
    ("lat_p95_ms", "ms"),
    ("hi_lat_p50_ms", "ms"),
    ("hi_lat_p95_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("slo_rps", "1/s"),
    ("apply_p50_ms", "ms"),
];

/// The end-to-end metrics `BENCHMARK.json` gates. On a shared 2-vCPU host
/// the others (tails, rates and `apply`) moved by 30-60% between runs of
/// the same code whenever the host got busier, because they weigh the
/// slowest requests and the memory-heavy graph copies most; they are
/// printed for paired before/after runs on one host (see `README.md`).
pub const GATED: [&str; 3] = ["setup_s", "lat_p50_ms", "hi_lat_p50_ms"];

/// Per-layer metrics of the traced run: `(name, unit)`. Every workload
/// reports all of them; a layer a workload does not call reports 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("net.submit_us", "us"),
    ("net.encode_request_us", "us"),
    ("net.decode_request_us", "us"),
    ("net.encode_outcome_us", "us"),
    ("net.decode_outcome_us", "us"),
    ("net.request_bytes", "bytes"),
    ("net.outcome_bytes", "bytes"),
    ("net.residual_p50_us", "us"),
    ("net.residual_p95_us", "us"),
    ("net.protocol_errors", "count"),
    ("serve.submit_p50_us", "us"),
    ("serve.submit_p95_us", "us"),
    ("serve.collect_wait_us", "us"),
    ("serve.rewarm_hit_ratio", "ratio"),
    ("serve.epoch_rewarm_hit_ratio", "ratio"),
    ("serve.delivered", "count"),
    ("serve.denied", "count"),
    ("serve.apply_us", "us"),
    ("hypergraph.apply_edits_us", "us"),
    ("hypergraph.engine_build_us", "us"),
    ("serve.retained_snapshots_max", "count"),
    ("serve.evictions", "count"),
    ("batch.execute_p50_us", "us"),
    ("batch.execute_p95_us", "us"),
    ("batch.execute_share", "ratio"),
    ("hypergraph.induce_us", "us"),
    ("mis_core.rounds", "count"),
    ("mis_core.work", "count"),
    ("mis_core.depth", "count"),
    ("mis_core.bl_stages", "count"),
    ("mis_core.sbl_round_us", "us"),
    ("mis_core.ns_per_work", "ns"),
    ("pram.fresh_allocations_warm", "count"),
    ("pram.overflow_checkouts", "count"),
    ("hypergraph.open_mapped_ms", "ms"),
    ("hypergraph.read_file_ms", "ms"),
    ("serve.register_ms", "ms"),
    ("serve.restore_ms", "ms"),
    ("loadgen.late_p99_us", "us"),
    ("loadgen.late_max_us", "us"),
    ("loadgen.backlog_end", "count"),
    ("trace.overhead_ratio", "ratio"),
];
