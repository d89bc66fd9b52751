//! Inputs and helpers shared by the three workloads.

use bench::load::{plan, Arrival, LoadConfig};
use hypergraph_mis::hypergraph::{GraphEdit, Hypergraph, VertexId};
use hypergraph_mis::mis_core::BlConfig;
use hypergraph_mis::serve::{
    Algorithm, EpochPin, GraphId, RetentionPolicy, RoutePolicy, ServeConfig, SolveOutcome,
    SolveRequest, SolveTrace, TenantId,
};
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Vertices of the resident graph of `wire_query` and `mutate_query`, and
/// of each of the four graphs of `solve_sbl`.
pub const N: usize = 16384;

/// Tenants in a load plan; tenant 0 is the hot one.
pub const TENANTS: u64 = 4;

/// Snapshots a registry keeps besides its base and latest.
pub const KEEP_LAST: u64 = 2;

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured phases, in seconds.
    pub seconds: f64,
    pub trace: bool,
    /// Where this run writes its input files and spans.
    pub dir: PathBuf,
}

impl Ctx {
    /// Times the set-up is repeated (`full`, or 3 in a short run); the
    /// median is `setup_s`.
    pub fn setups(&self, full: usize) -> usize {
        if self.seconds < 5.0 {
            3
        } else {
            full
        }
    }

    /// A seeded generator for one input of this run.
    pub fn rng(&self, tag: u64) -> rand_chacha::ChaCha8Rng {
        bench::rng_for(self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tag)
    }

    pub fn path(&self, file: &str) -> PathBuf {
        self.dir.join(file)
    }
}

/// The runner every workload serves with: 2 shards of one thread each,
/// matching a 2-core host. Requests go to the shard with the fewest queued,
/// so a closed loop never queues one behind another while a shard is idle;
/// round robin would, whenever outcomes come back out of ticket order, and
/// the latency would then mix two modes.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        shards: 2,
        queue_depth: 64,
        threads_per_shard: Some(1),
        route: RoutePolicy::LeastQueued,
        ..ServeConfig::default()
    }
}

pub fn retention() -> RetentionPolicy {
    RetentionPolicy::keep_last(KEEP_LAST)
}

/// The `bench::load` shape of the induced-query workloads at `rate` req/s.
pub fn load_plan(seed: u64, requests: usize, rate: f64) -> Vec<Arrival> {
    plan(&LoadConfig {
        seed,
        requests,
        mean_interarrival_us: 1e6 / rate,
        tenants: TENANTS,
        hot_share: 0.6,
        min_query: 32,
        max_query: 1024,
        tail_alpha: 1.1,
    })
}

/// `size` distinct vertices of `0..n`, ascending.
pub fn sample_vertices(rng: &mut impl Rng, n: usize, size: usize) -> Vec<VertexId> {
    let mut picked = BTreeSet::new();
    while picked.len() < size.min(n) {
        picked.insert(rng.gen_range(0..n as VertexId));
    }
    picked.into_iter().collect()
}

/// One induced Beame–Luby query, independent of the registry it targets.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    pub vertices: Arc<Vec<VertexId>>,
    pub seed: u64,
    pub tenant: u64,
}

impl QuerySpec {
    pub fn request(&self, graph: GraphId) -> SolveRequest {
        self.pinned(graph, EpochPin::Latest)
    }

    pub fn pinned(&self, graph: GraphId, pin: EpochPin) -> SolveRequest {
        SolveRequest::induced(graph, Arc::clone(&self.vertices))
            .algorithm(Algorithm::Bl(BlConfig::default()))
            .seed(self.seed)
            .tenant(TenantId(self.tenant))
            .pin(pin)
            .build()
    }
}

/// Queries for the arrivals of a load plan.
pub fn query_specs(rng: &mut impl Rng, arrivals: &[Arrival]) -> Vec<QuerySpec> {
    arrivals
        .iter()
        .map(|a| QuerySpec {
            vertices: Arc::new(sample_vertices(rng, N, a.query_size)),
            seed: a.solve_seed,
            tenant: a.tenant,
        })
        .collect()
}

/// A script of `batches` valid edit batches against `h`: each removes
/// `per_batch / 2` existing edges and adds as many new ones with sizes in
/// `sizes`. Edges touched twice in one batch and duplicated edges are
/// avoided, so every batch applies in order.
pub fn edit_script(
    rng: &mut impl Rng,
    h: &Hypergraph,
    batches: usize,
    per_batch: usize,
    sizes: std::ops::RangeInclusive<usize>,
) -> Vec<Vec<GraphEdit>> {
    let n = h.n_vertices();
    let mut count: BTreeMap<Vec<VertexId>, u32> = BTreeMap::new();
    for e in h.edges_owned() {
        *count.entry(e).or_default() += 1;
    }
    let mut singles: Vec<Vec<VertexId>> = count
        .iter()
        .filter(|(_, &c)| c == 1)
        .map(|(e, _)| e.clone())
        .collect();
    let mut script = Vec::with_capacity(batches);
    for _ in 0..batches {
        let mut batch = Vec::with_capacity(per_batch);
        let mut touched = BTreeSet::new();
        let mut added = Vec::new();
        for _ in 0..per_batch / 2 {
            let i = rng.gen_range(0..singles.len());
            let e = singles.swap_remove(i);
            count.remove(&e);
            touched.insert(e.clone());
            batch.push(GraphEdit::RemoveEdge(e));
        }
        while added.len() < per_batch / 2 {
            let size = rng.gen_range(sizes.clone());
            let e = sample_vertices(rng, n, size);
            if count.contains_key(&e) || !touched.insert(e.clone()) {
                continue;
            }
            count.insert(e.clone(), 1);
            added.push(e.clone());
            batch.push(GraphEdit::AddEdge(e));
        }
        singles.extend(added);
        script.push(batch);
    }
    script
}

/// A 64-bit FNV-1a digest of an outcome's deterministic payload: every
/// field [`SolveOutcome::fingerprint`] compares. Cheap enough to take on
/// the receive path; a seeded sample is also compared field by field.
pub fn digest(o: &SolveOutcome) -> u64 {
    let mut h = Fnv::new();
    h.u64(o.seed);
    match o.epoch {
        Some(e) => {
            h.u64(1);
            h.u64(e.0);
        }
        None => h.u64(0),
    }
    h.u64(o.independent_set.len() as u64);
    for &v in &o.independent_set {
        h.u64(v as u64);
    }
    h.u64(o.work);
    h.u64(o.depth);
    h.u64(o.rounds);
    match &o.trace {
        SolveTrace::Bl(t) | SolveTrace::Linear(t) => {
            h.u64(t.stages.len() as u64);
            for s in &t.stages {
                for x in [
                    s.stage,
                    s.n_alive,
                    s.m,
                    s.dimension,
                    s.marked,
                    s.unmarked,
                    s.added,
                    s.dominated_removed,
                    s.singletons_removed,
                ] {
                    h.u64(x as u64);
                }
                h.u64(s.delta.to_bits());
                h.u64(s.p.to_bits());
                h.u64(s.deltas_by_dimension.len() as u64);
                for d in &s.deltas_by_dimension {
                    h.u64(d.to_bits());
                }
            }
        }
        other => h.bytes(format!("{other:?}").as_bytes()),
    }
    if let Some(e) = &o.error {
        h.bytes(format!("{e:?}").as_bytes());
    }
    h.finish()
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Whether request `i` of a run belongs to the seeded sample that is also
/// compared field by field (about one in `every`).
pub fn sampled(seed: u64, i: usize, every: u64) -> bool {
    let mut h = Fnv::new();
    h.u64(seed);
    h.u64(i as u64);
    h.finish().is_multiple_of(every)
}

/// Sleeps until `due`, for pacing an open-loop sender. It never spins: on
/// a 2-core host a spinning sender would take a core from the server.
pub fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Microseconds between two instants (0 if `b` precedes `a`).
pub fn us(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e6
}

/// What a writer phase measured.
#[derive(Debug, Default)]
pub struct Writes {
    /// `ResidentRegistry::apply` call times, in microseconds.
    pub apply_us: crate::stats::Samples,
    /// Batches applied, in order (indices into the edit script).
    pub applied: usize,
    /// Calls that returned an error or a wrong epoch.
    pub bad: u64,
    pub retained_max: usize,
    pub evictions: u64,
}

impl Writes {
    /// Applies `batch` to `id`, timing the call and checking that it
    /// published the next epoch.
    pub fn apply(
        &mut self,
        registry: &hypergraph_mis::ResidentRegistry,
        id: GraphId,
        batch: &[GraphEdit],
        rec: Option<&crate::trace::Recorder>,
    ) {
        let before = registry.current_epoch(id);
        let t0 = Instant::now();
        let result = registry.apply(id, batch);
        let t1 = Instant::now();
        self.apply_us.push(us(t0, t1));
        if let Some(rec) = rec {
            rec.record("serve.apply", t0, t1, None, self.applied as u64);
        }
        self.applied += 1;
        if result.map(|e| e.0) != Ok(before.0 + 1) {
            self.bad += 1;
        }
        self.retained_max = self.retained_max.max(registry.retained_snapshots(id));
        self.evictions = registry.evictions(id);
    }
}

/// The two halves of an `apply`, timed outside the serving path on the
/// first `k` batches of `script` replayed from `base`: `(apply_edits us,
/// engine build us)`.
pub fn split_apply(
    base: &Hypergraph,
    script: &[Vec<GraphEdit>],
    k: usize,
    rec: Option<&crate::trace::Recorder>,
) -> (crate::stats::Samples, crate::stats::Samples) {
    use hypergraph_mis::hypergraph::{apply_edits, ActiveHypergraph};
    let mut edits_us = crate::stats::Samples::new();
    let mut build_us = crate::stats::Samples::new();
    let mut h = base.clone();
    for (i, batch) in script.iter().take(k).enumerate() {
        let t0 = Instant::now();
        let next = apply_edits(&h, batch).expect("a generated batch applies in order");
        let t1 = Instant::now();
        let engine = std::hint::black_box(ActiveHypergraph::from_hypergraph(&next));
        let t2 = Instant::now();
        drop(engine);
        edits_us.push(us(t0, t1));
        build_us.push(us(t1, t2));
        if let Some(rec) = rec {
            let root = rec.record("offline.apply", t0, t2, None, i as u64);
            rec.record("hypergraph.apply_edits", t0, t1, Some(root), i as u64);
            rec.record("hypergraph.engine_build", t1, t2, Some(root), i as u64);
        }
        h = next;
    }
    (edits_us, build_us)
}

/// Records the writer phase's per-layer metrics.
pub fn report_writes(
    rep: &mut crate::report::Report,
    writes: &mut Writes,
    base: &Hypergraph,
    script: &[Vec<GraphEdit>],
    rec: Option<&crate::trace::Recorder>,
) {
    use crate::PER_LAYER as L;
    let (mut edits_us, mut build_us) = split_apply(base, script, writes.applied.min(32), rec);
    rep.set_timing(&L, "serve.apply_us", &mut writes.apply_us, 50.0, 1.0);
    rep.set_timing(&L, "hypergraph.apply_edits_us", &mut edits_us, 50.0, 1.0);
    rep.set_timing(&L, "hypergraph.engine_build_us", &mut build_us, 50.0, 1.0);
    rep.set(
        &L,
        "serve.retained_snapshots_max",
        writes.retained_max as f64,
    );
    rep.set(&L, "serve.evictions", writes.evictions as f64);
}

/// Records `apply_p50_ms` and counts the writer calls.
pub fn report_apply_e2e(rep: &mut crate::report::Report, writes: &mut Writes) {
    use crate::END_TO_END as E;
    rep.set_steady(&E, "apply_p50_ms", &mut writes.apply_us, 50.0, 1e-3);
    let bad = writes.bad;
    rep.check(writes.applied as u64, bad, || {
        "apply calls failed or skipped an epoch".into()
    });
}
