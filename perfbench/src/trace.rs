//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions (the library itself is not instrumented). Each span has
//! a name, a start and an end on one clock, an optional parent span and the
//! id of the request it belongs to. A layer's self time is its duration
//! minus the part of it that its child spans cover.

use crate::stats::Samples;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u64>,
    pub request: u64,
}

/// Collects spans from any thread; written out when the run ends.
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Self {
        Recorder {
            origin,
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records `[start, end]` and returns the new span's id.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u64>,
        request: u64,
    ) -> u64 {
        let mut spans = self.spans.lock().expect("span list poisoned by a panic");
        let id = spans.len() as u64;
        spans.push(Span {
            id,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end).max(self.ns(start)),
            parent,
            request,
        });
        id
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list poisoned by a panic")
            .clone()
    }

    /// Writes every span as one tab-separated line.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\trequest")?;
        for s in self.spans() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.name, s.start_ns, s.end_ns, parent, s.request
            )?;
        }
        out.flush()
    }
}

/// Per-span self time: duration minus the union of its children's
/// intervals (clipped to the parent), indexed by span id.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end_ns - s.start_ns;
            let Some(kids) = children.get_mut(&s.id) else {
                return dur;
            };
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            dur - covered.min(dur)
        })
        .collect()
}

/// One row of the per-layer table.
#[derive(Debug)]
pub struct LayerRow {
    pub name: &'static str,
    pub count: usize,
    pub dur_us: Samples,
    pub self_total_us: f64,
}

/// Aggregates spans by name, in first-seen order.
pub fn layer_table(spans: &[Span]) -> Vec<LayerRow> {
    let selfs = self_times(spans);
    let mut rows: Vec<LayerRow> = Vec::new();
    for (s, &own) in spans.iter().zip(&selfs) {
        let i = match rows.iter().position(|r| r.name == s.name) {
            Some(i) => i,
            None => {
                rows.push(LayerRow {
                    name: s.name,
                    count: 0,
                    dur_us: Samples::new(),
                    self_total_us: 0.0,
                });
                rows.len() - 1
            }
        };
        let row = &mut rows[i];
        row.count += 1;
        row.dur_us.push((s.end_ns - s.start_ns) as f64 / 1e3);
        row.self_total_us += own as f64 / 1e3;
    }
    rows
}

/// Renders the per-layer self-time table.
pub fn render_table(workload: &str, rows: &mut [LayerRow]) -> String {
    let total_self: f64 = rows.iter().map(|r| r.self_total_us).sum();
    let mut out = format!(
        "per-layer self time ({workload}):\n  {:<26} {:>8} {:>12} {:>12} {:>14} {:>7}\n",
        "span", "count", "p50 us", "tail us", "self total ms", "self %"
    );
    for r in rows.iter_mut() {
        let tail = r.dur_us.tail().map_or(0.0, |t| t.1);
        out.push_str(&format!(
            "  {:<26} {:>8} {:>12.2} {:>12.2} {:>14.3} {:>6.1}%\n",
            r.name,
            r.count,
            r.dur_us.median(),
            tail,
            r.self_total_us / 1e3,
            100.0 * crate::stats::ratio(r.self_total_us, total_self)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, start_ns: u64, end_ns: u64, parent: Option<u64>) -> Span {
        Span {
            id,
            name: "s",
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, 0, 100, None),
            span(1, 10, 30, Some(0)),
            span(2, 20, 40, Some(0)),  // overlaps span 1: union is 10..40
            span(3, 90, 120, Some(0)), // clipped to the parent's end
        ];
        assert_eq!(self_times(&spans), vec![100 - 30 - 10, 20, 20, 30]);
    }
}
