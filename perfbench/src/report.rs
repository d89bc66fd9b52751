//! Collects a run's metrics and prints them: one human-readable line per
//! metric (name, value, unit and sample count), then the result object as
//! the last line of standard output.

use crate::json::quote;
use crate::stats::Samples;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Sample count and tail, for the human-readable line.
    pub detail: String,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Outcomes (requests and writer calls) the run attempted.
    pub attempted: u64,
    /// Failed, wrong or missing outcomes among them.
    pub failed: u64,
    /// Why the run is not correct, one line each.
    pub errors: Vec<String>,
    /// Free-form lines printed before the metrics (tables, notes).
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric, looking its unit up in `catalog`.
    pub fn set(&mut self, catalog: &[(&'static str, &'static str)], name: &str, value: f64) {
        self.set_detail(catalog, name, value, String::new());
    }

    pub fn set_detail(
        &mut self,
        catalog: &[(&'static str, &'static str)],
        name: &str,
        value: f64,
        detail: String,
    ) {
        let &(name, unit) = catalog
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalog"));
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name,
            unit,
            value,
            detail,
        });
    }

    /// Records a timing metric from samples (seconds scaled by `scale`),
    /// taking percentile `p`, with the median/tail line as its detail.
    pub fn set_timing(
        &mut self,
        catalog: &[(&'static str, &'static str)],
        name: &str,
        samples: &mut Samples,
        p: f64,
        scale: f64,
    ) {
        let unit = catalog.iter().find(|(n, _)| *n == name).map_or("", |m| m.1);
        let value = samples.percentile(p) * scale;
        let detail = samples.describe(scale, unit);
        self.set_detail(catalog, name, value, detail);
    }

    /// Records an end-to-end timing as [`Samples::steady`] of percentile
    /// `p` (scaled by `scale`), with the whole-phase distribution as its
    /// detail.
    pub fn set_steady(
        &mut self,
        catalog: &[(&'static str, &'static str)],
        name: &str,
        samples: &mut Samples,
        p: f64,
        scale: f64,
    ) {
        let unit = catalog.iter().find(|(n, _)| *n == name).map_or("", |m| m.1);
        let value = samples.steady(p) * scale;
        let detail = format!(
            "{} (fast side over chunks of p{p})",
            samples.describe(scale, unit)
        );
        self.set_detail(catalog, name, value, detail);
    }

    /// Counts `count` attempts, `bad` of which failed; `what` explains a
    /// failure.
    pub fn check(&mut self, count: u64, bad: u64, what: impl FnOnce() -> String) {
        self.attempted += count;
        self.failed += bad;
        if bad > 0 {
            self.errors.push(format!("{bad} of {count}: {}", what()));
        }
    }

    /// A failure that is not tied to a count of outcomes.
    pub fn fail(&mut self, what: String) {
        self.errors.push(what);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// Prints the notes, one line per metric in `catalog` order, and the
    /// result object with the metrics `in_result` selects. Panics if a
    /// catalog metric was never set: a missing metric is a bug in the
    /// benchmark, not a property of the program.
    pub fn print(
        &self,
        workload: &str,
        catalog: &[(&'static str, &'static str)],
        in_result: impl Fn(&str) -> bool,
    ) {
        for line in &self.notes {
            println!("{line}");
        }
        println!(
            "[{workload}] failed_ratio = {} ratio  {} failed of {} attempted",
            crate::stats::ratio(self.failed as f64, self.attempted as f64),
            self.failed,
            self.attempted
        );
        for e in &self.errors {
            println!("[{workload}] ERROR {e}");
        }
        let mut fields = Vec::new();
        for &(name, unit) in catalog {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            let gated = in_result(name);
            println!(
                "[{workload}] {name} = {} {unit}  {}{}",
                m.value,
                m.detail,
                if gated { "" } else { " (not gated)" }
            );
            if !gated {
                continue;
            }
            fields.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                json_number(m.value),
                quote(unit)
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        );
    }
}

/// A JSON number with every digit of `v` (Rust's shortest round-trip form).
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}
