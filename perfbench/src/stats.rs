//! Percentiles over measured samples.
//!
//! Every timing is reported as its median plus the highest percentile that
//! still has at least [`TAIL_MIN_BEYOND`] samples beyond it, so a tail figure
//! never rests on one or two outliers.

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 6] = [99.99, 99.9, 99.0, 95.0, 90.0, 50.0];

/// Samples a chunk of [`Samples::steady`] holds at least, and samples it
/// must leave beyond the percentile taken in it (so a p95 chunk holds 400).
const CHUNK_MIN: usize = 100;
const CHUNK_BEYOND: f64 = 20.0;

/// Which chunk [`Samples::steady`] reports: the k-th fastest, where k is a
/// tenth of the chunks but at least 3. Other tenants of a shared host only
/// ever slow a stretch of a run down, never speed it up, and they tend to
/// do so for seconds at a time; the fast side of many short chunks is
/// therefore the steadiest estimate of the program's own speed,
/// and a change that slows every request still moves it fully. Taking the
/// third rather than the fastest keeps one lucky chunk from setting it.
const FAST_SHARE: f64 = 0.1;
const FAST_RANK_MIN: usize = 3;

/// The quantile of per-slice rates a run reports: the faster quarter.
pub const FAST_SIDE_RATE: f64 = 75.0;

/// Measurements of one quantity, in the order they were taken.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    /// `values` sorted, rebuilt when stale.
    sorted: Vec<f64>,
}

impl Samples {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    /// The samples in the order they were taken.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Nearest-rank percentile `p` in `[0, 100]`; 0 when empty.
    pub fn percentile(&mut self, p: f64) -> f64 {
        if self.sorted.len() != self.values.len() {
            self.sorted = self.values.clone();
            self.sorted.sort_by(|a, b| a.total_cmp(b));
        }
        nearest_rank(&self.sorted, p)
    }

    /// Percentile `p` of each consecutive chunk of the series, then the
    /// k-th fastest of those (see [`FAST_SHARE`]).
    pub fn steady(&self, p: f64) -> f64 {
        let min = CHUNK_MIN.max((CHUNK_BEYOND / (1.0 - p / 100.0)).ceil() as usize);
        let chunks = (self.values.len() / min).max(1);
        let size = self.values.len().div_ceil(chunks).max(1);
        let mut per_chunk: Vec<f64> = self
            .values
            .chunks(size)
            .map(|c| {
                let mut c = c.to_vec();
                c.sort_by(|a, b| a.total_cmp(b));
                nearest_rank(&c, p)
            })
            .collect();
        per_chunk.sort_by(|a, b| a.total_cmp(b));
        let k = FAST_RANK_MIN.max((FAST_SHARE * chunks as f64).ceil() as usize);
        per_chunk[k.min(per_chunk.len()) - 1]
    }

    pub fn median(&mut self) -> f64 {
        self.percentile(50.0)
    }

    pub fn max(&mut self) -> f64 {
        self.percentile(100.0)
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// The highest percentile with at least [`TAIL_MIN_BEYOND`] samples
    /// beyond it, as `(percentile, value)`; `None` below 20 samples.
    pub fn tail(&mut self) -> Option<(f64, f64)> {
        let n = self.values.len() as f64;
        let p = TAIL_LADDER
            .into_iter()
            .find(|p| n * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND as f64)?;
        Some((p, self.percentile(p)))
    }

    /// `n=…, p50=…, p99=…` with the tail chosen by [`tail`](Self::tail).
    pub fn describe(&mut self, scale: f64, unit: &str) -> String {
        let median = self.median() * scale;
        match self.tail() {
            Some((p, v)) if p > 50.0 => format!(
                "n={} p50={median:.4} {unit} p{p}={:.4} {unit}",
                self.len(),
                v * scale
            ),
            _ => format!("n={} p50={median:.4} {unit}", self.len()),
        }
    }
}

fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Events per second in each whole window of `window_s` seconds, given
/// event times in seconds from the start (one rate over all events when
/// they span less than a window).
pub fn window_rates(times_s: &[f64], window_s: f64) -> Vec<f64> {
    let Some(end) = times_s.iter().copied().reduce(f64::max) else {
        return Vec::new();
    };
    if end < window_s {
        return vec![times_s.len() as f64 / end.max(1e-9)];
    }
    let mut counts = vec![0usize; (end / window_s) as usize];
    for &t in times_s {
        if let Some(c) = counts.get_mut((t / window_s) as usize) {
            *c += 1;
        }
    }
    counts.iter().map(|&c| c as f64 / window_s).collect()
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = Samples::new();
        for v in 1..=100 {
            s.push(v as f64);
        }
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.percentile(95.0), 95.0);
        assert_eq!(s.max(), 100.0);
        assert_eq!(Samples::new().median(), 0.0);
    }

    #[test]
    fn steady_ignores_one_bad_chunk() {
        let mut s = Samples::new();
        for i in 0..2000 {
            // One chunk of 200 samples is 10x slower.
            s.push(if (400..600).contains(&i) { 10.0 } else { 1.0 });
        }
        assert_eq!(s.steady(95.0), 1.0);
        assert_eq!(s.percentile(95.0), 10.0);
        let times: Vec<f64> = (0..1000).map(|i| i as f64 / 100.0).collect();
        assert_eq!(window_rates(&times, 1.0), vec![100.0; 9]);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let mut s = Samples::new();
        for v in 0..1000 {
            s.push(v as f64);
        }
        // 1% of 1000 is 10 samples: p99 is the highest admissible.
        assert_eq!(s.tail().map(|t| t.0), Some(99.0));
        let mut small = Samples::new();
        for v in 0..19 {
            small.push(v as f64);
        }
        assert_eq!(small.tail(), None);
    }
}
