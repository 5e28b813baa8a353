//! Latency statistics for the evaluation harness.

/// Collects latency samples and reports the percentiles the paper uses
/// (median, 90th, 99th) plus geometric means for table footers.
#[derive(Debug, Clone, Default)]
pub struct LatencyRecorder {
    samples_ms: Vec<f64>,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample in milliseconds.
    pub fn record(&mut self, ms: f64) {
        self.samples_ms.push(ms);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples_ms.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples_ms.is_empty()
    }

    /// The `p`-th percentile (0.0–100.0), by nearest-rank.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.samples_ms.is_empty() {
            return None;
        }
        let mut sorted = self.samples_ms.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize - 1;
        Some(sorted[rank.min(sorted.len() - 1)])
    }

    /// Median latency (50th percentile — the paper's headline metric).
    pub fn median(&self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> Option<f64> {
        (!self.samples_ms.is_empty())
            .then(|| self.samples_ms.iter().sum::<f64>() / self.samples_ms.len() as f64)
    }

    /// All samples, for CDF plotting (Figs. 14b/15b).
    pub fn samples(&self) -> &[f64] {
        &self.samples_ms
    }
}

/// Geometric mean of a set of per-query medians (table footers).
pub fn geometric_mean(values: impl IntoIterator<Item = f64>) -> Option<f64> {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        if v <= 0.0 {
            return None;
        }
        log_sum += v.ln();
        n += 1;
    }
    (n > 0).then(|| (log_sum / n as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_by_nearest_rank() {
        let mut r = LatencyRecorder::new();
        for i in 1..=100 {
            r.record(i as f64);
        }
        assert_eq!(r.median(), Some(50.0));
        assert_eq!(r.percentile(99.0), Some(99.0));
        assert_eq!(r.percentile(100.0), Some(100.0));
        assert_eq!(r.percentile(1.0), Some(1.0));
    }

    #[test]
    fn empty_recorder_returns_none() {
        let r = LatencyRecorder::new();
        assert_eq!(r.median(), None);
        assert_eq!(r.mean(), None);
    }

    #[test]
    fn geometric_mean_matches_paper_usage() {
        // Table 2 footer style: geo-mean over per-query medians.
        let g = geometric_mean([1.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-9);
        assert_eq!(geometric_mean([]), None);
        assert_eq!(geometric_mean([0.0]), None);
    }
}
