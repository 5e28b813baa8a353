//! The noise-proof estimator: per-operation floors across passes, and
//! aggregates (sum, percentile, geo-mean) of those floors.
//!
//! The engine is deterministic, so operation `k` does identical work in
//! every pass of a run. The host, however, flips between a fast and a
//! ~1.5× slower mode for seconds at a time, which makes any single pass
//! (and any mean over passes) a mixture of two distributions. The minimum
//! over passes of *each operation* is a property of the program alone as
//! soon as one pass saw that operation in the fast mode.

/// Minimum number of samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Element-wise minimum over passes: `floors[k] = min_p passes[p][k]`.
///
/// # Panics
///
/// Panics if the passes recorded different operation counts — replay is
/// deterministic, so that is a bug in the driver.
pub fn floors(passes: &[&[u64]]) -> Vec<u64> {
    let n = passes.first().map_or(0, |p| p.len());
    assert!(
        passes.iter().all(|p| p.len() == n),
        "passes recorded different operation counts"
    );
    (0..n)
        .map(|k| {
            passes
                .iter()
                .map(|p| p[k])
                .min()
                .expect("at least one pass")
        })
        .collect()
}

/// Why a percentile was not reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooFewSamples {
    /// Samples available.
    pub n: usize,
    /// Samples that would lie beyond the requested percentile.
    pub beyond: usize,
}

/// Nearest-rank percentile `p` (in `(0, 1)`) of `values`, refused unless
/// at least [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(values: &[f64], p: f64) -> Result<f64, TooFewSamples> {
    let n = values.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.saturating_sub(rank);
    if beyond < MIN_BEYOND {
        return Err(TooFewSamples { n, beyond });
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Median of `values` (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Geometric mean of strictly positive values.
pub fn geomean(values: &[f64]) -> f64 {
    let log_sum: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Share of all `(pass, operation)` samples within 10 % of the
/// operation's floor: near 1 on a quiet host, near `1/passes` plus the
/// fast-mode share on a noisy one.
pub fn quiet_share(passes: &[&[u64]], floors: &[u64]) -> f64 {
    let mut quiet = 0usize;
    let mut total = 0usize;
    for p in passes {
        for (v, f) in p.iter().zip(floors) {
            total += 1;
            quiet += usize::from((*v as f64) <= (*f as f64) * 1.10);
        }
    }
    quiet as f64 / total.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic uniform `[0, 1)` stream (SplitMix64).
    struct Rng(u64);
    impl Rng {
        fn unit(&mut self) -> f64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// `passes` replays of 200 operations whose true costs ramp from
    /// 10 µs to 30 µs; each sample is slowed ×1.5 with probability 0.6
    /// (the measured two-mode host) plus up to 2 % jitter.
    fn two_mode(passes: usize, seed: u64) -> (Vec<u64>, Vec<Vec<u64>>) {
        let truth: Vec<u64> = (0..200).map(|k| 10_000 + 100 * k).collect();
        let mut rng = Rng(seed);
        let series = (0..passes)
            .map(|_| {
                truth
                    .iter()
                    .map(|&t| {
                        let mode = if rng.unit() < 0.6 { 1.5 } else { 1.0 };
                        (t as f64 * mode * (1.0 + 0.02 * rng.unit())) as u64
                    })
                    .collect()
            })
            .collect();
        (truth, series)
    }

    fn as_f64(v: &[u64]) -> Vec<f64> {
        v.iter().map(|&x| x as f64).collect()
    }

    #[test]
    fn floor_of_eight_recovers_the_fast_mode() {
        let (truth, series) = two_mode(8, 1);
        let refs: Vec<&[u64]> = series.iter().map(Vec::as_slice).collect();
        let fl = floors(&refs);
        let true_p50 = percentile(&as_f64(&truth), 0.5).unwrap();
        let true_p90 = percentile(&as_f64(&truth), 0.9).unwrap();
        let p50 = percentile(&as_f64(&fl), 0.5).unwrap();
        let p90 = percentile(&as_f64(&fl), 0.9).unwrap();
        assert!(
            (p50 / true_p50 - 1.0).abs() < 0.03,
            "p50 {p50} vs {true_p50}"
        );
        assert!(
            (p90 / true_p90 - 1.0).abs() < 0.03,
            "p90 {p90} vs {true_p90}"
        );
        let sum: u64 = fl.iter().sum();
        let true_sum: u64 = truth.iter().sum();
        assert!((sum as f64 / true_sum as f64 - 1.0).abs() < 0.03);
        // A single pass is off by tens of percent on the same data.
        let single = percentile(&as_f64(&series[0]), 0.5).unwrap();
        assert!(single / true_p50 > 1.15, "single-pass p50 {single}");
    }

    #[test]
    fn floors_repeat_across_runs_where_single_passes_do_not() {
        let estimates: Vec<(f64, f64)> = (10..20)
            .map(|seed| {
                let (_, series) = two_mode(8, seed);
                let refs: Vec<&[u64]> = series.iter().map(Vec::as_slice).collect();
                let floor_sum: u64 = floors(&refs).iter().sum();
                let single_sum: u64 = series[0].iter().sum();
                (floor_sum as f64, single_sum as f64)
            })
            .collect();
        let spread = |v: Vec<f64>| {
            let lo = v.iter().copied().fold(f64::MAX, f64::min);
            let hi = v.iter().copied().fold(f64::MIN, f64::max);
            (hi - lo) / median(&v)
        };
        let floor_spread = spread(estimates.iter().map(|e| e.0).collect());
        let single_spread = spread(estimates.iter().map(|e| e.1).collect());
        assert!(floor_spread < 0.02, "floor spread {floor_spread}");
        assert!(single_spread > floor_spread * 2.0);
    }

    #[test]
    fn quiet_share_reports_the_noisy_host() {
        let (_, series) = two_mode(8, 3);
        let refs: Vec<&[u64]> = series.iter().map(Vec::as_slice).collect();
        let fl = floors(&refs);
        let q = quiet_share(&refs, &fl);
        assert!((0.3..0.55).contains(&q), "quiet share {q}");
        let calm = vec![vec![100u64; 50]; 8];
        let refs: Vec<&[u64]> = calm.iter().map(Vec::as_slice).collect();
        assert_eq!(quiet_share(&refs, &floors(&refs)), 1.0);
    }

    #[test]
    fn p90_is_refused_without_ten_samples_beyond() {
        let small: Vec<f64> = (0..90).map(f64::from).collect();
        assert_eq!(
            percentile(&small, 0.9),
            Err(TooFewSamples { n: 90, beyond: 9 })
        );
        let enough: Vec<f64> = (0..120).map(f64::from).collect();
        assert_eq!(percentile(&enough, 0.9), Ok(107.0));
        // The median of the same small sample is still reportable.
        assert_eq!(percentile(&small, 0.5), Ok(44.0));
        assert!(percentile(&[1.0; 19], 0.5).is_err());
    }

    #[test]
    fn geomean_and_median() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    #[should_panic(expected = "different operation counts")]
    fn floors_reject_ragged_passes() {
        floors(&[&[1, 2][..], &[1][..]]);
    }
}
