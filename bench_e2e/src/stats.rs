//! The harness's own arithmetic: medians, quartile spread, and the
//! tail-percentile rule.

/// Sorted copy of a sample (NaNs are a harness bug, so `total_cmp` is fine).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of an unsorted sample (mean of the two middle values when even).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let s = sorted(samples);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// gives them — the rule the steadiness check of this benchmark is stated
/// in. Needs at least two values.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(samples.len() >= 2, "quartiles need two values");
    let s = sorted(samples);
    let n = s.len();
    let m = n + 1;
    let cut = |i: usize| -> f64 {
        let j = (i * m / 4).clamp(1, n - 1);
        // `delta` may exceed 4 (or go negative) after the clamp: that is the
        // linear extrapolation Python performs for tiny samples.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn rel_iqr(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(samples);
    (q3 - q1) / median(samples).abs().max(f64::MIN_POSITIVE)
}

/// Relative standard error of the *median* of a sample, estimated from its
/// quartiles (σ ≈ IQR / 1.349, se(median) ≈ 1.2533 σ / √n). This is what a
/// single run knows about how far its reported median can be trusted.
pub fn median_rel_se(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    1.2533 * rel_iqr(samples) / 1.349 / (samples.len() as f64).sqrt()
}

/// The percentiles a tail may be reported at.
const TAIL_PERCENTILES: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// The tail-percentile rule: report the highest of p50/p75/p90/p95/p99/p99.9
/// that still has at least ten samples beyond it. Fewer than twenty samples
/// cannot support anything above the median, which is then what is returned
/// (labelled p50). Returns `(percentile, value)` by nearest rank.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    assert!(!samples.is_empty(), "tail of an empty sample");
    let s = sorted(samples);
    let n = s.len();
    let mut pick = 50.0;
    for p in TAIL_PERCENTILES {
        let beyond = n - nearest_rank(n, p);
        if beyond >= 10 {
            pick = p;
        }
    }
    if pick == 50.0 {
        return (pick, median(&s));
    }
    (pick, s[nearest_rank(n, pick) - 1])
}

/// 1-based nearest rank of percentile `p` in a sample of `n`.
fn nearest_rank(n: usize, p: f64) -> usize {
    // The small slack keeps 99.9 % of 10 000 at rank 9990, not 9991, when
    // the product lands a hair above the integer.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an unsorted sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let s = sorted(samples);
    s[nearest_rank(s.len(), p) - 1]
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15, 40, 120]
        let (q1, q3) = quartiles(&[160.0, 10.0, 40.0, 20.0, 80.0]);
        assert!((q1 - 15.0).abs() < 1e-12 && (q3 - 120.0).abs() < 1e-12);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        let v = |n: usize| -> Vec<f64> { (1..=n).map(|k| k as f64).collect() };
        // 19 samples: nothing above the median is supported.
        assert_eq!(tail(&v(19)), (50.0, 10.0));
        assert_eq!(tail(&v(8)), (50.0, 4.5));
        // 40 samples: p75 leaves exactly ten beyond, p90 only four.
        assert_eq!(tail(&v(40)), (75.0, 30.0));
        // 100 → p90 (ten beyond); 200 → p95; 1000 → p99; 10000 → p99.9.
        assert_eq!(tail(&v(100)), (90.0, 90.0));
        assert_eq!(tail(&v(200)).0, 95.0);
        assert_eq!(tail(&v(1000)), (99.0, 990.0));
        assert_eq!(tail(&v(4000)).0, 99.0);
        assert_eq!(tail(&v(10_000)), (99.9, 9990.0));
        // A single sample is its own median.
        assert_eq!(tail(&[7.0]), (50.0, 7.0));
    }

    #[test]
    fn spread_of_a_constant_is_zero() {
        assert_eq!(rel_iqr(&[5.0; 8]), 0.0);
        assert_eq!(median_rel_se(&[5.0; 8]), 0.0);
        assert_eq!(median_rel_se(&[5.0]), 0.0);
    }
}
