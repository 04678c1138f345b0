//! Order statistics for latency samples.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND_TAIL: usize = 10;

/// A tail percentile together with the evidence behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile's value.
    pub value: f64,
    /// Samples the percentile was taken from.
    pub samples: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

/// The median (mean of the two middle values for an even count).
/// `None` for no samples.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The nearest-rank `p`-th percentile (`0 < p < 100`), reported only when
/// at least [`MIN_BEYOND_TAIL`] samples lie beyond its rank: a p90 needs
/// 100 samples, a p99 needs 1000. `None` when the samples cannot support
/// the tail.
pub fn tail(values: &[f64], p: f64) -> Option<Tail> {
    assert!(
        p > 0.0 && p < 100.0,
        "percentile must lie strictly inside (0, 100)"
    );
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    // Nearest rank: the smallest value with at least p% of samples at or
    // below it.
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let rank = rank.clamp(1, n);
    let beyond = n - rank;
    (beyond >= MIN_BEYOND_TAIL).then(|| Tail {
        value: sorted[rank - 1],
        samples: n,
        beyond,
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the helpers must sort.
        (0..n).map(|i| ((i * 37) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        // 99 samples: rank 90, only 9 beyond — refused.
        assert_eq!(tail(&ramp(99), 90.0), None);
        // 100 samples: rank 90, exactly 10 beyond — reported with its count.
        let t = tail(&ramp(100), 90.0).expect("100 samples support a p90");
        assert_eq!(t.value, 90.0);
        assert_eq!((t.samples, t.beyond), (100, 10));
        // 1000 samples: value at rank 900.
        let t = tail(&ramp(1000), 90.0).expect("1000 samples support a p90");
        assert_eq!((t.value, t.beyond), (900.0, 100));
    }

    #[test]
    fn higher_percentiles_need_more_samples() {
        assert_eq!(tail(&ramp(500), 99.0), None);
        let t = tail(&ramp(1000), 99.0).expect("1000 samples support a p99");
        assert_eq!((t.value, t.beyond), (990.0, 10));
    }

    #[test]
    fn ties_and_tiny_inputs() {
        assert_eq!(tail(&[], 50.0), None);
        let flat = vec![5.0; 40];
        let t = tail(&flat, 50.0).expect("20 samples lie beyond the median rank");
        assert_eq!((t.value, t.beyond), (5.0, 20));
    }
}
