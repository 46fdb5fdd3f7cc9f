//! Percentiles under the benchmark's reporting rule: a percentile is
//! reported only when at least [`MIN_TAIL`] samples lie beyond it.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// The smallest sample count for which the p90 has [`MIN_TAIL`]
/// samples beyond it; timed loops run until they have at least this
/// many.
pub const MIN_SAMPLES: usize = 100;
const _: () = assert!(MIN_SAMPLES >= MIN_TAIL * 10);

/// 1-based nearest rank of quantile `q` in `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie beyond the nearest-rank `q` quantile.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Nearest-rank `q` quantile of `samples`, or an error naming the
/// shortfall when fewer than [`MIN_TAIL`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    let tail = beyond(samples.len(), q);
    if tail < MIN_TAIL {
        return Err(format!(
            "p{:.0} over {} samples has only {tail} beyond it (need {MIN_TAIL})",
            q * 100.0,
            samples.len()
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank(sorted.len(), q) - 1])
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Each sample replaced by the fastest sample of the same input (same
/// `keys` entry): the input's floor over the run. Slowdowns from outside
/// the process only ever add time, so the floor of an input repeated
/// through the run is its cost with the host's drift taken out.
pub fn floors(samples: &[f64], keys: &[usize]) -> Vec<f64> {
    let mut best = std::collections::HashMap::new();
    for (&x, &k) in samples.iter().zip(keys) {
        let b = best.entry(k).or_insert(x);
        *b = x.min(*b);
    }
    keys.iter().map(|k| best[k]).collect()
}

/// Mean of a sample; 0 for an empty one (a layer that did no work).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, 0 when nothing was attempted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(99, 0.9), 9);
        assert_eq!(beyond(0, 0.9), 0);
        let ok: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&ok, 0.9), Ok(90.0));
        assert_eq!(percentile(&ok, 0.5), Ok(50.0));
        let short: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!(percentile(&short, 0.9).is_err());
        // The p50 of the same short sample is still reportable.
        assert_eq!(percentile(&short, 0.5), Ok(50.0));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v: Vec<f64> = (1..=200).map(f64::from).collect();
        v.reverse();
        assert_eq!(percentile(&v, 0.9), Ok(180.0));
    }

    #[test]
    fn floors_take_the_fastest_repeat_of_each_input() {
        let samples = [5.0, 3.0, 9.0, 4.0, 7.0];
        let keys = [0, 1, 2, 0, 1];
        assert_eq!(floors(&samples, &keys), vec![4.0, 3.0, 9.0, 4.0, 3.0]);
        assert!(floors(&[], &[]).is_empty());
    }

    #[test]
    fn median_and_ratio() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(ratio(1, 4), 0.25);
        assert_eq!(ratio(1, 0), 0.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
