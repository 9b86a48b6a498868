//! Order statistics over timing samples. Every number the benchmark reports
//! is a median (or a stated percentile) over repeated passes, never a best-of.

/// `q`-quantile (0 ≤ q ≤ 1) with linear interpolation between the two
/// nearest ranks. Empty input has no quantile.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// Median; 0 for an empty sample so a phase that produced nothing shows as
/// a zero the correctness check then rejects.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

/// Nearest-rank percentile (the smallest sample with at least `p` percent of
/// the sample at or below it): a latency percentile must be a latency that
/// was observed.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// First quartile, median and third quartile by the "exclusive" method
/// Python's `statistics.quantiles(values, n=4)` uses, so `--agree` reports
/// the spread the acceptance rule is stated in.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some([cut(1), cut(2), cut(3)])
}

/// The same step replayed in several passes: the median across passes of
/// each step's time. One slow pass (a scheduler stall, a page-cache miss)
/// cannot move a step's figure, while a step that is slow in every pass
/// keeps its cost.
pub fn per_step_median(passes: &[Vec<f64>]) -> Vec<f64> {
    let steps = passes.iter().map(Vec::len).min().unwrap_or(0);
    (0..steps)
        .map(|i| median(&passes.iter().map(|p| p[i]).collect::<Vec<_>>()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn percentile_is_an_observed_sample() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 19.0);
        assert_eq!(percentile(&v, 50.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 20.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert_eq!(percentile(&[], 95.0), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(
            quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]),
            Some([15.0, 30.0, 45.0])
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn per_step_median_drops_one_slow_pass() {
        let passes = vec![
            vec![1.0, 10.0, 5.0],
            vec![1.2, 90.0, 5.0],
            vec![0.8, 11.0, 5.0],
        ];
        assert_eq!(per_step_median(&passes), vec![1.0, 11.0, 5.0]);
        assert!(per_step_median(&[]).is_empty());
    }
}
