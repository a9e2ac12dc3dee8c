//! Order statistics: percentiles of samples, sub-window medians, and the quartiles the
//! driver computes.

/// Sorts samples in place (no NaNs are ever produced by the benchmark's clocks or counters).
pub fn sort(samples: &mut [f64]) {
    samples.sort_unstable_by(f64::total_cmp);
}

/// Percentile `q` (0–100) of **sorted** samples by rank `round(q/100 · (n−1))`; 0 when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((q.clamp(0.0, 100.0) / 100.0) * (sorted.len() - 1) as f64).round() as usize]
}

/// Median of unsorted values (mean of the middle pair for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// `numerator / denominator`, or 0 over an empty denominator.
pub fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// The lower quartile of per-sub-window values: the reported value of a timing metric.
///
/// A shared host only ever slows a sub-window down, in bursts of a second or two, so the
/// quieter quarter of the window tracks the undisturbed value, and a disturbed stretch — up
/// to most of the window — cannot move it.
pub fn quiet_quartile(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    percentile(&sorted, 25.0)
}

/// [`quiet_quartile`] of a statistic of each sub-window's samples, skipping empty sub-windows.
pub fn quiet_quartile_of(windows: &[Vec<f64>], statistic: impl Fn(&[f64]) -> f64) -> f64 {
    let values: Vec<f64> = windows
        .iter()
        .filter(|samples| !samples.is_empty())
        .map(|samples| {
            let mut sorted = samples.clone();
            sort(&mut sorted);
            statistic(&sorted)
        })
        .collect();
    quiet_quartile(&values)
}

/// The highest percentile that still has ten samples beyond it, with its value.
pub fn top_percentile(sorted: &[f64]) -> (f64, f64) {
    if sorted.len() <= 10 {
        return (100.0, sorted.last().copied().unwrap_or(0.0));
    }
    let rank = sorted.len() - 11;
    (100.0 * rank as f64 / (sorted.len() - 1) as f64, sorted[rank])
}

/// First quartile, median and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method), which is what the driver computes.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let n = sorted.len();
    if n < 2 {
        let only = sorted.first().copied().unwrap_or(0.0);
        return [only; 3];
    }
    [1, 2, 3].map(|i| {
        let position = i * (n + 1);
        let j = (position / 4).clamp(1, n - 1);
        let delta = position as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reads_the_rounded_rank() {
        let sorted: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 90.0), 90.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn disturbed_sub_windows_do_not_move_the_quiet_quartile() {
        let mut windows: Vec<Vec<f64>> = (0..10).map(|_| vec![1.0, 2.0, 3.0]).collect();
        let quiet = quiet_quartile_of(&windows, |s| percentile(s, 50.0));
        assert_eq!(quiet, 2.0);
        // Slowed down, one sub-window or six of the ten leave the value where it was.
        windows[4] = vec![100.0, 200.0, 300.0];
        assert_eq!(quiet_quartile_of(&windows, |s| percentile(s, 50.0)), quiet);
        for window in &mut windows[..6] {
            *window = vec![100.0, 200.0, 300.0];
        }
        assert_eq!(quiet_quartile_of(&windows, |s| percentile(s, 50.0)), quiet);
        // Empty sub-windows are skipped, not counted as zero.
        windows[7].clear();
        assert_eq!(quiet_quartile_of(&windows, |s| percentile(s, 50.0)), quiet);
        assert_eq!(quiet_quartile(&[4.0, 1.0, 3.0, 2.0, 5.0]), 2.0);
    }

    #[test]
    fn top_percentile_keeps_ten_samples_beyond_it() {
        let sorted: Vec<f64> = (0..1001).map(f64::from).collect();
        let (q, value) = top_percentile(&sorted);
        assert_eq!(value, 990.0);
        assert!((q - 99.0).abs() < 1e-9);
        assert_eq!(top_percentile(&[1.0, 2.0]), (100.0, 2.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }
}
