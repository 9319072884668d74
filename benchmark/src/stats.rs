//! Sample statistics the harness reports: nearest-rank percentiles per
//! round and the fast-side quartile over rounds.

use crate::spec::Better;

/// Nearest-rank percentile of a sample (in any order): the value at
/// 1-based rank `ceil(p × n)` of the sorted sample. With 20 samples p95 is
/// the 19th, not the maximum — the reason no p99 is reported from
/// 200-sample rounds.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The quartile of per-round values on the fast side: the lower
/// quartile of a metric that is better lower, the upper quartile of one
/// that is better higher (nearest rank). A neighbour on the shared host
/// only ever slows a round down, and the program itself moves every
/// round; so this is what the program does in the quieter part of the
/// run, and it holds still until three quarters of the rounds are
/// disturbed — a median over rounds flips at half.
pub fn fast_quartile(per_round: &[f64], better: Better) -> f64 {
    match better {
        Better::Lower => percentile(per_round, 0.25),
        Better::Higher => -percentile(&per_round.iter().map(|v| -v).collect::<Vec<_>>(), 0.25),
    }
}

/// Relative gap `|a − b| ÷ max(|a|, |b|)`, 0 when both are 0.
pub fn relative_gap(a: f64, b: f64) -> f64 {
    let base = a.abs().max(b.abs());
    if base == 0.0 {
        0.0
    } else {
        (a - b).abs() / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_of_20_samples_is_not_the_max() {
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.95), 19.0);
        assert_eq!(percentile(&s, 0.50), 10.0);
        assert_eq!(percentile(&s, 1.0), 20.0);
    }

    #[test]
    fn percentile_of_200_leaves_ten_beyond() {
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.95), 190.0);
    }

    #[test]
    fn percentile_handles_tiny_samples() {
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(percentile(&[2.0, 1.0], 0.0), 1.0);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn fast_quartile_holds_while_most_rounds_are_disturbed() {
        // Eight rounds, five of them slowed by a noisy neighbour: the
        // median over rounds reads the disturbed level, the fast-side
        // quartile the quiet one.
        let p50 = [10.0, 15.2, 10.2, 15.0, 15.1, 10.1, 15.3, 15.4];
        assert!(median(&p50) > 15.0);
        assert_eq!(fast_quartile(&p50, Better::Lower), 10.1);
        let rows_per_s = p50.map(|ms| 1000.0 / ms);
        assert_eq!(fast_quartile(&rows_per_s, Better::Higher), 1000.0 / 10.1);
    }

    #[test]
    fn fast_quartile_of_few_rounds() {
        assert_eq!(fast_quartile(&[7.0], Better::Lower), 7.0);
        assert_eq!(fast_quartile(&[3.0, 1.0, 2.0, 4.0], Better::Lower), 1.0);
        assert_eq!(fast_quartile(&[3.0, 1.0, 2.0, 4.0], Better::Higher), 4.0);
    }

    #[test]
    fn relative_gap_is_symmetric() {
        assert_eq!(relative_gap(0.0, 0.0), 0.0);
        assert!((relative_gap(90.0, 100.0) - 0.1).abs() < 1e-12);
        assert_eq!(relative_gap(90.0, 100.0), relative_gap(100.0, 90.0));
    }
}
