//! Percentiles over recorded samples.

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of all samples at or below it.  `sorted` must be ascending and non-empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest rank) of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples.to_vec()).p50
}

/// A latency distribution as the report prints it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(mut samples: Vec<f64>) -> Summary {
        samples.sort_by(f64::total_cmp);
        Summary {
            count: samples.len(),
            p50: percentile(&samples, 50.0),
            p90: percentile(&samples, 90.0),
            p99: percentile(&samples, 99.0),
            max: *samples.last().expect("percentile checked non-empty"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_one_to_a_hundred() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), 50.0);
        assert_eq!(percentile(&samples, 90.0), 90.0);
        assert_eq!(percentile(&samples, 99.0), 99.0);
        assert_eq!(percentile(&samples, 100.0), 100.0);
        assert_eq!(percentile(&samples, 0.0), 1.0);
    }

    #[test]
    fn small_and_unsorted_inputs() {
        assert_eq!(percentile(&[4.0], 90.0), 4.0);
        // Five samples: p50 is the third, p90 and p99 the fifth.
        let summary = Summary::of(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(
            summary,
            Summary {
                count: 5,
                p50: 3.0,
                p90: 5.0,
                p99: 5.0,
                max: 5.0
            }
        );
        // Ten samples: p90 is the ninth, not an interpolation.
        let ten: Vec<f64> = (1..=10).rev().map(|v| f64::from(v) * 1.5).collect();
        let summary = Summary::of(ten);
        assert_eq!((summary.p50, summary.p90, summary.p99), (7.5, 13.5, 15.0));
        assert_eq!(median(&[0.2, 0.1, 0.3, 0.4]), 0.2);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_input_is_a_bug() {
        percentile(&[], 50.0);
    }
}
