//! Segment-count analysis (the paper's Table II experiment).
//!
//! The paper probes how the angle parameters bound the number of reachable
//! segments by classifying 100,000 random normalised RGB triples for each θ
//! configuration and counting the distinct labels that appear.

use crate::rgb::{IqftRgbSegmenter, NUM_STATES};
use crate::theta::ThetaParams;
use imaging::{labels, LabelMap};

/// Classifies `samples` uniformly random normalised RGB triples with the
/// given angle configuration and returns the set of labels that occurred
/// (as a fixed-size occupancy mask) plus the count of distinct labels.
///
/// This is the Table II measurement; `seed` makes it reproducible.
pub(crate) fn segment_occupancy_for_theta(
    thetas: ThetaParams,
    samples: usize,
    seed: u64,
) -> ([bool; NUM_STATES], usize) {
    // A tiny xorshift generator keeps this crate free of a rand dependency;
    // the quality requirements here are minimal (uniform-ish coverage of the
    // unit cube).
    let mut state = seed | 1;
    let mut next_unit = move || {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let v = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
        (v >> 11) as f64 / (1u64 << 53) as f64
    };
    let seg = IqftRgbSegmenter::new(thetas);
    let mut occupied = [false; NUM_STATES];
    for _ in 0..samples {
        let r = next_unit();
        let g = next_unit();
        let b = next_unit();
        let label = seg.classify_normalized(r, g, b) as usize;
        occupied[label] = true;
    }
    let count = occupied.iter().filter(|&&o| o).count();
    (occupied, count)
}

/// The maximum number of segments reachable with angle configuration
/// `thetas`, estimated from `samples` random inputs (the paper's Table II).
pub fn max_segments_for_theta(thetas: ThetaParams, samples: usize, seed: u64) -> usize {
    segment_occupancy_for_theta(thetas, samples, seed).1
}

/// Number of distinct segments present in a segmentation output.
pub fn count_segments(segmentation: &LabelMap) -> usize {
    labels::distinct_labels(segmentation)
}

/// One row of the paper's Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentCountRow {
    /// Human-readable θ description.
    pub label: String,
    /// The angle configuration.
    pub thetas: ThetaParams,
    /// Measured maximum number of segments.
    pub max_segments: usize,
}

/// Regenerates the paper's Table II: the θ sweep
/// `π/4, π/2, 3π/4, π, 5π/4, 3π/2, 7π/4, 2π` plus the mixed configuration.
pub fn table2_rows(samples: usize, seed: u64) -> Vec<SegmentCountRow> {
    use std::f64::consts::PI;
    let uniform: [(f64, &str); 8] = [
        (PI / 4.0, "π/4"),
        (PI / 2.0, "π/2"),
        (3.0 * PI / 4.0, "3π/4"),
        (PI, "π"),
        (5.0 * PI / 4.0, "5π/4"),
        (3.0 * PI / 2.0, "3π/2"),
        (7.0 * PI / 4.0, "7π/4"),
        (2.0 * PI, "2π"),
    ];
    let mut rows: Vec<SegmentCountRow> = uniform
        .into_iter()
        .map(|(theta, label)| {
            let thetas = ThetaParams::uniform(theta);
            SegmentCountRow {
                label: format!("θ1=θ2=θ3={label}"),
                thetas,
                max_segments: max_segments_for_theta(thetas, samples, seed),
            }
        })
        .collect();
    let mixed = ThetaParams::mixed();
    rows.push(SegmentCountRow {
        label: "θ1=π/4, θ2=π/2, θ3=π".to_string(),
        thetas: mixed,
        max_segments: max_segments_for_theta(mixed, samples, seed),
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    const SAMPLES: usize = 20_000;

    #[test]
    fn quarter_pi_reaches_a_single_segment() {
        assert_eq!(
            max_segments_for_theta(ThetaParams::uniform(PI / 4.0), SAMPLES, 1),
            1
        );
    }

    #[test]
    fn segment_count_is_monotone_in_theta() {
        // Larger angles open up more of the unit circle, so the reachable
        // label count can only grow (Table II's qualitative trend).
        let mut prev = 0usize;
        for i in 1..=8 {
            let theta = i as f64 * PI / 4.0;
            let count = max_segments_for_theta(ThetaParams::uniform(theta), SAMPLES, 7);
            assert!(
                count >= prev,
                "θ={theta}: count {count} dropped below {prev}"
            );
            prev = count;
        }
        assert!(prev <= NUM_STATES);
    }

    #[test]
    fn two_pi_saturates_all_eight_segments() {
        // Table II: θ = 5π/4 and above reach all 8 segments.
        assert_eq!(
            max_segments_for_theta(ThetaParams::uniform(2.0 * PI), SAMPLES, 3),
            8
        );
        assert_eq!(
            max_segments_for_theta(ThetaParams::uniform(3.0 * PI / 2.0), SAMPLES, 3),
            8
        );
    }

    #[test]
    fn mixed_configuration_reaches_exactly_two_segments() {
        // Table II's final row: θ1=π/4, θ2=π/2, θ3=π → 2 segments (constant).
        assert_eq!(max_segments_for_theta(ThetaParams::mixed(), SAMPLES, 11), 2);
    }

    #[test]
    fn occupancy_mask_matches_count_and_is_seed_deterministic() {
        let thetas = ThetaParams::uniform(PI);
        let (mask, count) = segment_occupancy_for_theta(thetas, SAMPLES, 42);
        assert_eq!(mask.iter().filter(|&&o| o).count(), count);
        let (mask2, count2) = segment_occupancy_for_theta(thetas, SAMPLES, 42);
        assert_eq!(mask, mask2);
        assert_eq!(count, count2);
        // Label 0 (dark colours) is always reachable.
        assert!(mask[0]);
    }

    #[test]
    fn count_segments_counts_distinct_labels() {
        let m = LabelMap::from_fn(4, 1, |x, _| (x % 3) as u32);
        assert_eq!(count_segments(&m), 3);
    }

    #[test]
    fn table2_rows_cover_all_configurations() {
        let rows = table2_rows(5_000, 5);
        assert_eq!(rows.len(), 9);
        assert_eq!(rows[0].max_segments, 1);
        assert!(rows[7].max_segments >= 7);
        assert_eq!(rows[8].max_segments, 2);
        assert!(rows.iter().all(|r| r.max_segments <= NUM_STATES));
    }
}
