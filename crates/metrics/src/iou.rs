//! Intersection-over-union metrics (the paper's eqs. 18–19).

use crate::confusion::BinaryConfusion;
use imaging::LabelMap;

/// Per-class breakdown of the foreground/background mIOU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MiouBreakdown {
    /// IOU of the foreground class.
    pub foreground: f64,
    /// IOU of the background class.
    pub background: f64,
    /// Mean of the two (eq. 18).
    pub miou: f64,
    /// Pixel accuracy over non-void pixels.
    pub accuracy: f64,
}

/// The paper's eq. 18: the mean of the foreground IOU and the background IOU,
/// with ground-truth void pixels excluded.  Also returns the per-class values
/// and pixel accuracy.
pub fn miou_fg_bg(prediction: &LabelMap, ground_truth: &LabelMap) -> MiouBreakdown {
    let c = BinaryConfusion::from_maps(prediction, ground_truth);
    let foreground = c.iou_foreground();
    let background = c.iou_background();
    MiouBreakdown {
        foreground,
        background,
        miou: (foreground + background) / 2.0,
        accuracy: c.accuracy(),
    }
}

/// Convenience scalar form of [`miou_fg_bg`].
pub fn mean_iou(prediction: &LabelMap, ground_truth: &LabelMap) -> f64 {
    miou_fg_bg(prediction, ground_truth).miou
}

#[cfg(test)]
mod tests {
    use super::*;
    use imaging::VOID_LABEL;

    fn map_from(values: &[u32], width: usize) -> LabelMap {
        LabelMap::from_vec(width, values.len() / width, values.to_vec()).unwrap()
    }

    #[test]
    fn perfect_prediction_scores_one() {
        let gt = map_from(&[0, 1, 1, 0, 0, 1], 3);
        let b = miou_fg_bg(&gt, &gt);
        assert_eq!(b.miou, 1.0);
        assert_eq!(b.foreground, 1.0);
        assert_eq!(b.background, 1.0);
        assert_eq!(b.accuracy, 1.0);
        assert_eq!(mean_iou(&gt, &gt), 1.0);
    }

    #[test]
    fn inverted_prediction_scores_zero() {
        let gt = map_from(&[0, 0, 1, 1], 2);
        let pred = map_from(&[1, 1, 0, 0], 2);
        let b = miou_fg_bg(&pred, &gt);
        assert_eq!(b.miou, 0.0);
        assert_eq!(b.accuracy, 0.0);
    }

    #[test]
    fn half_overlap_example_matches_hand_computation() {
        // gt foreground = left half (4 px of 8), prediction covers the top
        // row (2 correct fg, 2 fp; misses 2 fg).
        let gt = map_from(&[1, 1, 0, 0, 1, 1, 0, 0], 4);
        let pred = map_from(&[1, 1, 1, 1, 0, 0, 0, 0], 4);
        // TP=2, FP=2, FN=2, TN=2 → IOU_fg = 2/6, IOU_bg = 2/6, mIOU = 1/3.
        let b = miou_fg_bg(&pred, &gt);
        assert!((b.foreground - 1.0 / 3.0).abs() < 1e-12);
        assert!((b.background - 1.0 / 3.0).abs() < 1e-12);
        assert!((b.miou - 1.0 / 3.0).abs() < 1e-12);
        assert!((b.accuracy - 0.5).abs() < 1e-12);
    }

    #[test]
    fn miou_is_symmetric_in_prediction_and_truth_for_binary_maps() {
        let a = map_from(&[1, 0, 1, 0, 1, 1], 3);
        let b = map_from(&[1, 1, 0, 0, 1, 0], 3);
        assert!((mean_iou(&a, &b) - mean_iou(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn void_pixels_do_not_affect_the_score() {
        let gt = map_from(&[1, 1, 0, 0], 2);
        let pred = map_from(&[1, 1, 0, 0], 2);
        let mut gt_with_void = gt.clone();
        gt_with_void.set(0, 1, VOID_LABEL);
        let mut wrong_under_void = pred.clone();
        wrong_under_void.set(0, 1, 1); // wrong, but under a void pixel
        assert_eq!(mean_iou(&wrong_under_void, &gt_with_void), 1.0);
        // Without the void mask the same prediction is penalised.
        assert!(mean_iou(&wrong_under_void, &gt) < 1.0);
    }

    #[test]
    fn label_swap_gives_complementary_quality() {
        // An unsupervised segmenter may emit the "right" partition with the
        // labels swapped; mIOU then collapses, which is why the foreground
        // reduction step matters.  Verify both directions behave as expected.
        let gt = map_from(&[0, 0, 0, 1, 1, 1], 3);
        let swapped = map_from(&[1, 1, 1, 0, 0, 0], 3);
        assert_eq!(mean_iou(&swapped, &gt), 0.0);
        assert_eq!(mean_iou(&gt, &gt), 1.0);
    }

    #[test]
    fn all_background_prediction_on_mixed_truth() {
        let gt = map_from(&[1, 0, 0, 0], 2);
        let pred = map_from(&[0, 0, 0, 0], 2);
        let b = miou_fg_bg(&pred, &gt);
        assert_eq!(b.foreground, 0.0);
        assert!((b.background - 0.75).abs() < 1e-12);
        assert!((b.miou - 0.375).abs() < 1e-12);
    }
}
