//! Binary confusion matrices over label maps.

use imaging::{LabelMap, VOID_LABEL};

/// Confusion counts for a binary (foreground = 1 / background = 0) problem.
///
/// Void pixels in the ground truth are excluded, matching the PASCAL VOC
/// evaluation protocol the paper follows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct BinaryConfusion {
    /// Prediction 1, truth 1.
    pub tp: u64,
    /// Prediction 1, truth 0.
    pub fp: u64,
    /// Prediction 0, truth 1.
    pub fn_: u64,
    /// Prediction 0, truth 0.
    pub tn: u64,
    /// Ground-truth void pixels that were skipped.
    pub void: u64,
}

impl BinaryConfusion {
    /// Builds the confusion matrix of `prediction` against `ground_truth`.
    ///
    /// Any non-zero, non-void label counts as foreground in either map, so
    /// multi-label inputs are implicitly binarised (callers normally binarise
    /// explicitly first via `iqft_seg::foreground`).
    ///
    /// # Panics
    ///
    /// Panics if the two maps have different dimensions.
    pub(crate) fn from_maps(prediction: &LabelMap, ground_truth: &LabelMap) -> Self {
        prediction
            .check_same_shape(ground_truth)
            .expect("prediction and ground truth must share dimensions");
        let mut c = Self::default();
        for (&p, &t) in prediction
            .as_slice()
            .iter()
            .zip(ground_truth.as_slice().iter())
        {
            if t == VOID_LABEL {
                c.void += 1;
                continue;
            }
            let p_fg = p != 0 && p != VOID_LABEL;
            let t_fg = t != 0;
            match (p_fg, t_fg) {
                (true, true) => c.tp += 1,
                (true, false) => c.fp += 1,
                (false, true) => c.fn_ += 1,
                (false, false) => c.tn += 1,
            }
        }
        c
    }

    /// Total number of evaluated (non-void) pixels.
    pub(crate) fn total(&self) -> u64 {
        self.tp + self.fp + self.fn_ + self.tn
    }

    /// Intersection over union of the foreground class:
    /// `TP / (TP + FP + FN)`; defined as 1 when the foreground is absent from
    /// both maps.
    pub(crate) fn iou_foreground(&self) -> f64 {
        let denom = self.tp + self.fp + self.fn_;
        if denom == 0 {
            1.0
        } else {
            self.tp as f64 / denom as f64
        }
    }

    /// Intersection over union of the background class:
    /// `TN / (TN + FP + FN)`; defined as 1 when the background is absent from
    /// both maps.
    pub(crate) fn iou_background(&self) -> f64 {
        let denom = self.tn + self.fp + self.fn_;
        if denom == 0 {
            1.0
        } else {
            self.tn as f64 / denom as f64
        }
    }

    /// Fraction of evaluated pixels predicted correctly.
    pub(crate) fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 1.0;
        }
        (self.tp + self.tn) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map_from(values: &[u32], width: usize) -> LabelMap {
        LabelMap::from_vec(width, values.len() / width, values.to_vec()).unwrap()
    }

    #[test]
    fn perfect_prediction() {
        let gt = map_from(&[0, 0, 1, 1], 2);
        let c = BinaryConfusion::from_maps(&gt, &gt);
        assert_eq!((c.tp, c.tn, c.fp, c.fn_), (2, 2, 0, 0));
        assert_eq!(c.accuracy(), 1.0);
        assert_eq!(c.iou_foreground(), 1.0);
        assert_eq!(c.iou_background(), 1.0);
    }

    #[test]
    fn completely_wrong_prediction() {
        let gt = map_from(&[0, 0, 1, 1], 2);
        let pred = map_from(&[1, 1, 0, 0], 2);
        let c = BinaryConfusion::from_maps(&pred, &gt);
        assert_eq!((c.tp, c.tn, c.fp, c.fn_), (0, 0, 2, 2));
        assert_eq!(c.accuracy(), 0.0);
        assert_eq!(c.iou_foreground(), 0.0);
        assert_eq!(c.iou_background(), 0.0);
    }

    #[test]
    fn partial_overlap_counts() {
        // gt fg: 3 pixels; pred fg: 2 of them + 1 false positive.
        let gt = map_from(&[1, 1, 1, 0, 0, 0], 3);
        let pred = map_from(&[1, 1, 0, 1, 0, 0], 3);
        let c = BinaryConfusion::from_maps(&pred, &gt);
        assert_eq!((c.tp, c.fp, c.fn_, c.tn), (2, 1, 1, 2));
        assert!((c.iou_foreground() - 0.5).abs() < 1e-12);
        assert!((c.accuracy() - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn void_pixels_are_excluded() {
        let gt = map_from(&[VOID_LABEL, 1, 0, VOID_LABEL], 2);
        let pred = map_from(&[0, 1, 0, 1], 2);
        let c = BinaryConfusion::from_maps(&pred, &gt);
        assert_eq!(c.void, 2);
        assert_eq!(c.total(), 2);
        assert_eq!(c.accuracy(), 1.0);
    }

    #[test]
    fn multi_label_prediction_is_binarised() {
        let gt = map_from(&[0, 1, 1, 0], 2);
        let pred = map_from(&[0, 5, 7, 0], 2); // any non-zero label is fg
        let c = BinaryConfusion::from_maps(&pred, &gt);
        assert_eq!(c.accuracy(), 1.0);
    }

    #[test]
    fn degenerate_classes_default_to_one() {
        let gt = map_from(&[0, 0, 0, 0], 2);
        let pred = map_from(&[0, 0, 0, 0], 2);
        let c = BinaryConfusion::from_maps(&pred, &gt);
        assert_eq!(c.iou_foreground(), 1.0);
        let all_fg = map_from(&[1, 1, 1, 1], 2);
        let c = BinaryConfusion::from_maps(&all_fg, &all_fg);
        assert_eq!(c.iou_background(), 1.0);
    }

    #[test]
    #[should_panic(expected = "share dimensions")]
    fn shape_mismatch_panics() {
        let a = LabelMap::new(2, 2, 0);
        let b = LabelMap::new(3, 2, 0);
        let _ = BinaryConfusion::from_maps(&a, &b);
    }
}
