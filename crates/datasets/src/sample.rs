//! The labelled-image sample type shared by all dataset sources.

use imaging::{LabelMap, RgbImage};

/// One dataset sample: an RGB image plus its binary ground-truth mask
/// (1 = foreground, 0 = background, [`imaging::VOID_LABEL`] = ignored).
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledImage {
    /// A stable identifier (index or file stem).
    pub id: String,
    /// The RGB image.
    pub image: RgbImage,
    /// The ground-truth mask.
    pub ground_truth: LabelMap,
}

impl LabeledImage {
    /// Creates a sample, checking that image and mask dimensions agree.
    pub(crate) fn new(id: impl Into<String>, image: RgbImage, ground_truth: LabelMap) -> Self {
        image
            .check_same_shape(&ground_truth)
            .expect("image and ground truth must share dimensions");
        Self {
            id: id.into(),
            image,
            ground_truth,
        }
    }

    /// Fraction of non-void pixels labelled foreground.
    #[cfg(test)]
    pub(crate) fn foreground_fraction(&self) -> f64 {
        let mut fg = 0usize;
        let mut valid = 0usize;
        for &l in self.ground_truth.pixels() {
            if l == imaging::VOID_LABEL {
                continue;
            }
            valid += 1;
            if l != 0 {
                fg += 1;
            }
        }
        if valid == 0 {
            0.0
        } else {
            fg as f64 / valid as f64
        }
    }

    /// Fraction of pixels marked void.
    #[cfg(test)]
    pub(crate) fn void_fraction(&self) -> f64 {
        if self.ground_truth.is_empty() {
            return 0.0;
        }
        let void = self
            .ground_truth
            .pixels()
            .filter(|&&l| l == imaging::VOID_LABEL)
            .count();
        void as f64 / self.ground_truth.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imaging::{Rgb, VOID_LABEL};

    #[test]
    fn fractions_are_computed_over_non_void_pixels() {
        let image = RgbImage::new(4, 1, Rgb::BLACK);
        let gt = LabelMap::from_vec(4, 1, vec![1, 0, VOID_LABEL, 1]).unwrap();
        let sample = LabeledImage::new("s0", image, gt);
        assert_eq!(sample.image.dimensions(), (4, 1));
        assert!((sample.foreground_fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert!((sample.void_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn all_void_mask_has_zero_foreground() {
        let image = RgbImage::new(2, 2, Rgb::BLACK);
        let gt = LabelMap::new(2, 2, VOID_LABEL);
        let sample = LabeledImage::new("v", image, gt);
        assert_eq!(sample.foreground_fraction(), 0.0);
        assert_eq!(sample.void_fraction(), 1.0);
    }

    #[test]
    #[should_panic(expected = "share dimensions")]
    fn mismatched_shapes_panic() {
        let _ = LabeledImage::new(
            "bad",
            RgbImage::new(2, 2, Rgb::BLACK),
            LabelMap::new(3, 2, 0),
        );
    }
}
