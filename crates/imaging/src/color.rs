//! Colour conversions.
//!
//! The paper converts RGB images to grayscale with the scikit-image weighted
//! sum (its eq. 17): `Y = 0.2125 R + 0.7154 G + 0.0721 B`.  The same weights
//! are used here so the grayscale variant of the algorithm sees the same
//! intensities the authors' pipeline produced.

use crate::pixel::{Luma, Rgb};
use crate::{GrayImage, RgbImage};

/// Red luma weight from eq. 17 (scikit-image's ITU-R 709 coefficients).
pub(crate) const LUMA_R: f64 = 0.2125;
/// Green luma weight from eq. 17.
pub(crate) const LUMA_G: f64 = 0.7154;
/// Blue luma weight from eq. 17.
pub(crate) const LUMA_B: f64 = 0.0721;

/// Converts one 8-bit RGB pixel to a normalised luma intensity in `[0, 1]`
/// using the paper's eq. 17 weights.
#[inline]
pub fn luma_of(p: Rgb<u8>) -> f64 {
    (LUMA_R * p.r() as f64 + LUMA_G * p.g() as f64 + LUMA_B * p.b() as f64) / 255.0
}

/// Converts one 8-bit RGB pixel to the 8-bit luma value
/// [`rgb_to_gray_u8`] produces for it (eq. 17, scaled to 0–255 and rounded).
///
/// Every per-pixel grayscale path in the workspace goes through this helper
/// so the whole-image conversion and the chunk-parallel classifiers cannot
/// drift apart.
#[inline]
pub fn luma_u8_of(p: Rgb<u8>) -> u8 {
    (luma_of(p) * 255.0).round().clamp(0.0, 255.0) as u8
}

/// Converts an RGB image to an 8-bit grayscale image (eq. 17, then scaled to
/// 0–255 and rounded).
pub fn rgb_to_gray_u8(img: &RgbImage) -> GrayImage {
    img.map(|p| Luma(luma_u8_of(p)))
}

/// Expands a grayscale image to RGB by replicating the intensity into every
/// channel (used when a grayscale algorithm output is rendered for a figure).
pub fn gray_to_rgb(img: &GrayImage) -> RgbImage {
    img.map(|p| Rgb::new(p.value(), p.value(), p.value()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn luma_weights_sum_to_one() {
        assert!((LUMA_R + LUMA_G + LUMA_B - 1.0).abs() < 1e-12);
    }

    #[test]
    fn luma_of_extremes() {
        assert_eq!(luma_of(Rgb::new(0, 0, 0)), 0.0);
        assert!((luma_of(Rgb::new(255, 255, 255)) - 1.0).abs() < 1e-12);
        // Pure green carries the largest weight.
        let g = luma_of(Rgb::new(0, 255, 0));
        let r = luma_of(Rgb::new(255, 0, 0));
        let b = luma_of(Rgb::new(0, 0, 255));
        assert!(g > r && r > b);
        assert!((g - LUMA_G).abs() < 1e-12);
    }

    #[test]
    fn rgb_to_gray_matches_manual_computation() {
        let img = RgbImage::from_fn(2, 1, |x, _| {
            if x == 0 {
                Rgb::new(100, 150, 200)
            } else {
                Rgb::new(10, 20, 30)
            }
        });
        let expected0 = (0.2125 * 100.0 + 0.7154 * 150.0 + 0.0721 * 200.0) / 255.0;
        assert!((luma_of(img.get(0, 0)) - expected0).abs() < 1e-12);
        let gray8 = rgb_to_gray_u8(&img);
        assert_eq!(gray8.get(0, 0).value(), (expected0 * 255.0).round() as u8);
    }

    #[test]
    fn gray_to_rgb_replicates_channels() {
        let img = GrayImage::from_fn(2, 1, |x, _| Luma(if x == 0 { 10 } else { 200 }));
        let rgb = gray_to_rgb(&img);
        assert_eq!(rgb.get(0, 0), Rgb::new(10, 10, 10));
        assert_eq!(rgb.get(1, 0), Rgb::new(200, 200, 200));
    }
}
