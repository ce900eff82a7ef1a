//! The grayscale (1-qubit) IQFT-inspired segmenter.
//!
//! A pixel of normalised intensity `I` is encoded as the single-qubit state
//! `(|0⟩ + e^{iIθ}|1⟩)/√2` (the paper's eq. 12); applying the 1-qubit IQFT
//! (which is just a Hadamard) gives class probabilities
//!
//! ```text
//! p(class1) = ((1 + cos Iθ)² + sin² Iθ) / 4
//! p(class2) = ((1 − cos Iθ)² + sin² Iθ) / 4
//! ```
//!
//! (eq. 14).  The boundary `p(class1) = p(class2)` falls exactly where
//! `cos Iθ = 0`, so a choice of θ is a choice of threshold(s) — see
//! [`crate::theta`].  For θ > 3π/2 several thresholds fall inside `[0, 1]`
//! and the method separates *bands* of intensity with a single parameter
//! (the paper's Fig. 4 "balls" example, eq. 16).

use crate::theta::thresholds_for_theta;
use imaging::{color, GrayImage, LabelMap, Luma, PixelClassifier, Rgb, RgbImage, Segmenter};
use seg_engine::SegmentEngine;
use xpar::Backend;

/// The 1-qubit grayscale segmenter (labels 0 = class 1, 1 = class 2).
#[derive(Debug, Clone)]
pub struct IqftGraySegmenter {
    theta: f64,
    backend: Backend,
}

impl IqftGraySegmenter {
    /// Creates a grayscale segmenter with angle `theta`.
    pub fn new(theta: f64) -> Self {
        Self {
            theta,
            backend: Backend::default(),
        }
    }

    /// The paper's Table III configuration (θ = π, threshold 0.5).
    pub fn paper_default() -> Self {
        Self::new(std::f64::consts::PI)
    }

    /// Selects the execution backend for whole-image segmentation.
    pub(crate) fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Routes whole-image segmentation through `engine`.
    pub fn with_engine(self, engine: SegmentEngine) -> Self {
        self.with_backend(engine.backend())
    }

    /// The engine this segmenter executes whole-image calls on.
    pub(crate) fn engine(&self) -> SegmentEngine {
        SegmentEngine::new(self.backend)
    }

    /// The intensity thresholds implied by θ (eq. 15).
    pub fn thresholds(&self) -> Vec<f64> {
        thresholds_for_theta(self.theta)
    }

    /// Class probabilities `(p(class1), p(class2))` for a normalised
    /// intensity `I` (eq. 14).
    pub fn probabilities(&self, intensity: f64) -> (f64, f64) {
        let phase = intensity * self.theta;
        let (sin, cos) = phase.sin_cos();
        let p1 = ((1.0 + cos).powi(2) + sin * sin) / 4.0;
        let p2 = ((1.0 - cos).powi(2) + sin * sin) / 4.0;
        (p1, p2)
    }

    /// Classifies a normalised intensity: 0 for class 1, 1 for class 2.
    /// The boundary (`cos Iθ = 0`) is assigned to class 1, matching the
    /// arg-max-with-lowest-index rule used everywhere else.
    pub fn classify_intensity(&self, intensity: f64) -> u32 {
        let (p1, p2) = self.probabilities(intensity);
        u32::from(p2 > p1)
    }

    /// Classifies an 8-bit intensity.
    pub(crate) fn classify(&self, value: u8) -> u32 {
        self.classify_intensity(value as f64 / 255.0)
    }
}

impl PixelClassifier for IqftGraySegmenter {
    fn classify_rgb_pixel(&self, pixel: Rgb<u8>) -> u32 {
        self.classify(color::luma_u8_of(pixel))
    }

    fn classify_gray_pixel(&self, pixel: Luma<u8>) -> u32 {
        self.classify(pixel.value())
    }
}

impl Segmenter for IqftGraySegmenter {
    fn name(&self) -> &str {
        "IQFT (grayscale)"
    }

    fn segment_rgb(&self, img: &RgbImage) -> LabelMap {
        // The paper prepares grayscale inputs with the eq. 17 weighted sum;
        // the engine applies the same conversion pixel-by-pixel.
        self.engine().segment_rgb(self, img)
    }

    fn segment_gray(&self, img: &GrayImage) -> LabelMap {
        self.engine().segment_gray(self, img)
    }
}

/// Classical threshold segmentation with an explicit set of thresholds:
/// a pixel's label is the number of thresholds below its intensity.  The
/// tests use it to show the IQFT grayscale segmenter is equivalent to
/// thresholding at the eq. 15 boundaries (modulo the 2-class folding of the
/// quantum method).
#[cfg(test)]
pub(crate) fn threshold_segment(img: &GrayImage, thresholds: &[f64]) -> LabelMap {
    img.map(|p| {
        let intensity = p.value() as f64 / 255.0;
        thresholds.iter().filter(|&&t| intensity > t).count() as u32
    })
}

/// Binary threshold segmentation: label 1 where the normalised intensity
/// exceeds `threshold` (exclusive), 0 otherwise.
#[cfg(test)]
pub(crate) fn binary_threshold_segment(img: &GrayImage, threshold: f64) -> LabelMap {
    img.map(|p| u32::from(p.value() as f64 / 255.0 > threshold))
}

/// Renders a 2-class label map back to a grayscale image (class 1 → black,
/// class 2 → white), matching how the paper displays grayscale outputs.
pub fn labels_to_gray(labels: &LabelMap) -> GrayImage {
    labels.map(|l| Luma(if l == 0 { 0 } else { 255 }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn probabilities_sum_to_one_and_match_eq14() {
        let seg = IqftGraySegmenter::new(1.7 * PI);
        for i in 0..=100 {
            let intensity = i as f64 / 100.0;
            let (p1, p2) = seg.probabilities(intensity);
            assert_close(p1 + p2, 1.0, 1e-12);
            // eq. 14 simplifies to p1 = (1 + cos Iθ)/2.
            assert_close(p1, (1.0 + (intensity * seg.theta).cos()) / 2.0, 1e-12);
        }
    }

    #[test]
    fn theta_pi_thresholds_at_one_half() {
        let seg = IqftGraySegmenter::paper_default();
        assert_eq!(seg.classify_intensity(0.2), 0);
        assert_eq!(seg.classify_intensity(0.49), 0);
        assert_eq!(seg.classify_intensity(0.51), 1);
        assert_eq!(seg.classify_intensity(0.9), 1);
        assert_eq!(seg.thresholds(), vec![0.5]);
        // 8-bit path: 127/255 < 0.5 < 128/255.
        assert_eq!(seg.classify(127), 0);
        assert_eq!(seg.classify(129), 1);
    }

    #[test]
    fn multi_threshold_band_structure_for_4pi() {
        // θ = 4π: thresholds at 1/8, 3/8, 5/8, 7/8 (eq. 16).  Intensities in
        // the alternating bands flip class.
        let seg = IqftGraySegmenter::new(4.0 * PI);
        assert_eq!(seg.classify_intensity(0.05), 0);
        assert_eq!(seg.classify_intensity(0.25), 1);
        assert_eq!(seg.classify_intensity(0.50), 0);
        assert_eq!(seg.classify_intensity(0.75), 1);
        assert_eq!(seg.classify_intensity(0.95), 0);
        assert_eq!(seg.thresholds().len(), 4);
    }

    #[test]
    fn segment_gray_separates_bright_and_dark() {
        let img = GrayImage::from_fn(10, 2, |x, _| Luma(if x < 5 { 40 } else { 220 }));
        let labels = IqftGraySegmenter::paper_default().segment_gray(&img);
        assert_eq!(labels.get(0, 0), 0);
        assert_eq!(labels.get(9, 1), 1);
        assert_eq!(imaging::labels::distinct_labels(&labels), 2);
    }

    #[test]
    fn rgb_path_goes_through_eq17_luma() {
        let seg = IqftGraySegmenter::paper_default();
        let img = RgbImage::from_fn(2, 1, |x, _| {
            if x == 0 {
                imaging::Rgb::new(0, 30, 0)
            } else {
                imaging::Rgb::new(0, 250, 0)
            }
        });
        let labels = seg.segment_rgb(&img);
        // Luma of (0,30,0) ≈ 0.084 < 0.5; luma of (0,250,0) ≈ 0.70 > 0.5.
        assert_eq!(labels.get(0, 0), 0);
        assert_eq!(labels.get(1, 0), 1);
    }

    #[test]
    fn iqft_matches_explicit_thresholding_for_single_threshold() {
        // With a single threshold the 2-class IQFT output and classical
        // binary thresholding are identical (Fig. 7's claim).
        let img = GrayImage::from_fn(64, 2, |x, _| Luma((x * 4) as u8));
        for theta in [0.6 * PI, PI, 1.3 * PI] {
            let seg = IqftGraySegmenter::new(theta);
            let thresholds = seg.thresholds();
            assert_eq!(thresholds.len(), 1, "theta={theta}");
            let iqft = seg.segment_gray(&img);
            let classical = binary_threshold_segment(&img, thresholds[0]);
            assert_eq!(iqft, classical, "theta={theta}");
        }
    }

    #[test]
    fn iqft_folds_multi_threshold_bands_mod_two() {
        // With several thresholds the IQFT labels equal the band index mod 2.
        let img = GrayImage::from_fn(128, 1, |x, _| Luma((x * 2) as u8));
        let theta = 4.0 * PI;
        let seg = IqftGraySegmenter::new(theta);
        let bands = threshold_segment(&img, &seg.thresholds());
        let iqft = seg.segment_gray(&img);
        for (band, label) in bands.pixels().zip(iqft.pixels()) {
            assert_eq!(band % 2, *label, "band {band}");
        }
    }

    #[test]
    fn backend_independence() {
        let img = GrayImage::from_fn(37, 11, |x, y| Luma(((x * y * 7) % 256) as u8));
        let seg = IqftGraySegmenter::new(1.5 * PI);
        let serial = seg.clone().with_backend(Backend::Serial).segment_gray(&img);
        let parallel = seg.with_backend(Backend::Threads(4)).segment_gray(&img);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn labels_to_gray_renders_binary_mask() {
        let labels = LabelMap::from_fn(3, 1, |x, _| (x % 2) as u32);
        let gray = labels_to_gray(&labels);
        assert_eq!(gray.get(0, 0).value(), 0);
        assert_eq!(gray.get(1, 0).value(), 255);
        assert_eq!(gray.get(2, 0).value(), 0);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(
            IqftGraySegmenter::paper_default().name(),
            "IQFT (grayscale)"
        );
        assert_eq!(IqftGraySegmenter::paper_default().theta, PI);
    }
}
