//! Otsu's thresholding method.
//!
//! Otsu's method picks the intensity threshold that maximises the
//! between-class variance of the grayscale histogram.  The paper uses
//! scikit-image's `threshold_otsu` as its second baseline and notes (its
//! Fig. 7) that the IQFT grayscale segmenter with θ = π/(2·I_th) produces an
//! identical mask.

use imaging::hist::Histogram;
use imaging::{color, GrayImage, LabelMap, PixelClassifier, RgbImage, Segmenter};
use seg_engine::SegmentEngine;
use xpar::Backend;

/// Computes Otsu's threshold from a 256-bin histogram, returned as a
/// normalised intensity in `[0, 1]`.
///
/// The returned value is the bin centre `t/255` of the winning bin `t`;
/// pixels with intensity strictly greater than the threshold belong to the
/// bright class, matching scikit-image's `image > threshold_otsu(image)`
/// convention.
pub fn otsu_threshold(hist: &Histogram) -> f64 {
    let total = hist.total();
    if total == 0 {
        return 0.5;
    }
    let probabilities = hist.probabilities();
    let global_mean: f64 = probabilities
        .iter()
        .enumerate()
        .map(|(i, &p)| i as f64 * p)
        .sum();
    let mut best_t = 0usize;
    let mut best_variance = f64::MIN;
    let mut w0 = 0.0; // cumulative class-0 probability
    let mut mu0_acc = 0.0; // cumulative class-0 mean numerator
    for (t, &p_t) in probabilities.iter().enumerate() {
        w0 += p_t;
        mu0_acc += t as f64 * p_t;
        let w1 = 1.0 - w0;
        if w0 <= 0.0 || w1 <= 0.0 {
            continue;
        }
        let mu0 = mu0_acc / w0;
        let mu1 = (global_mean - mu0_acc) / w1;
        let variance = w0 * w1 * (mu0 - mu1) * (mu0 - mu1);
        if variance > best_variance {
            best_variance = variance;
            best_t = t;
        }
    }
    best_t as f64 / 255.0
}

/// Multi-level Otsu: exhaustively searches for `levels` thresholds that
/// maximise the between-class variance.  Supported for `levels` ∈ {1, 2, 3};
/// used to give the Otsu baseline a fair shot at the multi-band scene of the
/// paper's Fig. 4 (which needs two thresholds).
pub fn multi_otsu_thresholds(hist: &Histogram, levels: usize) -> Vec<f64> {
    assert!(
        (1..=3).contains(&levels),
        "multi_otsu_thresholds supports 1 to 3 thresholds, got {levels}"
    );
    if levels == 1 {
        return vec![otsu_threshold(hist)];
    }
    let p = hist.probabilities();
    // Prefix sums of probability and of i*p for O(1) class statistics.
    let mut cum_p = [0.0f64; 257];
    let mut cum_ip = [0.0f64; 257];
    for i in 0..256 {
        cum_p[i + 1] = cum_p[i] + p[i];
        cum_ip[i + 1] = cum_ip[i] + i as f64 * p[i];
    }
    let class_score = |lo: usize, hi: usize| -> f64 {
        // Between-class contribution w·μ² of the class covering bins [lo, hi).
        let w = cum_p[hi] - cum_p[lo];
        if w <= 0.0 {
            return 0.0;
        }
        let mu = (cum_ip[hi] - cum_ip[lo]) / w;
        w * mu * mu
    };
    let mut best = Vec::new();
    let mut best_score = f64::MIN;
    if levels == 2 {
        for t1 in 1..255 {
            for t2 in (t1 + 1)..256 {
                let score = class_score(0, t1) + class_score(t1, t2) + class_score(t2, 256);
                if score > best_score {
                    best_score = score;
                    best = vec![t1, t2];
                }
            }
        }
    } else {
        // levels == 3: coarse-to-fine would be faster, but 256³/6 candidate
        // evaluations with O(1) scoring is still fine for offline use.
        for t1 in 1..254 {
            for t2 in (t1 + 1)..255 {
                let partial = class_score(0, t1) + class_score(t1, t2);
                for t3 in (t2 + 1)..256 {
                    let score = partial + class_score(t2, t3) + class_score(t3, 256);
                    if score > best_score {
                        best_score = score;
                        best = vec![t1, t2, t3];
                    }
                }
            }
        }
    }
    best.into_iter().map(|t| (t - 1) as f64 / 255.0).collect()
}

/// Single-threshold Otsu segmenter (labels: 0 = dark class, 1 = bright
/// class).
#[derive(Debug, Clone, Default)]
pub struct OtsuSegmenter {
    backend: Backend,
}

impl OtsuSegmenter {
    /// Single-threshold Otsu (the paper's baseline configuration).
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the execution backend for the per-pixel thresholding pass
    /// (the histogram fit itself is a cheap serial scan).
    pub(crate) fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Routes the per-pixel thresholding pass through `engine`.
    pub fn with_engine(self, engine: SegmentEngine) -> Self {
        self.with_backend(engine.backend())
    }

    /// The fitted threshold(s) for a grayscale image.
    pub(crate) fn thresholds_for(&self, img: &GrayImage) -> Vec<f64> {
        let hist = Histogram::of_gray(img);
        multi_otsu_thresholds(&hist, 1)
    }
}

/// The per-pixel rule of a *fitted* Otsu model: a pixel's label is the number
/// of fitted thresholds below its normalised intensity.  This is what the
/// `SegmentEngine` parallelises after the global histogram fit.
#[derive(Debug, Clone)]
pub(crate) struct FittedThresholds {
    thresholds: Vec<f64>,
}

impl FittedThresholds {
    /// Wraps an explicit set of normalised thresholds.
    pub(crate) fn new(thresholds: Vec<f64>) -> Self {
        Self { thresholds }
    }
}

impl PixelClassifier for FittedThresholds {
    fn classify_rgb_pixel(&self, pixel: imaging::Rgb<u8>) -> u32 {
        self.classify_gray_pixel(imaging::Luma(color::luma_u8_of(pixel)))
    }

    fn classify_gray_pixel(&self, pixel: imaging::Luma<u8>) -> u32 {
        let intensity = pixel.value() as f64 / 255.0;
        self.thresholds.iter().filter(|&&t| intensity > t).count() as u32
    }
}

impl Segmenter for OtsuSegmenter {
    fn name(&self) -> &str {
        "Otsu"
    }

    fn segment_rgb(&self, img: &RgbImage) -> LabelMap {
        self.segment_gray(&color::rgb_to_gray_u8(img))
    }

    fn segment_gray(&self, img: &GrayImage) -> LabelMap {
        let fitted = FittedThresholds::new(self.thresholds_for(img));
        SegmentEngine::new(self.backend).segment_gray(&fitted, img)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imaging::Luma;

    fn bimodal_image(dark: u8, bright: u8) -> GrayImage {
        GrayImage::from_fn(32, 32, |x, y| {
            let inside = (8..24).contains(&x) && (8..24).contains(&y);
            Luma(if inside { bright } else { dark })
        })
    }

    #[test]
    fn otsu_threshold_sits_between_the_modes() {
        let img = bimodal_image(40, 210);
        let t = otsu_threshold(&Histogram::of_gray(&img));
        // For an ideal two-delta histogram the between-class variance is flat
        // between the modes; any threshold in [40, 210) is optimal and the
        // implementation (like scikit-image) reports the first optimum.
        assert!((40.0 / 255.0..210.0 / 255.0).contains(&t), "t={t}");
    }

    #[test]
    fn otsu_separates_the_object() {
        let img = bimodal_image(30, 220);
        let labels = OtsuSegmenter::new().segment_gray(&img);
        assert_eq!(labels.get(0, 0), 0);
        assert_eq!(labels.get(16, 16), 1);
        assert_eq!(imaging::labels::distinct_labels(&labels), 2);
    }

    #[test]
    fn empty_histogram_defaults_to_midpoint() {
        assert_eq!(otsu_threshold(&Histogram::new()), 0.5);
    }

    #[test]
    fn constant_image_yields_single_class() {
        let img = GrayImage::new(16, 16, Luma(100));
        let labels = OtsuSegmenter::new().segment_gray(&img);
        assert_eq!(imaging::labels::distinct_labels(&labels), 1);
    }

    #[test]
    fn threshold_is_invariant_to_image_scale() {
        let small = bimodal_image(50, 200);
        let large = GrayImage::from_fn(96, 96, |x, y| small.get(x / 3, y / 3));
        let t_small = otsu_threshold(&Histogram::of_gray(&small));
        let t_large = otsu_threshold(&Histogram::of_gray(&large));
        assert!((t_small - t_large).abs() < 1e-12);
    }

    #[test]
    fn multi_otsu_recovers_three_modes() {
        let img = GrayImage::from_fn(90, 10, |x, _| {
            Luma(match x / 30 {
                0 => 20,
                1 => 128,
                _ => 240,
            })
        });
        let t = multi_otsu_thresholds(&Histogram::of_gray(&img), 2);
        assert_eq!(t.len(), 2);
        assert!((20.0 / 255.0..128.0 / 255.0).contains(&t[0]), "t0={}", t[0]);
        assert!(
            (128.0 / 255.0..240.0 / 255.0).contains(&t[1]),
            "t1={}",
            t[1]
        );
        let labels = SegmentEngine::serial().segment_gray(&FittedThresholds::new(t), &img);
        assert_eq!(imaging::labels::distinct_labels(&labels), 3);
        assert_eq!(labels.get(0, 0), 0);
        assert_eq!(labels.get(45, 5), 1);
        assert_eq!(labels.get(80, 5), 2);
    }

    #[test]
    fn multi_otsu_single_level_matches_otsu() {
        let img = bimodal_image(60, 190);
        let hist = Histogram::of_gray(&img);
        let multi = multi_otsu_thresholds(&hist, 1);
        assert_eq!(multi, vec![otsu_threshold(&hist)]);
    }

    #[test]
    #[should_panic(expected = "1 to 3")]
    fn unsupported_level_count_is_rejected() {
        let _ = multi_otsu_thresholds(&Histogram::new(), 4);
    }

    #[test]
    fn rgb_path_uses_luma_conversion() {
        let img = RgbImage::from_fn(16, 16, |x, _| {
            if x < 8 {
                imaging::Rgb::new(10, 10, 10)
            } else {
                imaging::Rgb::new(240, 240, 240)
            }
        });
        let labels = OtsuSegmenter::new().segment_rgb(&img);
        assert_ne!(labels.get(0, 0), labels.get(15, 15));
    }

    #[test]
    fn name_and_levels() {
        assert_eq!(OtsuSegmenter::new().name(), "Otsu");
        let img = bimodal_image(60, 190);
        assert_eq!(OtsuSegmenter::new().thresholds_for(&img).len(), 1);
    }
}
