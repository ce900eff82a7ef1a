//! Dataset-level evaluation of segmentation methods.
//!
//! Evaluation is batched through a [`SegmentEngine`]: the engine parallelises
//! over *images* (`SegmentEngine::map_images`) while each per-image segmenter
//! runs serially, so a dataset sweep saturates the machine without
//! oversubscribing it.  Label maps are byte-identical across backends and
//! thread counts; only the wall-clock fields vary.

use baselines::{KMeansSegmenter, OtsuSegmenter};
use datasets::LabeledImage;
use imaging::{LabelMap, RgbImage, Segmenter};
use iqft_seg::{reduce_to_foreground, ForegroundPolicy, IqftGraySegmenter, IqftRgbSegmenter};
use seg_engine::SegmentEngine;
use std::time::Instant;

/// The four methods of the paper's Table III.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Method {
    /// K-means clustering with `k = 2` (scikit-learn baseline).
    KMeans {
        /// RNG seed for the k-means++ initialisation.
        seed: u64,
    },
    /// Otsu thresholding (scikit-image baseline).
    Otsu,
    /// The IQFT-inspired RGB algorithm (Algorithm 1) with uniform θ.
    IqftRgb {
        /// The uniform angle parameter (the paper uses π).
        theta: f64,
    },
    /// The IQFT-inspired grayscale algorithm with angle θ.
    IqftGray {
        /// The angle parameter (the paper uses π).
        theta: f64,
    },
}

impl Method {
    /// The four methods in the paper's Table III column order, at the paper's
    /// configuration (θ = π, K-means k = 2).
    pub fn table3_methods(seed: u64) -> Vec<Method> {
        vec![
            Method::KMeans { seed },
            Method::Otsu,
            Method::IqftRgb {
                theta: std::f64::consts::PI,
            },
            Method::IqftGray {
                theta: std::f64::consts::PI,
            },
        ]
    }

    /// Builds the segmenter behind this method on the default engine.
    pub fn build(&self) -> Box<dyn Segmenter + Send + Sync> {
        self.build_with(SegmentEngine::default())
    }

    /// Builds the segmenter behind this method, executing whole-image calls
    /// on `engine`.
    pub fn build_with(&self, engine: SegmentEngine) -> Box<dyn Segmenter + Send + Sync> {
        match *self {
            Method::KMeans { seed } => Box::new(KMeansSegmenter::binary(seed).with_engine(engine)),
            Method::Otsu => Box::new(OtsuSegmenter::new().with_engine(engine)),
            Method::IqftRgb { theta } => Box::new(
                IqftRgbSegmenter::new(iqft_seg::ThetaParams::uniform(theta)).with_engine(engine),
            ),
            Method::IqftGray { theta } => {
                Box::new(IqftGraySegmenter::new(theta).with_engine(engine))
            }
        }
    }

    /// The display name used in tables.
    pub fn name(&self) -> String {
        match self {
            Method::KMeans { .. } => "K-means".to_string(),
            Method::Otsu => "OTSU".to_string(),
            Method::IqftRgb { .. } => "IQFT (RGB)".to_string(),
            Method::IqftGray { .. } => "IQFT (Grayscale)".to_string(),
        }
    }
}

/// Per-image evaluation record.
#[derive(Debug, Clone)]
pub struct ImageScore {
    /// The sample identifier.
    pub id: String,
    /// Foreground/background mIOU (eq. 18).
    pub miou: f64,
    /// Foreground IOU alone.
    pub iou_foreground: f64,
    /// Wall-clock segmentation time in seconds (segmentation only, excluding
    /// dataset generation and scoring).
    ///
    /// Measured inside the engine's image batch, so under a parallel backend
    /// sibling images contend for cores and the value overstates isolated
    /// per-image cost.  For a paper-faithful runtime comparison (Table III's
    /// runtime column) evaluate with `--backend serial`; label maps and all
    /// quality scores are backend-independent either way.
    pub runtime_secs: f64,
}

/// Aggregated result of one method on one dataset.
#[derive(Debug, Clone)]
pub struct MethodSummary {
    /// Method display name.
    pub method: String,
    /// Per-image scores, in dataset order.
    pub scores: Vec<ImageScore>,
    /// Mean of the per-image mIOU values (the paper's "Average mIOU").
    pub average_miou: f64,
    /// Total segmentation runtime over the dataset, in seconds.
    pub total_runtime_secs: f64,
    /// Fraction of images with mIOU below 0.1 (the paper's "poor
    /// performance" statistic).
    pub poor_fraction: f64,
}

/// All methods evaluated on one dataset.
#[derive(Debug, Clone)]
pub struct DatasetSummary {
    /// Dataset display name.
    pub dataset: String,
    /// One summary per method, in input order.
    pub methods: Vec<MethodSummary>,
}

impl DatasetSummary {
    /// Fraction of images on which `method_a` strictly outperforms
    /// `method_b` in per-image mIOU.
    pub(crate) fn win_fraction(&self, method_a: &str, method_b: &str) -> f64 {
        let a = self
            .methods
            .iter()
            .find(|m| m.method == method_a)
            .expect("method_a present");
        let b = self
            .methods
            .iter()
            .find(|m| m.method == method_b)
            .expect("method_b present");
        assert_eq!(a.scores.len(), b.scores.len());
        if a.scores.is_empty() {
            return 0.0;
        }
        let wins = a
            .scores
            .iter()
            .zip(b.scores.iter())
            .filter(|(x, y)| x.miou > y.miou)
            .count();
        wins as f64 / a.scores.len() as f64
    }
}

/// Segments one image with `segmenter`, reduces to foreground/background with
/// `policy` and scores against the ground truth.
pub(crate) fn score_single(
    segmenter: &dyn Segmenter,
    image: &RgbImage,
    ground_truth: &LabelMap,
    policy: ForegroundPolicy,
) -> (LabelMap, f64, f64, f64) {
    let start = Instant::now();
    let raw = segmenter.segment_rgb(image);
    let runtime = start.elapsed().as_secs_f64();
    let binary = reduce_to_foreground(&raw, policy, Some(image), Some(ground_truth));
    let breakdown = metrics::miou_fg_bg(&binary, ground_truth);
    (binary, breakdown.miou, breakdown.foreground, runtime)
}

/// Evaluates one method over a slice of labelled samples, batching the
/// per-image work on `engine`.
///
/// Parallelism lives at the image level here; each image's segmenter runs
/// serially so the batch does not oversubscribe the machine.  The produced
/// label maps (and therefore every score) are byte-identical across engines.
pub fn evaluate_method_with(
    engine: &SegmentEngine,
    method: &Method,
    samples: &[LabeledImage],
    policy: ForegroundPolicy,
) -> MethodSummary {
    let segmenter = method.build_with(SegmentEngine::serial());
    let scores: Vec<ImageScore> = engine.map_images(samples, |sample| {
        let (_, miou, iou_fg, runtime) = score_single(
            segmenter.as_ref(),
            &sample.image,
            &sample.ground_truth,
            policy,
        );
        ImageScore {
            id: sample.id.clone(),
            miou,
            iou_foreground: iou_fg,
            runtime_secs: runtime,
        }
    });
    summarize(method.name(), scores)
}

fn summarize(method: String, scores: Vec<ImageScore>) -> MethodSummary {
    let n = scores.len().max(1) as f64;
    let average_miou = scores.iter().map(|s| s.miou).sum::<f64>() / n;
    let total_runtime_secs = scores.iter().map(|s| s.runtime_secs).sum();
    let poor_fraction = scores.iter().filter(|s| s.miou < 0.1).count() as f64 / n;
    MethodSummary {
        method,
        scores,
        average_miou,
        total_runtime_secs,
        poor_fraction,
    }
}

/// Evaluates several methods on the same samples, batching on `engine`.
pub(crate) fn evaluate_methods_with(
    engine: &SegmentEngine,
    dataset_name: &str,
    methods: &[Method],
    samples: &[LabeledImage],
    policy: ForegroundPolicy,
) -> DatasetSummary {
    DatasetSummary {
        dataset: dataset_name.to_string(),
        methods: methods
            .iter()
            .map(|m| evaluate_method_with(engine, m, samples, policy))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasets::{PascalVocLikeConfig, PascalVocLikeDataset};

    fn tiny_dataset(n: usize) -> Vec<LabeledImage> {
        PascalVocLikeDataset::new(PascalVocLikeConfig {
            len: n,
            width: 48,
            height: 36,
            seed: 77,
            ..PascalVocLikeConfig::default()
        })
        .iter()
        .collect()
    }

    #[test]
    fn method_constructors_and_names() {
        let methods = Method::table3_methods(1);
        assert_eq!(methods.len(), 4);
        assert_eq!(methods[0].name(), "K-means");
        assert_eq!(methods[1].name(), "OTSU");
        assert_eq!(methods[2].name(), "IQFT (RGB)");
        assert_eq!(methods[3].name(), "IQFT (Grayscale)");
        for m in &methods {
            let seg = m.build();
            assert!(!seg.name().is_empty());
        }
    }

    #[test]
    fn evaluation_produces_sane_scores() {
        let samples = tiny_dataset(3);
        let summary = evaluate_method_with(
            &SegmentEngine::default(),
            &Method::Otsu,
            &samples,
            ForegroundPolicy::LargestIsBackground,
        );
        assert_eq!(summary.scores.len(), 3);
        assert!(summary.average_miou >= 0.0 && summary.average_miou <= 1.0);
        assert!(summary.total_runtime_secs >= 0.0);
        assert!(summary.poor_fraction >= 0.0 && summary.poor_fraction <= 1.0);
        for s in &summary.scores {
            assert!((0.0..=1.0).contains(&s.miou), "{}: {}", s.id, s.miou);
            assert!((0.0..=1.0).contains(&s.iou_foreground));
        }
    }

    #[test]
    fn all_four_methods_run_on_the_same_samples() {
        let samples = tiny_dataset(2);
        let summary = evaluate_methods_with(
            &SegmentEngine::default(),
            "tiny",
            &Method::table3_methods(3),
            &samples,
            ForegroundPolicy::LargestIsBackground,
        );
        assert_eq!(summary.dataset, "tiny");
        assert_eq!(summary.methods.len(), 4);
        for m in &summary.methods {
            assert_eq!(m.scores.len(), 2);
        }
        let win = summary.win_fraction("IQFT (RGB)", "OTSU");
        assert!((0.0..=1.0).contains(&win));
    }

    #[test]
    fn perfect_segmenter_scores_one() {
        // A segmenter that returns the ground truth directly (via closure
        // capture) must score mIOU = 1 on every image.
        struct Oracle {
            truth: LabelMap,
        }
        impl Segmenter for Oracle {
            fn name(&self) -> &str {
                "oracle"
            }
            fn segment_rgb(&self, _img: &RgbImage) -> LabelMap {
                self.truth
                    .map(|l| if l == imaging::VOID_LABEL { 0 } else { l })
            }
        }
        let samples = tiny_dataset(1);
        let oracle = Oracle {
            truth: samples[0].ground_truth.clone(),
        };
        let (_, miou, iou_fg, _) = score_single(
            &oracle,
            &samples[0].image,
            &samples[0].ground_truth,
            ForegroundPolicy::LargestIsBackground,
        );
        assert!((miou - 1.0).abs() < 1e-12);
        assert!((iou_fg - 1.0).abs() < 1e-12);
    }

    #[test]
    fn win_fraction_is_zero_against_itself() {
        let samples = tiny_dataset(2);
        let summary = evaluate_methods_with(
            &SegmentEngine::default(),
            "tiny",
            &[Method::Otsu, Method::Otsu],
            &samples,
            ForegroundPolicy::LargestIsBackground,
        );
        assert_eq!(summary.win_fraction("OTSU", "OTSU"), 0.0);
    }
}
