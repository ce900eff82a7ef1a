//! Cross-crate integration tests: the full pipeline from dataset generation
//! through segmentation to evaluation, exercising every workspace crate
//! together the way the experiment harness does.

use datasets::{
    balls_scene, PascalVocLikeConfig, PascalVocLikeDataset, XViewLikeConfig, XViewLikeDataset,
};
use imaging::{color, hist::Histogram, Segmenter};
use iqft_seg::{
    reduce_to_foreground, ForegroundPolicy, IqftGraySegmenter, IqftRgbSegmenter, ThetaParams,
};
use metrics::{mean_iou, miou_fg_bg};
use std::f64::consts::PI;

fn voc_samples(n: usize, seed: u64) -> Vec<datasets::LabeledImage> {
    PascalVocLikeDataset::new(PascalVocLikeConfig {
        len: n,
        width: 80,
        height: 60,
        seed,
        ..PascalVocLikeConfig::default()
    })
    .iter()
    .collect()
}

#[test]
fn all_methods_produce_valid_scores_on_both_datasets() {
    let voc = voc_samples(4, 11);
    let xview: Vec<_> = XViewLikeDataset::new(XViewLikeConfig {
        len: 4,
        width: 80,
        height: 80,
        seed: 12,
        ..XViewLikeConfig::default()
    })
    .iter()
    .collect();
    let methods: Vec<Box<dyn Segmenter>> = vec![
        Box::new(baselines::KMeansSegmenter::binary(1)),
        Box::new(baselines::OtsuSegmenter::new()),
        Box::new(IqftRgbSegmenter::paper_default()),
        Box::new(IqftGraySegmenter::paper_default()),
    ];
    for samples in [&voc, &xview] {
        for method in &methods {
            for sample in samples.iter() {
                let raw = method.segment_rgb(&sample.image);
                assert_eq!(raw.dimensions(), sample.image.dimensions());
                let binary = reduce_to_foreground(
                    &raw,
                    ForegroundPolicy::LargestIsBackground,
                    Some(&sample.image),
                    None,
                );
                let breakdown = miou_fg_bg(&binary, &sample.ground_truth);
                assert!(
                    (0.0..=1.0).contains(&breakdown.miou),
                    "{} on {}: mIOU {}",
                    method.name(),
                    sample.id,
                    breakdown.miou
                );
            }
        }
    }
}

#[test]
fn iqft_rgb_segments_well_separated_scenes_accurately() {
    // On scenes whose objects are clearly brighter than the background the
    // IQFT RGB method with θ = π should reach a high mIOU — the regime the
    // paper's Fig. 8 examples come from.
    let samples = voc_samples(12, 99);
    let segmenter = IqftRgbSegmenter::paper_default();
    let mut best = 0.0f64;
    for sample in &samples {
        let raw = segmenter.segment_rgb(&sample.image);
        let binary = reduce_to_foreground(
            &raw,
            ForegroundPolicy::LargestIsBackground,
            Some(&sample.image),
            None,
        );
        best = best.max(mean_iou(&binary, &sample.ground_truth));
    }
    assert!(best > 0.7, "best mIOU over 12 scenes was only {best}");
}

#[test]
fn grayscale_iqft_with_otsu_equivalent_theta_matches_otsu_everywhere() {
    // Fig. 7's claim as an integration-level property over several scenes.
    for seed in [5u64, 6, 7] {
        let sample = &voc_samples(1, seed)[0];
        // Lift intensities so the threshold is in the single-threshold regime.
        let gray = color::rgb_to_gray_u8(&sample.image)
            .map(|p| imaging::Luma(100u8 + (p.value() as u16 * 155 / 255) as u8));
        let threshold = baselines::otsu_threshold(&Histogram::of_gray(&gray));
        let theta = iqft_seg::theta::theta_for_threshold(threshold + 0.5 / 255.0);
        let otsu_mask = baselines::OtsuSegmenter::new().segment_gray(&gray);
        let iqft_mask = IqftGraySegmenter::new(theta).segment_gray(&gray);
        assert_eq!(otsu_mask, iqft_mask, "seed {seed}");
    }
}

#[test]
fn multi_threshold_iqft_solves_the_balls_scene_exactly() {
    let scene = balls_scene(150, 100);
    let gray = color::rgb_to_gray_u8(&scene.image);
    let iqft = IqftGraySegmenter::new(4.0 * PI).segment_gray(&gray);
    let miou = mean_iou(&iqft, &scene.ground_truth);
    assert!(miou > 0.99, "mIOU {miou}");
    // A single Otsu threshold cannot reach that quality on this scene.
    let otsu = baselines::OtsuSegmenter::new().segment_gray(&gray);
    let otsu_binary = reduce_to_foreground(
        &otsu,
        ForegroundPolicy::LargestIsBackground,
        Some(&scene.image),
        None,
    );
    assert!(mean_iou(&otsu_binary, &scene.ground_truth) < miou);
}

#[test]
fn classical_pipeline_matches_quantum_simulation_on_dataset_pixels() {
    let sample = &voc_samples(1, 33)[0];
    let segmenter = IqftRgbSegmenter::paper_default();
    // Spot-check a grid of pixels against the state-vector simulator.
    for y in (0..sample.image.height()).step_by(17) {
        for x in (0..sample.image.width()).step_by(13) {
            let pixel = sample.image.get(x, y);
            let [gamma, beta, alpha] = segmenter.phases(pixel);
            let mut state = quantum::phase_product_state(&[alpha, beta, gamma]);
            quantum::Circuit::iqft(3).apply(&mut state);
            assert_eq!(
                segmenter.classify(pixel) as usize,
                state.most_probable(),
                "pixel at ({x},{y})"
            );
        }
    }
}

#[test]
fn theta_controls_granularity_on_real_scenes() {
    let sample = &voc_samples(1, 44)[0];
    let coarse = IqftRgbSegmenter::new(ThetaParams::uniform(PI / 4.0)).segment_rgb(&sample.image);
    let fine = IqftRgbSegmenter::new(ThetaParams::uniform(2.0 * PI)).segment_rgb(&sample.image);
    let coarse_n = imaging::labels::distinct_labels(&coarse);
    let fine_n = imaging::labels::distinct_labels(&fine);
    assert_eq!(coarse_n, 1);
    assert!(
        fine_n >= 3,
        "expected a rich segmentation, got {fine_n} labels"
    );
}

#[test]
fn oracle_reduction_never_scores_below_the_default_reduction() {
    let samples = voc_samples(3, 55);
    let segmenter = IqftRgbSegmenter::paper_default();
    for sample in &samples {
        let raw = segmenter.segment_rgb(&sample.image);
        let default_binary = reduce_to_foreground(
            &raw,
            ForegroundPolicy::LargestIsBackground,
            Some(&sample.image),
            Some(&sample.ground_truth),
        );
        let oracle_binary = reduce_to_foreground(
            &raw,
            ForegroundPolicy::Oracle,
            Some(&sample.image),
            Some(&sample.ground_truth),
        );
        let default_acc = miou_fg_bg(&default_binary, &sample.ground_truth).accuracy;
        let oracle_acc = miou_fg_bg(&oracle_binary, &sample.ground_truth).accuracy;
        assert!(
            oracle_acc >= default_acc - 1e-12,
            "{}: oracle {} < default {}",
            sample.id,
            oracle_acc,
            default_acc
        );
    }
}
