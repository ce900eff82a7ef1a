//! Determinism of the backend-aware `SegmentEngine` across every execution
//! backend and thread count — the contract behind the harness's
//! `--backend serial|threads --threads N` knob: switching backends must
//! never change a single label.
//!
//! Covers the acceptance criterion that `--backend threads --threads N`
//! produces byte-identical label maps to `--backend serial`, at both the
//! per-pixel and the per-image batching layer, and the property test that
//! `IqftRgbSegmenter` agrees exactly with its serial self on random images
//! and angles, for every backend variant and thread count ∈ {1, 2, 8}.

use datasets::{PascalVocLikeConfig, PascalVocLikeDataset};
use imaging::{LabelMap, PixelClassifier, Rgb, RgbImage, Segmenter};
use iqft_pipeline::{CacheConfig, LabelArena, SegmentPipeline};
use iqft_seg::{
    IqftClassifier, IqftGraySegmenter, IqftRgbSegmenter, PhaseTable, SegmentEngine, SimdLevel,
    SplitTable, ThetaParams,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use seg_engine::{ClassifierKind, SegmentPlan};

/// Every backend variant crossed with the thread counts under test.
fn all_engines() -> Vec<(String, SegmentEngine)> {
    let mut engines = vec![
        ("serial".to_string(), SegmentEngine::serial()),
        (
            "threads(default)".to_string(),
            SegmentEngine::with_threads(0),
        ),
    ];
    for threads in [1usize, 2, 8] {
        engines.push((
            format!("threads({threads})"),
            SegmentEngine::with_threads(threads),
        ));
    }
    engines
}

fn random_image(rng: &mut ChaCha8Rng, width: usize, height: usize) -> RgbImage {
    let pixels: Vec<Rgb<u8>> = (0..width * height)
        .map(|_| Rgb::new(rng.gen::<u8>(), rng.gen::<u8>(), rng.gen::<u8>()))
        .collect();
    RgbImage::from_vec(width, height, pixels).unwrap()
}

/// Property: the direct RGB segmenter produces identical `LabelMap`s on
/// random images and angles, under the engine, for every backend variant
/// and thread count ∈ {1, 2, 8}.
#[test]
fn direct_rgb_agrees_on_random_images_under_every_engine() {
    let mut rng = ChaCha8Rng::seed_from_u64(2023);
    for case in 0..8 {
        let width = rng.gen_range(1usize..64);
        let height = rng.gen_range(1usize..48);
        let img = random_image(&mut rng, width, height);
        let theta = ThetaParams::uniform(rng.gen_range(0.3..2.0 * std::f64::consts::PI));
        let reference = IqftRgbSegmenter::new(theta)
            .with_engine(SegmentEngine::serial())
            .segment_rgb(&img);
        for (name, engine) in all_engines() {
            let direct = IqftRgbSegmenter::new(theta)
                .with_engine(engine)
                .segment_rgb(&img);
            assert_eq!(direct, reference, "case {case}, engine {name}");
        }
    }
}

/// Acceptance criterion, per-pixel layer: the engine fills label buffers
/// byte-identically on every backend for all segmenter families.
#[test]
fn engine_backends_are_byte_identical_per_pixel() {
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    let img = random_image(&mut rng, 53, 37);
    let gray = imaging::color::rgb_to_gray_u8(&img);

    let rgb_ref = IqftRgbSegmenter::paper_default()
        .with_engine(SegmentEngine::serial())
        .segment_rgb(&img);
    let gray_ref = IqftGraySegmenter::paper_default()
        .with_engine(SegmentEngine::serial())
        .segment_gray(&gray);
    let otsu_ref = baselines::OtsuSegmenter::new()
        .with_engine(SegmentEngine::serial())
        .segment_gray(&gray);
    let kmeans_ref = baselines::KMeansSegmenter::binary(9)
        .with_engine(SegmentEngine::serial())
        .segment_rgb(&img);

    for (name, engine) in all_engines() {
        assert_eq!(
            IqftRgbSegmenter::paper_default()
                .with_engine(engine)
                .segment_rgb(&img),
            rgb_ref,
            "IQFT RGB via {name}"
        );
        assert_eq!(
            IqftGraySegmenter::paper_default()
                .with_engine(engine)
                .segment_gray(&gray),
            gray_ref,
            "IQFT gray via {name}"
        );
        assert_eq!(
            baselines::OtsuSegmenter::new()
                .with_engine(engine)
                .segment_gray(&gray),
            otsu_ref,
            "Otsu via {name}"
        );
        assert_eq!(
            baselines::KMeansSegmenter::binary(9)
                .with_engine(engine)
                .segment_rgb(&img),
            kmeans_ref,
            "K-means via {name}"
        );
    }
}

/// Acceptance criterion, pipeline layer: the batched `iqft-pipeline` service
/// produces byte-identical label maps to per-image serial segmentation for
/// every engine backend and thread count and every classifier fast path
/// (exact, eager phase table), including with buffer recycling between
/// batches.
#[test]
fn pipeline_batches_are_byte_identical_to_serial_per_image() {
    let mut rng = ChaCha8Rng::seed_from_u64(4242);
    let images: Vec<RgbImage> = (0..10)
        .map(|_| {
            let width = rng.gen_range(8usize..56);
            let height = rng.gen_range(8usize..40);
            random_image(&mut rng, width, height)
        })
        .collect();
    let reference: Vec<LabelMap> = images
        .iter()
        .map(|img| {
            IqftRgbSegmenter::paper_default()
                .with_engine(SegmentEngine::serial())
                .segment_rgb(img)
        })
        .collect();

    for (name, engine) in all_engines() {
        let exact = SegmentPipeline::new(engine, IqftRgbSegmenter::paper_default());
        let table = SegmentPipeline::new(engine, PhaseTable::paper_default());
        assert_eq!(exact.run_batch(&images).0, reference, "exact via {name}");
        // Streamed in small batches with buffer recycling — the
        // steady-state production shape.
        let mut streamed: Vec<Option<LabelMap>> = (0..images.len()).map(|_| None).collect();
        let report = table.run_stream(&images, 3, |idx, labels| {
            streamed[idx] = Some(labels.clone());
            table.recycle(labels);
        });
        assert_eq!(report.images(), images.len());
        let streamed: Vec<LabelMap> = streamed.into_iter().map(Option::unwrap).collect();
        assert_eq!(streamed, reference, "table via {name}");
    }
}

/// Acceptance criterion, split-table layer: the split table's scalar loop,
/// its runtime dispatch, and every supported kernel produce label maps
/// byte-identical to the exact f64 classifier, across every engine backend,
/// through both the engine and the `SegmentPlan` dispatch point.
#[test]
fn quantized_and_simd_classifiers_are_byte_identical_to_exact() {
    let mut rng = ChaCha8Rng::seed_from_u64(6001);
    let img = random_image(&mut rng, 53, 37);
    let exact = IqftClassifier::paper_default(ClassifierKind::Exact);
    let whole = SegmentEngine::serial().segment_rgb(&exact, &img);

    // The split table pinned to its portable scalar loop (what
    // `IQFT_SIMD=off` and non-x86 hosts run), and the runtime dispatch.
    let kernels = [
        (
            "scalar",
            IqftClassifier::Simd(SplitTable::paper_default().with_simd(SimdLevel::Scalar)),
        ),
        ("simd", IqftClassifier::paper_default(ClassifierKind::Simd)),
    ];
    for (label, classifier) in &kernels {
        for (name, engine) in all_engines() {
            assert_eq!(
                engine.segment_rgb(classifier, &img),
                whole,
                "{label} via {name}, whole image"
            );
            let plan = SegmentPlan::new(ClassifierKind::Simd, engine.backend());
            assert_eq!(
                plan.segment_rgb(classifier, &img),
                whole,
                "{label} plan via {name}"
            );
        }
    }

    // Every supported kernel agrees with the pinned scalar loop
    // byte-for-byte.
    let scalar = SplitTable::paper_default().with_simd(SimdLevel::Scalar);
    let scalar_labels = SegmentEngine::serial().segment_rgb(&scalar, &img);
    assert_eq!(scalar_labels, whole, "scalar split table vs exact");
    for level in SimdLevel::ALL {
        if !level.is_supported() {
            continue;
        }
        let kernel = SplitTable::paper_default().with_simd(level);
        assert_eq!(
            SegmentEngine::serial().segment_rgb(&kernel, &img),
            scalar_labels,
            "kernel {level} vs scalar split table"
        );
    }
}

/// A cold split table shares no fills, so two engine threads meet unfilled
/// rows in their chunks of a VOC-like frame and take turns filling them.
/// The labels still equal the f64 oracle's, on both kernels.  The split
/// table keeps a frame below 2 Mi px on one thread, so a 320×240 VOC-like
/// frame is tiled out to 2048×1024, the smallest frame it splits.
#[test]
fn a_cold_split_table_filled_by_two_threads_equals_the_oracle() {
    let tile = PascalVocLikeDataset::new(PascalVocLikeConfig {
        len: 1,
        width: 320,
        height: 240,
        seed: 23,
        ..PascalVocLikeConfig::default()
    })
    .sample(0)
    .image;
    let frame = RgbImage::from_fn(2048, 1024, |x, y| tile.get(x % 320, y % 240));
    let oracle = SegmentEngine::serial().segment_rgb(&PhaseTable::paper_default(), &frame);
    for level in SimdLevel::ALL.into_iter().filter(|l| l.is_supported()) {
        let cold = SplitTable::paper_default().cold().with_simd(level);
        assert_eq!(
            SegmentEngine::with_threads(2).segment_rgb(&cold, &frame),
            oracle,
            "{level}"
        );
    }
}

/// Acceptance criterion, harness layer: the full evaluation pipeline (the
/// code path behind `iqft-experiments table3 --backend ...`) produces
/// byte-identical label maps and scores when batched on `threads N` vs
/// `serial`.
#[test]
fn harness_evaluation_is_byte_identical_across_backends() {
    use experiments::{evaluate_method_with, Method};
    use iqft_seg::ForegroundPolicy;

    let dataset = PascalVocLikeDataset::new(PascalVocLikeConfig {
        len: 4,
        width: 48,
        height: 36,
        seed: 55,
        ..PascalVocLikeConfig::default()
    });
    let samples: Vec<_> = dataset.iter().collect();
    let policy = ForegroundPolicy::LargestIsBackground;

    for method in Method::table3_methods(3) {
        let serial = evaluate_method_with(&SegmentEngine::serial(), &method, &samples, policy);
        for threads in [1usize, 2, 8] {
            let parallel = evaluate_method_with(
                &SegmentEngine::with_threads(threads),
                &method,
                &samples,
                policy,
            );
            assert_eq!(parallel.scores.len(), serial.scores.len());
            for (a, b) in parallel.scores.iter().zip(serial.scores.iter()) {
                assert_eq!(a.id, b.id, "{} threads={threads}", method.name());
                // Scores are a pure function of the label maps, so bitwise
                // equality here certifies byte-identical segmentations.
                assert_eq!(a.miou, b.miou, "{} threads={threads}", method.name());
                assert_eq!(
                    a.iou_foreground,
                    b.iou_foreground,
                    "{} threads={threads}",
                    method.name()
                );
            }
            assert_eq!(parallel.average_miou, serial.average_miou);
            assert_eq!(parallel.poor_fraction, serial.poor_fraction);
        }
    }

    // The binary label maps themselves, compared bit-for-bit across engines.
    for sample in &samples {
        let build = |engine: SegmentEngine| -> LabelMap {
            let segmenter = Method::IqftRgb {
                theta: std::f64::consts::PI,
            }
            .build_with(engine);
            segmenter.segment_rgb(&sample.image)
        };
        let reference = build(SegmentEngine::serial());
        for threads in [1usize, 2, 8] {
            assert_eq!(
                build(SegmentEngine::with_threads(threads)),
                reference,
                "{}",
                sample.id
            );
        }
    }
}

/// Label buffers are resized in place, never zeroed first, so every `_into`
/// path must write every label itself.  Buffers pre-filled with a sentinel
/// — one recycled through an arena at the image's length, one longer, one
/// shorter — must come out equal to the exact oracle's per-pixel labels for
/// every classifier kind on serial and threads: whole-image RGB and gray,
/// and the pipeline's delta stitch with its tiles classified, stitched from
/// the cache, and a mix of the two.  The 140×75 frame is six 64×64 delta
/// tiles, four of them ragged.
#[test]
fn stale_label_buffers_are_overwritten_in_full() {
    const SENTINEL: u32 = 0xDEAD_BEEF;
    let mut rng = ChaCha8Rng::seed_from_u64(8101);
    let img = random_image(&mut rng, 140, 75);
    let gray = imaging::color::rgb_to_gray_u8(&img);
    let mut changed = img.clone();
    for x in 0..img.width() {
        changed.set(x, 0, Rgb::new(x as u8, 255, 0));
    }
    let exact = IqftClassifier::paper_default(ClassifierKind::Exact);
    let oracle = |image: &RgbImage| -> Vec<u32> {
        image
            .as_slice()
            .iter()
            .map(|&pixel| exact.classify_rgb_pixel(pixel))
            .collect()
    };
    let (rgb_oracle, changed_oracle) = (oracle(&img), oracle(&changed));
    let gray_oracle: Vec<u32> = gray
        .as_slice()
        .iter()
        .map(|&pixel| exact.classify_gray_pixel(pixel))
        .collect();
    let arena = LabelArena::new();
    let stale = |len: usize| {
        arena.put(vec![SENTINEL; len]);
        arena.take()
    };
    let lengths = [img.len(), img.len() + 17, img.len() / 2];

    for kind in ClassifierKind::ALL {
        let classifier = IqftClassifier::paper_default(kind);
        for (name, engine) in [
            ("serial", SegmentEngine::serial()),
            ("threads(2)", SegmentEngine::with_threads(2)),
        ] {
            for len in lengths {
                let context = format!("{kind} via {name}, stale buffer of {len}");
                let mut buf = stale(len);
                engine.segment_rgb_into(&classifier, &img, &mut buf);
                assert_eq!(buf, rgb_oracle, "segment_rgb_into, {context}");
                let mut buf = stale(len);
                engine.segment_gray_into(&classifier, &gray, &mut buf);
                assert_eq!(buf, gray_oracle, "segment_gray_into, {context}");

                // The delta stitch takes its buffer, and its tile scratch,
                // from the pipeline's arena: seed that with stale buffers.
                let pipeline = SegmentPipeline::new(engine, IqftClassifier::paper_default(kind))
                    .with_cache(CacheConfig::with_capacity_mb(4), "stale-buffers");
                for (frame, expected, pass) in [
                    (&img, &rgb_oracle, "every tile classified"),
                    (&img, &rgb_oracle, "every tile from the cache"),
                    (&changed, &changed_oracle, "a changed row of tiles"),
                ] {
                    pipeline.arena().put(vec![SENTINEL; len]);
                    pipeline.arena().put(vec![SENTINEL; len]);
                    let (labels, _, _) = pipeline.segment_request_delta(frame);
                    assert_eq!(labels.as_slice(), &expected[..], "delta, {pass}, {context}");
                }
            }
        }
    }
}
