//! Ablation A4: steady-state throughput of the batched `iqft-pipeline`
//! service, exact statevector math vs. the eager `PhaseTable` fast path vs.
//! the split-table `simd` kernel.
//!
//! Each iteration streams a fixed 16-image synthetic batch through a warmed
//! pipeline with buffer recycling, so the measurement captures the
//! steady-state regime the pipeline is designed for (no arena warm-up, no
//! first-touch page faults).  The `workers_*` axis sweeps the engine's
//! thread count, which bounds how many of the batch's jobs run at once, for
//! the phase-table classifier.  Before any timing, every pipeline's labels
//! are asserted equal to the serial exact reference, so the bench doubles
//! as an acceptance check.
//!
//! Snapshot a baseline with
//! `CRITERION_JSON=BENCH_throughput.json cargo bench --bench ablation_pipeline_throughput`.

use bench::synthetic_rgb;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use imaging::{LabelMap, PixelClassifier, RgbImage};
use iqft_pipeline::SegmentPipeline;
use iqft_seg::{IqftClassifier, PhaseTable};
use seg_engine::{ClassifierKind, SegmentEngine};
use std::time::Duration;

const IMAGES: usize = 16;
const SIZE: usize = 96;

fn stream() -> Vec<RgbImage> {
    (0..IMAGES)
        .map(|i| synthetic_rgb(SIZE, SIZE * 3 / 4, 100 + i as u64))
        .collect()
}

fn run_stream<C: PixelClassifier + Sync>(pipeline: &SegmentPipeline<C>, images: &[RgbImage]) {
    let report = pipeline.run_stream(images, IMAGES, |_, labels| pipeline.recycle(labels));
    assert_eq!(report.images(), images.len());
}

/// Asserts `pipeline` labels `images` exactly as the serial exact pass does.
fn assert_matches_reference<C: PixelClassifier + Sync>(
    pipeline: &SegmentPipeline<C>,
    images: &[RgbImage],
    reference: &[LabelMap],
    what: &str,
) {
    let (labels, _) = pipeline.run_batch(images);
    assert_eq!(labels, reference, "{what}");
    for map in labels {
        pipeline.recycle(map);
    }
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_pipeline_throughput");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    let images = stream();
    group.throughput(Throughput::Elements(
        images.iter().map(|img| img.len() as u64).sum(),
    ));

    let exact = IqftClassifier::paper_default(ClassifierKind::Exact);
    let reference: Vec<LabelMap> = images
        .iter()
        .map(|img| SegmentEngine::serial().segment_rgb(&exact, img))
        .collect();

    let engine = SegmentEngine::with_threads(1);

    // Classifier axis on one thread: isolates the per-pixel classification
    // cost from scheduling effects.  The classifier set and its construction
    // come from `ClassifierKind::ALL` / `IqftClassifier` — the same single
    // source of truth the CLI parses `--classifier` with — so the bench
    // cannot drift from the harness vocabulary.
    for kind in ClassifierKind::ALL {
        // The phase-table kind was recorded as "phase_table" in
        // BENCH_throughput.json; keep that id for baseline continuity.
        let label = match kind {
            ClassifierKind::Table => "phase_table",
            other => other.flag(),
        };
        let pipeline = SegmentPipeline::new(engine, IqftClassifier::paper_default(kind));
        assert_matches_reference(&pipeline, &images, &reference, label);
        group.bench_with_input(
            BenchmarkId::new("voc16_96px", label),
            &images,
            |b, images| {
                run_stream(&pipeline, images); // warm the arena
                b.iter(|| run_stream(&pipeline, images))
            },
        );
    }

    // Thread-count axis for the fast path; the ids keep the `workers_N`
    // name the baseline was recorded under.
    for workers in [1usize, 2, 4, 8] {
        let pipeline = SegmentPipeline::new(
            SegmentEngine::with_threads(workers),
            PhaseTable::paper_default(),
        );
        let id = format!("workers_{workers}");
        assert_matches_reference(&pipeline, &images, &reference, &id);
        group.bench_with_input(
            BenchmarkId::new("voc16_96px_phase_table", id),
            &images,
            |b, images| {
                run_stream(&pipeline, images);
                b.iter(|| run_stream(&pipeline, images))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
