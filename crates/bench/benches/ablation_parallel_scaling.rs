//! Ablation A1: how many threads one frame is worth.
//!
//! `SegmentEngine` gives a frame at most one thread per
//! `PixelClassifier::min_pixels_per_thread` of its pixels.  Each input runs
//! on `serial` and on `threads_2`:
//!
//! * `simd_256x192` — small VOC-like frames on the split table, whose
//!   minimum of 1 Mi px keeps them on the calling thread;
//! * `simd_3840x2160` — one large VOC-like frame on the split table, which
//!   splits;
//! * `exact_128x96` — small VOC-like frames on the exact segmenter, whose
//!   default minimum of 1 splits every frame.
//!
//! The setup warms the split table and asserts that every row's labels
//! equal the `serial` row's.  `check_baselines` holds each input's
//! `threads_2 ÷ serial` ratio to a bar.  Snapshot a baseline with
//! `CRITERION_JSON=BENCH_parallel_scaling.json cargo bench --bench ablation_parallel_scaling`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use datasets::{PascalVocLikeConfig, PascalVocLikeDataset};
use imaging::RgbImage;
use iqft_seg::{IqftClassifier, SegmentEngine};
use seg_engine::ClassifierKind;
use std::time::Duration;

/// `len` VOC-like frames of `width × height`.
fn voc_frames(len: usize, width: usize, height: usize) -> Vec<RgbImage> {
    PascalVocLikeDataset::new(PascalVocLikeConfig {
        len,
        width,
        height,
        seed: 27,
        ..PascalVocLikeConfig::default()
    })
    .iter()
    .map(|sample| sample.image)
    .collect()
}

/// Segments every frame, reusing one label buffer as the daemon's arena
/// does, and returns the labels of each.
fn drive(engine: SegmentEngine, classifier: &IqftClassifier, frames: &[RgbImage]) -> Vec<u32> {
    let mut labels = Vec::new();
    for frame in frames {
        engine.segment_rgb_into(classifier, frame, &mut labels);
    }
    labels
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_parallel_scaling");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    let inputs = [
        (
            "simd_256x192",
            ClassifierKind::Simd,
            voc_frames(4, 256, 192),
        ),
        (
            "simd_3840x2160",
            ClassifierKind::Simd,
            voc_frames(1, 3840, 2160),
        ),
        (
            "exact_128x96",
            ClassifierKind::Exact,
            voc_frames(4, 128, 96),
        ),
    ];
    let engines = [
        ("serial", SegmentEngine::serial()),
        ("threads_2", SegmentEngine::with_threads(2)),
    ];
    for (input, kind, frames) in &inputs {
        let classifier = IqftClassifier::paper_default(*kind);
        // The serial labels of every frame.  This first pass also fills the
        // split table's rows, so no row below times a fill.
        let reference: Vec<_> = frames
            .iter()
            .map(|frame| SegmentEngine::serial().segment_rgb(&classifier, frame))
            .collect();
        for (name, engine) in engines {
            for (frame, expected) in frames.iter().zip(&reference) {
                assert_eq!(
                    &engine.segment_rgb(&classifier, frame),
                    expected,
                    "{input}/{name} labels differ from serial"
                );
            }
        }
        group.throughput(Throughput::Elements(
            frames.iter().map(|f| f.len() as u64).sum(),
        ));
        for (name, engine) in engines {
            group.bench_with_input(BenchmarkId::new(*input, name), frames, |b, frames| {
                b.iter(|| drive(engine, &classifier, frames))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
