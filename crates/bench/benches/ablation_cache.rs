//! Ablation A5: the content-addressed segmentation cache on repeated
//! traffic — the cache hit path (hash + memcpy) vs. re-classifying every
//! request with the phase-table fast path, and the miss overhead the cache
//! adds on top of it.
//!
//! The workload is Zipf-ish repeated traffic distilled to its essence: a
//! sequence of 32 requests cycling over 4 unique frames, the shape
//! `loadgen --repeat-ratio` drives at a live server.  Three configurations:
//!
//! * `hit_path` — warm cache, every request answered from it;
//! * `table_no_cache` — no cache, every request pays the phase-table
//!   classification;
//! * `simd_no_cache` — no cache, every request pays the split-table `simd`
//!   classification (the kernel the daemon serves), so `hit_path` against
//!   this row says whether a whole-frame hit still beats classifying;
//! * `miss_bypass` — cache attached but bypassed, measuring that an
//!   attached-but-unused cache costs nothing on the classification path.
//!
//! The setup asserts cache hits are byte-identical to fresh segmentation
//! before any measurement runs, mirroring the repo's determinism
//! discipline.
//!
//! Snapshot a baseline with
//! `CRITERION_JSON=BENCH_cache.json cargo bench --bench ablation_cache`.

use bench::synthetic_rgb;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use imaging::RgbImage;
use iqft_pipeline::{CacheConfig, SegmentPipeline};
use iqft_seg::{IqftClassifier, PhaseTable};
use seg_engine::{ClassifierKind, SegmentEngine, SegmentPlan};
use std::time::Duration;

const UNIQUE: usize = 4;
const REQUESTS: usize = 32;
const SIZE: usize = 96;

fn unique_frames() -> Vec<RgbImage> {
    (0..UNIQUE)
        .map(|i| synthetic_rgb(SIZE, SIZE * 3 / 4, 500 + i as u64))
        .collect()
}

/// The repeated-traffic request sequence: 32 requests cycling over the
/// unique frames.
fn request_sequence(frames: &[RgbImage]) -> Vec<&RgbImage> {
    (0..REQUESTS).map(|i| &frames[i % frames.len()]).collect()
}

fn drive<C: imaging::PixelClassifier + Sync>(
    pipeline: &SegmentPipeline<C>,
    requests: &[&RgbImage],
    bypass: bool,
) {
    for img in requests {
        let (labels, _hit) = pipeline.segment_request_cached(img, bypass);
        pipeline.recycle(labels);
    }
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_cache");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    let frames = unique_frames();
    let requests = request_sequence(&frames);
    group.throughput(Throughput::Elements(
        requests.iter().map(|img| img.len() as u64).sum(),
    ));

    let engine = SegmentEngine::with_threads(1);
    let salt = SegmentPlan::default().to_spec();

    // Warm cache: after the first cycle every request is a hit.  The setup
    // asserts hit results are byte-identical to fresh segmentation before
    // anything is measured.
    let cached = SegmentPipeline::new(engine, PhaseTable::paper_default())
        .with_cache(CacheConfig::with_capacity_mb(64), &salt);
    for img in &frames {
        let fresh = cached.segment_request(img);
        let (first, hit) = cached.segment_request_cached(img, false);
        assert!(!hit, "cold cache must miss");
        let (second, hit) = cached.segment_request_cached(img, false);
        assert!(hit, "warm cache must hit");
        assert_eq!(first, fresh, "miss result differs from fresh segmentation");
        assert_eq!(second, fresh, "hit result differs from fresh segmentation");
        cached.recycle(fresh);
        cached.recycle(first);
        cached.recycle(second);
    }
    group.bench_with_input(
        BenchmarkId::new("repeat32_96px", "hit_path"),
        &requests,
        |b, requests| {
            drive(&cached, requests, false);
            b.iter(|| drive(&cached, requests, false))
        },
    );

    // No cache: every request re-classifies through the phase table.
    let uncached = SegmentPipeline::new(engine, PhaseTable::paper_default());
    group.bench_with_input(
        BenchmarkId::new("repeat32_96px", "table_no_cache"),
        &requests,
        |b, requests| {
            drive(&uncached, requests, false);
            b.iter(|| drive(&uncached, requests, false))
        },
    );

    // No cache: every request re-classifies through the served kernel.
    let simd = SegmentPipeline::new(engine, IqftClassifier::paper_default(ClassifierKind::Simd));
    group.bench_with_input(
        BenchmarkId::new("repeat32_96px", "simd_no_cache"),
        &requests,
        |b, requests| {
            drive(&simd, requests, false);
            b.iter(|| drive(&simd, requests, false))
        },
    );

    // Cache attached but bypassed: the flag must cost nothing measurable.
    group.bench_with_input(
        BenchmarkId::new("repeat32_96px", "miss_bypass"),
        &requests,
        |b, requests| {
            drive(&cached, requests, true);
            b.iter(|| drive(&cached, requests, true))
        },
    );
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
