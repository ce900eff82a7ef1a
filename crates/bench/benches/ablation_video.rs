//! Ablation A6: per-tile delta caching on a streaming-video workload — the
//! stitched delta path against re-classifying every frame and against the
//! whole-image result cache, swept over the fraction of the frame that
//! changes between consecutive frames.
//!
//! The workload is a deterministic synthetic video: 8 frames of 256x192,
//! where each frame mutates a change-rate-controlled subset of 64px blocks
//! relative to its predecessor.  Pipelines tile at 32x32, so one mutated
//! block dirties at most 4 of the 48 tiles.  Configurations:
//!
//! * `delta_cr0` / `delta_cr5` / `delta_cr25` / `delta_cr100` — the
//!   per-tile delta path at ~0/5/25/100% of blocks mutated per frame;
//! * `uncached` — no cache, every frame re-classifies every pixel (the
//!   phase-table fast path);
//! * `whole_cache` — the whole-image result cache on the same 25% stream:
//!   every frame's content differs from its predecessor, so the image-level
//!   hash misses every time and the cache only adds overhead.
//!
//! Both caches are deliberately small (two frames' worth of label bytes,
//! one shard) so cycling the stream inside `b.iter` stays honest: a frame's
//! *changed* tile variants are evicted before the loop wraps around, while
//! tiles that are stable across the stream are re-touched every frame and
//! stay resident — exactly the steady state of a live camera.  The setup
//! asserts every stitched delta result is byte-identical to fresh
//! whole-image segmentation before anything is measured.
//!
//! Snapshot a baseline with
//! `CRITERION_JSON=BENCH_video.json cargo bench --bench ablation_video`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use datasets::{synthetic_video, VideoConfig};
use imaging::RgbImage;
use iqft_pipeline::{CacheConfig, PipelineConfig, SegmentPipeline};
use iqft_seg::PhaseTable;
use seg_engine::{SegmentEngine, SegmentPlan, Tiling};
use std::time::Duration;

const FRAMES: usize = 8;
const WIDTH: usize = 256;
const HEIGHT: usize = 192;
const TILE: usize = 32;

/// A deterministic video stream at the given per-frame block change rate.
fn stream(change_rate: f64) -> Vec<RgbImage> {
    synthetic_video(&VideoConfig {
        frames: FRAMES,
        width: WIDTH,
        height: HEIGHT,
        change_rate,
        block: 0,
        seed: 600,
    })
}

/// Two frames' worth of label bytes: big enough that every stable tile
/// stays resident, small enough that stale changed-tile variants (and, for
/// the whole-image configuration, stale frames) are evicted before the
/// bench loop cycles back to the first frame.
fn small_cache() -> CacheConfig {
    CacheConfig {
        capacity_bytes: 2 * WIDTH * HEIGHT * 4,
        shards: 1,
    }
}

fn delta_pipeline() -> SegmentPipeline<PhaseTable> {
    SegmentPipeline::new(SegmentEngine::with_threads(1), PhaseTable::paper_default())
        .with_config(PipelineConfig {
            tiling: Tiling::Tiles {
                width: TILE,
                height: TILE,
            },
        })
        .with_cache(small_cache(), &SegmentPlan::default().to_spec())
}

fn drive_delta(pipeline: &SegmentPipeline<PhaseTable>, frames: &[RgbImage]) {
    for frame in frames {
        let (labels, _hit, _recomputed) = pipeline.segment_request_delta(frame);
        pipeline.recycle(labels);
    }
}

fn drive_fresh(pipeline: &SegmentPipeline<PhaseTable>, frames: &[RgbImage]) {
    for frame in frames {
        let labels = pipeline.segment_request(frame);
        pipeline.recycle(labels);
    }
}

fn drive_whole_cached(pipeline: &SegmentPipeline<PhaseTable>, frames: &[RgbImage]) {
    for frame in frames {
        let (labels, _hit) = pipeline.segment_request_cached(frame, false);
        pipeline.recycle(labels);
    }
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_video");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    group.throughput(Throughput::Elements((FRAMES * WIDTH * HEIGHT) as u64));

    // The delta path at each change rate.  The setup replays every stream
    // through a cold delta pipeline and asserts each stitched result is
    // byte-identical to fresh whole-image segmentation.
    for (variant, change_rate) in [
        ("delta_cr0", 0.0),
        ("delta_cr5", 0.05),
        ("delta_cr25", 0.25),
        ("delta_cr100", 1.0),
    ] {
        let frames = stream(change_rate);
        let checker = delta_pipeline();
        for frame in &frames {
            let fresh = checker.segment_request(frame);
            let (stitched, _hit, _recomputed) = checker.segment_request_delta(frame);
            assert_eq!(
                stitched, fresh,
                "{variant}: stitched delta differs from fresh segmentation"
            );
            checker.recycle(fresh);
            checker.recycle(stitched);
        }
        let pipeline = delta_pipeline();
        group.bench_with_input(
            BenchmarkId::new("video8_256px", variant),
            &frames,
            |b, frames| {
                drive_delta(&pipeline, frames);
                b.iter(|| drive_delta(&pipeline, frames))
            },
        );
    }

    // Baselines share the 25% stream with `delta_cr25`, so the three rates
    // on that stream are directly comparable.
    let frames = stream(0.25);

    // No cache: every frame pays full phase-table classification.
    let uncached =
        SegmentPipeline::new(SegmentEngine::with_threads(1), PhaseTable::paper_default())
            .with_config(PipelineConfig {
                tiling: Tiling::Tiles {
                    width: TILE,
                    height: TILE,
                },
            });
    group.bench_with_input(
        BenchmarkId::new("video8_256px", "uncached"),
        &frames,
        |b, frames| {
            drive_fresh(&uncached, frames);
            b.iter(|| drive_fresh(&uncached, frames))
        },
    );

    // Whole-image result cache: consecutive frames never hash alike on a
    // changing stream, so every request is a miss plus insert overhead.
    let whole = delta_pipeline();
    group.bench_with_input(
        BenchmarkId::new("video8_256px", "whole_cache"),
        &frames,
        |b, frames| {
            drive_whole_cached(&whole, frames);
            b.iter(|| drive_whole_cached(&whole, frames))
        },
    );
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
