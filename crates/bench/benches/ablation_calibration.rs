//! Ablation A9: startup plan calibration vs. the workspace's fixed default
//! plan — does a short probe sweep at boot actually buy throughput on the
//! host it runs on?
//!
//! Every other recorded baseline is a one-container artifact; the fixed
//! `SegmentPlan::default()` is tuned for nothing in particular.  This
//! ablation runs `seg_engine::calibrate` once in setup (its cost is *not*
//! measured — it is a boot-time expense) and then drives the same synthetic
//! frame stream through both plans:
//!
//! * `fixed_default` — `SegmentPlan::default()`, the plan a server boots
//!   with when nobody passes `--plan`;
//! * `calibrated[<spec>]` — the plan `--plan auto` would pick here, with
//!   the winning spec embedded in the bench id so `check_baselines` can
//!   parse it back into a `SegmentPlan` and a reader can see
//!   *which* plan won on the recording host.
//!
//! The setup asserts both plans produce byte-identical labels before any
//! measurement runs, mirroring the repo's determinism discipline: the
//! calibrated plan must be a pure performance change.
//!
//! Snapshot a baseline with
//! `CRITERION_JSON=BENCH_calibration.json cargo bench --bench ablation_calibration`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use imaging::RgbImage;
use iqft_seg::IqftClassifier;
use seg_engine::calibrate::{calibrate, synthetic_frame, CalibrationConfig};
use seg_engine::SegmentPlan;
use std::time::Duration;

const FRAMES: usize = 8;
const SIZE: usize = 192;

/// The measured workload: a stream of distinct synthetic frames (seeded off
/// the calibration frame generator, so the bench input is as deterministic
/// as the probe input).
fn frame_stream() -> Vec<RgbImage> {
    (0..FRAMES)
        .map(|i| synthetic_frame(SIZE, SIZE, 0xA911 + i as u64))
        .collect()
}

/// Segments every frame in the stream with `plan`, reusing one label buffer
/// the way the serving pipeline's arena does.
fn drive(plan: &SegmentPlan, classifier: &IqftClassifier, frames: &[RgbImage]) {
    let mut labels = Vec::new();
    for frame in frames {
        plan.segment_rgb_into(classifier, frame, &mut labels);
    }
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_calibration");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    let frames = frame_stream();
    group.throughput(Throughput::Elements(
        frames.iter().map(|f| f.len() as u64).sum(),
    ));

    // Boot-time calibration, outside the measurement loop.
    let report = calibrate(&CalibrationConfig::default(), IqftClassifier::paper_default);
    let fixed = SegmentPlan::default();
    let calibrated = report.plan;
    eprintln!(
        "ablation_calibration: {} -> [{calibrated}]",
        report.summary()
    );

    let fixed_classifier = IqftClassifier::for_plan(&fixed);
    let calibrated_classifier = IqftClassifier::for_plan(&calibrated);

    // Determinism discipline: the calibrated plan must change only cost,
    // never labels.
    for frame in &frames {
        assert_eq!(
            calibrated.segment_rgb(&calibrated_classifier, frame),
            fixed.segment_rgb(&fixed_classifier, frame),
            "calibrated plan [{calibrated}] diverges from the default plan"
        );
    }

    group.bench_with_input(
        BenchmarkId::new("stream8_192px", "fixed_default"),
        &frames,
        |b, frames| {
            drive(&fixed, &fixed_classifier, frames);
            b.iter(|| drive(&fixed, &fixed_classifier, frames))
        },
    );

    // The winning spec rides in the bench id: `check_baselines` parses it
    // back out and a future reader can tell which plan this container chose.
    group.bench_with_input(
        BenchmarkId::new("stream8_192px", format!("calibrated[{calibrated}]")),
        &frames,
        |b, frames| {
            drive(&calibrated, &calibrated_classifier, frames);
            b.iter(|| drive(&calibrated, &calibrated_classifier, frames))
        },
    );
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
