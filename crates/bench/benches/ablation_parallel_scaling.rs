//! Ablation A1: parallel scaling of the RGB segmenter (DESIGN.md §4).
//!
//! Exercises the `SegmentEngine` across image sizes and execution policies —
//! serial, and the scoped-thread backend at 1/2/4/8 threads and with one
//! worker per core.  `BENCH_parallel_scaling.json` at the repo root
//! snapshots a baseline of this target (see the criterion shim's
//! `CRITERION_JSON` export).

use bench::synthetic_rgb;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use iqft_seg::{IqftRgbSegmenter, SegmentEngine};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_parallel_scaling");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    for size in [128usize, 256] {
        let img = synthetic_rgb(size, size, 9);
        group.throughput(Throughput::Elements((size * size) as u64));
        let mut engines: Vec<(String, SegmentEngine)> =
            vec![("serial".to_string(), SegmentEngine::serial())];
        for threads in [1usize, 2, 4, 8] {
            engines.push((
                format!("threads_{threads}"),
                SegmentEngine::with_threads(threads),
            ));
        }
        engines.push(("threads_all".to_string(), SegmentEngine::with_threads(0)));
        for (name, engine) in engines {
            group.bench_with_input(
                BenchmarkId::new(format!("{size}x{size}"), name),
                &img,
                |b, img| {
                    let seg = IqftRgbSegmenter::paper_default();
                    b.iter(|| engine.segment_rgb(&seg, img))
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
