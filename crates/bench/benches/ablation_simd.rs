//! Ablation A6: the split-table `simd` classifier against the eager f64
//! `PhaseTable`, measured on the bare row kernel.
//!
//! Every bench calls `PixelClassifier::classify_rgb_slice_into` on one flat
//! pixel buffer — no pipeline, no tiling, no buffer management — so the
//! numbers isolate the per-pixel classification cost.  Two inputs:
//!
//! * `voc8_1024px` — 8 VOC-like 1024×768 frames from the generator behind
//!   the loopback benchmark's `fresh_frames` workload, at its default
//!   config;
//! * `noise_1024px` — one 1024×768 frame of uniform noise, whose pixels
//!   land on random rows of the split table.
//!
//! Rows:
//!
//! * `phase_table`   — the eager f64 table (the oracle the split table is
//!   filled from),
//! * `simd_scalar`   — the split table pinned to its portable scalar loop,
//! * `simd_dispatch` — the split table at the runtime-detected kernel,
//! * `simd_cold`     — the first VOC-like frame on a fresh, unshared table
//!   per iteration, so it times the row fills a cold process pays once.
//!
//! Setup asserts every path labels both inputs identically to the f64
//! table, so a recorded win can never come from a kernel that diverges.
//!
//! Snapshot a baseline with
//! `CRITERION_JSON=BENCH_simd.json cargo bench --bench ablation_simd`;
//! `check_baselines` then enforces that `simd_dispatch` runs at least 2×
//! `phase_table` and `simd_scalar` beats it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use datasets::{PascalVocLikeConfig, PascalVocLikeDataset};
use imaging::{PixelClassifier, Rgb};
use iqft_seg::{IqftClassifier, SimdLevel, SplitTable};
use seg_engine::ClassifierKind;
use std::time::Duration;

const FRAMES: usize = 8;
const WIDTH: usize = 1024;
const HEIGHT: usize = 768;

/// The 8 VOC-like frames, one flat buffer.
fn voc_pixels() -> Vec<Rgb<u8>> {
    let voc = PascalVocLikeDataset::new(PascalVocLikeConfig {
        len: FRAMES,
        width: WIDTH,
        height: HEIGHT,
        ..PascalVocLikeConfig::default()
    });
    (0..FRAMES)
        .flat_map(|i| voc.sample(i).image.as_slice().to_vec())
        .collect()
}

/// One frame of uniform noise (splitmix64 per pixel).
fn noise_pixels() -> Vec<Rgb<u8>> {
    (0..WIDTH * HEIGHT)
        .map(|i| {
            let mut z = (i as u64)
                .wrapping_add(1)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            Rgb::new(z as u8, (z >> 8) as u8, (z >> 16) as u8)
        })
        .collect()
}

fn labels_of(classifier: &dyn PixelClassifier, pixels: &[Rgb<u8>]) -> Vec<u32> {
    let mut out = vec![0u32; pixels.len()];
    classifier.classify_rgb_slice_into(pixels, &mut out);
    out
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_simd");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    let table = IqftClassifier::paper_default(ClassifierKind::Table);
    let scalar = SplitTable::paper_default().with_simd(SimdLevel::Scalar);
    let dispatch = IqftClassifier::paper_default(ClassifierKind::Simd);
    let voc = voc_pixels();
    let noise = noise_pixels();

    for (input, pixels) in [("voc8_1024px", &voc), ("noise_1024px", &noise)] {
        // The exactness contract, asserted before anything is timed.
        let reference = labels_of(&table, pixels);
        assert_eq!(labels_of(&scalar, pixels), reference, "{input}");
        assert_eq!(labels_of(&dispatch, pixels), reference, "{input}");
        assert_eq!(labels_of(&scalar.cold(), pixels), reference, "{input}");

        group.throughput(Throughput::Elements(pixels.len() as u64));
        let mut out = vec![0u32; pixels.len()];
        for (row, classifier) in [
            ("phase_table", &table as &dyn PixelClassifier),
            ("simd_scalar", &scalar),
            ("simd_dispatch", &dispatch),
        ] {
            group.bench_with_input(BenchmarkId::new(input, row), pixels, |b, pixels| {
                b.iter(|| classifier.classify_rgb_slice_into(pixels, &mut out))
            });
        }
    }

    // One frame, one fresh table per iteration: the fills dominate.
    let frame = &voc[..WIDTH * HEIGHT];
    let warm = SplitTable::paper_default();
    let mut out = vec![0u32; frame.len()];
    group.throughput(Throughput::Elements(frame.len() as u64));
    group.bench_with_input(
        BenchmarkId::new("voc1_1024px", "simd_cold"),
        frame,
        |b, frame| b.iter(|| warm.cold().classify_rgb_slice_into(frame, &mut out)),
    );

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
