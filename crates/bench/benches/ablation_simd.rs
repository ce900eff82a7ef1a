//! Ablation A6: the quantized / SIMD classification hot path against the
//! eager f64 `PhaseTable`, measured on the bare row kernel.
//!
//! Every bench calls `PixelClassifier::classify_rgb_slice_into` on one flat
//! pixel buffer — no pipeline, no tiling, no buffer management — so the
//! numbers isolate the per-pixel classification cost the quantization is
//! meant to cut.  Three headline rows feed the recorded baseline:
//!
//! * `phase_table`   — the eager f64 table (the previous fast path),
//! * `quant_scalar`  — the i16 quantized kernel pinned to portable scalar,
//! * `simd_dispatch` — the quantized kernel at the runtime-detected level.
//!
//! The remaining `kernel_*` rows pin each supported `std::arch` level for
//! diagnosis.  Setup asserts all paths produce byte-identical labels — the
//! exactness-oracle contract — so a recorded throughput win can never come
//! from a kernel that quietly diverges.
//!
//! Snapshot a baseline with
//! `CRITERION_JSON=BENCH_simd.json cargo bench --bench ablation_simd`;
//! `check_baselines` then enforces that `simd_dispatch` beats `phase_table`
//! by the recorded margin.

use bench::synthetic_rgb;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use imaging::{PixelClassifier, Rgb};
use iqft_seg::{IqftClassifier, QuantizedPhaseTable, SimdLevel};
use seg_engine::ClassifierKind;
use std::time::Duration;

const IMAGES: usize = 16;
const SIZE: usize = 96;

/// One flat buffer holding the same 16-image synthetic batch the pipeline
/// ablations stream, so per-pixel rates are comparable across baselines.
fn flat_pixels() -> Vec<Rgb<u8>> {
    (0..IMAGES)
        .flat_map(|i| {
            synthetic_rgb(SIZE, SIZE * 3 / 4, 100 + i as u64)
                .as_slice()
                .to_vec()
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
    let pixels = flat_pixels();
    group.throughput(Throughput::Elements(pixels.len() as u64));

    let table = IqftClassifier::paper_default(ClassifierKind::Table);
    let quant = QuantizedPhaseTable::paper_default().with_simd(SimdLevel::Scalar);
    let simd = IqftClassifier::paper_default(ClassifierKind::Simd);
    let levels: Vec<QuantizedPhaseTable> = SimdLevel::ALL
        .iter()
        .filter(|level| level.is_supported())
        .map(|&level| QuantizedPhaseTable::paper_default().with_simd(level))
        .collect();

    // The exactness contract, asserted before anything is timed: every
    // quantized path must label the bench buffer byte-identically to the
    // f64 table, so a recorded win cannot come from a divergent kernel.
    let reference = labels_of(&table, &pixels);
    assert_eq!(labels_of(&quant, &pixels), reference);
    assert_eq!(labels_of(&simd, &pixels), reference);
    for kernel in &levels {
        assert_eq!(labels_of(kernel, &pixels), reference);
    }

    let mut run = |label: &str, classifier: &dyn PixelClassifier| {
        let mut out = vec![0u32; pixels.len()];
        group.bench_with_input(
            BenchmarkId::new("classify_rgb", label),
            &pixels,
            |b, pixels| b.iter(|| classifier.classify_rgb_slice_into(pixels, &mut out)),
        );
    };
    run("phase_table", &table);
    run("quant_scalar", &quant);
    run("simd_dispatch", &simd);
    for kernel in &levels {
        if kernel.simd_level() != SimdLevel::Scalar {
            run(&format!("kernel_{}", kernel.simd_level().name()), kernel);
        }
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
