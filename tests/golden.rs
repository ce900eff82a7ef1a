//! Golden digests of the exact IQFT oracle's labels.
//!
//! Every fast path (quantized tables, SIMD kernels, tiling, caching, the
//! wire) is checked for byte-identity against the exact oracle, so a drift
//! shared by the oracle itself would go unnoticed by those suites.  This test
//! pins the oracle: for the first 8 images of the harness's default
//! VOC-like and xView-like sets (seed 42, 160 px frames, built exactly as
//! `experiments::tables::table3_run` builds them) it digests the labels of
//! `IqftRgbSegmenter::paper_default()` and `IqftGraySegmenter::paper_default()`
//! and compares against `tests/golden/oracle_labels.txt`.
//!
//! The digest is 128-bit FNV-1a over one byte per label, defined here rather
//! than borrowed from the result cache, so neither a new cache hash nor a
//! narrower label type changes the golden.  On a mismatch the failure
//! message carries the first differing line and the full regenerated file;
//! blessing a deliberate change is a copy of that text.

use datasets::{
    LabeledImage, PascalVocLikeConfig, PascalVocLikeDataset, XViewLikeConfig, XViewLikeDataset,
};
use imaging::{LabelMap, Segmenter};
use iqft_seg::{IqftGraySegmenter, IqftRgbSegmenter};

const GOLDEN: &str = include_str!("golden/oracle_labels.txt");

/// Images taken from the front of each dataset.
const IMAGES: usize = 8;
/// The harness's default seed and frame size (`iqft-experiments table3`).
const SEED: u64 = 42;
const SIZE: usize = 160;

/// 128-bit FNV-1a over one byte per label.
fn label_digest(labels: &LabelMap) -> u128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013b;
    labels.as_slice().iter().fold(OFFSET, |hash, &label| {
        let byte = u8::try_from(label).expect("oracle labels fit in one byte");
        (hash ^ u128::from(byte)).wrapping_mul(PRIME)
    })
}

fn voc_images() -> Vec<LabeledImage> {
    let dataset = PascalVocLikeDataset::new(PascalVocLikeConfig {
        width: SIZE,
        height: SIZE * 3 / 4,
        seed: SEED,
        ..PascalVocLikeConfig::default()
    });
    (0..IMAGES).map(|i| dataset.sample(i)).collect()
}

fn xview_images() -> Vec<LabeledImage> {
    let dataset = XViewLikeDataset::new(XViewLikeConfig {
        width: SIZE,
        height: SIZE,
        seed: SEED.wrapping_add(1),
        ..XViewLikeConfig::default()
    });
    (0..IMAGES).map(|i| dataset.sample(i)).collect()
}

/// The golden file's text, one line per (dataset, image, method).
fn regenerate() -> String {
    let methods: [(&str, Box<dyn Segmenter>); 2] = [
        ("iqft_rgb", Box::new(IqftRgbSegmenter::paper_default())),
        ("iqft_gray", Box::new(IqftGraySegmenter::paper_default())),
    ];
    let mut out = String::new();
    for (dataset, images) in [("voc", voc_images()), ("xview", xview_images())] {
        for (index, sample) in images.iter().enumerate() {
            let (width, height) = sample.image.dimensions();
            for (method, segmenter) in &methods {
                let digest = label_digest(&segmenter.segment_rgb(&sample.image));
                out.push_str(&format!(
                    "{dataset} {index} {width}x{height} {method} {digest:032x}\n"
                ));
            }
        }
    }
    out
}

#[test]
fn exact_oracle_labels_match_the_golden_digests() {
    let actual = regenerate();
    if actual == GOLDEN {
        return;
    }
    let first_diff = actual
        .lines()
        .zip(GOLDEN.lines())
        .enumerate()
        .find(|(_, (a, g))| a != g)
        .map(|(n, (a, g))| format!("line {}: golden `{g}`, regenerated `{a}`", n + 1))
        .unwrap_or_else(|| {
            format!(
                "line counts differ: golden {}, regenerated {}",
                GOLDEN.lines().count(),
                actual.lines().count()
            )
        });
    panic!(
        "exact-oracle labels drifted from tests/golden/oracle_labels.txt\n\
         first difference: {first_diff}\n\
         regenerated file (copy it over the golden only for a deliberate change):\n{actual}"
    );
}
