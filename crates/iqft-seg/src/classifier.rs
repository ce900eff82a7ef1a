//! [`IqftClassifier`] — the concrete classifier behind a [`ClassifierKind`].
//!
//! `seg-engine`'s [`SegmentPlan`] names classifier
//! *families* without knowing any algorithm; this module materialises the
//! paper's RGB algorithm for each family.  All variants label every
//! pixel identically (the phase-table and split-table paths are
//! byte-identical to the exact path by construction), so a plan can switch
//! kinds freely without changing a single output label — only throughput
//! changes.

use crate::phase_table::PhaseTable;
use crate::rgb::IqftRgbSegmenter;
use crate::split::{SimdLevel, SplitTable};
use crate::theta::ThetaParams;
use imaging::{LabelMap, Luma, PixelClassifier, Rgb, RgbImage, Segmenter};
use seg_engine::{ClassifierKind, SegmentPlan};

/// The paper's RGB algorithm materialised for a
/// [`ClassifierKind`]: one enum that any plan-driven caller (the throughput
/// pipeline, the bench sweeps, the CLI) can build from a flag and hand to an
/// engine.
///
/// # Example
///
/// ```
/// use imaging::{Rgb, RgbImage};
/// use iqft_seg::IqftClassifier;
/// use seg_engine::{ClassifierKind, SegmentPlan};
///
/// let img = RgbImage::from_fn(40, 30, |x, y| Rgb::new((x * 6) as u8, (y * 8) as u8, 77));
/// let plan: SegmentPlan = "backend=threads:2".parse().unwrap();
/// let reference = IqftClassifier::paper_default(ClassifierKind::Exact).segment_rgb(&img);
/// for kind in ClassifierKind::ALL {
///     let classifier = IqftClassifier::paper_default(kind);
///     // Same labels for every kind, on any backend.
///     assert_eq!(plan.segment_rgb(&classifier, &img), reference);
/// }
/// ```
#[derive(Debug)]
pub enum IqftClassifier {
    /// Direct statevector-equivalent math per pixel.
    Exact(IqftRgbSegmenter),
    /// Eager precomputed phase table (three lookups per pixel).
    Table(PhaseTable),
    /// One lookup per pixel in the shared, lazily filled split table (AVX2
    /// gather kernel, or the portable scalar loop off x86-64 and under
    /// `IQFT_SIMD=off`).
    Simd(SplitTable),
}

impl IqftClassifier {
    /// Builds the classifier family `kind` for the given angle parameters.
    /// `Simd` builds the `Table` variant when the blue phase span exceeds π
    /// and rows along b would not split (see [`SplitTable`]).
    pub(crate) fn build(kind: ClassifierKind, thetas: ThetaParams) -> Self {
        let exact = IqftRgbSegmenter::new(thetas);
        match kind {
            ClassifierKind::Exact => IqftClassifier::Exact(exact),
            ClassifierKind::Table => IqftClassifier::Table(PhaseTable::from_segmenter(&exact)),
            ClassifierKind::Simd => match SplitTable::for_segmenter(&exact) {
                Some(split) => IqftClassifier::Simd(split),
                None => IqftClassifier::Table(PhaseTable::from_segmenter(&exact)),
            },
        }
    }

    /// Builds the classifier family `kind` with the paper's headline
    /// configuration (`θ1 = θ2 = θ3 = π`).
    pub fn paper_default(kind: ClassifierKind) -> Self {
        Self::build(kind, ThetaParams::paper_default())
    }

    /// Builds the classifier a plan selects (its
    /// [`SegmentPlan::classifier`] kind) with the paper's headline angles.
    pub fn for_plan(plan: &SegmentPlan) -> Self {
        Self::paper_default(plan.classifier())
    }

    /// The kernel the split-table variant classifies with (`None` for the
    /// other variants).
    pub fn simd_level(&self) -> Option<SimdLevel> {
        match self {
            IqftClassifier::Simd(table) => Some(table.simd_level()),
            _ => None,
        }
    }

    /// Classifies one pixel — identical across all variants.
    pub(crate) fn classify(&self, pixel: Rgb<u8>) -> u32 {
        match self {
            IqftClassifier::Exact(seg) => seg.classify(pixel),
            IqftClassifier::Table(table) => table.classify(pixel),
            IqftClassifier::Simd(table) => table.classify(pixel),
        }
    }

    /// Segments a whole image on the wrapped segmenter's engine.
    pub fn segment_rgb(&self, img: &RgbImage) -> LabelMap {
        match self {
            IqftClassifier::Exact(seg) => seg.segment_rgb(img),
            IqftClassifier::Table(table) => table.segment_rgb(img),
            IqftClassifier::Simd(table) => table.segment_rgb(img),
        }
    }
}

impl PixelClassifier for IqftClassifier {
    fn classify_rgb_pixel(&self, pixel: Rgb<u8>) -> u32 {
        self.classify(pixel)
    }

    fn classify_gray_pixel(&self, pixel: Luma<u8>) -> u32 {
        let v = pixel.value();
        self.classify(Rgb::new(v, v, v))
    }

    fn min_pixels_per_thread(&self) -> usize {
        match self {
            IqftClassifier::Simd(table) => table.min_pixels_per_thread(),
            _ => 1,
        }
    }

    fn classify_rgb_slice_into(&self, pixels: &[Rgb<u8>], out: &mut [u32]) {
        match self {
            // The split table has a batched row kernel; forward so every
            // bulk path (engine chunks, tile rows) picks it up.
            IqftClassifier::Simd(table) => {
                table.classify_slice(pixels, out);
            }
            _ => {
                assert_eq!(
                    pixels.len(),
                    out.len(),
                    "label slice does not match the pixel slice"
                );
                for (label, &pixel) in out.iter_mut().zip(pixels) {
                    *label = self.classify(pixel);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seg_engine::SegmentEngine;

    /// The [`ClassifierKind`] a classifier materialises.
    fn kind_of(classifier: &IqftClassifier) -> ClassifierKind {
        match classifier {
            IqftClassifier::Exact(_) => ClassifierKind::Exact,
            IqftClassifier::Table(_) => ClassifierKind::Table,
            IqftClassifier::Simd(_) => ClassifierKind::Simd,
        }
    }

    fn test_image() -> RgbImage {
        RgbImage::from_fn(31, 22, |x, y| {
            Rgb::new((x * 9) as u8, (y * 13) as u8, ((x * y) % 256) as u8)
        })
    }

    #[test]
    fn every_kind_builds_its_matching_variant() {
        for kind in ClassifierKind::ALL {
            let classifier = IqftClassifier::paper_default(kind);
            assert_eq!(kind_of(&classifier), kind);
        }
    }

    #[test]
    fn all_kinds_classify_identically() {
        let thetas = ThetaParams::new(1.3, 2.9, 0.4);
        let exact = IqftClassifier::build(ClassifierKind::Exact, thetas);
        for kind in [ClassifierKind::Table, ClassifierKind::Simd] {
            let other = IqftClassifier::build(kind, thetas);
            for pixel in [
                Rgb::new(0, 0, 0),
                Rgb::new(255, 255, 255),
                Rgb::new(13, 200, 77),
                Rgb::new(254, 1, 128),
            ] {
                assert_eq!(other.classify(pixel), exact.classify(pixel), "{kind}");
                assert_eq!(
                    other.classify_rgb_pixel(pixel),
                    exact.classify_rgb_pixel(pixel)
                );
            }
            let v = Luma(190u8);
            assert_eq!(other.classify_gray_pixel(v), exact.classify_gray_pixel(v));
        }
    }

    /// Every kind labels a frame identically whole, through the plan on
    /// either backend, and tile by tile through its view path — the unit
    /// the per-tile delta cache re-classifies — on 64×64 tiles that leave
    /// ragged edges.
    #[test]
    fn plan_dispatch_is_byte_identical_across_kinds_and_tilings() {
        let img = RgbImage::from_fn(150, 70, |x, y| {
            Rgb::new((x * 9) as u8, (y * 13) as u8, ((x * y) % 256) as u8)
        });
        let reference = IqftClassifier::paper_default(ClassifierKind::Exact).segment_rgb(&img);
        let (tile_w, tile_h) = SegmentPlan::default().tiling().delta_shape();
        for kind in ClassifierKind::ALL {
            let classifier = IqftClassifier::paper_default(kind);
            for backend in [xpar::Backend::Serial, xpar::Backend::Threads(3)] {
                let plan = SegmentPlan::new(kind, backend);
                assert_eq!(
                    plan.segment_rgb(&classifier, &img),
                    reference,
                    "{kind} {backend:?}"
                );
            }
            let mut stitched = LabelMap::new(150, 70, u32::MAX);
            for rect in img.tile_rects(tile_w, tile_h) {
                let tile = img.view(rect).unwrap();
                classifier.classify_rgb_view_into(&tile, &mut stitched.view_mut(rect).unwrap());
            }
            assert_eq!(stitched, reference, "{kind} {tile_w}x{tile_h} tiles");
        }
    }

    #[test]
    fn for_plan_builds_the_planned_kind() {
        let plan = SegmentPlan::default().with_classifier(ClassifierKind::Exact);
        assert_eq!(
            kind_of(&IqftClassifier::for_plan(&plan)),
            ClassifierKind::Exact
        );
        // And the classifier runs through an engine like any PixelClassifier.
        let img = test_image();
        let labels = SegmentEngine::serial().segment_rgb(&IqftClassifier::for_plan(&plan), &img);
        assert_eq!(labels.dimensions(), img.dimensions());
    }

    /// Only the split table asks the engine for big frames before it
    /// splits them; every other kind keeps the default of 1.
    #[test]
    fn only_the_split_table_raises_the_thread_minimum() {
        for kind in ClassifierKind::ALL {
            let classifier = IqftClassifier::paper_default(kind);
            let expected = match kind {
                ClassifierKind::Simd => 1 << 20,
                _ => 1,
            };
            assert_eq!(classifier.min_pixels_per_thread(), expected, "{kind}");
        }
    }

    #[test]
    fn quant_pins_scalar_and_simd_dispatches() {
        // A split table pinned to the scalar loop reports that pin through
        // the enum; the `simd` kind dispatches to a supported level.
        let scalar = IqftClassifier::Simd(SplitTable::paper_default().with_simd(SimdLevel::Scalar));
        assert_eq!(kind_of(&scalar), ClassifierKind::Simd);
        assert_eq!(scalar.simd_level(), Some(SimdLevel::Scalar));
        let simd = IqftClassifier::paper_default(ClassifierKind::Simd);
        assert!(simd.simd_level().unwrap().is_supported());
        let exact = IqftClassifier::paper_default(ClassifierKind::Exact);
        assert_eq!(exact.simd_level(), None);
    }

    #[test]
    fn white_takes_its_exception_row_through_the_enum() {
        // White under θ = π ties states 3 and 5 in real arithmetic; its
        // row stores every label, and the enum's slice path returns the
        // oracle's winner.
        let simd = IqftClassifier::paper_default(ClassifierKind::Simd);
        let white = Rgb::new(255, 255, 255);
        let mut out = [0u32; 3];
        simd.classify_rgb_slice_into(&[white; 3], &mut out);
        assert_eq!(out, [3, 3, 3]);
    }

    #[test]
    fn simd_kind_builds_the_phase_table_when_blue_spans_more_than_pi() {
        let thetas = ThetaParams::new(1.0, 2.0, 3.5);
        let simd = IqftClassifier::build(ClassifierKind::Simd, thetas);
        assert_eq!(kind_of(&simd), ClassifierKind::Table);
        assert_eq!(simd.simd_level(), None);
        let exact = IqftClassifier::build(ClassifierKind::Exact, thetas);
        for pixel in [
            Rgb::new(0, 0, 0),
            Rgb::new(255, 255, 255),
            Rgb::new(9, 99, 199),
        ] {
            assert_eq!(simd.classify(pixel), exact.classify(pixel));
        }
    }
}
