//! The common interface every segmentation algorithm in the workspace
//! implements (the IQFT-inspired methods and the K-means / Otsu baselines),
//! plus the per-pixel contract ([`PixelClassifier`]) the parallel
//! `SegmentEngine` (crate `seg-engine`) exploits to execute any such
//! algorithm with a runtime-selectable backend.

use crate::pixel::{Luma, Rgb};
use crate::view::{ImageView, LabelViewMut};
use crate::{GrayImage, LabelMap, RgbImage};

/// An unsupervised image segmenter.
///
/// Implementations return a dense [`LabelMap`]: one `u32` segment id per
/// pixel.  There is no requirement that ids are contiguous or start at 0 —
/// downstream consumers use [`crate::labels::binarize`] when a binary form
/// is needed.
pub trait Segmenter {
    /// A short human-readable name used in experiment tables (e.g. "K-means").
    fn name(&self) -> &str;

    /// Segments an RGB image.
    fn segment_rgb(&self, img: &RgbImage) -> LabelMap;

    /// Segments a grayscale image.  The default converts the image to RGB by
    /// channel replication and calls [`Segmenter::segment_rgb`]; grayscale-
    /// native algorithms override this.
    fn segment_gray(&self, img: &GrayImage) -> LabelMap {
        self.segment_rgb(&crate::color::gray_to_rgb(img))
    }
}

/// A segmentation rule whose label for a pixel depends only on that pixel.
///
/// This is the contract the parallel `SegmentEngine` exploits: because each
/// label is a pure function of one pixel, the label buffer can be filled in
/// disjoint chunks on any number of threads and the result is byte-identical
/// to a serial pass.  All of the paper's methods have this shape (the IQFT
/// segmenters classify pixels independently; Otsu and K-means do after their
/// global fitting step).
///
/// Closures `Fn(Rgb<u8>) -> u32` implement the trait directly, so fitted
/// models can hand the engine a lightweight classification rule without
/// defining a type.
pub trait PixelClassifier {
    /// Label for one RGB pixel.
    fn classify_rgb_pixel(&self, pixel: Rgb<u8>) -> u32;

    /// Label for one grayscale pixel.  The default replicates the intensity
    /// into all channels, mirroring [`Segmenter::segment_gray`]; grayscale-
    /// native rules override this.
    fn classify_gray_pixel(&self, pixel: Luma<u8>) -> u32 {
        let v = pixel.value();
        self.classify_rgb_pixel(Rgb::new(v, v, v))
    }

    /// Classifies a contiguous run of RGB pixels into a matching label
    /// slice — the batch-level hook every bulk execution path routes
    /// through.
    ///
    /// The `SegmentEngine`'s chunk-parallel whole-image pass hands each
    /// worker's chunk here, and the view/tile row loop
    /// ([`PixelClassifier::classify_rgb_view_into`]) hands each contiguous
    /// row here, so a classifier that can batch work — e.g. a SIMD kernel
    /// over a row — overrides this one method and accelerates every
    /// execution path (whole-image, tiled, pipelined, served) at once.
    ///
    /// The default is a per-pixel loop, byte-identical to calling
    /// [`PixelClassifier::classify_rgb_pixel`] on each element; overrides
    /// must preserve that equivalence so backends, tilings and batch sizes
    /// stay interchangeable.
    ///
    /// An implementation writes every element of `out`: callers hand in
    /// recycled buffers without zeroing them, so a label left unwritten
    /// would be whatever the buffer held before.
    ///
    /// # Panics
    ///
    /// Panics if `pixels` and `out` differ in length.
    fn classify_rgb_slice_into(&self, pixels: &[Rgb<u8>], out: &mut [u32]) {
        assert_eq!(
            pixels.len(),
            out.len(),
            "label slice does not match the pixel slice"
        );
        for (label, &pixel) in out.iter_mut().zip(pixels) {
            *label = self.classify_rgb_pixel(pixel);
        }
    }

    /// Grayscale counterpart of [`PixelClassifier::classify_rgb_slice_into`].
    ///
    /// # Panics
    ///
    /// Panics if `pixels` and `out` differ in length.
    fn classify_gray_slice_into(&self, pixels: &[Luma<u8>], out: &mut [u32]) {
        assert_eq!(
            pixels.len(),
            out.len(),
            "label slice does not match the pixel slice"
        );
        for (label, &pixel) in out.iter_mut().zip(pixels) {
            *label = self.classify_gray_pixel(pixel);
        }
    }

    /// Classifies every pixel of an RGB view into a matching label view,
    /// row by row — the zero-copy tile work unit behind `segment_tiled`.
    ///
    /// Each contiguous row goes through
    /// [`PixelClassifier::classify_rgb_slice_into`], so a classifier with a
    /// batched row kernel accelerates tiles for free.  Because each label is
    /// a pure function of its own pixel, classifying a tile this way writes
    /// exactly the labels a whole-image pass would, so any tile
    /// decomposition reassembles byte-identically.
    ///
    /// An implementation writes every element of `out`, as
    /// [`PixelClassifier::classify_rgb_slice_into`] does.
    ///
    /// # Panics
    ///
    /// Panics if `view` and `out` differ in dimensions.
    fn classify_rgb_view_into(&self, view: &ImageView<'_, Rgb<u8>>, out: &mut LabelViewMut<'_>) {
        assert_eq!(
            view.dimensions(),
            out.dimensions(),
            "label view does not match the pixel view"
        );
        for y in 0..view.height() {
            self.classify_rgb_slice_into(view.row(y), out.row_mut(y));
        }
    }

    /// Grayscale counterpart of [`PixelClassifier::classify_rgb_view_into`].
    ///
    /// # Panics
    ///
    /// Panics if `view` and `out` differ in dimensions.
    fn classify_gray_view_into(&self, view: &ImageView<'_, Luma<u8>>, out: &mut LabelViewMut<'_>) {
        assert_eq!(
            view.dimensions(),
            out.dimensions(),
            "label view does not match the pixel view"
        );
        for y in 0..view.height() {
            self.classify_gray_slice_into(view.row(y), out.row_mut(y));
        }
    }
}

impl<F: Fn(Rgb<u8>) -> u32> PixelClassifier for F {
    fn classify_rgb_pixel(&self, pixel: Rgb<u8>) -> u32 {
        self(pixel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pixel::{Luma, Rgb};

    /// A trivial segmenter used to exercise the trait's default method.
    struct BrightnessHalver;

    impl Segmenter for BrightnessHalver {
        fn name(&self) -> &str {
            "halver"
        }

        fn segment_rgb(&self, img: &RgbImage) -> LabelMap {
            img.map(|p| u32::from(crate::color::luma_of(p) >= 0.5))
        }
    }

    #[test]
    fn default_gray_path_replicates_channels() {
        let gray = GrayImage::from_fn(2, 1, |x, _| Luma(if x == 0 { 10 } else { 250 }));
        let seg = BrightnessHalver;
        assert_eq!(seg.name(), "halver");
        let labels = seg.segment_gray(&gray);
        assert_eq!(labels.get(0, 0), 0);
        assert_eq!(labels.get(1, 0), 1);
        // And the RGB path agrees with a manual conversion.
        let rgb = crate::color::gray_to_rgb(&gray);
        assert_eq!(seg.segment_rgb(&rgb), labels);
        let bright = RgbImage::new(1, 1, Rgb::WHITE);
        assert_eq!(seg.segment_rgb(&bright).get(0, 0), 1);
    }

    #[test]
    fn view_classification_matches_per_pixel_classification() {
        use crate::view::TileRect;

        let img = RgbImage::from_fn(9, 6, |x, y| Rgb::new((x * 28) as u8, (y * 40) as u8, 90));
        let rule = |p: Rgb<u8>| u32::from(p.r() as u16 + p.g() as u16 > 255);
        let rect = TileRect::new(2, 1, 5, 4);
        let view = img.view(rect).unwrap();
        let mut labels = LabelMap::new(9, 6, u32::MAX);
        rule.classify_rgb_view_into(&view, &mut labels.view_mut(rect).unwrap());
        for y in 0..img.height() {
            for x in 0..img.width() {
                let inside = x >= rect.x
                    && x < rect.x + rect.width
                    && y >= rect.y
                    && y < rect.y + rect.height;
                let expected = if inside {
                    rule.classify_rgb_pixel(img.get(x, y))
                } else {
                    u32::MAX
                };
                assert_eq!(labels.get(x, y), expected, "({x}, {y})");
            }
        }
    }

    #[test]
    fn gray_view_classification_uses_the_gray_rule() {
        use crate::view::LabelViewMut;

        struct Parity;
        impl PixelClassifier for Parity {
            fn classify_rgb_pixel(&self, p: Rgb<u8>) -> u32 {
                u32::from(p.r()) % 2
            }
            fn classify_gray_pixel(&self, p: Luma<u8>) -> u32 {
                u32::from(p.value()) % 2
            }
        }
        let img = GrayImage::from_fn(5, 3, |x, y| Luma((x * 3 + y) as u8));
        let mut buf = vec![0u32; img.len()];
        let mut out = LabelViewMut::contiguous(&mut buf, 5, 3).unwrap();
        Parity.classify_gray_view_into(&img.as_view(), &mut out);
        for (x, y, p) in img.enumerate_pixels() {
            assert_eq!(buf[y * 5 + x], u32::from(p.value()) % 2);
        }
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn view_classification_rejects_mismatched_shapes() {
        let img = RgbImage::new(4, 4, Rgb::BLACK);
        let rule = |_: Rgb<u8>| 0u32;
        let mut buf = vec![0u32; 6];
        let mut out = crate::view::LabelViewMut::contiguous(&mut buf, 3, 2).unwrap();
        rule.classify_rgb_view_into(&img.as_view(), &mut out);
    }
}
