#![warn(missing_docs)]
//! `seg-engine` — the backend-aware parallel segmentation engine.
//!
//! Every segmentation algorithm in this workspace classifies pixels
//! independently once its (optional) global fitting step has run — the shape
//! [`imaging::PixelClassifier`] captures.  This crate owns the *execution* of
//! that shape: a [`SegmentEngine`] holds an [`xpar::Backend`] (serial, or
//! scoped threads with a thread count) and provides
//!
//! * [`SegmentEngine::segment_rgb`] / [`SegmentEngine::segment_gray`] —
//!   chunk-parallel per-pixel classification over the label buffer
//!   (`xpar::par_for_each_chunk_mut` underneath), byte-identical to a serial
//!   pass for any backend and thread count;
//! * [`SegmentEngine::segment_tiled`] / [`SegmentEngine::segment_tiled_into`]
//!   — tile-level work distribution for large images: the image is split
//!   into zero-copy [`imaging::ImageView`] tiles which are classified as
//!   independent jobs and stitched back in deterministic order,
//!   byte-identical to the whole-image pass by construction;
//! * [`SegmentEngine::map_images`] — batched multi-image evaluation
//!   (`Backend::map_indexed` over a dataset slice), used by the experiment
//!   harness to score whole datasets in parallel;
//! * [`SegmentEngine::map_indexed`] — the raw indexed map for irregular
//!   workloads (e.g. the K-means assignment step).
//!
//! The `plan` module lifts the *choice* of strategy into a first-class
//! value: a [`SegmentPlan`] owns classifier family ([`ClassifierKind`]) ×
//! work decomposition ([`Tiling`]) × backend, and is the single dispatch
//! point every harness-level caller routes through.
//!
//! The algorithm crates (`iqft-seg`, `baselines`) route their `Segmenter`
//! implementations through an engine, and the `iqft-experiments` binary
//! exposes the engine's knob as `--backend serial|threads --threads N`,
//! so one flag controls parallelism across every layer of the workspace.
//! The `_into` variants ([`SegmentEngine::segment_rgb_into`]) fill a
//! caller-provided buffer, which is what the `iqft-pipeline` crate's arena
//! recycling builds on.
//!
//! # Example
//!
//! ```
//! use imaging::{Rgb, RgbImage};
//! use seg_engine::SegmentEngine;
//!
//! let img = RgbImage::from_fn(16, 16, |x, y| Rgb::new((x * 16) as u8, (y * 16) as u8, 0));
//! // Closures implement `PixelClassifier`, so a fitted model can hand the
//! // engine a lightweight rule.
//! let rule = |p: Rgb<u8>| u32::from(p.r() as u16 + p.g() as u16 > 255);
//! let serial = SegmentEngine::serial().segment_rgb(&rule, &img);
//! let parallel = SegmentEngine::with_threads(4).segment_rgb(&rule, &img);
//! assert_eq!(serial, parallel); // byte-identical on every backend
//! ```

pub mod calibrate;
pub(crate) mod plan;

pub use calibrate::{CalibrationConfig, CalibrationReport};
pub use plan::{ClassifierKind, SegmentPlan, Tiling};

use imaging::view::{LabelViewMut, TileRect};
use imaging::{GrayImage, LabelMap, PixelClassifier, RgbImage};
use xpar::Backend;

/// Executes pixel classifiers and dataset sweeps on a configured
/// [`xpar::Backend`].
///
/// The engine is `Copy` and trivially cheap to construct; segmenters hold one
/// by value and the harness passes one down the call tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SegmentEngine {
    backend: Backend,
}

impl SegmentEngine {
    /// Creates an engine executing on `backend`.
    pub fn new(backend: Backend) -> Self {
        Self { backend }
    }

    /// An engine that runs everything on the calling thread.
    pub fn serial() -> Self {
        Self::new(Backend::Serial)
    }

    /// An engine using the scoped-thread substrate with `threads` workers
    /// (0 = one per available core).
    pub fn with_threads(threads: usize) -> Self {
        Self::new(Backend::Threads(threads))
    }

    /// Parses the harness flags `--backend serial|threads` and `--threads N`
    /// into an engine.
    ///
    /// `threads` is only meaningful for the `threads` backend (0 = one per
    /// core); `serial` ignores it.
    pub fn from_flags(backend: &str, threads: usize) -> Result<Self, String> {
        match backend {
            "serial" => Ok(Self::serial()),
            "threads" => Ok(Self::with_threads(threads)),
            other => Err(format!(
                "unknown backend '{other}' (expected serial or threads)"
            )),
        }
    }

    /// The configured execution backend.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Effective worker-thread count of the configured backend.
    pub fn threads(&self) -> usize {
        self.backend.effective_threads()
    }

    /// Classifies every pixel of `img` with `classifier`, filling the label
    /// buffer in disjoint parallel chunks.
    ///
    /// The output is byte-identical across backends and thread counts because
    /// each label depends only on its own pixel.
    pub fn segment_rgb<C>(&self, classifier: &C, img: &RgbImage) -> LabelMap
    where
        C: PixelClassifier + Sync + ?Sized,
    {
        let (w, h) = img.dimensions();
        let mut labels = Vec::new();
        self.segment_rgb_into(classifier, img, &mut labels);
        LabelMap::from_vec(w, h, labels).expect("label buffer matches image size")
    }

    /// Allocation-reusing variant of [`SegmentEngine::segment_rgb`]: resizes
    /// `labels` to the pixel count in place and overwrites every element, so
    /// none of a recycled buffer's old contents survive and only a grown
    /// tail is ever zeroed.
    ///
    /// When `labels` already has sufficient capacity — e.g. a buffer recycled
    /// by the `iqft-pipeline` arena — the hot path performs **zero**
    /// allocations.  The written labels are byte-identical to
    /// [`SegmentEngine::segment_rgb`] on any backend.
    pub fn segment_rgb_into<C>(&self, classifier: &C, img: &RgbImage, labels: &mut Vec<u32>)
    where
        C: PixelClassifier + Sync + ?Sized,
    {
        let pixels = img.as_slice();
        labels.resize(pixels.len(), 0);
        // Each disjoint chunk goes through the classifier's batched slice
        // hook, so row/SIMD kernels (e.g. iqft-seg's quantized table)
        // accelerate the whole-image path too; the default hook is a
        // per-pixel loop, byte-identical to classify_rgb_pixel calls.
        self.backend.for_each_chunk_mut(labels, |start, chunk| {
            classifier.classify_rgb_slice_into(&pixels[start..start + chunk.len()], chunk);
        });
    }

    /// Grayscale counterpart of [`SegmentEngine::segment_rgb`].
    pub fn segment_gray<C>(&self, classifier: &C, img: &GrayImage) -> LabelMap
    where
        C: PixelClassifier + Sync + ?Sized,
    {
        let (w, h) = img.dimensions();
        let mut labels = Vec::new();
        self.segment_gray_into(classifier, img, &mut labels);
        LabelMap::from_vec(w, h, labels).expect("label buffer matches image size")
    }

    /// Grayscale counterpart of [`SegmentEngine::segment_rgb_into`].
    pub fn segment_gray_into<C>(&self, classifier: &C, img: &GrayImage, labels: &mut Vec<u32>)
    where
        C: PixelClassifier + Sync + ?Sized,
    {
        let pixels = img.as_slice();
        labels.resize(pixels.len(), 0);
        self.backend.for_each_chunk_mut(labels, |start, chunk| {
            classifier.classify_gray_slice_into(&pixels[start..start + chunk.len()], chunk);
        });
    }

    /// Tiled segmentation: splits `img` into `tile_w × tile_h` tiles (edge
    /// tiles clamped) and fans the tiles out as independent jobs on the
    /// engine's backend.
    ///
    /// Each tile is classified through a zero-copy [`imaging::ImageView`]
    /// and stitched back in deterministic tile order, so the result is
    /// **byte-identical** to [`SegmentEngine::segment_rgb`] by construction
    /// — tiling only changes the work granularity.  Use tiles when one
    /// large image would otherwise serialise onto a single worker.
    pub fn segment_tiled<C>(
        &self,
        classifier: &C,
        img: &RgbImage,
        tile_w: usize,
        tile_h: usize,
    ) -> LabelMap
    where
        C: PixelClassifier + Sync + ?Sized,
    {
        let (w, h) = img.dimensions();
        let mut labels = Vec::new();
        self.segment_tiled_into(classifier, img, tile_w, tile_h, &mut labels);
        LabelMap::from_vec(w, h, labels).expect("label buffer matches image size")
    }

    /// Allocation-reusing variant of [`SegmentEngine::segment_tiled`]: resizes
    /// `labels` to the pixel count in place and overwrites every element, as
    /// [`SegmentEngine::segment_rgb_into`] does.
    pub fn segment_tiled_into<C>(
        &self,
        classifier: &C,
        img: &RgbImage,
        tile_w: usize,
        tile_h: usize,
        labels: &mut Vec<u32>,
    ) where
        C: PixelClassifier + Sync + ?Sized,
    {
        let view = img.as_view();
        self.tiled_into(
            img.width(),
            img.height(),
            tile_w,
            tile_h,
            labels,
            |rect, out| {
                let tile = view.subview(rect).expect("tile rects lie inside the image");
                classifier.classify_rgb_view_into(&tile, out);
            },
        );
    }

    /// Grayscale counterpart of [`SegmentEngine::segment_tiled_into`].
    pub fn segment_tiled_gray_into<C>(
        &self,
        classifier: &C,
        img: &GrayImage,
        tile_w: usize,
        tile_h: usize,
        labels: &mut Vec<u32>,
    ) where
        C: PixelClassifier + Sync + ?Sized,
    {
        let view = img.as_view();
        self.tiled_into(
            img.width(),
            img.height(),
            tile_w,
            tile_h,
            labels,
            |rect, out| {
                let tile = view.subview(rect).expect("tile rects lie inside the image");
                classifier.classify_gray_view_into(&tile, out);
            },
        );
    }

    /// Shared tiled driver: fans tile jobs out with `Backend::map_indexed`
    /// (each job classifies one tile into a tile-local buffer), then
    /// stitches the tiles into `labels` in deterministic tile order.
    fn tiled_into<F>(
        &self,
        width: usize,
        height: usize,
        tile_w: usize,
        tile_h: usize,
        labels: &mut Vec<u32>,
        classify_tile: F,
    ) where
        F: Fn(TileRect, &mut LabelViewMut<'_>) + Sync + Send,
    {
        let rects: Vec<TileRect> =
            imaging::view::TileRects::over(width, height, tile_w, tile_h).collect();
        labels.resize(width * height, 0);
        let tiles: Vec<Vec<u32>> = self.backend.map_indexed(rects.len(), |i| {
            let rect = rects[i];
            let mut buf = vec![0u32; rect.area()];
            let mut out = LabelViewMut::contiguous(&mut buf, rect.width, rect.height)
                .expect("tile buffer matches tile area");
            classify_tile(rect, &mut out);
            buf
        });
        for (rect, tile) in rects.into_iter().zip(tiles) {
            LabelViewMut::new(labels, width, rect)
                .expect("tile rects lie inside the label buffer")
                .copy_from_tile(&tile);
        }
    }

    /// Maps `f` over a dataset slice in parallel, collecting results in
    /// dataset order (batched multi-image evaluation).
    pub fn map_images<S, T, F>(&self, samples: &[S], f: F) -> Vec<T>
    where
        S: Sync,
        T: Send,
        F: Fn(&S) -> T + Sync + Send,
    {
        self.backend.map_indexed(samples.len(), |i| f(&samples[i]))
    }

    /// Maps `f` over `0..len` in index order on the configured backend.
    pub fn map_indexed<T, F>(&self, len: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync + Send,
    {
        self.backend.map_indexed(len, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imaging::{Luma, Rgb};

    fn all_engines() -> Vec<SegmentEngine> {
        vec![
            SegmentEngine::serial(),
            SegmentEngine::with_threads(1),
            SegmentEngine::with_threads(2),
            SegmentEngine::with_threads(8),
            SegmentEngine::with_threads(0),
        ]
    }

    fn test_image() -> RgbImage {
        RgbImage::from_fn(37, 23, |x, y| {
            Rgb::new((x * 7) as u8, (y * 11) as u8, ((x * y) % 251) as u8)
        })
    }

    #[test]
    fn closure_classifier_is_backend_independent() {
        let img = test_image();
        let rule = |p: Rgb<u8>| u32::from(p.r() as u16 + p.g() as u16 + p.b() as u16 > 300);
        let serial = SegmentEngine::serial().segment_rgb(&rule, &img);
        for engine in all_engines() {
            assert_eq!(engine.segment_rgb(&rule, &img), serial, "{engine:?}");
        }
    }

    #[test]
    fn gray_path_uses_the_gray_rule() {
        struct Parity;
        impl PixelClassifier for Parity {
            fn classify_rgb_pixel(&self, p: Rgb<u8>) -> u32 {
                u32::from(p.r()) % 2
            }
            fn classify_gray_pixel(&self, p: Luma<u8>) -> u32 {
                u32::from(p.value()) % 2
            }
        }
        let img = GrayImage::from_fn(19, 5, |x, y| Luma((x * 3 + y) as u8));
        let serial = SegmentEngine::serial().segment_gray(&Parity, &img);
        for engine in all_engines() {
            assert_eq!(engine.segment_gray(&Parity, &img), serial, "{engine:?}");
        }
        assert_eq!(serial.get(1, 0), 1);
    }

    #[test]
    fn map_images_preserves_dataset_order() {
        let samples: Vec<u64> = (0..97).collect();
        let expected: Vec<u64> = samples.iter().map(|s| s * s).collect();
        for engine in all_engines() {
            assert_eq!(engine.map_images(&samples, |&s| s * s), expected);
        }
    }

    #[test]
    fn flag_parsing_round_trips() {
        assert_eq!(
            SegmentEngine::from_flags("serial", 4).unwrap().backend(),
            Backend::Serial
        );
        assert_eq!(
            SegmentEngine::from_flags("threads", 4).unwrap().backend(),
            Backend::Threads(4)
        );
        assert!(SegmentEngine::from_flags("gpu", 1).is_err());
        assert_eq!(SegmentEngine::with_threads(3).threads(), 3);
        assert!(SegmentEngine::serial().threads() == 1);
    }

    /// The retired backend is rejected by both backend parsers, and each
    /// error names exactly the spellings that remain.
    #[test]
    fn retired_backend_is_rejected_naming_the_remaining_values() {
        const RETIRED: &str = "rayon";
        assert_eq!(
            SegmentEngine::from_flags(RETIRED, 4).unwrap_err(),
            format!("unknown backend '{RETIRED}' (expected serial or threads)")
        );
        assert_eq!(
            format!("backend={RETIRED}")
                .parse::<SegmentPlan>()
                .unwrap_err(),
            format!("unknown backend spec '{RETIRED}' (expected serial or threads[:N])")
        );
    }

    #[test]
    fn into_variants_reuse_the_buffer_and_match_allocating_path() {
        let img = test_image();
        let gray = GrayImage::from_fn(37, 23, |x, y| Luma((x * y % 256) as u8));
        let rgb_rule = |p: Rgb<u8>| u32::from(p.r()) + u32::from(p.g());
        struct GrayRule;
        impl PixelClassifier for GrayRule {
            fn classify_rgb_pixel(&self, p: Rgb<u8>) -> u32 {
                u32::from(p.r())
            }
            fn classify_gray_pixel(&self, p: Luma<u8>) -> u32 {
                u32::from(p.value()) / 3
            }
        }
        for engine in all_engines() {
            let mut buf = Vec::new();
            engine.segment_rgb_into(&rgb_rule, &img, &mut buf);
            assert_eq!(buf, engine.segment_rgb(&rgb_rule, &img).into_vec());
            let capacity = buf.capacity();
            let ptr = buf.as_ptr();
            // A second fill of a same-sized image reuses the buffer in place.
            engine.segment_rgb_into(&rgb_rule, &img, &mut buf);
            assert_eq!(buf.capacity(), capacity);
            assert_eq!(buf.as_ptr(), ptr);
            engine.segment_gray_into(&GrayRule, &gray, &mut buf);
            assert_eq!(buf, engine.segment_gray(&GrayRule, &gray).into_vec());
        }
    }

    #[test]
    fn tiled_segmentation_is_byte_identical_to_whole_image() {
        let img = test_image(); // 37x23: not divisible by most tile shapes
        let rule = |p: Rgb<u8>| u32::from(p.r() as u16 + p.g() as u16 + p.b() as u16) % 7;
        let whole = SegmentEngine::serial().segment_rgb(&rule, &img);
        for engine in all_engines() {
            for (tw, th) in [(1, 1), (7, 3), (64, 64), (37, 23), (37, 1), (1, 23)] {
                assert_eq!(
                    engine.segment_tiled(&rule, &img, tw, th),
                    whole,
                    "{engine:?} tile {tw}x{th}"
                );
                let mut buf = Vec::new();
                engine.segment_tiled_into(&rule, &img, tw, th, &mut buf);
                assert_eq!(buf, whole.as_slice(), "{engine:?} tile {tw}x{th} (_into)");
            }
        }
    }

    #[test]
    fn tiled_gray_matches_whole_gray() {
        struct GrayRule;
        impl PixelClassifier for GrayRule {
            fn classify_rgb_pixel(&self, p: Rgb<u8>) -> u32 {
                u32::from(p.r())
            }
            fn classify_gray_pixel(&self, p: Luma<u8>) -> u32 {
                u32::from(p.value()) % 3
            }
        }
        let img = GrayImage::from_fn(29, 17, |x, y| Luma(((x * 13 + y * 5) % 256) as u8));
        let whole = SegmentEngine::serial().segment_gray(&GrayRule, &img);
        for engine in all_engines() {
            for (tw, th) in [(1, 1), (5, 4), (64, 64)] {
                let mut buf = Vec::new();
                engine.segment_tiled_gray_into(&GrayRule, &img, tw, th, &mut buf);
                assert_eq!(buf, whole.as_slice(), "{engine:?} tile {tw}x{th} (_into)");
            }
        }
    }

    #[test]
    fn tiled_empty_image_yields_empty_labels() {
        let img = RgbImage::from_fn(0, 0, |_, _| Rgb::new(0, 0, 0));
        let rule = |_: Rgb<u8>| 1u32;
        for engine in all_engines() {
            assert_eq!(engine.segment_tiled(&rule, &img, 8, 8).len(), 0);
        }
    }

    #[test]
    fn empty_image_yields_empty_labels() {
        let img = RgbImage::from_fn(0, 0, |_, _| Rgb::new(0, 0, 0));
        let rule = |_: Rgb<u8>| 1u32;
        for engine in all_engines() {
            assert_eq!(engine.segment_rgb(&rule, &img).len(), 0);
        }
    }
}
