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
//!   pass for any backend and thread count.  The kernel and the frame's
//!   size pick the threads: a frame gets at most one thread per
//!   [`PixelClassifier::min_pixels_per_thread`] of its pixels, so a large
//!   frame spreads over the engine's threads while a fast kernel keeps a
//!   small one on the calling thread;
//! * [`SegmentEngine::map_images`] — batched multi-image evaluation
//!   (`Backend::map_indexed` over a dataset slice), used by the experiment
//!   harness to score whole datasets in parallel;
//! * [`SegmentEngine::map_indexed`] — the raw indexed map for irregular
//!   workloads (e.g. the K-means assignment step).
//!
//! The `plan` module lifts the *choice* of strategy into a first-class
//! value: a [`SegmentPlan`] owns classifier family ([`ClassifierKind`]) ×
//! backend, and is the single dispatch point every harness-level caller
//! routes through.
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

pub(crate) mod plan;

pub use plan::{ClassifierKind, SegmentPlan, Tiling};

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

    /// The backend one frame of `pixels` pixels runs on.
    ///
    /// `serial` stays serial.  A threads backend gives the frame
    /// `min(threads, pixels / min)` threads, where `min` is the classifier's
    /// [`PixelClassifier::min_pixels_per_thread`].  Below `2 × min` pixels
    /// the frame stays on the calling thread, and the core count is not
    /// read.
    fn frame_backend<C>(&self, classifier: &C, pixels: usize) -> Backend
    where
        C: PixelClassifier + ?Sized,
    {
        let worth = pixels / classifier.min_pixels_per_thread().max(1);
        match self.backend {
            Backend::Threads(_) if worth >= 2 => {
                Backend::Threads(self.backend.effective_threads().min(worth))
            }
            _ => Backend::Serial,
        }
    }

    /// Classifies every pixel of `img` with `classifier`, filling the label
    /// buffer in disjoint chunks on the threads the frame is worth (see
    /// [`PixelClassifier::min_pixels_per_thread`]).
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
        // hook, so row/SIMD kernels (e.g. iqft-seg's split table, which
        // gathers 8 pixels per step) accelerate the whole-image path too;
        // the default hook is a per-pixel loop, byte-identical to
        // classify_rgb_pixel calls.
        self.frame_backend(classifier, pixels.len())
            .for_each_chunk_mut(labels, |start, chunk| {
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
        self.frame_backend(classifier, pixels.len())
            .for_each_chunk_mut(labels, |start, chunk| {
                classifier.classify_gray_slice_into(&pixels[start..start + chunk.len()], chunk);
            });
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
    use std::sync::{Condvar, Mutex};
    use std::thread::ThreadId;
    use std::time::Duration;

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

    /// Records the threads that classify.  Each call waits (up to a timeout
    /// that only marks failure) until `meet` distinct threads have called,
    /// so a frame split over two threads provably reaches both.
    struct ThreadRecorder {
        min: usize,
        meet: usize,
        seen: Mutex<Vec<ThreadId>>,
        arrived: Condvar,
    }

    impl ThreadRecorder {
        fn new(min: usize, meet: usize) -> Self {
            Self {
                min,
                meet,
                seen: Mutex::new(Vec::new()),
                arrived: Condvar::new(),
            }
        }

        fn record(&self) {
            let mut seen = self.seen.lock().unwrap();
            let me = std::thread::current().id();
            if !seen.contains(&me) {
                seen.push(me);
                self.arrived.notify_all();
            }
            let _wait = self
                .arrived
                .wait_timeout_while(seen, Duration::from_secs(10), |seen| seen.len() < self.meet)
                .unwrap();
        }

        fn threads(&self) -> Vec<ThreadId> {
            self.seen.lock().unwrap().clone()
        }
    }

    impl PixelClassifier for ThreadRecorder {
        fn classify_rgb_pixel(&self, p: Rgb<u8>) -> u32 {
            u32::from(p.r()) % 3
        }
        fn classify_gray_pixel(&self, p: Luma<u8>) -> u32 {
            u32::from(p.value()) % 5
        }
        fn min_pixels_per_thread(&self) -> usize {
            self.min
        }
        fn classify_rgb_slice_into(&self, pixels: &[Rgb<u8>], out: &mut [u32]) {
            self.record();
            for (label, &p) in out.iter_mut().zip(pixels) {
                *label = self.classify_rgb_pixel(p);
            }
        }
        fn classify_gray_slice_into(&self, pixels: &[Luma<u8>], out: &mut [u32]) {
            self.record();
            for (label, &p) in out.iter_mut().zip(pixels) {
                *label = self.classify_gray_pixel(p);
            }
        }
    }

    /// The threads that classify a `width × height` frame, RGB and grey,
    /// each checked against the serial labels.
    fn classifying_threads(
        engine: SegmentEngine,
        min: usize,
        meet: usize,
        (width, height): (usize, usize),
    ) -> [Vec<ThreadId>; 2] {
        let rgb = RgbImage::from_fn(width, height, |x, y| {
            Rgb::new((x * 7 + y) as u8, (y * 3) as u8, x as u8)
        });
        let gray = GrayImage::from_fn(width, height, |x, y| Luma((x * 5 + y * 11) as u8));
        let serial = ThreadRecorder::new(min, 1);
        let recorder = ThreadRecorder::new(min, meet);
        assert_eq!(
            engine.segment_rgb(&recorder, &rgb),
            SegmentEngine::serial().segment_rgb(&serial, &rgb),
            "{engine:?} {width}x{height}"
        );
        let rgb_threads = recorder.threads();
        let recorder = ThreadRecorder::new(min, meet);
        assert_eq!(
            engine.segment_gray(&recorder, &gray),
            SegmentEngine::serial().segment_gray(&serial, &gray),
            "{engine:?} {width}x{height}"
        );
        [rgb_threads, recorder.threads()]
    }

    /// A frame gets one thread per `min_pixels_per_thread` of its pixels,
    /// at most the engine's threads, and a frame below twice the minimum
    /// stays on the calling thread.
    #[test]
    fn a_frame_gets_the_threads_its_pixels_are_worth() {
        let caller = std::thread::current().id();
        let two = SegmentEngine::with_threads(2);
        for threads in classifying_threads(two, 1_000, 1, (1_999, 1)) {
            assert_eq!(threads, [caller], "1,999 px stay on the calling thread");
        }
        for threads in classifying_threads(two, 1_000, 2, (50, 40)) {
            assert_eq!(threads.len(), 2, "2,000 px take two threads");
            assert!(!threads.contains(&caller), "{threads:?}");
        }
        // Eight threads give 2,999 px only the two they are worth.
        let eight = SegmentEngine::with_threads(8);
        for threads in classifying_threads(eight, 1_000, 2, (2_999, 1)) {
            assert_eq!(threads.len(), 2, "{threads:?}");
            assert!(!threads.contains(&caller), "{threads:?}");
        }
        for size in [(1_999, 1), (50, 40)] {
            for threads in classifying_threads(SegmentEngine::serial(), 1_000, 1, size) {
                assert_eq!(threads, [caller], "serial never splits");
            }
        }
    }

    /// A closure keeps the default minimum of one pixel, so even a
    /// four-pixel frame still splits over two threads.
    #[test]
    fn a_closure_still_splits_a_small_frame() {
        assert_eq!((|_: Rgb<u8>| 0u32).min_pixels_per_thread(), 1);
        let caller = std::thread::current().id();
        let img = RgbImage::from_fn(4, 1, |x, _| Rgb::new(9, (x * 70) as u8, 3));
        let recorder = ThreadRecorder::new(1, 2);
        let rule = |p: Rgb<u8>| {
            recorder.record();
            u32::from(p.g()) % 4
        };
        let labels = SegmentEngine::with_threads(2).segment_rgb(&rule, &img);
        let threads = recorder.threads();
        assert_eq!(threads.len(), 2, "{threads:?}");
        assert!(!threads.contains(&caller), "{threads:?}");
        let plain = |p: Rgb<u8>| u32::from(p.g()) % 4;
        assert_eq!(labels, SegmentEngine::serial().segment_rgb(&plain, &img));
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
