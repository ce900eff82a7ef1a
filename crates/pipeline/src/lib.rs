#![warn(missing_docs)]
//! `iqft-pipeline` — a batched, high-throughput segmentation service.
//!
//! PR 1's `SegmentEngine` made a *single* segmentation fast; this crate makes
//! *many* segmentations fast.  A [`SegmentPipeline`] owns an engine plus a
//! pixel classifier and drives whole image streams through three pieces:
//!
//! * [`arena::LabelArena`] — a recycling pool of label buffers, so the
//!   steady-state hot path performs **zero per-image allocations** (the
//!   report's allocation/reuse counters prove it).
//! * `stats` — per-batch throughput and per-job latency accounting,
//!   rolled up into a [`PipelineReport`].
//! * [`cache::SegmentCache`] — an opt-in sharded, content-addressed,
//!   byte-budgeted LRU cache of finished segmentations
//!   ([`SegmentPipeline::with_cache`]): repeated images are answered with a
//!   memcpy instead of a classification pass, byte-identically.
//!
//! A batch is one job list mapped over the engine's backend
//! ([`SegmentEngine::map_indexed`], the xpar substrate every parallel loop
//! in the workspace runs on), so the pipeline parallelises **across
//! images** by default: each job segments its image with a serial per-pixel
//! pass, and the output of [`run_batch`] is byte-identical to per-image
//! serial segmentation on any backend and thread count
//! (`tests/engine_determinism.rs` at the workspace root enforces this).
//! When a stream contains images too large for that to balance — one
//! satellite frame would serialise onto a single thread — configure a
//! [`seg_engine::Tiling::Tiles`] decomposition ([`PipelineConfig::tiling`]):
//! every image then splits into zero-copy tile jobs whose scratch buffers
//! recycle through the same [`LabelArena`], and the stitched output remains
//! byte-identical.  For the steady-state fast path, hand the pipeline an
//! [`iqft_seg::PhaseTable`]: classification collapses to three table lookups
//! per pixel.
//!
//! [`run_batch`]: SegmentPipeline::run_batch
//!
//! # Example
//!
//! ```
//! use imaging::{Rgb, RgbImage};
//! use iqft_pipeline::SegmentPipeline;
//! use iqft_seg::PhaseTable;
//! use seg_engine::SegmentEngine;
//!
//! let images: Vec<RgbImage> = (0..6)
//!     .map(|i| RgbImage::from_fn(32, 24, move |x, y| {
//!         Rgb::new((x * 8) as u8, (y * 10) as u8, (i * 40) as u8)
//!     }))
//!     .collect();
//!
//! let pipeline = SegmentPipeline::new(
//!     SegmentEngine::with_threads(2),
//!     PhaseTable::paper_default(),
//! );
//! // Stream the images in batches of 3, recycling buffers between batches.
//! let report = pipeline.run_stream(&images, 3, |_idx, labels| {
//!     assert_eq!(labels.dimensions(), (32, 24));
//!     pipeline.recycle(labels);
//! });
//! assert_eq!(report.images(), 6);
//! assert_eq!(report.batches.len(), 2);
//! // Steady state reuses the warm buffers instead of allocating.
//! assert!(report.arena_reuses > 0);
//! ```

pub(crate) mod arena;
pub mod cache;
pub(crate) mod hist;
pub(crate) mod stats;

pub use arena::LabelArena;
pub use cache::{route_hash, CacheConfig, CacheKey, SegmentCache, SnapshotError, SnapshotStats};
pub use hist::{LatencyHistogram, LatencySummary};
pub use stats::{BatchStats, PipelineReport};

use imaging::view::{LabelViewMut, TileRect};
use imaging::{LabelMap, PixelClassifier, RgbImage};
use seg_engine::{SegmentEngine, Tiling};
use std::time::Instant;

/// What the lookup half of a cached request found
/// ([`SegmentPipeline::lookup_request`]).
#[derive(Debug)]
pub enum CacheLookup {
    /// The cached labels, copied into an arena buffer.
    Hit(LabelMap),
    /// Nothing is cached under this key; hand it to
    /// [`SegmentPipeline::segment_miss`] so the image is not hashed twice.
    Miss(CacheKey),
}

/// How a [`SegmentPipeline`] decomposes its work.  The default runs one job
/// per image; the engine's backend bounds how many jobs run at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PipelineConfig {
    /// Work decomposition: [`Tiling::Whole`] runs one job per image;
    /// [`Tiling::Tiles`] splits every image into tile jobs, so one oversized
    /// frame no longer serialises onto a single thread.  Tile label buffers
    /// recycle through the same [`LabelArena`] as image buffers, keeping the
    /// steady state allocation-free, and the output stays byte-identical to
    /// whole-image segmentation.
    pub tiling: Tiling,
}

/// A batched segmentation service: owns a [`SegmentEngine`], a pixel
/// classifier, and a label-buffer arena, and runs each batch of an image
/// stream as one job list on the engine's backend.
///
/// Outputs are byte-identical to per-image serial segmentation for any
/// backend and thread count, because each job is classified by a serial
/// per-pixel pass.
#[derive(Debug)]
pub struct SegmentPipeline<C> {
    engine: SegmentEngine,
    classifier: C,
    arena: LabelArena,
    config: PipelineConfig,
    cache: Option<SegmentCache>,
}

impl<C: PixelClassifier + Sync> SegmentPipeline<C> {
    /// Creates a pipeline executing on `engine` with the given per-pixel
    /// `classifier` and default tuning.
    pub fn new(engine: SegmentEngine, classifier: C) -> Self {
        Self {
            engine,
            classifier,
            arena: LabelArena::new(),
            config: PipelineConfig::default(),
            cache: None,
        }
    }

    /// Replaces the work decomposition.
    pub fn with_config(mut self, config: PipelineConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches a content-addressed result cache (see [`cache`]).  `salt`
    /// should identify the segmentation strategy — callers pass the
    /// serialized `SegmentPlan::to_spec()` — so caches built for different
    /// strategies can never alias.  A disabled config
    /// (`capacity_bytes == 0`) leaves the pipeline uncached.
    pub fn with_cache(mut self, config: CacheConfig, salt: &str) -> Self {
        self.cache = config.enabled().then(|| SegmentCache::new(config, salt));
        self
    }

    /// The classifier driving per-pixel classification.
    pub fn classifier(&self) -> &C {
        &self.classifier
    }

    /// The label-buffer arena (for inspection; see [`LabelArena`]).
    pub fn arena(&self) -> &LabelArena {
        &self.arena
    }

    /// The attached result cache, if any (see [`SegmentPipeline::with_cache`]).
    pub fn cache(&self) -> Option<&SegmentCache> {
        self.cache.as_ref()
    }

    /// Returns a finished label map's buffer to the arena so a later image
    /// can reuse it without allocating.
    pub fn recycle(&self, labels: LabelMap) {
        self.arena.recycle(labels);
    }

    /// Shared single-image wrapper: takes an arena buffer, lets `fill` write
    /// the labels, and shapes the result to `img`'s dimensions.
    fn segment_with<F>(&self, img: &RgbImage, fill: F) -> LabelMap
    where
        F: FnOnce(&mut Vec<u32>),
    {
        let mut buf = self.arena.take();
        fill(&mut buf);
        let (w, h) = img.dimensions();
        LabelMap::from_vec(w, h, buf).expect("label buffer matches image size")
    }

    /// Per-request submit/completion entry point for long-lived services.
    ///
    /// Unlike [`SegmentPipeline::run_batch`], which owns a whole batch and a
    /// join barrier, this segments exactly one image synchronously — the
    /// shape a serving daemon (`iqft-serve`) needs: a worker thread submits
    /// one decoded request here and the call completes when the labels are
    /// ready.  It honours the configured [`PipelineConfig::tiling`], so one
    /// oversized frame still fans out across the engine's backend.  The
    /// scratch buffer comes from the shared [`LabelArena`]; recycle the
    /// result and the steady state stays allocation-free across all callers.
    ///
    /// Byte-identical to a serial whole-image pass for any configuration.
    pub fn segment_request(&self, img: &RgbImage) -> LabelMap {
        self.segment_with(img, |buf| match self.config.tiling {
            Tiling::Whole => self.engine.segment_rgb_into(&self.classifier, img, buf),
            Tiling::Tiles { width, height } => {
                self.engine
                    .segment_tiled_into(&self.classifier, img, width, height, buf)
            }
        })
    }

    /// Cache-aware variant of [`SegmentPipeline::segment_request`]: when a
    /// cache is attached (and `bypass` is false) the request is content-
    /// addressed first, and a hit is answered by copying the cached labels
    /// into an arena buffer — no classification at all.  A miss segments as
    /// usual and stores a copy for the next identical request.
    ///
    /// This is exactly [`SegmentPipeline::lookup_request`] followed, on a
    /// miss, by [`SegmentPipeline::segment_miss`]; a daemon that runs the
    /// two halves on different threads gets the same result.
    ///
    /// Returns the labels plus whether they came from the cache.  Hit or
    /// miss, the result is byte-identical to [`segment_request`] by
    /// construction: the cache only ever stores this pipeline's own output.
    ///
    /// [`segment_request`]: SegmentPipeline::segment_request
    pub fn segment_request_cached(&self, img: &RgbImage, bypass: bool) -> (LabelMap, bool) {
        let lookup = if bypass {
            None
        } else {
            self.lookup_request(img)
        };
        match lookup {
            Some(CacheLookup::Hit(labels)) => (labels, true),
            Some(CacheLookup::Miss(key)) => (self.segment_miss(img, key), false),
            None => (self.segment_request(img), false),
        }
    }

    /// The lookup half of [`SegmentPipeline::segment_request_cached`]:
    /// computes `img`'s whole-frame key and looks it up, counting a hit or
    /// a miss.  Returns `None` when no cache is attached, without hashing.
    pub fn lookup_request(&self, img: &RgbImage) -> Option<CacheLookup> {
        let cache = self.cache.as_ref()?;
        let key = cache.key_for(img);
        Some(match cache.lookup(key, &self.arena) {
            Some(labels) => CacheLookup::Hit(labels),
            None => CacheLookup::Miss(key),
        })
    }

    /// The miss half of [`SegmentPipeline::segment_request_cached`]:
    /// segments `img` and stores a copy under `key`, the key
    /// [`SegmentPipeline::lookup_request`] returned for this image.
    pub fn segment_miss(&self, img: &RgbImage, key: CacheKey) -> LabelMap {
        let labels = self.segment_request(img);
        if let Some(cache) = &self.cache {
            cache.insert(key, &labels, &self.arena);
        }
        labels
    }

    /// Per-tile delta variant of [`SegmentPipeline::segment_request_cached`]
    /// for video-like streams: instead of content-addressing the whole frame
    /// (where one changed pixel forfeits the entire cached result), the frame
    /// is split into tiles — the plan's own tile shape, or
    /// [`Tiling::DEFAULT_DELTA_TILE`]-square tiles for a whole-image plan —
    /// and each tile is content-addressed independently.  Unchanged tiles are
    /// answered by copying their cached labels straight into the stitch
    /// buffer; only tiles whose hash changed are re-classified (and stored
    /// for the next frame).  Frame cost therefore scales with how much of
    /// the frame changed, not with its area.
    ///
    /// Returns `(labels, tiles_hit, tiles_recomputed)`.  Without an attached
    /// cache every tile counts as recomputed and the call is equivalent to
    /// [`SegmentPipeline::segment_request`].
    ///
    /// The stitched output is byte-identical to fresh whole-image
    /// segmentation by construction: each label depends only on its own
    /// pixel (classification is per-pixel), cached tiles hold exactly the
    /// bytes a fresh classification of identical pixel content produces, and
    /// the 128-bit content hash plus the entry dimension check make a
    /// cross-content collision practically impossible.  This is the same
    /// argument that makes tiled execution byte-identical to whole-image
    /// execution, composed with the cache's "only ever stores the pipeline's
    /// own output" invariant.
    pub fn segment_request_delta(&self, img: &RgbImage) -> (LabelMap, u32, u32) {
        let (tile_w, tile_h) = self.config.tiling.delta_shape();
        let Some(cache) = &self.cache else {
            let total = img.tile_rects(tile_w, tile_h).count() as u32;
            return (self.segment_request(img), 0, total);
        };
        let mut hit_tiles = 0u32;
        let mut recomputed_tiles = 0u32;
        let mut scratch: Option<Vec<u32>> = None;
        let labels = self.segment_with(img, |buf| {
            // Every tile rect is stitched from the cache or classified, so
            // the buffer is resized in place, never zeroed first.
            buf.resize(img.len(), 0);
            for rect in img.tile_rects(tile_w, tile_h) {
                let view = img.view(rect).expect("tile rects lie inside their image");
                let key = cache.key_for_tile(&view, tile_w, tile_h);
                let mut dest = LabelViewMut::new(buf, img.width(), rect)
                    .expect("tile rects lie inside the label buffer");
                if cache.lookup_tile_into(key, &mut dest) {
                    hit_tiles += 1;
                    continue;
                }
                recomputed_tiles += 1;
                let tile_buf = scratch.get_or_insert_with(|| self.arena.take());
                tile_buf.resize(rect.area(), 0);
                let mut out = LabelViewMut::contiguous(tile_buf, rect.width, rect.height)
                    .expect("tile buffer matches tile area");
                self.classifier.classify_rgb_view_into(&view, &mut out);
                LabelViewMut::new(buf, img.width(), rect)
                    .expect("tile rects lie inside the label buffer")
                    .copy_from_tile(tile_buf);
                cache.insert_tile(key, tile_buf, rect.width, rect.height, &self.arena);
            }
        });
        if let Some(tile_buf) = scratch {
            self.arena.put(tile_buf);
        }
        (labels, hit_tiles, recomputed_tiles)
    }

    /// Streams a video-like sequence of `frames` through the per-tile delta
    /// path ([`SegmentPipeline::segment_request_delta`]), batching
    /// `batch_size` consecutive frames per [`BatchStats`] entry so throughput
    /// is comparable with the other stream runners.  The sink receives
    /// `(index, labels, tiles_hit, tiles_recomputed)` and should recycle the
    /// labels.  The returned report carries per-run cache/arena deltas plus
    /// the delta-tile counters.
    pub fn run_stream_deltas<F>(
        &self,
        frames: &[RgbImage],
        batch_size: usize,
        mut sink: F,
    ) -> PipelineReport
    where
        F: FnMut(usize, LabelMap, u32, u32),
    {
        self.run_chunks(
            frames,
            batch_size,
            |chunk, latency| one_by_one(chunk, latency, |img| self.segment_request_delta(img)),
            |idx, (labels, hit, recomputed), report| {
                report.delta_tiles_hit += hit as usize;
                report.delta_tiles_recomputed += recomputed as usize;
                sink(idx, labels, hit, recomputed);
            },
        )
    }

    /// Segments one batch of images on the engine's backend.
    ///
    /// The batch is one job list mapped through
    /// [`SegmentEngine::map_indexed`]: one job per image, or one per tile
    /// under [`Tiling::Tiles`], so one oversized frame fans out over every
    /// thread.  Each job classifies its rect serially into an arena buffer,
    /// and each image's jobs are stitched in order.  Returns the label maps
    /// in input order plus the batch's throughput stats.  The output is
    /// byte-identical to calling `SegmentEngine::serial().segment_rgb(..)`
    /// per image.
    pub fn run_batch(&self, images: &[RgbImage]) -> (Vec<LabelMap>, BatchStats) {
        let started = Instant::now();
        let labels = self.segment_batch(images, &LatencyHistogram::new());
        (labels, batch_stats(0, images, started))
    }

    /// The batch executor behind [`SegmentPipeline::run_batch`] and
    /// [`SegmentPipeline::run_stream`], recording each job's latency.
    fn segment_batch(&self, images: &[RgbImage], latency: &LatencyHistogram) -> Vec<LabelMap> {
        // Jobs are listed in (image, rect) order, so the stitch below walks
        // them with one cursor.  A whole image is the job whose rect is the
        // image.
        let jobs: Vec<(usize, TileRect)> = images
            .iter()
            .enumerate()
            .flat_map(|(idx, img)| {
                let (tile_w, tile_h) = match self.config.tiling {
                    Tiling::Whole => img.dimensions(),
                    Tiling::Tiles { width, height } => (width, height),
                };
                img.tile_rects(tile_w, tile_h).map(move |rect| (idx, rect))
            })
            .collect();
        let serial = SegmentEngine::serial();
        let buffers = self.engine.map_indexed(jobs.len(), |job| {
            let (idx, rect) = jobs[job];
            let img = &images[idx];
            let started = Instant::now();
            let mut buf = self.arena.take();
            if rect == TileRect::full(img.width(), img.height()) {
                serial.segment_rgb_into(&self.classifier, img, &mut buf);
            } else {
                buf.resize(rect.area(), 0);
                let tile = img.view(rect).expect("job rects lie inside their image");
                let mut out = LabelViewMut::contiguous(&mut buf, rect.width, rect.height)
                    .expect("job buffer matches its rect");
                self.classifier.classify_rgb_view_into(&tile, &mut out);
            }
            latency.record(started.elapsed());
            buf
        });

        // An image that is one job adopts that job's buffer.  Otherwise its
        // tiles are copied into an arena buffer and go back to the arena.
        let mut done = jobs.into_iter().zip(buffers).peekable();
        images
            .iter()
            .enumerate()
            .map(|(idx, img)| {
                let (w, h) = img.dimensions();
                let whole = (idx, TileRect::full(w, h));
                let buf = match done.next_if(|(job, _)| *job == whole) {
                    Some((_, buf)) => buf,
                    None => {
                        let mut buf = self.arena.take();
                        buf.resize(img.len(), 0);
                        while let Some(((_, rect), tile)) =
                            done.next_if(|((job, _), _)| *job == idx)
                        {
                            LabelViewMut::new(&mut buf, w, rect)
                                .expect("tile rects lie inside the label buffer")
                                .copy_from_tile(&tile);
                            self.arena.put(tile);
                        }
                        buf
                    }
                };
                LabelMap::from_vec(w, h, buf).expect("label buffer matches image size")
            })
            .collect()
    }

    /// Streams `images` through the pipeline in batches of `batch_size`,
    /// handing each finished label map (with its global image index, in
    /// order) to `sink`, and returns the aggregated [`PipelineReport`].
    ///
    /// Each batch runs like [`SegmentPipeline::run_batch`], with a join
    /// barrier at the batch boundary; that barrier is what gives the
    /// per-batch figures their meaning.  The sink typically consumes the
    /// labels and calls [`SegmentPipeline::recycle`] so subsequent batches
    /// reuse the buffers — that is what makes the steady state
    /// allocation-free.  The arena counters in the returned report are
    /// deltas for *this* run, so repeated `run_stream` calls on one pipeline
    /// each report their own allocation behaviour.
    pub fn run_stream<F>(
        &self,
        images: &[RgbImage],
        batch_size: usize,
        mut sink: F,
    ) -> PipelineReport
    where
        F: FnMut(usize, LabelMap),
    {
        self.run_chunks(
            images,
            batch_size,
            |chunk, latency| self.segment_batch(chunk, latency),
            |idx, labels, _| sink(idx, labels),
        )
    }

    /// Streams `images` through the *per-request* path — the shape a serving
    /// deployment sees: each image goes through
    /// [`SegmentPipeline::segment_request_cached`] (honouring the configured
    /// tiling and the attached cache), so repeated images are answered from
    /// the cache instead of being re-classified.  Parallelism comes from
    /// within each request (the engine's backend plus tiled fan-out), not
    /// from batching across images.
    ///
    /// The sink receives `(index, labels, cache_hit)` and should recycle the
    /// labels like [`SegmentPipeline::run_stream`]'s sink does.  The
    /// returned report carries per-run cache and arena counter deltas;
    /// batches group `batch_size` consecutive requests so throughput is
    /// comparable with the batched path.
    pub fn run_stream_requests<F>(
        &self,
        images: &[RgbImage],
        batch_size: usize,
        mut sink: F,
    ) -> PipelineReport
    where
        F: FnMut(usize, LabelMap, bool),
    {
        self.run_chunks(
            images,
            batch_size,
            |chunk, latency| {
                one_by_one(chunk, latency, |img| {
                    self.segment_request_cached(img, false)
                })
            },
            |idx, (labels, hit), _| sink(idx, labels, hit),
        )
    }

    /// The one stream loop behind [`SegmentPipeline::run_stream`],
    /// [`SegmentPipeline::run_stream_requests`] and
    /// [`SegmentPipeline::run_stream_deltas`]: cuts `images` into chunks of
    /// `batch_size`, times `segment` on each chunk as that chunk's
    /// [`BatchStats`] entry, then hands each result to `sink` with its
    /// image's index and the report being built.  `segment` records its
    /// per-operation latencies; the report carries this run's arena and
    /// cache counter deltas.
    fn run_chunks<T>(
        &self,
        images: &[RgbImage],
        batch_size: usize,
        mut segment: impl FnMut(&[RgbImage], &LatencyHistogram) -> Vec<T>,
        mut sink: impl FnMut(usize, T, &mut PipelineReport),
    ) -> PipelineReport {
        let batch_size = batch_size.max(1);
        let allocations_before = self.arena.allocations();
        let reuses_before = self.arena.reuses();
        let cache_before = self.cache.as_ref().map(|c| c.stats()).unwrap_or_default();
        let mut report = PipelineReport {
            workers: self.engine.threads(),
            ..PipelineReport::default()
        };
        let latency = LatencyHistogram::new();
        for (batch, chunk) in images.chunks(batch_size).enumerate() {
            let started = Instant::now();
            let results = segment(chunk, &latency);
            report.batches.push(batch_stats(batch, chunk, started));
            for (i, result) in results.into_iter().enumerate() {
                sink(batch * batch_size + i, result, &mut report);
            }
        }
        report.latency = latency.summary();
        report.arena_allocations = self.arena.allocations() - allocations_before;
        report.arena_reuses = self.arena.reuses() - reuses_before;
        report.arena_pooled = self.arena.pooled();
        if let Some(cache) = &self.cache {
            let now = cache.stats();
            report.cache_hits = now.hits - cache_before.hits;
            report.cache_misses = now.misses - cache_before.misses;
            report.cache_evictions = now.evictions - cache_before.evictions;
            report.cache_entries = now.entries;
            report.cache_bytes = now.bytes;
        }
        report
    }
}

/// Runs `request` on each image of `chunk` in turn, recording each call's
/// latency: the per-request streams' step for the stream loop.
fn one_by_one<T>(
    chunk: &[RgbImage],
    latency: &LatencyHistogram,
    request: impl Fn(&RgbImage) -> T,
) -> Vec<T> {
    chunk
        .iter()
        .map(|img| {
            let started = Instant::now();
            let result = request(img);
            latency.record(started.elapsed());
            result
        })
        .collect()
}

/// The stats of batch number `batch` over `images`, whose clock started at
/// `started` and stops now.
fn batch_stats(batch: usize, images: &[RgbImage], started: Instant) -> BatchStats {
    BatchStats {
        batch,
        images: images.len(),
        pixels: images.iter().map(|img| img.len()).sum(),
        elapsed_secs: started.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imaging::Rgb;
    use iqft_seg::{IqftRgbSegmenter, PhaseTable};

    fn test_images(count: usize) -> Vec<RgbImage> {
        (0..count)
            .map(|i| {
                RgbImage::from_fn(23 + i % 5, 17 + i % 3, move |x, y| {
                    Rgb::new((x * 11 + i * 29) as u8, (y * 13) as u8, ((x + y) * 7) as u8)
                })
            })
            .collect()
    }

    #[test]
    fn batch_output_is_byte_identical_to_serial_per_image() {
        let images = test_images(9);
        let exact = IqftRgbSegmenter::paper_default();
        let expected: Vec<LabelMap> = images
            .iter()
            .map(|img| SegmentEngine::serial().segment_rgb(&exact, img))
            .collect();
        for threads in [1usize, 2, 4] {
            let pipeline = SegmentPipeline::new(
                SegmentEngine::with_threads(threads),
                IqftRgbSegmenter::paper_default(),
            );
            let (labels, stats) = pipeline.run_batch(&images);
            assert_eq!(labels, expected, "threads={threads}");
            assert_eq!(stats.images, 9);
            assert_eq!(stats.pixels, images.iter().map(|i| i.len()).sum::<usize>());
        }
    }

    #[test]
    fn phase_table_fast_path_matches_exact_through_the_pipeline() {
        let images = test_images(6);
        let exact_pipe = SegmentPipeline::new(
            SegmentEngine::with_threads(2),
            IqftRgbSegmenter::paper_default(),
        );
        let table_pipe =
            SegmentPipeline::new(SegmentEngine::with_threads(2), PhaseTable::paper_default());
        let (exact_labels, _) = exact_pipe.run_batch(&images);
        let (table_labels, _) = table_pipe.run_batch(&images);
        assert_eq!(exact_labels, table_labels);
    }

    #[test]
    fn stream_recycling_makes_steady_state_allocation_free() {
        let images: Vec<RgbImage> = (0..12)
            .map(|i| {
                RgbImage::from_fn(32, 32, move |x, y| {
                    Rgb::new((x * 8) as u8, (y * 8) as u8, (i * 20) as u8)
                })
            })
            .collect();
        let pipeline =
            SegmentPipeline::new(SegmentEngine::with_threads(2), PhaseTable::paper_default());
        let mut seen = Vec::new();
        let report = pipeline.run_stream(&images, 4, |idx, labels| {
            seen.push(idx);
            pipeline.recycle(labels);
        });
        assert_eq!(seen, (0..12).collect::<Vec<_>>());
        assert_eq!(report.images(), 12);
        assert_eq!(report.batches.len(), 3);
        assert_eq!(report.workers, 2);
        // Per-op service latency was recorded for every image.
        assert_eq!(report.latency.count, 12, "{report:?}");
        assert!(report.latency.p50_ns <= report.latency.p99_ns);
        assert!(report.latency.p999_ns <= report.latency.max_ns);
        // Every take after the warm-up buffers exist is served from the pool:
        // allocations are bounded by the in-flight image count, not by the
        // stream length.
        assert!(report.arena_allocations <= 8, "{report:?}");
        assert_eq!(
            report.arena_allocations + report.arena_reuses,
            12,
            "every image took exactly one buffer"
        );
        assert!(report.arena_reuses >= 4, "{report:?}");
    }

    #[test]
    fn segment_request_honours_tiling_and_recycles_through_the_arena() {
        let img = &test_images(1)[0];
        let expected = SegmentEngine::serial().segment_rgb(&IqftRgbSegmenter::paper_default(), img);
        for tiling in [
            seg_engine::Tiling::Whole,
            seg_engine::Tiling::Tiles {
                width: 8,
                height: 8,
            },
        ] {
            let pipeline =
                SegmentPipeline::new(SegmentEngine::with_threads(2), PhaseTable::paper_default())
                    .with_config(PipelineConfig { tiling });
            let labels = pipeline.segment_request(img);
            assert_eq!(labels, expected, "{tiling:?}");
            pipeline.recycle(labels);
            let again = pipeline.segment_request(img);
            assert_eq!(again, expected, "{tiling:?} (recycled)");
            assert!(pipeline.arena().reuses() >= 1, "{tiling:?}");
        }
    }

    #[test]
    #[should_panic(expected = "classifier exploded")]
    fn worker_panic_propagates_instead_of_deadlocking_the_producer() {
        // A classifier that dies on the very first pixel, on two threads:
        // the batch must end, and the caller must see the classifier's own
        // message rather than a generic worker failure.
        let bomb = |_p: Rgb<u8>| -> u32 { panic!("classifier exploded") };
        let pipeline = SegmentPipeline::new(SegmentEngine::with_threads(2), bomb);
        let images = test_images(8);
        let _ = pipeline.run_batch(&images);
    }

    #[test]
    fn repeated_streams_report_per_run_arena_deltas() {
        let images = test_images(6);
        let pipeline =
            SegmentPipeline::new(SegmentEngine::with_threads(2), PhaseTable::paper_default());
        let first = pipeline.run_stream(&images, 3, |_, labels| pipeline.recycle(labels));
        let second = pipeline.run_stream(&images, 3, |_, labels| pipeline.recycle(labels));
        assert_eq!(first.arena_allocations + first.arena_reuses, 6);
        // The second run starts with a warm pool: every take is a reuse and
        // the counters do not accumulate across runs.
        assert_eq!(second.arena_allocations, 0, "{second:?}");
        assert_eq!(second.arena_reuses, 6, "{second:?}");
        assert_eq!(second.arena_pooled, pipeline.arena().pooled());
    }

    #[test]
    fn tiled_batches_are_byte_identical_to_whole_image_batches() {
        let images = test_images(7);
        let reference: Vec<LabelMap> = images
            .iter()
            .map(|img| SegmentEngine::serial().segment_rgb(&IqftRgbSegmenter::paper_default(), img))
            .collect();
        for threads in [1usize, 2, 4] {
            for (tw, th) in [(1usize, 1usize), (7, 3), (64, 64)] {
                let pipeline = SegmentPipeline::new(
                    SegmentEngine::with_threads(threads),
                    PhaseTable::paper_default(),
                )
                .with_config(PipelineConfig {
                    tiling: seg_engine::Tiling::Tiles {
                        width: tw,
                        height: th,
                    },
                });
                assert_eq!(
                    pipeline.config.tiling,
                    seg_engine::Tiling::Tiles {
                        width: tw,
                        height: th
                    }
                );
                let (labels, stats) = pipeline.run_batch(&images);
                assert_eq!(labels, reference, "threads={threads} tile={tw}x{th}");
                assert_eq!(stats.images, 7);
                assert_eq!(stats.pixels, images.iter().map(|i| i.len()).sum::<usize>());
            }
        }
    }

    /// A classifier whose tile hook waits until two tiles are in progress
    /// at once.  The wait's timeout only marks failure: a pipeline that
    /// runs one frame's tiles one at a time leaves the flag false.
    struct Rendezvous {
        table: PhaseTable,
        /// Tiles in progress, and whether two ever were at once.
        state: std::sync::Mutex<(usize, bool)>,
        both: std::sync::Condvar,
    }

    impl PixelClassifier for Rendezvous {
        fn classify_rgb_pixel(&self, p: Rgb<u8>) -> u32 {
            self.table.classify_rgb_pixel(p)
        }

        fn classify_rgb_view_into(
            &self,
            view: &imaging::ImageView<'_, Rgb<u8>>,
            out: &mut LabelViewMut<'_>,
        ) {
            let mut state = self.state.lock().unwrap();
            state.0 += 1;
            if state.0 >= 2 {
                state.1 = true;
                self.both.notify_all();
            }
            let (mut state, _) = self
                .both
                .wait_timeout_while(state, std::time::Duration::from_secs(3), |s| !s.1)
                .unwrap();
            state.0 -= 1;
            drop(state);
            self.table.classify_rgb_view_into(view, out);
        }
    }

    #[test]
    fn one_frames_tiles_fan_out_over_the_engines_threads() {
        let frame = RgbImage::from_fn(64, 48, |x, y| {
            Rgb::new((x * 4) as u8, (y * 5) as u8, ((x + y) * 3) as u8)
        });
        let rendezvous = Rendezvous {
            table: PhaseTable::paper_default(),
            state: std::sync::Mutex::new((0, false)),
            both: std::sync::Condvar::new(),
        };
        let pipeline = SegmentPipeline::new(SegmentEngine::with_threads(2), rendezvous)
            .with_config(PipelineConfig {
                tiling: seg_engine::Tiling::Tiles {
                    width: 32,
                    height: 24,
                },
            });
        assert_eq!(frame.tile_rects(32, 24).count(), 4);
        let (labels, _) = pipeline.run_batch(std::slice::from_ref(&frame));
        assert!(
            pipeline.classifier().state.lock().unwrap().1,
            "two tiles of one frame never ran at the same time"
        );
        assert_eq!(
            labels[0],
            SegmentEngine::serial().segment_rgb(&IqftRgbSegmenter::paper_default(), &frame)
        );
    }

    #[test]
    fn tiled_streams_recycle_tile_buffers_through_the_arena() {
        let images: Vec<RgbImage> = (0..8)
            .map(|i| {
                RgbImage::from_fn(48, 32, move |x, y| {
                    Rgb::new((x * 5) as u8, (y * 7) as u8, (i * 31) as u8)
                })
            })
            .collect();
        let pipeline =
            SegmentPipeline::new(SegmentEngine::with_threads(2), PhaseTable::paper_default())
                .with_config(PipelineConfig {
                    tiling: seg_engine::Tiling::Tiles {
                        width: 16,
                        height: 16,
                    },
                });
        let first = pipeline.run_stream(&images, 4, |_, labels| pipeline.recycle(labels));
        assert_eq!(first.images(), 8);
        // Warm pool: the second stream takes every tile and image buffer from
        // the arena without a single fresh allocation.
        let second = pipeline.run_stream(&images, 4, |_, labels| pipeline.recycle(labels));
        assert_eq!(second.arena_allocations, 0, "{second:?}");
        assert!(second.arena_reuses > 0, "{second:?}");
    }

    #[test]
    fn cached_requests_are_byte_identical_to_fresh_segmentation() {
        let images = test_images(4);
        let expected: Vec<LabelMap> = images
            .iter()
            .map(|img| SegmentEngine::serial().segment_rgb(&IqftRgbSegmenter::paper_default(), img))
            .collect();
        let pipeline = SegmentPipeline::new(SegmentEngine::serial(), PhaseTable::paper_default())
            .with_cache(
                CacheConfig::with_capacity_mb(4),
                "classifier=table;tile=off;backend=serial",
            );
        // First pass: all misses, results stored.
        for (img, expected) in images.iter().zip(&expected) {
            let (labels, hit) = pipeline.segment_request_cached(img, false);
            assert!(!hit);
            assert_eq!(&labels, expected);
            pipeline.recycle(labels);
        }
        // Second pass: all hits, byte-identical to the fresh pass.
        for (img, expected) in images.iter().zip(&expected) {
            let (labels, hit) = pipeline.segment_request_cached(img, false);
            assert!(hit);
            assert_eq!(&labels, expected);
            pipeline.recycle(labels);
        }
        // Bypass skips the cache but still answers identically.
        let (labels, hit) = pipeline.segment_request_cached(&images[0], true);
        assert!(!hit);
        assert_eq!(labels, expected[0]);
        let stats = pipeline.cache().expect("cache attached").stats();
        assert_eq!((stats.hits, stats.misses), (4, 4), "{stats:?}");
    }

    #[test]
    fn uncached_pipeline_reports_misses_as_fresh_segmentations() {
        let img = &test_images(1)[0];
        let pipeline = SegmentPipeline::new(SegmentEngine::serial(), PhaseTable::paper_default());
        assert!(pipeline.cache().is_none());
        let (labels, hit) = pipeline.segment_request_cached(img, false);
        assert!(!hit);
        assert_eq!(labels, pipeline.segment_request(img));
        // A disabled config is a no-op.
        let pipeline = SegmentPipeline::new(SegmentEngine::serial(), PhaseTable::paper_default())
            .with_cache(CacheConfig::default(), "");
        assert!(pipeline.cache().is_none());
    }

    #[test]
    fn lookup_and_miss_halves_compose_to_the_cached_request() {
        let img = &test_images(1)[0];
        let expected = SegmentEngine::serial().segment_rgb(&IqftRgbSegmenter::paper_default(), img);
        let uncached = SegmentPipeline::new(SegmentEngine::serial(), PhaseTable::paper_default());
        assert!(
            uncached.lookup_request(img).is_none(),
            "no cache, no lookup"
        );

        let pipeline = SegmentPipeline::new(SegmentEngine::serial(), PhaseTable::paper_default())
            .with_cache(CacheConfig::with_capacity_mb(4), "halves-test");
        let Some(CacheLookup::Miss(key)) = pipeline.lookup_request(img) else {
            panic!("a cold cache misses");
        };
        assert_eq!(key, pipeline.cache().unwrap().key_for(img));
        let labels = pipeline.segment_miss(img, key);
        assert_eq!(labels, expected);
        pipeline.recycle(labels);
        // The miss half stored the labels under the lookup half's key, so
        // the composed call now hits.
        let (labels, hit) = pipeline.segment_request_cached(img, false);
        assert!(hit);
        assert_eq!(labels, expected);
        let Some(CacheLookup::Hit(labels)) = pipeline.lookup_request(img) else {
            panic!("a warm cache hits");
        };
        assert_eq!(labels, expected);
        let stats = pipeline.cache().unwrap().stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (2, 1, 1));
    }

    #[test]
    fn request_streams_report_cache_and_arena_deltas() {
        let unique = test_images(3);
        // A repeated-traffic stream: each unique image appears three times.
        let stream: Vec<RgbImage> = (0..9).map(|i| unique[i % 3].clone()).collect();
        let pipeline = SegmentPipeline::new(SegmentEngine::serial(), PhaseTable::paper_default())
            .with_cache(
                CacheConfig::with_capacity_mb(4),
                "classifier=table;tile=off;backend=serial",
            );
        let mut hits_seen = 0usize;
        let report = pipeline.run_stream_requests(&stream, 3, |_, labels, hit| {
            hits_seen += usize::from(hit);
            pipeline.recycle(labels);
        });
        assert_eq!(report.images(), 9);
        assert_eq!(report.batches.len(), 3);
        assert_eq!(report.latency.count, 9, "one latency sample per request");
        assert_eq!(report.cache_misses, 3, "{report:?}");
        assert_eq!(report.cache_hits, 6, "{report:?}");
        assert_eq!(hits_seen, 6);
        assert_eq!(report.cache_entries, 3);
        assert!(report.cache_bytes > 0);
        // A second run is all hits and reports its own deltas.
        let second = pipeline.run_stream_requests(&stream, 3, |_, labels, _| {
            pipeline.recycle(labels);
        });
        assert_eq!(second.cache_hits, 9, "{second:?}");
        assert_eq!(second.cache_misses, 0, "{second:?}");
        assert_eq!(second.arena_allocations, 0, "warm arena: {second:?}");
    }

    #[test]
    fn delta_requests_are_byte_identical_and_reuse_unchanged_tiles() {
        let base = RgbImage::from_fn(53, 37, |x, y| {
            Rgb::new((x * 3) as u8, (y * 5) as u8, ((x ^ y) * 7) as u8)
        });
        // Frame 2 differs from frame 1 in a single pixel.
        let mut changed = base.clone();
        changed.set(40, 30, Rgb::new(200, 10, 10));
        let exact = IqftRgbSegmenter::paper_default();
        for tiling in [
            seg_engine::Tiling::Whole,
            seg_engine::Tiling::Tiles {
                width: 16,
                height: 16,
            },
            seg_engine::Tiling::Tiles {
                width: 53,
                height: 37,
            },
        ] {
            let pipeline =
                SegmentPipeline::new(SegmentEngine::serial(), PhaseTable::paper_default())
                    .with_config(PipelineConfig { tiling })
                    .with_cache(CacheConfig::with_capacity_mb(4), "delta-test");
            let (tw, th) = tiling.delta_shape();
            let total = base.tile_rects(tw, th).count() as u32;
            let (labels, hit, recomputed) = pipeline.segment_request_delta(&base);
            assert_eq!(
                labels,
                SegmentEngine::serial().segment_rgb(&exact, &base),
                "{tiling:?} cold frame"
            );
            assert_eq!((hit, recomputed), (0, total), "{tiling:?} cold frame");
            pipeline.recycle(labels);
            // The identical frame again: every tile hits.
            let (labels, hit, recomputed) = pipeline.segment_request_delta(&base);
            assert_eq!(labels, SegmentEngine::serial().segment_rgb(&exact, &base));
            assert_eq!((hit, recomputed), (total, 0), "{tiling:?} repeat frame");
            pipeline.recycle(labels);
            // One changed pixel: exactly one tile recomputes, the rest stitch
            // from cache, and the output is still byte-identical to fresh.
            let (labels, hit, recomputed) = pipeline.segment_request_delta(&changed);
            assert_eq!(
                labels,
                SegmentEngine::serial().segment_rgb(&exact, &changed),
                "{tiling:?} delta frame"
            );
            assert_eq!((hit, recomputed), (total - 1, 1), "{tiling:?} delta frame");
            pipeline.recycle(labels);
        }
    }

    #[test]
    fn delta_without_a_cache_recomputes_everything_but_stays_correct() {
        let img = &test_images(1)[0];
        let pipeline = SegmentPipeline::new(SegmentEngine::serial(), PhaseTable::paper_default());
        let (labels, hit, recomputed) = pipeline.segment_request_delta(img);
        assert_eq!(labels, pipeline.segment_request(img));
        assert_eq!(hit, 0);
        let (tw, th) = pipeline.config.tiling.delta_shape();
        assert_eq!(recomputed as usize, img.tile_rects(tw, th).count());
    }

    #[test]
    fn delta_streams_report_tile_counters_and_recycle_buffers() {
        // A 3-frame "video": frame 0, an identical frame, then one changed
        // tile.
        let base = RgbImage::from_fn(64, 48, |x, y| Rgb::new(x as u8, y as u8, 0));
        let mut moved = base.clone();
        moved.set(5, 5, Rgb::new(255, 255, 255));
        let frames = vec![base.clone(), base.clone(), moved];
        let pipeline = SegmentPipeline::new(SegmentEngine::serial(), PhaseTable::paper_default())
            .with_config(PipelineConfig {
                tiling: seg_engine::Tiling::Tiles {
                    width: 16,
                    height: 16,
                },
            })
            .with_cache(CacheConfig::with_capacity_mb(4), "delta-stream-test");
        let tiles_per_frame = base.tile_rects(16, 16).count();
        let report = pipeline.run_stream_deltas(&frames, 2, |_, labels, _, _| {
            pipeline.recycle(labels);
        });
        assert_eq!(report.images(), 3);
        assert_eq!(
            report.delta_tiles_hit + report.delta_tiles_recomputed,
            tiles_per_frame * 3
        );
        assert_eq!(
            report.delta_tiles_recomputed,
            tiles_per_frame + 1,
            "first frame recomputes all, third frame exactly one: {report:?}"
        );
        assert!(report.delta_tile_hit_ratio() > 0.5, "{report:?}");
        assert_eq!(
            (report.cache_hits, report.cache_misses),
            (0, 0),
            "tile traffic stays out of the whole-image counters: {report:?}"
        );
        // A second pass over the same frames is all hits and allocation-free.
        let second = pipeline.run_stream_deltas(&frames, 2, |_, labels, _, _| {
            pipeline.recycle(labels);
        });
        assert_eq!(second.delta_tiles_recomputed, 0, "{second:?}");
        assert_eq!(second.arena_allocations, 0, "warm arena: {second:?}");
    }

    #[test]
    fn empty_batch_and_defaults_are_handled() {
        let pipeline =
            SegmentPipeline::new(SegmentEngine::with_threads(3), PhaseTable::paper_default());
        assert_eq!(pipeline.engine, SegmentEngine::with_threads(3));
        assert_eq!(pipeline.config.tiling, seg_engine::Tiling::Whole);
        let (labels, stats) = pipeline.run_batch(&[]);
        assert!(labels.is_empty());
        assert_eq!(stats.images, 0);
        let report = pipeline.run_stream(&[], 4, |_, _| panic!("no images"));
        assert_eq!(report.images(), 0);
        assert_eq!(report.workers, 3, "the engine's thread count");
    }
}
