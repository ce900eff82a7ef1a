//! Per-batch and per-run throughput/latency accounting.
//!
//! The pipeline's stream loop times each batch into a [`BatchStats`] and
//! rolls a run's batches, per-job latencies and counters into a
//! [`PipelineReport`].  The report also surfaces the label arena's
//! allocation-vs-reuse counters, making the "zero per-image allocation in
//! steady state" property observable from the CLI.

/// Throughput/latency figures for one completed batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchStats {
    /// Zero-based index of the batch within the run.
    pub batch: usize,
    /// Images segmented in this batch.
    pub images: usize,
    /// Total pixels classified in this batch.
    pub pixels: usize,
    /// Wall-clock seconds the pipeline took to produce the batch's label
    /// maps, stitching included.  The clock stops before the stream's sink
    /// sees the first result, so time the caller spends consuming labels
    /// is not counted; this holds for every stream runner.
    pub elapsed_secs: f64,
}

impl BatchStats {
    /// Images per wall-clock second (0 for an instantaneous/empty batch).
    pub fn images_per_sec(&self) -> f64 {
        if self.elapsed_secs <= 0.0 {
            0.0
        } else {
            self.images as f64 / self.elapsed_secs
        }
    }

    /// Megapixels classified per wall-clock second.
    pub fn mpixels_per_sec(&self) -> f64 {
        if self.elapsed_secs <= 0.0 {
            0.0
        } else {
            self.pixels as f64 / self.elapsed_secs / 1e6
        }
    }

    /// Mean wall-clock latency per image, in milliseconds.
    ///
    /// This is batch latency divided by batch size — the figure a caller
    /// waiting on the whole batch observes per image, not the service time of
    /// one worker.
    pub fn mean_latency_ms(&self) -> f64 {
        if self.images == 0 {
            0.0
        } else {
            self.elapsed_secs * 1e3 / self.images as f64
        }
    }
}

use crate::hist::LatencySummary;

/// Aggregated statistics for a whole pipeline run.
#[derive(Debug, Clone, Default)]
pub struct PipelineReport {
    /// Per-batch figures, in execution order.
    pub batches: Vec<BatchStats>,
    /// Per-operation service-latency percentiles for the run, recorded into
    /// a [`crate::LatencyHistogram`]: one sample per image on the whole-image
    /// paths, one per tile job on the tiled batch path.
    pub latency: LatencySummary,
    /// The engine's effective thread count: the most jobs a batch runs at
    /// once.
    pub workers: usize,
    /// Fresh label-buffer allocations the arena performed during this run.
    pub arena_allocations: usize,
    /// Label buffers the arena served from its pool during this run.
    pub arena_reuses: usize,
    /// Buffers sitting idle in the arena pool when the run finished.
    pub arena_pooled: usize,
    /// Result-cache hits during this run (0 when no cache is attached).
    pub cache_hits: usize,
    /// Result-cache misses during this run (0 when no cache is attached).
    pub cache_misses: usize,
    /// Result-cache evictions during this run (0 when no cache is attached).
    pub cache_evictions: usize,
    /// Entries resident in the result cache when the run finished.
    pub cache_entries: usize,
    /// Bytes charged against the result cache's budget when the run finished.
    pub cache_bytes: usize,
    /// Delta-path tiles answered from the cache during this run (0 when no
    /// cache is attached or the delta path was not used).
    pub delta_tiles_hit: usize,
    /// Delta-path tiles re-classified during this run.
    pub delta_tiles_recomputed: usize,
}

impl PipelineReport {
    /// Total images across all batches.
    pub fn images(&self) -> usize {
        self.batches.iter().map(|b| b.images).sum()
    }

    /// Total pixels across all batches.
    pub fn pixels(&self) -> usize {
        self.batches.iter().map(|b| b.pixels).sum()
    }

    /// Total wall-clock seconds across all batches.
    pub fn elapsed_secs(&self) -> f64 {
        self.batches.iter().map(|b| b.elapsed_secs).sum()
    }

    /// Overall images per second across the run.
    pub fn images_per_sec(&self) -> f64 {
        let secs = self.elapsed_secs();
        if secs <= 0.0 {
            0.0
        } else {
            self.images() as f64 / secs
        }
    }

    /// Overall megapixels per second across the run.
    pub fn mpixels_per_sec(&self) -> f64 {
        let secs = self.elapsed_secs();
        if secs <= 0.0 {
            0.0
        } else {
            self.pixels() as f64 / secs / 1e6
        }
    }

    /// Fraction of delta-path tiles answered from the cache (0.0 when the
    /// delta path saw no tiles).
    pub fn delta_tile_hit_ratio(&self) -> f64 {
        let total = self.delta_tiles_hit + self.delta_tiles_recomputed;
        if total == 0 {
            0.0
        } else {
            self.delta_tiles_hit as f64 / total as f64
        }
    }

    /// Steady-state throughput: overall rate excluding the first batch
    /// (which pays arena warm-up and cache-fill costs).  Falls back to the
    /// overall rate for single-batch runs.
    pub fn steady_state_images_per_sec(&self) -> f64 {
        if self.batches.len() < 2 {
            return self.images_per_sec();
        }
        let images: usize = self.batches[1..].iter().map(|b| b.images).sum();
        let secs: f64 = self.batches[1..].iter().map(|b| b.elapsed_secs).sum();
        if secs <= 0.0 {
            0.0
        } else {
            images as f64 / secs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(batch: usize, images: usize, pixels: usize, secs: f64) -> BatchStats {
        BatchStats {
            batch,
            images,
            pixels,
            elapsed_secs: secs,
        }
    }

    #[test]
    fn batch_rates_and_latency() {
        let b = batch(0, 10, 1_000_000, 0.5);
        assert!((b.images_per_sec() - 20.0).abs() < 1e-9);
        assert!((b.mpixels_per_sec() - 2.0).abs() < 1e-9);
        assert!((b.mean_latency_ms() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_batches_report_zero_rates() {
        let b = batch(0, 0, 0, 0.0);
        assert_eq!(b.images_per_sec(), 0.0);
        assert_eq!(b.mpixels_per_sec(), 0.0);
        assert_eq!(b.mean_latency_ms(), 0.0);
    }

    #[test]
    fn delta_tile_hit_ratio_handles_empty_and_mixed_runs() {
        assert_eq!(PipelineReport::default().delta_tile_hit_ratio(), 0.0);
        let report = PipelineReport {
            delta_tiles_hit: 3,
            delta_tiles_recomputed: 1,
            ..PipelineReport::default()
        };
        assert!((report.delta_tile_hit_ratio() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn report_aggregates_and_excludes_warmup_from_steady_state() {
        let report = PipelineReport {
            batches: vec![
                batch(0, 4, 400, 2.0), // slow warm-up batch
                batch(1, 4, 400, 0.5),
                batch(2, 4, 400, 0.5),
            ],
            workers: 2,
            arena_allocations: 4,
            arena_reuses: 8,
            arena_pooled: 4,
            ..PipelineReport::default()
        };
        assert_eq!(report.images(), 12);
        assert_eq!(report.pixels(), 1200);
        assert!((report.elapsed_secs() - 3.0).abs() < 1e-9);
        assert!((report.images_per_sec() - 4.0).abs() < 1e-9);
        assert!((report.steady_state_images_per_sec() - 8.0).abs() < 1e-9);
        // Single-batch runs fall back to the overall rate.
        let single = PipelineReport {
            batches: vec![batch(0, 4, 400, 2.0)],
            ..PipelineReport::default()
        };
        assert_eq!(
            single.steady_state_images_per_sec(),
            single.images_per_sec()
        );
    }
}
