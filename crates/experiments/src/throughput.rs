//! The `throughput` subcommand: batched segmentation of an image stream
//! through the `iqft-pipeline` service.
//!
//! This is the workload the ROADMAP's "heavy traffic" north star describes:
//! `--images N` synthetic frames are pushed through a [`SegmentPipeline`] in
//! batches of `--batch B`, label buffers are recycled between batches, and
//! per-batch throughput/latency plus arena allocation counters are reported.
//! Three classifier modes are exposed (the full
//! [`ClassifierKind::FLAG_HELP`] set):
//!
//! * `exact` — the direct [`IqftRgbSegmenter`] (statevector-equivalent math
//!   per pixel);
//! * `table` — the eager `PhaseTable` fast path (three table lookups per
//!   pixel);
//! * `simd` — the fixed-point quantized table with runtime-dispatched
//!   `std::arch` kernels (the steady-state winner; `IQFT_SIMD=off` pins its
//!   portable scalar kernel, and either way it stays bit-identical to
//!   `exact` via its built-in f64 oracle).
//!
//! Strategy selection goes through one dispatch point: the flags are parsed
//! into a [`SegmentPlan`] (`seg_engine::ClassifierKind` ×
//! `seg_engine::Tiling` × backend — the same single source of truth the
//! bench targets use) and the plan's classifier kind is materialised with
//! [`IqftClassifier`].  The `--tile WxH` knob switches the pipeline from
//! whole-image jobs to tile jobs, so oversized frames fan out across the
//! engine's threads instead of serialising onto one.
//!
//! Every run cross-checks the batched output against per-image serial
//! segmentation with the exact segmenter and reports the verification result
//! — byte-identity is an acceptance criterion, not an option (and it holds
//! for every classifier × tiling × backend combination by construction).  A
//! mismatch fails the run ([`ThroughputError::Mismatch`]), and so does a
//! strategy flag that does not parse ([`ThroughputError::Flag`]).

use crate::plans::{resolve_plan, ResolvedPlan};
use datasets::{synthetic_video, PascalVocLikeConfig, PascalVocLikeDataset, VideoConfig};
use imaging::{LabelMap, RgbImage, Segmenter};
use iqft_pipeline::{CacheConfig, LatencySummary, PipelineConfig, PipelineReport, SegmentPipeline};
use iqft_seg::{IqftClassifier, IqftRgbSegmenter};
use seg_engine::{ClassifierKind, SegmentEngine, SegmentPlan, Tiling};
use std::fmt::Write as _;

/// Configuration of a throughput run (mirrors the CLI flags).
#[derive(Debug, Clone)]
pub struct ThroughputConfig {
    /// Number of images in the stream (`--images`).
    pub images: usize,
    /// Batch size (`--batch`).
    pub batch: usize,
    /// Square-ish image edge length in pixels (`--size`).
    pub image_size: usize,
    /// Dataset seed (`--seed`).
    pub seed: u64,
    /// Classifier mode (`--classifier`), one of
    /// [`ClassifierKind::FLAG_HELP`], parsed by
    /// [`ClassifierKind::from_flag`].
    pub classifier: String,
    /// Work decomposition: `off` for whole-image jobs or `WxH` for tile
    /// jobs (`--tile`), parsed by [`Tiling::from_flag`].
    pub tile: String,
    /// Whole-plan flag (`--plan`): a `classifier=…;tile=…;backend=…` spec,
    /// `auto` to probe the host (`crate::plans`), or empty to compose the
    /// plan from `classifier`/`tile` and the engine's backend.  Non-empty
    /// values override the per-axis flags.
    pub plan: String,
    /// Result-cache budget in MiB (`--cache-mb`, 0 = off).  With a cache
    /// the stream runs through the per-request path
    /// ([`SegmentPipeline::run_stream_requests`]) so repeated images are
    /// answered from the cache, the way a serving deployment sees them.
    pub cache_mb: usize,
    /// Skip the byte-identity cross-check (`--no-verify`); the default runs it.
    pub verify: bool,
    /// Stream synthetic video instead of independent images (`--video`):
    /// consecutive frames share most of their pixels, and the stream runs
    /// through the per-tile delta path
    /// ([`SegmentPipeline::run_stream_deltas`]) so unchanged tiles are
    /// stitched from the cache instead of re-classified.
    pub video: bool,
    /// Fraction of each frame's blocks mutated per frame in `--video` mode
    /// (`--change-rate`, 0.0–1.0).
    pub change_rate: f64,
}

impl Default for ThroughputConfig {
    fn default() -> Self {
        Self {
            images: 64,
            batch: 16,
            image_size: 128,
            seed: 42,
            classifier: ClassifierKind::default().flag().to_string(),
            tile: Tiling::default().flag(),
            plan: String::new(),
            cache_mb: 0,
            verify: true,
            video: false,
            change_rate: 0.1,
        }
    }
}

impl ThroughputConfig {
    /// Parses the config's strategy flags into a [`SegmentPlan`] executing
    /// on `engine`'s backend.  Errors on an unknown classifier or a
    /// malformed tile shape.  With a non-empty `plan` flag this may run a
    /// calibration sweep (`--plan auto`); use `Self::resolved_plan` when
    /// the calibration evidence matters.
    pub fn plan(&self, engine: &SegmentEngine) -> Result<SegmentPlan, String> {
        self.resolved_plan(engine).map(|resolved| resolved.plan)
    }

    /// Resolves the `--plan` flag (falling back to the per-axis flags) and
    /// keeps the calibration report when the plan was probed.
    pub(crate) fn resolved_plan(&self, engine: &SegmentEngine) -> Result<ResolvedPlan, String> {
        resolve_plan(&self.plan, || {
            Ok(SegmentPlan::new(
                ClassifierKind::from_flag(&self.classifier)?,
                Tiling::from_flag(&self.tile)?,
                engine.backend(),
            ))
        })
    }
}

/// Generates the synthetic image stream for a throughput run (the VOC-like
/// generator's images, deterministic in `seed`).
pub(crate) fn throughput_images(config: &ThroughputConfig) -> Vec<RgbImage> {
    if config.video {
        return synthetic_video(&VideoConfig {
            frames: config.images,
            width: config.image_size,
            height: config.image_size * 3 / 4,
            change_rate: config.change_rate,
            block: 0,
            seed: config.seed,
        });
    }
    PascalVocLikeDataset::new(PascalVocLikeConfig {
        len: config.images,
        width: config.image_size,
        height: config.image_size * 3 / 4,
        seed: config.seed,
        ..PascalVocLikeConfig::default()
    })
    .iter()
    .map(|sample| sample.image)
    .collect()
}

/// The serving-path shape of one run: how frames decompose into work, how
/// big the result cache is (0 = none), and whether the stream takes the
/// per-tile delta path.
struct StreamShape {
    tiling: Tiling,
    cache_mb: usize,
    delta: bool,
}

fn run_pipeline(
    engine: &SegmentEngine,
    classifier: IqftClassifier,
    images: &[RgbImage],
    batch: usize,
    shape: StreamShape,
    cache_salt: &str,
) -> (Vec<LabelMap>, PipelineReport, u64) {
    let StreamShape {
        tiling,
        cache_mb,
        delta,
    } = shape;
    let pipeline = SegmentPipeline::new(*engine, classifier)
        .with_config(PipelineConfig { tiling })
        .with_cache(CacheConfig::with_capacity_mb(cache_mb), cache_salt);
    let mut outputs: Vec<Option<LabelMap>> = Vec::new();
    outputs.resize_with(images.len(), || None);
    let sink = |idx: usize, labels: LabelMap| {
        // Keep a copy for verification, recycle the storage for the next
        // batch.  (A real service would ship `labels` downstream instead.)
        outputs[idx] = Some(labels.clone());
        pipeline.recycle(labels);
    };
    let report = if delta {
        // Video streams run the per-tile delta path: unchanged tiles are
        // stitched from the cache, changed tiles are re-classified.
        let mut sink = sink;
        pipeline.run_stream_deltas(images, batch, |idx, labels, _hit, _recomputed| {
            sink(idx, labels)
        })
    } else if cache_mb > 0 {
        // Cached streams run the per-request serving path so repeated
        // images are answered from the cache.
        let mut sink = sink;
        pipeline.run_stream_requests(images, batch, |idx, labels, _hit| sink(idx, labels))
    } else {
        pipeline.run_stream(images, batch, sink)
    };
    let outputs = outputs
        .into_iter()
        .map(|slot| slot.expect("pipeline visited every image"))
        .collect();
    let quant_fallbacks = pipeline.classifier().quant_fallback_pixels();
    (outputs, report, quant_fallbacks)
}

/// Runs the configured stream under a resolved plan and returns `(labels,
/// report, quant fallbacks)` — the last is the number of pixels a quantized
/// classifier routed through its f64 exactness oracle (0 for non-quantized
/// kinds).  [`throughput_report`] resolves the plan once, so a `--plan auto`
/// calibration sweep runs once, not once per stage.
pub(crate) fn throughput_run_with_plan(
    config: &ThroughputConfig,
    images: &[RgbImage],
    plan: &SegmentPlan,
) -> (Vec<LabelMap>, PipelineReport, u64) {
    run_pipeline(
        &plan.engine(),
        IqftClassifier::for_plan(plan),
        images,
        config.batch,
        StreamShape {
            tiling: plan.tiling(),
            cache_mb: config.cache_mb,
            delta: config.video,
        },
        &plan.to_spec(),
    )
}

/// Why a throughput run failed.  The CLI exits 2 on a flag error and 1 on
/// a mismatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThroughputError {
    /// A strategy flag (`--classifier`, `--tile`, `--plan`) did not parse.
    Flag(String),
    /// The labels differ from the serial reference.  Carries the rendered
    /// report, whose last line says how many images differ.
    Mismatch(String),
}

/// Checks `labels` against per-image serial segmentation with the exact
/// segmenter.  Returns the report's verify line, or the failure line
/// naming how many images differ (a missing label map counts as one).
fn verify_labels(images: &[RgbImage], labels: &[LabelMap]) -> Result<String, String> {
    let reference = IqftRgbSegmenter::paper_default().with_engine(SegmentEngine::serial());
    let mismatches = images
        .iter()
        .enumerate()
        .filter(|&(i, img)| labels.get(i) != Some(&reference.segment_rgb(img)))
        .count();
    if mismatches == 0 {
        Ok(format!(
            "  verify: batched output byte-identical to per-image serial segmentation \
             ({} images checked)",
            images.len()
        ))
    } else {
        Err(format!(
            "  verify: FAILED — {mismatches} of {} images differ from serial reference",
            images.len()
        ))
    }
}

/// Runs the whole subcommand and renders the human-readable report.
pub fn throughput_report(
    engine: &SegmentEngine,
    config: &ThroughputConfig,
) -> Result<String, ThroughputError> {
    let images = throughput_images(config);
    // Resolve the plan once up front: a `--plan auto` calibration sweep
    // should probe the host a single time, and its evidence belongs in the
    // report.
    let resolved = config
        .resolved_plan(engine)
        .map_err(ThroughputError::Flag)?;
    let (labels, report, quant_fallbacks) =
        throughput_run_with_plan(config, &images, &resolved.plan);
    let quantized = resolved.plan.classifier().is_quantized();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Throughput: {} images ({}x{}), batch {}, classifier '{}', tile '{}', {} workers, \
         cache {}",
        config.images,
        config.image_size,
        config.image_size * 3 / 4,
        config.batch,
        config.classifier,
        config.tile,
        report.workers,
        if config.cache_mb > 0 {
            format!("{}MiB", config.cache_mb)
        } else {
            "off".to_string()
        },
    );
    let _ = writeln!(out, "  plan: [{}]", resolved.plan);
    if let Some(calibration) = &resolved.calibration {
        let _ = writeln!(out, "  calibration: {}", calibration.summary());
    }
    if config.video {
        let _ = writeln!(
            out,
            "  video: delta path, change rate {:.0}% of blocks per frame",
            config.change_rate * 100.0,
        );
    }
    for b in &report.batches {
        let _ = writeln!(
            out,
            "  batch {:>3}: {:>4} img  {:>8.3} Mpx  {:>9.2} ms  {:>8.1} img/s  {:>7.2} Mpx/s  {:>7.3} ms/img",
            b.batch,
            b.images,
            b.pixels as f64 / 1e6,
            b.elapsed_secs * 1e3,
            b.images_per_sec(),
            b.mpixels_per_sec(),
            b.mean_latency_ms(),
        );
    }
    let _ = writeln!(
        out,
        "  total: {} images, {:.3} Mpx in {:.2} ms -> {:.1} img/s, {:.2} Mpx/s (steady-state {:.1} img/s)",
        report.images(),
        report.pixels() as f64 / 1e6,
        report.elapsed_secs() * 1e3,
        report.images_per_sec(),
        report.mpixels_per_sec(),
        report.steady_state_images_per_sec(),
    );
    let _ = writeln!(
        out,
        "  arena: {} allocations, {} reuses ({} buffers pooled at exit)",
        report.arena_allocations, report.arena_reuses, report.arena_pooled,
    );
    if report.latency.count > 0 {
        let lat = report.latency;
        let _ = writeln!(
            out,
            "  latency: p50 {:.3} ms  p90 {:.3} ms  p99 {:.3} ms  p999 {:.3} ms  max {:.3} ms \
             ({} ops)",
            LatencySummary::ms(lat.p50_ns),
            LatencySummary::ms(lat.p90_ns),
            LatencySummary::ms(lat.p99_ns),
            LatencySummary::ms(lat.p999_ns),
            LatencySummary::ms(lat.max_ns),
            lat.count,
        );
    }
    if config.cache_mb > 0 {
        let _ = writeln!(
            out,
            "  cache: {} hits, {} misses, {} evictions ({} entries, {:.1} MiB at exit)",
            report.cache_hits,
            report.cache_misses,
            report.cache_evictions,
            report.cache_entries,
            report.cache_bytes as f64 / (1 << 20) as f64,
        );
    }
    let delta_total = report.delta_tiles_hit + report.delta_tiles_recomputed;
    if delta_total > 0 {
        let _ = writeln!(
            out,
            "  delta: {} tiles hit, {} recomputed ({:.1}% tile hit ratio)",
            report.delta_tiles_hit,
            report.delta_tiles_recomputed,
            report.delta_tile_hit_ratio() * 100.0,
        );
    }
    if quantized {
        let _ = writeln!(
            out,
            "  quant: {} of {} pixels resolved by the f64 exactness oracle ({:.4}%)",
            quant_fallbacks,
            report.pixels(),
            if report.pixels() > 0 {
                quant_fallbacks as f64 * 100.0 / report.pixels() as f64
            } else {
                0.0
            },
        );
    }

    if config.verify {
        match verify_labels(&images, &labels) {
            Ok(line) => {
                let _ = writeln!(out, "{line}");
            }
            Err(line) => {
                let _ = writeln!(out, "{line}");
                return Err(ThroughputError::Mismatch(out));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Resolves `config`'s plan on `engine` and runs its stream, or fails on
    /// an unknown classifier or tile flag.
    fn throughput_run(
        engine: &SegmentEngine,
        config: &ThroughputConfig,
        images: &[RgbImage],
    ) -> Result<(Vec<LabelMap>, PipelineReport, u64), String> {
        let plan = config.plan(engine)?;
        Ok(throughput_run_with_plan(config, images, &plan))
    }

    fn small_config(classifier: &str) -> ThroughputConfig {
        ThroughputConfig {
            images: 6,
            batch: 2,
            image_size: 40,
            seed: 7,
            classifier: classifier.to_string(),
            tile: "off".to_string(),
            plan: String::new(),
            cache_mb: 0,
            verify: true,
            video: false,
            change_rate: 0.1,
        }
    }

    #[test]
    fn video_streams_run_the_delta_path_and_stay_byte_identical() {
        let engine = SegmentEngine::with_threads(2);
        let mut config = small_config("table");
        config.video = true;
        config.change_rate = 0.25;
        config.cache_mb = 8;
        config.tile = "32x32".to_string();
        config.images = 5;
        config.image_size = 128; // 128x96 frames: 4 mutation blocks, 12 tiles
        let images = throughput_images(&config);
        assert_eq!(images.len(), 5);
        let reference: Vec<LabelMap> = images
            .iter()
            .map(|img| {
                IqftRgbSegmenter::paper_default()
                    .with_engine(SegmentEngine::serial())
                    .segment_rgb(img)
            })
            .collect();
        let (labels, report, _) = throughput_run(&engine, &config, &images).unwrap();
        assert_eq!(labels, reference, "stitched deltas match serial reference");
        assert!(report.delta_tiles_hit > 0, "{report:?}");
        assert!(report.delta_tiles_recomputed > 0, "{report:?}");
        let rendered = throughput_report(&engine, &config).unwrap();
        assert!(rendered.contains("video: delta path"), "{rendered}");
        assert!(rendered.contains("tile hit ratio"), "{rendered}");
        assert!(rendered.contains("byte-identical"), "{rendered}");
    }

    #[test]
    fn all_classifier_modes_and_tilings_agree_with_serial_reference() {
        let engine = SegmentEngine::with_threads(2);
        let config = small_config("exact");
        let images = throughput_images(&config);
        let reference: Vec<LabelMap> = images
            .iter()
            .map(|img| {
                IqftRgbSegmenter::paper_default()
                    .with_engine(SegmentEngine::serial())
                    .segment_rgb(img)
            })
            .collect();
        for kind in ClassifierKind::ALL {
            let mode = kind.flag();
            for tile in ["off", "16x16", "13x7"] {
                let mut config = small_config(mode);
                config.tile = tile.to_string();
                let (labels, report, fallbacks) =
                    throughput_run(&engine, &config, &images).unwrap();
                assert_eq!(labels, reference, "mode {mode} tile {tile}");
                assert_eq!(report.images(), 6);
                assert_eq!(report.batches.len(), 3);
                if !kind.is_quantized() {
                    assert_eq!(fallbacks, 0, "mode {mode} has no oracle path");
                }
            }
        }
    }

    #[test]
    fn cached_streams_agree_with_serial_reference_and_report_cache_counters() {
        let engine = SegmentEngine::with_threads(2);
        let mut config = small_config("table");
        config.cache_mb = 4;
        let images = throughput_images(&config);
        let reference: Vec<LabelMap> = images
            .iter()
            .map(|img| {
                IqftRgbSegmenter::paper_default()
                    .with_engine(SegmentEngine::serial())
                    .segment_rgb(img)
            })
            .collect();
        let (labels, report, _) = throughput_run(&engine, &config, &images).unwrap();
        assert_eq!(labels, reference);
        // Distinct images: every request misses and is stored.
        assert_eq!(report.cache_misses, 6, "{report:?}");
        assert_eq!(report.cache_hits, 0, "{report:?}");
        assert_eq!(report.cache_entries, 6, "{report:?}");
        let rendered = throughput_report(&engine, &config).unwrap();
        assert!(rendered.contains("cache 4MiB"), "{rendered}");
        assert!(rendered.contains("cache:"), "{rendered}");
        assert!(rendered.contains("byte-identical"), "{rendered}");
    }

    #[test]
    fn unknown_classifier_and_tile_flags_are_rejected() {
        let engine = SegmentEngine::serial();
        let config = small_config("gpu");
        let images = throughput_images(&config);
        assert!(throughput_run(&engine, &config, &images).is_err());
        assert!(matches!(
            throughput_report(&engine, &config),
            Err(ThroughputError::Flag(message)) if message.contains("unknown classifier")
        ));
        let mut config = small_config("table");
        config.tile = "64".to_string();
        assert!(throughput_run(&engine, &config, &images).is_err());
        assert!(matches!(
            throughput_report(&engine, &config),
            Err(ThroughputError::Flag(message)) if message.contains("invalid tile shape")
        ));
    }

    #[test]
    fn verification_rejects_a_tampered_label_map() {
        let engine = SegmentEngine::with_threads(2);
        let config = small_config("simd");
        let images = throughput_images(&config);
        let (mut labels, _, _) = throughput_run(&engine, &config, &images).unwrap();
        let ok = verify_labels(&images, &labels).unwrap();
        assert!(ok.contains("byte-identical"), "{ok}");
        let label = labels[2].get(0, 0);
        labels[2].set(0, 0, label ^ 1);
        let err = verify_labels(&images, &labels).unwrap_err();
        assert!(err.contains("FAILED — 1 of 6 images differ"), "{err}");
        // A missing label map is a mismatch too.
        let err = verify_labels(&images, &labels[..4]).unwrap_err();
        assert!(err.contains("FAILED — 3 of 6 images differ"), "{err}");
    }

    #[test]
    fn config_plan_resolves_the_three_axes() {
        let engine = SegmentEngine::with_threads(3);
        let mut config = small_config("exact");
        config.tile = "32x16".to_string();
        let plan = config.plan(&engine).unwrap();
        assert_eq!(plan.classifier(), ClassifierKind::Exact);
        assert_eq!(
            plan.tiling(),
            Tiling::Tiles {
                width: 32,
                height: 16
            }
        );
        assert_eq!(plan.backend(), engine.backend());
        assert_eq!(
            ThroughputConfig::default().plan(&engine).unwrap().tiling(),
            Tiling::Whole,
            "tiling defaults to off"
        );
    }

    #[test]
    fn plan_flag_overrides_the_axis_flags_and_stays_byte_identical() {
        let engine = SegmentEngine::with_threads(2);
        let mut config = small_config("table");
        // The per-axis flags say table/off; the plan flag wins.
        config.plan = "classifier=simd;tile=16x16;backend=serial".to_string();
        let plan = config.plan(&engine).unwrap();
        assert_eq!(plan.classifier(), ClassifierKind::Simd);
        assert_eq!(plan.backend(), SegmentEngine::serial().backend());
        let report = throughput_report(&engine, &config).unwrap();
        assert!(
            report.contains("plan: [classifier=simd;tile=16x16;backend=serial]"),
            "{report}"
        );
        assert!(report.contains("byte-identical"), "{report}");
        // A malformed plan fails loudly instead of falling back.
        config.plan = "classifier=warp".to_string();
        assert!(matches!(
            throughput_report(&engine, &config),
            Err(ThroughputError::Flag(message)) if message.contains("unknown classifier")
        ));
    }

    #[test]
    fn report_contains_verification_and_batch_lines() {
        let engine = SegmentEngine::with_threads(2);
        let report = throughput_report(&engine, &small_config("table")).unwrap();
        assert!(report.contains("batch   0"), "{report}");
        assert!(report.contains("byte-identical"), "{report}");
        assert!(report.contains("arena"), "{report}");
        assert!(report.contains("latency: p50"), "{report}");
        assert!(!report.contains("quant:"), "{report}");
        // --no-verify drops the verification pass.
        let mut config = small_config("table");
        config.verify = false;
        let silent = throughput_report(&engine, &config).unwrap();
        assert!(!silent.contains("verify:"), "{silent}");
    }

    #[test]
    fn quantized_report_surfaces_the_oracle_fallback_line() {
        let engine = SegmentEngine::with_threads(2);
        let report = throughput_report(&engine, &small_config("simd")).unwrap();
        assert!(report.contains("quant:"), "{report}");
        assert!(report.contains("exactness oracle"), "{report}");
        assert!(report.contains("byte-identical"), "{report}");
    }

    #[test]
    fn image_stream_is_deterministic_in_the_seed() {
        let config = small_config("table");
        assert_eq!(throughput_images(&config), throughput_images(&config));
        let mut other = config.clone();
        other.seed = 8;
        assert_ne!(throughput_images(&config), throughput_images(&other));
    }
}
