//! [`SegmentPlan`] — the single dispatch point for segmentation strategy.
//!
//! A [`SegmentPlan`] makes the whole choice — *which classifier*
//! ([`ClassifierKind`]) × *which work decomposition* ([`Tiling`]) × *which
//! backend* ([`xpar::Backend`]) — a first-class value that every caller
//! builds once and passes down, so strategy parsing and dispatch live in
//! exactly one place.  Its `FromStr`/`Display` impls are the canonical
//! `classifier=…;tile=…;backend=…` spec string that the CLI's `--plan` flag,
//! the Stats reply and the baseline records all speak.
//!
//! The plan is deliberately algorithm-agnostic: it names classifier
//! *families*, and algorithm crates (e.g. `iqft-seg`'s `IqftClassifier`)
//! materialise the concrete [`imaging::PixelClassifier`] for a kind.  The
//! plan then executes any classifier through [`SegmentPlan::segment_rgb`],
//! which routes to the whole-image or tiled engine path; both are
//! byte-identical by construction.

use crate::SegmentEngine;
use imaging::{LabelMap, PixelClassifier, RgbImage};
use xpar::Backend;

/// The classifier families the workspace implements for the paper's RGB
/// algorithm, as selected by the `--classifier` flag.
///
/// This enum is the single source of truth for the `exact|table|simd` flag
/// vocabulary shared by the experiments CLI and the bench targets; help text
/// and error messages render it via [`ClassifierKind::FLAG_HELP`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClassifierKind {
    /// Direct statevector-equivalent math per pixel (`IqftRgbSegmenter`),
    /// the exact oracle every other kind is checked against.
    Exact,
    /// Eager precomputed phase table, three lookups per pixel (`PhaseTable`,
    /// the steady-state fast path and the default).
    #[default]
    Table,
    /// Fixed-point log-space quantization of the phase table with
    /// runtime-dispatched `std::arch` SIMD kernels (AVX2 → SSE4.1 → SSE2,
    /// the scalar kernel elsewhere or under `IQFT_SIMD=off`) — labels
    /// bit-identical to `exact` via the built-in f64 oracle fallback, the
    /// raw-speed hot path.
    Simd,
}

impl ClassifierKind {
    /// Every classifier kind, in flag order — handy for sweeps.
    pub const ALL: [ClassifierKind; 3] = [
        ClassifierKind::Exact,
        ClassifierKind::Table,
        ClassifierKind::Simd,
    ];

    /// The full `--classifier` flag vocabulary, rendered once for help text
    /// and error messages so every subcommand and bench enumerates the same
    /// set.
    pub const FLAG_HELP: &'static str = "exact|table|simd";

    /// Parses the `--classifier` flag (one of
    /// [`ClassifierKind::FLAG_HELP`]).
    pub fn from_flag(flag: &str) -> Result<Self, String> {
        match flag {
            "exact" => Ok(ClassifierKind::Exact),
            "table" => Ok(ClassifierKind::Table),
            "simd" => Ok(ClassifierKind::Simd),
            other => Err(format!(
                "unknown classifier '{other}' (expected one of {})",
                Self::FLAG_HELP
            )),
        }
    }

    /// The flag spelling of this kind (the inverse of
    /// [`ClassifierKind::from_flag`]).
    pub fn flag(self) -> &'static str {
        match self {
            ClassifierKind::Exact => "exact",
            ClassifierKind::Table => "table",
            ClassifierKind::Simd => "simd",
        }
    }

    /// Whether this kind classifies through the quantized fixed-point table
    /// (and therefore reports oracle-fallback pixel counts).
    pub fn is_quantized(self) -> bool {
        self == ClassifierKind::Simd
    }
}

impl std::fmt::Display for ClassifierKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.flag())
    }
}

/// How an image's pixels are decomposed into units of parallel work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Tiling {
    /// One chunk-parallel pass over the whole label buffer (the default).
    #[default]
    Whole,
    /// Split the image into `width × height` tiles (edge tiles clamped) and
    /// fan the tiles out as independent jobs.
    Tiles {
        /// Tile width in pixels (clamped to at least 1).
        width: usize,
        /// Tile height in pixels (clamped to at least 1).
        height: usize,
    },
}

impl Tiling {
    /// Parses the `--tile` flag: `off` (or the empty string) selects
    /// [`Tiling::Whole`], `WxH` (e.g. `64x64`) selects [`Tiling::Tiles`].
    pub fn from_flag(flag: &str) -> Result<Self, String> {
        if flag.is_empty() || flag == "off" || flag == "whole" {
            return Ok(Tiling::Whole);
        }
        let parse = |part: &str| part.parse::<usize>().ok().filter(|&v| v > 0);
        if let Some((w, h)) = flag.split_once('x') {
            if let (Some(width), Some(height)) = (parse(w), parse(h)) {
                return Ok(Tiling::Tiles { width, height });
            }
        }
        Err(format!(
            "invalid tile shape '{flag}' (expected WxH with positive integers, e.g. 64x64, or off)"
        ))
    }

    /// The flag spelling of this tiling (the inverse of
    /// [`Tiling::from_flag`]).
    pub fn flag(self) -> String {
        match self {
            Tiling::Whole => "off".to_string(),
            Tiling::Tiles { width, height } => format!("{width}x{height}"),
        }
    }

    /// Default tile edge for the per-tile delta cache when the plan does not
    /// pick one (i.e. [`Tiling::Whole`]): 64 pixels balances hash overhead
    /// against change-granularity for video-sized frames.
    pub(crate) const DEFAULT_DELTA_TILE: usize = 64;

    /// The tile shape the per-tile delta-cache path uses.  A tiled plan
    /// deltas at its own tile shape; a whole-image plan still needs *some*
    /// tile granularity to delta at, so it falls back to
    /// `Tiling::DEFAULT_DELTA_TILE`-square tiles.
    pub fn delta_shape(self) -> (usize, usize) {
        match self {
            Tiling::Whole => (Self::DEFAULT_DELTA_TILE, Self::DEFAULT_DELTA_TILE),
            Tiling::Tiles { width, height } => (width, height),
        }
    }
}

impl std::fmt::Display for Tiling {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.flag())
    }
}

/// A complete segmentation strategy: classifier family × work decomposition
/// × execution backend.
///
/// Every consumer — the experiments CLI, the throughput pipeline, the bench
/// targets — builds one of these (usually by parsing a spec string) and
/// executes through it, so strategy choice has a single owner.  Whatever
/// the plan, the resulting labels are byte-identical: classifier kinds agree
/// exactly by construction, and tiling/backends only reschedule independent
/// per-pixel work.
///
/// # Example
///
/// ```
/// use imaging::{Rgb, RgbImage};
/// use seg_engine::{SegmentPlan, Tiling};
///
/// let plan: SegmentPlan = "classifier=table;tile=32x32;backend=threads:2"
///     .parse()
///     .unwrap();
/// assert_eq!(plan.tiling(), Tiling::Tiles { width: 32, height: 32 });
///
/// // The plan executes any per-pixel rule; tiled and whole-image plans
/// // produce byte-identical labels.
/// let img = RgbImage::from_fn(70, 50, |x, y| Rgb::new(x as u8, y as u8, 0));
/// let rule = |p: Rgb<u8>| u32::from(p.r() > p.g());
/// let whole = SegmentPlan::default().segment_rgb(&rule, &img);
/// assert_eq!(plan.segment_rgb(&rule, &img), whole);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SegmentPlan {
    classifier: ClassifierKind,
    tiling: Tiling,
    backend: Backend,
}

impl SegmentPlan {
    /// Creates a plan from its three strategy axes.
    pub fn new(classifier: ClassifierKind, tiling: Tiling, backend: Backend) -> Self {
        Self {
            classifier,
            tiling,
            backend,
        }
    }

    /// Replaces the classifier kind.
    pub fn with_classifier(mut self, classifier: ClassifierKind) -> Self {
        self.classifier = classifier;
        self
    }

    /// Replaces the work decomposition.
    pub fn with_tiling(mut self, tiling: Tiling) -> Self {
        self.tiling = tiling;
        self
    }

    /// Replaces the execution backend.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// The classifier family this plan selects.
    pub fn classifier(&self) -> ClassifierKind {
        self.classifier
    }

    /// The work decomposition this plan selects.
    pub fn tiling(&self) -> Tiling {
        self.tiling
    }

    /// The execution backend this plan selects.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// An engine executing on the plan's backend.
    pub fn engine(&self) -> SegmentEngine {
        SegmentEngine::new(self.backend)
    }

    /// The flag spelling of a backend: `serial` or `threads:N` (N = 0 means
    /// one per core).  The inverse of [`SegmentPlan::backend_from_spec`].
    pub(crate) fn backend_spec(backend: Backend) -> String {
        match backend {
            Backend::Serial => "serial".to_string(),
            Backend::Threads(n) => format!("threads:{n}"),
        }
    }

    /// Parses a backend spec produced by [`SegmentPlan::backend_spec`]
    /// (`threads` without a count is accepted and means `threads:0`).
    pub(crate) fn backend_from_spec(spec: &str) -> Result<Backend, String> {
        match spec {
            "serial" => Ok(Backend::Serial),
            "threads" => Ok(Backend::Threads(0)),
            other => match other.strip_prefix("threads:") {
                Some(count) => count
                    .parse::<usize>()
                    .map(Backend::Threads)
                    .map_err(|_| format!("invalid thread count in backend spec '{other}'")),
                None => Err(format!(
                    "unknown backend spec '{other}' (expected serial or threads[:N])"
                )),
            },
        }
    }

    /// Serializes the whole plan into a compact machine-readable spec,
    /// e.g. `classifier=table;tile=48x48;backend=threads:4`.
    ///
    /// This is the form the `iqft-serve` Stats reply carries, so a remote
    /// client can reconstruct the exact strategy a server runs by parsing it
    /// back (the plan's `FromStr` impl).  Round-trips losslessly.
    /// Equivalent to the plan's `Display` impl.
    pub fn to_spec(&self) -> String {
        self.to_string()
    }

    /// Segments `img` with `classifier` according to the plan's tiling on
    /// the plan's backend.  Byte-identical across every plan configuration.
    pub fn segment_rgb<C>(&self, classifier: &C, img: &RgbImage) -> LabelMap
    where
        C: PixelClassifier + Sync + ?Sized,
    {
        match self.tiling {
            Tiling::Whole => self.engine().segment_rgb(classifier, img),
            Tiling::Tiles { width, height } => {
                self.engine().segment_tiled(classifier, img, width, height)
            }
        }
    }

    /// Allocation-reusing variant of [`SegmentPlan::segment_rgb`]: fills
    /// `labels` in place.
    pub fn segment_rgb_into<C>(&self, classifier: &C, img: &RgbImage, labels: &mut Vec<u32>)
    where
        C: PixelClassifier + Sync + ?Sized,
    {
        match self.tiling {
            Tiling::Whole => self.engine().segment_rgb_into(classifier, img, labels),
            Tiling::Tiles { width, height } => self
                .engine()
                .segment_tiled_into(classifier, img, width, height, labels),
        }
    }
}

impl std::str::FromStr for SegmentPlan {
    type Err = String;

    /// Parses a spec such as `classifier=table;tile=48x48;backend=threads:4`.
    /// Keys may appear in any order; missing keys keep their defaults;
    /// unknown keys error.
    fn from_str(spec: &str) -> Result<Self, String> {
        let mut plan = SegmentPlan::default();
        for part in spec.split(';').filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("plan spec part '{part}' has no '='"))?;
            match key {
                "classifier" => plan.classifier = ClassifierKind::from_flag(value)?,
                "tile" => plan.tiling = Tiling::from_flag(value)?,
                "backend" => plan.backend = SegmentPlan::backend_from_spec(value)?,
                other => return Err(format!("unknown plan spec key '{other}'")),
            }
        }
        Ok(plan)
    }
}

impl std::fmt::Display for SegmentPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "classifier={};tile={};backend={}",
            self.classifier.flag(),
            self.tiling.flag(),
            SegmentPlan::backend_spec(self.backend)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imaging::Rgb;

    #[test]
    fn classifier_flags_round_trip() {
        for kind in ClassifierKind::ALL {
            assert_eq!(ClassifierKind::from_flag(kind.flag()).unwrap(), kind);
            assert_eq!(format!("{kind}"), kind.flag());
        }
        assert!(ClassifierKind::from_flag("gpu").is_err());
        assert_eq!(ClassifierKind::default(), ClassifierKind::Table);
    }

    /// The hand-written help literal must list exactly `ALL`, in order, and
    /// every rejection (including the retired `lut` and `quant` kinds) must
    /// name exactly the kinds that remain.
    #[test]
    fn classifier_flag_help_is_the_vocabulary_of_all() {
        let flags: Vec<&str> = ClassifierKind::ALL.iter().map(|k| k.flag()).collect();
        assert_eq!(ClassifierKind::FLAG_HELP, flags.join("|"));
        for retired in ["lut", "quant"] {
            assert_eq!(
                ClassifierKind::from_flag(retired).unwrap_err(),
                format!("unknown classifier '{retired}' (expected one of exact|table|simd)")
            );
        }
    }

    #[test]
    fn tiling_flags_round_trip() {
        for flag in ["off", "", "whole"] {
            assert_eq!(Tiling::from_flag(flag).unwrap(), Tiling::Whole);
        }
        assert_eq!(
            Tiling::from_flag("64x48").unwrap(),
            Tiling::Tiles {
                width: 64,
                height: 48
            }
        );
        let tiled = Tiling::Tiles {
            width: 7,
            height: 3,
        };
        assert_eq!(Tiling::from_flag(&tiled.flag()).unwrap(), tiled);
        assert_eq!(tiled.delta_shape(), (7, 3));
        assert_eq!(
            Tiling::Whole.delta_shape(),
            (Tiling::DEFAULT_DELTA_TILE, Tiling::DEFAULT_DELTA_TILE),
            "whole-image plans delta at the default square tile"
        );
        assert_eq!(Tiling::Whole.flag(), "off");
        for bad in ["64", "0x4", "4x0", "axb", "4x4x4", "?"] {
            assert!(Tiling::from_flag(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn plan_specs_round_trip_losslessly() {
        let backends = [Backend::Serial, Backend::Threads(0), Backend::Threads(7)];
        for kind in ClassifierKind::ALL {
            for tiling in [
                Tiling::Whole,
                Tiling::Tiles {
                    width: 48,
                    height: 32,
                },
            ] {
                for backend in backends {
                    let plan = SegmentPlan::new(kind, tiling, backend);
                    let spec = plan.to_spec();
                    assert_eq!(spec.parse::<SegmentPlan>().unwrap(), plan, "{spec}");
                }
            }
        }
        let spec = SegmentPlan::new(
            ClassifierKind::Table,
            Tiling::Tiles {
                width: 48,
                height: 48,
            },
            Backend::Threads(4),
        )
        .to_spec();
        assert_eq!(spec, "classifier=table;tile=48x48;backend=threads:4");
    }

    #[test]
    fn plan_spec_type_round_trips_and_converts_both_ways() {
        let plan = SegmentPlan::new(
            ClassifierKind::Simd,
            Tiling::Tiles {
                width: 48,
                height: 32,
            },
            Backend::Threads(4),
        );
        let rendered = plan.to_string();
        assert_eq!(rendered, "classifier=simd;tile=48x32;backend=threads:4");
        assert_eq!(plan.to_spec(), rendered);
        assert_eq!(rendered.parse::<SegmentPlan>().unwrap(), plan);
        assert_eq!(
            "".parse::<SegmentPlan>().unwrap(),
            SegmentPlan::default(),
            "missing keys keep their defaults"
        );
        assert!("flavour=mint".parse::<SegmentPlan>().is_err());
    }

    #[test]
    fn plan_spec_parsing_is_order_insensitive_and_rejects_junk() {
        let plan: SegmentPlan = "backend=threads;classifier=exact;tile=8x8".parse().unwrap();
        assert_eq!(plan.classifier(), ClassifierKind::Exact);
        assert_eq!(plan.backend(), Backend::Threads(0));
        for bad in [
            "classifier=gpu",
            "tile=64",
            "backend=gpu",
            "backend=threads:lots",
            "flavour=mint",
            "classifier",
        ] {
            assert!(bad.parse::<SegmentPlan>().is_err(), "{bad}");
        }
    }

    #[test]
    fn builder_methods_replace_single_axes() {
        let plan = SegmentPlan::default()
            .with_classifier(ClassifierKind::Exact)
            .with_tiling(Tiling::Tiles {
                width: 4,
                height: 4,
            })
            .with_backend(Backend::Serial);
        assert_eq!(plan.classifier(), ClassifierKind::Exact);
        assert_eq!(plan.backend(), Backend::Serial);
        let threaded = plan
            .with_classifier(ClassifierKind::Simd)
            .with_tiling(Tiling::Tiles {
                width: 16,
                height: 8,
            })
            .with_backend(Backend::Threads(3));
        assert_eq!(threaded.engine(), SegmentEngine::with_threads(3));
        assert_eq!(
            threaded.to_spec(),
            "classifier=simd;tile=16x8;backend=threads:3"
        );
        assert_eq!(
            SegmentPlan::default().tiling(),
            Tiling::Whole,
            "default plan is a whole-image pass"
        );
    }

    #[test]
    fn tiled_and_whole_plans_agree_for_closures() {
        let img = RgbImage::from_fn(37, 23, |x, y| {
            Rgb::new((x * 7) as u8, (y * 11) as u8, ((x * y) % 251) as u8)
        });
        let rule = |p: Rgb<u8>| u32::from(p.r() as u16 + p.g() as u16 + p.b() as u16) % 5;
        let whole = SegmentPlan::default().segment_rgb(&rule, &img);
        for (tw, th) in [(1, 1), (7, 3), (64, 64), (37, 23)] {
            let plan = SegmentPlan::default().with_tiling(Tiling::Tiles {
                width: tw,
                height: th,
            });
            assert_eq!(plan.segment_rgb(&rule, &img), whole, "{tw}x{th}");
            let mut buf = Vec::new();
            plan.segment_rgb_into(&rule, &img, &mut buf);
            assert_eq!(buf, whole.as_slice(), "{tw}x{th} (_into)");
        }
    }
}
