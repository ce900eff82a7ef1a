//! [`SegmentPlan`] — the single dispatch point for segmentation strategy.
//!
//! A [`SegmentPlan`] makes the whole choice — *which classifier*
//! ([`ClassifierKind`]) × *which backend* ([`xpar::Backend`]) — a
//! first-class value that every caller builds once and passes down, so
//! strategy parsing and dispatch live in exactly one place.  Its
//! `FromStr`/`Display` impls are the canonical
//! `classifier=…;tile=off;backend=…` spec string that the CLI's `--plan`
//! flag, the Stats reply and the baseline records all speak.  The `tile` key
//! has the one value `off` ([`Tiling`]): a frame is always classified whole.
//!
//! The plan is deliberately algorithm-agnostic: it names classifier
//! *families*, and algorithm crates (e.g. `iqft-seg`'s `IqftClassifier`)
//! materialise the concrete [`imaging::PixelClassifier`] for a kind.  The
//! plan then executes any classifier through [`SegmentPlan::segment_rgb`],
//! a chunk-parallel pass over the whole frame on the plan's backend.

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
    /// Eager precomputed phase table, three lookups per pixel
    /// (`PhaseTable`).
    Table,
    /// One lookup per pixel in a table of thresholds on blue, one per
    /// (red, green), filled lazily from the phase table and shared per
    /// configuration (`SplitTable`).  An AVX2 gather kernel serves it, or a
    /// portable scalar loop elsewhere and under `IQFT_SIMD=off`.  Labels
    /// equal `table`'s by construction; the raw-speed hot path and the
    /// default.
    #[default]
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
}

impl std::fmt::Display for ClassifierKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.flag())
    }
}

/// The plan's `tile` axis, which has one value: a frame is classified
/// whole, with its label buffer split into chunks over as many of the
/// backend's threads as the frame is worth to its classifier.  Frames are not split into tile jobs: every label depends only
/// on its own pixel, so tiles would only add a stitch.  The loopback
/// benchmark names this type (`plan.tiling().delta_shape()`), so it stays,
/// with one variant, until that benchmark's plan moves on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Tiling {
    /// One chunk-parallel pass over the whole label buffer.
    #[default]
    Whole,
}

impl Tiling {
    /// Parses a plan spec's `tile` value: `off`, `whole` or the empty
    /// string.  A tile shape such as `64x64` is an error naming the value
    /// that remains.
    pub(crate) fn from_flag(flag: &str) -> Result<Self, String> {
        match flag {
            "" | "off" | "whole" => Ok(Tiling::Whole),
            other => Err(format!(
                "unknown tile value '{other}' (expected off: frames are classified whole)"
            )),
        }
    }

    /// The spec spelling, `off` (the inverse of `Tiling::from_flag`).
    pub(crate) fn flag(self) -> &'static str {
        "off"
    }

    /// Edge of the per-tile delta cache's square tiles: 64 pixels balances
    /// hash overhead against change granularity for video-sized frames.
    pub(crate) const DELTA_TILE: usize = 64;

    /// The tile shape of the per-tile delta cache, `Tiling::DELTA_TILE`
    /// square.  The loopback benchmark names this method.
    pub fn delta_shape(self) -> (usize, usize) {
        (Self::DELTA_TILE, Self::DELTA_TILE)
    }
}

/// A complete segmentation strategy: classifier family × execution
/// backend.
///
/// Every consumer — the experiments CLI, the throughput pipeline, the bench
/// targets — builds one of these (usually by parsing a spec string) and
/// executes through it, so strategy choice has a single owner.  Whatever
/// the plan, the resulting labels are byte-identical: classifier kinds agree
/// exactly by construction, and backends only reschedule independent
/// per-pixel work.
///
/// # Example
///
/// ```
/// use imaging::{Rgb, RgbImage};
/// use seg_engine::{ClassifierKind, SegmentPlan};
///
/// let plan: SegmentPlan = "classifier=table;tile=off;backend=threads:2"
///     .parse()
///     .unwrap();
/// assert_eq!(plan.classifier(), ClassifierKind::Table);
/// assert_eq!(plan.to_spec(), "classifier=table;tile=off;backend=threads:2");
///
/// // The plan executes any per-pixel rule; every backend produces
/// // byte-identical labels.
/// let img = RgbImage::from_fn(70, 50, |x, y| Rgb::new(x as u8, y as u8, 0));
/// let rule = |p: Rgb<u8>| u32::from(p.r() > p.g());
/// let serial = SegmentPlan::default().segment_rgb(&rule, &img);
/// assert_eq!(plan.segment_rgb(&rule, &img), serial);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SegmentPlan {
    classifier: ClassifierKind,
    backend: Backend,
}

impl SegmentPlan {
    /// Creates a plan from its two strategy axes.
    pub fn new(classifier: ClassifierKind, backend: Backend) -> Self {
        Self {
            classifier,
            backend,
        }
    }

    /// Replaces the classifier kind.
    pub fn with_classifier(mut self, classifier: ClassifierKind) -> Self {
        self.classifier = classifier;
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

    /// The plan's tile axis, always [`Tiling::Whole`].  The loopback
    /// benchmark names this method.
    pub fn tiling(&self) -> Tiling {
        Tiling::Whole
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
    /// e.g. `classifier=table;tile=off;backend=threads:4`.
    ///
    /// This is the form the `iqft-serve` Stats reply carries, so a remote
    /// client can reconstruct the exact strategy a server runs by parsing it
    /// back (the plan's `FromStr` impl).  Round-trips losslessly.
    /// Equivalent to the plan's `Display` impl.
    pub fn to_spec(&self) -> String {
        self.to_string()
    }

    /// Segments `img` with `classifier` on the plan's backend: one
    /// chunk-parallel pass over the whole frame, on the threads the frame
    /// is worth to the classifier.  Byte-identical across every plan
    /// configuration.
    pub fn segment_rgb<C>(&self, classifier: &C, img: &RgbImage) -> LabelMap
    where
        C: PixelClassifier + Sync + ?Sized,
    {
        self.engine().segment_rgb(classifier, img)
    }

    /// Allocation-reusing variant of [`SegmentPlan::segment_rgb`]: fills
    /// `labels` in place.  The loopback benchmark names this method.
    pub fn segment_rgb_into<C>(&self, classifier: &C, img: &RgbImage, labels: &mut Vec<u32>)
    where
        C: PixelClassifier + Sync + ?Sized,
    {
        self.engine().segment_rgb_into(classifier, img, labels)
    }
}

impl std::str::FromStr for SegmentPlan {
    type Err = String;

    /// Parses a spec such as `classifier=table;tile=off;backend=threads:4`.
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
                "tile" => {
                    Tiling::from_flag(value)?;
                }
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
            self.tiling().flag(),
            SegmentPlan::backend_spec(self.backend)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifier_flags_round_trip() {
        for kind in ClassifierKind::ALL {
            assert_eq!(ClassifierKind::from_flag(kind.flag()).unwrap(), kind);
            assert_eq!(format!("{kind}"), kind.flag());
        }
        assert!(ClassifierKind::from_flag("gpu").is_err());
        assert_eq!(
            ClassifierKind::default(),
            ClassifierKind::Simd,
            "the default plan serves the split table"
        );
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

    /// The `tile` axis keeps its three spellings of a whole frame, renders
    /// as `off`, and deltas at the 64-pixel square tile.  Every tile shape
    /// is rejected, alone or inside a spec, naming the value that remains.
    #[test]
    fn tiling_flags_round_trip() {
        for flag in ["off", "", "whole"] {
            assert_eq!(Tiling::from_flag(flag).unwrap(), Tiling::Whole);
        }
        assert_eq!(Tiling::Whole.flag(), "off");
        assert_eq!(Tiling::from_flag(Tiling::Whole.flag()), Ok(Tiling::Whole));
        assert_eq!(Tiling::default(), Tiling::Whole);
        assert_eq!(Tiling::Whole.delta_shape(), (64, 64));
        for retired in ["48x48", "64x64", "64", "0x4", "?"] {
            let expected = format!(
                "unknown tile value '{retired}' (expected off: frames are classified whole)"
            );
            assert_eq!(Tiling::from_flag(retired).unwrap_err(), expected);
            assert_eq!(
                format!("classifier=table;tile={retired};backend=serial")
                    .parse::<SegmentPlan>()
                    .unwrap_err(),
                expected
            );
        }
    }

    /// The loopback benchmark pins these two specs and reads the delta tile
    /// shape off its plan.  They parse, render byte-identically (its Stats
    /// `plan=` text, cache salts and bench ids depend on that), and delta at
    /// 64×64.
    #[test]
    fn the_loopback_benchmarks_pinned_specs_render_byte_identically() {
        for (spec, kind) in [
            (
                "classifier=simd;tile=off;backend=serial",
                ClassifierKind::Simd,
            ),
            (
                "classifier=table;tile=off;backend=serial",
                ClassifierKind::Table,
            ),
        ] {
            let plan: SegmentPlan = spec.parse().unwrap();
            assert_eq!(plan, SegmentPlan::new(kind, Backend::Serial));
            assert_eq!(plan.to_spec(), spec);
            assert_eq!(plan.tiling().delta_shape(), (64, 64));
        }
        assert_eq!(
            SegmentPlan::default().to_spec(),
            "classifier=simd;tile=off;backend=threads:0"
        );
    }

    #[test]
    fn plan_specs_round_trip_losslessly() {
        let backends = [Backend::Serial, Backend::Threads(0), Backend::Threads(7)];
        for kind in ClassifierKind::ALL {
            for backend in backends {
                let plan = SegmentPlan::new(kind, backend);
                let spec = plan.to_spec();
                assert_eq!(spec.parse::<SegmentPlan>().unwrap(), plan, "{spec}");
                for tile in ["", "whole"] {
                    let spelled = spec.replace("tile=off", &format!("tile={tile}"));
                    assert_eq!(spelled.parse::<SegmentPlan>().unwrap(), plan, "{spelled}");
                }
            }
        }
        let spec = SegmentPlan::new(ClassifierKind::Table, Backend::Threads(4)).to_spec();
        assert_eq!(spec, "classifier=table;tile=off;backend=threads:4");
    }

    #[test]
    fn plan_spec_type_round_trips_and_converts_both_ways() {
        let plan = SegmentPlan::new(ClassifierKind::Simd, Backend::Threads(4));
        let rendered = plan.to_string();
        assert_eq!(rendered, "classifier=simd;tile=off;backend=threads:4");
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
        let plan: SegmentPlan = "backend=threads;classifier=exact;tile=off".parse().unwrap();
        assert_eq!(plan.classifier(), ClassifierKind::Exact);
        assert_eq!(plan.backend(), Backend::Threads(0));
        for bad in [
            "classifier=gpu",
            "tile=64",
            "tile=8x8",
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
            .with_backend(Backend::Serial);
        assert_eq!(plan.classifier(), ClassifierKind::Exact);
        assert_eq!(plan.backend(), Backend::Serial);
        let threaded = plan
            .with_classifier(ClassifierKind::Simd)
            .with_backend(Backend::Threads(3));
        assert_eq!(threaded.engine(), SegmentEngine::with_threads(3));
        assert_eq!(
            threaded.to_spec(),
            "classifier=simd;tile=off;backend=threads:3"
        );
        assert_eq!(
            SegmentPlan::default().tiling(),
            Tiling::Whole,
            "default plan is a whole-image pass"
        );
    }
}
