//! [`SplitTable`] — Algorithm 1 as one table lookup per pixel, filled lazily
//! from the f64 [`PhaseTable`] oracle.
//!
//! # One threshold on blue per (r, g)
//!
//! The label is the arg-max of `P(j) = ∏_q cos²((φ_q − 2π·j·2^(2−q)/8)/2)`
//! (see [`crate::rgb`]).  Under the eq. 11 ordering blue feeds register
//! position 0, whose factor `cos²((φ_b − π·j)/2)` depends on `j` only
//! through its parity: it is `cos²(φ_b/2)` for every even state and
//! `sin²(φ_b/2)` for every odd one.  So for a fixed (r, g) the label is
//! either the best even state of the red and green factors or the best odd
//! one, and b decides between them only through the ratio `tan²(φ_b/2)`.
//! While `φ_b` stays within one half-turn, that ratio is monotone in b, so
//! in real arithmetic the label changes at most once along b: each (r, g)
//! row is two runs.  One `u32` entry per row holds the threshold, the label
//! below it and the label from it on.
//!
//! # Exception rows
//!
//! Where the best even and odd products tie in real arithmetic, f64
//! rounding breaks the tie differently at each b and the row has more than
//! two runs.  At the paper's θ that happens in 201 of the 65,536 rows, all
//! with r = 0 or r = 255.  Such a row stores its 256 labels, and its entry
//! points at them.  Nothing is approximated: every row is filled by asking
//! the oracle for all 256 values of b, so the table answers exactly what
//! [`PhaseTable::classify`] answers, by construction.
//!
//! # Lazy fill and sharing
//!
//! Filling all rows eagerly takes 0.16–0.26 s in release and about 8 s in
//! debug, so a row is filled the first time a pixel needs it (~2 µs).  One
//! table per configuration (the bits of θ and the normalisation flag) lives
//! in a process-wide registry: every handle built for that configuration —
//! the daemon's, a bench's, each boot's — shares its fills.  The kernel
//! choice stays with the handle.  [`SplitTable::cold`] gives a handle on a
//! fresh, unshared table, which is what a cold process starts from.
//!
//! # Race freedom
//!
//! The entries and the stored rows sit behind one [`RwLock`].  A slice is
//! classified under a read guard, so the gather never reads an entry that
//! another thread is writing.  When the kernel meets an unfilled entry, it
//! stops and reports where; the slice then drops its read guard, takes the
//! write guard, fills every unfilled row the rest of the slice needs, and
//! resumes from that pixel under a new read guard.  Rows are never emptied,
//! so a slice takes at most two passes.
//!
//! # Where the split does not fit
//!
//! When the blue phase span `255·scale·θ3` exceeds π, `tan²(φ_b/2)` is not
//! monotone along b and every row has three or more runs.  For such a
//! configuration [`SplitTable::for_segmenter`] returns `None`, and the
//! `simd` classifier kind serves the f64 [`PhaseTable`] instead.  No plan
//! builds one: plans use the paper's θ3 = π, whose span is exactly π.
//!
//! # Kernels
//!
//! The AVX2 kernel takes 8 pixels per step: two 16-byte loads, two
//! `vpshufb` for the (r, g) index and b, one `vpgatherdd`, a compare and a
//! `vpsrlvd`.  Lanes whose entry is an exception or unfilled are patched in
//! scalar code.  A portable scalar loop serves every other host and
//! `IQFT_SIMD=off`.  Both read the same entries, so they agree by
//! construction.

use crate::phase_table::{PhaseTable, CHANNEL_OF_QUBIT};
use crate::rgb::IqftRgbSegmenter;
use imaging::{LabelMap, PixelClassifier, Rgb, RgbImage, Segmenter};
use seg_engine::SegmentEngine;
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// One entry per (r, g): `r << 8 | g`.
const ROWS: usize = 1 << 16;

/// Number of distinct values of b.
const ROW_LEN: usize = 256;

/// Set on an entry that is not a two-run row: either [`UNFILLED`] or an
/// exception, whose low 31 bits index the stored rows.
const SPECIAL: u32 = 1 << 31;

/// The entry of a row no pixel has touched yet.
const UNFILLED: u32 = u32::MAX;

/// Bits 0..=8 of a two-run entry: the threshold `t` in `0..=256`.  Pixels
/// with `b < t` take the label at [`BELOW_SHIFT`], the rest the label at
/// [`ABOVE_SHIFT`].
const THRESHOLD_MASK: u32 = 0x1FF;

/// Bit offset of the label from the threshold on (3 bits).
const ABOVE_SHIFT: u32 = 16;

/// Bit offset of the label below the threshold (3 bits).
const BELOW_SHIFT: u32 = 20;

/// The fewest pixels worth a thread of their own on this table
/// ([`PixelClassifier::min_pixels_per_thread`]): 1 Mi px, so a frame stays
/// on one thread below 2 Mi px (2048×1024).  On a 2-vCPU Xeon with AVX2 and
/// a warm table, two threads ran 2–18× slower than one at 96×72–256×192,
/// tied at 1024×768, and ran 1.3–1.9× faster at 3840×2160.
const MIN_PIXELS_PER_THREAD: usize = 1 << 20;

/// A two-run entry.
fn pack(threshold: usize, below: u8, above: u8) -> u32 {
    threshold as u32 | u32::from(above) << ABOVE_SHIFT | u32::from(below) << BELOW_SHIFT
}

/// The label a two-run entry gives blue value `b`.
#[inline]
fn decode(entry: u32, b: u8) -> u32 {
    let shift = if u32::from(b) < entry & THRESHOLD_MASK {
        BELOW_SHIFT
    } else {
        ABOVE_SHIFT
    };
    (entry >> shift) & 7
}

/// The kernel a [`SplitTable`] classifies with.  Both kernels produce
/// identical labels; the choice is only about speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Portable scalar loop (every architecture; `IQFT_SIMD=off` selects it
    /// on x86).
    Scalar,
    /// AVX2 gather kernel: 8 pixels per step.
    Avx2,
}

impl SimdLevel {
    /// Both levels, scalar first.
    pub const ALL: [SimdLevel; 2] = [SimdLevel::Scalar, SimdLevel::Avx2];

    /// Whether the running host can execute this level.
    pub fn is_supported(self) -> bool {
        match self {
            SimdLevel::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            SimdLevel::Avx2 => false,
        }
    }

    /// `self` if the host supports it, the scalar loop otherwise.
    fn clamp_to_supported(self) -> SimdLevel {
        if self.is_supported() {
            self
        } else {
            SimdLevel::Scalar
        }
    }

    /// Resolves the level for this host: `IQFT_SIMD=off` or `scalar` pins
    /// the portable loop, and any other value (or none) picks the best
    /// supported level.
    fn detect() -> SimdLevel {
        match std::env::var("IQFT_SIMD").as_deref() {
            Ok("off") | Ok("scalar") => SimdLevel::Scalar,
            _ => SimdLevel::Avx2.clamp_to_supported(),
        }
    }

    /// The `IQFT_SIMD` spelling of this level.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

impl std::fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The entries and the stored exception rows of one configuration.
struct Rows {
    entries: Box<[u32; ROWS]>,
    stored: Vec<[u8; ROW_LEN]>,
}

impl Rows {
    fn new() -> Self {
        Self {
            entries: vec![UNFILLED; ROWS]
                .into_boxed_slice()
                .try_into()
                .expect("ROWS entries"),
            stored: Vec::new(),
        }
    }

    /// The label of `pixel`, or `None` when its row is unfilled.
    #[inline]
    fn label(&self, pixel: Rgb<u8>) -> Option<u32> {
        let [r, g, b] = pixel.0;
        let entry = self.entries[usize::from(r) << 8 | usize::from(g)];
        if entry & SPECIAL == 0 {
            Some(decode(entry, b))
        } else if entry == UNFILLED {
            None
        } else {
            Some(u32::from(
                self.stored[(entry & !SPECIAL) as usize][usize::from(b)],
            ))
        }
    }

    /// The portable kernel.  Labels `pixels` until it meets an unfilled
    /// row, and returns how many it labelled.
    fn classify_scalar(&self, pixels: &[Rgb<u8>], out: &mut [u32]) -> usize {
        for (i, (label, &pixel)) in out.iter_mut().zip(pixels).enumerate() {
            match self.label(pixel) {
                Some(value) => *label = value,
                None => return i,
            }
        }
        pixels.len()
    }

    /// Fills every unfilled row that a pixel of `pixels` lies in.
    fn fill(&mut self, oracle: &PhaseTable, pixels: &[Rgb<u8>]) {
        for &pixel in pixels {
            let [r, g, _] = pixel.0;
            let slot = usize::from(r) << 8 | usize::from(g);
            if self.entries[slot] == UNFILLED {
                self.entries[slot] = self.row_entry(oracle, r, g);
            }
        }
    }

    /// Asks the oracle for all 256 values of b in row (r, g) and encodes
    /// the answer: a two-run entry, or an exception pointing at the stored
    /// labels.
    fn row_entry(&mut self, oracle: &PhaseTable, r: u8, g: u8) -> u32 {
        let mut labels = [0u8; ROW_LEN];
        for (b, label) in labels.iter_mut().enumerate() {
            *label = oracle.classify(Rgb::new(r, g, b as u8)) as u8;
        }
        let below = labels[0];
        let threshold = labels
            .iter()
            .position(|&label| label != below)
            .unwrap_or(ROW_LEN);
        let above = labels[ROW_LEN - 1];
        if labels[threshold..].iter().all(|&label| label == above) {
            pack(threshold, below, above)
        } else {
            self.stored.push(labels);
            SPECIAL | (self.stored.len() - 1) as u32
        }
    }
}

/// One configuration's oracle and rows, shared by every handle on it.
struct Table {
    oracle: PhaseTable,
    rows: RwLock<Rows>,
}

impl Table {
    fn new(oracle: PhaseTable) -> Self {
        Self {
            oracle,
            rows: RwLock::new(Rows::new()),
        }
    }
}

/// Registry key: the bits of θ1, θ2, θ3 and the normalisation flag.
type Key = ([u64; 3], bool);

/// One table per configuration, for the life of the process.
static REGISTRY: Mutex<Vec<(Key, Arc<Table>)>> = Mutex::new(Vec::new());

/// The exact classifier behind the `simd` kind: one lookup per pixel in a
/// table filled lazily from the f64 [`PhaseTable`] oracle and shared by
/// every handle on the same configuration (see the module docs).
///
/// Labels equal [`PhaseTable::classify`] for every pixel, by construction.
///
/// # Example
///
/// ```
/// use imaging::Rgb;
/// use iqft_seg::{PhaseTable, SimdLevel, SplitTable};
///
/// let oracle = PhaseTable::paper_default();
/// let split = SplitTable::paper_default();
/// let scalar = SplitTable::paper_default().with_simd(SimdLevel::Scalar);
/// for pixel in [Rgb::new(13, 200, 77), Rgb::new(254, 1, 128), Rgb::new(255, 255, 255)] {
///     assert_eq!(split.classify(pixel), oracle.classify(pixel));
///     assert_eq!(scalar.classify(pixel), oracle.classify(pixel));
/// }
/// ```
#[derive(Clone)]
pub struct SplitTable {
    table: Arc<Table>,
    level: SimdLevel,
    engine: SegmentEngine,
}

impl std::fmt::Debug for SplitTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SplitTable")
            .field("level", &self.level)
            .field("engine", &self.engine)
            .finish_non_exhaustive()
    }
}

impl SplitTable {
    /// The shared table for `segmenter`'s configuration, with the kernel
    /// [`SimdLevel`] detection picks, or `None` when the blue phase span
    /// exceeds π and rows would not split (see the module docs).
    pub(crate) fn for_segmenter(segmenter: &IqftRgbSegmenter) -> Option<Self> {
        let scale = if segmenter.normalizes() {
            1.0 / 255.0
        } else {
            1.0
        };
        let thetas = segmenter.thetas().as_array();
        let span = 255.0 * scale * thetas[CHANNEL_OF_QUBIT[0]];
        if span.abs() > std::f64::consts::PI {
            return None;
        }
        let key = (thetas.map(f64::to_bits), segmenter.normalizes());
        let mut registry = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
        let table = match registry.iter().find(|(k, _)| *k == key) {
            Some((_, table)) => Arc::clone(table),
            None => {
                let table = Arc::new(Table::new(PhaseTable::from_segmenter(segmenter)));
                registry.push((key, Arc::clone(&table)));
                table
            }
        };
        Some(Self {
            table,
            level: SimdLevel::detect(),
            engine: segmenter.engine(),
        })
    }

    /// The paper's headline configuration (`θ1 = θ2 = θ3 = π`).
    pub fn paper_default() -> Self {
        Self::for_segmenter(&IqftRgbSegmenter::paper_default())
            .expect("the paper's blue span is exactly π")
    }

    /// A handle on a new, empty table for the same configuration that
    /// shares nothing: every row it touches is filled again, as in a cold
    /// process.
    pub fn cold(&self) -> Self {
        Self {
            table: Arc::new(Table::new(self.table.oracle.clone())),
            ..self.clone()
        }
    }

    /// Selects the kernel, clamped to what the host supports.
    /// `SimdLevel::Scalar` pins the portable loop, which is what
    /// `IQFT_SIMD=off` selects.
    pub fn with_simd(mut self, level: SimdLevel) -> Self {
        self.level = level.clamp_to_supported();
        self
    }

    /// The kernel this handle classifies with.
    pub fn simd_level(&self) -> SimdLevel {
        self.level
    }

    /// Classifies one pixel.
    pub fn classify(&self, pixel: Rgb<u8>) -> u32 {
        let mut label = [0u32];
        self.classify_slice(&[pixel], &mut label);
        label[0]
    }

    /// Classifies a contiguous pixel run: one pass under a read guard, and
    /// a second one after filling the rows the first pass stopped at.
    ///
    /// # Panics
    ///
    /// Panics if `pixels` and `out` differ in length.
    pub(crate) fn classify_slice(&self, pixels: &[Rgb<u8>], out: &mut [u32]) {
        assert_eq!(
            pixels.len(),
            out.len(),
            "label slice does not match the pixel slice"
        );
        let done = self.pass(pixels, out);
        if done < pixels.len() {
            // A panic under the write guard can at most leave a stored row
            // that no entry points at, so a poisoned lock still guards
            // valid rows.
            self.table
                .rows
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .fill(&self.table.oracle, &pixels[done..]);
            let rest = self.pass(&pixels[done..], &mut out[done..]);
            assert_eq!(done + rest, pixels.len(), "a filled row never empties");
        }
    }

    /// Runs the kernel under a read guard; returns how many pixels it
    /// labelled before meeting an unfilled row.
    fn pass(&self, pixels: &[Rgb<u8>], out: &mut [u32]) -> usize {
        let rows = self
            .table
            .rows
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        match self.level {
            SimdLevel::Scalar => rows.classify_scalar(pixels, out),
            // SAFETY: `with_simd` and `detect` only select AVX2 on a host
            // that supports it.
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => unsafe { x86::classify_avx2(&rows, pixels, out) },
            #[cfg(not(target_arch = "x86_64"))]
            SimdLevel::Avx2 => rows.classify_scalar(pixels, out),
        }
    }
}

impl PixelClassifier for SplitTable {
    fn classify_rgb_pixel(&self, pixel: Rgb<u8>) -> u32 {
        self.classify(pixel)
    }

    fn min_pixels_per_thread(&self) -> usize {
        MIN_PIXELS_PER_THREAD
    }

    fn classify_rgb_slice_into(&self, pixels: &[Rgb<u8>], out: &mut [u32]) {
        self.classify_slice(pixels, out);
    }
}

impl Segmenter for SplitTable {
    fn name(&self) -> &str {
        "IQFT (RGB, split table)"
    }

    fn segment_rgb(&self, img: &RgbImage) -> LabelMap {
        self.engine.segment_rgb(self, img)
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Rows, ABOVE_SHIFT, BELOW_SHIFT, THRESHOLD_MASK};
    use imaging::Rgb;
    use std::arch::x86_64::*;

    /// The AVX2 kernel: the same entries and the same decode as
    /// [`Rows::classify_scalar`], 8 pixels per step.  Returns how many
    /// pixels it labelled before meeting an unfilled row.
    ///
    /// # Safety
    ///
    /// The host must support AVX2, and `out` must be as long as `pixels`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn classify_avx2(rows: &Rows, pixels: &[Rgb<u8>], out: &mut [u32]) -> usize {
        assert_eq!(pixels.len(), out.len(), "one label per pixel");
        let bytes = Rgb::slice_as_bytes(pixels);
        // The low 128-bit lane holds bytes 0..16 of the 8-pixel group
        // (pixels 0..4 at offsets 0, 3, 6, 9); the high lane holds bytes
        // 8..24 (pixels 4..8 at offsets 4, 7, 10, 13).  Each 32-bit lane
        // gathers `g | r << 8`, the entry index, and `b`.
        const Z: i8 = -128;
        let index = _mm256_setr_epi8(
            1, 0, Z, Z, 4, 3, Z, Z, 7, 6, Z, Z, 10, 9, Z, Z, //
            5, 4, Z, Z, 8, 7, Z, Z, 11, 10, Z, Z, 14, 13, Z, Z,
        );
        let blue = _mm256_setr_epi8(
            2, Z, Z, Z, 5, Z, Z, Z, 8, Z, Z, Z, 11, Z, Z, Z, //
            6, Z, Z, Z, 9, Z, Z, Z, 12, Z, Z, Z, 15, Z, Z, Z,
        );
        let threshold_mask = _mm256_set1_epi32(THRESHOLD_MASK as i32);
        let above = _mm256_set1_epi32(ABOVE_SHIFT as i32);
        let to_below = _mm256_set1_epi32((BELOW_SHIFT - ABOVE_SHIFT) as i32);
        let label_mask = _mm256_set1_epi32(7);
        let entries = rows.entries.as_ptr().cast::<i32>();
        let mut i = 0;
        while i + 8 <= pixels.len() {
            // Both loads end within the group's 24 bytes.
            let at = bytes.as_ptr().add(3 * i);
            let group = _mm256_set_m128i(
                _mm_loadu_si128(at.add(8).cast()),
                _mm_loadu_si128(at.cast()),
            );
            // Every index is below 2^16, inside the entry array.
            let entry = _mm256_i32gather_epi32::<4>(entries, _mm256_shuffle_epi8(group, index));
            let below = _mm256_cmpgt_epi32(
                _mm256_and_si256(entry, threshold_mask),
                _mm256_shuffle_epi8(group, blue),
            );
            let shift = _mm256_add_epi32(above, _mm256_and_si256(below, to_below));
            let labels = _mm256_and_si256(_mm256_srlv_epi32(entry, shift), label_mask);
            _mm256_storeu_si256(out.as_mut_ptr().add(i).cast(), labels);
            // Exception and unfilled lanes have the sign bit (SPECIAL) set.
            let mut special = _mm256_movemask_ps(_mm256_castsi256_ps(entry)) as u32;
            while special != 0 {
                let k = i + special.trailing_zeros() as usize;
                match rows.label(pixels[k]) {
                    Some(label) => out[k] = label,
                    None => return k,
                }
                special &= special - 1;
            }
            i += 8;
        }
        i + rows.classify_scalar(&pixels[i..], &mut out[i..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::theta::ThetaParams;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Configurations whose blue span fits, so `for_segmenter` builds a
    /// split table.
    fn configurations() -> Vec<IqftRgbSegmenter> {
        [
            ThetaParams::paper_default(),
            ThetaParams::mixed(),
            ThetaParams::new(1.3, 2.9, 0.4),
            ThetaParams::new(5.5, 2.0, 0.9),
        ]
        .into_iter()
        .map(IqftRgbSegmenter::new)
        .collect()
    }

    fn random_pixels(rng: &mut ChaCha8Rng, len: usize) -> Vec<Rgb<u8>> {
        (0..len)
            .map(|_| Rgb::new(rng.gen::<u8>(), rng.gen::<u8>(), rng.gen::<u8>()))
            .collect()
    }

    fn labels(table: &SplitTable, pixels: &[Rgb<u8>]) -> Vec<u32> {
        let mut out = vec![u32::MAX; pixels.len()];
        table.classify_slice(pixels, &mut out);
        out
    }

    fn supported_levels() -> impl Iterator<Item = SimdLevel> {
        SimdLevel::ALL
            .into_iter()
            .filter(|level| level.is_supported())
    }

    #[test]
    fn entries_match_the_documented_layout_for_every_threshold_and_label_pair() {
        for threshold in 0..=ROW_LEN {
            for below in 0..8u8 {
                for above in 0..8u8 {
                    let entry = pack(threshold, below, above);
                    assert_eq!(entry & SPECIAL, 0);
                    assert_eq!(entry & THRESHOLD_MASK, threshold as u32);
                    for b in [0usize, threshold.saturating_sub(1), threshold, 255] {
                        let Ok(b) = u8::try_from(b) else { continue };
                        let want = if usize::from(b) < threshold {
                            below
                        } else {
                            above
                        };
                        assert_eq!(decode(entry, b), u32::from(want), "t={threshold} b={b}");
                    }
                }
            }
        }
    }

    #[test]
    fn every_row_of_the_paper_table_decodes_to_the_oracle() {
        // Fills all 65,536 rows of a private paper-θ table, then decodes
        // each two-run row at b = 0, 255, thr − 1 and thr, and each
        // exception row at every b.  Exception rows are few, and every one
        // lies on the r = 0 or r = 255 edge.
        let oracle = PhaseTable::paper_default();
        let table = SplitTable::paper_default().cold();
        let all: Vec<Rgb<u8>> = (0..ROWS)
            .map(|i| Rgb::new((i >> 8) as u8, i as u8, 0))
            .collect();
        table
            .table
            .rows
            .write()
            .unwrap()
            .fill(&table.table.oracle, &all);
        let rows = table.table.rows.read().unwrap();
        let mut exceptions = 0;
        for (i, &entry) in rows.entries.iter().enumerate() {
            let (r, g) = ((i >> 8) as u8, i as u8);
            assert_ne!(entry, UNFILLED, "row ({r}, {g})");
            let probes: Vec<u8> = if entry & SPECIAL == 0 {
                let t = (entry & THRESHOLD_MASK) as usize;
                [0, 255, t.saturating_sub(1), t.min(255)]
                    .into_iter()
                    .map(|b| b as u8)
                    .collect()
            } else {
                exceptions += 1;
                assert!(r == 0 || r == 255, "exception row ({r}, {g})");
                (0..=255).collect()
            };
            for b in probes {
                let pixel = Rgb::new(r, g, b);
                assert_eq!(rows.label(pixel), Some(oracle.classify(pixel)), "{pixel:?}");
            }
        }
        assert_eq!(rows.stored.len(), exceptions);
        assert!(
            (1..=512).contains(&exceptions),
            "{exceptions} exception rows"
        );
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "all 2^24 colours; run with --release")]
    fn every_colour_agrees_with_the_oracle_on_both_kernels() {
        for thetas in [
            ThetaParams::paper_default(),
            ThetaParams::mixed(),
            ThetaParams::new(1.3, 2.9, 0.4),
        ] {
            let segmenter = IqftRgbSegmenter::new(thetas);
            let oracle = PhaseTable::from_segmenter(&segmenter);
            let shared = SplitTable::for_segmenter(&segmenter).expect("span fits");
            for level in supported_levels() {
                let table = shared.cold().with_simd(level);
                let mut out = vec![0u32; ROWS];
                for r in 0..=255u8 {
                    let plane: Vec<Rgb<u8>> = (0..ROWS)
                        .map(|i| Rgb::new(r, (i >> 8) as u8, i as u8))
                        .collect();
                    table.classify_slice(&plane, &mut out);
                    for (&pixel, &label) in plane.iter().zip(&out) {
                        assert_eq!(
                            label,
                            oracle.classify(pixel),
                            "{thetas:?} {level} {pixel:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn strided_rgb_grid_agrees_with_the_exact_oracle_bit_for_bit() {
        // A coprime stride over the 256³ cube, on cold tables so each
        // configuration fills its own rows.
        for (i, segmenter) in configurations().into_iter().enumerate() {
            let oracle = PhaseTable::from_segmenter(&segmenter);
            let table = SplitTable::for_segmenter(&segmenter)
                .expect("span fits")
                .cold();
            let (sr, sg, sb) = if i == 0 { (3, 7, 11) } else { (17, 13, 19) };
            for r in (0..256usize).step_by(sr) {
                for g in (0..256usize).step_by(sg) {
                    for b in (0..256usize).step_by(sb) {
                        let pixel = Rgb::new(r as u8, g as u8, b as u8);
                        assert_eq!(
                            table.classify(pixel),
                            oracle.classify(pixel),
                            "config {i}, {pixel:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn every_kernel_is_byte_identical_to_the_scalar_reference() {
        // Every slice length from 0 to 17 covers the AVX2 kernel's empty
        // group loop, one and two groups, and every tail length; then one
        // long random slice.
        let mut rng = ChaCha8Rng::seed_from_u64(808);
        let long = random_pixels(&mut rng, 4093);
        let scalar = SplitTable::paper_default().with_simd(SimdLevel::Scalar);
        for level in supported_levels() {
            let table = SplitTable::paper_default().with_simd(level);
            assert_eq!(table.simd_level(), level);
            for len in 0..=17 {
                let pixels = random_pixels(&mut rng, len);
                assert_eq!(
                    labels(&table, &pixels),
                    labels(&scalar, &pixels),
                    "{level} {len}"
                );
            }
            assert_eq!(labels(&table, &long), labels(&scalar, &long), "{level}");
        }
    }

    #[test]
    fn random_theta_fuzz_agrees_with_the_exact_segmenter() {
        // Random θ with θ3 inside the span rule (θ1 and θ2 anywhere),
        // random pixels, both kernels on cold tables.
        let mut rng = ChaCha8Rng::seed_from_u64(31337);
        for case in 0..24 {
            let theta = ThetaParams::new(
                rng.gen_range(0.0..2.0 * std::f64::consts::PI),
                rng.gen_range(0.0..2.0 * std::f64::consts::PI),
                rng.gen_range(0.0..std::f64::consts::PI),
            );
            let exact = IqftRgbSegmenter::new(theta);
            let pixels = random_pixels(&mut rng, 257);
            let expected: Vec<u32> = pixels.iter().map(|&p| exact.classify(p)).collect();
            for level in supported_levels() {
                let table = SplitTable::for_segmenter(&exact)
                    .expect("span fits")
                    .cold()
                    .with_simd(level);
                assert_eq!(labels(&table, &pixels), expected, "case {case}, {level}");
                for (&pixel, &label) in pixels.iter().zip(&expected).take(16) {
                    assert_eq!(table.classify(pixel), label, "case {case}, {level}");
                }
            }
        }
    }

    #[test]
    fn exact_tie_inputs_sit_in_exception_rows_and_keep_the_lowest_index_rule() {
        // White under θ = π puts every phase at π, where states 3 and 5 tie
        // in real arithmetic.  Its row (255, 255) is an exception row, and
        // every kernel returns the oracle's winner, 3.
        let exact = IqftRgbSegmenter::paper_default();
        let white = Rgb::new(255, 255, 255);
        let p = exact.probabilities(white);
        assert!((p[3] - p[5]).abs() < 1e-14, "premise: states 3/5 tie");
        assert_eq!(exact.classify(white), 3);
        for level in supported_levels() {
            let table = SplitTable::paper_default().cold().with_simd(level);
            assert_eq!(labels(&table, &[white; 9]), vec![3; 9], "{level}");
            let entry = table.table.rows.read().unwrap().entries[0xFFFF];
            assert!(entry & SPECIAL != 0 && entry != UNFILLED, "{level}");
        }
        assert_eq!(SplitTable::paper_default().classify(white), 3);
    }

    #[test]
    fn whole_image_and_view_paths_match_the_exact_segmenter() {
        let img = RgbImage::from_fn(41, 29, |x, y| {
            Rgb::new((x * 6) as u8, (y * 9) as u8, ((x * y) % 256) as u8)
        });
        let exact = IqftRgbSegmenter::paper_default();
        let reference = exact.segment_rgb(&img);
        let table = SplitTable::paper_default();
        assert_eq!(table.segment_rgb(&img), reference);
        let mut stitched = LabelMap::new(41, 29, u32::MAX);
        for rect in img.tile_rects(10, 4) {
            let tile = img.view(rect).unwrap();
            table.classify_rgb_view_into(&tile, &mut stitched.view_mut(rect).unwrap());
        }
        assert_eq!(stitched, reference);
        for engine in [SegmentEngine::serial(), SegmentEngine::with_threads(2)] {
            assert_eq!(engine.segment_rgb(&table, &img), reference);
        }
    }

    /// On `threads:2` the engine keeps a split-table frame below 2 Mi px on
    /// the calling thread, and splits a 2048×1024 one over two threads.
    #[test]
    fn a_split_table_frame_takes_two_threads_from_2_mi_px() {
        use std::sync::{Condvar, Mutex};
        use std::thread::ThreadId;
        use std::time::Duration;

        /// The table, recording the threads that classify.  With `meet`
        /// at 2, each slice waits (up to a timeout that only marks
        /// failure) until two threads have called, so a split frame
        /// provably reaches both.
        struct Recorded<'a> {
            table: &'a SplitTable,
            meet: usize,
            seen: Mutex<Vec<ThreadId>>,
            arrived: Condvar,
        }
        impl PixelClassifier for Recorded<'_> {
            fn classify_rgb_pixel(&self, pixel: Rgb<u8>) -> u32 {
                self.table.classify(pixel)
            }
            fn min_pixels_per_thread(&self) -> usize {
                self.table.min_pixels_per_thread()
            }
            fn classify_rgb_slice_into(&self, pixels: &[Rgb<u8>], out: &mut [u32]) {
                let mut seen = self.seen.lock().unwrap();
                let me = std::thread::current().id();
                if !seen.contains(&me) {
                    seen.push(me);
                    self.arrived.notify_all();
                }
                let timeout = Duration::from_secs(10);
                let wait = self
                    .arrived
                    .wait_timeout_while(seen, timeout, |seen| seen.len() < self.meet);
                drop(wait.unwrap());
                self.table.classify_slice(pixels, out);
            }
        }

        let table = SplitTable::paper_default();
        let caller = std::thread::current().id();
        for ((width, height), meet) in [((2_097_151, 1), 1), ((2048, 1024), 2)] {
            let img = RgbImage::from_fn(width, height, |x, y| {
                Rgb::new((x % 3) as u8 * 90, (y % 4) as u8 * 60, x as u8)
            });
            let recorded = Recorded {
                table: &table,
                meet,
                seen: Mutex::new(Vec::new()),
                arrived: Condvar::new(),
            };
            let labels = SegmentEngine::with_threads(2).segment_rgb(&recorded, &img);
            assert_eq!(labels, SegmentEngine::serial().segment_rgb(&table, &img));
            let threads = recorded.seen.into_inner().unwrap();
            if meet == 1 {
                assert_eq!(threads, [caller], "{width}x{height} stays on the caller");
            } else {
                assert_eq!(threads.len(), 2, "{width}x{height}: {threads:?}");
                assert!(!threads.contains(&caller), "{threads:?}");
            }
        }
    }

    #[test]
    fn builds_of_one_configuration_share_fills_and_others_do_not() {
        let paper = SplitTable::for_segmenter(&IqftRgbSegmenter::paper_default()).unwrap();
        let again = SplitTable::paper_default().with_simd(SimdLevel::Scalar);
        assert!(Arc::ptr_eq(&paper.table, &again.table));
        // The kernel choice stays with the handle.
        assert_eq!(again.simd_level(), SimdLevel::Scalar);
        let pixel = Rgb::new(12, 34, 56);
        again.classify(pixel);
        assert_ne!(
            paper.table.rows.read().unwrap().entries[12 << 8 | 34],
            UNFILLED
        );
        let mixed =
            SplitTable::for_segmenter(&IqftRgbSegmenter::new(ThetaParams::mixed())).unwrap();
        assert!(!Arc::ptr_eq(&paper.table, &mixed.table));
        let unnormalised =
            IqftRgbSegmenter::new(ThetaParams::uniform(0.01)).with_normalization(false);
        let normalised = IqftRgbSegmenter::new(ThetaParams::uniform(0.01));
        assert!(!Arc::ptr_eq(
            &SplitTable::for_segmenter(&unnormalised).unwrap().table,
            &SplitTable::for_segmenter(&normalised).unwrap().table,
        ));
        // A cold handle shares nothing.
        let cold = paper.cold();
        assert!(!Arc::ptr_eq(&paper.table, &cold.table));
        assert_eq!(
            cold.table.rows.read().unwrap().entries[12 << 8 | 34],
            UNFILLED
        );
    }

    #[test]
    fn a_blue_span_above_pi_does_not_split() {
        for segmenter in [
            IqftRgbSegmenter::new(ThetaParams::new(1.0, 1.0, 3.2)),
            IqftRgbSegmenter::new(ThetaParams::uniform(2.0 * std::f64::consts::PI)),
            IqftRgbSegmenter::paper_default().with_normalization(false),
        ] {
            assert!(SplitTable::for_segmenter(&segmenter).is_none());
        }
        let negative = IqftRgbSegmenter::new(ThetaParams::new(1.0, 1.0, -std::f64::consts::PI));
        assert!(SplitTable::for_segmenter(&negative).is_some());
    }

    #[test]
    fn level_detection_clamps_and_names_round_trip() {
        for level in SimdLevel::ALL {
            assert_eq!(format!("{level}"), level.name());
            assert!(level.clamp_to_supported().is_supported());
        }
        assert!(SimdLevel::Scalar.is_supported());
        assert!(SimdLevel::detect().is_supported());
        let table = SplitTable::paper_default().with_simd(SimdLevel::Avx2);
        assert!(table.simd_level().is_supported());
    }

    #[test]
    fn accessors_and_clone_preserve_configuration() {
        let scalar = SplitTable::paper_default().with_simd(SimdLevel::Scalar);
        assert_eq!(scalar.name(), "IQFT (RGB, split table)");
        let cloned = scalar.clone();
        assert_eq!(cloned.simd_level(), SimdLevel::Scalar);
        assert!(Arc::ptr_eq(&cloned.table, &scalar.table));
        assert_eq!(cloned.engine, scalar.engine);
        assert!(format!("{cloned:?}").contains("Scalar"));
    }
}
