//! [`QuantizedPhaseTable`] — fixed-point, SIMD-friendly classification with
//! a built-in exactness oracle.
//!
//! [`PhaseTable`] made steady-state classification three f64 table lookups,
//! an 8-way product and an arg-max per pixel.  This module quantizes that
//! table to integers so the inner loop becomes integer SIMD — and still
//! produces labels **bit-identical** to the exact segmenter, by construction
//! rather than by luck.
//!
//! # The log-space arg-max argument
//!
//! Classification needs only the *arg-max* of the eight per-state products
//! `P(j) = t0[j] · t1[j] · t2[j]` (factors in `[0, 1]`), never their values.
//! The logarithm is strictly monotone, so
//! `argmax_j P(j) = argmax_j (ln t0[j] + ln t1[j] + ln t2[j])` — a *sum*,
//! which quantizes gracefully where a product would not.  Each per-channel
//! log-factor is quantized once, at table-build time, to the fixed-point
//! integer `q = round(QUANT_SCALE · ln max(t, FACTOR_FLOOR))`, and per pixel
//! the eight candidate scores are three i16 vector adds.
//!
//! Quantization rounds, so near-equal products could flip order.  Three
//! facts bound the damage and make the result provably exact:
//!
//! 1. **Per-state error ≤ 3/2 units.**  Each of the three terms rounds by at
//!    most ½ unit, so an *unclamped* state's integer score differs from
//!    `QUANT_SCALE · ln P(j)` by at most 3/2 (plus a few f64 ulps, orders of
//!    magnitude below a unit).
//! 2. **The floor never hides a winner.**  The eight probabilities sum to 1
//!    (the register is a unit product state), so the true winner has
//!    `P ≥ 1/8`, and — factors being ≤ 1 — each of *its* factors is
//!    `≥ 1/8 > FACTOR_FLOOR`: the winner is never clamped.  A state with a
//!    clamped factor has true `P < FACTOR_FLOOR` and an integer score of at
//!    most `QUANT_SCALE · ln FACTOR_FLOOR + ½ ≈ −7097`, while the winner
//!    scores at least `QUANT_SCALE · ln(1/8) − 3/2 ≈ −2131`; clamped states
//!    lose by thousands of units and can never win or tie.
//! 3. **Ambiguity is detectable.**  If the best integer score beats every
//!    other by **more than `2 × 3/2 = 3` units**, the true (f64) order
//!    cannot differ — the quantized arg-max is the exact arg-max.  Only when
//!    some other state comes within 3 units is the order in doubt, and for
//!    exactly those pixels the classifier falls back to the f64
//!    [`PhaseTable`] path (itself bit-identical to the exact segmenter,
//!    including the ties-to-lowest-index rule).
//!
//! The result: **zero label mismatches against the exact oracle, for every
//! `ThetaParams`, bit order and normalization** — enforced by the exhaustive
//! tests below and by the default-on verification in the throughput and
//! loadgen harnesses.  The fallback is rare (near-ties in the top-2
//! probabilities within ~0.3% relative) and each fallback costs one f64
//! table classification, so the fast path dominates.
//!
//! # SIMD
//!
//! The eight candidate scores of one pixel are exactly one 128-bit register
//! of i16 lanes, and every table row is 16 contiguous bytes, so the kernel
//! shape is: three indexed row loads, two vector adds, a horizontal arg-max,
//! and a one-instruction ambiguity test (compare against `best − 4`, count
//! lanes).  Three `std::arch` kernels are provided behind runtime dispatch —
//! SSE2 (x86-64 baseline), SSE4.1 (`phminposuw` gives the arg-max *and* its
//! index in one instruction) and AVX2 (two pixels per 256-bit add) — plus a
//! scalar kernel that performs the identical integer arithmetic, used on
//! other architectures and whenever `IQFT_SIMD=off` pins it.
//! All kernels are byte-identical to each other by construction.  The
//! `IQFT_SIMD` environment variable (`off`/`scalar`, `sse2`, `sse41`,
//! `avx2`, `auto`) pins or disables dispatch, which is how CI keeps the
//! scalar path exercised on SIMD-capable runners.
//!
//! The quantized table is also 4× smaller than the f64 table (12 KiB vs
//! 48 KiB) and fits entirely in L1, which is worth as much as the vector
//! arithmetic on table-lookup-bound workloads.

use crate::phase_table::PhaseTable;
use crate::rgb::{IqftRgbSegmenter, NUM_STATES};
use crate::theta::ThetaParams;
use imaging::{LabelMap, PixelClassifier, Rgb, RgbImage, Segmenter};
use seg_engine::SegmentEngine;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of distinct values an 8-bit channel can take.
const CHANNEL_VALUES: usize = 256;

/// Fixed-point scale: one integer unit is `1/QUANT_SCALE` in log space.
///
/// Chosen so the most negative per-term value,
/// `round(QUANT_SCALE · ln FACTOR_FLOOR) = −7098`, sums over three terms to
/// `−21294` — comfortably inside i16, so the three adds can never wrap (or
/// saturate, in the SIMD kernels).
const QUANT_SCALE: f64 = 1024.0;

/// Factors below this are clamped before the log.  `1/8` separates possible
/// winners from certain losers (see the module docs), so anything well below
/// `1/8` works; `2⁻¹⁰` keeps the clamped score thousands of units beneath
/// any winner while bounding the table's dynamic range.
const FACTOR_FLOOR: f64 = 1.0 / 1024.0;

/// Integer scores within this gap of the best are ambiguous under
/// quantization (two states, each up to 3/2 units from its true score) and
/// send the pixel to the f64 oracle.  A strictly larger gap proves the
/// quantized arg-max exact.
const AMBIGUITY_GAP: i16 = 3;

/// The `std::arch` kernel a [`QuantizedPhaseTable`] classifies with.
///
/// Levels are ordered by capability; [`SimdLevel::detect`] resolves the best
/// supported level at runtime (honouring the `IQFT_SIMD` environment
/// variable) and [`QuantizedPhaseTable::with_simd`] clamps a request down to
/// what the host supports.  Every level produces byte-identical labels — the
/// choice is purely about speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable integer scalar loop (every architecture; non-x86 hosts run
    /// it, and `IQFT_SIMD=off` selects it on x86).
    Scalar,
    /// SSE2 128-bit kernel (the x86-64 baseline — always available there).
    Sse2,
    /// SSE4.1 kernel: `phminposuw` finds the arg-max and its index in one
    /// instruction.
    Sse41,
    /// AVX2 kernel: two pixels per 256-bit add, SSE4.1 arg-max per pixel.
    Avx2,
}

impl SimdLevel {
    /// Every level, in increasing capability order.
    pub const ALL: [SimdLevel; 4] = [
        SimdLevel::Scalar,
        SimdLevel::Sse2,
        SimdLevel::Sse41,
        SimdLevel::Avx2,
    ];

    /// Whether the running host can execute this level.
    pub fn is_supported(self) -> bool {
        match self {
            SimdLevel::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Sse2 => true,
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Sse41 => is_x86_feature_detected!("sse4.1"),
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The best supported level at or below `self`.
    pub fn clamp_to_supported(self) -> SimdLevel {
        SimdLevel::ALL
            .into_iter()
            .rev()
            .find(|level| *level <= self && level.is_supported())
            .unwrap_or(SimdLevel::Scalar)
    }

    /// Resolves the dispatch level for this host.
    ///
    /// The `IQFT_SIMD` environment variable overrides autodetection:
    /// `off`/`scalar` force the scalar kernel (the CI leg that keeps the
    /// non-SIMD path tested), `sse2`/`sse41`/`avx2` pin a level (clamped to
    /// what the host supports), and `auto`/unset/unknown pick the best
    /// supported level.
    pub fn detect() -> SimdLevel {
        let requested = match std::env::var("IQFT_SIMD").as_deref() {
            Ok("off") | Ok("scalar") => SimdLevel::Scalar,
            Ok("sse2") => SimdLevel::Sse2,
            Ok("sse41") | Ok("sse4.1") => SimdLevel::Sse41,
            Ok("avx2") => SimdLevel::Avx2,
            _ => SimdLevel::Avx2, // auto: best supported
        };
        requested.clamp_to_supported()
    }

    /// The flag/env spelling of this level.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Sse41 => "sse41",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

impl std::fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Quantizes one f64 probability factor to its fixed-point log score.
fn quantize(factor: f64) -> i16 {
    (factor.max(FACTOR_FLOOR).ln() * QUANT_SCALE).round() as i16
}

/// One register qubit's quantized rows, indexed by channel value.  The
/// fixed 256-row length matters: a `u8` index into a `Block` can never
/// overrun, so the kernels compile without bounds checks.
type Block = [[i16; NUM_STATES]; CHANNEL_VALUES];

/// Sums the three per-channel table rows for `pixel` — the shared integer
/// arithmetic of every kernel.  `blocks` comes from
/// [`QuantizedPhaseTable::channel_blocks`], so entry `c` already belongs to
/// the qubit that reads image channel `c` and the pixel is indexed with
/// constant channel positions (no runtime-permutation lookups per pixel).
#[inline]
fn sums_from(blocks: &[&Block; 3], pixel: Rgb<u8>) -> [i16; NUM_STATES] {
    let r = &blocks[0][pixel.0[0] as usize];
    let g = &blocks[1][pixel.0[1] as usize];
    let b = &blocks[2][pixel.0[2] as usize];
    let mut sums = [0i16; NUM_STATES];
    for (j, slot) in sums.iter_mut().enumerate() {
        // Never wraps: each term is ≥ round(QUANT_SCALE·ln FACTOR_FLOOR)
        // = −7098 and ≤ 0, so the sum stays within [−21294, 0].
        *slot = r[j] + g[j] + b[j];
    }
    sums
}

/// The quantized arg-max decision shared (in spirit — the SIMD kernels
/// re-derive it lane-wise) by every kernel: the first index holding the
/// maximum score, or `None` when any *other* state scores within
/// [`AMBIGUITY_GAP`] of the best (including exact integer ties), in which
/// case the caller must consult the f64 oracle.
#[inline]
fn decide(sums: &[i16; NUM_STATES]) -> Option<u32> {
    let mut best = sums[0];
    let mut best_idx = 0u32;
    for (j, &s) in sums.iter().enumerate().skip(1) {
        if s > best {
            best = s;
            best_idx = j as u32;
        }
    }
    // Exactly one lane may exceed best − (GAP + 1): the best lane itself.
    // A second lane above the threshold means some state is within GAP
    // units — ambiguous under quantization.
    let threshold = best - (AMBIGUITY_GAP + 1);
    let contenders = sums.iter().filter(|&&s| s > threshold).count();
    (contenders == 1).then_some(best_idx)
}

/// A fixed-point, log-space quantization of a [`PhaseTable`] with runtime
/// SIMD dispatch and a per-pixel f64 exactness oracle.
///
/// Labels are **bit-identical** to the exact [`IqftRgbSegmenter`] for every
/// configuration — see the [module docs](self) for the argument.  Build one
/// with [`QuantizedPhaseTable::from_table`] (or the convenience
/// constructors), pick a kernel with [`QuantizedPhaseTable::with_simd`], and
/// classify through the [`PixelClassifier`] hooks like any other classifier:
/// the batched slice hook is where the SIMD kernels engage.
///
/// # Example
///
/// ```
/// use imaging::{Rgb, Segmenter};
/// use iqft_seg::{PhaseTable, QuantizedPhaseTable};
///
/// let exact = PhaseTable::paper_default();
/// let quant = QuantizedPhaseTable::paper_default();
/// for pixel in [Rgb::new(13, 200, 77), Rgb::new(254, 1, 128)] {
///     assert_eq!(quant.classify(pixel), exact.classify(pixel));
/// }
/// ```
#[derive(Debug)]
pub struct QuantizedPhaseTable {
    /// `qlog[q * 256 + v]` — the eight quantized log-factors contributed by
    /// register qubit `q` when its channel has value `v`.  One row is one
    /// 128-bit SIMD register.
    qlog: Vec<[i16; NUM_STATES]>,
    /// Register position → RGB channel index, copied from the source table.
    channel_of_qubit: [usize; 3],
    /// The f64 oracle consulted for ambiguous pixels (and the engine owner).
    exact: PhaseTable,
    /// The kernel classification dispatches to.
    level: SimdLevel,
    /// Pixels that consulted the oracle (ambiguous quantized gaps).
    fallbacks: AtomicU64,
}

impl Clone for QuantizedPhaseTable {
    fn clone(&self) -> Self {
        Self {
            qlog: self.qlog.clone(),
            channel_of_qubit: self.channel_of_qubit,
            exact: self.exact.clone(),
            level: self.level,
            fallbacks: AtomicU64::new(self.fallbacks.load(Ordering::Relaxed)),
        }
    }
}

impl QuantizedPhaseTable {
    /// Quantizes an existing f64 phase table (which stays embedded as the
    /// exactness oracle).  The dispatch level starts at
    /// [`SimdLevel::detect`].
    pub fn from_table(table: &PhaseTable) -> Self {
        let mut qlog = vec![[0i16; NUM_STATES]; 3 * CHANNEL_VALUES];
        for q in 0..3 {
            for v in 0..CHANNEL_VALUES {
                let factors = table.factor(q, v as u8);
                let row = &mut qlog[q * CHANNEL_VALUES + v];
                for (slot, &factor) in row.iter_mut().zip(factors.iter()) {
                    *slot = quantize(factor);
                }
            }
        }
        Self {
            qlog,
            channel_of_qubit: table.channel_of_qubit(),
            exact: table.clone(),
            level: SimdLevel::detect(),
            fallbacks: AtomicU64::new(0),
        }
    }

    /// Builds the quantized table for `segmenter`'s exact configuration.
    pub fn from_segmenter(segmenter: &IqftRgbSegmenter) -> Self {
        Self::from_table(&PhaseTable::from_segmenter(segmenter))
    }

    /// Builds the table for the given angles with the default configuration
    /// (normalisation on, eq. 11 qubit ordering).
    pub fn new(thetas: ThetaParams) -> Self {
        Self::from_segmenter(&IqftRgbSegmenter::new(thetas))
    }

    /// The paper's headline configuration (`θ1 = θ2 = θ3 = π`), quantized.
    pub fn paper_default() -> Self {
        Self::from_segmenter(&IqftRgbSegmenter::paper_default())
    }

    /// Selects the kernel (clamped to what the host supports, so the result
    /// is always executable).  `SimdLevel::Scalar` pins the portable integer
    /// loop, which is what `IQFT_SIMD=off` selects.
    pub fn with_simd(mut self, level: SimdLevel) -> Self {
        self.level = level.clamp_to_supported();
        self
    }

    /// Routes whole-image segmentation through `engine`.
    pub fn with_engine(mut self, engine: SegmentEngine) -> Self {
        self.exact = self.exact.with_engine(engine);
        self
    }

    /// Selects the execution backend for whole-image segmentation.
    pub fn with_backend(self, backend: xpar::Backend) -> Self {
        self.with_engine(SegmentEngine::new(backend))
    }

    /// The engine whole-image calls execute on.
    pub fn engine(&self) -> SegmentEngine {
        self.exact.engine()
    }

    /// The kernel classification dispatches to.
    pub fn simd_level(&self) -> SimdLevel {
        self.level
    }

    /// The angle parameters the table was built for.
    pub fn thetas(&self) -> ThetaParams {
        self.exact.thetas()
    }

    /// The embedded f64 oracle (bit-identical to the exact segmenter).
    pub fn oracle(&self) -> &PhaseTable {
        &self.exact
    }

    /// Number of quantized rows (3 registers × 256 values).
    pub fn entries(&self) -> usize {
        self.qlog.len()
    }

    /// Total pixels classified through the f64 oracle because their
    /// quantized arg-max was ambiguous.  Monotone over the table's lifetime;
    /// the serving stack surfaces this through `ServerStats`.
    pub fn fallback_pixels(&self) -> u64 {
        self.fallbacks.load(Ordering::Relaxed)
    }

    /// The three quantized log-score vectors summed for `pixel` — the
    /// integer scores the arg-max decision runs on (exposed for tests and
    /// diagnostics).
    pub fn quantized_sums(&self, pixel: Rgb<u8>) -> [i16; NUM_STATES] {
        sums_from(&self.channel_blocks(), pixel)
    }

    /// The three per-qubit table blocks rearranged by *image channel*:
    /// entry `c` is the block of the qubit that reads channel `c` (the
    /// inverse of `channel_of_qubit`).  Kernels hoist this once per slice
    /// and then index pixels at constant channel positions, which is what
    /// lets the compiler drop every per-pixel bounds check.
    fn channel_blocks(&self) -> [&Block; 3] {
        let block = |q: usize| -> &Block {
            self.qlog[q * CHANNEL_VALUES..(q + 1) * CHANNEL_VALUES]
                .try_into()
                .expect("qlog holds three 256-row blocks")
        };
        let mut blocks = [block(0); 3];
        for (q, &c) in self.channel_of_qubit.iter().enumerate() {
            blocks[c] = block(q);
        }
        blocks
    }

    /// Classifies one pixel: the quantized arg-max when it is provably
    /// exact, the f64 oracle otherwise.  Bit-identical to
    /// [`IqftRgbSegmenter::classify`] either way.
    pub fn classify(&self, pixel: Rgb<u8>) -> u32 {
        match decide(&self.quantized_sums(pixel)) {
            Some(label) => label,
            None => {
                self.fallbacks.fetch_add(1, Ordering::Relaxed);
                self.exact.classify(pixel)
            }
        }
    }

    /// Classifies a contiguous pixel run through the selected kernel — the
    /// hot path behind [`PixelClassifier::classify_rgb_slice_into`].
    ///
    /// # Panics
    ///
    /// Panics if `pixels` and `out` differ in length.
    pub fn classify_slice(&self, pixels: &[Rgb<u8>], out: &mut [u32]) {
        assert_eq!(
            pixels.len(),
            out.len(),
            "label slice does not match the pixel slice"
        );
        let fallbacks = match self.level {
            SimdLevel::Scalar => self.classify_slice_scalar(pixels, out),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: with_simd/detect clamp the level to host support, so
            // the required target features are present.
            SimdLevel::Sse2 => unsafe { x86::classify_slice_sse2(self, pixels, out) },
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Sse41 => unsafe { x86::classify_slice_sse41(self, pixels, out) },
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => unsafe { x86::classify_slice_avx2(self, pixels, out) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => self.classify_slice_scalar(pixels, out),
        };
        if fallbacks > 0 {
            self.fallbacks.fetch_add(fallbacks, Ordering::Relaxed);
        }
    }

    /// The portable integer kernel (also the tail loop of the SIMD kernels).
    /// Returns the number of oracle fallbacks instead of counting them on
    /// the shared atomic, so row kernels pay one atomic add per slice.
    fn classify_slice_scalar(&self, pixels: &[Rgb<u8>], out: &mut [u32]) -> u64 {
        let blocks = self.channel_blocks();
        let mut fallbacks = 0u64;
        for (label, &pixel) in out.iter_mut().zip(pixels) {
            *label = match decide(&sums_from(&blocks, pixel)) {
                Some(idx) => idx,
                None => {
                    fallbacks += 1;
                    self.exact.classify(pixel)
                }
            };
        }
        fallbacks
    }

    /// Classifies every pixel of a zero-copy sub-image view into a matching
    /// label view (the tile work unit), via the selected kernel row by row.
    pub fn classify_view_into(
        &self,
        view: &imaging::ImageView<'_, Rgb<u8>>,
        out: &mut imaging::LabelViewMut<'_>,
    ) {
        PixelClassifier::classify_rgb_view_into(self, view, out);
    }
}

impl PixelClassifier for QuantizedPhaseTable {
    fn classify_rgb_pixel(&self, pixel: Rgb<u8>) -> u32 {
        self.classify(pixel)
    }

    fn classify_rgb_slice_into(&self, pixels: &[Rgb<u8>], out: &mut [u32]) {
        self.classify_slice(pixels, out);
    }
}

impl Segmenter for QuantizedPhaseTable {
    fn name(&self) -> &str {
        match self.level {
            SimdLevel::Scalar => "IQFT (RGB, quantized)",
            _ => "IQFT (RGB, quantized SIMD)",
        }
    }

    fn segment_rgb(&self, img: &RgbImage) -> LabelMap {
        self.engine().segment_rgb(self, img)
    }
}

/// The `std::arch` kernels.  Every kernel performs the *identical* integer
/// arithmetic as [`QuantizedPhaseTable::classify_slice_scalar`] — same
/// quantized sums, same first-max tie rule, same ambiguity threshold — so
/// outputs are byte-identical across levels by construction.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Block, QuantizedPhaseTable, AMBIGUITY_GAP};
    use imaging::Rgb;
    use std::arch::x86_64::*;

    /// Loads one block's 16-byte quantized row for channel value `v`.  The
    /// `u8` index into the fixed 256-row block needs no bounds check.
    #[inline(always)]
    unsafe fn row(block: &Block, v: u8) -> __m128i {
        _mm_loadu_si128(block[v as usize].as_ptr().cast())
    }

    /// Loads the three per-channel table rows for `pixel` and sums them
    /// into eight i16 lanes.  The adds cannot wrap (sums stay within
    /// [−21294, 0]).
    #[inline(always)]
    unsafe fn sums_of(blocks: &[&Block; 3], pixel: Rgb<u8>) -> __m128i {
        let v0 = row(blocks[0], pixel.0[0]);
        let v1 = row(blocks[1], pixel.0[1]);
        let v2 = row(blocks[2], pixel.0[2]);
        _mm_add_epi16(_mm_add_epi16(v0, v1), v2)
    }

    /// Reduces a 16-bit `movemask_epi8` contender mask (two bits per i16
    /// lane) to one bit per lane.  The result is never zero — the max lane
    /// always contends — so "exactly one contender" is the power-of-two
    /// test `lanes & (lanes − 1) == 0`, with no `popcnt` dependency (the
    /// baseline `#[target_feature]` sets here do not include it, and LLVM
    /// expands `count_ones` grotesquely without it).
    #[inline(always)]
    fn contender_lanes(mask: u32) -> u32 {
        mask & 0x5555
    }

    /// The SSE2 arg-max + ambiguity decision: `(first max index, ambiguous)`.
    #[inline(always)]
    unsafe fn decide_sse2(sums: __m128i) -> (u32, bool) {
        // Horizontal max by halving reductions: after three swap+max rounds
        // every lane holds the global maximum.
        let m = _mm_max_epi16(sums, _mm_shuffle_epi32(sums, 0b0100_1110));
        let m = _mm_max_epi16(m, _mm_shuffle_epi32(m, 0b1011_0001));
        let swapped = _mm_shufflehi_epi16(_mm_shufflelo_epi16(m, 0b1011_0001), 0b1011_0001);
        let m = _mm_max_epi16(m, swapped);
        // Contenders above best − (GAP + 1): an unambiguous decision has
        // exactly one (the max lane), whose position is the winning index;
        // otherwise the index is never read (oracle fallback).
        let threshold = _mm_sub_epi16(m, _mm_set1_epi16(AMBIGUITY_GAP + 1));
        let contenders =
            contender_lanes(_mm_movemask_epi8(_mm_cmpgt_epi16(sums, threshold)) as u32);
        (
            contenders.trailing_zeros() / 2,
            contenders & (contenders - 1) != 0,
        )
    }

    /// The SSE4.1 decision: `phminposuw` on the order-reversing map
    /// `u = 0x7FFF − s` finds the max value *and* its first index at once.
    #[inline(always)]
    unsafe fn decide_sse41(sums: __m128i) -> (u32, bool) {
        let reversed = _mm_sub_epi16(_mm_set1_epi16(0x7FFF), sums);
        let minpos = _mm_minpos_epu16(reversed);
        let min = _mm_extract_epi16(minpos, 0) as u16;
        let idx = (_mm_extract_epi16(minpos, 1) as u32) & 7;
        let best = (0x7FFF - min as i32) as i16;
        (idx, ambiguous(sums, best))
    }

    /// True when any state other than the best scores within
    /// [`AMBIGUITY_GAP`] units: exactly one lane may exceed `best − 4` (the
    /// best itself), so any second contender lane means ambiguity.
    #[inline(always)]
    unsafe fn ambiguous(sums: __m128i, best: i16) -> bool {
        let threshold = _mm_set1_epi16(best - (AMBIGUITY_GAP + 1));
        let contenders =
            contender_lanes(_mm_movemask_epi8(_mm_cmpgt_epi16(sums, threshold)) as u32);
        contenders & (contenders - 1) != 0
    }

    /// Resolves one decided pixel, falling back to the f64 oracle when the
    /// quantized gap was ambiguous.
    #[inline(always)]
    fn resolve(
        table: &QuantizedPhaseTable,
        pixel: Rgb<u8>,
        decision: (u32, bool),
        fallbacks: &mut u64,
    ) -> u32 {
        let (idx, ambiguous) = decision;
        if ambiguous {
            *fallbacks += 1;
            table.oracle().classify(pixel)
        } else {
            idx
        }
    }

    /// SSE2 row kernel (x86-64 baseline): one pixel per iteration.
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn classify_slice_sse2(
        table: &QuantizedPhaseTable,
        pixels: &[Rgb<u8>],
        out: &mut [u32],
    ) -> u64 {
        let blocks = table.channel_blocks();
        let mut fallbacks = 0u64;
        for (label, &pixel) in out.iter_mut().zip(pixels) {
            let decision = decide_sse2(sums_of(&blocks, pixel));
            *label = resolve(table, pixel, decision, &mut fallbacks);
        }
        fallbacks
    }

    /// SSE4.1 row kernel: one pixel per iteration, `phminposuw` arg-max.
    #[target_feature(enable = "sse4.1")]
    pub(super) unsafe fn classify_slice_sse41(
        table: &QuantizedPhaseTable,
        pixels: &[Rgb<u8>],
        out: &mut [u32],
    ) -> u64 {
        let blocks = table.channel_blocks();
        let mut fallbacks = 0u64;
        for (label, &pixel) in out.iter_mut().zip(pixels) {
            let decision = decide_sse41(sums_of(&blocks, pixel));
            *label = resolve(table, pixel, decision, &mut fallbacks);
        }
        fallbacks
    }

    /// AVX2 row kernel: two pixels per iteration, one per 128-bit half.
    ///
    /// The table-row adds, the horizontal arg-max reduction (the 128-bit
    /// lane-local shuffles operate on both halves at once) and the
    /// ambiguity threshold all stay in 256-bit registers — no scalar
    /// round-trips until the final mask extraction, and the common
    /// "both pixels unambiguous" case costs a single popcount (each
    /// unambiguous half contributes exactly two set mask bits, so 4 total).
    /// The odd tail pixel goes through a per-pixel SSE4.1 step.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn classify_slice_avx2(
        table: &QuantizedPhaseTable,
        pixels: &[Rgb<u8>],
        out: &mut [u32],
    ) -> u64 {
        let blocks = table.channel_blocks();
        let gap = _mm256_set1_epi16(AMBIGUITY_GAP + 1);
        let mut fallbacks = 0u64;
        let mut i = 0usize;
        while i + 2 <= pixels.len() {
            let (a, b) = (pixels[i], pixels[i + 1]);
            let v0 = _mm256_set_m128i(row(blocks[0], b.0[0]), row(blocks[0], a.0[0]));
            let v1 = _mm256_set_m128i(row(blocks[1], b.0[1]), row(blocks[1], a.0[1]));
            let v2 = _mm256_set_m128i(row(blocks[2], b.0[2]), row(blocks[2], a.0[2]));
            let sums = _mm256_add_epi16(_mm256_add_epi16(v0, v1), v2);
            // Per-half horizontal max: the three swap+max rounds leave every
            // lane of each half holding that half's maximum.
            let m = _mm256_max_epi16(sums, _mm256_shuffle_epi32(sums, 0b0100_1110));
            let m = _mm256_max_epi16(m, _mm256_shuffle_epi32(m, 0b1011_0001));
            let swapped =
                _mm256_shufflehi_epi16(_mm256_shufflelo_epi16(m, 0b1011_0001), 0b1011_0001);
            let m = _mm256_max_epi16(m, swapped);
            // Contenders above best − (GAP + 1), per half.  An unambiguous
            // half has exactly one contender — the max lane itself — so the
            // winning index is the position of the half's only contender
            // lane and no separate equality mask is needed.  (With two or
            // more contenders the half is ambiguous and the index is never
            // read: the pixel resolves through the f64 oracle.)
            let gt =
                _mm256_movemask_epi8(_mm256_cmpgt_epi16(sums, _mm256_sub_epi16(m, gap))) as u32;
            let lo = contender_lanes(gt);
            let hi = contender_lanes(gt >> 16);
            if lo & (lo - 1) == 0 && hi & (hi - 1) == 0 {
                // Both halves have exactly one contender (the max lane):
                // both pixels are provably exact.
                out[i] = lo.trailing_zeros() / 2;
                out[i + 1] = hi.trailing_zeros() / 2;
            } else {
                let decision_a = (lo.trailing_zeros() / 2, lo & (lo - 1) != 0);
                let decision_b = (hi.trailing_zeros() / 2, hi & (hi - 1) != 0);
                out[i] = resolve(table, a, decision_a, &mut fallbacks);
                out[i + 1] = resolve(table, b, decision_b, &mut fallbacks);
            }
            i += 2;
        }
        if i < pixels.len() {
            let pixel = pixels[i];
            let decision = decide_sse41(sums_of(&blocks, pixel));
            out[i] = resolve(table, pixel, decision, &mut fallbacks);
        }
        fallbacks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rgb::BitOrder;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Every configuration axis the quantization argument must hold under.
    fn configurations() -> Vec<IqftRgbSegmenter> {
        let mut configs = Vec::new();
        for thetas in [
            ThetaParams::paper_default(),
            ThetaParams::mixed(),
            ThetaParams::new(1.3, 2.9, 0.4),
            ThetaParams::uniform(5.5),
        ] {
            for bit_order in [BitOrder::Equation11, BitOrder::FigureConsistent] {
                for normalize in [true, false] {
                    configs.push(
                        IqftRgbSegmenter::new(thetas)
                            .with_bit_order(bit_order)
                            .with_normalization(normalize),
                    );
                }
            }
        }
        configs
    }

    #[test]
    fn quantized_factors_match_the_documented_scheme_for_all_channel_values() {
        // All 3 × 256 per-channel rows: the quantized entry must be exactly
        // round(QUANT_SCALE · ln max(factor, FACTOR_FLOOR)) of the f64
        // table's factor, and every term must respect the documented range
        // (so three adds can never wrap an i16).
        let exact = PhaseTable::paper_default();
        let quant = QuantizedPhaseTable::from_table(&exact);
        let term_min = (QUANT_SCALE * FACTOR_FLOOR.ln()).round() as i16;
        assert_eq!(term_min, -7098);
        for q in 0..3 {
            for v in 0..=255u8 {
                let factors = exact.factor(q, v);
                for (j, &factor) in factors.iter().enumerate() {
                    let expected = quantize(factor);
                    let row = &quant.qlog[q * CHANNEL_VALUES + v as usize];
                    assert_eq!(row[j], expected, "q={q} v={v} j={j}");
                    assert!(row[j] >= term_min && row[j] <= 0, "q={q} v={v} j={j}");
                }
            }
        }
    }

    #[test]
    fn strided_rgb_grid_agrees_with_the_exact_oracle_bit_for_bit() {
        // A deterministic stride over the full 256³ input cube (coprime
        // steps so the sample is spread, ~100k pixels per configuration on
        // the headline config, a coarser stride elsewhere).  The contract is
        // zero mismatches — not a bound — because ambiguous pixels consult
        // the oracle.
        for (i, segmenter) in configurations().into_iter().enumerate() {
            let exact = PhaseTable::from_segmenter(&segmenter);
            let quant = QuantizedPhaseTable::from_table(&exact);
            let (sr, sg, sb) = if i == 0 { (3, 7, 11) } else { (17, 13, 19) };
            for r in (0..256usize).step_by(sr) {
                for g in (0..256usize).step_by(sg) {
                    for b in (0..256usize).step_by(sb) {
                        let pixel = Rgb::new(r as u8, g as u8, b as u8);
                        assert_eq!(
                            quant.classify(pixel),
                            exact.classify(pixel),
                            "config {i}, {pixel:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn every_kernel_is_byte_identical_to_the_scalar_reference() {
        // SIMD must never diverge from its own scalar reference: same
        // labels *and* same fallback counts, per supported level, on a
        // slice long enough to exercise the AVX2 pair loop and its odd
        // tail.
        let mut rng = ChaCha8Rng::seed_from_u64(808);
        let pixels: Vec<Rgb<u8>> = (0..4093)
            .map(|_| Rgb::new(rng.gen::<u8>(), rng.gen::<u8>(), rng.gen::<u8>()))
            .collect();
        let scalar = QuantizedPhaseTable::paper_default().with_simd(SimdLevel::Scalar);
        let mut reference = vec![0u32; pixels.len()];
        scalar.classify_slice(&pixels, &mut reference);
        for level in SimdLevel::ALL {
            if !level.is_supported() {
                continue;
            }
            let table = QuantizedPhaseTable::paper_default().with_simd(level);
            assert_eq!(table.simd_level(), level);
            let mut out = vec![0u32; pixels.len()];
            table.classify_slice(&pixels, &mut out);
            assert_eq!(out, reference, "{level}");
            assert_eq!(table.fallback_pixels(), scalar.fallback_pixels(), "{level}");
        }
    }

    #[test]
    fn random_theta_fuzz_agrees_with_the_exact_segmenter() {
        // Deterministic proptest-style fuzz: random ThetaParams (including
        // degenerate θ = 0 axes), random pixels, every supported kernel —
        // always bit-identical to the exact f64 segmenter.
        let mut rng = ChaCha8Rng::seed_from_u64(31337);
        for case in 0..24 {
            let theta = ThetaParams::new(
                rng.gen_range(0.0..2.0 * std::f64::consts::PI),
                rng.gen_range(0.0..2.0 * std::f64::consts::PI),
                rng.gen_range(0.0..2.0 * std::f64::consts::PI),
            );
            let exact = IqftRgbSegmenter::new(theta);
            let pixels: Vec<Rgb<u8>> = (0..257)
                .map(|_| Rgb::new(rng.gen::<u8>(), rng.gen::<u8>(), rng.gen::<u8>()))
                .collect();
            let expected: Vec<u32> = pixels.iter().map(|&p| exact.classify(p)).collect();
            for level in SimdLevel::ALL.into_iter().filter(|l| l.is_supported()) {
                let quant = QuantizedPhaseTable::from_segmenter(&exact).with_simd(level);
                let mut out = vec![0u32; pixels.len()];
                quant.classify_slice(&pixels, &mut out);
                assert_eq!(out, expected, "case {case}, {level}");
                // The per-pixel API agrees with the slice API.
                for (&pixel, &label) in pixels.iter().zip(expected.iter()).take(16) {
                    assert_eq!(quant.classify(pixel), label, "case {case}, {level}");
                }
            }
        }
    }

    #[test]
    fn exact_tie_inputs_fall_back_and_keep_the_lowest_index_rule() {
        // White under θ = π puts every phase at exactly π, which makes
        // states 3 and 5 tie with probability (1/2)·sin²(3π/8) each (up to
        // a couple of f64 ulps of evaluation noise) — a zero quantized gap,
        // so the pixel must route through the oracle and reproduce the
        // exact winner (label 3).
        let quant = QuantizedPhaseTable::paper_default();
        let exact = IqftRgbSegmenter::paper_default();
        let white = Rgb::new(255, 255, 255);
        let p = exact.probabilities(white);
        assert!((p[3] - p[5]).abs() < 1e-14, "premise: states 3/5 tie");
        assert_eq!(exact.classify(white), 3);
        for level in SimdLevel::ALL.into_iter().filter(|l| l.is_supported()) {
            let quant = QuantizedPhaseTable::paper_default().with_simd(level);
            let mut out = [0u32; 1];
            quant.classify_slice(&[white], &mut out);
            assert_eq!(out[0], 3, "{level}");
            assert_eq!(quant.fallback_pixels(), 1, "{level}: tie must fall back");
        }
        assert_eq!(quant.classify(white), 3);
        assert_eq!(quant.fallback_pixels(), 1);
    }

    #[test]
    fn fallbacks_are_rare_on_the_headline_configuration() {
        // The fast path only pays off if the oracle is consulted rarely;
        // on a dense strided grid of the paper's headline configuration the
        // ambiguous fraction stays far below 1 in 20.
        let quant = QuantizedPhaseTable::paper_default().with_simd(SimdLevel::Scalar);
        let mut total = 0u64;
        for r in (0..256usize).step_by(5) {
            for g in (0..256usize).step_by(7) {
                for b in (0..256usize).step_by(11) {
                    quant.classify(Rgb::new(r as u8, g as u8, b as u8));
                    total += 1;
                }
            }
        }
        let fallbacks = quant.fallback_pixels();
        assert!(
            (fallbacks as f64) < total as f64 * 0.05,
            "{fallbacks} fallbacks over {total} pixels"
        );
    }

    #[test]
    fn whole_image_and_view_paths_match_the_exact_segmenter() {
        let img = RgbImage::from_fn(41, 29, |x, y| {
            Rgb::new((x * 6) as u8, (y * 9) as u8, ((x * y) % 256) as u8)
        });
        let exact = IqftRgbSegmenter::paper_default();
        let reference = exact.segment_rgb(&img);
        let quant = QuantizedPhaseTable::paper_default();
        assert_eq!(quant.segment_rgb(&img), reference);
        // Tiled stitching through the view hook.
        let mut stitched = imaging::LabelMap::new(41, 29, u32::MAX);
        for rect in img.tile_rects(10, 4) {
            let tile = img.view(rect).unwrap();
            quant.classify_view_into(&tile, &mut stitched.view_mut(rect).unwrap());
        }
        assert_eq!(stitched, reference);
        // And across engines.
        for engine in [SegmentEngine::serial(), SegmentEngine::with_threads(2)] {
            assert_eq!(
                QuantizedPhaseTable::paper_default()
                    .with_engine(engine)
                    .segment_rgb(&img),
                reference
            );
        }
    }

    #[test]
    fn level_detection_clamps_and_names_round_trip() {
        for level in SimdLevel::ALL {
            assert_eq!(format!("{level}"), level.name());
            let clamped = level.clamp_to_supported();
            assert!(clamped.is_supported());
            assert!(clamped <= level);
        }
        assert!(SimdLevel::Scalar.is_supported());
        assert!(SimdLevel::detect().is_supported());
        #[cfg(target_arch = "x86_64")]
        assert!(
            SimdLevel::Sse2.is_supported(),
            "SSE2 is the x86-64 baseline"
        );
        // Requesting a level on a host that lacks it degrades, never fails.
        let table = QuantizedPhaseTable::paper_default().with_simd(SimdLevel::Avx2);
        assert!(table.simd_level().is_supported());
    }

    #[test]
    fn accessors_and_clone_preserve_configuration() {
        let table = QuantizedPhaseTable::paper_default();
        assert_eq!(table.entries(), 3 * 256);
        assert!((table.thetas().theta1 - std::f64::consts::PI).abs() < 1e-12);
        assert_eq!(table.oracle().thetas().theta1, table.thetas().theta1);
        let scalar = table.with_simd(SimdLevel::Scalar);
        assert_eq!(scalar.simd_level(), SimdLevel::Scalar);
        assert_eq!(scalar.name(), "IQFT (RGB, quantized)");
        let cloned = scalar.clone();
        assert_eq!(cloned.simd_level(), SimdLevel::Scalar);
        assert_eq!(cloned.entries(), 3 * 256);
        let serial = QuantizedPhaseTable::paper_default()
            .with_backend(xpar::Backend::Serial)
            .engine();
        assert_eq!(serial, SegmentEngine::serial());
    }
}
