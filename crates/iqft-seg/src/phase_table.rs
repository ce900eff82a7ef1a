//! An eager, fully-precomputed phase→probability table for Algorithm 1.
//!
//! The exact segmenter pays full statevector math for every pixel.
//! [`PhaseTable`] removes that cost by materialising, once per
//! [`ThetaParams`], every per-channel factor the IQFT measurement
//! distribution can ever need.
//!
//! # Why 3 × 256 entries suffice
//!
//! The encoded register is a *product* state, so the measurement probability
//! of basis state `j` factorises per qubit (see [`crate::rgb`]):
//!
//! ```text
//! P(j) = ∏_q cos²((φ_q − 2π · j · 2^(2−q) / 8) / 2)
//! ```
//!
//! Each factor depends only on one channel's 8-bit value (through its phase
//! `φ_q`) and on `j`.  A table of `3 registers × 256 channel values × 8
//! states` therefore captures the entire joint distribution: steady-state
//! classification is **three table lookups** (one 8-vector per channel), an
//! 8-way product and an arg-max — no trigonometry, no statevector math.
//!
//! # Byte-identity with the exact path
//!
//! Table entries are computed with *literally the same* float operations (and
//! the same multiplication order) as
//! [`IqftRgbSegmenter::probabilities_from_phases`], so the resulting labels
//! are bit-for-bit identical to the exact segmenter — not merely close.  The
//! tests enforce this exhaustively over every per-channel value and verify
//! the table against the `quantum` crate's inverse-DFT matrix
//! ([`quantum::idft_matrix`], the `W` of the paper's eq. 11).
//!
//! The table costs `3 · 256 · 8` f64s (48 KiB) and ~6k cosine evaluations to
//! build — amortised over a single image it is already a win, and the
//! `iqft-pipeline` crate shares one table across a whole batched stream.

use crate::rgb::{argmax, IqftRgbSegmenter, NUM_STATES};
use imaging::{LabelMap, PixelClassifier, Rgb, RgbImage, Segmenter};
use seg_engine::SegmentEngine;

/// Number of distinct values an 8-bit channel can take.
const CHANNEL_VALUES: usize = 256;

/// For each register position (0 = most significant), the RGB channel index
/// that feeds it: under the paper's eq. 11 ordering the blue-channel phase α
/// leads.  The quantized table in [`crate::quant`] indexes pixels the same
/// way.
pub(crate) const CHANNEL_OF_QUBIT: [usize; 3] = [2, 1, 0];

/// A fully-precomputed per-channel phase→probability-factor table for the
/// 3-qubit RGB segmenter.
///
/// Construction is eager: `PhaseTable::from_segmenter` evaluates every
/// factor up front, so [`PhaseTable::classify`] never computes a cosine.
/// Output labels are byte-identical to the wrapped [`IqftRgbSegmenter`] (see
/// the module docs for why this holds exactly, not approximately).
#[derive(Debug, Clone)]
pub struct PhaseTable {
    /// `factors[q][v][j]` — the probability factor contributed to basis
    /// state `j` by register qubit `q` (0 = most significant) when the
    /// channel feeding that qubit has 8-bit value `v`.
    factors: Vec<[f64; NUM_STATES]>,
    engine: SegmentEngine,
}

impl PhaseTable {
    /// Builds the table for `segmenter`'s exact configuration (θ parameters
    /// and normalisation flag).
    pub(crate) fn from_segmenter(segmenter: &IqftRgbSegmenter) -> Self {
        let thetas = segmenter.thetas();
        let theta_of_channel = thetas.as_array();
        let scale = if segmenter.normalizes() {
            1.0 / 255.0
        } else {
            1.0
        };
        let mut factors = vec![[0.0; NUM_STATES]; 3 * CHANNEL_VALUES];
        for q in 0..3 {
            let theta = theta_of_channel[CHANNEL_OF_QUBIT[q]];
            let weight = 1usize << (2 - q);
            for v in 0..CHANNEL_VALUES {
                // Identical arithmetic to IqftRgbSegmenter::phases followed by
                // probabilities_from_phases — this is what makes the table
                // byte-identical to the exact path rather than merely close.
                let phi = v as f64 * scale * theta;
                let entry = &mut factors[q * CHANNEL_VALUES + v];
                for (j, slot) in entry.iter_mut().enumerate() {
                    let angle = phi - 2.0 * std::f64::consts::PI * (j * weight) as f64 / 8.0;
                    let c = (angle / 2.0).cos();
                    *slot = c * c;
                }
            }
        }
        Self {
            factors,
            engine: segmenter.engine(),
        }
    }

    /// The paper's headline configuration (`θ1 = θ2 = θ3 = π`), precomputed.
    pub fn paper_default() -> Self {
        Self::from_segmenter(&IqftRgbSegmenter::paper_default())
    }

    /// The engine whole-image calls execute on.
    pub(crate) fn engine(&self) -> SegmentEngine {
        self.engine
    }

    /// The factor vector for register qubit `q` at channel value `v` (also
    /// the source data the quantized table in [`crate::quant`] is derived
    /// from).
    pub(crate) fn factor(&self, q: usize, v: u8) -> &[f64; NUM_STATES] {
        &self.factors[q * CHANNEL_VALUES + v as usize]
    }

    /// The measurement probability of each basis state for `pixel` —
    /// bit-identical to [`IqftRgbSegmenter::probabilities`] for the
    /// configuration the table was built from.
    pub(crate) fn probabilities(&self, pixel: Rgb<u8>) -> [f64; NUM_STATES] {
        let rgb = pixel.0;
        let t0 = self.factor(0, rgb[CHANNEL_OF_QUBIT[0]]);
        let t1 = self.factor(1, rgb[CHANNEL_OF_QUBIT[1]]);
        let t2 = self.factor(2, rgb[CHANNEL_OF_QUBIT[2]]);
        let mut probs = [1.0; NUM_STATES];
        // Multiply in ascending register order, exactly as the exact path
        // folds its per-qubit factors, so every intermediate f64 matches.
        for (j, p) in probs.iter_mut().enumerate() {
            *p *= t0[j];
            *p *= t1[j];
            *p *= t2[j];
        }
        probs
    }

    /// Classifies one pixel via three table lookups: the arg-max basis state
    /// of `PhaseTable::probabilities`, ties broken towards the lower index
    /// (the same rule as the exact segmenter).
    pub fn classify(&self, pixel: Rgb<u8>) -> u32 {
        argmax(&self.probabilities(pixel)) as u32
    }
}

impl PixelClassifier for PhaseTable {
    fn classify_rgb_pixel(&self, pixel: Rgb<u8>) -> u32 {
        self.classify(pixel)
    }
}

impl Segmenter for PhaseTable {
    fn name(&self) -> &str {
        "IQFT (RGB, phase-table)"
    }

    fn segment_rgb(&self, img: &RgbImage) -> LabelMap {
        self.engine.segment_rgb(self, img)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::theta::ThetaParams;

    #[test]
    fn matches_exact_classification_over_every_channel_value() {
        // All 256 × 3 per-channel values, swept one channel at a time with
        // the other two held at assorted anchors.
        let exact = IqftRgbSegmenter::paper_default();
        let table = PhaseTable::from_segmenter(&exact);
        for v in 0..=255u8 {
            for anchor in [0u8, 77, 200] {
                for pixel in [
                    Rgb::new(v, anchor, anchor),
                    Rgb::new(anchor, v, anchor),
                    Rgb::new(anchor, anchor, v),
                ] {
                    assert_eq!(table.classify(pixel), exact.classify(pixel), "{pixel:?}");
                }
            }
        }
    }

    #[test]
    fn probabilities_are_bit_identical_to_exact_path() {
        for (thetas, normalize) in [
            (ThetaParams::paper_default(), true),
            (ThetaParams::mixed(), true),
            (ThetaParams::new(1.3, 2.9, 0.4), true),
            (ThetaParams::uniform(5.5), false),
        ] {
            let exact = IqftRgbSegmenter::new(thetas).with_normalization(normalize);
            let table = PhaseTable::from_segmenter(&exact);
            for pixel in [
                Rgb::new(0, 0, 0),
                Rgb::new(255, 255, 255),
                Rgb::new(13, 200, 77),
                Rgb::new(254, 1, 128),
            ] {
                let p_table = table.probabilities(pixel);
                let p_exact = exact.probabilities(pixel);
                for (a, b) in p_table.iter().zip(p_exact.iter()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{pixel:?} ({thetas:?})");
                }
            }
        }
    }

    #[test]
    fn dense_rgb_grid_is_byte_identical() {
        // A 256×256 grid over (r, g) with b varying deterministically — a
        // broad joint sweep on top of the per-channel exhaustive test.
        let exact = IqftRgbSegmenter::new(ThetaParams::uniform(2.0 * std::f64::consts::PI));
        let table = PhaseTable::from_segmenter(&exact);
        for r in (0..256usize).step_by(5) {
            for g in 0..256usize {
                let b = (r * 31 + g * 17) % 256;
                let pixel = Rgb::new(r as u8, g as u8, b as u8);
                assert_eq!(table.classify(pixel), exact.classify(pixel), "{pixel:?}");
            }
        }
    }

    #[test]
    fn agrees_with_quantum_idft_matrix() {
        // The table must reproduce the measurement distribution of the
        // genuine inverse-DFT matrix (quantum::idft_matrix, the paper's W) to
        // floating-point accuracy.
        let exact = IqftRgbSegmenter::paper_default();
        let table = PhaseTable::from_segmenter(&exact);
        for pixel in [Rgb::new(170, 40, 220), Rgb::new(3, 250, 99)] {
            let [gamma, beta, alpha] = exact.phases(pixel);
            let via_matrix = exact.probabilities_via_matrix(gamma, beta, alpha);
            for (t, m) in table.probabilities(pixel).iter().zip(via_matrix.iter()) {
                assert!((t - m).abs() < 1e-10, "{t} vs {m}");
            }
        }
    }

    #[test]
    fn whole_image_segmentation_matches_exact_segmenter() {
        let img = RgbImage::from_fn(41, 29, |x, y| {
            Rgb::new((x * 6) as u8, (y * 9) as u8, ((x * y) % 256) as u8)
        });
        let exact = IqftRgbSegmenter::paper_default();
        let table = PhaseTable::paper_default();
        assert_eq!(table.segment_rgb(&img), exact.segment_rgb(&img));
        // And across engines.
        for engine in [
            SegmentEngine::serial(),
            SegmentEngine::with_threads(2),
            SegmentEngine::with_threads(0),
        ] {
            assert_eq!(engine.segment_rgb(&table, &img), exact.segment_rgb(&img));
        }
    }

    #[test]
    fn view_classification_matches_whole_image_segmentation() {
        let table = PhaseTable::paper_default();
        let img = RgbImage::from_fn(33, 14, |x, y| {
            Rgb::new((x * 8) as u8, (y * 18) as u8, ((x * y) % 256) as u8)
        });
        let whole = table.segment_rgb(&img);
        let mut stitched = imaging::LabelMap::new(33, 14, u32::MAX);
        for rect in img.tile_rects(10, 4) {
            let tile = img.view(rect).unwrap();
            table.classify_rgb_view_into(&tile, &mut stitched.view_mut(rect).unwrap());
        }
        assert_eq!(stitched, whole);
    }

    #[test]
    fn accessors_and_name() {
        let table = PhaseTable::paper_default();
        assert_eq!(table.name(), "IQFT (RGB, phase-table)");
        assert_eq!(table.factors.len(), 3 * 256);
        let serial = PhaseTable::from_segmenter(
            &IqftRgbSegmenter::paper_default().with_engine(SegmentEngine::serial()),
        )
        .engine();
        assert_eq!(serial, SegmentEngine::serial());
    }
}
