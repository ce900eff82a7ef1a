//! Algorithm 1: the IQFT-inspired RGB segmenter.
//!
//! Per pixel `(R, G, B)`:
//!
//! 1. normalise to `[0, 1]` (Algorithm 1, line 1);
//! 2. scale into phases `γ = R·θ1`, `β = G·θ2`, `α = B·θ3` (line 2);
//! 3. lift to the 8-component phase vector `F` of eq. 11 (line 3) — the
//!    expansion of the 3-qubit product state
//!    `(|0⟩+e^{iφ_2}|1⟩)(|0⟩+e^{iφ_1}|1⟩)(|0⟩+e^{iφ_0}|1⟩)`;
//! 4. multiply by the inverse-DFT matrix `W` and take `|W·F / 8|²` (line 4) —
//!    exactly the measurement distribution a real 3-qubit IQFT would produce;
//! 5. label the pixel with the arg-max basis state (line 5).
//!
//! The label alphabet is `{0, …, 7}` and the number of *occupied* labels
//! adapts to the image content (the property the paper highlights over
//! K-means, which needs `k` chosen in advance).
//!
//! # Qubit ordering ([`BitOrder`])
//!
//! The paper's eq. 8/11 and Algorithm 1 place `α` (the blue-channel phase) on
//! the most significant qubit.  That literal reading —
//! [`BitOrder::Equation11`], the default here — also reproduces the paper's
//! Table II segment counts exactly (1/3/5/6/8… and "2 (constant)" for the
//! mixed configuration), so it is what the authors' code computed.  The
//! worked example of Figs. 2–3 (`α = 2.464, β = 0.025, γ = 0.246` → basis
//! state `|100⟩`), however, names the winning state in *bit-reversed* order
//! (the literal equation yields `|001⟩` for those angles — the classic QFT
//! output-ordering subtlety).  [`BitOrder::FigureConsistent`] swaps the
//! register so the figure's label comes out verbatim; it is provided for
//! completeness and exercised in tests, while every evaluation experiment in
//! this workspace uses the default.
//!
//! # Complexity
//!
//! Because the encoded register is a *product* state, the IQFT output
//! probability factorises per qubit:
//! `P(j) = ∏_p cos²((φ_p − 2π·j·2^p/8)/2)`, so classification costs a handful
//! of trigonometric evaluations per pixel — no 8×8 matrix product is needed.
//! The matrix path is retained (and tested against the fast path and against
//! the state-vector simulator in the `quantum` crate) for validation.

use crate::theta::ThetaParams;
use imaging::{color, LabelMap, PixelClassifier, Rgb, RgbImage, Segmenter};
use quantum::{idft_matrix, phase_vector, CMatrix, Complex};
use seg_engine::SegmentEngine;
use xpar::Backend;

/// Number of basis states / possible labels of the 3-qubit algorithm.
pub const NUM_STATES: usize = 8;

/// Qubit-ordering convention used when assembling the 3-qubit register from
/// the channel phases `(γ, β, α)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BitOrder {
    /// γ (red-channel phase) is the most significant qubit.  Reproduces the
    /// paper's Figs. 2–3 worked example verbatim (the basis-state *name*
    /// `|100⟩`).
    FigureConsistent,
    /// α (blue-channel phase) is the most significant qubit, following the
    /// literal ordering of the paper's eq. 8/11 and Algorithm 1.  This is the
    /// default and matches the paper's Table II segment counts.
    #[default]
    Equation11,
}

/// The IQFT-inspired RGB segmenter (the paper's Algorithm 1).
#[derive(Debug, Clone)]
pub struct IqftRgbSegmenter {
    thetas: ThetaParams,
    normalize: bool,
    backend: Backend,
    bit_order: BitOrder,
}

impl IqftRgbSegmenter {
    /// Creates a segmenter with the given angle parameters, normalisation
    /// enabled (the paper's recommended configuration), the default parallel
    /// backend and the Algorithm-1 (eq. 11) bit order.
    pub fn new(thetas: ThetaParams) -> Self {
        Self {
            thetas,
            normalize: true,
            backend: Backend::default(),
            bit_order: BitOrder::default(),
        }
    }

    /// The paper's headline configuration: `θ1 = θ2 = θ3 = π`.
    pub fn paper_default() -> Self {
        Self::new(ThetaParams::paper_default())
    }

    /// Enables or disables the `/255` normalisation step (line 1).  Disabling
    /// it reproduces the "noisy segments" ablation of the paper's Fig. 5.
    pub fn with_normalization(mut self, normalize: bool) -> Self {
        self.normalize = normalize;
        self
    }

    /// Selects the execution backend for whole-image segmentation.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Routes whole-image segmentation through `engine` (equivalent to
    /// [`Self::with_backend`] with the engine's backend).
    pub fn with_engine(self, engine: SegmentEngine) -> Self {
        self.with_backend(engine.backend())
    }

    /// The engine this segmenter executes whole-image calls on.
    pub fn engine(&self) -> SegmentEngine {
        SegmentEngine::new(self.backend)
    }

    /// Selects the qubit-ordering convention.
    pub fn with_bit_order(mut self, bit_order: BitOrder) -> Self {
        self.bit_order = bit_order;
        self
    }

    /// The configured angle parameters.
    pub fn thetas(&self) -> ThetaParams {
        self.thetas
    }

    /// Whether intensity normalisation is enabled.
    pub fn normalizes(&self) -> bool {
        self.normalize
    }

    /// The configured qubit ordering.
    pub fn bit_order(&self) -> BitOrder {
        self.bit_order
    }

    /// Phases `[γ, β, α]` for a pixel (Algorithm 1, lines 1–2):
    /// `γ = R·θ1`, `β = G·θ2`, `α = B·θ3`.
    pub fn phases(&self, pixel: Rgb<u8>) -> [f64; 3] {
        let scale = if self.normalize { 1.0 / 255.0 } else { 1.0 };
        let r = pixel.r() as f64 * scale;
        let g = pixel.g() as f64 * scale;
        let b = pixel.b() as f64 * scale;
        [
            r * self.thetas.theta1, // γ
            g * self.thetas.theta2, // β
            b * self.thetas.theta3, // α
        ]
    }

    /// Register phases ordered most-significant-qubit-first according to the
    /// configured [`BitOrder`].
    fn register_phases(&self, gamma: f64, beta: f64, alpha: f64) -> [f64; 3] {
        match self.bit_order {
            BitOrder::FigureConsistent => [gamma, beta, alpha],
            BitOrder::Equation11 => [alpha, beta, gamma],
        }
    }

    /// The measurement probability of each basis state for the given channel
    /// phases `(γ, β, α)` — the vector `S` of Algorithm 1, line 4.
    ///
    /// Uses the per-qubit factorisation of the IQFT of a product state; see
    /// the module docs.  The result is identical (to floating-point accuracy)
    /// to [`Self::probabilities_via_matrix`].
    pub fn probabilities_from_phases(
        &self,
        gamma: f64,
        beta: f64,
        alpha: f64,
    ) -> [f64; NUM_STATES] {
        let register = self.register_phases(gamma, beta, alpha);
        let mut probs = [1.0; NUM_STATES];
        // Qubit q (0 = most significant) occupies bit position 2 - q, i.e.
        // weight 2^(2-q); its contribution to state j is
        // cos²((φ_q − 2π·j·2^(2-q)/8) / 2).
        for (q, &phi) in register.iter().enumerate() {
            let weight = 1usize << (2 - q);
            for (j, p) in probs.iter_mut().enumerate() {
                let angle = phi - 2.0 * std::f64::consts::PI * (j * weight) as f64 / 8.0;
                let c = (angle / 2.0).cos();
                *p *= c * c;
            }
        }
        probs
    }

    /// Reference implementation of Algorithm 1 line 4: builds the explicit
    /// 8-component phase vector, multiplies by the 8×8 inverse-DFT matrix and
    /// squares the amplitudes.  Slower than
    /// [`Self::probabilities_from_phases`], used for validation.
    pub fn probabilities_via_matrix(&self, gamma: f64, beta: f64, alpha: f64) -> [f64; NUM_STATES] {
        let register = self.register_phases(gamma, beta, alpha);
        let f = phase_vector(&register);
        let w: CMatrix = idft_matrix(NUM_STATES);
        let mut probs = [0.0; NUM_STATES];
        for (j, prob) in probs.iter_mut().enumerate() {
            let mut acc = Complex::ZERO;
            for (k, fk) in f.iter().enumerate() {
                acc += w.get(j, k) * *fk;
            }
            // W carries 1/√8; the phase vector is unnormalised, so divide the
            // squared amplitude by 8 (Algorithm 1 divides the raw product by 8).
            *prob = acc.norm_sqr() / NUM_STATES as f64;
        }
        probs
    }

    /// The measurement probabilities for a pixel.
    pub fn probabilities(&self, pixel: Rgb<u8>) -> [f64; NUM_STATES] {
        let [gamma, beta, alpha] = self.phases(pixel);
        self.probabilities_from_phases(gamma, beta, alpha)
    }

    /// Classifies one pixel (Algorithm 1, line 5): the index of the most
    /// probable basis state, ties broken towards the lower index.
    pub fn classify(&self, pixel: Rgb<u8>) -> u32 {
        argmax(&self.probabilities(pixel)) as u32
    }

    /// Classifies every pixel of a zero-copy sub-image view into a matching
    /// label view — the tile work unit consumed by
    /// [`SegmentEngine::segment_tiled`].  Labels are identical to
    /// per-pixel [`IqftRgbSegmenter::classify`] calls, so any tile
    /// decomposition reassembles byte-identically to a whole-image pass.
    pub fn classify_view_into(
        &self,
        view: &imaging::ImageView<'_, Rgb<u8>>,
        out: &mut imaging::LabelViewMut<'_>,
    ) {
        PixelClassifier::classify_rgb_view_into(self, view, out);
    }

    /// Classifies a pixel given already-normalised channel values in `[0, 1]`
    /// (used by the Table II random-input sweep, which never materialises an
    /// image).
    pub fn classify_normalized(&self, r: f64, g: f64, b: f64) -> u32 {
        let gamma = r * self.thetas.theta1;
        let beta = g * self.thetas.theta2;
        let alpha = b * self.thetas.theta3;
        argmax(&self.probabilities_from_phases(gamma, beta, alpha)) as u32
    }
}

/// Index of the maximum element (first occurrence wins).
pub(crate) fn argmax(values: &[f64]) -> usize {
    let mut best = 0usize;
    let mut best_v = f64::MIN;
    for (i, &v) in values.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

impl PixelClassifier for IqftRgbSegmenter {
    fn classify_rgb_pixel(&self, pixel: Rgb<u8>) -> u32 {
        self.classify(pixel)
    }
}

impl Segmenter for IqftRgbSegmenter {
    fn name(&self) -> &str {
        "IQFT (RGB)"
    }

    fn segment_rgb(&self, img: &RgbImage) -> LabelMap {
        self.engine().segment_rgb(self, img)
    }

    fn segment_gray(&self, img: &imaging::GrayImage) -> LabelMap {
        // Grayscale input: replicate the intensity into all channels, as the
        // paper does when it applies the RGB algorithm to grayscale imagery.
        self.segment_rgb(&color::gray_to_rgb(img))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quantum::{phase_product_state, Circuit};
    use std::f64::consts::PI;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn probabilities_form_a_distribution() {
        let seg = IqftRgbSegmenter::paper_default();
        for pixel in [
            Rgb::new(0, 0, 0),
            Rgb::new(255, 255, 255),
            Rgb::new(13, 200, 77),
            Rgb::new(255, 0, 128),
        ] {
            let p = seg.probabilities(pixel);
            let sum: f64 = p.iter().sum();
            assert_close(sum, 1.0, 1e-10);
            assert!(p.iter().all(|&x| (-1e-12..=1.0 + 1e-12).contains(&x)));
        }
    }

    #[test]
    fn fast_path_matches_matrix_path() {
        for bit_order in [BitOrder::FigureConsistent, BitOrder::Equation11] {
            let seg =
                IqftRgbSegmenter::new(ThetaParams::new(1.3, 2.9, 0.4)).with_bit_order(bit_order);
            for (g, b, a) in [(0.0, 0.0, 0.0), (0.7, 1.9, 2.4), (3.1, 0.2, 5.9)] {
                let fast = seg.probabilities_from_phases(g, b, a);
                let matrix = seg.probabilities_via_matrix(g, b, a);
                for (x, y) in fast.iter().zip(matrix.iter()) {
                    assert_close(*x, *y, 1e-10);
                }
            }
        }
    }

    #[test]
    fn black_pixel_maps_to_state_zero() {
        // All phases are 0, so the product state is the uniform real
        // superposition, whose IQFT is exactly |000⟩.
        let seg = IqftRgbSegmenter::paper_default();
        let p = seg.probabilities(Rgb::new(0, 0, 0));
        assert_close(p[0], 1.0, 1e-10);
        assert_eq!(seg.classify(Rgb::new(0, 0, 0)), 0);
    }

    #[test]
    fn probabilities_match_true_iqft_circuit() {
        // The classical pipeline must reproduce the measurement distribution
        // of a genuine 3-qubit IQFT applied to the phase-encoded register.
        let seg = IqftRgbSegmenter::paper_default();
        let pixel = Rgb::new(170, 40, 220);
        let [gamma, beta, alpha] = seg.phases(pixel);
        // Default bit order puts α on the most significant qubit (eq. 11).
        let mut state = phase_product_state(&[alpha, beta, gamma]);
        Circuit::iqft(3).apply(&mut state);
        let classical = seg.probabilities(pixel);
        for (c, q) in classical.iter().zip(state.probabilities()) {
            assert_close(*c, q, 1e-10);
        }
        assert_eq!(seg.classify(pixel) as usize, state.most_probable());
    }

    #[test]
    fn paper_fig2_example_winning_state() {
        // The paper's running example (Figs. 2–3): α = 2.464, β = 0.025,
        // γ = 0.246 is reported as "most similar to basis vector |100⟩".
        // Under the literal eq. 11 ordering (the default) the winner is the
        // bit-reversed name |001⟩ = label 1; reading the register in the
        // figure-consistent order yields label 4 = |100⟩ verbatim.  The
        // winning probability (~0.87) is identical either way.
        let eq11 = IqftRgbSegmenter::paper_default();
        let pe = eq11.probabilities_from_phases(0.246, 0.025, 2.464);
        assert_eq!(argmax(&pe), 1);
        let fig = IqftRgbSegmenter::paper_default().with_bit_order(BitOrder::FigureConsistent);
        let pf = fig.probabilities_from_phases(0.246, 0.025, 2.464);
        assert_eq!(argmax(&pf), 4);
        // The figure-consistent reading reproduces the strongly dominant bar
        // of Fig. 3 (probability ≈ 0.87 at the winning state).
        assert!(pf[4] > 0.8);
        let mut sorted = pf.to_vec();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        assert!(sorted[0] > sorted[1] + 0.3);
    }

    #[test]
    fn both_bit_orders_are_proper_distributions() {
        let eq11 = IqftRgbSegmenter::paper_default();
        let fig = IqftRgbSegmenter::paper_default().with_bit_order(BitOrder::FigureConsistent);
        assert_eq!(eq11.bit_order(), BitOrder::Equation11);
        assert_eq!(fig.bit_order(), BitOrder::FigureConsistent);
        for (g, b, a) in [(0.3, 1.1, 2.0), (2.9, 0.4, 1.7), (0.0, 3.0, 0.5)] {
            for seg in [&fig, &eq11] {
                let p = seg.probabilities_from_phases(g, b, a);
                assert_close(p.iter().sum::<f64>(), 1.0, 1e-10);
            }
        }
    }

    #[test]
    fn theta_pi_over_4_collapses_to_one_segment() {
        // Table II: θ1 = θ2 = θ3 = π/4 produces a single segment.
        let seg = IqftRgbSegmenter::new(ThetaParams::uniform(PI / 4.0));
        let img = RgbImage::from_fn(16, 16, |x, y| {
            Rgb::new((x * 16) as u8, (y * 16) as u8, ((x + y) * 8) as u8)
        });
        let labels = seg.segment_rgb(&img);
        assert_eq!(imaging::labels::distinct_labels(&labels), 1);
        assert_eq!(labels.get(0, 0), 0);
    }

    #[test]
    fn classify_normalized_matches_classify() {
        let seg = IqftRgbSegmenter::paper_default();
        for (r, g, b) in [(10u8, 20u8, 30u8), (200, 100, 50), (255, 255, 0)] {
            let via_pixel = seg.classify(Rgb::new(r, g, b));
            let via_norm =
                seg.classify_normalized(r as f64 / 255.0, g as f64 / 255.0, b as f64 / 255.0);
            assert_eq!(via_pixel, via_norm);
        }
    }

    #[test]
    fn disabling_normalization_changes_the_result() {
        let with = IqftRgbSegmenter::paper_default();
        let without = IqftRgbSegmenter::paper_default().with_normalization(false);
        assert!(with.normalizes());
        assert!(!without.normalizes());
        let img = RgbImage::from_fn(8, 8, |x, y| {
            Rgb::new((x * 30 + 3) as u8, (y * 30 + 5) as u8, 128)
        });
        assert_ne!(with.segment_rgb(&img), without.segment_rgb(&img));
    }

    #[test]
    fn segmentation_is_backend_independent() {
        let img = RgbImage::from_fn(31, 17, |x, y| {
            Rgb::new((x * 8) as u8, (y * 15) as u8, ((x * y) % 256) as u8)
        });
        let serial = IqftRgbSegmenter::paper_default()
            .with_backend(Backend::Serial)
            .segment_rgb(&img);
        for backend in [Backend::Threads(2), Backend::Threads(0)] {
            let par = IqftRgbSegmenter::paper_default()
                .with_backend(backend)
                .segment_rgb(&img);
            assert_eq!(par, serial, "backend {backend:?}");
        }
    }

    #[test]
    fn labels_are_always_in_range() {
        let seg = IqftRgbSegmenter::new(ThetaParams::uniform(2.0 * PI));
        let img = RgbImage::from_fn(64, 4, |x, y| {
            Rgb::new((x * 4) as u8, (255 - x * 3) as u8, (y * 60) as u8)
        });
        let labels = seg.segment_rgb(&img);
        assert!(labels.pixels().all(|&l| l < NUM_STATES as u32));
    }

    #[test]
    fn grayscale_input_uses_channel_replication() {
        let seg = IqftRgbSegmenter::paper_default();
        let gray = imaging::GrayImage::from_fn(4, 4, |x, _| imaging::Luma((x * 80) as u8));
        let direct = seg.segment_gray(&gray);
        let via_rgb = seg.segment_rgb(&color::gray_to_rgb(&gray));
        assert_eq!(direct, via_rgb);
    }

    #[test]
    fn view_classification_matches_whole_image_segmentation() {
        let seg = IqftRgbSegmenter::paper_default();
        let img = RgbImage::from_fn(21, 13, |x, y| {
            Rgb::new((x * 12) as u8, (y * 19) as u8, ((x + y) * 9) as u8)
        });
        let whole = seg.segment_rgb(&img);
        let mut stitched = imaging::LabelMap::new(21, 13, u32::MAX);
        for rect in img.tile_rects(6, 5) {
            let tile = img.view(rect).unwrap();
            seg.classify_view_into(&tile, &mut stitched.view_mut(rect).unwrap());
        }
        assert_eq!(stitched, whole);
    }

    #[test]
    fn argmax_prefers_first_maximum() {
        assert_eq!(argmax(&[0.1, 0.5, 0.5, 0.2]), 1);
        assert_eq!(argmax(&[1.0]), 0);
    }

    #[test]
    fn name_and_accessors() {
        let seg = IqftRgbSegmenter::paper_default();
        assert_eq!(seg.name(), "IQFT (RGB)");
        assert_close(seg.thetas().theta1, PI, 1e-12);
    }
}
