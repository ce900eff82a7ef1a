#![warn(missing_docs)]
//! `iqft-seg` — the IQFT-inspired unsupervised image segmentation algorithm.
//!
//! This crate is the core contribution of the reproduced paper
//! (*"Inverse Quantum Fourier Transform Inspired Algorithm for Unsupervised
//! Image Segmentation"*, IPPS 2023).  The idea: encode a pixel's channel
//! intensities as the relative phases of a small quantum register, apply the
//! inverse quantum Fourier transform, and classify the pixel by the most
//! probable computational basis state.  Because the register is a product
//! state with known phases, the whole pipeline collapses to a tiny classical
//! computation per pixel — no training, no iteration, no neighbourhood
//! dependence.
//!
//! # Modules
//!
//! * [`theta`] — the angle parameters `(θ1, θ2, θ3)` and the θ ↔ threshold
//!   correspondence of the paper's eq. 15/16 (Table I).
//! * [`rgb`] — Algorithm 1: the 3-qubit, 8-label RGB segmenter.
//! * [`gray`] — the 1-qubit, 2-class grayscale segmenter (eqs. 12–14),
//!   including the multi-threshold behaviour of eq. 16.
//! * [`PhaseTable`] — an *eager* 3 × 256-entry phase table precomputed per
//!   [`ThetaParams`]: steady-state classification is three table lookups,
//!   byte-identical to the exact path (the throughput pipeline's fast path).
//! * [`QuantizedPhaseTable`] — a fixed-point, log-space quantization of the
//!   phase table with runtime-dispatched `std::arch` SIMD kernels
//!   (SSE2/SSE4.1/AVX2) and a per-pixel f64 exactness oracle: still
//!   bit-identical to the exact path, by construction (the fastest
//!   classifier in the workspace).
//! * [`IqftClassifier`] — the concrete classifier behind a
//!   `seg_engine::ClassifierKind`: one enum that plan-driven callers build
//!   from the `--classifier` flag (all variants label identically).
//! * [`reduce_to_foreground`] — reduction of a multi-label segmentation to a
//!   foreground/background mask for mIOU evaluation.
//! * [`analysis`] — segment-count analysis used for the paper's Table II.
//! * [`AutoThetaSearch`] — per-image θ selection (the paper's Fig. 10
//!   adjustment).
//! * [`SegmentEngine`] (re-exported from the `seg-engine` crate) — the
//!   backend-aware engine that executes these segmenters with chunk-parallel
//!   pixel classification and batched multi-image sweeps.  Every segmenter
//!   here routes its whole-image calls through an engine; pick the backend
//!   with `with_backend` / `with_engine` or the harness's
//!   `--backend serial|threads --threads N` flags.
//!
//! # Quickstart
//!
//! ```
//! use imaging::{RgbImage, Rgb, Segmenter};
//! use iqft_seg::rgb::IqftRgbSegmenter;
//! use iqft_seg::theta::ThetaParams;
//!
//! // A toy image: dark left half, bright right half.
//! let img = RgbImage::from_fn(16, 8, |x, _| {
//!     if x < 8 { Rgb::new(20, 20, 20) } else { Rgb::new(240, 240, 240) }
//! });
//! let segmenter = IqftRgbSegmenter::new(ThetaParams::uniform(std::f64::consts::PI));
//! let labels = segmenter.segment_rgb(&img);
//! assert_ne!(labels.get(0, 0), labels.get(15, 0));
//! ```

pub mod analysis;
pub(crate) mod auto_theta;
pub(crate) mod classifier;
pub(crate) mod foreground;
pub mod gray;
pub(crate) mod phase_table;
pub(crate) mod quant;
pub mod rgb;
pub mod theta;

pub use auto_theta::AutoThetaSearch;
pub use classifier::IqftClassifier;
pub use foreground::{reduce_to_foreground, ForegroundPolicy};
pub use gray::IqftGraySegmenter;
pub use phase_table::PhaseTable;
pub use quant::{QuantizedPhaseTable, SimdLevel};
pub use rgb::IqftRgbSegmenter;
pub use seg_engine::SegmentEngine;
pub use theta::ThetaParams;

#[cfg(test)]
mod tests {
    use super::*;
    use imaging::{Rgb, RgbImage, Segmenter};

    /// The doc example as a regular test so it also runs under `--no-doc`.
    #[test]
    fn quickstart_separates_dark_and_bright_halves() {
        let img = RgbImage::from_fn(16, 8, |x, _| {
            if x < 8 {
                Rgb::new(20, 20, 20)
            } else {
                Rgb::new(240, 240, 240)
            }
        });
        let segmenter = IqftRgbSegmenter::new(ThetaParams::uniform(std::f64::consts::PI));
        let labels = segmenter.segment_rgb(&img);
        assert_ne!(labels.get(0, 0), labels.get(15, 0));
        // Left half is homogeneous, right half is homogeneous.
        assert_eq!(labels.get(0, 0), labels.get(7, 7));
        assert_eq!(labels.get(8, 0), labels.get(15, 7));
    }
}
