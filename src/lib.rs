//! `iqft-repro` — umbrella crate for the reproduction of
//! *"Inverse Quantum Fourier Transform Inspired Algorithm for Unsupervised
//! Image Segmentation"* (IPPS 2023).
//!
//! This crate re-exports the workspace's public surface so examples,
//! integration tests and downstream users can depend on a single crate:
//!
//! * [`iqft_seg`] — the IQFT-inspired segmenters (the paper's contribution);
//! * [`imaging`] — the imaging substrate (containers, I/O, drawing, labels);
//! * [`quantum`] — the state-vector simulator and QFT/IQFT circuits;
//! * [`baselines`] — K-means and Otsu baselines;
//! * [`metrics`] — foreground/background mIOU;
//! * [`datasets`] — synthetic VOC-like / xVIEW2-like / balls datasets;
//! * [`xpar`] — the parallel execution substrate;
//! * [`seg_engine`] — the backend-aware engine and the `SegmentPlan`
//!   strategy dispatch layer;
//! * [`iqft_pipeline`] — the batched throughput pipeline (batches on the
//!   engine's backend, label arena, per-request entry points, and the
//!   sharded content-addressed result cache);
//! * [`iqft_serve`] — the TCP segmentation service (wire protocol v2 with
//!   cached ops and pipelining, server, client).
//!
//! See the `examples/` directory for runnable entry points, the
//! `iqft-experiments` binary (in `crates/experiments`) for the full
//! table/figure reproduction harness, and `docs/ARCHITECTURE.md` for the
//! crate dependency graph and data flow.
//!
//! # Example
//!
//! ```
//! use iqft_repro::imaging::{Rgb, RgbImage, Segmenter};
//! use iqft_repro::iqft_seg::IqftRgbSegmenter;
//!
//! let img = RgbImage::from_fn(8, 8, |x, _| {
//!     if x < 4 { Rgb::new(10, 10, 10) } else { Rgb::new(240, 240, 240) }
//! });
//! let segmenter = IqftRgbSegmenter::new(iqft_repro::paper_default_theta());
//! let labels = segmenter.segment_rgb(&img);
//! assert_ne!(labels.get(0, 0), labels.get(7, 0));
//! ```

pub use baselines;
pub use datasets;
pub use imaging;
pub use iqft_pipeline;
pub use iqft_seg;
pub use iqft_serve;
pub use metrics;
pub use quantum;
pub use seg_engine;
pub use xpar;

/// The θ configuration used in the paper's headline Table III comparison.
pub fn paper_default_theta() -> iqft_seg::ThetaParams {
    iqft_seg::ThetaParams::paper_default()
}

#[cfg(test)]
mod tests {
    #[test]
    fn reexports_are_wired_up() {
        let theta = super::paper_default_theta();
        assert!((theta.theta1 - std::f64::consts::PI).abs() < 1e-12);
    }
}
