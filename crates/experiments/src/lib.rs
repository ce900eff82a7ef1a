//! `experiments` — the harness that regenerates every table and figure of the
//! reproduced paper.
//!
//! * `evaluate` — runs any [`imaging::Segmenter`] over a dataset, reduces
//!   its output to foreground/background, scores it with mIOU and wall-clock
//!   runtime, and aggregates per-dataset summaries (the machinery behind
//!   Table III and Figs. 8–10).
//! * [`tables`] — Table I (θ ↔ threshold), Table II (θ ↔ segment count) and
//!   Table III (mIOU / runtime comparison).
//! * [`figures`] — Figs. 1–3 (worked example), 4 (multi-thresholding),
//!   5 (normalisation ablation), 6 (θ sweep on scenes), 7 (Otsu equivalence),
//!   8–9 (qualitative wins) and 10 (per-image θ adjustment).
//! * [`throughput`] — the batched `iqft-pipeline` service workload
//!   (`iqft-experiments throughput`), with the `PhaseTable` steady-state
//!   fast path and a byte-identity cross-check against serial segmentation.
//! * [`service`] — the network face: `iqft-experiments serve` boots the
//!   `iqft-serve` TCP daemon and `iqft-experiments loadgen` drives
//!   concurrent clients against it, with the same default-on byte-identity
//!   verification.  `serve` and `throughput` compose the same
//!   [`seg_engine::SegmentPlan`] from `--classifier` and the global
//!   `--backend`/`--threads` flags.
//!
//! The `iqft-experiments` binary exposes one subcommand per experiment; every
//! experiment is also callable as a library function so the benchmark crate
//! and the integration tests reuse the exact same code paths.
//!
//! Every experiment executes on a [`SegmentEngine`], selected once at the CLI
//! with `--backend serial|threads --threads N`; datasets are generated
//! and evaluated in parallel image batches, and the per-pixel segmenters use
//! the same engine machinery, so the single knob controls parallelism across
//! the whole harness.  Outputs are byte-identical across backends.
//!
//! # Example
//!
//! ```
//! // Every experiment is callable as a library function; Table I is a pure
//! // function of the θ ↔ threshold correspondence.
//! let table = experiments::tables::table1_text();
//! assert!(table.contains("Table I"));
//! assert!(table.contains("3π/4"));
//! ```

pub(crate) mod evaluate;
pub mod figures;
pub mod service;
pub mod tables;
pub mod throughput;

pub use evaluate::{evaluate_method_with, DatasetSummary, ImageScore, Method, MethodSummary};
pub use seg_engine::SegmentEngine;
