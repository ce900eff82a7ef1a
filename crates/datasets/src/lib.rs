//! `datasets` — synthetic dataset generators standing in for the paper's two
//! evaluation datasets, plus an on-disk loader for real imagery.
//!
//! The paper evaluates on PASCAL VOC 2012 (2913 natural images with
//! foreground/background masks and void borders) and on the 148 pre-disaster
//! satellite tiles of the xVIEW2 "joplin-tornado" split.  Neither dataset can
//! be redistributed inside this repository, so this crate provides *seeded
//! synthetic generators* that reproduce the statistical properties those
//! experiments actually exercise:
//!
//! * `pascal` — "natural scene" images: 1–3 coloured objects of varied
//!   shape and brightness on textured / gradient backgrounds, Gaussian
//!   noise, and a void border around every object (the VOC annotation
//!   convention).  Difficulty is spread from well-separated to
//!   overlapping-intensity scenes so method crossovers can appear.
//! * `xview` — "satellite tile" images: ground texture, roads, vegetation
//!   patches and rectangular buildings with bright roofs as the foreground
//!   class; foreground occupies a small fraction of the frame, mirroring the
//!   class imbalance of the real tiles.
//! * `balls` — the multi-band "coloured balls" scene of the paper's Fig. 4,
//!   used to demonstrate single-parameter multiple thresholding.
//! * `video` — deterministic streaming-video frames with a controllable
//!   per-frame change rate, for the per-tile delta-cache workload.
//! * [`loader`] — loads a directory of PPM images + PGM masks for users who
//!   have the real datasets on disk.
//!
//! Every generator takes an explicit seed and is deterministic, so the
//! experiment harness and the benchmarks always see the same data.
//!
//! # Example
//!
//! ```
//! use datasets::{PascalVocLikeConfig, PascalVocLikeDataset};
//!
//! let config = PascalVocLikeConfig {
//!     len: 2,
//!     width: 32,
//!     height: 24,
//!     seed: 7,
//!     ..PascalVocLikeConfig::default()
//! };
//! let samples: Vec<_> = PascalVocLikeDataset::new(config.clone()).iter().collect();
//! assert_eq!(samples.len(), 2);
//! assert_eq!(samples[0].image.dimensions(), (32, 24));
//! // Deterministic: the same seed regenerates identical imagery.
//! let again = PascalVocLikeDataset::new(config).iter().next().unwrap();
//! assert_eq!(again.image, samples[0].image);
//! ```

pub(crate) mod balls;
pub mod loader;
pub(crate) mod pascal;
pub(crate) mod sample;
pub(crate) mod video;
pub(crate) mod xview;

pub use balls::balls_scene;
pub use pascal::PascalVocLikeConfig;
pub use pascal::PascalVocLikeDataset;
pub use sample::LabeledImage;
pub use video::synthetic_video;
pub use video::VideoConfig;
pub use xview::XViewLikeConfig;
pub use xview::XViewLikeDataset;
