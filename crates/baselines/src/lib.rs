//! `baselines` — the unsupervised segmentation baselines the paper compares
//! against: K-means clustering (scikit-learn in the paper) and Otsu
//! thresholding (scikit-image in the paper), both implemented from scratch.
//!
//! Both implement [`imaging::Segmenter`], so they slot into the same
//! evaluation harness as the IQFT-inspired methods.
//!
//! # Example
//!
//! ```
//! use baselines::OtsuSegmenter;
//! use imaging::{GrayImage, Luma, Segmenter};
//!
//! // Two intensity populations; Otsu finds the separating threshold.
//! let img = GrayImage::from_fn(8, 4, |x, _| Luma(if x < 4 { 40 } else { 210 }));
//! let labels = OtsuSegmenter::new().segment_gray(&img);
//! assert_ne!(labels.get(0, 0), labels.get(7, 0));
//! ```

pub(crate) mod kmeans;
pub(crate) mod otsu;

pub use kmeans::KMeansSegmenter;
pub use otsu::{multi_otsu_thresholds, otsu_threshold, OtsuSegmenter};
