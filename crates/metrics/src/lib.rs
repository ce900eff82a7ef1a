//! `metrics` — segmentation evaluation metrics.
//!
//! The paper scores every method with the foreground/background mean
//! intersection-over-union (its eqs. 18–19), computed with TensorFlow's
//! `MeanIoU` and with PASCAL VOC "void" border pixels excluded.  This crate
//! reimplements that metric natively so the evaluation pipeline is fully
//! self-contained.
//!
//! # Example
//!
//! ```
//! use imaging::LabelMap;
//! use metrics::{mean_iou, miou_fg_bg};
//!
//! let prediction = LabelMap::from_vec(4, 1, vec![1, 1, 0, 0]).unwrap();
//! let truth = LabelMap::from_vec(4, 1, vec![1, 0, 0, 0]).unwrap();
//! let breakdown = miou_fg_bg(&prediction, &truth);
//! assert!((breakdown.foreground - 0.5).abs() < 1e-12); // TP=1, FP=1, FN=0
//! assert_eq!(mean_iou(&prediction, &truth), breakdown.miou);
//! ```

pub(crate) mod confusion;
pub(crate) mod iou;

pub use iou::{mean_iou, miou_fg_bg, MiouBreakdown};
