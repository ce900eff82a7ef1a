#![warn(missing_docs)]
//! `imaging` — the imaging substrate for the IQFT-segmentation reproduction.
//!
//! The reproduced paper leans on scikit-image for all of its image handling:
//! loading, RGB→grayscale conversion (its eq. 17), histograms and Otsu's
//! threshold, and on matplotlib for rendering figures.  This crate provides
//! the equivalent functionality natively in Rust so the rest of the workspace
//! has no Python or C dependencies:
//!
//! * [`ImageBuffer`] — a dense, row-major image container generic over the
//!   element type, with typed aliases for the formats the workspace uses
//!   ([`RgbImage`], [`GrayImage`], [`LabelMap`]).
//! * [`Rgb`] and [`Luma`] — pixel types with channel arithmetic.
//! * [`color`] — colour conversions, including the paper's eq. 17 luma weights.
//! * [`io`] — PPM (P3/P6) and PGM (P2/P5) codecs for reading and writing
//!   images and masks.
//! * [`hist`] — intensity histograms (the substrate for Otsu thresholding).
//! * [`draw`] — shape rasterisation and procedural textures used by the
//!   synthetic dataset generators.
//! * [`filter`] — Gaussian blur and noise injection.
//! * [`labels`] — label-map utilities: census, binarisation, connected
//!   components and palette rendering.
//! * [`view`] — zero-copy sub-image views ([`ImageView`], [`LabelViewMut`])
//!   and the deterministic tile decomposition ([`TileRect`]) that lets the
//!   per-tile delta cache hash and re-classify tiles without copying pixels.
//!
//! # Example
//!
//! ```
//! use imaging::{Rgb, RgbImage};
//!
//! // Build an image procedurally and convert it with the paper's eq. 17
//! // luma weights.
//! let img = RgbImage::from_fn(4, 2, |x, _| Rgb::new((x * 80) as u8, 0, 0));
//! assert_eq!(img.dimensions(), (4, 2));
//! let gray = imaging::color::rgb_to_gray_u8(&img);
//! assert!(gray.get(3, 0).value() > gray.get(0, 0).value());
//! ```

pub mod color;
pub mod draw;
pub(crate) mod error;
pub mod filter;
pub mod hist;
pub(crate) mod image;
pub mod io;
pub mod labels;
pub(crate) mod pixel;
pub(crate) mod segment;
pub mod view;

pub use crate::image::ImageBuffer;
pub use error::{ImagingError, Result};
pub use pixel::{labels_as_bytes, labels_as_bytes_mut, Luma, Rgb};
pub use segment::{PixelClassifier, Segmenter};
pub use view::{ImageView, LabelViewMut, TileRect};

/// 8-bit RGB image.
pub type RgbImage = ImageBuffer<Rgb<u8>>;
/// 8-bit grayscale image.
pub type GrayImage = ImageBuffer<Luma<u8>>;
/// Dense per-pixel label map (segment ids).
pub type LabelMap = ImageBuffer<u32>;

/// Label value used for "void" pixels in ground-truth masks (ignored in mIOU,
/// mirroring the PASCAL VOC convention of marking object borders as void).
pub const VOID_LABEL: u32 = u32::MAX;
