//! Dense, row-major image container.

use crate::error::{ImagingError, Result};

/// A dense, row-major 2-D buffer of elements of type `P`.
///
/// `P` is typically one of the pixel types in `crate::pixel` or a plain
/// integer for label maps.  The buffer stores its pixels in a single `Vec` so
/// rows are contiguous and the whole image can be traversed (or split into
/// chunks for parallel processing) without pointer chasing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageBuffer<P> {
    width: usize,
    height: usize,
    data: Vec<P>,
}

impl<P: Copy> ImageBuffer<P> {
    /// `width * height` with overflow detection: pathological dimensions
    /// yield [`ImagingError::TooLarge`] instead of wrapping around.
    pub(crate) fn checked_area(width: usize, height: usize) -> Result<usize> {
        width
            .checked_mul(height)
            .ok_or(ImagingError::TooLarge { width, height })
    }

    /// Creates an image filled with `fill`.
    ///
    /// # Panics
    ///
    /// Panics if `width * height` overflows `usize`; use
    /// `ImageBuffer::try_new` to handle untrusted dimensions gracefully.
    pub fn new(width: usize, height: usize, fill: P) -> Self {
        Self::try_new(width, height, fill).expect("image dimensions overflow the pixel count")
    }

    /// Fallible variant of [`ImageBuffer::new`]: fails with
    /// [`ImagingError::TooLarge`] when `width * height` overflows `usize`.
    pub(crate) fn try_new(width: usize, height: usize, fill: P) -> Result<Self> {
        let area = Self::checked_area(width, height)?;
        Ok(Self {
            width,
            height,
            data: vec![fill; area],
        })
    }

    /// Creates an image by evaluating `f(x, y)` for every pixel.
    ///
    /// # Panics
    ///
    /// Panics if `width * height` overflows `usize`; use
    /// `ImageBuffer::try_from_fn` to handle untrusted dimensions gracefully.
    pub fn from_fn<F: FnMut(usize, usize) -> P>(width: usize, height: usize, f: F) -> Self {
        Self::try_from_fn(width, height, f).expect("image dimensions overflow the pixel count")
    }

    /// Fallible variant of [`ImageBuffer::from_fn`]: fails with
    /// [`ImagingError::TooLarge`] when `width * height` overflows `usize`.
    pub(crate) fn try_from_fn<F: FnMut(usize, usize) -> P>(
        width: usize,
        height: usize,
        mut f: F,
    ) -> Result<Self> {
        let area = Self::checked_area(width, height)?;
        let mut data = Vec::with_capacity(area);
        for y in 0..height {
            for x in 0..width {
                data.push(f(x, y));
            }
        }
        Ok(Self {
            width,
            height,
            data,
        })
    }

    /// Wraps an existing row-major buffer.
    ///
    /// Fails with [`ImagingError::TooLarge`] if `width * height` overflows
    /// `usize`, or [`ImagingError::DimensionMismatch`] if `data.len()` does
    /// not equal `width * height`.
    pub fn from_vec(width: usize, height: usize, data: Vec<P>) -> Result<Self> {
        let area = Self::checked_area(width, height)?;
        if data.len() != area {
            return Err(ImagingError::DimensionMismatch {
                expected: area,
                actual: data.len(),
            });
        }
        Ok(Self {
            width,
            height,
            data,
        })
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// `(width, height)` pair.
    pub fn dimensions(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Total number of pixels.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the image has zero pixels.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// True if `(x, y)` lies inside the image.
    pub(crate) fn in_bounds(&self, x: usize, y: usize) -> bool {
        x < self.width && y < self.height
    }

    /// Returns the pixel at `(x, y)`, panicking if out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> P {
        assert!(
            self.in_bounds(x, y),
            "pixel ({x}, {y}) out of bounds for {}x{} image",
            self.width,
            self.height
        );
        self.data[y * self.width + x]
    }

    /// Sets the pixel at `(x, y)`, panicking if out of bounds.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, value: P) {
        assert!(
            self.in_bounds(x, y),
            "pixel ({x}, {y}) out of bounds for {}x{} image",
            self.width,
            self.height
        );
        self.data[y * self.width + x] = value;
    }

    /// Sets the pixel at `(x, y)` if it is inside the image; silently ignores
    /// out-of-bounds coordinates (useful when rasterising shapes that may
    /// overhang the canvas).
    pub(crate) fn set_clipped(&mut self, x: usize, y: usize, value: P) {
        if self.in_bounds(x, y) {
            self.data[y * self.width + x] = value;
        }
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn as_slice(&self) -> &[P] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [P] {
        &mut self.data
    }

    /// Consumes the image and returns the underlying buffer.
    pub fn into_vec(self) -> Vec<P> {
        self.data
    }

    /// Iterator over pixels in row-major order.
    pub fn pixels(&self) -> impl Iterator<Item = &P> {
        self.data.iter()
    }

    /// Mutable iterator over pixels in row-major order.
    pub(crate) fn pixels_mut(&mut self) -> impl Iterator<Item = &mut P> {
        self.data.iter_mut()
    }

    /// Iterator yielding `(x, y, pixel)` in row-major order.
    pub fn enumerate_pixels(&self) -> impl Iterator<Item = (usize, usize, P)> + '_ {
        let width = self.width;
        self.data
            .iter()
            .enumerate()
            .map(move |(i, &p)| (i % width, i / width, p))
    }

    /// Applies `f` to every pixel, producing a new image of the same size.
    pub fn map<Q: Copy, F: FnMut(P) -> Q>(&self, mut f: F) -> ImageBuffer<Q> {
        ImageBuffer {
            width: self.width,
            height: self.height,
            data: self.data.iter().map(|&p| f(p)).collect(),
        }
    }

    /// Checks that `self` and `other` share dimensions.
    pub fn check_same_shape<Q: Copy>(&self, other: &ImageBuffer<Q>) -> Result<()> {
        if self.dimensions() == other.dimensions() {
            Ok(())
        } else {
            Err(ImagingError::ShapeMismatch {
                left: self.dimensions(),
                right: other.dimensions(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pixel::Rgb;

    #[test]
    fn new_fills_with_value() {
        let img = ImageBuffer::new(4, 3, 7u8);
        assert_eq!(img.dimensions(), (4, 3));
        assert_eq!(img.len(), 12);
        assert!(img.pixels().all(|&p| p == 7));
        assert!(!img.is_empty());
    }

    #[test]
    fn from_fn_addresses_pixels_row_major() {
        let img = ImageBuffer::from_fn(3, 2, |x, y| (10 * y + x) as u8);
        assert_eq!(img.as_slice(), &[0, 1, 2, 10, 11, 12]);
        assert_eq!(img.get(2, 1), 12);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(ImageBuffer::from_vec(2, 2, vec![1u8, 2, 3, 4]).is_ok());
        let err = ImageBuffer::from_vec(2, 2, vec![1u8, 2, 3]).unwrap_err();
        assert!(matches!(err, ImagingError::DimensionMismatch { .. }));
    }

    #[test]
    fn get_set_roundtrip() {
        let mut img = ImageBuffer::new(5, 5, Rgb::new(0u8, 0, 0));
        img.set(3, 4, Rgb::new(1, 2, 3));
        assert_eq!(img.get(3, 4), Rgb::new(1, 2, 3));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let img = ImageBuffer::new(2, 2, 0u8);
        let _ = img.get(2, 0);
    }

    #[test]
    fn set_clipped_ignores_out_of_bounds() {
        let mut img = ImageBuffer::new(2, 2, 0u8);
        img.set_clipped(10, 10, 5);
        img.set_clipped(1, 1, 5);
        assert_eq!(img.get(1, 1), 5);
    }

    #[test]
    fn enumerate_pixels_yields_coordinates() {
        let img = ImageBuffer::from_fn(2, 2, |x, y| (x + 2 * y) as u8);
        let collected: Vec<(usize, usize, u8)> = img.enumerate_pixels().collect();
        assert_eq!(collected, vec![(0, 0, 0), (1, 0, 1), (0, 1, 2), (1, 1, 3)]);
    }

    #[test]
    fn map_preserves_shape() {
        let img = ImageBuffer::from_fn(3, 3, |x, y| (x * y) as u8);
        let doubled = img.map(|p| p as u16 * 2);
        assert_eq!(doubled.dimensions(), (3, 3));
        assert_eq!(doubled.get(2, 2), 8);
    }

    #[test]
    fn shape_check() {
        let a = ImageBuffer::new(3, 2, 0u8);
        let b = ImageBuffer::new(3, 2, Rgb::new(0u8, 0, 0));
        let c = ImageBuffer::new(2, 3, 0u8);
        assert!(a.check_same_shape(&b).is_ok());
        assert!(matches!(
            a.check_same_shape(&c).unwrap_err(),
            ImagingError::ShapeMismatch { .. }
        ));
    }

    #[test]
    fn into_vec_returns_data() {
        let img = ImageBuffer::from_fn(2, 2, |x, y| (x + y) as u8);
        assert_eq!(img.into_vec(), vec![0, 1, 1, 2]);
    }

    #[test]
    fn pathological_dimensions_error_instead_of_wrapping() {
        // usize::MAX * 2 wraps to usize::MAX - 1 with unchecked arithmetic;
        // every constructor must reject it up front.
        assert!(matches!(
            ImageBuffer::try_new(usize::MAX, 2, 0u8).unwrap_err(),
            ImagingError::TooLarge { .. }
        ));
        assert!(matches!(
            ImageBuffer::try_from_fn(2, usize::MAX, |_, _| 0u8).unwrap_err(),
            ImagingError::TooLarge { .. }
        ));
        assert!(matches!(
            ImageBuffer::from_vec(usize::MAX, usize::MAX, vec![0u8]).unwrap_err(),
            ImagingError::TooLarge { .. }
        ));
        assert!(ImageBuffer::<u8>::checked_area(usize::MAX, 1).is_ok());
        assert!(ImageBuffer::<u8>::checked_area(usize::MAX, 0).is_ok());
    }

    #[test]
    fn fallible_constructors_match_their_panicking_twins() {
        let a = ImageBuffer::try_new(3, 2, 9u8).unwrap();
        assert_eq!(a, ImageBuffer::new(3, 2, 9u8));
        let b = ImageBuffer::try_from_fn(3, 2, |x, y| (x + y) as u8).unwrap();
        assert_eq!(b, ImageBuffer::from_fn(3, 2, |x, y| (x + y) as u8));
    }

    #[test]
    fn empty_image_is_empty() {
        let img = ImageBuffer::new(0, 0, 0u8);
        assert!(img.is_empty());
    }
}
