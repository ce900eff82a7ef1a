//! Zero-copy sub-image views and tile decomposition.
//!
//! Large frames (the `datasets::xview` satellite imagery being the motivating
//! case) should not have to be copied just to hand rectangular pieces of them
//! to parallel workers.  This module provides borrowed views over an
//! [`ImageBuffer`]'s row-major storage:
//!
//! * [`ImageView`] — an immutable `offset + stride` window over a parent
//!   buffer.  Rows of a view are contiguous slices of the parent, so a view
//!   can be traversed (or further sub-divided) without copying a pixel.
//! * [`LabelViewMut`] — the mutable counterpart for `u32` label storage:
//!   a window into a label buffer that a classifier fills row by row.
//! * [`TileRect`] / [`ImageView::tile_rects`] — a deterministic row-major tile
//!   decomposition (`tile_w × tile_h` interior tiles, clamped edge tiles on
//!   the right/bottom borders), the unit of work the `seg-engine` crate's
//!   `segment_tiled` fans out across its backend.
//!
//! Because every pixel's label depends only on that pixel, classifying the
//! tiles of a view in any order — or on any number of threads — produces
//! byte-identical output to a whole-image pass; the tile decomposition only
//! changes the work granularity.
//!
//! # Example
//!
//! ```
//! use imaging::{ImageBuffer, TileRect};
//!
//! let img = ImageBuffer::from_fn(10, 7, |x, y| (10 * y + x) as u8);
//! let view = img.view(TileRect::new(2, 1, 5, 4)).unwrap();
//! assert_eq!(view.dimensions(), (5, 4));
//! assert_eq!(view.get(0, 0), 12); // parent pixel (2, 1)
//! // 3x3 tiling of the 5x4 view: 2x2 tiles with clamped right/bottom edges.
//! let tiles: Vec<TileRect> = view.tile_rects(3, 3).collect();
//! assert_eq!(tiles.len(), 4);
//! assert_eq!(tiles[3], TileRect::new(3, 3, 2, 1));
//! ```

use crate::error::{ImagingError, Result};
use crate::image::ImageBuffer;

/// A rectangle inside an image or view, in pixel coordinates.
///
/// Coordinates are relative to whatever container produced the rectangle:
/// [`ImageView::tile_rects`] yields rectangles in *view* coordinates, which
/// coincide with parent coordinates when the view covers the whole image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileRect {
    /// Left edge (inclusive).
    pub x: usize,
    /// Top edge (inclusive).
    pub y: usize,
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
}

impl TileRect {
    /// Creates a rectangle from its corner and size.
    pub fn new(x: usize, y: usize, width: usize, height: usize) -> Self {
        Self {
            x,
            y,
            width,
            height,
        }
    }

    /// A rectangle covering a whole `width × height` image.
    pub fn full(width: usize, height: usize) -> Self {
        Self::new(0, 0, width, height)
    }

    /// Number of pixels inside the rectangle.
    pub fn area(&self) -> usize {
        self.width * self.height
    }

    /// True if the rectangle contains no pixels.
    pub(crate) fn is_empty(&self) -> bool {
        self.area() == 0
    }

    /// True if `self` lies entirely inside a `width × height` container.
    ///
    /// Uses checked arithmetic so degenerate rectangles near `usize::MAX`
    /// cannot wrap around into "valid" ones.
    pub(crate) fn fits_in(&self, width: usize, height: usize) -> bool {
        let right = self.x.checked_add(self.width);
        let bottom = self.y.checked_add(self.height);
        matches!((right, bottom), (Some(r), Some(b)) if r <= width && b <= height)
    }

    fn out_of(&self, parent: (usize, usize)) -> ImagingError {
        ImagingError::InvalidView {
            rect: (self.x, self.y, self.width, self.height),
            parent,
        }
    }
}

/// Row-major iterator over the tile decomposition of a `width × height`
/// area: interior tiles are `tile_w × tile_h`, edge tiles on the right and
/// bottom borders are clamped to the remaining pixels.
///
/// Created by [`ImageView::tile_rects`] / [`ImageBuffer::tile_rects`].  The
/// iteration order (left-to-right, then top-to-bottom) is deterministic, so
/// tile indices are stable across runs and backends.
#[derive(Debug, Clone)]
pub struct TileRects {
    width: usize,
    height: usize,
    tile_w: usize,
    tile_h: usize,
    x: usize,
    y: usize,
}

impl TileRects {
    /// The tile decomposition of a free-standing `width × height` area (not
    /// tied to any buffer) — what the tiled engine paths iterate over.
    pub fn over(width: usize, height: usize, tile_w: usize, tile_h: usize) -> Self {
        Self::new(width, height, tile_w, tile_h)
    }

    fn new(width: usize, height: usize, tile_w: usize, tile_h: usize) -> Self {
        Self {
            width,
            height,
            // A zero-sized tile would never cover anything; clamp to 1 so the
            // decomposition always terminates.
            tile_w: tile_w.max(1),
            tile_h: tile_h.max(1),
            x: 0,
            y: 0,
        }
    }
}

impl Iterator for TileRects {
    type Item = TileRect;

    fn next(&mut self) -> Option<TileRect> {
        if self.y >= self.height || self.width == 0 {
            return None;
        }
        let rect = TileRect::new(
            self.x,
            self.y,
            self.tile_w.min(self.width - self.x),
            self.tile_h.min(self.height - self.y),
        );
        self.x += self.tile_w;
        if self.x >= self.width {
            self.x = 0;
            self.y += self.tile_h;
        }
        Some(rect)
    }
}

/// An immutable, zero-copy rectangular window over an [`ImageBuffer`].
///
/// The view borrows the parent's row-major storage and addresses it through
/// an `offset + stride` scheme: row `y` of the view is the contiguous parent
/// slice starting at `(y0 + y) * stride + x0`.  Sub-views and tiles borrow
/// the *same* storage, so decomposing an image for parallel work never
/// copies pixels.
#[derive(Debug, Clone, Copy)]
pub struct ImageView<'a, P> {
    data: &'a [P],
    stride: usize,
    x0: usize,
    y0: usize,
    width: usize,
    height: usize,
}

impl<'a, P: Copy> ImageView<'a, P> {
    /// Wraps `rect` of a row-major buffer whose rows are `stride` elements
    /// long.  Fails with [`ImagingError::InvalidView`] if the rectangle does
    /// not lie inside the buffer.
    pub(crate) fn new(data: &'a [P], stride: usize, rect: TileRect) -> Result<Self> {
        let rows = data.len().checked_div(stride).unwrap_or(0);
        if !rect.fits_in(stride, rows) && !rect.is_empty() {
            return Err(rect.out_of((stride, rows)));
        }
        Ok(Self {
            data,
            stride,
            x0: rect.x,
            y0: rect.y,
            width: rect.width,
            height: rect.height,
        })
    }

    /// View height in pixels.
    pub(crate) fn height(&self) -> usize {
        self.height
    }

    /// `(width, height)` pair.
    pub fn dimensions(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// The pixel at view coordinates `(x, y)`, panicking if out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> P {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x}, {y}) out of bounds for {}x{} view",
            self.width,
            self.height
        );
        self.data[(self.y0 + y) * self.stride + self.x0 + x]
    }

    /// Row `y` of the view as a contiguous slice of the parent buffer.
    pub(crate) fn row(&self, y: usize) -> &'a [P] {
        assert!(y < self.height, "row {y} out of bounds");
        if self.width == 0 {
            return &self.data[..0];
        }
        let start = (self.y0 + y) * self.stride + self.x0;
        &self.data[start..start + self.width]
    }

    /// Iterator over the view's rows (contiguous parent slices).
    pub fn rows(&self) -> impl Iterator<Item = &'a [P]> + '_ {
        (0..self.height).map(|y| self.row(y))
    }

    /// A sub-view of `rect` (in *view* coordinates), borrowing the same
    /// parent storage.  Fails with [`ImagingError::InvalidView`] if the
    /// rectangle pokes outside this view.
    pub fn subview(&self, rect: TileRect) -> Result<ImageView<'a, P>> {
        if !rect.fits_in(self.width, self.height) && !rect.is_empty() {
            return Err(rect.out_of(self.dimensions()));
        }
        Ok(ImageView {
            data: self.data,
            stride: self.stride,
            x0: self.x0 + rect.x,
            y0: self.y0 + rect.y,
            width: rect.width,
            height: rect.height,
        })
    }

    /// The tile decomposition of this view as rectangles in view
    /// coordinates (see [`TileRects`] for order and edge clamping).
    pub fn tile_rects(&self, tile_w: usize, tile_h: usize) -> TileRects {
        TileRects::new(self.width, self.height, tile_w, tile_h)
    }
}

impl<P: Copy> ImageBuffer<P> {
    /// A zero-copy view covering the whole image.
    pub fn as_view(&self) -> ImageView<'_, P> {
        ImageView::new(
            self.as_slice(),
            self.width(),
            TileRect::full(self.width(), self.height()),
        )
        .expect("full-image view is always valid")
    }

    /// A zero-copy view of `rect`.  Fails with [`ImagingError::InvalidView`]
    /// if the rectangle does not lie inside the image.
    pub fn view(&self, rect: TileRect) -> Result<ImageView<'_, P>> {
        self.as_view().subview(rect)
    }

    /// The tile decomposition of the whole image (see [`TileRects`]).
    pub fn tile_rects(&self, tile_w: usize, tile_h: usize) -> TileRects {
        TileRects::new(self.width(), self.height(), tile_w, tile_h)
    }
}

/// A mutable, zero-copy rectangular window over `u32` label storage.
///
/// This is the write-side counterpart of [`ImageView`]: a classifier fills a
/// tile's labels through one of these, either into a tile-local scratch
/// buffer ([`LabelViewMut::contiguous`]) or directly into a window of a
/// whole-image label buffer ([`LabelViewMut::new`] /
/// [`crate::LabelMap::view_mut`]).
#[derive(Debug)]
pub struct LabelViewMut<'a> {
    data: &'a mut [u32],
    stride: usize,
    x0: usize,
    y0: usize,
    width: usize,
    height: usize,
}

impl<'a> LabelViewMut<'a> {
    /// Wraps `rect` of a row-major label buffer whose rows are `stride`
    /// elements long.  Fails with [`ImagingError::InvalidView`] if the
    /// rectangle does not lie inside the buffer.
    pub fn new(data: &'a mut [u32], stride: usize, rect: TileRect) -> Result<Self> {
        let rows = data.len().checked_div(stride).unwrap_or(0);
        if !rect.fits_in(stride, rows) && !rect.is_empty() {
            return Err(rect.out_of((stride, rows)));
        }
        Ok(Self {
            data,
            stride,
            x0: rect.x,
            y0: rect.y,
            width: rect.width,
            height: rect.height,
        })
    }

    /// Wraps a dense `width × height` buffer as a full-coverage view
    /// (`stride == width`, origin at zero) — the shape of a tile-local
    /// scratch buffer.  Fails with [`ImagingError::DimensionMismatch`] if
    /// the buffer length is not `width * height`.
    pub fn contiguous(data: &'a mut [u32], width: usize, height: usize) -> Result<Self> {
        let area = ImageBuffer::<u32>::checked_area(width, height)?;
        if data.len() != area {
            return Err(ImagingError::DimensionMismatch {
                expected: area,
                actual: data.len(),
            });
        }
        Self::new(data, width.max(1), TileRect::full(width, height))
    }

    /// `(width, height)` pair.
    pub fn dimensions(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Number of labels in the view.
    pub(crate) fn len(&self) -> usize {
        self.width * self.height
    }

    /// Row `y` of the view as a contiguous mutable slice.
    pub fn row_mut(&mut self, y: usize) -> &mut [u32] {
        assert!(y < self.height, "row {y} out of bounds");
        if self.width == 0 {
            return &mut self.data[..0];
        }
        let start = (self.y0 + y) * self.stride + self.x0;
        &mut self.data[start..start + self.width]
    }

    /// Copies a dense row-major `width × height` tile of labels into the
    /// view — the stitch step that folds tile-local scratch buffers back
    /// into a whole-image label buffer.
    ///
    /// # Panics
    ///
    /// Panics if `tile.len() != self.len()`.
    pub fn copy_from_tile(&mut self, tile: &[u32]) {
        assert_eq!(
            tile.len(),
            self.len(),
            "tile label count does not match the {}x{} view",
            self.width,
            self.height
        );
        for y in 0..self.height {
            let src = &tile[y * self.width..(y + 1) * self.width];
            self.row_mut(y).copy_from_slice(src);
        }
    }
}

impl ImageBuffer<u32> {
    /// A mutable zero-copy label view of `rect`.  Fails with
    /// [`ImagingError::InvalidView`] if the rectangle does not lie inside
    /// the map.
    pub fn view_mut(&mut self, rect: TileRect) -> Result<LabelViewMut<'_>> {
        let stride = self.width();
        LabelViewMut::new(self.as_mut_slice(), stride, rect)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parent() -> ImageBuffer<u8> {
        ImageBuffer::from_fn(10, 7, |x, y| (10 * y + x) as u8)
    }

    #[test]
    fn full_view_matches_the_buffer() {
        let img = parent();
        let view = img.as_view();
        assert_eq!(view.dimensions(), img.dimensions());
        assert_eq!((view.x0, view.y0), (0, 0));
        assert_eq!(view.stride, 10);
        for (x, y, p) in img.enumerate_pixels() {
            assert_eq!(view.get(x, y), p);
        }
        let collected: Vec<u8> = view.rows().flatten().copied().collect();
        assert_eq!(collected, img.as_slice());
    }

    #[test]
    fn offset_view_addresses_parent_pixels() {
        let img = parent();
        let view = img.view(TileRect::new(2, 1, 5, 4)).unwrap();
        assert_eq!(view.get(0, 0), 12);
        assert_eq!(view.get(4, 3), 46);
        assert_eq!(view.row(2), &[32, 33, 34, 35, 36]);
        assert_eq!(view.rows().count(), 4);
        assert_eq!(view.rows().flatten().copied().collect::<Vec<u8>>(), {
            let mut expected = Vec::new();
            for y in 1..5 {
                for x in 2..7 {
                    expected.push((10 * y + x) as u8);
                }
            }
            expected
        });
    }

    #[test]
    fn out_of_bounds_views_are_rejected() {
        let img = parent();
        assert!(matches!(
            img.view(TileRect::new(6, 0, 5, 2)).unwrap_err(),
            ImagingError::InvalidView { .. }
        ));
        assert!(matches!(
            img.view(TileRect::new(0, 5, 1, 3)).unwrap_err(),
            ImagingError::InvalidView { .. }
        ));
        // Degenerate rectangles near usize::MAX must not wrap into validity.
        assert!(img.view(TileRect::new(usize::MAX, 0, 2, 1)).is_err());
        // Empty rectangles anywhere are fine — they have no pixels to read.
        let empty = img.view(TileRect::new(9, 9, 0, 0)).unwrap();
        assert_eq!(empty.dimensions(), (0, 0));
        assert_eq!(empty.rows().flatten().count(), 0);
    }

    #[test]
    fn subview_composes_offsets() {
        let img = parent();
        let outer = img.view(TileRect::new(2, 1, 6, 5)).unwrap();
        let inner = outer.subview(TileRect::new(1, 2, 3, 2)).unwrap();
        assert_eq!((inner.x0, inner.y0), (3, 3));
        assert_eq!(inner.get(0, 0), img.get(3, 3));
        assert!(outer.subview(TileRect::new(4, 0, 3, 1)).is_err());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn view_get_out_of_bounds_panics() {
        let img = parent();
        let view = img.view(TileRect::new(0, 0, 2, 2)).unwrap();
        let _ = view.get(2, 0);
    }

    #[test]
    fn tile_rects_cover_every_pixel_exactly_once() {
        for (w, h, tw, th) in [
            (10usize, 7usize, 3usize, 3usize),
            (10, 7, 1, 1),
            (10, 7, 64, 64),
            (10, 7, 10, 7),
            (5, 5, 2, 5),
            (1, 9, 4, 2),
        ] {
            let mut seen = vec![0u32; w * h];
            for rect in TileRects::new(w, h, tw, th) {
                assert!(rect.fits_in(w, h), "{rect:?} in {w}x{h}");
                assert!(!rect.is_empty());
                for y in rect.y..rect.y + rect.height {
                    for x in rect.x..rect.x + rect.width {
                        seen[y * w + x] += 1;
                    }
                }
            }
            assert!(
                seen.iter().all(|&c| c == 1),
                "{w}x{h} tiled {tw}x{th} is not a partition"
            );
        }
    }

    #[test]
    fn tile_rects_are_row_major_and_edge_clamped() {
        let rects: Vec<TileRect> = TileRects::new(10, 7, 4, 3).collect();
        assert_eq!(rects.len(), 9);
        assert_eq!(rects[0], TileRect::new(0, 0, 4, 3));
        assert_eq!(rects[2], TileRect::new(8, 0, 2, 3)); // clamped right edge
        assert_eq!(rects[8], TileRect::new(8, 6, 2, 1)); // clamped corner
                                                         // Zero tile sizes are clamped to 1 instead of looping forever.
        assert_eq!(TileRects::new(3, 2, 0, 0).count(), 6);
        // Empty areas decompose into no tiles.
        assert_eq!(TileRects::new(0, 5, 2, 2).count(), 0);
        assert_eq!(TileRects::new(5, 0, 2, 2).count(), 0);
    }

    #[test]
    fn label_view_mut_writes_through_to_the_parent() {
        let mut labels = ImageBuffer::new(6, 4, 0u32);
        {
            let mut view = labels.view_mut(TileRect::new(2, 1, 3, 2)).unwrap();
            assert_eq!(view.dimensions(), (3, 2));
            assert_eq!((view.x0, view.y0), (2, 1));
            assert_eq!(view.len(), 6);
            view.row_mut(0)[0] = 7;
            view.row_mut(1).copy_from_slice(&[1, 2, 3]);
        }
        assert_eq!(labels.get(2, 1), 7);
        assert_eq!(labels.get(2, 2), 1);
        assert_eq!(labels.get(4, 2), 3);
        assert_eq!(labels.get(0, 0), 0, "pixels outside the view are untouched");
    }

    #[test]
    fn copy_from_tile_stitches_a_dense_buffer() {
        let mut labels = ImageBuffer::new(5, 4, 9u32);
        labels
            .view_mut(TileRect::new(1, 1, 3, 2))
            .unwrap()
            .copy_from_tile(&[1, 2, 3, 4, 5, 6]);
        assert_eq!(labels.get(1, 1), 1);
        assert_eq!(labels.get(3, 2), 6);
        assert_eq!(labels.get(0, 0), 9);
        {
            let mut view = labels.view_mut(TileRect::new(0, 0, 2, 2)).unwrap();
            for y in 0..2 {
                view.row_mut(y).fill(8);
            }
        }
        assert_eq!(labels.get(0, 0), 8);
        assert_eq!(labels.get(1, 1), 8);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn copy_from_tile_rejects_wrong_sizes() {
        let mut labels = ImageBuffer::new(4, 4, 0u32);
        labels
            .view_mut(TileRect::new(0, 0, 2, 2))
            .unwrap()
            .copy_from_tile(&[1, 2, 3]);
    }

    #[test]
    fn contiguous_label_views_validate_their_length() {
        let mut buf = vec![0u32; 6];
        {
            let mut view = LabelViewMut::contiguous(&mut buf, 3, 2).unwrap();
            view.row_mut(1)[2] = 5;
        }
        assert_eq!(buf[5], 5);
        assert!(matches!(
            LabelViewMut::contiguous(&mut buf, 4, 2).unwrap_err(),
            ImagingError::DimensionMismatch { .. }
        ));
        let mut empty: Vec<u32> = Vec::new();
        let view = LabelViewMut::contiguous(&mut empty, 0, 3).unwrap();
        assert_eq!(view.len(), 0);
    }

    #[test]
    fn label_view_rejects_out_of_bounds_rects() {
        let mut labels = ImageBuffer::new(4, 3, 0u32);
        assert!(labels.view_mut(TileRect::new(3, 0, 2, 1)).is_err());
        assert!(labels.view_mut(TileRect::new(0, 2, 1, 2)).is_err());
        assert!(labels.view_mut(TileRect::new(4, 3, 0, 0)).is_ok());
    }

    #[test]
    fn tile_rect_accessors() {
        let rect = TileRect::new(1, 2, 3, 4);
        assert_eq!(rect.area(), 12);
        assert!(!rect.is_empty());
        assert!(rect.fits_in(4, 6));
        assert!(!rect.fits_in(4, 5));
        assert_eq!(TileRect::full(7, 5), TileRect::new(0, 0, 7, 5));
        assert!(TileRect::new(0, 0, 0, 9).is_empty());
    }
}
