//! Shape rasterisation and procedural textures.
//!
//! These primitives are what the synthetic dataset generators use to build
//! PASCAL-VOC-like and xVIEW2-like scenes with pixel-exact ground truth: every
//! drawing routine has a matching "mask" form so the generator can paint the
//! image and the label map with the same geometry.

use crate::image::ImageBuffer;
use crate::pixel::Rgb;
use crate::RgbImage;

/// Axis-aligned rectangle given by its top-left corner and size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rect {
    /// Left edge (inclusive).
    pub x: usize,
    /// Top edge (inclusive).
    pub y: usize,
    /// Width in pixels.
    pub w: usize,
    /// Height in pixels.
    pub h: usize,
}

impl Rect {
    /// Creates a rectangle.
    pub fn new(x: usize, y: usize, w: usize, h: usize) -> Self {
        Self { x, y, w, h }
    }
}

/// Fills an axis-aligned rectangle with `value` (clipped to the image).
pub fn fill_rect<P: Copy>(img: &mut ImageBuffer<P>, rect: Rect, value: P) {
    let x_end = (rect.x + rect.w).min(img.width());
    let y_end = (rect.y + rect.h).min(img.height());
    for y in rect.y.min(img.height())..y_end {
        for x in rect.x.min(img.width())..x_end {
            img.set(x, y, value);
        }
    }
}

/// Fills a filled circle of radius `r` centred at `(cx, cy)` (clipped).
pub fn fill_circle<P: Copy>(img: &mut ImageBuffer<P>, cx: i64, cy: i64, r: i64, value: P) {
    if r < 0 {
        return;
    }
    let r2 = r * r;
    for y in (cy - r).max(0)..=(cy + r).min(img.height() as i64 - 1) {
        for x in (cx - r).max(0)..=(cx + r).min(img.width() as i64 - 1) {
            let dx = x - cx;
            let dy = y - cy;
            if dx * dx + dy * dy <= r2 {
                img.set(x as usize, y as usize, value);
            }
        }
    }
}

/// Fills a filled axis-aligned ellipse with semi-axes `(rx, ry)` (clipped).
pub fn fill_ellipse<P: Copy>(
    img: &mut ImageBuffer<P>,
    cx: i64,
    cy: i64,
    rx: i64,
    ry: i64,
    value: P,
) {
    if rx <= 0 || ry <= 0 {
        return;
    }
    let rx2 = (rx * rx) as f64;
    let ry2 = (ry * ry) as f64;
    for y in (cy - ry).max(0)..=(cy + ry).min(img.height() as i64 - 1) {
        for x in (cx - rx).max(0)..=(cx + rx).min(img.width() as i64 - 1) {
            let dx = (x - cx) as f64;
            let dy = (y - cy) as f64;
            if dx * dx / rx2 + dy * dy / ry2 <= 1.0 {
                img.set(x as usize, y as usize, value);
            }
        }
    }
}

/// Draws a straight line of the given thickness between two points (clipped).
pub fn draw_line<P: Copy>(
    img: &mut ImageBuffer<P>,
    (x0, y0): (i64, i64),
    (x1, y1): (i64, i64),
    thickness: i64,
    value: P,
) {
    let dx = x1 - x0;
    let dy = y1 - y0;
    let steps = dx.abs().max(dy.abs()).max(1);
    let half = (thickness.max(1) - 1) / 2;
    for s in 0..=steps {
        let t = s as f64 / steps as f64;
        let x = x0 as f64 + t * dx as f64;
        let y = y0 as f64 + t * dy as f64;
        for oy in -half..=half + (thickness.max(1) + 1) % 2 {
            for ox in -half..=half + (thickness.max(1) + 1) % 2 {
                let px = x.round() as i64 + ox;
                let py = y.round() as i64 + oy;
                if px >= 0 && py >= 0 {
                    img.set_clipped(px as usize, py as usize, value);
                }
            }
        }
    }
}

/// Fills the whole image with a vertical linear gradient between two colours.
pub fn vertical_gradient(img: &mut RgbImage, top: Rgb<u8>, bottom: Rgb<u8>) {
    let h = img.height().max(1);
    for y in 0..img.height() {
        let t = y as f64 / (h - 1).max(1) as f64;
        let color = lerp_rgb(top, bottom, t);
        for x in 0..img.width() {
            img.set(x, y, color);
        }
    }
}

/// Fills the whole image with a horizontal linear gradient between two colours.
pub fn horizontal_gradient(img: &mut RgbImage, left: Rgb<u8>, right: Rgb<u8>) {
    let w = img.width().max(1);
    for x in 0..img.width() {
        let t = x as f64 / (w - 1).max(1) as f64;
        let color = lerp_rgb(left, right, t);
        for y in 0..img.height() {
            img.set(x, y, color);
        }
    }
}

/// Fills the image with a checkerboard of `cell`-sized squares.
pub fn checkerboard(img: &mut RgbImage, cell: usize, a: Rgb<u8>, b: Rgb<u8>) {
    let cell = cell.max(1);
    for y in 0..img.height() {
        for x in 0..img.width() {
            let color = if ((x / cell) + (y / cell)).is_multiple_of(2) {
                a
            } else {
                b
            };
            img.set(x, y, color);
        }
    }
}

/// Linear interpolation between two 8-bit colours, `t` clamped to `[0, 1]`.
pub(crate) fn lerp_rgb(a: Rgb<u8>, b: Rgb<u8>, t: f64) -> Rgb<u8> {
    let t = t.clamp(0.0, 1.0);
    let mix = |x: u8, y: u8| -> u8 { (x as f64 + (y as f64 - x as f64) * t).round() as u8 };
    Rgb::new(mix(a.r(), b.r()), mix(a.g(), b.g()), mix(a.b(), b.b()))
}

/// Lightens or darkens a colour by multiplying each channel by `factor`.
pub fn scale_brightness(c: Rgb<u8>, factor: f64) -> Rgb<u8> {
    c.map(|ch| (ch as f64 * factor).round().clamp(0.0, 255.0) as u8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LabelMap;

    #[test]
    fn fill_rect_clips_to_image() {
        let mut img = LabelMap::new(8, 8, 0);
        fill_rect(&mut img, Rect::new(6, 6, 10, 10), 1);
        let count = img.pixels().filter(|&&p| p == 1).count();
        assert_eq!(count, 4); // only the 2x2 corner survives clipping
    }

    #[test]
    fn fill_circle_is_symmetric_and_clipped() {
        let mut img = LabelMap::new(21, 21, 0);
        fill_circle(&mut img, 10, 10, 5, 1);
        assert_eq!(img.get(10, 10), 1);
        assert_eq!(img.get(15, 10), 1);
        assert_eq!(img.get(16, 10), 0);
        // symmetric in the four directions
        assert_eq!(img.get(5, 10), 1);
        assert_eq!(img.get(10, 5), 1);
        assert_eq!(img.get(10, 15), 1);
        // clipped circle does not panic
        let mut img2 = LabelMap::new(4, 4, 0);
        fill_circle(&mut img2, 0, 0, 10, 1);
        assert!(img2.pixels().all(|&p| p == 1));
        fill_circle(&mut img2, 2, 2, -1, 9);
        assert!(img2.pixels().all(|&p| p == 1));
    }

    #[test]
    fn fill_ellipse_respects_axes() {
        let mut img = LabelMap::new(41, 41, 0);
        fill_ellipse(&mut img, 20, 20, 15, 5, 1);
        assert_eq!(img.get(20, 20), 1);
        assert_eq!(img.get(34, 20), 1); // along x within rx
        assert_eq!(img.get(20, 24), 1); // along y within ry
        assert_eq!(img.get(20, 27), 0); // beyond ry
        fill_ellipse(&mut img, 20, 20, 0, 5, 7);
        assert_ne!(img.get(20, 20), 7); // degenerate axes are a no-op
    }

    #[test]
    fn draw_line_connects_endpoints() {
        let mut img = LabelMap::new(16, 16, 0);
        draw_line(&mut img, (0, 0), (15, 15), 1, 1);
        assert_eq!(img.get(0, 0), 1);
        assert_eq!(img.get(15, 15), 1);
        assert_eq!(img.get(7, 7), 1);
        // thicker line covers more pixels
        let mut thick = LabelMap::new(16, 16, 0);
        draw_line(&mut thick, (0, 8), (15, 8), 3, 1);
        let thin_count = img.pixels().filter(|&&p| p == 1).count();
        let thick_count = thick.pixels().filter(|&&p| p == 1).count();
        assert!(thick_count > thin_count);
    }

    #[test]
    fn gradients_interpolate_colors() {
        let mut img = RgbImage::new(3, 5, Rgb::BLACK);
        vertical_gradient(&mut img, Rgb::BLACK, Rgb::WHITE);
        assert_eq!(img.get(0, 0), Rgb::BLACK);
        assert_eq!(img.get(0, 4), Rgb::WHITE);
        assert_eq!(img.get(1, 2), Rgb::new(128, 128, 128));
        let mut img2 = RgbImage::new(5, 2, Rgb::BLACK);
        horizontal_gradient(&mut img2, Rgb::new(255, 0, 0), Rgb::new(0, 0, 255));
        assert_eq!(img2.get(0, 0), Rgb::new(255, 0, 0));
        assert_eq!(img2.get(4, 1), Rgb::new(0, 0, 255));
    }

    #[test]
    fn checkerboard_alternates() {
        let mut img = RgbImage::new(4, 4, Rgb::BLACK);
        checkerboard(&mut img, 2, Rgb::WHITE, Rgb::BLACK);
        assert_eq!(img.get(0, 0), Rgb::WHITE);
        assert_eq!(img.get(2, 0), Rgb::BLACK);
        assert_eq!(img.get(0, 2), Rgb::BLACK);
        assert_eq!(img.get(2, 2), Rgb::WHITE);
    }

    #[test]
    fn lerp_and_brightness() {
        assert_eq!(lerp_rgb(Rgb::BLACK, Rgb::WHITE, 0.0), Rgb::BLACK);
        assert_eq!(lerp_rgb(Rgb::BLACK, Rgb::WHITE, 1.0), Rgb::WHITE);
        assert_eq!(lerp_rgb(Rgb::BLACK, Rgb::WHITE, 2.0), Rgb::WHITE);
        assert_eq!(
            scale_brightness(Rgb::new(100, 200, 10), 0.5),
            Rgb::new(50, 100, 5)
        );
        assert_eq!(
            scale_brightness(Rgb::new(200, 200, 200), 2.0),
            Rgb::new(255, 255, 255)
        );
    }
}
