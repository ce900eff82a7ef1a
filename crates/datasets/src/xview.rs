//! xVIEW2-like synthetic satellite tiles.
//!
//! The paper's second evaluation set is the 148 pre-disaster RGB satellite
//! tiles of the xVIEW2 "joplin-tornado" split, where the (implicit)
//! foreground class is building footprints.  The generator reproduces the
//! properties that drive the relative ranking of the methods there:
//!
//! * small foreground fraction (buildings cover a minority of each tile),
//! * bright, compact roofs against darker, textured terrain,
//! * elongated road structures and irregular vegetation patches that tempt
//!   intensity-based methods into false positives,
//! * sensor noise.

use crate::sample::LabeledImage;
use imaging::draw::{self, Rect};
use imaging::filter;
use imaging::{LabelMap, Rgb, RgbImage};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Configuration of the xVIEW2-like generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct XViewLikeConfig {
    /// Number of tiles (the real split has 148).
    pub len: usize,
    /// Tile width.
    pub width: usize,
    /// Tile height.
    pub height: usize,
    /// Base RNG seed; tile `i` uses `seed + i`.
    pub seed: u64,
    /// Standard deviation of the additive Gaussian noise (0–255 units).
    pub noise_sigma: f64,
}

impl Default for XViewLikeConfig {
    fn default() -> Self {
        Self {
            len: 148,
            width: 160,
            height: 160,
            seed: 1480,
            noise_sigma: 5.0,
        }
    }
}

/// The xVIEW2-like synthetic dataset.
#[derive(Debug, Clone)]
pub struct XViewLikeDataset {
    config: XViewLikeConfig,
}

impl XViewLikeDataset {
    /// Creates a dataset with the given configuration.
    pub fn new(config: XViewLikeConfig) -> Self {
        Self { config }
    }

    /// Dataset length.
    pub fn len(&self) -> usize {
        self.config.len
    }

    /// True if the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.config.len == 0
    }

    /// Generates tile `index` (deterministic in `seed + index`).
    pub fn sample(&self, index: usize) -> LabeledImage {
        assert!(index < self.config.len, "sample index out of range");
        generate_tile(&self.config, index)
    }

    /// Iterator over all tiles.
    pub fn iter(&self) -> impl Iterator<Item = LabeledImage> + '_ {
        (0..self.len()).map(move |i| self.sample(i))
    }
}

fn generate_tile(config: &XViewLikeConfig, index: usize) -> LabeledImage {
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed.wrapping_add(index as u64));
    let (w, h) = (config.width, config.height);

    // --- Terrain ------------------------------------------------------------
    // Earthy base colour with low-frequency variation (simple value noise via
    // bilinear interpolation of a coarse random grid).
    let base_r = rng.gen_range(70..110) as f64;
    let base_g = rng.gen_range(80..120) as f64;
    let base_b = rng.gen_range(55..90) as f64;
    let coarse = 8usize;
    let gw = w / coarse + 2;
    let gh = h / coarse + 2;
    let grid: Vec<f64> = (0..gw * gh).map(|_| rng.gen_range(-18.0..18.0)).collect();
    let mut image = RgbImage::from_fn(w, h, |x, y| {
        let gx = x as f64 / coarse as f64;
        let gy = y as f64 / coarse as f64;
        let x0 = gx.floor() as usize;
        let y0 = gy.floor() as usize;
        let fx = gx - x0 as f64;
        let fy = gy - y0 as f64;
        let v00 = grid[y0 * gw + x0];
        let v10 = grid[y0 * gw + x0 + 1];
        let v01 = grid[(y0 + 1) * gw + x0];
        let v11 = grid[(y0 + 1) * gw + x0 + 1];
        let v = v00 * (1.0 - fx) * (1.0 - fy)
            + v10 * fx * (1.0 - fy)
            + v01 * (1.0 - fx) * fy
            + v11 * fx * fy;
        Rgb::new(
            (base_r + v).clamp(0.0, 255.0) as u8,
            (base_g + v).clamp(0.0, 255.0) as u8,
            (base_b + v * 0.7).clamp(0.0, 255.0) as u8,
        )
    });
    let mut mask = LabelMap::new(w, h, 0u32);

    // --- Vegetation patches (background, darker green) -----------------------
    for _ in 0..rng.gen_range(2..6) {
        let cx = rng.gen_range(0..w) as i64;
        let cy = rng.gen_range(0..h) as i64;
        let rx = rng.gen_range(6..w as i64 / 4);
        let ry = rng.gen_range(6..h as i64 / 4);
        let green = Rgb::new(
            rng.gen_range(30..60),
            rng.gen_range(70..110),
            rng.gen_range(30..55),
        );
        draw::fill_ellipse(&mut image, cx, cy, rx, ry, green);
    }

    // --- Roads (background, mid-gray stripes) --------------------------------
    for _ in 0..rng.gen_range(1..3) {
        let gray_v = rng.gen_range(120..160);
        let gray = Rgb::new(gray_v, gray_v, gray_v);
        let thickness = rng.gen_range(3..6);
        if rng.gen_bool(0.5) {
            let y = rng.gen_range(0..h) as i64;
            draw::draw_line(&mut image, (0, y), (w as i64 - 1, y), thickness, gray);
        } else {
            let x = rng.gen_range(0..w) as i64;
            draw::draw_line(&mut image, (x, 0), (x, h as i64 - 1), thickness, gray);
        }
    }

    // --- Buildings (foreground: bright roofs) --------------------------------
    let n_buildings = rng.gen_range(4..14);
    for _ in 0..n_buildings {
        let bw = rng.gen_range(8..w / 5);
        let bh = rng.gen_range(8..h / 5);
        let x = rng.gen_range(0..w.saturating_sub(bw).max(1));
        let y = rng.gen_range(0..h.saturating_sub(bh).max(1));
        let roof_base = rng.gen_range(170..=245) as u8;
        let roof = Rgb::new(
            roof_base,
            roof_base.saturating_sub(rng.gen_range(0..25)),
            roof_base.saturating_sub(rng.gen_range(0..40)),
        );
        let rect = Rect::new(x, y, bw, bh);
        draw::fill_rect(&mut image, rect, roof);
        draw::fill_rect(&mut mask, rect, 1u32);
        // A darker shadow edge on one side of the building.
        let shadow = draw::scale_brightness(roof, 0.35);
        let shadow_rect = Rect::new(x, (y + bh).min(h.saturating_sub(1)), bw, 2);
        draw::fill_rect(&mut image, shadow_rect, shadow);
    }

    filter::add_gaussian_noise_rgb(&mut image, config.noise_sigma, &mut rng);

    LabeledImage::new(format!("xview-like-{index:05}"), image, mask)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> XViewLikeConfig {
        XViewLikeConfig {
            len: 6,
            width: 96,
            height: 96,
            seed: 3,
            ..XViewLikeConfig::default()
        }
    }

    #[test]
    fn dataset_shape_and_determinism() {
        let ds = XViewLikeDataset::new(small_config());
        assert_eq!(ds.len(), 6);
        assert!(!ds.is_empty());
        let a = ds.sample(2);
        let b = ds.sample(2);
        assert_eq!(a.image, b.image);
        assert_eq!(a.ground_truth, b.ground_truth);
        assert_eq!(a.image.dimensions(), (96, 96));
    }

    #[test]
    fn buildings_are_a_minority_class() {
        let ds = XViewLikeDataset::new(small_config());
        for sample in ds.iter() {
            let fg = sample.foreground_fraction();
            assert!(fg > 0.01, "{}: fg {fg}", sample.id);
            assert!(fg < 0.55, "{}: fg {fg}", sample.id);
            // No void pixels in this dataset's annotation style.
            assert_eq!(sample.void_fraction(), 0.0);
        }
    }

    #[test]
    fn roofs_are_brighter_than_terrain_on_average() {
        let ds = XViewLikeDataset::new(small_config());
        let sample = ds.sample(0);
        let mut roof_luma = 0.0;
        let mut roof_n = 0usize;
        let mut ground_luma = 0.0;
        let mut ground_n = 0usize;
        for (x, y, label) in sample.ground_truth.enumerate_pixels() {
            let l = imaging::color::luma_of(sample.image.get(x, y));
            if label == 1 {
                roof_luma += l;
                roof_n += 1;
            } else {
                ground_luma += l;
                ground_n += 1;
            }
        }
        assert!(roof_luma / roof_n as f64 > ground_luma / ground_n as f64 + 0.1);
    }

    #[test]
    fn default_split_has_148_tiles() {
        let ds = XViewLikeDataset::new(XViewLikeConfig::default());
        assert_eq!(ds.len(), 148);
        assert_eq!(ds.config.width, 160);
    }

    #[test]
    fn different_tiles_differ() {
        let ds = XViewLikeDataset::new(small_config());
        assert_ne!(ds.sample(0).image, ds.sample(1).image);
        assert_eq!(ds.sample(0).id, "xview-like-00000");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_tile_panics() {
        let ds = XViewLikeDataset::new(small_config());
        let _ = ds.sample(6);
    }
}
