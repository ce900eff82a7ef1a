//! PASCAL-VOC-like synthetic natural scenes.
//!
//! Each scene contains one to three foreground objects (ellipses, rectangles
//! or circles) whose colours are drawn from a palette that ranges from
//! clearly separated to overlapping with the background intensity, on a
//! background that is a gradient or checkerboard texture with Gaussian noise.
//! A few-pixel "void" band is drawn around every object in the ground truth,
//! mirroring the VOC annotation convention (and exercising the void-masking
//! path of the mIOU implementation).

use crate::sample::LabeledImage;
use imaging::draw::{self, Rect};
use imaging::filter;
use imaging::{LabelMap, Rgb, RgbImage, VOID_LABEL};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Configuration of the VOC-like generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PascalVocLikeConfig {
    /// Number of images in the dataset.
    pub len: usize,
    /// Image width.
    pub width: usize,
    /// Image height.
    pub height: usize,
    /// Base RNG seed; image `i` uses `seed + i`.
    pub seed: u64,
    /// Standard deviation of the additive Gaussian noise (0–255 units).
    pub noise_sigma: f64,
    /// Width in pixels of the void band drawn around object boundaries.
    pub void_border: usize,
    /// Gaussian blur applied to the rendered image (softens edges).
    pub blur_sigma: f64,
}

impl Default for PascalVocLikeConfig {
    fn default() -> Self {
        Self {
            len: 200,
            width: 160,
            height: 120,
            seed: 2012,
            noise_sigma: 6.0,
            void_border: 2,
            blur_sigma: 0.8,
        }
    }
}

/// The VOC-like synthetic dataset (an indexable, lazily generated collection).
#[derive(Debug, Clone)]
pub struct PascalVocLikeDataset {
    config: PascalVocLikeConfig,
}

impl PascalVocLikeDataset {
    /// Creates a dataset with the given configuration.
    pub fn new(config: PascalVocLikeConfig) -> Self {
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

    /// Generates sample `index` (deterministic in `seed + index`).
    pub fn sample(&self, index: usize) -> LabeledImage {
        assert!(index < self.config.len, "sample index out of range");
        generate_scene(&self.config, index)
    }

    /// Iterator over all samples.
    pub fn iter(&self) -> impl Iterator<Item = LabeledImage> + '_ {
        (0..self.len()).map(move |i| self.sample(i))
    }
}

fn generate_scene(config: &PascalVocLikeConfig, index: usize) -> LabeledImage {
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed.wrapping_add(index as u64));
    let (w, h) = (config.width, config.height);
    let mut image = RgbImage::new(w, h, Rgb::BLACK);
    let mut mask = LabelMap::new(w, h, 0u32);

    // --- Background -------------------------------------------------------
    let bg_dark = rng.gen_range(20..100) as u8;
    let bg_bright = (bg_dark as u16 + rng.gen_range(30u16..120)).min(255) as u8;
    let bg_a = Rgb::new(
        jitter(bg_dark, 20, &mut rng),
        jitter(bg_dark, 20, &mut rng),
        jitter(bg_dark, 20, &mut rng),
    );
    let bg_b = Rgb::new(
        jitter(bg_bright, 20, &mut rng),
        jitter(bg_bright, 20, &mut rng),
        jitter(bg_bright, 20, &mut rng),
    );
    match rng.gen_range(0..3) {
        0 => draw::vertical_gradient(&mut image, bg_a, bg_b),
        1 => draw::horizontal_gradient(&mut image, bg_a, bg_b),
        _ => draw::checkerboard(&mut image, rng.gen_range(8..20), bg_a, bg_b),
    }

    // --- Foreground objects ------------------------------------------------
    let n_objects = rng.gen_range(1..=3);
    // Object brightness ranges from "well separated" to "close to background",
    // spreading scene difficulty across the dataset.
    for _ in 0..n_objects {
        let difficulty: f64 = rng.gen();
        let base = if difficulty < 0.6 {
            // Easy: clearly brighter than the background.
            rng.gen_range(170..=250) as u8
        } else {
            // Hard: brightness overlaps the background's bright end.
            (bg_bright as i32 + rng.gen_range(-25i32..=35)).clamp(40, 255) as u8
        };
        let color = Rgb::new(
            jitter(base, 40, &mut rng),
            jitter(base, 40, &mut rng),
            jitter(base, 40, &mut rng),
        );
        let cx = rng.gen_range(w / 6..w * 5 / 6) as i64;
        let cy = rng.gen_range(h / 6..h * 5 / 6) as i64;
        match rng.gen_range(0..3) {
            0 => {
                let r = rng.gen_range((h / 10).max(4)..h / 3) as i64;
                draw::fill_circle(&mut image, cx, cy, r, color);
                draw::fill_circle(&mut mask, cx, cy, r, 1u32);
            }
            1 => {
                let rx = rng.gen_range((w / 10).max(4)..w / 3) as i64;
                let ry = rng.gen_range((h / 10).max(4)..h / 3) as i64;
                draw::fill_ellipse(&mut image, cx, cy, rx, ry, color);
                draw::fill_ellipse(&mut mask, cx, cy, rx, ry, 1u32);
            }
            _ => {
                let rw = rng.gen_range(w / 8..w / 3);
                let rh = rng.gen_range(h / 8..h / 3);
                let rect = Rect::new(
                    (cx as usize).saturating_sub(rw / 2),
                    (cy as usize).saturating_sub(rh / 2),
                    rw,
                    rh,
                );
                draw::fill_rect(&mut image, rect, color);
                draw::fill_rect(&mut mask, rect, 1u32);
            }
        }
    }

    // --- Post-processing ----------------------------------------------------
    let image = filter::gaussian_blur_rgb(&image, config.blur_sigma);
    let mut image = image;
    filter::add_gaussian_noise_rgb(&mut image, config.noise_sigma, &mut rng);
    let mask = add_void_border(&mask, config.void_border);

    LabeledImage::new(format!("voc-like-{index:05}"), image, mask)
}

fn jitter(base: u8, spread: i32, rng: &mut impl Rng) -> u8 {
    (base as i32 + rng.gen_range(-spread..=spread)).clamp(0, 255) as u8
}

/// Marks a band of `border` pixels around every foreground/background
/// boundary as void, mirroring the VOC annotation convention.
pub(crate) fn add_void_border(mask: &LabelMap, border: usize) -> LabelMap {
    if border == 0 {
        return mask.clone();
    }
    let (w, h) = mask.dimensions();
    let border = border as i64;
    LabelMap::from_fn(w, h, |x, y| {
        let own = mask.get(x, y);
        // A pixel is void if any pixel within the Chebyshev radius `border`
        // carries a different (non-void) label.
        for dy in -border..=border {
            for dx in -border..=border {
                let nx = x as i64 + dx;
                let ny = y as i64 + dy;
                if nx < 0 || ny < 0 || nx >= w as i64 || ny >= h as i64 {
                    continue;
                }
                let neighbour = mask.get(nx as usize, ny as usize);
                if neighbour != own {
                    return VOID_LABEL;
                }
            }
        }
        own
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> PascalVocLikeConfig {
        PascalVocLikeConfig {
            len: 8,
            width: 64,
            height: 48,
            seed: 7,
            ..PascalVocLikeConfig::default()
        }
    }

    #[test]
    fn dataset_has_requested_length_and_dimensions() {
        let ds = PascalVocLikeDataset::new(small_config());
        assert_eq!(ds.len(), 8);
        assert!(!ds.is_empty());
        for sample in ds.iter() {
            assert_eq!(sample.image.dimensions(), (64, 48));
        }
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let ds = PascalVocLikeDataset::new(small_config());
        let a = ds.sample(3);
        let b = ds.sample(3);
        assert_eq!(a.image, b.image);
        assert_eq!(a.ground_truth, b.ground_truth);
        // A different seed produces different content.
        let other = PascalVocLikeDataset::new(PascalVocLikeConfig {
            seed: 8,
            ..small_config()
        });
        assert_ne!(ds.sample(3).image, other.sample(3).image);
    }

    #[test]
    fn every_scene_contains_foreground_background_and_void() {
        let ds = PascalVocLikeDataset::new(small_config());
        for sample in ds.iter() {
            let fg = sample.foreground_fraction();
            assert!(fg > 0.005, "{}: fg fraction {fg}", sample.id);
            assert!(fg < 0.95, "{}: fg fraction {fg}", sample.id);
            assert!(sample.void_fraction() > 0.0, "{}", sample.id);
            assert!(sample.void_fraction() < 0.5, "{}", sample.id);
        }
    }

    #[test]
    fn ids_are_unique_and_stable() {
        let ds = PascalVocLikeDataset::new(small_config());
        let ids: Vec<String> = ds.iter().map(|s| s.id).collect();
        let mut deduped = ids.clone();
        deduped.dedup();
        assert_eq!(ids, deduped);
        assert_eq!(ids[0], "voc-like-00000");
    }

    #[test]
    fn void_border_surrounds_objects() {
        let mut mask = LabelMap::new(20, 20, 0);
        draw::fill_rect(&mut mask, Rect::new(8, 8, 4, 4), 1);
        let with_void = add_void_border(&mask, 1);
        // Just outside the object: void.  Far away: background.  Centre: fg.
        assert_eq!(with_void.get(7, 8), VOID_LABEL);
        assert_eq!(with_void.get(8, 8), VOID_LABEL); // object boundary pixel
        assert_eq!(with_void.get(10, 10), 1);
        assert_eq!(with_void.get(0, 0), 0);
        // Zero border is the identity.
        assert_eq!(add_void_border(&mask, 0), mask);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_sample_panics() {
        let ds = PascalVocLikeDataset::new(small_config());
        let _ = ds.sample(100);
    }

    #[test]
    fn default_split_matches_paper_scale_settings() {
        let ds = PascalVocLikeDataset::new(PascalVocLikeConfig::default());
        assert_eq!(ds.len(), 200);
        assert_eq!(ds.config.width, 160);
    }
}
