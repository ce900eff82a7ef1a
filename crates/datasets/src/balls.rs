//! The "coloured balls" scene of the paper's Fig. 4.
//!
//! The figure demonstrates single-parameter multiple thresholding: θ = 4π
//! installs the four thresholds ⅛, ⅜, ⅝, ⅞ at once (eq. 16), so the mid-
//! intensity balls are carved away from both the darker and the brighter
//! balls with a single parameter, which a single Otsu threshold cannot do.
//! The ground truth marks the balls that fall in the θ = 4π *selected* bands
//! (⅛–⅜ and ⅝–⅞): the red and lemon balls.  Selecting this non-contiguous
//! pair of intensity bands is exactly the task a single threshold cannot
//! solve and the IQFT grayscale segmenter solves with one parameter.

use crate::sample::LabeledImage;
use imaging::draw;
use imaging::{LabelMap, Rgb, RgbImage};

/// A ball description: centre grid position, colour, and whether it belongs
/// to the target (foreground) group of Fig. 4.
struct Ball {
    color: Rgb<u8>,
    target: bool,
}

/// Generates the Fig. 4 balls scene.
///
/// Returns a [`LabeledImage`] whose ground truth marks the balls inside the
/// θ = 4π selected bands (red and lemon) as foreground.  The scene is
/// deterministic — there is nothing random in the figure.
pub fn balls_scene(width: usize, height: usize) -> LabeledImage {
    // Luma (eq. 17 weights) of the chosen colours, normalised:
    //   dark navy    ≈ 0.07   (below 1/8)            → background
    //   dark maroon  ≈ 0.10   (below 1/8)            → background
    //   red          ≈ 0.28   (between 1/8 and 3/8)  → target
    //   green        ≈ 0.52   (between 3/8 and 5/8)  → background (unselected band)
    //   lemon        ≈ 0.78   (between 5/8 and 7/8)  → target
    //   white-ish    ≈ 0.95   (above 7/8)            → background
    let balls = [
        Ball {
            color: Rgb::new(15, 15, 60),
            target: false,
        },
        Ball {
            color: Rgb::new(60, 15, 20),
            target: false,
        },
        Ball {
            color: Rgb::new(230, 40, 40),
            target: true,
        },
        Ball {
            color: Rgb::new(60, 170, 60),
            target: false,
        },
        Ball {
            color: Rgb::new(230, 220, 60),
            target: true,
        },
        Ball {
            color: Rgb::new(245, 245, 240),
            target: false,
        },
    ];
    let background = Rgb::new(5, 5, 5); // near-black backdrop (luma ≈ 0.02)
    let mut image = RgbImage::new(width, height, background);
    let mut mask = LabelMap::new(width, height, 0u32);
    let cols = 3usize;
    let rows = 2usize;
    let cell_w = width / cols;
    let cell_h = height / rows;
    let radius = (cell_w.min(cell_h) as i64 / 2) - (cell_w.min(cell_h) as i64 / 8).max(2);
    for (i, ball) in balls.iter().enumerate() {
        let col = i % cols;
        let row = i / cols;
        let cx = (col * cell_w + cell_w / 2) as i64;
        let cy = (row * cell_h + cell_h / 2) as i64;
        draw::fill_circle(&mut image, cx, cy, radius, ball.color);
        if ball.target {
            draw::fill_circle(&mut mask, cx, cy, radius, 1u32);
        }
    }
    LabeledImage::new("balls-fig4", image, mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use imaging::color::luma_of;

    /// True if `luma` lies in one of the two bands selected by θ = 4π
    /// ((1/8, 3/8) or (5/8, 7/8)).
    fn in_selected_band(luma: f64) -> bool {
        (0.125..0.375).contains(&luma) || (0.625..0.875).contains(&luma)
    }

    #[test]
    fn scene_has_six_balls_two_of_which_are_targets() {
        let scene = balls_scene(120, 80);
        assert_eq!(scene.image.dimensions(), (120, 80));
        // Ball census through connected components of the mask.
        let (components, n) = imaging::labels::connected_components(&scene.ground_truth);
        // foreground components + the single background component
        assert_eq!(n, 3, "expected 2 target balls + background, got {n}");
        drop(components);
        let fg = scene.foreground_fraction();
        assert!(fg > 0.05 && fg < 0.5, "fg fraction {fg}");
    }

    #[test]
    fn target_balls_sit_in_the_selected_intensity_bands() {
        let scene = balls_scene(120, 80);
        for (x, y, label) in scene.ground_truth.enumerate_pixels() {
            let luma = luma_of(scene.image.get(x, y));
            if label == 1 {
                assert!(
                    in_selected_band(luma),
                    "target pixel at ({x},{y}) has luma {luma}"
                );
            }
        }
    }

    #[test]
    fn non_target_balls_and_backdrop_sit_outside_the_selected_bands() {
        let scene = balls_scene(120, 80);
        let mut outside = 0usize;
        let mut background_pixels = 0usize;
        for (x, y, label) in scene.ground_truth.enumerate_pixels() {
            if label == 0 {
                background_pixels += 1;
                let luma = luma_of(scene.image.get(x, y));
                if !in_selected_band(luma) {
                    outside += 1;
                }
            }
        }
        // Every non-target pixel lies outside the selected bands.
        assert_eq!(outside, background_pixels);
    }

    #[test]
    fn scene_is_deterministic() {
        assert_eq!(balls_scene(90, 60), balls_scene(90, 60));
    }
}
