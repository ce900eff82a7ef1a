//! Blurs and noise injection.
//!
//! The synthetic dataset generators use Gaussian blur to soften object
//! boundaries (so scenes are not trivially separable) and Gaussian noise to
//! reproduce the sensor noise that makes Otsu thresholding struggle in the
//! paper's discussion.

use crate::pixel::Rgb;
use crate::RgbImage;
use rand::Rng;

/// Builds a normalised 1-D Gaussian kernel with standard deviation `sigma`.
///
/// The radius is `ceil(3 sigma)`, which captures >99% of the mass.
pub(crate) fn gaussian_kernel(sigma: f64) -> Vec<f64> {
    let sigma = sigma.max(1e-6);
    let radius = (3.0 * sigma).ceil() as i64;
    let mut kernel = Vec::with_capacity((2 * radius + 1) as usize);
    let denom = 2.0 * sigma * sigma;
    for i in -radius..=radius {
        kernel.push((-((i * i) as f64) / denom).exp());
    }
    let sum: f64 = kernel.iter().sum();
    for k in &mut kernel {
        *k /= sum;
    }
    kernel
}

fn convolve_separable_channel(
    data: &[f64],
    width: usize,
    height: usize,
    kernel: &[f64],
) -> Vec<f64> {
    let radius = (kernel.len() / 2) as i64;
    let clamp_x = |x: i64| x.clamp(0, width as i64 - 1) as usize;
    let clamp_y = |y: i64| y.clamp(0, height as i64 - 1) as usize;
    // Horizontal pass.
    let mut tmp = vec![0.0; data.len()];
    for y in 0..height {
        for x in 0..width {
            let mut acc = 0.0;
            for (ki, &k) in kernel.iter().enumerate() {
                let sx = clamp_x(x as i64 + ki as i64 - radius);
                acc += k * data[y * width + sx];
            }
            tmp[y * width + x] = acc;
        }
    }
    // Vertical pass.
    let mut out = vec![0.0; data.len()];
    for y in 0..height {
        for x in 0..width {
            let mut acc = 0.0;
            for (ki, &k) in kernel.iter().enumerate() {
                let sy = clamp_y(y as i64 + ki as i64 - radius);
                acc += k * tmp[sy * width + x];
            }
            out[y * width + x] = acc;
        }
    }
    out
}

/// Gaussian-blurs an RGB image with standard deviation `sigma` (edge pixels
/// are clamped).  `sigma <= 0` returns a copy of the input.
pub fn gaussian_blur_rgb(img: &RgbImage, sigma: f64) -> RgbImage {
    if sigma <= 0.0 || img.is_empty() {
        return img.clone();
    }
    let kernel = gaussian_kernel(sigma);
    let (w, h) = img.dimensions();
    let mut channels = [
        vec![0.0; img.len()],
        vec![0.0; img.len()],
        vec![0.0; img.len()],
    ];
    for (i, p) in img.pixels().enumerate() {
        channels[0][i] = p.r() as f64;
        channels[1][i] = p.g() as f64;
        channels[2][i] = p.b() as f64;
    }
    let blurred: Vec<Vec<f64>> = channels
        .iter()
        .map(|c| convolve_separable_channel(c, w, h, &kernel))
        .collect();
    RgbImage::from_fn(w, h, |x, y| {
        let i = y * w + x;
        Rgb::new(
            blurred[0][i].round().clamp(0.0, 255.0) as u8,
            blurred[1][i].round().clamp(0.0, 255.0) as u8,
            blurred[2][i].round().clamp(0.0, 255.0) as u8,
        )
    })
}

/// Adds zero-mean Gaussian noise with standard deviation `sigma` (in 0–255
/// units) to every channel of an RGB image.
pub fn add_gaussian_noise_rgb<R: Rng>(img: &mut RgbImage, sigma: f64, rng: &mut R) {
    if sigma <= 0.0 {
        return;
    }
    for p in img.pixels_mut() {
        let mut channels = p.0;
        for c in &mut channels {
            let n: f64 = sample_standard_normal(rng) * sigma;
            *c = (*c as f64 + n).round().clamp(0.0, 255.0) as u8;
        }
        *p = Rgb(channels);
    }
}

/// Samples a standard normal via the Box–Muller transform (avoids a dependency
/// on `rand_distr`).
fn sample_standard_normal<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn kernel_is_normalized_and_symmetric() {
        for sigma in [0.5, 1.0, 2.5] {
            let k = gaussian_kernel(sigma);
            let sum: f64 = k.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "sigma={sigma}");
            assert_eq!(k.len() % 2, 1);
            for i in 0..k.len() / 2 {
                assert!((k[i] - k[k.len() - 1 - i]).abs() < 1e-12);
            }
            let mid = k.len() / 2;
            assert!(k[mid] >= k[0]);
        }
    }

    #[test]
    fn blur_of_constant_image_is_identity() {
        let img = RgbImage::new(16, 16, Rgb::new(100, 150, 200));
        let blurred = gaussian_blur_rgb(&img, 2.0);
        assert_eq!(blurred, img);
    }

    #[test]
    fn blur_smooths_an_edge() {
        let img = RgbImage::from_fn(32, 8, |x, _| {
            let v = if x < 16 { 0 } else { 255 };
            Rgb::new(v, v, v)
        });
        let blurred = gaussian_blur_rgb(&img, 2.0);
        let edge_value = blurred.get(16, 4).r();
        assert!(edge_value > 0 && edge_value < 255);
        // far from the edge the original values survive
        assert_eq!(blurred.get(0, 4), Rgb::new(0, 0, 0));
        assert_eq!(blurred.get(31, 4), Rgb::new(255, 255, 255));
    }

    #[test]
    fn zero_sigma_blur_is_noop() {
        let img = RgbImage::from_fn(5, 5, |x, y| Rgb::new(x as u8, y as u8, 7));
        assert_eq!(gaussian_blur_rgb(&img, 0.0), img);
        assert_eq!(gaussian_blur_rgb(&img, -1.0), img);
    }

    #[test]
    fn gaussian_noise_changes_pixels_but_not_mean_much() {
        let mut img = RgbImage::new(64, 64, Rgb::new(128, 128, 128));
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        add_gaussian_noise_rgb(&mut img, 10.0, &mut rng);
        let changed = img
            .pixels()
            .filter(|p| **p != Rgb::new(128, 128, 128))
            .count();
        assert!(changed > img.len() / 2);
        let mean: f64 = img.pixels().map(|p| p.r() as f64).sum::<f64>() / img.len() as f64;
        assert!((mean - 128.0).abs() < 3.0, "mean drifted to {mean}");
    }

    #[test]
    fn zero_noise_is_noop() {
        let mut img = RgbImage::new(4, 4, Rgb::new(9, 9, 9));
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        add_gaussian_noise_rgb(&mut img, 0.0, &mut rng);
        assert!(img.pixels().all(|&p| p == Rgb::new(9, 9, 9)));
    }
}
