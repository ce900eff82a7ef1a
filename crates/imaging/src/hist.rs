//! Intensity histograms.
//!
//! Histograms are the substrate for Otsu's method (baseline) and for the
//! automatic θ-selection heuristic in the core crate.

use crate::GrayImage;

/// A 256-bin intensity histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bins: [u64; 256],
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            bins: [0; 256],
            total: 0,
        }
    }

    /// Builds a histogram from an 8-bit grayscale image.
    pub fn of_gray(img: &GrayImage) -> Self {
        let mut h = Self::new();
        for p in img.pixels() {
            h.push(p.value());
        }
        h
    }

    /// Adds one sample.
    pub(crate) fn push(&mut self, value: u8) {
        self.bins[value as usize] += 1;
        self.total += 1;
    }

    /// Total number of samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Normalised bin probabilities (empty histogram yields all zeros).
    pub fn probabilities(&self) -> [f64; 256] {
        let mut p = [0.0; 256];
        if self.total == 0 {
            return p;
        }
        let n = self.total as f64;
        for (i, &c) in self.bins.iter().enumerate() {
            p[i] = c as f64 / n;
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pixel::Luma;

    #[test]
    fn empty_histogram_defaults() {
        let h = Histogram::new();
        assert_eq!(h.total(), 0);
        assert!(h.probabilities().iter().all(|&p| p == 0.0));
    }

    #[test]
    fn push_and_count() {
        let mut h = Histogram::new();
        h.push(5);
        h.push(5);
        h.push(200);
        assert_eq!(h.bins[5], 2);
        assert_eq!(h.bins[200], 1);
        assert_eq!(h.bins[7], 0);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn histogram_of_gray_image() {
        let img = GrayImage::from_fn(4, 2, |x, _| Luma(if x < 2 { 10 } else { 240 }));
        let h = Histogram::of_gray(&img);
        assert_eq!(h.bins[10], 4);
        assert_eq!(h.bins[240], 4);
        assert_eq!(h.total(), 8);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let img = GrayImage::from_fn(10, 10, |x, y| Luma(((x * y) % 256) as u8));
        let h = Histogram::of_gray(&img);
        let sum: f64 = h.probabilities().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }
}
