//! K-means clustering in RGB space (Lloyd's algorithm with k-means++
//! initialisation and restarts), mirroring the scikit-learn defaults the
//! paper used as its K-means baseline.

use imaging::{LabelMap, Rgb, RgbImage, Segmenter};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use seg_engine::SegmentEngine;
use xpar::Backend;

/// Configuration for the K-means segmenter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct KMeansConfig {
    /// Number of clusters (the paper's foreground/background comparison uses
    /// `k = 2`, scikit-learn's default is 8; this crate defaults to 2).
    pub k: usize,
    /// Maximum Lloyd iterations per restart (scikit-learn default: 300).
    pub max_iters: usize,
    /// Number of k-means++ restarts; the best inertia wins (scikit-learn
    /// default: 10).
    pub n_init: usize,
    /// Relative centroid-movement tolerance that ends iteration early
    /// (scikit-learn default: 1e-4).
    pub tolerance: f64,
    /// RNG seed for initialisation.
    pub seed: u64,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        Self {
            k: 2,
            max_iters: 300,
            n_init: 10,
            tolerance: 1e-4,
            seed: 0,
        }
    }
}

/// Result of one K-means fit.
#[derive(Debug, Clone)]
pub(crate) struct KMeansResult {
    /// Per-sample cluster assignments.
    pub assignments: Vec<u32>,
    /// Sum of squared distances of samples to their assigned centroid.
    pub inertia: f64,
}

/// K-means clustering of RGB pixels.
#[derive(Debug, Clone, Default)]
pub struct KMeansSegmenter {
    config: KMeansConfig,
    backend: Backend,
}

impl KMeansSegmenter {
    /// Creates a segmenter with the given configuration.
    pub(crate) fn new(config: KMeansConfig) -> Self {
        Self {
            config,
            backend: Backend::default(),
        }
    }

    /// Foreground/background configuration (`k = 2`) with the given seed.
    pub fn binary(seed: u64) -> Self {
        Self::new(KMeansConfig {
            k: 2,
            seed,
            ..KMeansConfig::default()
        })
    }

    /// Selects the execution backend for the assignment step.
    pub(crate) fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Routes the assignment step through `engine`.
    pub fn with_engine(self, engine: SegmentEngine) -> Self {
        self.with_backend(engine.backend())
    }

    /// The engine the assignment step executes on.
    pub(crate) fn engine(&self) -> SegmentEngine {
        SegmentEngine::new(self.backend)
    }

    /// Runs K-means on an arbitrary set of samples in normalised RGB space.
    pub(crate) fn fit(&self, samples: &[Rgb<f64>]) -> KMeansResult {
        assert!(self.config.k >= 1, "k must be at least 1");
        assert!(
            !samples.is_empty(),
            "cannot run k-means on an empty sample set"
        );
        let mut best: Option<KMeansResult> = None;
        for restart in 0..self.config.n_init.max(1) {
            let mut rng = ChaCha8Rng::seed_from_u64(
                self.config.seed.wrapping_add(restart as u64 * 0x9E37_79B9),
            );
            let result = self.fit_once(samples, &mut rng);
            let better = match &best {
                None => true,
                Some(b) => result.inertia < b.inertia,
            };
            if better {
                best = Some(result);
            }
        }
        best.expect("at least one restart ran")
    }

    fn fit_once<R: Rng>(&self, samples: &[Rgb<f64>], rng: &mut R) -> KMeansResult {
        let k = self.config.k.min(samples.len());
        let engine = self.engine();
        let mut centroids = kmeans_plus_plus_init(samples, k, rng);
        let mut assignments = vec![0u32; samples.len()];
        for _ in 0..self.config.max_iters.max(1) {
            // Assignment step (parallel over samples, via the engine).
            let new_assignments: Vec<u32> = engine.map_indexed(samples.len(), |i| {
                nearest_centroid(samples[i], &centroids) as u32
            });
            assignments = new_assignments;
            // Update step.
            let mut sums = vec![Rgb::new(0.0, 0.0, 0.0); k];
            let mut counts = vec![0usize; k];
            for (sample, &assignment) in samples.iter().zip(assignments.iter()) {
                sums[assignment as usize] = sums[assignment as usize].add(*sample);
                counts[assignment as usize] += 1;
            }
            let mut movement: f64 = 0.0;
            for c in 0..k {
                let new_centroid = if counts[c] == 0 {
                    // Re-seed an empty cluster at a random sample.
                    samples[rng.gen_range(0..samples.len())]
                } else {
                    sums[c].scale(1.0 / counts[c] as f64)
                };
                movement += centroids[c].dist2(new_centroid);
                centroids[c] = new_centroid;
            }
            if movement.sqrt() < self.config.tolerance {
                break;
            }
        }
        let inertia: f64 = samples
            .iter()
            .zip(assignments.iter())
            .map(|(s, &a)| s.dist2(centroids[a as usize]))
            .sum();
        KMeansResult {
            assignments,
            inertia,
        }
    }
}

fn nearest_centroid(sample: Rgb<f64>, centroids: &[Rgb<f64>]) -> usize {
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    for (i, c) in centroids.iter().enumerate() {
        let d = sample.dist2(*c);
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

/// k-means++ initialisation: the first centroid is uniform, each subsequent
/// centroid is drawn with probability proportional to the squared distance to
/// the nearest already-chosen centroid.
fn kmeans_plus_plus_init<R: Rng>(samples: &[Rgb<f64>], k: usize, rng: &mut R) -> Vec<Rgb<f64>> {
    let mut centroids = Vec::with_capacity(k);
    centroids.push(*samples.choose(rng).expect("non-empty samples"));
    let mut dist2: Vec<f64> = samples.iter().map(|s| s.dist2(centroids[0])).collect();
    while centroids.len() < k {
        let total: f64 = dist2.iter().sum();
        let next = if total <= f64::EPSILON {
            // All samples coincide with existing centroids; pick uniformly.
            *samples.choose(rng).expect("non-empty samples")
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut chosen = samples.len() - 1;
            for (i, &d) in dist2.iter().enumerate() {
                if target < d {
                    chosen = i;
                    break;
                }
                target -= d;
            }
            samples[chosen]
        };
        centroids.push(next);
        for (d, s) in dist2.iter_mut().zip(samples.iter()) {
            *d = d.min(s.dist2(next));
        }
    }
    centroids
}

impl Segmenter for KMeansSegmenter {
    fn name(&self) -> &str {
        "K-means"
    }

    fn segment_rgb(&self, img: &RgbImage) -> LabelMap {
        let samples: Vec<Rgb<f64>> = img.pixels().map(|p| p.to_f64()).collect();
        let result = self.fit(&samples);
        LabelMap::from_vec(img.width(), img.height(), result.assignments)
            .expect("assignment count matches image size")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blob_samples() -> Vec<Rgb<f64>> {
        let mut samples = Vec::new();
        for i in 0..50 {
            let jitter = (i % 5) as f64 * 0.002;
            samples.push(Rgb::new(0.1 + jitter, 0.1, 0.1));
            samples.push(Rgb::new(0.9 - jitter, 0.9, 0.9));
        }
        samples
    }

    #[test]
    fn separates_two_well_separated_blobs() {
        let samples = two_blob_samples();
        let result = KMeansSegmenter::binary(7).fit(&samples);
        // Samples from the same blob share a label.
        for (i, &a) in result.assignments.iter().enumerate() {
            assert_eq!(a, result.assignments[i % 2], "sample {i}");
        }
        assert_ne!(result.assignments[0], result.assignments[1]);
        assert!(result.inertia < 0.1);
    }

    #[test]
    fn k1_assigns_everything_to_one_cluster() {
        let config = KMeansConfig {
            k: 1,
            ..KMeansConfig::default()
        };
        let samples = two_blob_samples();
        let result = KMeansSegmenter::new(config).fit(&samples);
        assert!(result.assignments.iter().all(|&a| a == 0));
        // The one centroid is the global mean, so the inertia is the
        // samples' total squared distance from it.
        let n = samples.len() as f64;
        let mean = samples
            .iter()
            .fold(Rgb::new(0.0, 0.0, 0.0), |acc, s| acc.add(*s))
            .scale(1.0 / n);
        let spread: f64 = samples.iter().map(|s| s.dist2(mean)).sum();
        assert!((result.inertia - spread).abs() < 1e-9);
    }

    #[test]
    fn k_larger_than_sample_count_is_clamped() {
        let samples = vec![Rgb::new(0.2, 0.2, 0.2), Rgb::new(0.8, 0.8, 0.8)];
        let config = KMeansConfig {
            k: 10,
            n_init: 2,
            ..KMeansConfig::default()
        };
        let result = KMeansSegmenter::new(config).fit(&samples);
        assert!(result.assignments.iter().all(|&a| a < 2));
        assert!(result.inertia < 1e-9);
    }

    #[test]
    fn identical_samples_are_handled() {
        let samples = vec![Rgb::new(0.5, 0.5, 0.5); 20];
        let result = KMeansSegmenter::binary(3).fit(&samples);
        assert!(result.inertia < 1e-12);
        assert!(result.assignments.iter().all(|&a| a < 2));
    }

    #[test]
    fn seeded_runs_are_deterministic() {
        let samples = two_blob_samples();
        let a = KMeansSegmenter::binary(42).fit(&samples);
        let b = KMeansSegmenter::binary(42).fit(&samples);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.inertia, b.inertia);
    }

    #[test]
    fn more_clusters_never_increase_inertia() {
        let samples: Vec<Rgb<f64>> = (0..60)
            .map(|i| {
                let t = i as f64 / 59.0;
                Rgb::new(t, (t * 3.0).fract(), (t * 7.0).fract())
            })
            .collect();
        let mut prev = f64::INFINITY;
        for k in 1..=4 {
            let config = KMeansConfig {
                k,
                n_init: 5,
                seed: 9,
                ..KMeansConfig::default()
            };
            let inertia = KMeansSegmenter::new(config).fit(&samples).inertia;
            assert!(
                inertia <= prev + 1e-9,
                "k={k}: inertia {inertia} > previous {prev}"
            );
            prev = inertia;
        }
    }

    #[test]
    fn segment_rgb_produces_a_full_label_map() {
        let img = RgbImage::from_fn(20, 10, |x, _| {
            if x < 10 {
                Rgb::new(20, 20, 20)
            } else {
                Rgb::new(230, 230, 230)
            }
        });
        let labels = KMeansSegmenter::binary(1).segment_rgb(&img);
        assert_eq!(labels.dimensions(), (20, 10));
        assert_eq!(imaging::labels::distinct_labels(&labels), 2);
        assert_ne!(labels.get(0, 0), labels.get(19, 9));
        // Left half homogeneous.
        assert_eq!(labels.get(0, 0), labels.get(9, 9));
    }

    #[test]
    fn backend_choice_does_not_change_assignments() {
        let img = RgbImage::from_fn(16, 16, |x, y| Rgb::new((x * 16) as u8, (y * 16) as u8, 128));
        let serial = KMeansSegmenter::binary(5)
            .with_backend(Backend::Serial)
            .segment_rgb(&img);
        let parallel = KMeansSegmenter::binary(5)
            .with_backend(Backend::Threads(4))
            .segment_rgb(&img);
        assert_eq!(serial, parallel);
    }

    #[test]
    #[should_panic(expected = "empty sample set")]
    fn empty_samples_panic() {
        let _ = KMeansSegmenter::binary(0).fit(&[]);
    }

    #[test]
    fn name_and_config_access() {
        let seg = KMeansSegmenter::binary(3);
        assert_eq!(seg.name(), "K-means");
        assert_eq!(seg.config.k, 2);
        assert_eq!(KMeansConfig::default().n_init, 10);
    }
}
