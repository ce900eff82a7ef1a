//! Angle parameters and the θ ↔ threshold correspondence.
//!
//! For the grayscale (1-qubit) algorithm the class boundary sits where
//! `cos(I·θ) = 0`, i.e. at intensities `I_th = (4k ± 1)·π / (2θ)` for integer
//! `k ≥ 0` with `I_th ≤ 1` (the paper's eq. 15).  Choosing θ therefore *is*
//! choosing a set of thresholds — one for small θ, several for large θ
//! (eq. 16) — which is what the paper's Table I tabulates and what makes the
//! method behave like a generalised thresholding technique.

use std::f64::consts::PI;

/// The three angle parameters `(θ1, θ2, θ3)` of Algorithm 1.
///
/// `θ1` scales the red channel (phase `γ`), `θ2` the green channel (phase
/// `β`), and `θ3` the blue channel (phase `α`), exactly as in Algorithm 1
/// line 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThetaParams {
    /// Red-channel angle `θ1` (radians).
    pub theta1: f64,
    /// Green-channel angle `θ2` (radians).
    pub theta2: f64,
    /// Blue-channel angle `θ3` (radians).
    pub theta3: f64,
}

impl ThetaParams {
    /// Creates parameters from the three angles.
    pub fn new(theta1: f64, theta2: f64, theta3: f64) -> Self {
        Self {
            theta1,
            theta2,
            theta3,
        }
    }

    /// All three angles equal to `theta` — the configuration used throughout
    /// the paper's Table II sweep and for the Table III comparison (θ = π).
    pub fn uniform(theta: f64) -> Self {
        Self::new(theta, theta, theta)
    }

    /// The "mixed" configuration of Table II / Fig. 6:
    /// `θ1 = π/4, θ2 = π/2, θ3 = π`.
    pub fn mixed() -> Self {
        Self::new(PI / 4.0, PI / 2.0, PI)
    }

    /// The default used in the paper's headline comparison (θ = π).
    pub fn paper_default() -> Self {
        Self::uniform(PI)
    }

    /// Returns the angles as `[θ1, θ2, θ3]`.
    pub(crate) fn as_array(&self) -> [f64; 3] {
        [self.theta1, self.theta2, self.theta3]
    }
}

impl Default for ThetaParams {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// All grayscale thresholds `I_th ∈ (0, 1]` implied by angle `theta`
/// (eq. 15): `I_th = (4k ± 1)·π / (2θ)`, sorted ascending and deduplicated.
///
/// Returns an empty vector when `theta` is too small for any threshold to lie
/// in `(0, 1]` (every pixel then falls in the same class).
pub fn thresholds_for_theta(theta: f64) -> Vec<f64> {
    if theta <= 0.0 {
        return Vec::new();
    }
    let mut thresholds = Vec::new();
    let mut k = 0i64;
    loop {
        let mut added_any = false;
        for sign in [-1.0, 1.0] {
            let numerator = 4.0 * k as f64 + sign;
            if numerator <= 0.0 {
                continue;
            }
            let ith = numerator * PI / (2.0 * theta);
            if ith > 0.0 && ith <= 1.0 + 1e-12 {
                thresholds.push(ith.min(1.0));
                added_any = true;
            }
        }
        // Once even the smaller branch (4k - 1) exceeds 1, no larger k helps.
        let smallest_next = (4.0 * (k + 1) as f64 - 1.0) * PI / (2.0 * theta);
        if !added_any && smallest_next > 1.0 {
            break;
        }
        k += 1;
        if k > 10_000 {
            break; // Defensive bound; unreachable for sane θ.
        }
    }
    thresholds.sort_by(|a, b| a.partial_cmp(b).unwrap());
    thresholds.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
    thresholds
}

/// The single threshold implied by `theta` when exactly one exists, i.e. the
/// `k = 0`, `+1` branch `I_th = π / (2θ)` (the regime of the upper rows of
/// Table I).
pub fn primary_threshold(theta: f64) -> Option<f64> {
    thresholds_for_theta(theta).into_iter().next()
}

/// The angle θ that places the *single* class boundary at `threshold`
/// (inverting eq. 15 with `k = 0`): `θ = π / (2·I_th)`.
///
/// This is the conversion used for the paper's Fig. 7, where the Otsu
/// threshold of an image is converted to an equivalent θ and the two methods
/// produce identical masks.
pub fn theta_for_threshold(threshold: f64) -> f64 {
    assert!(
        threshold > 0.0 && threshold <= 1.0,
        "threshold must lie in (0, 1], got {threshold}"
    );
    PI / (2.0 * threshold)
}

/// One row of the paper's Table I: the angle and its threshold(s).
#[derive(Debug, Clone, PartialEq)]
pub struct ThetaThresholdRow {
    /// The angle parameter θ.
    pub theta: f64,
    /// A human-readable description of θ (e.g. "3π/4").
    pub theta_label: String,
    /// The implied thresholds in ascending order.
    pub thresholds: Vec<f64>,
}

/// Regenerates the paper's Table I (θ vs. threshold value, including the
/// multi-threshold rows for 7π/4 and 2π).
pub fn table1_rows() -> Vec<ThetaThresholdRow> {
    let entries: [(f64, &str); 6] = [
        (3.0 * PI / 4.0, "3π/4"),
        (PI, "π"),
        (5.0 * PI / 4.0, "5π/4"),
        (3.0 * PI / 2.0, "3π/2"),
        (7.0 * PI / 4.0, "7π/4"),
        (2.0 * PI, "2π"),
    ];
    entries
        .into_iter()
        .map(|(theta, label)| ThetaThresholdRow {
            theta,
            theta_label: label.to_string(),
            thresholds: thresholds_for_theta(theta),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn theta_params_constructors() {
        let p = ThetaParams::uniform(1.5);
        assert_eq!(p.as_array(), [1.5, 1.5, 1.5]);
        let m = ThetaParams::mixed();
        assert_close(m.theta1, PI / 4.0, 1e-12);
        assert_close(m.theta2, PI / 2.0, 1e-12);
        assert_close(m.theta3, PI, 1e-12);
        assert_eq!(ThetaParams::default(), ThetaParams::paper_default());
        assert_close(ThetaParams::default().theta1, PI, 1e-12);
    }

    #[test]
    fn table1_single_threshold_rows_match_paper() {
        // Paper Table I: 3π/4 → 0.667, π → 0.5, 5π/4 → 0.4, 3π/2 → 0.333.
        assert_close(primary_threshold(3.0 * PI / 4.0).unwrap(), 2.0 / 3.0, 1e-9);
        assert_close(primary_threshold(PI).unwrap(), 0.5, 1e-12);
        assert_close(primary_threshold(5.0 * PI / 4.0).unwrap(), 0.4, 1e-9);
        assert_close(primary_threshold(3.0 * PI / 2.0).unwrap(), 1.0 / 3.0, 1e-9);
    }

    #[test]
    fn table1_multi_threshold_rows_match_paper() {
        // 7π/4 → {0.285…, 0.857…}; 2π → {0.25, 0.75}.
        let t = thresholds_for_theta(7.0 * PI / 4.0);
        assert_eq!(t.len(), 2);
        assert_close(t[0], 2.0 / 7.0, 1e-9);
        assert_close(t[1], 6.0 / 7.0, 1e-9);
        let t = thresholds_for_theta(2.0 * PI);
        assert_eq!(t, vec![0.25, 0.75]);
    }

    #[test]
    fn eq16_four_thresholds_for_theta_4pi() {
        // Paper eq. 16: θ = 4π gives thresholds 1/8, 3/8, 5/8, 7/8.
        let t = thresholds_for_theta(4.0 * PI);
        assert_eq!(t.len(), 4);
        for (got, want) in t.iter().zip([0.125, 0.375, 0.625, 0.875]) {
            assert_close(*got, want, 1e-12);
        }
    }

    #[test]
    fn small_theta_has_no_threshold() {
        assert!(thresholds_for_theta(PI / 4.0).is_empty());
        assert!(thresholds_for_theta(0.0).is_empty());
        assert!(thresholds_for_theta(-1.0).is_empty());
        assert!(primary_threshold(PI / 4.0).is_none());
    }

    #[test]
    fn theta_for_threshold_inverts_primary_threshold() {
        for threshold in [0.1, 0.25, 0.4465, 0.4911, 0.5, 0.9, 1.0] {
            let theta = theta_for_threshold(threshold);
            let back = primary_threshold(theta).unwrap();
            assert_close(back, threshold, 1e-9);
        }
        // The paper's Fig. 7 examples: Ith = 0.4465 → θ ≈ 1.1197π,
        // Ith = 0.4911 → θ ≈ 1.0180π.
        assert_close(theta_for_threshold(0.4465) / PI, 1.1198, 2e-4);
        assert_close(theta_for_threshold(0.4911) / PI, 1.0181, 2e-4);
    }

    #[test]
    #[should_panic(expected = "threshold must lie in (0, 1]")]
    fn theta_for_threshold_rejects_zero() {
        let _ = theta_for_threshold(0.0);
    }

    #[test]
    fn thresholds_are_sorted_and_within_unit_interval() {
        for i in 1..=64 {
            let theta = i as f64 * 0.25;
            let t = thresholds_for_theta(theta);
            assert!(t.windows(2).all(|w| w[0] < w[1]), "theta={theta}");
            assert!(t.iter().all(|&x| x > 0.0 && x <= 1.0), "theta={theta}");
        }
    }

    #[test]
    fn table1_rows_structure() {
        let rows = table1_rows();
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[0].theta_label, "3π/4");
        assert_eq!(rows[4].thresholds.len(), 2);
        assert_eq!(rows[5].thresholds.len(), 2);
        for row in &rows {
            assert!(!row.thresholds.is_empty());
        }
    }
}
