//! Startup plan calibration: probe the host, pick a [`SegmentPlan`].
//!
//! Every recorded baseline in this workspace was produced on one specific
//! container; a hard-coded default plan mis-tunes on any other machine (a
//! 1-core host wants `backend=serial`, a 16-core host wants threads).  This
//! module runs a short, budget-bounded sweep over a candidate grid of
//! classifier × backend combinations against a deterministic synthetic
//! frame and returns the fastest plan it measured, together with every
//! per-probe timing so the choice is auditable through Stats.
//!
//! The sweep is deterministic given a seed in everything but the timings
//! themselves: the synthetic frame, the candidate order, and the tie-break
//! (first probe wins on equal throughput) are all fixed, so two runs on the
//! same idle host converge to the same plan.
//!
//! The module is algorithm-agnostic like the rest of the engine crate: the
//! caller supplies a factory closure turning a [`ClassifierKind`] into a
//! concrete [`imaging::PixelClassifier`] (e.g. `IqftClassifier::paper_default`),
//! and calibration only measures how fast the plan executes it.

use std::time::{Duration, Instant};

use crate::{ClassifierKind, SegmentPlan};
use imaging::{PixelClassifier, Rgb, RgbImage};
use xpar::Backend;

/// Tuning knobs for a calibration sweep.
#[derive(Debug, Clone)]
pub struct CalibrationConfig {
    /// Synthetic probe-frame width in pixels.
    pub width: usize,
    /// Synthetic probe-frame height in pixels.
    pub height: usize,
    /// Seed for the synthetic frame's pixel pattern.
    pub seed: u64,
    /// Timed repetitions per candidate plan; the fastest repeat is kept, so
    /// a scheduler hiccup cannot condemn a good plan.
    pub repeats: usize,
    /// Wall-clock budget for the whole sweep.  At least one candidate (the
    /// first, which is the workspace default plan) is always probed; once
    /// the budget is exhausted the remaining candidates are skipped and
    /// [`CalibrationReport::budget_exhausted`] is set.
    pub budget: Duration,
    /// Overrides the detected core count (mainly for deterministic tests).
    /// `None` asks the OS via `std::thread::available_parallelism`.
    pub max_threads: Option<usize>,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        Self {
            width: 256,
            height: 256,
            seed: 0x5EED_CA11,
            repeats: 2,
            budget: Duration::from_millis(750),
            max_threads: None,
        }
    }
}

/// One timed candidate from the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeResult {
    /// The candidate plan that was measured.
    pub plan: SegmentPlan,
    /// Best (minimum) wall-clock time for one probe-frame segmentation.
    pub elapsed: Duration,
    /// Throughput of the best repeat, in megapixels per second.
    pub mpix_per_sec: f64,
}

/// The outcome of a calibration sweep: the chosen plan plus the evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationReport {
    /// The fastest plan measured (ties go to the earlier candidate).
    pub plan: SegmentPlan,
    /// Cores the sweep assumed (detected or overridden).
    pub cores: usize,
    /// Every probe that ran, in candidate order.
    pub probes: Vec<ProbeResult>,
    /// Total wall-clock time the sweep spent.
    pub elapsed: Duration,
    /// Whether the budget ran out before every candidate was probed.
    pub budget_exhausted: bool,
}

impl CalibrationReport {
    /// A compact single-line summary for Stats / logs, e.g.
    /// `cores=4;probes=8;elapsed_ms=41;best_mpix_s=512.3;exhausted=0`.
    /// Newline-free so it fits a `key=value` stats line.
    pub fn summary(&self) -> String {
        let best = self
            .probes
            .iter()
            .map(|p| p.mpix_per_sec)
            .fold(0.0_f64, f64::max);
        format!(
            "cores={};probes={};elapsed_ms={};best_mpix_s={:.1};exhausted={}",
            self.cores,
            self.probes.len(),
            self.elapsed.as_millis(),
            best,
            u8::from(self.budget_exhausted)
        )
    }

    /// Per-probe timings as a compact newline-free list, e.g.
    /// `classifier=table;tile=off;backend=serial@412.0mpx,…` — the audit
    /// trail behind [`CalibrationReport::plan`].
    pub fn probe_log(&self) -> String {
        self.probes
            .iter()
            .map(|p| format!("{}@{:.1}mpx", p.plan, p.mpix_per_sec))
            .collect::<Vec<_>>()
            .join(",")
    }
}

/// A deterministic synthetic probe frame: a xorshift-scrambled pixel pattern
/// that is a pure function of `(x, y, seed)`, so every host calibrates
/// against identical input.
pub fn synthetic_frame(width: usize, height: usize, seed: u64) -> RgbImage {
    RgbImage::from_fn(width, height, |x, y| {
        let mut s = seed ^ ((x as u64) << 32) ^ (y as u64) ^ 0x9E37_79B9_7F4A_7C15;
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let v = s.wrapping_mul(0x2545_F491_4F6C_DD1D);
        Rgb::new((v >> 16) as u8, (v >> 32) as u8, (v >> 48) as u8)
    })
}

/// The candidate grid for a host with `cores` cores, in probe order.  The
/// first candidate is always the workspace default plan, so the budget floor
/// ("at least one probe") still yields a sensible choice.
fn candidates(cores: usize) -> Vec<SegmentPlan> {
    let mut backends = vec![Backend::Serial];
    if cores > 1 {
        backends.push(Backend::Threads(cores));
        if cores > 3 {
            backends.push(Backend::Threads(cores / 2));
        }
    }
    // The steady-state classifier families only: `exact` exists as the
    // oracle and is never the right serving choice, so probing it would
    // spend budget to learn nothing.
    let kinds = [ClassifierKind::Table, ClassifierKind::Simd];
    let mut plans = vec![SegmentPlan::default()];
    for kind in kinds {
        for backend in &backends {
            let plan = SegmentPlan::new(kind, *backend);
            if !plans.contains(&plan) {
                plans.push(plan);
            }
        }
    }
    plans
}

/// Runs the calibration sweep and returns the fastest measured plan.
///
/// `factory` materialises a concrete classifier for each candidate family;
/// it is invoked once per distinct [`ClassifierKind`] in the grid (built
/// classifiers are reused across backends).  Labels are
/// byte-identical across every candidate by the engine's construction, so
/// calibration is purely a performance decision.
pub fn calibrate<C, F>(config: &CalibrationConfig, factory: F) -> CalibrationReport
where
    C: PixelClassifier + Sync,
    F: Fn(ClassifierKind) -> C,
{
    let cores = config.max_threads.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    let frame = synthetic_frame(config.width, config.height, config.seed);
    let pixels = (config.width * config.height) as f64;
    let repeats = config.repeats.max(1);

    let started = Instant::now();
    let mut probes = Vec::new();
    let mut budget_exhausted = false;
    let mut built: Vec<(ClassifierKind, C)> = Vec::new();

    for plan in candidates(cores) {
        if !probes.is_empty() && started.elapsed() >= config.budget {
            budget_exhausted = true;
            break;
        }
        let kind = plan.classifier();
        if !built.iter().any(|(k, _)| *k == kind) {
            built.push((kind, factory(kind)));
        }
        let classifier = &built.iter().find(|(k, _)| *k == kind).unwrap().1;
        // One untimed warm-up pass pays thread-spawn and cache-fill costs.
        let mut labels = Vec::new();
        plan.segment_rgb_into(classifier, &frame, &mut labels);
        let mut best = Duration::MAX;
        for _ in 0..repeats {
            let t0 = Instant::now();
            plan.segment_rgb_into(classifier, &frame, &mut labels);
            best = best.min(t0.elapsed());
        }
        let secs = best.as_secs_f64();
        let mpix_per_sec = if secs > 0.0 { pixels / secs / 1e6 } else { 0.0 };
        probes.push(ProbeResult {
            plan,
            elapsed: best,
            mpix_per_sec,
        });
    }

    let plan = probes
        .iter()
        .max_by(|a, b| {
            a.mpix_per_sec
                .partial_cmp(&b.mpix_per_sec)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .map(|p| p.plan)
        .unwrap_or_default();

    CalibrationReport {
        plan,
        cores,
        probes,
        elapsed: started.elapsed(),
        budget_exhausted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule() -> impl Fn(Rgb<u8>) -> u32 + Sync {
        |p: Rgb<u8>| u32::from(p.r() as u16 + p.g() as u16 + p.b() as u16) % 4
    }

    #[test]
    fn synthetic_frames_are_deterministic_and_seed_sensitive() {
        let a = synthetic_frame(32, 16, 7);
        let b = synthetic_frame(32, 16, 7);
        let c = synthetic_frame(32, 16, 8);
        assert_eq!(a.as_slice(), b.as_slice());
        assert_ne!(a.as_slice(), c.as_slice());
        assert_eq!(a.width(), 32);
        assert_eq!(a.height(), 16);
    }

    #[test]
    fn candidate_grid_starts_with_the_default_plan_and_scales_with_cores() {
        let single = candidates(1);
        assert_eq!(single[0], SegmentPlan::default());
        assert!(single
            .iter()
            .all(|p| p.backend() == Backend::Serial || p == &SegmentPlan::default()));
        // Classifier × backend: the default plan, then table and simd on
        // serial and on every core.
        assert_eq!(candidates(2).len(), 5);
        let multi = candidates(8);
        assert!(multi.len() > single.len());
        assert!(multi.iter().any(|p| p.backend() == Backend::Threads(8)));
        assert!(multi.iter().any(|p| p.backend() == Backend::Threads(4)));
        // No duplicate candidates: budget is too precious to probe twice.
        for (i, p) in multi.iter().enumerate() {
            assert!(!multi[i + 1..].contains(p), "{p}");
        }
    }

    #[test]
    fn calibration_probes_every_candidate_within_budget() {
        let config = CalibrationConfig {
            width: 48,
            height: 48,
            repeats: 1,
            budget: Duration::from_secs(60),
            max_threads: Some(2),
            ..CalibrationConfig::default()
        };
        let report = calibrate(&config, |_kind| rule());
        assert_eq!(report.cores, 2);
        assert_eq!(report.probes.len(), candidates(2).len());
        assert!(!report.budget_exhausted);
        assert!(report.probes.iter().any(|p| p.plan == report.plan));
        let best = report
            .probes
            .iter()
            .map(|p| p.mpix_per_sec)
            .fold(0.0_f64, f64::max);
        let chosen = report
            .probes
            .iter()
            .find(|p| p.plan == report.plan)
            .unwrap();
        assert_eq!(chosen.mpix_per_sec, best, "the fastest probe wins");
        assert!(report.summary().contains("cores=2"));
        assert!(!report.summary().contains('\n'));
        assert!(report.probe_log().contains("classifier="));
        assert!(!report.probe_log().contains('\n'));
    }

    #[test]
    fn a_zero_budget_still_probes_the_default_plan() {
        let config = CalibrationConfig {
            width: 16,
            height: 16,
            repeats: 1,
            budget: Duration::ZERO,
            max_threads: Some(4),
            ..CalibrationConfig::default()
        };
        let report = calibrate(&config, |_kind| rule());
        assert_eq!(report.probes.len(), 1);
        assert!(report.budget_exhausted);
        assert_eq!(report.plan, SegmentPlan::default());
        assert!(report.summary().contains("exhausted=1"));
    }

    #[test]
    fn calibrated_plans_stay_byte_identical_to_the_serial_reference() {
        let config = CalibrationConfig {
            width: 40,
            height: 24,
            repeats: 1,
            max_threads: Some(2),
            ..CalibrationConfig::default()
        };
        let report = calibrate(&config, |_kind| rule());
        let frame = synthetic_frame(40, 24, config.seed);
        let reference = SegmentPlan::default()
            .with_backend(Backend::Serial)
            .segment_rgb(&rule(), &frame);
        assert_eq!(report.plan.segment_rgb(&rule(), &frame), reference);
    }
}
