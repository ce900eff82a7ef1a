//! Resolving the `--plan` flag shared by the `serve`, `throughput` and
//! `loadgen` subcommands.
//!
//! One flag, three spellings:
//!
//! * empty — fall back to the caller's per-axis flags
//!   (`--classifier`/`--backend`/`--threads`), exactly the pre-`--plan`
//!   behaviour;
//! * `auto` — probe the host with [`seg_engine::calibrate`] (core count plus
//!   a short backend × classifier sweep over a synthetic frame) and take the
//!   fastest measured [`SegmentPlan`];
//! * anything else — a [`SegmentPlan`] spec string such as
//!   `classifier=simd;tile=off;backend=threads:8`, parsed through
//!   `SegmentPlan::from_str`.
//!
//! Whatever the spelling, the resolved plan's output is byte-identical to
//! the exact serial reference — `--plan` only moves cost, never labels.

use iqft_seg::IqftClassifier;
use seg_engine::calibrate::calibrate;
use seg_engine::{CalibrationConfig, CalibrationReport, SegmentPlan};

/// A `--plan` flag resolved into a concrete [`SegmentPlan`], with the
/// calibration evidence kept when the plan came from `--plan auto`.
#[derive(Debug, Clone)]
pub(crate) struct ResolvedPlan {
    /// The plan every stage of the run executes with.
    pub plan: SegmentPlan,
    /// The probe sweep behind the plan (`Some` only for `--plan auto`).
    pub calibration: Option<CalibrationReport>,
}

impl ResolvedPlan {
    /// One-line provenance for stats and reports: the calibration summary
    /// plus the per-probe timings when the plan was probed, empty when it
    /// was spelled out explicitly.  This is the string `serve` hands to
    /// [`iqft_serve::ServerConfig::with_calibration`], so a `loadgen` stats
    /// poll can see *why* the daemon runs the plan it runs.
    pub(crate) fn calibration_summary(&self) -> String {
        match &self.calibration {
            Some(report) => format!("{} probes:{}", report.summary(), report.probe_log()),
            None => String::new(),
        }
    }
}

/// Resolves a `--plan` flag; `fallback` supplies the per-axis-flags plan
/// used when the flag is empty (each subcommand owns its own flag set).
pub(crate) fn resolve_plan<F>(plan_flag: &str, fallback: F) -> Result<ResolvedPlan, String>
where
    F: FnOnce() -> Result<SegmentPlan, String>,
{
    match plan_flag.trim() {
        "" => Ok(ResolvedPlan {
            plan: fallback()?,
            calibration: None,
        }),
        "auto" => {
            let report = calibrate(&CalibrationConfig::default(), IqftClassifier::paper_default);
            Ok(ResolvedPlan {
                plan: report.plan,
                calibration: Some(report),
            })
        }
        spec => Ok(ResolvedPlan {
            plan: spec.parse()?,
            calibration: None,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seg_engine::{ClassifierKind, SegmentEngine};

    #[test]
    fn empty_flag_defers_to_the_fallback() {
        let resolved = resolve_plan("", || {
            Ok(SegmentPlan::default().with_classifier(ClassifierKind::Simd))
        })
        .unwrap();
        assert_eq!(resolved.plan.classifier(), ClassifierKind::Simd);
        assert!(resolved.calibration.is_none());
        assert_eq!(resolved.calibration_summary(), "");
    }

    #[test]
    fn explicit_specs_parse_and_fallback_errors_propagate() {
        let resolved = resolve_plan("classifier=table;tile=off;backend=serial", || {
            unreachable!("fallback must not run for an explicit spec")
        })
        .unwrap();
        assert_eq!(resolved.plan.backend(), SegmentEngine::serial().backend());
        assert_eq!(resolved.plan.classifier(), ClassifierKind::Table);
        assert!(resolve_plan("classifier=warp", || Ok(SegmentPlan::default())).is_err());
        assert!(resolve_plan("tile=16x8", || Ok(SegmentPlan::default())).is_err());
        assert!(resolve_plan("", || Err("bad flags".to_string())).is_err());
    }

    #[test]
    fn auto_probes_the_host_and_reports_its_evidence() {
        let resolved = resolve_plan("auto", || unreachable!()).unwrap();
        let report = resolved.calibration.as_ref().expect("auto calibrates");
        assert!(!report.probes.is_empty());
        let summary = resolved.calibration_summary();
        assert!(summary.contains("cores="), "{summary}");
        assert!(summary.contains("probes:"), "{summary}");
        assert!(!summary.contains('\n'), "stats values are single-line");
        // The winner is one of the probed candidates.
        assert!(report.probes.iter().any(|p| p.plan == resolved.plan));
    }
}
