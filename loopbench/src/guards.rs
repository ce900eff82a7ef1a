//! Exact-count guards: the counts that define each workload, checked on
//! every run.  A failed guard means the run measured some other workload
//! (a cache that holds the "fresh" set, or one that stores nothing), so the
//! run fails loudly instead of reporting numbers.

use crate::daemon::Counters;
use crate::workload::{entry_bytes, plan, Shape, Workload, CONNECTIONS};
use iqft_serve::StatsSnapshot;

fn expect(what: &str, got: u64, want: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got}, expected exactly {want}"))
    }
}

/// The state the warm-up pass must leave the daemon in:
/// `fresh_frames` full and evicting, `repeat_hits` holding the whole hot
/// set, `video_delta` with its tile cache at its budget.
pub fn check_steady(shape: &Shape, s: &StatsSnapshot) -> Result<(), String> {
    let name = shape.workload.name();
    let at = |what: &str| format!("{name} set-up: {what}");
    expect(&at("busy rejections"), s.busy_rejections as u64, 0)?;
    expect(&at("protocol errors"), s.protocol_errors as u64, 0)?;
    let free = s.cache_capacity_bytes.saturating_sub(s.cache_bytes);
    let full = |largest_entry: usize| -> Result<(), String> {
        if s.cache_evictions == 0 {
            return Err(at(
                "the cache evicted nothing, so it is not full and evicting",
            ));
        }
        let slack = shape.cache.effective_shards() * largest_entry;
        if free >= slack {
            return Err(at(&format!(
                "{free} of {} cache bytes are free; a full cache leaves less than {slack}",
                s.cache_capacity_bytes
            )));
        }
        Ok(())
    };
    match shape.workload {
        Workload::FreshFrames => full(entry_bytes(shape.width * shape.height)),
        Workload::RepeatHits => {
            let hot = (CONNECTIONS * shape.frames_per_conn) as u64;
            expect(&at("resident hot-set entries"), s.cache_entries as u64, hot)?;
            expect(&at("evictions"), s.cache_evictions as u64, 0)
        }
        Workload::VideoDelta => {
            let (tw, th) = plan().tiling().delta_shape();
            full(entry_bytes(tw * th))
        }
    }
}

/// What a timed phase counted, from the replies and from the daemon.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseCounts {
    /// Segment replies received.
    pub replies: u64,
    /// Replies flagged as served from the cache.
    pub replies_cached: u64,
    /// The daemon's counter changes over the phase.
    pub daemon: Counters,
    /// Tiles recomputed in each clip pass, both cameras summed
    /// (`video_delta` only).
    pub recomputed_per_pass: Vec<u64>,
    /// Tiles stitched from the cache in each clip pass.
    pub tiles_hit_per_pass: Vec<u64>,
}

/// The counts that define each workload, over one timed phase.
pub fn check_phase(workload: Workload, c: &PhaseCounts) -> Result<(), String> {
    let name = workload.name();
    let at = |what: &str| format!("{name}: {what}");
    expect(&at("busy rejections"), c.daemon.busy_rejections, 0)?;
    expect(&at("protocol errors"), c.daemon.protocol_errors, 0)?;
    match workload {
        Workload::FreshFrames => {
            expect(&at("cache hits"), c.daemon.hits, 0)?;
            expect(&at("replies served from the cache"), c.replies_cached, 0)?;
            expect(&at("cache misses"), c.daemon.misses, c.replies)?;
            expect(
                &at("evictions (one per request)"),
                c.daemon.evictions,
                c.replies,
            )
        }
        Workload::RepeatHits => {
            expect(&at("cache misses"), c.daemon.misses, 0)?;
            expect(&at("cache hits"), c.daemon.hits, c.replies)?;
            expect(
                &at("replies served from the cache"),
                c.replies_cached,
                c.replies,
            )
        }
        Workload::VideoDelta => {
            let Some(&first) = c.recomputed_per_pass.first() else {
                return Err(at("no clip pass completed"));
            };
            if c.recomputed_per_pass.iter().any(|&n| n != first) {
                return Err(at(&format!(
                    "recomputed tiles differ between clip passes: {:?}",
                    c.recomputed_per_pass
                )));
            }
            if c.tiles_hit_per_pass.contains(&0) {
                return Err(at("a clip pass hit no cached tile"));
            }
            let recomputed: u64 = c.recomputed_per_pass.iter().sum();
            expect(
                &at("daemon-counted recomputed tiles"),
                c.daemon.tiles_recomputed,
                recomputed,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    //! Each guard must fire on a deliberately mis-sized cache: a real daemon
    //! is booted on small frames and driven for a few requests.
    use super::*;
    use crate::daemon::Daemon;
    use crate::drive::run_phase;
    use crate::workload::{build_inputs, tiles_per_frame};
    use iqft_pipeline::CacheConfig;

    fn shape(workload: Workload, cache: CacheConfig) -> Shape {
        // Whole 64x64 tiles only, so a video budget counts tiles exactly.
        Shape {
            width: 256,
            height: 128,
            frames_per_conn: if workload == Workload::VideoDelta {
                12
            } else {
                4
            },
            cache,
            ..workload.shape()
        }
    }

    /// Boots, runs a phase of `seconds`, and returns the set-up check and
    /// the phase check.
    fn run(shape: &Shape, seconds: f64) -> (Result<(), String>, Result<(), String>) {
        let inputs = build_inputs(shape, 11);
        let booted = Daemon::boot(shape, &inputs);
        let (mut daemon, steady) = match booted {
            Ok((daemon, _)) => (daemon, Ok(())),
            // Re-boot without the check so the phase guard is exercised too.
            Err(e) => (
                Daemon::boot_unchecked(shape, &inputs).expect("boot"),
                Err(e),
            ),
        };
        let phase = run_phase(
            &mut daemon,
            shape,
            &inputs,
            &[shape.frames_per_conn; CONNECTIONS],
            seconds,
            None,
        );
        assert_eq!(phase.failed, 0, "{:?}", phase.errors);
        daemon.stop();
        (steady, check_phase(shape.workload, &phase.counts))
    }

    fn entry(shape: &Shape) -> usize {
        entry_bytes(shape.width * shape.height)
    }

    #[test]
    fn fresh_frames_guards_pass_when_sized_and_fire_when_not() {
        let probe = shape(Workload::FreshFrames, CacheConfig::default());
        let sized = CacheConfig {
            capacity_bytes: 3 * entry(&probe),
            shards: 1,
        };
        let (steady, phase) = run(&shape(Workload::FreshFrames, sized), 0.3);
        assert_eq!((steady, phase), (Ok(()), Ok(())));
        // A cache that holds the whole cycled set: hits, no evictions.
        let roomy = CacheConfig {
            capacity_bytes: 8 * entry(&probe),
            shards: 1,
        };
        let (steady, phase) = run(&shape(Workload::FreshFrames, roomy), 0.3);
        assert!(steady.unwrap_err().contains("evicted nothing"));
        assert!(phase.unwrap_err().contains("cache hits"));
        // The same budget split over eight shards stores nothing at all.
        let split = CacheConfig {
            capacity_bytes: 3 * entry(&probe),
            shards: 8,
        };
        let (steady, phase) = run(&shape(Workload::FreshFrames, split), 0.3);
        assert!(steady.unwrap_err().contains("evicted nothing"));
        assert!(phase.unwrap_err().contains("evictions"));
    }

    #[test]
    fn repeat_hits_guards_pass_when_sized_and_fire_when_not() {
        let probe = shape(Workload::RepeatHits, CacheConfig::default());
        let (steady, phase) = run(
            &shape(Workload::RepeatHits, CacheConfig::with_capacity_mb(8)),
            0.3,
        );
        assert_eq!((steady, phase), (Ok(()), Ok(())));
        // Room for five of the eight hot frames: the hot set thrashes.
        let small = CacheConfig {
            capacity_bytes: 5 * entry(&probe),
            shards: 1,
        };
        let (steady, phase) = run(&shape(Workload::RepeatHits, small), 0.3);
        assert!(steady.unwrap_err().contains("resident hot-set entries"));
        assert!(phase.unwrap_err().contains("cache misses"));
    }

    #[test]
    fn video_delta_guards_pass_when_sized_and_fire_when_not() {
        let probe = shape(Workload::VideoDelta, CacheConfig::default());
        let tiles = tiles_per_frame(probe.width, probe.height);
        let budget = |frames: usize, shards: usize| CacheConfig {
            capacity_bytes: frames * CONNECTIONS * tiles * entry_bytes(64 * 64),
            shards,
        };
        let (steady, phase) = run(&shape(Workload::VideoDelta, budget(2, 1)), 1.0);
        assert_eq!((steady, phase), (Ok(()), Ok(())));
        // A budget split so thin no tile fits one shard: nothing is stored.
        let (steady, phase) = run(
            &shape(
                Workload::VideoDelta,
                CacheConfig {
                    capacity_bytes: 32 * 1024,
                    shards: 8,
                },
            ),
            1.0,
        );
        assert!(steady.unwrap_err().contains("evicted nothing"));
        assert!(phase.unwrap_err().contains("hit no cached tile"));
        // A budget that holds the whole clip: nothing is ever evicted.
        let (steady, _) = run(
            &shape(Workload::VideoDelta, budget(4 * probe.frames_per_conn, 1)),
            1.0,
        );
        assert!(steady.unwrap_err().contains("evicted nothing"));
    }

    #[test]
    fn unequal_passes_fire() {
        let counts = PhaseCounts {
            recomputed_per_pass: vec![40, 40, 41],
            tiles_hit_per_pass: vec![900, 900, 899],
            ..PhaseCounts::default()
        };
        assert!(check_phase(Workload::VideoDelta, &counts)
            .unwrap_err()
            .contains("differ"));
    }
}
