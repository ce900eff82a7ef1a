//! Ablation A7: fleet hit-path scaling — the consistent-hash fleet's
//! reason to exist is multiplying a daemon's *cache capacity*: each daemon
//! owns a stable slice of the key space, so adding daemons adds resident
//! cache without any coordination between them.
//!
//! For each sweep point `n` in {1, 2, 4} the setup boots `n` cached
//! daemons in-process, each with an LRU budget of 20 entries against a
//! 24-image working set.  One daemon cannot hold the set: a cyclic scan
//! through 24 keys over a 20-entry LRU evicts every key before its next
//! use, so every request recomputes (the plan runs the exact classifier —
//! the expensive path the cache exists to skip).  Two daemons own ~12 keys
//! each, the whole set is resident, and every request is answered from the
//! cache.  The measured loop drives one pipelined [`FleetClient`] pass
//! over the working set (requests routed by content hash, per-endpoint
//! bursts), so the recorded rate is aggregate throughput of serving the
//! working set — hit-path fast exactly when the fleet's combined budget
//! covers it.
//!
//! The `check_baselines` semantic block for `BENCH_fleet.json` requires
//! the 2-daemon rate to beat 1.5x the single daemon's — the fleet's
//! headline claim, recorded and guarded.  (On the recording host the real
//! margin is several-fold: a thrashing daemon pays an exact-classifier
//! pass per request, a resident fleet pays a key and a lookup.)
//!
//! Snapshot a baseline with `CRITERION_JSON=BENCH_fleet.json
//! cargo bench --bench ablation_fleet`.

use bench::synthetic_rgb;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use imaging::RgbImage;
use iqft_pipeline::CacheConfig;
use iqft_serve::{ClientConfig, FleetClient, Server, ServerConfig};
use seg_engine::{ClassifierKind, SegmentPlan};
use std::time::Duration;

const SWEEP: [usize; 3] = [1, 2, 4];
const IMAGES: usize = 24;
/// Per-daemon LRU budget in entries: four short of the working set, so a
/// single daemon is guaranteed to thrash on a cyclic scan while any fleet
/// split (~12 keys per daemon at `n = 2`) stays fully resident.
const BUDGET_ENTRIES: usize = 20;

fn bench(c: &mut Criterion) {
    #[cfg(unix)]
    iqft_serve::poll::raise_nofile_limit(4096);

    let mut group = c.benchmark_group("ablation_fleet");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    let images: Vec<RgbImage> = (0..IMAGES)
        .map(|i| synthetic_rgb(96, 72, 8600 + i as u64))
        .collect();
    let refs: Vec<&RgbImage> = images.iter().collect();
    // Label bytes plus the cache's per-entry bookkeeping overhead.
    let entry_bytes = 96 * 72 * 4 + 96;

    for n in SWEEP {
        // The exact classifier makes a miss pay the full price the cache
        // exists to skip; a single LRU shard keeps the thrash-vs-resident
        // boundary deterministic.
        let servers: Vec<Server> = (0..n)
            .map(|_| {
                Server::bind(
                    "127.0.0.1:0",
                    ServerConfig::new(
                        SegmentPlan::default().with_classifier(ClassifierKind::Exact),
                    )
                    .with_max_inflight(2)
                    .with_cache(CacheConfig {
                        capacity_bytes: entry_bytes * BUDGET_ENTRIES,
                        shards: 1,
                    }),
                )
                .expect("bind fleet daemon")
            })
            .collect();
        let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();

        let config = ClientConfig::fleet(addrs.iter().cloned()).with_pipeline_depth(8);
        let mut fleet = FleetClient::open(&config).expect("open fleet client");

        // Warm pass, then prove the capacity story before measuring: a
        // fleet of two or more holds the whole working set (every repeat
        // hits); one daemon cannot (the cyclic scan keeps evicting).
        fleet.segment_pipelined(&refs, true).expect("warm fill");
        let check = fleet.segment_pipelined(&refs, true).expect("warm check");
        let hits = check.iter().filter(|reply| reply.cached()).count();
        if n >= 2 {
            assert_eq!(hits, IMAGES, "fleet of {n} must hold the whole set");
        } else {
            assert!(hits < IMAGES, "one daemon must thrash on {IMAGES} keys");
        }

        group.throughput(Throughput::Elements(IMAGES as u64));
        group.bench_with_input(
            BenchmarkId::new("daemons", format!("fleet_{n}")),
            &n,
            |b, _| {
                b.iter(|| {
                    let replies = fleet.segment_pipelined(&refs, true).expect("fleet pass");
                    assert_eq!(replies.len(), IMAGES);
                    for reply in &replies {
                        assert!(reply.labels().is_some(), "every request must be served");
                    }
                })
            },
        );

        assert_eq!(fleet.shutdown_all(), n, "every daemon acknowledges drain");
        for server in servers {
            server.join();
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
