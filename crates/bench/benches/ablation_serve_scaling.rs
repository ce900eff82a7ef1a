//! Ablation A6: evented serving-core connection scaling — the reactor's
//! reason to exist is holding a thousand-plus connections on two threads
//! with flat per-connection memory, where a thread-per-connection core pays
//! a stack per peer.
//!
//! For each sweep point `n` in {64, 256, 1024} the setup boots one evented
//! server in-process, dials `n` persistent connections (each completes a
//! ping so it is fully registered with a reactor), and measures the
//! process-wide RSS growth the connections cost, from `/proc/self/status`
//! `VmRSS`.  The measured loop then round-trips a ping on every one of the
//! `n` held connections — one full sweep of the reactor's registration
//! table per iteration, so a connection the reactor lost would hang the
//! bench rather than silently pass.
//!
//! The per-connection RSS delta rides in the record's throughput column
//! (`Throughput::Elements(bytes_per_connection)`), which is what the
//! `check_baselines` flat-memory check reads back: the 1024-connection leg
//! must stay bounded in absolute terms and close to the 64-connection leg.
//!
//! Snapshot a baseline with `CRITERION_JSON=BENCH_serve_scaling.json
//! cargo bench --bench ablation_serve_scaling`.

use bench::synthetic_rgb;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use iqft_pipeline::CacheConfig;
use iqft_serve::{Client, ClientConfig, Server, ServerConfig};
use seg_engine::SegmentPlan;
use std::time::Duration;

const SWEEP: [usize; 3] = [64, 256, 1024];

/// Resident set size of this process in bytes (`VmRSS`), or 0 where
/// `/proc/self/status` does not exist (non-Linux).  The sweep still runs
/// there; only the memory column degenerates.
fn rss_bytes() -> usize {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| {
            let rest = line.strip_prefix("VmRSS:")?;
            let kb: usize = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            Some(kb * 1024)
        })
        .unwrap_or(0)
}

fn bench(c: &mut Criterion) {
    // 1024 clients plus their server-side halves far exceed the common 1024
    // soft descriptor limit.
    #[cfg(unix)]
    iqft_serve::poll::raise_nofile_limit(8192);

    let mut group = c.benchmark_group("ablation_serve_scaling");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    let image = synthetic_rgb(64, 48, 4100);
    for n in SWEEP {
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                plan: SegmentPlan::default(),
                max_inflight: 2,
                cache: CacheConfig::with_capacity_mb(16),
                ..ServerConfig::default()
            },
        )
        .expect("bind evented server");
        let addr = server.local_addr();

        // Dial the held connections and settle them (one ping each) before
        // sampling RSS, so the delta reflects steady-state registered
        // connections, not half-dialed sockets.
        let before = rss_bytes();
        let mut conns: Vec<Client> = (0..n)
            .map(|i| {
                let config = ClientConfig::new(addr.to_string())
                    .with_connect_deadline(Duration::from_secs(10));
                let mut client = Client::open(&config)
                    .unwrap_or_else(|e| panic!("dial connection {i}/{n}: {e}"));
                client.ping().expect("settle ping");
                client
            })
            .collect();
        // One request with a real payload proves the data path works at this
        // connection count (and faults in the pipeline's arenas exactly once
        // per sweep point, keeping them out of the per-connection delta).
        conns[0]
            .segment_cached(&image, false)
            .expect("segment")
            .unwrap_done();
        let after = rss_bytes();
        let per_conn = after.saturating_sub(before) / n;

        group.throughput(Throughput::Elements(per_conn.max(1) as u64));
        group.bench_with_input(
            BenchmarkId::new("connections", format!("evented_{n}")),
            &n,
            {
                let conns = &mut conns;
                move |b, _| {
                    b.iter(|| {
                        for conn in conns.iter_mut() {
                            conn.ping().expect("swept ping");
                        }
                    })
                }
            },
        );

        conns[0].shutdown().expect("shutdown");
        drop(conns);
        server.join();
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
