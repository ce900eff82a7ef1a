//! Run the segmentation service end to end in one process: boot an
//! `iqft-serve` daemon (with a result cache) on an ephemeral loopback port,
//! segment a synthetic scene over the wire, compare against a local pass,
//! hit the cache, pipeline a burst of requests, read the server's
//! statistics, and drain it.
//!
//! ```text
//! cargo run --release --example segmentation_service
//! ```
//!
//! For a real deployment shape (daemon in one process, traffic from
//! another), use the CLI instead:
//!
//! ```text
//! iqft-experiments serve   --addr 127.0.0.1:7870 --classifier table --tile 48x48 --cache-mb 64
//! iqft-experiments loadgen --addr 127.0.0.1:7870 --clients 4 --images 32 \
//!                          --pipeline 4 --repeat-ratio 0.8 --shutdown
//! ```

use datasets::{PascalVocLikeConfig, PascalVocLikeDataset};
use imaging::Segmenter;
use iqft_pipeline::CacheConfig;
use iqft_seg::IqftRgbSegmenter;
use iqft_serve::{Client, ClientConfig, SegmentOutcome, Server, ServerConfig};
use seg_engine::{SegmentPlan, Tiling};

fn main() {
    // 1. Boot the daemon: one warm pipeline (phase-table classifier, tiled
    //    fan-out) plus a 64 MiB content-addressed result cache behind a TCP
    //    listener on an ephemeral port.
    let plan = SegmentPlan::default().with_tiling(Tiling::Tiles {
        width: 48,
        height: 48,
    });
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig::new(plan)
            .with_max_inflight(2)
            .with_cache(CacheConfig::with_capacity_mb(64)),
    )
    .expect("bind loopback");
    println!("serving on {} with plan [{plan}]", server.local_addr());

    // 2. Get an image (one synthetic PASCAL-VOC-like scene).
    let sample = PascalVocLikeDataset::new(PascalVocLikeConfig {
        len: 1,
        width: 160,
        height: 120,
        seed: 7,
        ..PascalVocLikeConfig::default()
    })
    .sample(0);

    // 3. Segment it over the wire.  The client is built from a
    //    `ClientConfig` — endpoints, pipeline depth and deadlines all live
    //    on the config.
    let config = ClientConfig::new(server.local_addr().to_string()).with_pipeline_depth(4);
    let mut client = Client::open(&config).expect("connect");
    client.ping().expect("ping");
    let (remote, _) = client
        .segment(&sample.image)
        .expect("segment over the wire")
        .unwrap_done();

    // 4. The reply is byte-identical to a local in-process pass.
    let local = IqftRgbSegmenter::paper_default().segment_rgb(&sample.image);
    assert_eq!(remote, local, "wire output must match the local pass");
    println!(
        "segmented {}x{} over the wire; byte-identical to the local pass",
        sample.image.width(),
        sample.image.height()
    );

    // 5. The same image through the cache: the first cached request misses
    //    and stores, the second is answered from the cache — byte-identical.
    let (miss, was_hit) = client
        .segment_cached(&sample.image, false)
        .expect("cached segment (miss)")
        .unwrap_done();
    assert!(!was_hit, "cold cache must miss");
    let (hit, was_hit) = client
        .segment_cached(&sample.image, false)
        .expect("cached segment (hit)")
        .unwrap_done();
    assert!(was_hit, "warm cache must hit");
    assert_eq!(miss, local);
    assert_eq!(hit, local, "cache hit must be byte-identical");
    println!("cache hit byte-identical to the fresh segmentation");

    // 6. Pipeline a burst: four requests in flight on one connection (the
    //    config's pipeline depth), replies matched back by id.
    let burst = vec![&sample.image; 4];
    let replies = client
        .segment_pipelined(&burst, true)
        .expect("pipelined burst");
    assert!(replies.iter().all(|reply| matches!(
        reply,
        SegmentOutcome::Done { labels, cached: true } if labels == &local
    )));
    println!("pipelined burst of {} served from the cache", replies.len());

    // 7. Ask the server how it is doing.
    let stats = client.stats().expect("stats");
    println!(
        "server stats: {} requests ({} segment), {:.3} Mpx, arena {} reuses / {} allocations, \
         cache {} hits / {} misses",
        stats.requests_total,
        stats.segment_requests,
        stats.pixels_total as f64 / 1e6,
        stats.arena_reuses,
        stats.arena_allocations,
        stats.cache_hits,
        stats.cache_misses,
    );

    // 8. Drain and stop.
    client.shutdown().expect("shutdown");
    server.join();
    println!("server drained and stopped");
}
