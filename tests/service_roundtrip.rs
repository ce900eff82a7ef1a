//! Loopback integration tests for the `iqft-serve` daemon.
//!
//! The acceptance bar for the serving layer: output through the wire is
//! **byte-identical** to a direct `SegmentEngine::segment_rgb` pass for
//! every classifier kind, under concurrent clients, and graceful shutdown
//! drains in-flight requests — a request whose bytes reached the server is
//! always answered.

use imaging::{LabelMap, Rgb, RgbImage};
use iqft_pipeline::CacheConfig;
use iqft_seg::IqftClassifier;
use iqft_serve::{protocol, Client, ClientConfig, Message, SegmentOutcome, Server, ServerConfig};
use seg_engine::{ClassifierKind, SegmentEngine, SegmentPlan};
use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};
use xpar::Backend;

/// Unwraps a pipelined [`SegmentOutcome`]; the daemon never sheds, so a
/// Busy reply would be a bug.
fn done(outcome: &SegmentOutcome) -> (&LabelMap, bool) {
    match outcome {
        SegmentOutcome::Done { labels, cached } => (labels, *cached),
        other => panic!("expected Done, got {other:?}"),
    }
}

/// Opens a client on the new builder config; single-endpoint tests only
/// need the address.
fn open_client(addr: std::net::SocketAddr) -> std::io::Result<Client> {
    Client::open(&ClientConfig::new(addr.to_string()))
}

/// Same, with an explicit pipeline window for the burst tests.
fn open_client_depth(addr: std::net::SocketAddr, depth: usize) -> std::io::Result<Client> {
    Client::open(&ClientConfig::new(addr.to_string()).with_pipeline_depth(depth))
}

fn test_images(count: usize) -> Vec<RgbImage> {
    (0..count)
        .map(|i| {
            RgbImage::from_fn(41 + i % 7, 29 + i % 5, move |x, y| {
                Rgb::new(
                    (x * 13 + i * 31) as u8,
                    (y * 17 + i * 7) as u8,
                    ((x + y) * 11) as u8,
                )
            })
        })
        .collect()
}

fn reference_labels(images: &[RgbImage]) -> Vec<LabelMap> {
    let exact = IqftClassifier::paper_default(ClassifierKind::Exact);
    images
        .iter()
        .map(|img| SegmentEngine::serial().segment_rgb(&exact, img))
        .collect()
}

/// Concurrent clients × {exact, table, simd}: every reply must match the
/// direct engine pass byte for byte, on a serial daemon and on one that
/// splits each frame over two threads.
#[test]
fn concurrent_clients_get_byte_identical_labels_for_every_classifier() {
    let images = test_images(12);
    let reference = reference_labels(&images);
    for kind in ClassifierKind::ALL {
        for backend in [Backend::Serial, Backend::Threads(2)] {
            let plan = SegmentPlan::new(kind, backend);
            let server = Server::bind("127.0.0.1:0", ServerConfig::new(plan).with_max_inflight(2))
                .expect("ephemeral bind");
            let addr = server.local_addr();

            let clients = 3usize;
            std::thread::scope(|scope| {
                for client_idx in 0..clients {
                    let images = &images;
                    let reference = &reference;
                    scope.spawn(move || {
                        let mut client = open_client(addr).expect("connect");
                        client.ping().expect("ping");
                        for (idx, img) in images.iter().enumerate() {
                            if idx % clients != client_idx {
                                continue;
                            }
                            let (labels, _) = client.segment(img).expect("segment").unwrap_done();
                            assert_eq!(
                                labels, reference[idx],
                                "image {idx} via {kind} {backend:?}"
                            );
                        }
                    });
                }
            });

            let mut probe = open_client(addr).expect("probe connect");
            let stats = probe.stats().expect("stats");
            assert_eq!(stats.segment_requests, images.len(), "{kind} {backend:?}");
            assert_eq!(
                stats.pixels_total,
                images.iter().map(|i| i.len() as u64).sum::<u64>()
            );
            assert_eq!(stats.plan, plan.to_spec());
            assert_eq!(stats.plan.parse::<SegmentPlan>().unwrap(), plan);
            probe.shutdown().expect("shutdown ack");
            server.join();
        }
    }
}

/// Graceful shutdown must answer requests whose bytes were already on the
/// wire: N connections each write a Segment frame *without reading*, then a
/// separate connection sends Shutdown, and only afterwards do the clients
/// read — every reply must still arrive, byte-identical.
#[test]
fn shutdown_drains_in_flight_requests_without_losing_replies() {
    let images = test_images(4);
    let reference = reference_labels(&images);
    let server = Server::bind(
        "127.0.0.1:0",
        // One reactor serialises execution to keep requests queued longer.
        ServerConfig::new(SegmentPlan::default()).with_max_inflight(1),
    )
    .expect("ephemeral bind");
    let addr = server.local_addr();

    // Write one frame per connection, do not read yet.
    let mut streams: Vec<TcpStream> = Vec::new();
    for (idx, img) in images.iter().enumerate() {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let frame = protocol::encode_message(idx as u64, &Message::Segment { image: img.clone() })
            .expect("encode");
        stream.write_all(&frame).expect("write frame");
        stream.flush().expect("flush");
        streams.push(stream);
    }

    // Shut the server down while those requests are in flight.
    let mut ctl = open_client(addr).expect("ctl connect");
    ctl.shutdown().expect("shutdown ack");

    // Every already-sent request still gets its reply before the drain
    // ends.
    for (idx, mut stream) in streams.into_iter().enumerate() {
        let (id, reply) = protocol::read_message(&mut stream).expect("reply arrives");
        assert_eq!(id, idx as u64);
        match reply {
            Message::SegmentReply { labels } => {
                assert_eq!(labels, reference[idx], "in-flight image {idx}")
            }
            other => panic!("expected SegmentReply for image {idx}, got {other:?}"),
        }
    }
    server.join();

    // The drained server is really gone: fresh traffic fails.
    let refused = match open_client(addr) {
        Err(_) => true,
        Ok(mut client) => client.ping().is_err(),
    };
    assert!(refused, "server accepted traffic after draining");
}

/// Protocol v2: a v1 client hitting a v2 server gets a *typed* version
/// error frame — no panic, no hang, and the diagnostic names both versions.
#[test]
fn v1_client_gets_a_typed_version_error_not_a_hang() {
    let server =
        Server::bind("127.0.0.1:0", ServerConfig::new(SegmentPlan::default())).expect("bind");
    let addr = server.local_addr();

    // Hand-roll a v1 frame: a valid v2 Ping frame with the version field
    // patched back to 1 — exactly the bytes a v1 client would send.
    let mut frame = protocol::encode_message(77, &Message::Ping).expect("encode");
    frame[4..6].copy_from_slice(&1u16.to_le_bytes());
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(&frame).expect("write v1 frame");

    let (id, reply) = protocol::read_message(&mut stream).expect("typed error reply");
    assert_eq!(id, 77, "the version error echoes the v1 request id");
    match reply {
        Message::Error { message } => {
            assert!(message.contains("version 1"), "{message}");
            assert!(message.contains("expected 2"), "{message}");
        }
        other => panic!("expected a typed Error reply, got {other:?}"),
    }
    // The connection is closed after the error (framing may be lost)...
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("clean close");
    assert!(rest.is_empty());
    // ...and the server keeps serving v2 clients.
    let mut client = open_client(addr).expect("connect v2");
    client.ping().expect("still alive");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.protocol_errors, 1);
    client.shutdown().expect("shutdown");
    server.join();
}

/// Protocol v2 pipelining against a real server: a client streams all its
/// requests with several in flight and still gets every reply matched back
/// byte-identically, mixed cached and uncached.
#[test]
fn pipelined_requests_round_trip_byte_identically() {
    let images = test_images(10);
    let reference = reference_labels(&images);
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig::new(SegmentPlan::default())
            .with_max_inflight(2)
            .with_cache(CacheConfig::with_capacity_mb(16)),
    )
    .expect("bind");
    let mut client = open_client_depth(server.local_addr(), 4).expect("connect");

    // Repeated traffic: every image requested twice in one pipelined
    // burst.
    let refs: Vec<&RgbImage> = images.iter().chain(images.iter()).collect();
    let replies = client
        .segment_pipelined(&refs, true)
        .expect("pipelined segment");
    assert_eq!(replies.len(), 20);
    for (k, reply) in replies.iter().enumerate() {
        let (labels, _cached) = done(reply);
        assert_eq!(labels, &reference[k % images.len()], "request {k}");
    }
    // The second half repeats the first: the cache must have answered
    // them.
    let hits = replies.iter().filter(|reply| done(reply).1).count();
    assert_eq!(hits, 10, "every repeated image is a cache hit");

    // Plain (uncached) pipelining works over the same connection too.
    let replies = client
        .segment_pipelined(&refs[..6], false)
        .expect("uncached pipelined segment");
    for (k, reply) in replies.iter().enumerate() {
        let (labels, cached) = done(reply);
        assert_eq!(labels, &reference[k % images.len()]);
        assert!(!cached, "plain Segment never reports a cache hit");
    }
    client.shutdown().expect("shutdown");
    server.join();
}

/// Deadlock safety: a deep pipelined burst of frames far larger than any
/// socket buffer (here ~2.1 MB requests / ~2.8 MB replies, 16 in flight)
/// must complete — the client has to drain replies while it is still
/// writing requests, because the server stops reading a connection whose
/// unsent replies pile up.
#[test]
fn deep_pipelined_burst_of_large_frames_does_not_deadlock() {
    let image = RgbImage::from_fn(1000, 700, |x, y| {
        Rgb::new((x / 4) as u8, (y / 3) as u8, ((x + y) / 7) as u8)
    });
    let expected = SegmentEngine::serial().segment_rgb(
        &IqftClassifier::paper_default(ClassifierKind::Table),
        &image,
    );
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig::new(SegmentPlan::default())
            .with_max_inflight(2)
            .with_cache(CacheConfig::with_capacity_mb(64)),
    )
    .expect("bind");
    let mut client =
        open_client_depth(server.local_addr(), protocol::MAX_PIPELINE_DEPTH).expect("connect");
    let refs: Vec<&RgbImage> = (0..16).map(|_| &image).collect();
    let replies = client
        .segment_pipelined(&refs, true)
        .expect("deep burst completes");
    assert_eq!(replies.len(), 16);
    for (k, reply) in replies.iter().enumerate() {
        assert_eq!(done(reply).0, &expected, "request {k}");
    }
    let hits = replies.iter().filter(|reply| done(reply).1).count();
    assert_eq!(hits, 15, "all repeats served from the cache");
    client.shutdown().expect("shutdown");
    server.join();
}

/// The client's pipelined reader must not rely on reply order: a mock
/// server reads a whole burst and answers it back-to-front.  The client
/// still returns results in input order, byte-identically.
#[test]
fn pipelined_replies_arriving_out_of_order_are_reordered_by_id() {
    let images = test_images(6);
    let reference = reference_labels(&images);
    let listener = TcpListener::bind("127.0.0.1:0").expect("mock bind");
    let addr = listener.local_addr().expect("addr");

    let mock = {
        let reference = reference.clone();
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            // Collect the whole burst first...
            let mut requests = Vec::new();
            for _ in 0..6 {
                let (id, message) = protocol::read_message(&mut stream).expect("request");
                match message {
                    Message::SegmentCached { image, .. } => requests.push((id, image)),
                    other => panic!("mock expected SegmentCached, got {other:?}"),
                }
            }
            // ...then reply in reverse arrival order (a legal completion
            // order under protocol v2), alternating reply ops.
            for (k, (id, image)) in requests.into_iter().rev().enumerate() {
                let idx = images_index(&image);
                let labels = reference[idx].clone();
                let reply = if k % 2 == 0 {
                    Message::SegmentCachedReply {
                        labels,
                        cached: true,
                    }
                } else {
                    Message::SegmentReply { labels }
                };
                protocol::write_message(&mut stream, id, &reply).expect("reply");
            }
        })
    };

    // Identify which test image a mock-received frame carries.
    fn images_index(image: &RgbImage) -> usize {
        test_images(6)
            .iter()
            .position(|candidate| candidate == image)
            .expect("mock received an unknown image")
    }

    let mut client = open_client_depth(addr, 6).expect("connect");
    let refs: Vec<&RgbImage> = images.iter().collect();
    let replies = client
        .segment_pipelined(&refs, true)
        .expect("pipelined against mock");
    mock.join().expect("mock thread");
    assert_eq!(replies.len(), 6);
    for (k, reply) in replies.iter().enumerate() {
        assert_eq!(
            done(reply).0,
            &reference[k],
            "reply {k} reordered incorrectly"
        );
    }
}

/// Cache correctness under concurrency: several clients hammer the same
/// image set through the cache while eviction churns (tiny budget); every
/// reply — hit or miss — must be byte-identical to a fresh serial pass.
#[test]
fn concurrent_cached_clients_get_hit_and_miss_replies_byte_identical_to_fresh() {
    let images = test_images(8);
    let reference = reference_labels(&images);
    // A budget that holds only a few entries forces constant eviction.
    let entry_bytes = images[0].len() * 4 + 96;
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig::new(SegmentPlan::default())
            .with_max_inflight(3)
            .with_cache(CacheConfig {
                capacity_bytes: entry_bytes * 6,
                shards: 2,
            }),
    )
    .expect("bind");
    let addr = server.local_addr();

    std::thread::scope(|scope| {
        for client_idx in 0..3usize {
            let images = &images;
            let reference = &reference;
            scope.spawn(move || {
                let mut client = open_client(addr).expect("connect");
                for round in 0..4 {
                    for step in 0..images.len() {
                        // Stagger the orders so clients race on the same
                        // keys.
                        let idx = (step + client_idx * 3 + round) % images.len();
                        let (labels, _cached) = client
                            .segment_cached(&images[idx], false)
                            .expect("cached segment")
                            .unwrap_done();
                        assert_eq!(labels, reference[idx], "client {client_idx} image {idx}");
                    }
                }
            });
        }
    });

    let mut probe = open_client(addr).expect("probe");
    let stats = probe.stats().expect("stats");
    assert!(stats.cache_hits > 0, "repeated traffic must hit: {stats:?}");
    assert!(stats.cache_misses > 0, "cold keys must miss: {stats:?}");
    assert!(
        stats.cache_bytes <= entry_bytes * 6,
        "budget respected: {stats:?}"
    );
    probe.shutdown().expect("shutdown");
    server.join();
}

/// `segment` on an empty (0×0) image round-trips; malformed dimensions are
/// answered with a protocol error frame, not a dead connection.
#[test]
fn degenerate_and_malformed_requests_are_handled_cleanly() {
    let server =
        Server::bind("127.0.0.1:0", ServerConfig::new(SegmentPlan::default())).expect("bind");
    let addr = server.local_addr();

    let empty = RgbImage::from_fn(0, 0, |_, _| Rgb::new(0, 0, 0));
    let mut client = open_client(addr).expect("connect");
    let (labels, _) = client.segment(&empty).expect("empty segment").unwrap_done();
    assert_eq!(labels.len(), 0);

    // A Segment frame whose payload length disagrees with its
    // dimensions.
    let mut stream = TcpStream::connect(addr).expect("connect raw");
    let mut frame = protocol::encode_message(
        9,
        &Message::Segment {
            image: RgbImage::from_fn(4, 4, |_, _| Rgb::new(1, 2, 3)),
        },
    )
    .expect("encode");
    // Corrupt the declared width (payload starts after the 20-byte
    // header).
    frame[protocol::HEADER_LEN..protocol::HEADER_LEN + 4].copy_from_slice(&100u32.to_le_bytes());
    stream.write_all(&frame).expect("write");
    let (id, reply) = protocol::read_message(&mut stream).expect("error reply");
    assert_eq!(id, 9);
    assert!(
        matches!(reply, Message::Error { ref message } if message.contains("payload")),
        "{reply:?}"
    );

    // The server survived the malformed frame.
    client.ping().expect("still alive");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.protocol_errors, 1);
    client.shutdown().expect("shutdown");
    server.join();
}

/// The streaming-video delta path through the wire: stitched
/// `SegmentDelta` replies must be byte-identical to a fresh serial pass for
/// both kinds of tiling a frame gets from the 64×64 delta tiles — one they
/// divide exactly and one that leaves ragged edge tiles — every fast-path
/// classifier, and change rates from a static scene to a full rewrite; and
/// the per-reply tile counters must account for every tile.
#[test]
fn video_delta_replies_are_byte_identical_across_tilings_classifiers_and_change_rates() {
    let exact = IqftClassifier::paper_default(ClassifierKind::Exact);
    // 128x64 is two whole tiles; 160x100 is a 3x2 grid with a ragged right
    // column and bottom row.
    for (width, height, tiles) in [(128usize, 64usize, 2u64), (160, 100, 6)] {
        for kind in [ClassifierKind::Table, ClassifierKind::Simd] {
            let plan = SegmentPlan::default().with_classifier(kind);
            let (tile_w, tile_h) = plan.tiling().delta_shape();
            let tiles_per_frame = (width.div_ceil(tile_w) * height.div_ceil(tile_h)) as u64;
            assert_eq!(tiles_per_frame, tiles);
            let server = Server::bind(
                "127.0.0.1:0",
                ServerConfig::new(plan)
                    .with_max_inflight(2)
                    .with_cache(CacheConfig::with_capacity_mb(16)),
            )
            .expect("bind");
            let mut client = open_client(server.local_addr()).expect("connect");
            let shape = format!("{kind} {width}x{height}");

            for change_rate in [0.0, 0.5, 1.0] {
                let frames = datasets::synthetic_video(&datasets::VideoConfig {
                    frames: 4,
                    width,
                    height,
                    change_rate,
                    block: 32,
                    seed: 42,
                });
                for (idx, frame) in frames.iter().enumerate() {
                    let (reply, hit, recomputed) =
                        client.segment_delta(frame).expect("segment delta");
                    let (labels, _) = reply.unwrap_done();
                    let fresh = SegmentEngine::serial().segment_rgb(&exact, frame);
                    assert_eq!(labels, fresh, "frame {idx} cr={change_rate} {shape}");
                    assert_eq!(
                        u64::from(hit) + u64::from(recomputed),
                        tiles_per_frame,
                        "tile accounting, frame {idx} cr={change_rate} {shape}"
                    );
                    // A static scene after the first frame is pure hits.
                    if change_rate == 0.0 && idx > 0 {
                        assert_eq!(
                            recomputed, 0,
                            "static frame {idx} recomputed tiles ({shape})"
                        );
                    }
                }
            }

            let stats = client.stats().expect("stats");
            assert!(stats.delta_tiles_hit > 0, "{shape}: {stats:?}");
            assert!(stats.delta_tiles_recomputed > 0, "{shape}: {stats:?}");
            client.shutdown().expect("shutdown");
            server.join();
        }
    }
}

/// Delta correctness under concurrency and eviction churn: several clients
/// stream *different* videos through one server whose tile cache holds only
/// a fraction of the working set, so tiles race in and out of the cache the
/// whole time.  Every stitched reply must still match a fresh serial pass.
#[test]
fn concurrent_video_clients_stay_byte_identical_under_forced_tile_eviction() {
    // 192x96 is 6 tiles of 64x64 (the bottom row ragged) at up to 16 KiB
    // of labels each; a budget of four full entries cannot hold even one
    // frame, forcing constant eviction.
    let (width, height) = (192usize, 96usize);
    let tile_entry_bytes = 64 * 64 * 4 + 96;
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig::new(SegmentPlan::default())
            .with_max_inflight(3)
            .with_cache(CacheConfig {
                capacity_bytes: tile_entry_bytes * 4,
                shards: 2,
            }),
    )
    .expect("bind");
    let addr = server.local_addr();

    std::thread::scope(|scope| {
        for client_idx in 0..3u64 {
            scope.spawn(move || {
                let frames = datasets::synthetic_video(&datasets::VideoConfig {
                    frames: 6,
                    width,
                    height,
                    change_rate: 0.5,
                    block: 32,
                    seed: 1000 + client_idx,
                });
                let exact = IqftClassifier::paper_default(ClassifierKind::Exact);
                let mut client = open_client(addr).expect("connect");
                for (idx, frame) in frames.iter().enumerate() {
                    let (reply, hit, recomputed) =
                        client.segment_delta(frame).expect("segment delta");
                    let (labels, _) = reply.unwrap_done();
                    let fresh = SegmentEngine::serial().segment_rgb(&exact, frame);
                    assert_eq!(labels, fresh, "client {client_idx} frame {idx}");
                    assert_eq!(hit + recomputed, 6, "client {client_idx} frame {idx}");
                }
            });
        }
    });

    let mut probe = open_client(addr).expect("probe");
    let stats = probe.stats().expect("stats");
    assert!(
        stats.delta_tiles_recomputed > 0,
        "churn must recompute: {stats:?}"
    );
    assert!(
        stats.delta_tiles_hit + stats.delta_tiles_recomputed == 3 * 6 * 6,
        "tile accounting across clients: {stats:?}"
    );
    assert!(
        stats.cache_bytes <= tile_entry_bytes * 4,
        "budget respected: {stats:?}"
    );
    probe.shutdown().expect("shutdown");
    server.join();
}

/// Slow-loris resilience: a client that drips half a frame
/// and then stalls is closed once the per-frame deadline expires, while a
/// healthy client's traffic keeps flowing the whole time.
#[test]
fn slow_loris_connection_is_deadlined_while_healthy_clients_keep_flowing() {
    let images = test_images(3);
    let reference = reference_labels(&images);
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig::new(SegmentPlan::default())
            .with_max_inflight(2)
            .with_frame_deadline(Duration::from_millis(300)),
    )
    .expect("bind");
    let addr = server.local_addr();

    // The loris: half a Ping frame, then silence.
    let frame = protocol::encode_message(1, &Message::Ping).expect("encode");
    let mut loris = TcpStream::connect(addr).expect("connect loris");
    loris.write_all(&frame[..frame.len() / 2]).expect("drip");
    loris.flush().expect("flush");

    // Healthy traffic is served while the loris stalls mid-frame.
    let mut client = open_client(addr).expect("connect healthy");
    for (idx, img) in images.iter().enumerate() {
        let (labels, _) = client.segment(img).expect("segment").unwrap_done();
        assert_eq!(labels, reference[idx], "image {idx}");
    }

    // The loris is closed once its frame deadline expires; it never got
    // (and never earns) a reply for its unfinished frame.
    loris
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut rest = Vec::new();
    match loris.read_to_end(&mut rest) {
        Ok(_) => assert!(rest.is_empty(), "unfinished frame must not be answered"),
        Err(e) => assert!(
            matches!(e.kind(), std::io::ErrorKind::ConnectionReset),
            "expected EOF or reset, got {e:?}"
        ),
    }

    // The server is unaffected and keeps serving.
    client.ping().expect("alive after the deadline");
    client.shutdown().expect("shutdown");
    server.join();
}

/// Regression for the reactor's deadline bookkeeping: one connection stalled
/// mid-frame must not delay replies on another.  The healthy client's whole
/// burst has to complete well before the stalled connection's deadline even
/// expires — proof that nothing about the stall sits on the serving path.
#[test]
fn a_stalled_connection_does_not_delay_replies_on_healthy_connections() {
    let images = test_images(6);
    let reference = reference_labels(&images);
    let deadline = Duration::from_secs(10);
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig::new(SegmentPlan::default())
            .with_max_inflight(2)
            .with_frame_deadline(deadline),
    )
    .expect("bind");
    let addr = server.local_addr();

    // Stall several connections mid-frame (header-only, and mid-payload)
    // to keep the poll set busy with unready fds.
    let seg = protocol::encode_message(
        3,
        &Message::Segment {
            image: images[0].clone(),
        },
    )
    .expect("encode");
    let mut stalled: Vec<TcpStream> = Vec::new();
    for cut in [7, protocol::HEADER_LEN + 5, seg.len() - 3] {
        let mut stream = TcpStream::connect(addr).expect("connect stalled");
        stream.write_all(&seg[..cut]).expect("partial write");
        stream.flush().expect("flush");
        stalled.push(stream);
    }

    let started = Instant::now();
    let mut client = open_client_depth(addr, 4).expect("connect healthy");
    let refs: Vec<&RgbImage> = images.iter().collect();
    let replies = client
        .segment_pipelined(&refs, false)
        .expect("pipelined burst");
    let elapsed = started.elapsed();
    for (idx, reply) in replies.iter().enumerate() {
        assert_eq!(done(reply).0, &reference[idx], "image {idx}");
    }
    assert!(
        elapsed < deadline,
        "healthy burst waited on a stalled peer: {elapsed:?}"
    );

    drop(stalled);
    client.shutdown().expect("shutdown");
    server.join();
}

/// Overload without shedding.  On a one-reactor daemon, one connection
/// pipelines 1024x768 frames and reads nothing.  The reactor runs them one
/// per pass until that connection's unsent replies pass the write high
/// water, then runs none of the frames it still holds and stops reading,
/// so TCP pushes back on the writer.  A second connection on the same
/// reactor meanwhile gets a ping and a small segment answered, and the
/// daemon's counters show that the stalled connection's queued frames did
/// not run.  The stall outlasts twice the frame deadline: a connection the
/// reactor stopped reading is not a stalled peer, even mid-frame.  Once
/// the first connection reads, every reply arrives in request order,
/// byte-identical to the oracle, and none is `Busy`.
#[test]
fn an_overloaded_reactor_pushes_back_on_a_non_reading_peer_and_serves_the_rest() {
    const FRAMES: u64 = 16;
    const FRAME_DEADLINE: Duration = Duration::from_millis(300);
    // Two distinct frames, alternating, so a reply out of order shows.
    let frames: Vec<RgbImage> = (0..2usize)
        .map(|seed| {
            RgbImage::from_fn(1024, 768, move |x, y| {
                Rgb::new(
                    ((x + seed * 101) / 4) as u8,
                    ((y + seed * 37) / 3) as u8,
                    ((x ^ y) + seed * 59) as u8,
                )
            })
        })
        .collect();
    // The phase table is bit-identical to the exact oracle by construction,
    // and much faster at this size.
    let table = IqftClassifier::paper_default(ClassifierKind::Table);
    let reference: Vec<LabelMap> = frames
        .iter()
        .map(|img| SegmentEngine::serial().segment_rgb(&table, img))
        .collect();
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig::new(SegmentPlan::default())
            .with_max_inflight(1)
            .with_frame_deadline(FRAME_DEADLINE),
    )
    .expect("bind");
    let addr = server.local_addr();
    let mut flood = TcpStream::connect(addr).expect("connect flood");
    let mut control = open_client(addr).expect("connect control");
    control.ping().expect("ping");

    // The writer blocks once the daemon stops reading; it finishes when
    // the flood connection reads its replies below.  Its frames are
    // encoded up front, so nothing but the socket slows it down.
    let writer = {
        let mut stream = flood.try_clone().expect("clone");
        let requests: Vec<Vec<u8>> = (1..=FRAMES)
            .map(|id| {
                let image = frames[(id % 2) as usize].clone();
                protocol::encode_message(id, &Message::Segment { image }).expect("encode")
            })
            .collect();
        std::thread::spawn(move || {
            for request in requests {
                stream.write_all(&request).expect("write frame");
            }
        })
    };

    // The flood's frames started (headers received) and run.  Between two
    // Stats replies the reactor passes over the flood at least once, and
    // runs one of its frames if it may, or reads more of them if it may;
    // the stall is both counts holding still across many such passes, with
    // frames sent that never ran, for twice the frame deadline.
    let flood_counts = |stats: &iqft_serve::StatsSnapshot, own_segments: usize| {
        (
            stats.requests_total - stats.conn_requests,
            stats.segment_requests - own_segments,
        )
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut held = (
        flood_counts(&control.stats().expect("stats"), 0),
        Instant::now(),
    );
    let stalled = loop {
        std::thread::sleep(Duration::from_millis(2));
        let stats = control.stats().expect("stats");
        let counts = flood_counts(&stats, 0);
        if counts != held.0 {
            held = (counts, Instant::now());
        } else if counts.1 > 0 && held.1.elapsed() >= 2 * FRAME_DEADLINE {
            break counts;
        }
        assert!(
            Instant::now() < deadline,
            "the flood never stalled: {stats:?}"
        );
    };
    assert!(stalled.1 < FRAMES as usize, "{stalled:?}");

    // The same reactor keeps serving the other connection.
    control.ping().expect("ping beside the stalled flood");
    let small = test_images(1).remove(0);
    let (labels, _) = control
        .segment(&small)
        .expect("segment beside the stalled flood")
        .unwrap_done();
    assert_eq!(labels, reference_labels(std::slice::from_ref(&small))[0]);
    let stats = control.stats().expect("stats");
    assert_eq!(
        flood_counts(&stats, 1),
        stalled,
        "no frame of the backed-up connection ran: {stats:?}"
    );

    flood
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    for id in 1..=FRAMES {
        let (got, reply) = protocol::read_message(&mut flood).expect("flood reply");
        assert_eq!(got, id, "replies leave in request order");
        match reply {
            Message::SegmentReply { labels } => assert!(
                labels == reference[(id % 2) as usize],
                "frame {id} differs from the oracle"
            ),
            other => panic!("frame {id}: expected SegmentReply, got {other:?}"),
        }
    }
    writer.join().expect("writer");

    let stats = control.stats().expect("stats");
    assert_eq!(stats.segment_requests, FRAMES as usize + 1, "{stats:?}");
    assert_eq!(stats.busy_rejections, 0, "{stats:?}");
    control.shutdown().expect("shutdown");
    server.join();
}

/// The other half of the frame deadline's rule: backpressure pauses it,
/// but the pass that resumes reading arms a fresh one whether or not a
/// byte arrives.  A peer pipelines enough 1024x768 frames to back up its
/// replies, then half a frame, and stops writing.  Once the reactor has
/// stopped running its frames, the peer reads every reply, in order; then
/// the daemon closes the connection when the half frame's deadline runs
/// out, without answering it.
#[test]
fn a_peer_that_drains_its_replies_and_then_stalls_mid_frame_is_still_deadlined() {
    const FRAMES: u64 = 10;
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig::new(SegmentPlan::default())
            .with_max_inflight(1)
            .with_frame_deadline(Duration::from_millis(300)),
    )
    .expect("bind");
    let addr = server.local_addr();
    let mut peer = TcpStream::connect(addr).expect("connect peer");
    let mut control = open_client(addr).expect("connect control");
    control.ping().expect("ping");
    let writer = {
        let mut stream = peer.try_clone().expect("clone");
        // Few distinct (r, g) pairs, so the split table fills fast.
        let image = RgbImage::from_fn(1024, 768, |x, y| {
            Rgb::new((x % 16) as u8, (y % 16) as u8, x as u8)
        });
        let mut bytes: Vec<u8> = (1..=FRAMES + 1)
            .flat_map(|id| {
                let image = image.clone();
                protocol::encode_message(id, &Message::Segment { image }).expect("encode")
            })
            .collect();
        let frame_len = bytes.len() / (FRAMES as usize + 1);
        bytes.truncate(bytes.len() - frame_len / 2);
        std::thread::spawn(move || stream.write_all(&bytes).expect("write frames"))
    };

    // The replies back up: the count of segments run holds still.
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut held = (0, Instant::now());
    loop {
        std::thread::sleep(Duration::from_millis(2));
        let ran = control.stats().expect("stats").segment_requests;
        if ran != held.0 {
            held = (ran, Instant::now());
        } else if ran > 0 && held.1.elapsed() >= Duration::from_millis(100) {
            break;
        }
        assert!(Instant::now() < deadline, "the replies never backed up");
    }
    assert!(held.0 < FRAMES as usize, "{held:?}");

    peer.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    for id in 1..=FRAMES {
        let (got, reply) = protocol::read_message(&mut peer).expect("reply");
        assert_eq!(got, id, "replies leave in request order");
        match reply {
            Message::SegmentReply { labels } => assert_eq!(labels.dimensions(), (1024, 768)),
            other => panic!("frame {id}: expected SegmentReply, got {other:?}"),
        }
    }
    writer.join().expect("writer");
    let drained = Instant::now();
    let mut rest = Vec::new();
    match peer.read_to_end(&mut rest) {
        Ok(_) => assert!(rest.is_empty(), "the half frame must not be answered"),
        Err(e) => assert!(
            matches!(e.kind(), std::io::ErrorKind::ConnectionReset),
            "expected EOF or reset, got {e:?}"
        ),
    }
    assert!(
        drained.elapsed() < Duration::from_secs(20),
        "closed only after {:?}",
        drained.elapsed()
    );
    control.shutdown().expect("shutdown");
    server.join();
}

/// Head-of-line bound: a reactor runs at most one segment request per
/// connection per pass over its poll set.  On a one-reactor `exact`
/// daemon, one connection pipelines 24 frames of a few milliseconds each
/// while it reads its replies.  Once they are queued, a second
/// connection's small segment is answered after a few of them, not after
/// the whole queue, and the first connection's replies still arrive in
/// order.
#[test]
fn a_pipelining_peer_yields_its_reactor_between_frames() {
    const FRAMES: u64 = 24;
    let image = RgbImage::from_fn(128, 96, |x, y| {
        Rgb::new((x * 2) as u8, (y * 2 + 7) as u8, ((x ^ y) * 3) as u8)
    });
    let expected = reference_labels(std::slice::from_ref(&image)).remove(0);
    let small = test_images(1).remove(0);
    let small_expected = reference_labels(std::slice::from_ref(&small)).remove(0);
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig::new(SegmentPlan::new(ClassifierKind::Exact, Backend::Serial))
            .with_max_inflight(1),
    )
    .expect("bind");
    let addr = server.local_addr();
    let mut control = open_client(addr).expect("connect control");
    control.ping().expect("ping");
    let mut probe = TcpStream::connect(addr).expect("connect probe");

    let burst: Vec<u8> = (1..=FRAMES)
        .flat_map(|id| {
            let image = image.clone();
            protocol::encode_message(id, &Message::Segment { image }).expect("encode")
        })
        .collect();
    let mut peer = TcpStream::connect(addr).expect("connect peer");
    let reader = std::thread::spawn(move || {
        peer.write_all(&burst).expect("write burst");
        for id in 1..=FRAMES {
            let (got, reply) = protocol::read_message(&mut peer).expect("reply");
            assert_eq!(got, id, "replies leave in request order");
            assert_eq!(
                reply,
                Message::SegmentReply {
                    labels: expected.clone()
                }
            );
        }
    });

    // Wait until every frame of the burst has started.  Each Stats reply
    // waits for at most a frame or two of the burst, so the reactor has run
    // only a few of them by then.
    let deadline = Instant::now() + Duration::from_secs(60);
    let ran_before = loop {
        let stats = control.stats().expect("stats");
        if stats.requests_total - stats.conn_requests >= FRAMES as usize {
            break stats.segment_requests;
        }
        assert!(
            Instant::now() < deadline,
            "the burst never arrived: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(1));
    };
    assert!(
        ran_before + 12 <= FRAMES as usize,
        "a Stats request waited for {ran_before} of the peer's {FRAMES} frames"
    );

    // A small segment and a Stats request, in one write.
    let request = [
        protocol::encode_message(
            1,
            &Message::Segment {
                image: small.clone(),
            },
        )
        .expect("encode"),
        protocol::encode_message(2, &Message::Stats).expect("encode"),
    ]
    .concat();
    probe.write_all(&request).expect("write probe");
    let (_, reply) = protocol::read_message(&mut probe).expect("probe reply");
    assert_eq!(
        reply,
        Message::SegmentReply {
            labels: small_expected
        }
    );
    let Message::StatsReply { text } = protocol::read_message(&mut probe).expect("stats").1 else {
        panic!("expected a StatsReply");
    };
    let stats = iqft_serve::StatsSnapshot::from_text(&text).expect("stats text");
    let ran_after = stats.segment_requests - 1;
    assert!(
        ran_after - ran_before <= 12,
        "the probe waited for {} of the peer's frames, from {ran_before} of {FRAMES}",
        ran_after - ran_before
    );
    reader.join().expect("reader");
    control.shutdown().expect("shutdown");
    server.join();
}

/// Hits keep per-connection order: one connection writes miss, hit, miss,
/// hit in one burst.  Each hit is looked up only after the miss before it
/// completed and stored its labels, so the replies come back in request
/// order with the cached flags false/true/false/true.
#[test]
fn inline_hits_keep_per_connection_reply_order() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig::new(SegmentPlan::default())
            .with_max_inflight(2)
            .with_cache(CacheConfig::with_capacity_mb(8)),
    )
    .expect("bind");
    let addr = server.local_addr();
    let images = test_images(2);
    let reference = reference_labels(&images);
    let sequence = [
        (1u64, 0usize, false),
        (2, 0, true),
        (3, 1, false),
        (4, 1, true),
    ];
    let mut burst = Vec::new();
    for (id, image, _) in sequence {
        burst.extend(protocol::encode_segment_cached(id, &images[image], false).expect("encode"));
    }
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(&burst).expect("write burst");
    for (id, image, hit) in sequence {
        let (got, reply) = protocol::read_message(&mut stream).expect("reply");
        assert_eq!(got, id, "replies leave in request order");
        match reply {
            Message::SegmentCachedReply { labels, cached } => {
                assert_eq!(cached, hit, "request {id}");
                assert_eq!(labels, reference[image], "request {id}");
            }
            other => panic!("request {id}: expected SegmentCachedReply, got {other:?}"),
        }
    }

    let mut probe = open_client(addr).expect("probe");
    let stats = probe.stats().expect("stats");
    assert_eq!((stats.cache_hits, stats.cache_misses), (2, 2), "{stats:?}");
    assert_eq!(stats.segment_requests, 4, "{stats:?}");
    assert_eq!(stats.lat_count, 4, "{stats:?}");
    probe.shutdown().expect("shutdown");
    server.join();
}

/// The connection gauges through the wire: K pinged clients plus a control
/// client are all counted as opened and open.  Once the K hang up,
/// `connections_open` falls back to the control client alone, while
/// `connections_total` keeps every connection ever accepted.
#[test]
fn connection_gauges_track_opened_and_closed_connections_over_the_wire() {
    const K: usize = 5;
    let server =
        Server::bind("127.0.0.1:0", ServerConfig::new(SegmentPlan::default())).expect("bind");
    let addr = server.local_addr();
    let mut clients: Vec<Client> = (0..K)
        .map(|_| open_client(addr).expect("connect"))
        .collect();
    for client in &mut clients {
        client.ping().expect("ping");
    }

    let mut control = open_client(addr).expect("control connect");
    let stats = control.stats().expect("stats");
    assert_eq!(stats.connections_total, K + 1, "{stats:?}");
    assert_eq!(stats.connections_open, K + 1, "{stats:?}");

    // The reactors notice each hang-up on their next readiness pass; poll
    // until they have, within a bound.
    drop(clients);
    let deadline = Instant::now() + Duration::from_secs(10);
    let stats = loop {
        let stats = control.stats().expect("stats");
        if stats.connections_open == 1 || Instant::now() >= deadline {
            break stats;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(
        stats.connections_open, 1,
        "only the control client is left: {stats:?}"
    );
    assert_eq!(
        stats.connections_total,
        K + 1,
        "closing never changes the total: {stats:?}"
    );
    control.shutdown().expect("shutdown");
    server.join();
}

/// Replies are written straight from their label buffers, and each buffer
/// goes back to the daemon's arena once its last byte is out (a cached
/// one once the cache lets go of it too); each request's pixels go back to
/// the pixel arena once its request has run.  After one warm-up
/// round, more rounds of every segment op — `Segment`, `SegmentCached`
/// misses and hits, `SegmentDelta` — allocate no label or pixel buffer: one
/// used but never recycled would show as arena growth.  A hit replies from
/// the cache entry itself, so only `Segment` replies and misses take a
/// label buffer.
#[test]
fn written_label_buffers_return_to_the_arena() {
    // 150x80 frames are six 64x64 delta tiles, four of them ragged.
    let images: Vec<RgbImage> = (0..3usize)
        .map(|seed| {
            RgbImage::from_fn(150, 80, move |x, y| {
                Rgb::new(
                    (x * 7 + seed * 50) as u8,
                    (y * 5 + seed) as u8,
                    ((x ^ y) * 3) as u8,
                )
            })
        })
        .collect();
    let reference = reference_labels(&images);
    // One shard that holds two of the three frames: the first cached
    // request for a frame misses (and evicts), an immediate repeat hits.
    let entry_bytes = images[0].len() * 4 + 96;
    let cached = Server::bind(
        "127.0.0.1:0",
        ServerConfig::new(SegmentPlan::default()).with_cache(CacheConfig {
            capacity_bytes: entry_bytes * 5 / 2,
            shards: 1,
        }),
    )
    .expect("bind");
    // The delta daemon's cache holds every tile: after the warm-up round
    // each frame is stitched from it.
    let delta = Server::bind(
        "127.0.0.1:0",
        ServerConfig::new(SegmentPlan::default()).with_cache(CacheConfig::with_capacity_mb(4)),
    )
    .expect("bind");
    let mut a = open_client(cached.local_addr()).expect("connect");
    let mut b = open_client(delta.local_addr()).expect("connect");
    let round = |a: &mut Client, b: &mut Client| {
        for (image, reference) in images.iter().zip(&reference) {
            let (labels, _) = a.segment(image).expect("segment").unwrap_done();
            assert_eq!(&labels, reference);
            for expect_hit in [false, true] {
                let (labels, hit) = a
                    .segment_cached(image, false)
                    .expect("cached segment")
                    .unwrap_done();
                assert_eq!((&labels, hit), (reference, expect_hit));
            }
            let (outcome, _, _) = b.segment_delta(image).expect("delta segment");
            assert_eq!(&outcome.unwrap_done().0, reference);
        }
    };
    round(&mut a, &mut b);
    let (warm_a, warm_b) = (a.stats().expect("stats"), b.stats().expect("stats"));
    for _ in 0..4 {
        round(&mut a, &mut b);
    }
    let (after_a, after_b) = (a.stats().expect("stats"), b.stats().expect("stats"));
    assert_eq!(
        after_a.arena_allocations, warm_a.arena_allocations,
        "Segment and SegmentCached replies recycle their buffers: {after_a:?}"
    );
    assert_eq!(
        after_b.arena_allocations, warm_b.arena_allocations,
        "SegmentDelta replies recycle their buffers: {after_b:?}"
    );
    assert_eq!(
        (
            after_a.pixel_arena_allocations,
            after_b.pixel_arena_allocations
        ),
        (
            warm_a.pixel_arena_allocations,
            warm_b.pixel_arena_allocations
        ),
        "every request's pixels are recycled: {after_a:?} {after_b:?}"
    );
    // Every steady-state `Segment` reply and cache miss took one recycled
    // buffer, every hit none; every delta frame, stitched from the cache,
    // took one.
    assert_eq!(after_a.arena_reuses - warm_a.arena_reuses, 4 * 3 * 2);
    assert_eq!(after_b.arena_reuses - warm_b.arena_reuses, 4 * 3);
    a.shutdown().expect("shutdown");
    b.shutdown().expect("shutdown");
    cached.join();
    delta.join();
}

/// Label buffers that a closed connection still owned go back to the arena.
/// One uncached daemon with one reactor, so every round takes one buffer,
/// and two kinds of round:
///
/// - a peer sends a 2048x1536 `Segment` request and hangs up without
///   reading: its 12.6 MB reply is more than the loopback socket buffers
///   hold, so the connection closes with the labels still queued;
/// - a peer sends one request plus the first bytes of a second and waits:
///   the second frame's deadline expires while the first is classified, so
///   the connection closes with its reply queued or half written.
///
/// Between rounds every buffer the arena ever allocated is back in it, so
/// one allocation serves them all.
#[test]
fn a_closed_connections_label_buffers_return_to_the_arena() {
    let image = RgbImage::from_fn(2048, 1536, |x, y| {
        Rgb::new((x / 8) as u8, (y / 6) as u8, ((x ^ y) & 0xff) as u8)
    });
    let request = protocol::encode_message(1, &Message::Segment { image }).expect("encode");
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig::new(SegmentPlan::default().with_classifier(ClassifierKind::Exact))
            .with_max_inflight(1)
            .with_frame_deadline(Duration::from_millis(100)),
    )
    .expect("bind");
    let addr = server.local_addr();
    let mut control = open_client(addr).expect("control connect");
    for round in 0..4 {
        let mut peer = TcpStream::connect(addr).expect("connect");
        peer.write_all(&request).expect("request");
        if round % 2 == 1 {
            peer.write_all(&request[..protocol::HEADER_LEN])
                .expect("the start of a second request");
            // Wait for the daemon to close the connection, reading whatever
            // it sent first.
            peer.set_read_timeout(Some(Duration::from_secs(60)))
                .expect("read timeout");
            let _ = std::io::copy(&mut peer, &mut std::io::sink());
        }
        drop(peer);
        let deadline = Instant::now() + Duration::from_secs(30);
        let stats = loop {
            let stats = control.stats().expect("stats");
            let settled =
                stats.connections_open == 1 && stats.arena_pooled == stats.arena_allocations;
            if settled || Instant::now() >= deadline {
                break stats;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        assert_eq!(
            stats.arena_pooled, stats.arena_allocations,
            "round {round}: every buffer is back in the arena: {stats:?}"
        );
        assert!(
            stats.arena_allocations <= 1,
            "round {round}: one buffer serves every round: {stats:?}"
        );
    }
    control.shutdown().expect("shutdown");
    server.join();
}

/// Polls `control`'s stats until every connection but its own has closed
/// and every buffer each arena ever allocated is back in it.
fn settled_stats(control: &mut Client, context: &str) -> iqft_serve::StatsSnapshot {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = control.stats().expect("stats");
        let settled = stats.connections_open == 1
            && stats.arena_pooled == stats.arena_allocations
            && stats.pixel_arena_pooled == stats.pixel_arena_allocations;
        if settled {
            return stats;
        }
        assert!(
            Instant::now() < deadline,
            "{context}: buffers never all came back: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The frames a closing connection abandons give their pixel buffers back
/// like answered ones do.  On an uncached one-reactor daemon, three
/// connections first stall mid-frame and hang up, which leaves exactly
/// three pixel buffers in the arena: as many as a round below can hold at
/// once.  Each round stalls one more frame and hangs up, then sends a burst
/// whose connection closes on a protocol error with a decoded frame still
/// queued.  However a round's frames interleave, the arena allocates no
/// fourth buffer, and between rounds every buffer of both arenas is back.
#[test]
fn abandoned_frames_return_their_pixel_buffers() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig::new(SegmentPlan::default()).with_max_inflight(1),
    )
    .expect("bind");
    let addr = server.local_addr();
    let mut control = open_client(addr).expect("control connect");
    let heavy = RgbImage::from_fn(320, 240, |x, y| {
        Rgb::new((x / 2) as u8, (y * 3 / 4) as u8, ((x * y) % 251) as u8)
    });
    let light = test_images(1).remove(0);
    let light_labels = reference_labels(std::slice::from_ref(&light)).remove(0);
    let segment = |id: u64, image: &RgbImage| {
        protocol::encode_message(
            id,
            &Message::Segment {
                image: image.clone(),
            },
        )
        .expect("encode")
    };

    // A frame stalled mid-payload: its decoder holds one pixel buffer.
    let stall = |id: u64| {
        let mut peer = TcpStream::connect(addr).expect("connect");
        let frame = segment(id, &heavy);
        peer.write_all(&frame[..protocol::HEADER_LEN + 8 + 1])
            .expect("the start of a frame");
        peer
    };
    let stalled: Vec<TcpStream> = (0..3).map(stall).collect();
    let deadline = Instant::now() + Duration::from_secs(30);
    while control.stats().expect("stats").pixel_arena_allocations < 3 {
        assert!(Instant::now() < deadline, "the stalled frames never began");
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(stalled);
    let warm = settled_stats(&mut control, "stalled frames");
    assert_eq!(warm.pixel_arena_allocations, 3, "{warm:?}");

    for round in 0..4 {
        // One more stalled frame, whose peer hangs up once it began.
        let stalled = stall(round);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let stats = control.stats().expect("stats");
            if stats.pixel_arena_pooled < stats.pixel_arena_allocations {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "round {round}: the stalled frame never began: {stats:?}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(stalled);
        // A burst whose second frame is a reply op: the connection answers
        // the first, refuses the second and closes with the third decoded.
        let mut peer = TcpStream::connect(addr).expect("connect");
        let burst = [
            segment(10, &light),
            protocol::encode_message(11, &Message::Pong).expect("encode"),
            segment(12, &light),
        ]
        .concat();
        peer.write_all(&burst).expect("burst");
        let (got, reply) = protocol::read_message(&mut peer).expect("first reply");
        assert_eq!(
            (got, reply),
            (
                10,
                Message::SegmentReply {
                    labels: light_labels.clone()
                }
            )
        );
        let (got, reply) = protocol::read_message(&mut peer).expect("error reply");
        assert!(
            got == 11 && matches!(reply, Message::Error { .. }),
            "round {round}: {reply:?}"
        );
        let mut rest = Vec::new();
        peer.read_to_end(&mut rest).expect("the daemon closes");
        assert!(
            rest.is_empty(),
            "round {round}: nothing answers the third frame"
        );
        drop(peer);

        let stats = settled_stats(&mut control, &format!("round {round}"));
        assert_eq!(
            stats.pixel_arena_allocations, warm.pixel_arena_allocations,
            "round {round}: abandoned frames recycle their pixels: {stats:?}"
        );
        assert!(
            stats.arena_allocations <= 1,
            "round {round}: one reactor holds one reply at a time: {stats:?}"
        );
    }
    control.shutdown().expect("shutdown");
    server.join();
}
