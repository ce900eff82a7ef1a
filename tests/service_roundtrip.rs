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
use seg_engine::{ClassifierKind, SegmentEngine, SegmentPlan, Tiling};
use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Unwraps a pipelined [`SegmentOutcome`] in tests that run below the
/// admission limit, where a Busy shed would be a bug.
fn done(outcome: &SegmentOutcome) -> (&LabelMap, bool) {
    match outcome {
        SegmentOutcome::Done { labels, cached } => (labels, *cached),
        other => panic!("expected Done below the admission limit, got {other:?}"),
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
/// direct engine pass byte for byte, whole-image and tiled.
#[test]
fn concurrent_clients_get_byte_identical_labels_for_every_classifier() {
    let images = test_images(12);
    let reference = reference_labels(&images);
    for kind in ClassifierKind::ALL {
        for tiling in [
            Tiling::Whole,
            Tiling::Tiles {
                width: 16,
                height: 16,
            },
        ] {
            let plan = SegmentPlan::default()
                .with_classifier(kind)
                .with_tiling(tiling);
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
                                "image {idx} via {kind} tile={tiling}"
                            );
                        }
                    });
                }
            });

            let mut probe = open_client(addr).expect("probe connect");
            let stats = probe.stats().expect("stats");
            assert_eq!(stats.segment_requests, images.len(), "{kind} {tiling}");
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
        // One worker serialises execution to keep requests queued longer.
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
/// every tile shape (including one that does not divide the frame), every
/// fast-path classifier, and change rates from a static scene to a full
/// rewrite — and the per-reply tile counters must account for every tile.
#[test]
fn video_delta_replies_are_byte_identical_across_tilings_classifiers_and_change_rates() {
    let exact = IqftClassifier::paper_default(ClassifierKind::Exact);
    let (width, height) = (80usize, 60usize);
    for kind in [ClassifierKind::Table, ClassifierKind::Simd] {
        for tiling in [
            Tiling::Whole,
            Tiling::Tiles {
                width: 16,
                height: 16,
            },
            // Deliberately not dividing 80x60: ragged edge tiles.
            Tiling::Tiles {
                width: 53,
                height: 37,
            },
        ] {
            let plan = SegmentPlan::default()
                .with_classifier(kind)
                .with_tiling(tiling);
            let (tile_w, tile_h) = tiling.delta_shape();
            let tiles_per_frame = (width.div_ceil(tile_w) * height.div_ceil(tile_h)) as u64;
            let server = Server::bind(
                "127.0.0.1:0",
                ServerConfig::new(plan)
                    .with_max_inflight(2)
                    .with_cache(CacheConfig::with_capacity_mb(16)),
            )
            .expect("bind");
            let mut client = open_client(server.local_addr()).expect("connect");

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
                    assert_eq!(
                        labels, fresh,
                        "frame {idx} cr={change_rate} {kind} {tiling}"
                    );
                    assert_eq!(
                        u64::from(hit) + u64::from(recomputed),
                        tiles_per_frame,
                        "tile accounting, frame {idx} cr={change_rate} {tiling}"
                    );
                    // A static scene after the first frame is pure hits.
                    if change_rate == 0.0 && idx > 0 {
                        assert_eq!(
                            recomputed, 0,
                            "static frame {idx} recomputed tiles ({tiling})"
                        );
                    }
                }
            }

            let stats = client.stats().expect("stats");
            assert!(stats.delta_tiles_hit > 0, "{kind} {tiling}: {stats:?}");
            assert!(
                stats.delta_tiles_recomputed > 0,
                "{kind} {tiling}: {stats:?}"
            );
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
    let (width, height) = (64usize, 48usize);
    // 16x16 tiles -> 12 tiles/frame at 1 KiB of labels each; a budget of
    // eight entries cannot hold even one frame, forcing constant eviction.
    let tile_entry_bytes = 16 * 16 * 4 + 96;
    let plan = SegmentPlan::default().with_tiling(Tiling::Tiles {
        width: 16,
        height: 16,
    });
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig::new(plan)
            .with_max_inflight(3)
            .with_cache(CacheConfig {
                capacity_bytes: tile_entry_bytes * 8,
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
                    block: 16,
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
                    assert_eq!(hit + recomputed, 12, "client {client_idx} frame {idx}");
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
        stats.delta_tiles_hit + stats.delta_tiles_recomputed == 3 * 6 * 12,
        "tile accounting across clients: {stats:?}"
    );
    assert!(
        stats.cache_bytes <= tile_entry_bytes * 8,
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

/// Admission control through the wire: with one worker and a
/// one-deep queue, a simultaneous fan-in of heavy frames must shed at least
/// one with a typed Busy reply.  Every completed reply is still
/// byte-identical, the shed count shows up in stats, and so do the service
/// latency percentiles.
#[test]
fn saturated_admission_sheds_with_typed_busy_replies() {
    let image = RgbImage::from_fn(600, 420, |x, y| {
        Rgb::new((x / 3) as u8, (y / 2) as u8, ((x + y) / 5) as u8)
    });
    let expected = SegmentEngine::serial().segment_rgb(
        &IqftClassifier::paper_default(ClassifierKind::Table),
        &image,
    );
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig::new(SegmentPlan::default())
            .with_max_inflight(1)
            .with_max_queue(1),
    )
    .expect("bind");
    let addr = server.local_addr();

    // Saturation is a race by nature; retry a few fan-in rounds so the
    // test never depends on one round's scheduling.
    let mut busy_total = 0usize;
    for _round in 0..5 {
        let mut streams: Vec<TcpStream> = Vec::new();
        for id in 0..6u64 {
            let mut stream = TcpStream::connect(addr).expect("connect");
            let frame = protocol::encode_message(
                id,
                &Message::Segment {
                    image: image.clone(),
                },
            )
            .expect("encode");
            stream.write_all(&frame).expect("write frame");
            stream.flush().expect("flush");
            streams.push(stream);
        }
        for (id, mut stream) in streams.into_iter().enumerate() {
            let (got, reply) = protocol::read_message(&mut stream).expect("reply");
            assert_eq!(got, id as u64);
            match reply {
                Message::SegmentReply { labels } => {
                    assert_eq!(labels, expected, "admitted request {id}")
                }
                Message::Busy => busy_total += 1,
                other => panic!("expected SegmentReply or Busy, got {other:?}"),
            }
        }
        if busy_total > 0 {
            break;
        }
    }
    assert!(
        busy_total > 0,
        "a 6-way fan-in against 1 worker + 1 queue slot never shed"
    );

    let mut probe = open_client(addr).expect("probe");
    let stats = probe.stats().expect("stats");
    assert_eq!(stats.busy_rejections, busy_total, "{stats:?}");
    assert_eq!(stats.max_queue, 1, "{stats:?}");
    assert!(stats.lat_count > 0, "{stats:?}");
    assert!(
        stats.lat_p50_us > 0 && stats.lat_p50_us <= stats.lat_max_us,
        "heavy frames must show nonzero latency percentiles: {stats:?}"
    );
    probe.shutdown().expect("shutdown");
    server.join();
}

/// A whole-frame cache hit is answered on the reactor, so it never waits for
/// a worker and never counts against `max_queue`: with the one worker busy
/// and the one queue slot taken by heavy misses, a miss is shed as `Busy`,
/// yet a hit of a warm frame on another connection still comes back cached
/// with the reference labels.
#[test]
fn cache_hits_are_served_while_misses_are_shed_busy() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig::new(SegmentPlan::default().with_classifier(ClassifierKind::Exact))
            .with_max_inflight(1)
            .with_max_queue(1)
            .with_cache(CacheConfig::with_capacity_mb(64)),
    )
    .expect("bind");
    let addr = server.local_addr();
    let warm = test_images(1).remove(0);
    let warm_labels = reference_labels(std::slice::from_ref(&warm)).remove(0);
    let mut client = open_client(addr).expect("connect");
    let (labels, cached) = client
        .segment_cached(&warm, false)
        .expect("warm-up")
        .unwrap_done();
    assert!(!cached, "the warm-up misses");
    assert_eq!(labels, warm_labels);
    let mut hit_stream = TcpStream::connect(addr).expect("connect");

    // Heavy exact-classifier misses, distinct per round and connection, so
    // each holds the one worker for many round trips.
    let heavy = |round: usize, conn: usize| {
        RgbImage::from_fn(240, 180, move |x, y| {
            Rgb::new(
                (x * 3 + round * 17) as u8,
                (y * 5 + conn * 41) as u8,
                ((x ^ y) + round) as u8,
            )
        })
    };
    let table = IqftClassifier::paper_default(ClassifierKind::Table);
    let mut busy_total = 0usize;
    let mut hit_served = false;
    for round in 0..5 {
        let (tx, rx) = std::sync::mpsc::channel();
        let senders: Vec<_> = (0..4)
            .map(|conn| {
                let tx = tx.clone();
                let image = heavy(round, conn);
                std::thread::spawn(move || {
                    let mut stream = TcpStream::connect(addr).expect("connect");
                    let frame = protocol::encode_segment_cached(conn as u64, &image, false)
                        .expect("encode");
                    stream.write_all(&frame).expect("write frame");
                    let (_, reply) = protocol::read_message(&mut stream).expect("reply");
                    let _ = tx.send(matches!(reply, Message::Busy));
                    (image, reply)
                })
            })
            .collect();
        drop(tx);
        // A Busy reply means the worker holds one miss and another waits in
        // the queue slot: ask for the warm frame right now.
        if rx.iter().any(|busy| busy) {
            let frame = protocol::encode_segment_cached(99, &warm, false).expect("encode");
            hit_stream.write_all(&frame).expect("write hit");
            let (id, reply) = protocol::read_message(&mut hit_stream).expect("hit reply");
            assert_eq!(id, 99);
            match reply {
                Message::SegmentCachedReply { labels, cached } => {
                    assert!(cached, "the warm frame is a cache hit");
                    assert_eq!(labels, warm_labels, "the hit is byte-identical");
                }
                other => panic!("a cache hit must never be refused, got {other:?}"),
            }
            hit_served = true;
        }
        for sender in senders {
            let (image, reply) = sender.join().expect("sender thread");
            match reply {
                Message::SegmentCachedReply { labels, cached } => {
                    assert!(!cached, "heavy frames are all distinct");
                    assert_eq!(labels, SegmentEngine::serial().segment_rgb(&table, &image));
                }
                Message::Busy => busy_total += 1,
                other => panic!("expected SegmentCachedReply or Busy, got {other:?}"),
            }
        }
        if hit_served {
            break;
        }
    }
    assert!(
        hit_served,
        "four heavy misses against 1 worker + 1 slot never shed"
    );

    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.busy_rejections, busy_total,
        "only misses are shed: {stats:?}"
    );
    assert_eq!(stats.cache_hits, 1, "{stats:?}");
    client.shutdown().expect("shutdown");
    server.join();
}

/// Inline hits keep per-connection order: one connection writes miss, hit,
/// miss, hit in one burst.  Each hit is looked up only after the miss
/// before it completed and stored its labels, so the replies come back in
/// request order with the cached flags false/true/false/true.
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
/// goes back to the daemon's arena once its last byte is out.  After one
/// warm-up round, more rounds of every segment op — `Segment`,
/// `SegmentCached` misses and hits, `SegmentDelta` — allocate no label
/// buffer: one written but never recycled would show as arena growth.
#[test]
fn written_label_buffers_return_to_the_arena() {
    let images: Vec<RgbImage> = (0..3usize)
        .map(|seed| {
            RgbImage::from_fn(48, 32, move |x, y| {
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
        ServerConfig::new(SegmentPlan::default().with_tiling(Tiling::Tiles {
            width: 16,
            height: 16,
        }))
        .with_cache(CacheConfig::with_capacity_mb(4)),
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
    // Every steady-state reply took a recycled buffer.
    assert!(after_a.arena_reuses >= warm_a.arena_reuses + 4 * 3 * 3);
    assert!(after_b.arena_reuses >= warm_b.arena_reuses + 4 * 3);
    a.shutdown().expect("shutdown");
    b.shutdown().expect("shutdown");
    cached.join();
    delta.join();
}

/// Label buffers that a closed connection still owned go back to the arena.
/// One uncached daemon with one worker, so every round takes one buffer,
/// and two kinds of round:
///
/// - a peer sends a 2048x1536 `Segment` request and hangs up without
///   reading: its 12.6 MB reply is more than the loopback socket buffers
///   hold, so the connection closes with the labels still queued;
/// - a peer sends one request plus the first bytes of a second and waits:
///   the frame deadline closes the connection while the job runs, so its
///   completion finds the connection gone.
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
