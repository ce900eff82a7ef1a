//! Socket-free property and fuzz suite for the sans-io protocol core.
//!
//! The event-driven serving core rests on one claim: `FrameDecoder` fed
//! byte chunks of *any* size is observably identical to the blocking stream
//! path (`parse_header` + `read_exact` + `decode_body`) — same frames, same
//! typed errors at the same points, same `ServerStats` deltas.  This suite
//! checks that claim without opening a single socket:
//!
//! - encode → decode round-trip identity for every op, flag and
//!   classifier-spec combination;
//! - a valid frame stream split at *every* chunk boundary (and dripped one
//!   byte at a time through a > 1 MiB frame) yields identical frames and
//!   identical stats deltas;
//! - a deterministic fuzz corpus (xorshift64* byte streams, mutated valid
//!   frames, truncated streams) plus curated malformed frames: the decoder
//!   never panics, never buffers past `HEADER_LEN + MAX_PAYLOAD_BYTES`, and
//!   reports the same typed `ProtocolError`s as the stream path.
//!
//! The offline build environment has no `proptest` or `cargo-fuzz`, so the
//! properties run on the same deterministic mini-harness as
//! `tests/properties.rs`: `CASES` pseudo-random inputs from a seeded
//! generator, with the case index reported on failure for replay.

use imaging::{LabelMap, Rgb, RgbImage};
use iqft_serve::protocol::{
    self, FrameDecoder, FrameEncoder, Message, ProtocolError, HEADER_LEN, MAX_PAYLOAD_BYTES,
};
use iqft_serve::stats::{ServerStats, StatsSnapshot};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use seg_engine::{ClassifierKind, SegmentPlan};

const CASES: usize = 64;

/// Runs `property` against `CASES` deterministic pseudo-random inputs.
fn check<F: FnMut(usize, &mut ChaCha8Rng)>(seed: u64, mut property: F) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for case in 0..CASES {
        property(case, &mut rng);
    }
}

/// The xorshift64* generator the fuzz corpus is drawn from — self-contained
/// so the corpus is reproducible from the case seed alone, independent of
/// the harness RNG's stream position.
struct XorShift64(u64);

impl XorShift64 {
    fn new(seed: u64) -> Self {
        XorShift64(seed | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn next_byte(&mut self) -> u8 {
        (self.next_u64() >> 56) as u8
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound.max(1) as u64) as usize
    }
}

/// A stable, comparable key for a typed error.  `Io` keeps only the error
/// kind: the slice cursor and the decoder agree on *what* went wrong, not on
/// the incidental error message.
fn error_key(err: &ProtocolError) -> String {
    match err {
        ProtocolError::Io(e) => format!("Io({:?})", e.kind()),
        other => format!("{other:?}"),
    }
}

/// What one decode path observed over a byte stream: the decoded messages in
/// order, the terminal typed error (if the stream failed), whether the
/// stream ended mid-frame, and the `ServerStats` delta a serving core
/// would record while handling it.
#[derive(Debug)]
struct StreamOutcome {
    messages: Vec<(u64, Message)>,
    error: Option<String>,
    incomplete: bool,
    requests: usize,
    protocol_errors: usize,
}

const EOF_KEY: &str = "Io(UnexpectedEof)";

/// The blocking stream path, as the client's reads run it: read the 20
/// header bytes (counting the request the moment they arrive, as the
/// server's decoder does), parse, read the declared payload, decode the
/// body.  Stops at the first error.
fn run_stream_path(bytes: &[u8]) -> StreamOutcome {
    use std::io::Read;
    let stats = ServerStats::new();
    let mut cursor = bytes;
    let mut messages = Vec::new();
    let mut error = None;
    while !cursor.is_empty() {
        let mut header_bytes = [0u8; HEADER_LEN];
        if let Err(e) = cursor.read_exact(&mut header_bytes) {
            error = Some(error_key(&ProtocolError::Io(e)));
            break;
        }
        stats.request();
        let header = match protocol::parse_header(&header_bytes) {
            Ok(header) => header,
            Err(e) => {
                stats.protocol_error();
                error = Some(error_key(&e));
                break;
            }
        };
        let mut payload = vec![0u8; header.payload_len];
        if let Err(e) = cursor.read_exact(&mut payload) {
            error = Some(error_key(&ProtocolError::Io(e)));
            break;
        }
        match protocol::decode_body(header.op, &payload) {
            Ok(message) => messages.push((header.request_id, message)),
            Err(e) => {
                stats.protocol_error();
                error = Some(error_key(&e));
                break;
            }
        }
    }
    let incomplete = error.as_deref() == Some(EOF_KEY);
    StreamOutcome {
        messages,
        error,
        incomplete,
        requests: stats.requests_total(),
        protocol_errors: stats.protocol_errors(),
    }
}

/// The sans-io path: feed `bytes` to a `FrameDecoder` in chunks chosen by
/// `next_chunk(offset, remaining)`, with the same stats accounting the
/// evented reactor performs (`request` per started frame, `protocol_error`
/// per header or body failure, stop at the first error).  Asserts the
/// buffering bound on every feed.
fn run_sansio_path(
    bytes: &[u8],
    mut next_chunk: impl FnMut(usize, usize) -> usize,
) -> StreamOutcome {
    let stats = ServerStats::new();
    let mut decoder = FrameDecoder::new();
    let mut counted = 0u64;
    let mut messages = Vec::new();
    let mut error = None;
    let mut offset = 0;
    'outer: while offset < bytes.len() {
        let len = next_chunk(offset, bytes.len() - offset).clamp(1, bytes.len() - offset);
        let mut chunk = &bytes[offset..offset + len];
        offset += len;
        while !chunk.is_empty() {
            let (consumed, event) = decoder.feed(chunk);
            chunk = &chunk[consumed..];
            while counted < decoder.frames_started() {
                stats.request();
                counted += 1;
            }
            assert!(
                decoder.buffered_bytes() <= HEADER_LEN + MAX_PAYLOAD_BYTES,
                "decoder buffered {} bytes past the {} + {} bound",
                decoder.buffered_bytes(),
                HEADER_LEN,
                MAX_PAYLOAD_BYTES
            );
            match event {
                None => {
                    if consumed == 0 {
                        assert!(decoder.is_failed(), "only a poisoned decoder refuses input");
                        break 'outer;
                    }
                }
                Some(Err(e)) => {
                    stats.protocol_error();
                    error = Some(error_key(&e));
                    break 'outer;
                }
                Some(Ok(frame)) => match frame.message() {
                    Ok(message) => messages.push((frame.header.request_id, message)),
                    Err(e) => {
                        stats.protocol_error();
                        error = Some(error_key(&e));
                        break 'outer;
                    }
                },
            }
        }
    }
    let incomplete = error.is_none() && decoder.mid_frame();
    StreamOutcome {
        messages,
        error,
        incomplete,
        requests: stats.requests_total(),
        protocol_errors: stats.protocol_errors(),
    }
}

/// Asserts a sans-io outcome is observably identical to the stream-path
/// outcome over the same bytes.  The one representational difference: the
/// decoder reports a truncated stream as "incomplete, no error" (EOF is the
/// transport's business), where the stream path reports
/// `Io(UnexpectedEof)` — everything else must match exactly.
fn assert_equivalent(sansio: &StreamOutcome, stream: &StreamOutcome, context: &str) {
    assert_eq!(
        sansio.messages, stream.messages,
        "decoded messages diverge ({context})"
    );
    assert_eq!(
        sansio.requests, stream.requests,
        "request accounting diverges ({context})"
    );
    assert_eq!(
        sansio.protocol_errors, stream.protocol_errors,
        "protocol-error accounting diverges ({context})"
    );
    if sansio.incomplete {
        assert_eq!(
            stream.error.as_deref(),
            Some(EOF_KEY),
            "decoder ended mid-frame but the stream path did not hit EOF ({context})"
        );
    } else {
        assert_eq!(
            sansio.error, stream.error,
            "typed errors diverge ({context})"
        );
    }
}

fn random_image(rng: &mut ChaCha8Rng, max_side: usize) -> RgbImage {
    let width = rng.gen_range(1..=max_side);
    let height = rng.gen_range(1..=max_side);
    let mut pixels = Vec::with_capacity(width * height);
    for _ in 0..width * height {
        pixels.push(Rgb::new(rng.gen::<u8>(), rng.gen::<u8>(), rng.gen::<u8>()));
    }
    RgbImage::from_vec(width, height, pixels).expect("valid dimensions")
}

/// Labels drawn over the whole `u32` range, so every byte of the wire's
/// 4-byte label carries data.
fn random_labels(rng: &mut ChaCha8Rng, max_side: usize) -> LabelMap {
    let width = rng.gen_range(1..=max_side);
    let height = rng.gen_range(1..=max_side);
    let mut labels = Vec::with_capacity(width * height);
    for _ in 0..width * height {
        labels.push(rng.gen::<u32>());
    }
    LabelMap::from_vec(width, height, labels).expect("valid dimensions")
}

/// Every classifier-spec string the Stats reply can carry: the full
/// classifier vocabulary crossed with a serial and a threaded backend.
fn all_plan_specs() -> Vec<String> {
    let mut specs = Vec::new();
    for kind in ClassifierKind::ALL {
        for backend in [xpar::Backend::Serial, xpar::Backend::Threads(4)] {
            specs.push(SegmentPlan::new(kind, backend).to_spec());
        }
    }
    specs
}

/// Every message shape the protocol defines: all fourteen ops, both values
/// of both cache flag words, delta replies with non-zero tile counters, and
/// a Stats reply for every classifier spec.
fn full_message_corpus(rng: &mut ChaCha8Rng) -> Vec<Message> {
    let mut corpus = vec![
        Message::Ping,
        Message::Pong,
        Message::Stats,
        Message::Shutdown,
        Message::ShutdownReply,
        Message::Busy,
        Message::Segment {
            image: random_image(rng, 9),
        },
        Message::SegmentReply {
            labels: random_labels(rng, 9),
        },
        Message::SegmentDelta {
            image: random_image(rng, 9),
        },
        Message::SegmentDeltaReply {
            labels: random_labels(rng, 9),
            tiles_hit: rng.gen_range(1..=u32::MAX),
            tiles_recomputed: rng.gen_range(1..=u32::MAX),
        },
        Message::StatsReply {
            text: String::new(),
        },
        Message::Error {
            message: "BadLength { op: Segment, expected: Some(8), got: 3 }".to_string(),
        },
        Message::Error {
            message: String::new(),
        },
    ];
    for bypass in [false, true] {
        corpus.push(Message::SegmentCached {
            image: random_image(rng, 9),
            bypass,
        });
    }
    for cached in [false, true] {
        corpus.push(Message::SegmentCachedReply {
            labels: random_labels(rng, 9),
            cached,
        });
    }
    for spec in all_plan_specs() {
        let snapshot = StatsSnapshot {
            plan: spec,
            requests_total: rng.gen::<u8>() as usize,
            pixels_total: rng.gen::<u8>() as u64,
            ..StatsSnapshot::default()
        };
        corpus.push(Message::StatsReply {
            text: snapshot.to_text(),
        });
    }
    corpus
}

/// Concatenates `(id, message)` pairs into one wire stream.
fn encode_stream(pairs: &[(u64, Message)]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for (id, message) in pairs {
        bytes.extend(protocol::encode_message(*id, message).expect("encodable corpus message"));
    }
    bytes
}

/// A raw frame with an arbitrary (possibly invalid) header, for building the
/// curated malformed corpus without going through the encoder's validation.
fn raw_frame(op: u8, request_id: u64, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    frame.extend_from_slice(b"IQFT");
    frame.extend_from_slice(&protocol::VERSION.to_le_bytes());
    frame.push(op);
    frame.push(0);
    frame.extend_from_slice(&request_id.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

fn patched(frame: &[u8], at: usize, value: u8) -> Vec<u8> {
    let mut out = frame.to_vec();
    out[at] = value;
    out
}

// ---------------------------------------------------------------------------
// Round-trip identity
// ---------------------------------------------------------------------------

/// Every op / flag / classifier-spec combination survives
/// encode → chunked decode unchanged, and `FrameEncoder` produces the exact
/// bytes `encode_message` does.
#[test]
fn round_trip_identity_for_every_op_flag_and_spec_combination() {
    check(701, |case, rng| {
        for message in full_message_corpus(rng) {
            let id = match rng.gen_range(0..4u8) {
                0 => 0,
                1 => u64::MAX,
                _ => rng.gen::<u64>(),
            };
            let bytes = protocol::encode_message(id, &message)
                .unwrap_or_else(|e| panic!("case {case}: encode {}: {e}", message.name()));

            // The one-shot slice decoder agrees.
            let (decoded_id, decoded) = protocol::decode_message(&bytes)
                .unwrap_or_else(|e| panic!("case {case}: decode {}: {e}", message.name()));
            assert_eq!(decoded_id, id, "case {case}: id round-trip");
            assert_eq!(
                decoded,
                message,
                "case {case}: {} round-trip",
                message.name()
            );

            // The sans-io decoder agrees, fed in one chunk and dripped.
            for chunk in [bytes.len(), 1] {
                let outcome = run_sansio_path(&bytes, |_, _| chunk);
                assert_eq!(outcome.error, None, "case {case}: {}", message.name());
                assert_eq!(
                    outcome.messages,
                    vec![(id, message.clone())],
                    "case {case}: {} via {chunk}-byte chunks",
                    message.name()
                );
            }

            // The sans-io encoder queues byte-identical frames.
            let mut encoder = FrameEncoder::new();
            encoder
                .enqueue(id, &message)
                .unwrap_or_else(|e| panic!("case {case}: enqueue {}: {e}", message.name()));
            assert_eq!(encoder.pending(), &bytes[..], "case {case}: encoder bytes");
            assert_eq!(encoder.pending_len(), bytes.len());
            encoder.advance(bytes.len());
            assert!(encoder.is_empty(), "case {case}: drained encoder");
        }
    });
}

// ---------------------------------------------------------------------------
// Byte-exact segment frames
// ---------------------------------------------------------------------------

/// `value` as four little-endian bytes, spelled out with shifts so the
/// expected frames below share no code with the encoder.
fn le32(value: u32) -> [u8; 4] {
    [
        value as u8,
        (value >> 8) as u8,
        (value >> 16) as u8,
        (value >> 24) as u8,
    ]
}

/// The request and reply frames of all three segment ops, pinned byte for
/// byte.  A round trip cannot catch an error both sides make the same way
/// (pixels written and read back as BGR, labels in big-endian order); a
/// frame assembled field by field from the documented layout can.
#[test]
fn segment_frames_match_the_documented_layout_byte_for_byte() {
    // Pixel i (row-major) is (3i, 3i + 1, 3i + 2), so a correct encoder
    // writes the bytes 0, 1, 2, …, 44 in order.
    let (width, height) = (5usize, 3usize);
    let image = RgbImage::from_fn(width, height, |x, y| {
        let i = (y * width + x) as u8;
        Rgb::new(3 * i, 3 * i + 1, 3 * i + 2)
    });
    let pixel_bytes: Vec<u8> = (0..45).collect();
    let label_values: [u32; 15] = [
        0,
        1,
        7,
        0x0102_0304,
        u32::MAX,
        0xFF,
        0x100,
        0xFFFF,
        0x1_0000,
        0x8000_0000,
        0xDEAD_BEEF,
        2,
        0x00FF_FF00,
        0x7FFF_FFFF,
        3,
    ];
    let labels = LabelMap::from_vec(width, height, label_values.to_vec()).expect("5x3 labels");
    let label_bytes: Vec<u8> = label_values.iter().flat_map(|&v| le32(v)).collect();
    assert_eq!(label_bytes[12..16], [0x04, 0x03, 0x02, 0x01]);
    assert_eq!(label_bytes[16..20], [0xFF; 4]);

    let dims = [le32(5), le32(3)].concat();
    let payload = |prefix: &[[u8; 4]], body: &[u8]| -> Vec<u8> {
        let mut out: Vec<u8> = prefix.concat();
        out.extend_from_slice(&dims);
        out.extend_from_slice(body);
        out
    };
    let (tiles_hit, tiles_recomputed) = (0x0A0B_0C0Du32, 2u32);

    // (message, op byte, expected payload)
    let cases: Vec<(Message, u8, Vec<u8>)> = vec![
        (
            Message::Segment {
                image: image.clone(),
            },
            0x01,
            payload(&[], &pixel_bytes),
        ),
        (
            Message::SegmentCached {
                image: image.clone(),
                bypass: true,
            },
            0x05,
            payload(&[le32(1)], &pixel_bytes),
        ),
        (
            Message::SegmentCached {
                image: image.clone(),
                bypass: false,
            },
            0x05,
            payload(&[le32(0)], &pixel_bytes),
        ),
        (
            Message::SegmentDelta {
                image: image.clone(),
            },
            0x06,
            payload(&[le32(0)], &pixel_bytes),
        ),
        (
            Message::SegmentReply {
                labels: labels.clone(),
            },
            0x81,
            payload(&[], &label_bytes),
        ),
        (
            Message::SegmentCachedReply {
                labels: labels.clone(),
                cached: true,
            },
            0x85,
            payload(&[le32(1)], &label_bytes),
        ),
        (
            Message::SegmentDeltaReply {
                labels,
                tiles_hit,
                tiles_recomputed,
            },
            0x86,
            payload(
                &[le32(0), le32(tiles_hit), le32(tiles_recomputed)],
                &label_bytes,
            ),
        ),
    ];

    for (index, (message, op, expected_payload)) in cases.into_iter().enumerate() {
        let id = 0x0102_0304_0506_0700 + index as u64;
        let expected = raw_frame(op, id, &expected_payload);
        let name = message.name();
        assert_eq!(
            protocol::encode_message(id, &message).expect("encodable"),
            expected,
            "{name}: encode_message"
        );
        let borrowed = match &message {
            Message::Segment { image } => Some(protocol::encode_segment(id, image)),
            Message::SegmentCached { image, bypass } => {
                Some(protocol::encode_segment_cached(id, image, *bypass))
            }
            Message::SegmentDelta { image } => Some(protocol::encode_segment_delta(id, image)),
            _ => None,
        };
        if let Some(borrowed) = borrowed {
            assert_eq!(
                borrowed.expect("encodable"),
                expected,
                "{name}: borrowed encoder"
            );
        }
        let (decoded_id, decoded) = protocol::decode_message(&expected).expect("decodable");
        assert_eq!((decoded_id, decoded), (id, message), "{name}: decode");
    }
}

// ---------------------------------------------------------------------------
// Chunk-boundary independence
// ---------------------------------------------------------------------------

/// A mixed valid stream (every op represented) split at *every* possible
/// boundary, and fed at every fixed chunk size, decodes to identical frames
/// with identical stats deltas.
#[test]
fn every_chunk_boundary_split_yields_identical_frames_and_stats() {
    let mut rng = ChaCha8Rng::seed_from_u64(702);
    let mut pairs = Vec::new();
    for (index, message) in full_message_corpus(&mut rng).into_iter().enumerate() {
        pairs.push((index as u64 + 1, message));
    }
    let bytes = encode_stream(&pairs);
    let frames = pairs.len();

    let baseline = run_stream_path(&bytes);
    assert_eq!(baseline.error, None, "corpus stream is valid");
    assert_eq!(baseline.messages, pairs);
    assert_eq!(baseline.requests, frames);
    assert_eq!(baseline.protocol_errors, 0);

    // Two-way split at every boundary (0 and len included: degenerate empty
    // first/second chunks are just the one-chunk feed).
    for split in 0..=bytes.len() {
        let outcome = run_sansio_path(&bytes, |offset, remaining| {
            if offset < split {
                split - offset
            } else {
                remaining
            }
        });
        assert_equivalent(&outcome, &baseline, &format!("split at byte {split}"));
    }

    // Every fixed chunk size from a 1-byte drip up to the whole stream.
    for chunk in 1..=bytes.len() {
        let outcome = run_sansio_path(&bytes, |_, _| chunk);
        assert_equivalent(&outcome, &baseline, &format!("chunk size {chunk}"));
    }
}

/// The 1-byte drip through a frame larger than 1 MiB: identical result,
/// bounded buffering (asserted on every feed inside `run_sansio_path`), and
/// boundary-adjacent plus random splits all agree with the stream path.
#[test]
fn one_byte_drip_through_a_megabyte_frame_matches_the_stream_path() {
    let mut gen = XorShift64::new(703);
    let (width, height) = (592, 592);
    let mut pixels = Vec::with_capacity(width * height);
    for _ in 0..width * height {
        pixels.push(Rgb::new(gen.next_byte(), gen.next_byte(), gen.next_byte()));
    }
    let image = RgbImage::from_vec(width, height, pixels).expect("valid dimensions");
    let mut bytes = protocol::encode_message(41, &Message::Ping).expect("ping");
    bytes.extend(protocol::encode_message(42, &Message::Segment { image }).expect("segment"));
    bytes.extend(protocol::encode_message(43, &Message::Stats).expect("stats"));
    assert!(
        bytes.len() > 1 << 20,
        "stream must exceed 1 MiB to exercise the large-frame path ({} bytes)",
        bytes.len()
    );

    let baseline = run_stream_path(&bytes);
    assert_eq!(baseline.error, None);
    assert_eq!(baseline.messages.len(), 3);
    assert_eq!(baseline.requests, 3);

    // The full 1-byte drip across the whole > 1 MiB stream.
    let drip = run_sansio_path(&bytes, |_, _| 1);
    assert_equivalent(&drip, &baseline, "1-byte drip");

    // Two-way splits at every boundary around the frame edges (where the
    // decoder changes state) plus random interior boundaries, and a sweep of
    // fixed chunk sizes.
    let ping_end = HEADER_LEN;
    let segment_payload_start = ping_end + HEADER_LEN;
    let mut splits: Vec<usize> = Vec::new();
    splits.extend(0..=segment_payload_start + 2);
    splits.extend(bytes.len().saturating_sub(HEADER_LEN + 2)..=bytes.len());
    for _ in 0..48 {
        splits.push(gen.below(bytes.len() + 1));
    }
    for split in splits {
        let outcome = run_sansio_path(&bytes, |offset, remaining| {
            if offset < split {
                split - offset
            } else {
                remaining
            }
        });
        assert_equivalent(&outcome, &baseline, &format!("split at byte {split}"));
    }
    for chunk in [2, 3, 7, 16, 64, 1024, 65 * 1024, bytes.len() - 1] {
        let outcome = run_sansio_path(&bytes, |_, _| chunk);
        assert_equivalent(&outcome, &baseline, &format!("chunk size {chunk}"));
    }
}

// ---------------------------------------------------------------------------
// Curated malformed corpus
// ---------------------------------------------------------------------------

/// Every named corruption the header or body can carry: the decoder reports
/// the same typed error as the stream path whether the bytes arrive whole or
/// one at a time, and never panics or over-buffers doing it.
#[test]
fn curated_malformed_frames_match_the_stream_path_errors() {
    let mut rng = ChaCha8Rng::seed_from_u64(704);
    let id = 0x1122_3344_5566_7788u64;
    let ping = protocol::encode_message(id, &Message::Ping).expect("ping");
    let cached = protocol::encode_message(
        id,
        &Message::SegmentCached {
            image: random_image(&mut rng, 5),
            bypass: true,
        },
    )
    .expect("cached request");
    let cached_reply = protocol::encode_message(
        id,
        &Message::SegmentCachedReply {
            labels: random_labels(&mut rng, 5),
            cached: true,
        },
    )
    .expect("cached reply");
    let oversized = {
        let mut frame = ping.clone();
        frame[16..20].copy_from_slice(&((MAX_PAYLOAD_BYTES as u32) + 1).to_le_bytes());
        frame
    };
    let huge_dims = {
        let mut payload = Vec::new();
        payload.extend_from_slice(&0x0080_0000u32.to_le_bytes());
        payload.extend_from_slice(&0x0080_0000u32.to_le_bytes());
        raw_frame(0x01, id, &payload)
    };
    // Segment request prefixes the decoder judges as they arrive, each
    // behind a valid ping that must still be answered first.
    let after_ping = |frame: Vec<u8>| [ping.clone(), frame].concat();
    let delta = protocol::encode_message(
        id,
        &Message::SegmentDelta {
            image: random_image(&mut rng, 5),
        },
    )
    .expect("delta request");
    let segment_payload = |width: u32, height: u32, pixel_bytes: usize| {
        let mut payload = Vec::new();
        payload.extend_from_slice(&width.to_le_bytes());
        payload.extend_from_slice(&height.to_le_bytes());
        payload.resize(8 + pixel_bytes, 0x5A);
        payload
    };

    // (name, bytes, expected error variant prefix, is_header_error)
    let corpus: Vec<(&str, Vec<u8>, &str, bool)> = vec![
        ("bad-magic", patched(&ping, 0, b'X'), "BadMagic", true),
        ("bad-version", patched(&ping, 4, 3), "BadVersion", true),
        ("unknown-op", patched(&ping, 6, 0x7E), "UnknownOp", true),
        ("bad-reserved", patched(&ping, 7, 9), "BadReserved", true),
        ("oversized-payload", oversized, "PayloadTooLarge", true),
        (
            "bad-flags-request",
            patched(&cached, HEADER_LEN, 0x07),
            "BadFlags",
            false,
        ),
        (
            "bad-flags-reply",
            patched(&cached_reply, HEADER_LEN + 3, 0x80),
            "BadFlags",
            false,
        ),
        ("bad-dimensions", huge_dims, "BadDimensions", false),
        (
            "bad-length-ping",
            raw_frame(0x02, id, &[0xAB]),
            "BadLength",
            false,
        ),
        (
            "bad-length-reply",
            raw_frame(0x81, id, &[1, 2, 3]),
            "BadLength",
            false,
        ),
        (
            "bad-text",
            raw_frame(0xFF, id, &[0xFF, 0xFE, 0xFD]),
            "BadText",
            false,
        ),
        (
            "delta-request-flags",
            after_ping(patched(&delta, HEADER_LEN, 0x01)),
            "BadFlags",
            false,
        ),
        (
            "cached-request-shorter-than-its-prefix",
            after_ping(raw_frame(0x05, id, &[0, 0, 0, 0, 3, 0, 0, 0, 2])),
            "BadLength",
            false,
        ),
        (
            "segment-request-one-byte-short",
            after_ping(raw_frame(0x01, id, &segment_payload(4, 3, 3 * 12 - 1))),
            "BadLength",
            false,
        ),
        (
            "segment-request-one-byte-long",
            after_ping(raw_frame(0x01, id, &segment_payload(4, 3, 3 * 12 + 1))),
            "BadLength",
            false,
        ),
        (
            "zero-area-request-with-trailing-bytes",
            after_ping(raw_frame(0x01, id, &segment_payload(0, 7, 2))),
            "BadLength",
            false,
        ),
    ];

    for (name, bytes, variant, header_error) in corpus {
        let stream = run_stream_path(&bytes);
        let key = stream.error.clone().unwrap_or_else(|| {
            panic!("{name}: the stream path must reject this frame");
        });
        assert!(
            key.starts_with(variant),
            "{name}: stream path reported {key}, expected {variant}"
        );
        assert_eq!(stream.protocol_errors, 1, "{name}: one error counted");

        for chunk in [bytes.len(), 1, 3] {
            let outcome = run_sansio_path(&bytes, |_, _| chunk);
            assert_equivalent(
                &outcome,
                &stream,
                &format!("{name} via {chunk}-byte chunks"),
            );
        }

        // Header errors surface the instant the 20th byte arrives, echo the
        // request id exactly when the magic matched, and poison the decoder.
        if header_error {
            let mut decoder = FrameDecoder::new();
            let (consumed, event) = decoder.feed(&bytes[..HEADER_LEN - 1]);
            assert_eq!(consumed, HEADER_LEN - 1, "{name}: partial header accepted");
            assert!(event.is_none(), "{name}: no event before the 20th byte");
            assert!(decoder.mid_frame(), "{name}: mid-frame on a partial header");
            let (consumed, event) = decoder.feed(&bytes[HEADER_LEN - 1..]);
            assert_eq!(consumed, 1, "{name}: the 20th byte closes the header");
            assert!(
                matches!(event, Some(Err(_))),
                "{name}: the 20th byte surfaces the error"
            );
            assert!(decoder.is_failed(), "{name}: header error poisons");
            assert_eq!(decoder.frames_started(), 1, "{name}: the frame counted");
            let echoed = if name == "bad-magic" { 0 } else { id };
            assert_eq!(decoder.error_request_id(), echoed, "{name}: id echo");
            let (consumed, event) = decoder.feed(b"more");
            assert_eq!((consumed, event.is_none()), (0, true), "{name}: refused");
        }
    }
}

/// Truncated frames are not errors for the sans-io decoder (EOF belongs to
/// the transport): it parks mid-frame holding exactly the bytes that
/// arrived, while the stream path maps the same bytes to `UnexpectedEof`.
#[test]
fn truncated_frames_park_mid_frame_with_bounded_buffering() {
    let mut rng = ChaCha8Rng::seed_from_u64(705);
    let frame = protocol::encode_message(
        9,
        &Message::Segment {
            image: random_image(&mut rng, 7),
        },
    )
    .expect("segment");
    for cut in [
        1,
        7,
        HEADER_LEN - 1,
        HEADER_LEN,
        HEADER_LEN + 1,
        frame.len() - 1,
    ] {
        let bytes = &frame[..cut];
        let stream = run_stream_path(bytes);
        assert_eq!(stream.error.as_deref(), Some(EOF_KEY), "cut at {cut}");

        let mut decoder = FrameDecoder::new();
        let mut offset = 0;
        while offset < bytes.len() {
            let (consumed, event) = decoder.feed(&bytes[offset..]);
            assert!(event.is_none(), "cut at {cut}: no event for a prefix");
            offset += consumed;
        }
        assert!(decoder.mid_frame(), "cut at {cut}: parked mid-frame");
        assert!(
            !decoder.is_failed(),
            "cut at {cut}: truncation is not failure"
        );
        assert_eq!(
            decoder.buffered_bytes(),
            cut,
            "cut at {cut}: holds what arrived"
        );
        let expected_started = u64::from(cut >= HEADER_LEN);
        assert_eq!(
            decoder.frames_started(),
            expected_started,
            "cut at {cut}: request counted iff the header arrived"
        );
        assert_eq!(decoder.frames_decoded(), 0, "cut at {cut}");
    }
}

/// A warm pixel buffer offered through `feed_with` becomes the decoded
/// image's buffer: full size (written as it is), longer (cut to the frame)
/// or shorter with room to spare, the image's pixels live at the address
/// that was offered, whatever the chunking.
#[test]
fn a_warm_decoder_writes_into_the_very_buffer_it_was_offered() {
    let mut rng = ChaCha8Rng::seed_from_u64(706);
    let image = random_image(&mut rng, 40);
    let frame = protocol::encode_segment_cached(12, &image, false).expect("encodable");
    let pixels = image.len();
    for shape in ["full size", "longer", "shorter with room"] {
        for chunk in [frame.len(), 1, 3, 64] {
            let buffer = match shape {
                "full size" => vec![Rgb::new(9, 9, 9); pixels],
                "longer" => vec![Rgb::new(9, 9, 9); pixels + 17],
                _ => Vec::with_capacity(pixels),
            };
            let ptr = buffer.as_ptr();
            let mut offered = Some(buffer);
            let mut decoder = FrameDecoder::new();
            let mut decoded = None;
            for part in frame.chunks(chunk) {
                let mut part = part;
                while !part.is_empty() {
                    let (consumed, event) = decoder.feed_with(part, || {
                        offered.take().expect("the decoder asks for one buffer")
                    });
                    part = &part[consumed..];
                    if let Some(event) = event {
                        decoded = Some(event.expect("a valid frame"));
                    }
                }
            }
            let context = format!("{shape} warm buffer, {chunk}-byte chunks");
            assert!(offered.is_none(), "{context}: the buffer was taken");
            let message = decoded
                .expect("the frame completed")
                .into_message()
                .expect("a valid request");
            let Message::SegmentCached { image: got, bypass } = message else {
                panic!("{context}: expected a SegmentCached request");
            };
            assert!(!bypass, "{context}");
            assert_eq!(got, image, "{context}");
            assert_eq!(
                got.as_slice().as_ptr(),
                ptr,
                "{context}: the offered buffer"
            );
        }
    }
}

/// A peer that declares a 64 MiB frame, or the largest segment request,
/// and then stalls holds only about what it sent: a cold decoder's buffer
/// starts at 64 KiB or less and grows with the bytes that arrive, at most
/// to 64 KiB plus twice them — for a segment request's pixels and for any
/// other payload alike.
#[test]
fn a_stalled_64_mib_declaration_holds_about_what_arrived() {
    // 4096 x 4095 RGB pixels, just under the pixel limit, behind their
    // dimensions: 50,319,368 bytes.
    let (width, height) = (4096u32, 4095u32);
    let pixel_len = 8 + 3 * width as usize * height as usize;
    assert!(pixel_len <= MAX_PAYLOAD_BYTES);
    let declared = |op: u8, payload_len: usize, prefix: &[u8]| {
        let mut bytes = raw_frame(op, 3, prefix);
        bytes[16..20].copy_from_slice(&(payload_len as u32).to_le_bytes());
        bytes
    };
    let dims = [width.to_le_bytes(), height.to_le_bytes()].concat();
    for (name, head) in [
        ("segment request", declared(0x01, pixel_len, &dims)),
        ("error text", declared(0xFF, MAX_PAYLOAD_BYTES, &[])),
    ] {
        let mut decoder = FrameDecoder::new();
        let mut arrived = 0usize;
        let mut feed = |decoder: &mut FrameDecoder, bytes: &[u8]| {
            let (consumed, event) = decoder.feed(bytes);
            assert_eq!(consumed, bytes.len(), "{name}: all of it taken");
            assert!(event.is_none(), "{name}: the frame is not complete");
            arrived += consumed;
            assert!(
                decoder.reserved_bytes() <= (64 << 10) + 2 * arrived,
                "{name}: {} bytes reserved after {arrived} arrived",
                decoder.reserved_bytes()
            );
            assert_eq!(decoder.buffered_bytes(), arrived, "{name}");
        };
        for byte in head.chunks(1) {
            feed(&mut decoder, byte);
        }
        // A drip, then the reactor's 64 KiB reads, up to 2 MiB.
        let body = vec![0xA5u8; 64 << 10];
        for _ in 0..100 {
            feed(&mut decoder, &body[..1]);
        }
        for _ in 0..32 {
            feed(&mut decoder, &body);
        }
        assert!(decoder.mid_frame(), "{name}: stalled mid-frame");
        assert!(
            decoder.reserved_bytes() < 8 << 20,
            "{name}: {} bytes reserved for a 64 MiB declaration",
            decoder.reserved_bytes()
        );
    }
}

// ---------------------------------------------------------------------------
// Deterministic fuzz
// ---------------------------------------------------------------------------

/// Builds one fuzz input: pure xorshift noise, a valid stream with random
/// byte mutations, or a valid stream truncated at a random point.
fn fuzz_input(case: usize, rng: &mut ChaCha8Rng) -> Vec<u8> {
    let mut gen = XorShift64::new(((case as u64) << 32) | u64::from(rng.gen::<u32>()));
    match case % 3 {
        0 => {
            let len = 1 + gen.below(2048);
            (0..len).map(|_| gen.next_byte()).collect()
        }
        1 => {
            let mut pairs = Vec::new();
            for (index, message) in full_message_corpus(rng).into_iter().enumerate() {
                if gen.below(3) == 0 {
                    pairs.push((index as u64, message));
                }
            }
            let mut bytes = encode_stream(&pairs);
            if !bytes.is_empty() {
                for _ in 0..1 + gen.below(8) {
                    let at = gen.below(bytes.len());
                    bytes[at] ^= gen.next_byte() | 1;
                }
            }
            bytes
        }
        _ => {
            let pairs = vec![
                (1, Message::Ping),
                (
                    2,
                    Message::SegmentCached {
                        image: random_image(rng, 11),
                        bypass: gen.below(2) == 0,
                    },
                ),
                (3, Message::Stats),
            ];
            let bytes = encode_stream(&pairs);
            let cut = gen.below(bytes.len() + 1);
            bytes[..cut].to_vec()
        }
    }
}

/// Fuzzed byte streams, fed in randomized chunk sizes: the decoder never
/// panics, never buffers past the bound, refuses input only when poisoned,
/// and always matches the stream path's messages, typed errors and stats.
#[test]
fn xorshift_fuzz_streams_match_the_stream_path() {
    check(706, |case, rng| {
        let bytes = fuzz_input(case, rng);
        let stream = run_stream_path(&bytes);
        let mut gen = XorShift64::new(0xF00D ^ case as u64);
        for max_chunk in [1, 13, 97, 4096] {
            let outcome = run_sansio_path(&bytes, |_, _| 1 + gen.below(max_chunk));
            assert_equivalent(
                &outcome,
                &stream,
                &format!(
                    "case {case}, chunks up to {max_chunk} over {} bytes",
                    bytes.len()
                ),
            );
        }
    });
}

// ---------------------------------------------------------------------------
// Encoder partial writes
// ---------------------------------------------------------------------------

/// A `FrameEncoder` drained through arbitrary partial writes emits exactly
/// the concatenation of the queued frames — which the decoder then reads
/// back as the original messages.
#[test]
fn frame_encoder_partial_writes_reassemble_identical_streams() {
    check(707, |case, rng| {
        let mut pairs = Vec::new();
        for (index, message) in full_message_corpus(rng).into_iter().enumerate() {
            if rng.gen_range(0..3u8) == 0 {
                pairs.push((index as u64, message));
            }
        }
        let expected = encode_stream(&pairs);

        let mut encoder = FrameEncoder::new();
        let mut written = Vec::new();
        // Interleave enqueues with partial drains, as a reactor under
        // WouldBlock pressure would.
        for (id, message) in &pairs {
            encoder.enqueue(*id, message).expect("encodable message");
            if rng.gen_range(0..2u8) == 0 && !encoder.is_empty() {
                let n = rng.gen_range(1..=encoder.pending_len());
                written.extend_from_slice(&encoder.pending()[..n]);
                encoder.advance(n);
            }
        }
        while !encoder.is_empty() {
            let n = rng.gen_range(1..=encoder.pending_len());
            written.extend_from_slice(&encoder.pending()[..n]);
            encoder.advance(n);
        }
        assert_eq!(written, expected, "case {case}: drained bytes");
        assert_eq!(encoder.pending_len(), 0, "case {case}: nothing left queued");

        let outcome = run_sansio_path(&written, |_, _| 1 + (case % 37));
        assert_eq!(outcome.error, None, "case {case}");
        assert_eq!(outcome.messages, pairs, "case {case}: round-trip");
    });
}

// ---------------------------------------------------------------------------
// The client's single-copy reader and writer
// ---------------------------------------------------------------------------

/// A reader that hands out 1..=`max` bytes per call and now and then an
/// `Interrupted` error instead, as a busy socket can.
struct DripReader<'a> {
    bytes: &'a [u8],
    gen: XorShift64,
    max: usize,
}

impl std::io::Read for DripReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.gen.below(8) == 0 {
            return Err(std::io::ErrorKind::Interrupted.into());
        }
        let n = (1 + self.gen.below(self.max))
            .min(buf.len())
            .min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// A writer that takes 1..=`max` bytes per call, gathering across the
/// slices of a vectored write as `writev` does, and now and then fails with
/// `Interrupted` or `WouldBlock` instead.
struct ChokedWriter {
    out: Vec<u8>,
    gen: XorShift64,
    max: usize,
}

impl ChokedWriter {
    fn new(seed: u64, max: usize) -> Self {
        ChokedWriter {
            out: Vec::new(),
            gen: XorShift64::new(seed),
            max,
        }
    }
}

impl std::io::Write for ChokedWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.write_vectored(&[std::io::IoSlice::new(buf)])
    }

    fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
        match self.gen.below(8) {
            0 => return Err(std::io::ErrorKind::Interrupted.into()),
            1 => return Err(std::io::ErrorKind::WouldBlock.into()),
            _ => {}
        }
        let mut budget = 1 + self.gen.below(self.max);
        let mut written = 0;
        for buf in bufs {
            let take = budget.min(buf.len());
            self.out.extend_from_slice(&buf[..take]);
            written += take;
            budget -= take;
            if budget == 0 {
                break;
            }
        }
        Ok(written)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The client's read path over `bytes`: `read_message` through a dripping
/// reader until the bytes run out or a frame fails.
fn run_reader_path(bytes: &[u8], seed: u64, max: usize) -> (Vec<(u64, Message)>, Option<String>) {
    let mut reader = DripReader {
        bytes,
        gen: XorShift64::new(seed),
        max,
    };
    let mut messages = Vec::new();
    while !reader.bytes.is_empty() {
        match protocol::read_message(&mut reader) {
            Ok(pair) => messages.push(pair),
            Err(e) => return (messages, Some(error_key(&e))),
        }
    }
    (messages, None)
}

/// Asserts the reader path matches the stream path exactly — messages and
/// typed error, truncation (`Io(UnexpectedEof)`) included — at several
/// read granularities.
fn assert_reader_matches_stream(bytes: &[u8], context: &str) {
    let stream = run_stream_path(bytes);
    for (seed, max) in [(1u64, 1usize), (2, 3), (3, 17), (4, 4096)] {
        let (messages, error) = run_reader_path(bytes, seed, max);
        assert_eq!(
            messages, stream.messages,
            "messages diverge ({context}, reads up to {max})"
        );
        assert_eq!(
            error, stream.error,
            "typed errors diverge ({context}, reads up to {max})"
        );
    }
}

/// `read_message` reads a segment reply's labels straight into the returned
/// map, judging its prefix before allocating.  Over the suite's corpus —
/// every valid message, the curated malformed frames, every truncation of
/// every segment reply (malformed prefixes included), and the fuzz streams —
/// it yields exactly what the stream path (`parse_header` + `read_exact` +
/// `decode_body`) yields, read by read down to one byte at a time.
#[test]
fn the_single_copy_reader_matches_the_stream_path() {
    let mut rng = ChaCha8Rng::seed_from_u64(708);
    let corpus = full_message_corpus(&mut rng);
    let pairs: Vec<(u64, Message)> = corpus
        .iter()
        .cloned()
        .enumerate()
        .map(|(index, message)| (index as u64 * 0x0101_0101 + 1, message))
        .collect();
    let valid = encode_stream(&pairs);
    assert_reader_matches_stream(&valid, "the valid corpus stream");

    for (id, message) in &pairs {
        let is_label_reply = matches!(
            message,
            Message::SegmentReply { .. }
                | Message::SegmentCachedReply { .. }
                | Message::SegmentDeltaReply { .. }
        );
        if !is_label_reply {
            continue;
        }
        let frame = protocol::encode_message(*id, message).expect("encodable");
        // A reply whose first payload word is a flags word, with an
        // undefined bit set; on a plain reply the same byte is the width,
        // which then disagrees with the payload length.
        let bad_prefix = patched(&frame, HEADER_LEN + 1, 0x80);
        for bytes in [&frame, &bad_prefix] {
            for cut in 0..=bytes.len() {
                assert_reader_matches_stream(
                    &bytes[..cut],
                    &format!("{} cut at {cut} of {}", message.name(), bytes.len()),
                );
            }
        }
    }

    // The curated malformed frames, replies and requests alike.
    let id = 0x55;
    let reply = protocol::encode_message(
        id,
        &Message::SegmentDeltaReply {
            labels: random_labels(&mut rng, 6),
            tiles_hit: 3,
            tiles_recomputed: 4,
        },
    )
    .expect("delta reply");
    let mut oversized_dims = raw_frame(0x85, id, &[0; 12]);
    oversized_dims[HEADER_LEN + 4..HEADER_LEN + 8].copy_from_slice(&u32::MAX.to_le_bytes());
    oversized_dims[HEADER_LEN + 8..HEADER_LEN + 12].copy_from_slice(&u32::MAX.to_le_bytes());
    for (name, bytes) in [
        (
            "short delta reply",
            raw_frame(0x86, id, &[0, 0, 0, 0, 1, 2]),
        ),
        ("short cached reply", raw_frame(0x85, id, &[0, 0])),
        ("reply without dims", raw_frame(0x81, id, &[1, 2, 3])),
        ("reply dims overflow", oversized_dims),
        ("reply one label short", reply[..reply.len() - 4].to_vec()),
        ("reply length off by one", {
            let mut bytes = reply.clone();
            let len = bytes.len() - HEADER_LEN - 1;
            bytes[16..20].copy_from_slice(&(len as u32).to_le_bytes());
            bytes.pop();
            bytes
        }),
        ("bad magic", patched(&reply, 0, b'X')),
        ("v1 frame", patched(&reply, 4, 1)),
    ] {
        assert_reader_matches_stream(&bytes, name);
    }

    check(709, |case, rng| {
        let bytes = fuzz_input(case, rng);
        assert_reader_matches_stream(&bytes, &format!("fuzz case {case}"));
    });
}

/// The client's request writer emits exactly `encode_segment{,_cached,
/// _delta}`'s bytes, head and pixels gathered into vectored writes, through
/// a transport that takes 1..k bytes at a time, interrupts, and blocks —
/// resuming each time where the last write stopped.
#[test]
fn the_request_writer_emits_the_reference_encoders_bytes() {
    check(710, |case, rng| {
        let image = if case == 0 {
            RgbImage::from_vec(0, 0, Vec::new()).expect("a 0x0 image")
        } else if case % 8 == 1 {
            random_image(rng, 300)
        } else {
            random_image(rng, 9)
        };
        let id = rng.gen::<u64>();
        let requests = [
            ("Segment", protocol::encode_segment(id, &image)),
            (
                "SegmentCached",
                protocol::encode_segment_cached(id, &image, false),
            ),
            (
                "SegmentCached, bypassed",
                protocol::encode_segment_cached(id, &image, true),
            ),
            ("SegmentDelta", protocol::encode_segment_delta(id, &image)),
        ];
        for (name, reference) in requests {
            let reference = reference.expect("reference encoding");
            for max in [1usize, 7, 1 << 16] {
                let mut writer = match name {
                    "Segment" => protocol::RequestWriter::segment(id, &image),
                    "SegmentDelta" => protocol::RequestWriter::segment_delta(id, &image),
                    _ => protocol::RequestWriter::segment_cached(
                        id,
                        &image,
                        name.ends_with("bypassed"),
                    ),
                }
                .expect("writer");
                assert_eq!(writer.request_id(), id, "case {case}: {name}");
                assert_eq!(writer.remaining(), reference.len(), "case {case}: {name}");
                let mut wire = ChokedWriter::new(case as u64 ^ max as u64, max);
                loop {
                    match writer.write_to(&mut wire) {
                        Ok(()) => break,
                        // Resume where the blocked write stopped.
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                        Err(e) => panic!("case {case}: {name}: {e}"),
                    }
                }
                assert_eq!(
                    wire.out, reference,
                    "case {case}: {name}, writes up to {max}"
                );
                assert_eq!(writer.remaining(), 0, "case {case}: {name}");
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Label replies queued in place
// ---------------------------------------------------------------------------

/// Label replies queued in place (`enqueue_reply`), interleaved with encoded
/// frames and drained through partial writes — both `pending`/`advance` and
/// vectored writes that span chunks — emit exactly `encode_message`'s bytes.
/// `pending_len` counts every queued byte, label buffers included, and each
/// label buffer comes back through `take_written` exactly once, in order,
/// and only after its last byte was written.
#[test]
fn label_replies_queued_in_place_drain_to_the_reference_bytes() {
    check(711, |case, rng| {
        let mut encoder = FrameEncoder::new();
        let mut expected = Vec::new();
        let mut written = Vec::new();
        // (end offset in the stream, buffer address) per queued label reply.
        let mut owed: std::collections::VecDeque<(usize, *const u32)> = Default::default();
        let mut wire = ChokedWriter::new(case as u64, 1 + case % 97);
        let mut drain = |encoder: &mut FrameEncoder,
                         written: &mut Vec<u8>,
                         owed: &mut std::collections::VecDeque<(usize, *const u32)>,
                         rng: &mut ChaCha8Rng| {
            if encoder.is_empty() {
                return;
            }
            if rng.gen_range(0..2u8) == 0 {
                let n = rng.gen_range(1..=encoder.pending().len());
                written.extend_from_slice(&encoder.pending()[..n]);
                encoder.advance(n);
            } else {
                let before = wire.out.len();
                match encoder.write_to(&mut wire) {
                    Ok(n) => assert_eq!(wire.out.len() - before, n, "case {case}"),
                    Err(e) => assert!(
                        matches!(
                            e.kind(),
                            std::io::ErrorKind::Interrupted | std::io::ErrorKind::WouldBlock
                        ),
                        "case {case}: {e}"
                    ),
                }
                written.extend_from_slice(&wire.out[before..]);
            }
            for labels in encoder.take_written() {
                let (end, ptr) = owed.pop_front().expect("a label buffer came back once");
                assert_eq!(labels.as_slice().as_ptr(), ptr, "case {case}: in order");
                assert!(
                    written.len() >= end,
                    "case {case}: back before its last byte"
                );
            }
            if let Some(&(end, _)) = owed.front() {
                assert!(
                    written.len() < end,
                    "case {case}: written but not handed back"
                );
            }
        };
        for (index, message) in full_message_corpus(rng).into_iter().enumerate() {
            if rng.gen_range(0..3u8) == 0 {
                continue;
            }
            let id = index as u64 ^ rng.gen::<u64>();
            let frame = protocol::encode_message(id, &message).expect("encodable");
            expected.extend_from_slice(&frame);
            let label_buffer = match &message {
                Message::SegmentReply { labels }
                | Message::SegmentCachedReply { labels, .. }
                | Message::SegmentDeltaReply { labels, .. } => Some(labels.as_slice().as_ptr()),
                _ => None,
            };
            let pending_before = encoder.pending_len();
            if label_buffer.is_some() || rng.gen_range(0..2u8) == 0 {
                encoder.enqueue_reply(id, message).expect("encodable");
            } else {
                encoder.enqueue(id, &message).expect("encodable");
            }
            assert_eq!(
                encoder.pending_len(),
                pending_before + frame.len(),
                "case {case}: pending_len counts the whole frame"
            );
            if let Some(ptr) = label_buffer {
                owed.push_back((expected.len(), ptr));
            }
            assert_eq!(
                encoder.pending_len(),
                expected.len() - written.len(),
                "case {case}"
            );
            if rng.gen_range(0..2u8) == 0 {
                drain(&mut encoder, &mut written, &mut owed, rng);
            }
        }
        while !encoder.is_empty() {
            drain(&mut encoder, &mut written, &mut owed, rng);
            assert_eq!(
                encoder.pending_len(),
                expected.len() - written.len(),
                "case {case}"
            );
        }
        assert_eq!(written, expected, "case {case}: drained bytes");
        assert!(owed.is_empty(), "case {case}: every label buffer came back");
        assert_eq!(encoder.take_written().count(), 0, "case {case}");
    });
}

/// A connection that closes mid-queue: label replies queued between encoded
/// frames, part of the queue written (some buffers in full, one perhaps
/// mid-way), then `abandon`.  Every label buffer comes back exactly once,
/// through `take_written` or `abandon`, and nothing stays pending.
#[test]
fn abandoning_the_queue_hands_back_every_label_buffer_once() {
    check(712, |case, rng| {
        let mut encoder = FrameEncoder::new();
        let mut queued = Vec::new();
        let mut total = 0;
        for (index, message) in full_message_corpus(rng).into_iter().enumerate() {
            if let Message::SegmentReply { labels }
            | Message::SegmentCachedReply { labels, .. }
            | Message::SegmentDeltaReply { labels, .. } = &message
            {
                queued.push(labels.as_slice().as_ptr());
            }
            total += protocol::encode_message(index as u64, &message)
                .expect("encodable")
                .len();
            encoder
                .enqueue_reply(index as u64, message)
                .expect("encodable");
        }
        let mut wire = ChokedWriter::new(case as u64, 1 + case % 97);
        let mut to_write = rng.gen_range(0..=total);
        let mut back = Vec::new();
        while to_write > 0 {
            let n = rng.gen_range(1..=encoder.pending().len().min(to_write));
            if rng.gen_range(0..2u8) == 0 {
                encoder.advance(n);
                to_write -= n;
            } else if let Ok(n) = encoder.write_to(&mut wire) {
                to_write = to_write.saturating_sub(n);
            }
            back.extend(encoder.take_written().map(|l| l.as_slice().as_ptr()));
        }
        back.extend(encoder.abandon().map(|l| l.as_slice().as_ptr()));
        back.sort();
        queued.sort();
        assert_eq!(back, queued, "case {case}: each buffer back exactly once");
        assert!(encoder.is_empty(), "case {case}");
        assert_eq!(encoder.pending_len(), 0, "case {case}");
        assert!(encoder.pending().is_empty(), "case {case}");
        assert_eq!(encoder.take_written().count(), 0, "case {case}");
        assert_eq!(encoder.abandon().count(), 0, "case {case}");
    });
}
