//! Committed goldens, regenerated and diffed by tier-1.
//!
//! - `tests/golden/oracle_labels.txt` pins the exact IQFT oracle.  Every fast
//!   path (quantized tables, SIMD kernels, tiling, caching, the wire) is
//!   checked for byte-identity against the exact oracle, so a drift shared
//!   by the oracle itself would go unnoticed by those suites.  For the first
//!   8 images of the harness's default VOC-like and xView-like sets (seed 42,
//!   160 px frames, built exactly as `experiments::tables::table3_run` builds
//!   them) the test digests the labels of `IqftRgbSegmenter::paper_default()`
//!   and `IqftGraySegmenter::paper_default()`.  The digest is 128-bit FNV-1a
//!   over one byte per label, defined here rather than borrowed from the
//!   result cache, so neither a new cache hash nor a narrower label type
//!   changes the golden.
//! - `tests/golden/wire_transcript.txt` pins the wire: one request/reply
//!   frame pair per protocol op as a hex dump, including the Busy and Error
//!   replies and the typed `BadVersion` answer to a v1 frame.
//! - `tests/golden/paper_outputs.txt` pins what the harness prints for the
//!   paper: Tables I–III and Figs. 1–10 at the `all` subcommand's reduced
//!   sizes, with Table III's runtimes zeroed.  That covers K-means, Otsu,
//!   mIOU, the θ tables and `auto_theta`, which the oracle digests do not.
//!   The text is rendered on the serial and on a two-thread engine, and
//!   both must agree.
//!
//! On a mismatch the failure message carries the first differing line and
//! the full regenerated file.  `IQFT_BLESS=1 cargo test --test golden`
//! rewrites the files instead (rustc's UI tests call this `--bless`), so a
//! deliberate change shows up as a reviewable diff of the golden.

use datasets::{
    LabeledImage, PascalVocLikeConfig, PascalVocLikeDataset, XViewLikeConfig, XViewLikeDataset,
};
use imaging::{LabelMap, Rgb, RgbImage, Segmenter};
use iqft_seg::{IqftGraySegmenter, IqftRgbSegmenter};
use iqft_serve::protocol::{self, FrameDecoder, FrameEncoder, Message, RequestWriter};
use seg_engine::SegmentEngine;
use std::fmt::Write as _;

const ORACLE_GOLDEN: &str = include_str!("golden/oracle_labels.txt");
const WIRE_GOLDEN: &str = include_str!("golden/wire_transcript.txt");
const PAPER_GOLDEN: &str = include_str!("golden/paper_outputs.txt");

/// Images taken from the front of each dataset.
const IMAGES: usize = 8;
/// The harness's default seed and frame size (`iqft-experiments table3`).
const SEED: u64 = 42;
const SIZE: usize = 160;

/// 128-bit FNV-1a over one byte per label.
fn label_digest(labels: &LabelMap) -> u128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013b;
    labels.as_slice().iter().fold(OFFSET, |hash, &label| {
        let byte = u8::try_from(label).expect("oracle labels fit in one byte");
        (hash ^ u128::from(byte)).wrapping_mul(PRIME)
    })
}

fn voc_images() -> Vec<LabeledImage> {
    let dataset = PascalVocLikeDataset::new(PascalVocLikeConfig {
        width: SIZE,
        height: SIZE * 3 / 4,
        seed: SEED,
        ..PascalVocLikeConfig::default()
    });
    (0..IMAGES).map(|i| dataset.sample(i)).collect()
}

fn xview_images() -> Vec<LabeledImage> {
    let dataset = XViewLikeDataset::new(XViewLikeConfig {
        width: SIZE,
        height: SIZE,
        seed: SEED.wrapping_add(1),
        ..XViewLikeConfig::default()
    });
    (0..IMAGES).map(|i| dataset.sample(i)).collect()
}

/// The golden file's text, one line per (dataset, image, method).
fn regenerate() -> String {
    let methods: [(&str, Box<dyn Segmenter>); 2] = [
        ("iqft_rgb", Box::new(IqftRgbSegmenter::paper_default())),
        ("iqft_gray", Box::new(IqftGraySegmenter::paper_default())),
    ];
    let mut out = String::new();
    for (dataset, images) in [("voc", voc_images()), ("xview", xview_images())] {
        for (index, sample) in images.iter().enumerate() {
            let (width, height) = sample.image.dimensions();
            for (method, segmenter) in &methods {
                let digest = label_digest(&segmenter.segment_rgb(&sample.image));
                out.push_str(&format!(
                    "{dataset} {index} {width}x{height} {method} {digest:032x}\n"
                ));
            }
        }
    }
    out
}

/// Diffs `actual` against the committed golden `name`, or rewrites the
/// file when `IQFT_BLESS=1` is set.
fn check_golden(name: &str, golden: &str, actual: &str) {
    if std::env::var_os("IQFT_BLESS").is_some_and(|value| value == "1") {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(name);
        std::fs::write(&path, actual).unwrap_or_else(|e| panic!("bless {}: {e}", path.display()));
        return;
    }
    if actual == golden {
        return;
    }
    let first_diff = actual
        .lines()
        .zip(golden.lines())
        .enumerate()
        .find(|(_, (a, g))| a != g)
        .map(|(n, (a, g))| format!("line {}: golden `{g}`, regenerated `{a}`", n + 1))
        .unwrap_or_else(|| {
            format!(
                "line counts differ: golden {}, regenerated {}",
                golden.lines().count(),
                actual.lines().count()
            )
        });
    panic!(
        "regenerated text drifted from tests/golden/{name}\n\
         first difference: {first_diff}\n\
         regenerated file (bless it with IQFT_BLESS=1 only for a deliberate change):\n{actual}"
    );
}

#[test]
fn exact_oracle_labels_match_the_golden_digests() {
    check_golden("oracle_labels.txt", ORACLE_GOLDEN, &regenerate());
}

// ---------------------------------------------------------------------------
// Paper outputs
// ---------------------------------------------------------------------------

/// Every table and figure report the harness prints, rendered on `engine`.
/// No figure writes images, and Table III's wall-clock runtimes are zeroed.
fn paper_outputs(engine: &SegmentEngine) -> String {
    use experiments::{figures, tables};
    let mut summaries = tables::table3_run(&tables::Table3Config {
        voc_images: 8,
        xview_images: 8,
        image_size: 96,
        seed: SEED,
        backend: engine.backend(),
        ..tables::Table3Config::default()
    });
    for method in summaries.iter_mut().flat_map(|d| d.methods.iter_mut()) {
        method.total_runtime_secs = 0.0;
    }
    [
        tables::table1_text(),
        tables::table2_text(20_000, SEED),
        tables::table3_text(&summaries),
        figures::fig1_3_text(),
        figures::fig4_report(engine, None),
        figures::fig5_report(engine, None),
        figures::fig6_report(engine, None),
        figures::fig7_report(engine, None),
        figures::fig8_9_report(engine, false, None, 12),
        figures::fig8_9_report(engine, true, None, 12),
        figures::fig10_report(engine, 12),
    ]
    .join("\n")
}

#[test]
fn paper_outputs_match_the_golden_text() {
    let serial = paper_outputs(&SegmentEngine::serial());
    let threaded = paper_outputs(&SegmentEngine::with_threads(2));
    assert_eq!(serial, threaded, "the serial and two-thread engines agree");
    check_golden("paper_outputs.txt", PAPER_GOLDEN, &serial);
}

// ---------------------------------------------------------------------------
// Wire transcript
// ---------------------------------------------------------------------------

/// A 3x2 image whose bytes count up from 0x10, so the dump shows the pixel
/// order at a glance.
fn transcript_image() -> RgbImage {
    RgbImage::from_fn(3, 2, |x, y| {
        let i = (y * 3 + x) as u8 * 3;
        Rgb::new(0x10 + i, 0x11 + i, 0x12 + i)
    })
}

/// Labels that put a distinct value in every byte of the 4-byte wire label.
fn transcript_labels() -> LabelMap {
    LabelMap::from_vec(3, 2, vec![0, 1, 7, 0x0102_0304, u32::MAX, 0xDEAD_BEEF]).expect("3x2 labels")
}

/// A transport that takes one byte per write, the worst case for a writer
/// that has to resume.
#[derive(Default)]
struct OneByteWrites(Vec<u8>);

impl std::io::Write for OneByteWrites {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let Some(&byte) = buf.first() else {
            return Ok(0);
        };
        self.0.push(byte);
        Ok(1)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The request frame for `message` as the client writes it: segment
/// requests through its `RequestWriter`, straight from the image, and the
/// rest through `write_message`.  Checked against `encode_message`.
fn client_request(id: u64, message: &Message) -> Vec<u8> {
    let mut wire = OneByteWrites::default();
    let writer = match message {
        Message::Segment { image } => Some(RequestWriter::segment(id, image)),
        Message::SegmentCached { image, bypass } => {
            Some(RequestWriter::segment_cached(id, image, *bypass))
        }
        Message::SegmentDelta { image } => Some(RequestWriter::segment_delta(id, image)),
        _ => None,
    };
    match writer {
        Some(writer) => writer
            .expect("encodable request")
            .write_to(&mut wire)
            .expect("written"),
        None => protocol::write_message(&mut wire, id, message).expect("written"),
    }
    let reference = protocol::encode_message(id, message).expect("encodable request");
    assert_eq!(wire.0, reference, "{} request", message.name());
    wire.0
}

/// The reply frame for `reply` as the daemon writes it: queued by value on
/// a `FrameEncoder`, a segment reply's labels in place, and drained one byte
/// per write.  Checked against `encode_message`, and every label buffer must
/// come back once its last byte is out.
fn daemon_reply(id: u64, reply: Message) -> Vec<u8> {
    let reference = protocol::encode_message(id, &reply).expect("encodable reply");
    let name = reply.name();
    let labelled = matches!(
        reply,
        Message::SegmentReply { .. }
            | Message::SegmentCachedReply { .. }
            | Message::SegmentDeltaReply { .. }
    );
    let mut encoder = FrameEncoder::new();
    encoder.enqueue_reply(id, reply).expect("encodable reply");
    let mut wire = OneByteWrites::default();
    while !encoder.is_empty() {
        assert_eq!(encoder.write_to(&mut wire).expect("written"), 1);
    }
    assert_eq!(wire.0, reference, "{name} reply");
    assert_eq!(
        encoder.take_written().count(),
        usize::from(labelled),
        "{name}: label buffers handed back"
    );
    wire.0
}

/// The daemon's typed error reply to a malformed request: the same decoder
/// calls the reactor makes, so the text and the echoed id are what a peer
/// sending these bytes receives.
fn error_reply(request: &[u8]) -> Vec<u8> {
    let mut decoder = FrameDecoder::new();
    let mut offset = 0;
    let event = loop {
        let (consumed, event) = decoder.feed(&request[offset..]);
        offset += consumed;
        if let Some(event) = event {
            break event;
        }
        assert!(consumed > 0, "a whole frame was fed");
    };
    let (id, err) = match event {
        Err(err) => (decoder.error_request_id(), err),
        Ok(frame) => (
            frame.header.request_id,
            frame.message().expect_err("a malformed body"),
        ),
    };
    daemon_reply(
        id,
        Message::Error {
            message: err.to_string(),
        },
    )
}

fn hex_dump(out: &mut String, direction: &str, frame: &[u8]) {
    let id = u64::from_le_bytes(frame[8..16].try_into().expect("a whole header"));
    let what = match protocol::decode_message(frame) {
        Ok((_, message)) => message.name().to_string(),
        Err(err) => format!("undecodable: {err:?}"),
    };
    let _ = writeln!(
        out,
        "{direction} {what} id={id:#018x} bytes={}",
        frame.len()
    );
    for (row, bytes) in frame.chunks(16).enumerate() {
        let hex: Vec<String> = bytes.iter().map(|b| format!("{b:02x}")).collect();
        let _ = writeln!(out, "  {:04x}  {}", row * 16, hex.join(" "));
    }
}

/// The transcript's text: one request (`>`) and reply (`<`) pair per op.
fn wire_transcript() -> String {
    let image = transcript_image();
    let labels = transcript_labels();
    let id = |n: u64| 0x0102_0304_0506_0000 + n;
    let cached = |n| {
        client_request(
            id(n),
            &Message::SegmentCached {
                image: image.clone(),
                bypass: false,
            },
        )
    };
    let mut bad_flags = cached(9);
    bad_flags[protocol::HEADER_LEN] |= 0x02;
    let mut v1_ping = client_request(id(11), &Message::Ping);
    v1_ping[4..6].copy_from_slice(&1u16.to_le_bytes());

    let pairs: Vec<(&str, Vec<u8>, Vec<u8>)> = vec![
        (
            "Segment",
            client_request(
                id(1),
                &Message::Segment {
                    image: image.clone(),
                },
            ),
            daemon_reply(
                id(1),
                Message::SegmentReply {
                    labels: labels.clone(),
                },
            ),
        ),
        (
            "SegmentCached, bypassed",
            client_request(
                id(2),
                &Message::SegmentCached {
                    image: image.clone(),
                    bypass: true,
                },
            ),
            daemon_reply(
                id(2),
                Message::SegmentCachedReply {
                    labels: labels.clone(),
                    cached: false,
                },
            ),
        ),
        (
            "SegmentCached, a hit",
            cached(3),
            daemon_reply(
                id(3),
                Message::SegmentCachedReply {
                    labels: labels.clone(),
                    cached: true,
                },
            ),
        ),
        (
            "SegmentDelta",
            client_request(
                id(4),
                &Message::SegmentDelta {
                    image: image.clone(),
                },
            ),
            daemon_reply(
                id(4),
                Message::SegmentDeltaReply {
                    labels,
                    tiles_hit: 0x0A0B_0C0D,
                    tiles_recomputed: 2,
                },
            ),
        ),
        (
            "Ping",
            client_request(id(5), &Message::Ping),
            daemon_reply(id(5), Message::Pong),
        ),
        (
            "Stats",
            client_request(id(6), &Message::Stats),
            daemon_reply(
                id(6),
                Message::StatsReply {
                    text: "requests=3\nplan=classifier=table;tile=off;backend=serial\n".to_string(),
                },
            ),
        ),
        (
            "Shutdown",
            client_request(id(7), &Message::Shutdown),
            daemon_reply(id(7), Message::ShutdownReply),
        ),
        (
            "Segment, shed by admission control",
            client_request(
                id(8),
                &Message::Segment {
                    image: image.clone(),
                },
            ),
            daemon_reply(id(8), Message::Busy),
        ),
        (
            "SegmentCached with an undefined flag bit",
            bad_flags.clone(),
            error_reply(&bad_flags),
        ),
        (
            "Ping from a v1 peer",
            v1_ping.clone(),
            error_reply(&v1_ping),
        ),
    ];

    let mut out = String::from(
        "# iqft-serve wire transcript: one request (>) / reply (<) frame pair per op.\n\
         # Regenerate with IQFT_BLESS=1 cargo test --test golden.\n",
    );
    for (title, request, reply) in pairs {
        let _ = writeln!(out, "\n== {title}");
        hex_dump(&mut out, ">", &request);
        hex_dump(&mut out, "<", &reply);
    }
    out
}

#[test]
fn wire_frames_match_the_golden_transcript() {
    check_golden("wire_transcript.txt", WIRE_GOLDEN, &wire_transcript());
}
