//! The `iqft-serve` wire protocol: length-prefixed binary frames.
//!
//! Every message on the wire is one *frame*: a fixed 20-byte header followed
//! by an op-specific payload.  All integers are little-endian.
//!
//! ```text
//! offset  size  field
//!      0     4  magic        b"IQFT"
//!      4     2  version      u16 (currently 2)
//!      6     1  op           u8 (see [`Op`])
//!      7     1  reserved     must be 0
//!      8     8  request id   u64 (echoed verbatim in the reply)
//!     16     4  payload len  u32 (bounded by [`MAX_PAYLOAD_BYTES`])
//!     20     …  payload      op-specific, exactly `payload len` bytes
//! ```
//!
//! Payloads:
//!
//! * [`Message::Segment`] — `width: u32, height: u32`, then `3·w·h` RGB bytes
//!   in row-major pixel order.
//! * [`Message::SegmentReply`] — `width: u32, height: u32`, then `4·w·h`
//!   label bytes (`u32` per pixel).
//! * [`Message::SegmentCached`] (v2) — `flags: u32` (bit 0 =
//!   `FLAG_BYPASS_CACHE`; other bits must be zero), then the `Segment`
//!   layout.  Lets the client opt a request into the server's
//!   content-addressed result cache, or explicitly around it.
//! * [`Message::SegmentCachedReply`] (v2) — `flags: u32` (bit 0 =
//!   `FLAG_CACHE_HIT`), then the `SegmentReply` layout.
//! * [`Message::SegmentDelta`] (v2) — `flags: u32` (no flags defined yet;
//!   must be zero), then the `Segment` layout.  Routes the frame through the
//!   server's *per-tile* delta cache: unchanged tiles are stitched from
//!   cache, only changed tiles are re-classified.
//! * [`Message::SegmentDeltaReply`] (v2) — `flags: u32` (must be zero),
//!   `tiles_hit: u32`, `tiles_recomputed: u32`, then the `SegmentReply`
//!   layout.
//! * [`Message::StatsReply`] / [`Message::Error`] — UTF-8 text.
//! * [`Message::Busy`] (v2) — empty.  A load-shedding refusal: the segment
//!   request was well-formed but the server did not execute it, and it may
//!   be retried.  This crate's daemon never sends it (a saturated reactor
//!   stops reading instead); clients still decode it.
//! * Everything else — empty (a non-empty payload is a protocol error).
//!
//! # Version 2 and pipelining
//!
//! Protocol v2 (this version) adds the cached-segmentation ops above and
//! makes *pipelining* explicit: a connection may have up to
//! [`MAX_PIPELINE_DEPTH`] request frames in flight before reading a reply,
//! and replies — which always echo the request id — may arrive in
//! **completion order**, not necessarily request order.  Clients must match
//! replies to requests by id (`Client::segment_pipelined` does the
//! reordering).  The current server answers each connection's frames in
//! order, which is one valid completion order; clients must not rely on it.
//!
//! A v1 frame sent to a v2 peer is answered with a typed
//! [`Message::Error`] frame carrying the [`ProtocolError::BadVersion`]
//! diagnostic — never a panic, never a hang.
//!
//! Decoding is fully checked: a malformed frame — bad magic, unknown
//! version/op, a length field that disagrees with the declared dimensions, or
//! a payload larger than [`MAX_PAYLOAD_BYTES`] — yields a [`ProtocolError`]
//! *before* any unbounded allocation, and never panics.
//!
//! # Sans-io core
//!
//! Frame decoding is a pure state machine with no I/O inside:
//! [`FrameDecoder`] is fed byte chunks of any size (from a blocking read, a
//! nonblocking read, or a test vector) and yields complete [`Frame`]s or one
//! typed error; [`FrameEncoder`] mirrors it on the write side, queueing
//! replies and tracking partial writes.  The blocking helpers below
//! ([`read_message`], [`write_message`]) and the server's readiness loop
//! are both thin transports over the same `parse_header` /
//! [`decode_body`] validation, so every path emits identical typed errors —
//! which is what lets the protocol be property- and fuzz-tested with no
//! sockets at all (`tests/protocol_sansio.rs`).
//!
//! # One copy per segment frame
//!
//! Each segment frame crosses each end of the wire with one copy in user
//! space, into or out of the buffer the frame describes; the bytes are the
//! same as [`encode_message`]'s.  A request goes out through a
//! [`RequestWriter`]: a head of at most 32 bytes built on the stack, then
//! the image's own bytes, in one vectored write.  On the daemon's side the
//! [`FrameDecoder`] judges the request's fixed prefix with the checks
//! [`decode_body`] runs, then copies each chunk the reactor reads straight
//! into the pixels of the image the request will carry, a warm buffer from
//! the daemon's pixel arena.  [`FrameEncoder::enqueue_reply`] queues a
//! reply's label buffer itself behind a head of at most 40 bytes — the
//! buffer a cached reply shares with the result cache — and hands it back
//! once its last byte is written.  [`read_message`] reads a reply's labels
//! straight into the buffer the returned [`LabelMap`] owns, after judging
//! its fixed prefix.  Labels go out as they are on little-endian targets (a
//! big-endian daemon writes a little-endian copy) and are converted in
//! place with `from_le` on the way in.  The allocating encoders
//! ([`encode_message`], [`encode_segment`] and its `_cached` and `_delta`
//! twins) and [`decode_body`] remain the byte-exact reference.

use imaging::{labels_as_bytes, labels_as_bytes_mut, LabelMap, Rgb, RgbImage};
use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::sync::Arc;

/// Frame magic: the first four bytes of every frame.
pub(crate) const MAGIC: [u8; 4] = *b"IQFT";
/// Current protocol version (2: cached-segmentation ops + pipelining).
pub const VERSION: u16 = 2;
/// Fixed frame-header size in bytes.
pub const HEADER_LEN: usize = 20;
/// Hard upper bound on a frame payload (64 MiB).  A frame declaring more is
/// rejected before any payload allocation happens.
pub const MAX_PAYLOAD_BYTES: usize = 64 << 20;
/// The longest fixed prefix of a segment payload: a `SegmentDeltaReply`'s
/// flags word, two tile counters and dimensions.
const MAX_SEGMENT_PREFIX_BYTES: usize = 20;
/// The longest segment frame head: the header plus the longest prefix.
const MAX_SEGMENT_HEAD_BYTES: usize = HEADER_LEN + MAX_SEGMENT_PREFIX_BYTES;
/// Hard upper bound on the pixel count of one segmentation request, chosen so
/// every segment payload fits under [`MAX_PAYLOAD_BYTES`]: the RGB requests
/// (`3·n` bytes) and the label replies (`4·n` bytes), even behind the
/// largest fixed prefix, the delta reply's 20 bytes.
pub(crate) const MAX_PIXELS: usize = (MAX_PAYLOAD_BYTES - MAX_SEGMENT_PREFIX_BYTES) / 4;
/// Maximum request frames a connection may have in flight before reading a
/// reply (protocol v2 pipelining).  Clients clamp to this.  Note this
/// bounds *frames*, not bytes: a deep burst of large frames can exceed any
/// socket buffer, which is why the client's pipelined writer drains replies
/// whenever a request write would block instead of relying on buffering.
pub const MAX_PIPELINE_DEPTH: usize = 32;
/// `SegmentCached` request flag: skip the server's result cache for this
/// request (neither lookup nor store).
pub(crate) const FLAG_BYPASS_CACHE: u32 = 1;
/// `SegmentCachedReply` flag: the labels were served from the result cache.
pub(crate) const FLAG_CACHE_HIT: u32 = 1;

/// Operation codes carried in the frame header.  Requests use the low range,
/// replies set the high bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Op {
    /// Segment the enclosed RGB image.
    Segment = 0x01,
    /// Liveness probe.
    Ping = 0x02,
    /// Request a server statistics snapshot.
    Stats = 0x03,
    /// Ask the server to drain in-flight requests and stop.
    Shutdown = 0x04,
    /// Segment the enclosed RGB image through the server's result cache
    /// (v2; carries a cache-control flags word).
    SegmentCached = 0x05,
    /// Segment the enclosed RGB image through the server's *per-tile* delta
    /// cache (v2): unchanged tiles stitch from cache, changed tiles
    /// re-classify.
    SegmentDelta = 0x06,
    /// Reply to [`Op::Segment`]: the label map.
    SegmentReply = 0x81,
    /// Reply to [`Op::Ping`].
    Pong = 0x82,
    /// Reply to [`Op::Stats`]: `key=value` text lines.
    StatsReply = 0x83,
    /// Reply to [`Op::Shutdown`]: acknowledged, the server is draining.
    ShutdownReply = 0x84,
    /// Reply to [`Op::SegmentCached`]: the label map plus a hit/miss flag.
    SegmentCachedReply = 0x85,
    /// Reply to [`Op::SegmentDelta`]: the label map plus per-tile hit and
    /// recompute counts for the frame.
    SegmentDeltaReply = 0x86,
    /// Reply to any segment op that a load-shedding server refused: the
    /// request was *not* executed and may be retried (v2, empty payload).
    /// Distinct from [`Op::Error`] — the request was well-formed, the server
    /// is just saturated.  This crate's daemon never sends it.
    Busy = 0x87,
    /// Reply to any malformed or failed request: a UTF-8 diagnostic.
    Error = 0xFF,
}

impl Op {
    fn from_byte(byte: u8) -> Result<Self, ProtocolError> {
        match byte {
            0x01 => Ok(Op::Segment),
            0x02 => Ok(Op::Ping),
            0x03 => Ok(Op::Stats),
            0x04 => Ok(Op::Shutdown),
            0x05 => Ok(Op::SegmentCached),
            0x06 => Ok(Op::SegmentDelta),
            0x81 => Ok(Op::SegmentReply),
            0x82 => Ok(Op::Pong),
            0x83 => Ok(Op::StatsReply),
            0x84 => Ok(Op::ShutdownReply),
            0x85 => Ok(Op::SegmentCachedReply),
            0x86 => Ok(Op::SegmentDeltaReply),
            0x87 => Ok(Op::Busy),
            0xFF => Ok(Op::Error),
            other => Err(ProtocolError::UnknownOp(other)),
        }
    }
}

/// A decoded protocol message (request or reply).
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Segment this image (request).
    Segment {
        /// The RGB image to segment.
        image: RgbImage,
    },
    /// The segmentation result (reply).
    SegmentReply {
        /// One label per pixel, same dimensions as the request image.
        labels: LabelMap,
    },
    /// Segment this image through the server's result cache (v2 request).
    SegmentCached {
        /// The RGB image to segment.
        image: RgbImage,
        /// Skip the cache for this request (`FLAG_BYPASS_CACHE`).
        bypass: bool,
    },
    /// The cached-segmentation result (v2 reply).
    SegmentCachedReply {
        /// One label per pixel, same dimensions as the request image.
        labels: LabelMap,
        /// Whether the labels came from the cache (`FLAG_CACHE_HIT`).
        cached: bool,
    },
    /// Segment this image through the server's per-tile delta cache (v2
    /// request).
    SegmentDelta {
        /// The RGB image to segment.
        image: RgbImage,
    },
    /// The delta-segmentation result (v2 reply).
    SegmentDeltaReply {
        /// One label per pixel, same dimensions as the request image.
        labels: LabelMap,
        /// Tiles of this frame stitched from the cache.
        tiles_hit: u32,
        /// Tiles of this frame that were re-classified.
        tiles_recomputed: u32,
    },
    /// Liveness probe (request).
    Ping,
    /// Liveness acknowledgement (reply).
    Pong,
    /// Statistics request.
    Stats,
    /// Statistics snapshot as `key=value` lines (reply).
    StatsReply {
        /// The snapshot text (see `stats::StatsSnapshot`).
        text: String,
    },
    /// Drain-then-stop request.
    Shutdown,
    /// Shutdown acknowledged (reply); the connection closes after this frame.
    ShutdownReply,
    /// The server shed the segment request without executing it; it may be
    /// retried (reply).  This crate's daemon never sends it.
    Busy,
    /// Request failed; the payload is a human-readable diagnostic (reply).
    Error {
        /// What went wrong.
        message: String,
    },
}

impl Message {
    /// The wire op code of this message.
    pub(crate) fn op(&self) -> Op {
        match self {
            Message::Segment { .. } => Op::Segment,
            Message::SegmentReply { .. } => Op::SegmentReply,
            Message::SegmentCached { .. } => Op::SegmentCached,
            Message::SegmentCachedReply { .. } => Op::SegmentCachedReply,
            Message::SegmentDelta { .. } => Op::SegmentDelta,
            Message::SegmentDeltaReply { .. } => Op::SegmentDeltaReply,
            Message::Ping => Op::Ping,
            Message::Pong => Op::Pong,
            Message::Stats => Op::Stats,
            Message::StatsReply { .. } => Op::StatsReply,
            Message::Shutdown => Op::Shutdown,
            Message::ShutdownReply => Op::ShutdownReply,
            Message::Busy => Op::Busy,
            Message::Error { .. } => Op::Error,
        }
    }

    /// A short human-readable name (for diagnostics).
    pub fn name(&self) -> &'static str {
        match self {
            Message::Segment { .. } => "Segment",
            Message::SegmentReply { .. } => "SegmentReply",
            Message::SegmentCached { .. } => "SegmentCached",
            Message::SegmentCachedReply { .. } => "SegmentCachedReply",
            Message::SegmentDelta { .. } => "SegmentDelta",
            Message::SegmentDeltaReply { .. } => "SegmentDeltaReply",
            Message::Ping => "Ping",
            Message::Pong => "Pong",
            Message::Stats => "Stats",
            Message::StatsReply { .. } => "StatsReply",
            Message::Shutdown => "Shutdown",
            Message::ShutdownReply => "ShutdownReply",
            Message::Busy => "Busy",
            Message::Error { .. } => "Error",
        }
    }

    /// A segment request's image; `None` for every other message.
    pub(crate) fn into_image(self) -> Option<RgbImage> {
        match self {
            Message::Segment { image }
            | Message::SegmentCached { image, .. }
            | Message::SegmentDelta { image } => Some(image),
            _ => None,
        }
    }
}

/// Everything that can go wrong while encoding or decoding a frame.
///
/// Decoding never panics; every malformed input maps to one of these.
#[derive(Debug)]
pub enum ProtocolError {
    /// The frame did not start with `MAGIC`.
    BadMagic([u8; 4]),
    /// The frame declared an unsupported protocol version.
    BadVersion(u16),
    /// The reserved header byte was not zero.
    BadReserved(u8),
    /// The op byte is not a known [`Op`].
    UnknownOp(u8),
    /// The declared payload length exceeds [`MAX_PAYLOAD_BYTES`].
    PayloadTooLarge {
        /// Declared payload length.
        len: usize,
        /// The enforced maximum.
        max: usize,
    },
    /// The payload length disagrees with what the op's layout requires.
    BadLength {
        /// The op being decoded.
        op: Op,
        /// Expected payload length in bytes (`None` when the header itself
        /// was too short to tell).
        expected: Option<usize>,
        /// Actual payload length in bytes.
        got: usize,
    },
    /// The declared image dimensions overflow or exceed `MAX_PIXELS`.
    BadDimensions {
        /// Declared width.
        width: usize,
        /// Declared height.
        height: usize,
    },
    /// A flags word carried bits this version does not define.
    BadFlags {
        /// The op whose flags were malformed.
        op: Op,
        /// The offending flags word.
        flags: u32,
    },
    /// A text payload was not valid UTF-8.
    BadText,
    /// The underlying stream failed (includes mid-frame EOF as
    /// [`io::ErrorKind::UnexpectedEof`]).
    Io(io::Error),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::BadMagic(bytes) => write!(f, "bad frame magic {bytes:?}"),
            ProtocolError::BadVersion(v) => {
                write!(f, "unsupported protocol version {v} (expected {VERSION})")
            }
            ProtocolError::BadReserved(b) => write!(f, "reserved header byte is {b}, expected 0"),
            ProtocolError::UnknownOp(op) => write!(f, "unknown op byte {op:#04x}"),
            ProtocolError::PayloadTooLarge { len, max } => {
                write!(f, "payload of {len} bytes exceeds the {max}-byte limit")
            }
            ProtocolError::BadLength { op, expected, got } => match expected {
                Some(expected) => write!(
                    f,
                    "{op:?} payload is {got} bytes, layout requires {expected}"
                ),
                None => write!(f, "{op:?} payload of {got} bytes is too short"),
            },
            ProtocolError::BadDimensions { width, height } => write!(
                f,
                "image dimensions {width}x{height} overflow or exceed {MAX_PIXELS} pixels"
            ),
            ProtocolError::BadFlags { op, flags } => {
                write!(f, "{op:?} flags word {flags:#010x} carries undefined bits")
            }
            ProtocolError::BadText => write!(f, "text payload is not valid UTF-8"),
            ProtocolError::Io(err) => write!(f, "i/o error: {err}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<io::Error> for ProtocolError {
    fn from(err: io::Error) -> Self {
        ProtocolError::Io(err)
    }
}

/// A parsed frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Caller-chosen request id, echoed in the reply.
    pub request_id: u64,
    /// The frame's operation.
    pub op: Op,
    /// Payload length in bytes (already bounds-checked).
    pub payload_len: usize,
}

/// Parses and validates a raw 20-byte frame header.
pub fn parse_header(bytes: &[u8; HEADER_LEN]) -> Result<Header, ProtocolError> {
    if bytes[0..4] != MAGIC {
        return Err(ProtocolError::BadMagic([
            bytes[0], bytes[1], bytes[2], bytes[3],
        ]));
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != VERSION {
        return Err(ProtocolError::BadVersion(version));
    }
    let op = Op::from_byte(bytes[6])?;
    if bytes[7] != 0 {
        return Err(ProtocolError::BadReserved(bytes[7]));
    }
    let request_id = u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte slice"));
    let payload_len = u32::from_le_bytes(bytes[16..20].try_into().expect("4-byte slice")) as usize;
    if payload_len > MAX_PAYLOAD_BYTES {
        return Err(ProtocolError::PayloadTooLarge {
            len: payload_len,
            max: MAX_PAYLOAD_BYTES,
        });
    }
    Ok(Header {
        request_id,
        op,
        payload_len,
    })
}

fn checked_pixels(width: usize, height: usize) -> Result<usize, ProtocolError> {
    width
        .checked_mul(height)
        .filter(|&n| n <= MAX_PIXELS)
        .ok_or(ProtocolError::BadDimensions { width, height })
}

fn expect_len(op: Op, payload: &[u8], expected: usize) -> Result<(), ProtocolError> {
    if payload.len() != expected {
        return Err(ProtocolError::BadLength {
            op,
            expected: Some(expected),
            got: payload.len(),
        });
    }
    Ok(())
}

/// The validated fixed prefix of a segment payload, request or reply:
/// everything in front of its pixels or labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SegmentPrefix {
    op: Op,
    /// The words in front of the dimensions: the flags word, then the delta
    /// reply's two tile counters (zero where the op has none).
    words: [u32; 3],
    width: usize,
    height: usize,
    pixels: usize,
}

impl SegmentPrefix {
    /// The layout of segment op `op`'s payload: how many words precede the
    /// dimensions, the flag bits the first of them may carry, and the bytes
    /// per pixel after the dimensions.
    fn layout(op: Op) -> (usize, u32, usize) {
        match op {
            Op::Segment => (0, 0, 3),
            // The cached ops define bit 0; the delta ops no flag yet.
            Op::SegmentCached => (1, FLAG_BYPASS_CACHE, 3),
            Op::SegmentDelta => (1, 0, 3),
            Op::SegmentReply => (0, 0, 4),
            Op::SegmentCachedReply => (1, FLAG_CACHE_HIT, 4),
            Op::SegmentDeltaReply => (3, 0, 4),
            other => unreachable!("{other:?} carries no pixels or labels"),
        }
    }

    /// Bytes in front of the pixels or labels of a payload with this op.
    fn len(op: Op) -> usize {
        4 * Self::layout(op).0 + 8
    }

    /// Validates the prefix of a segment payload that is `payload_len`
    /// bytes long, given at least its first
    /// `min(payload_len, SegmentPrefix::len(op))` bytes: flags, then tile
    /// counters, then dimensions against [`MAX_PIXELS`], then the exact
    /// payload length.  Undefined flag bits are an error, never ignored, so
    /// a future flag cannot be half-understood.  [`decode_body`],
    /// [`read_message`] and [`FrameDecoder`] all judge a prefix here, so
    /// they fail with the same typed error.
    fn parse(op: Op, prefix: &[u8], payload_len: usize) -> Result<SegmentPrefix, ProtocolError> {
        let (word_count, allowed, bytes_per_pixel) = Self::layout(op);
        let word = |at: usize| u32::from_le_bytes(prefix[at..at + 4].try_into().expect("4 bytes"));
        let short = |got| ProtocolError::BadLength {
            op,
            expected: None,
            got,
        };
        let mut words = [0u32; 3];
        if word_count > 0 {
            if payload_len < 4 {
                return Err(short(payload_len));
            }
            words[0] = word(0);
            if words[0] & !allowed != 0 {
                return Err(ProtocolError::BadFlags {
                    op,
                    flags: words[0],
                });
            }
            if payload_len < 4 * word_count {
                return Err(short(payload_len));
            }
            for (at, slot) in words.iter_mut().enumerate().take(word_count).skip(1) {
                *slot = word(4 * at);
            }
        }
        // From here on lengths count from the dimensions, for every op.
        let at = 4 * word_count;
        let rest = payload_len - at;
        if rest < 8 {
            return Err(short(rest));
        }
        let (width, height) = (word(at) as usize, word(at + 4) as usize);
        let pixels = checked_pixels(width, height)?;
        if rest != 8 + bytes_per_pixel * pixels {
            return Err(ProtocolError::BadLength {
                op,
                expected: Some(8 + bytes_per_pixel * pixels),
                got: rest,
            });
        }
        Ok(SegmentPrefix {
            op,
            words,
            width,
            height,
            pixels,
        })
    }

    /// The request message, given its pixels (exactly `self.pixels`).
    fn into_request(self, pixels: Vec<Rgb<u8>>) -> Message {
        let image = RgbImage::from_vec(self.width, self.height, pixels)
            .expect("a request's pixel buffer holds its declared pixels");
        match self.op {
            Op::SegmentCached => Message::SegmentCached {
                image,
                bypass: self.words[0] & FLAG_BYPASS_CACHE != 0,
            },
            Op::SegmentDelta => Message::SegmentDelta { image },
            _ => Message::Segment { image },
        }
    }

    /// The reply message, given its labels as they arrived: little-endian
    /// words, converted in place (a no-op on little-endian targets).
    fn into_reply(self, mut labels: Vec<u32>) -> Result<Message, ProtocolError> {
        for label in &mut labels {
            *label = u32::from_le(*label);
        }
        let (width, height) = (self.width, self.height);
        let labels = LabelMap::from_vec(width, height, labels)
            .map_err(|_| ProtocolError::BadDimensions { width, height })?;
        Ok(match self.op {
            Op::SegmentCachedReply => Message::SegmentCachedReply {
                labels,
                cached: self.words[0] & FLAG_CACHE_HIT != 0,
            },
            Op::SegmentDeltaReply => Message::SegmentDeltaReply {
                labels,
                tiles_hit: self.words[1],
                tiles_recomputed: self.words[2],
            },
            _ => Message::SegmentReply { labels },
        })
    }
}

/// Decodes a payload into a [`Message`] given its (already validated) op.
pub fn decode_body(op: Op, payload: &[u8]) -> Result<Message, ProtocolError> {
    match op {
        Op::Segment | Op::SegmentCached | Op::SegmentDelta => {
            let head = SegmentPrefix::parse(op, payload, payload.len())?;
            let mut pixels = vec![Rgb::BLACK; head.pixels];
            Rgb::slice_as_bytes_mut(&mut pixels)
                .copy_from_slice(&payload[SegmentPrefix::len(op)..]);
            Ok(head.into_request(pixels))
        }
        Op::SegmentReply | Op::SegmentCachedReply | Op::SegmentDeltaReply => {
            let head = SegmentPrefix::parse(op, payload, payload.len())?;
            let mut labels = vec![0u32; head.pixels];
            labels_as_bytes_mut(&mut labels).copy_from_slice(&payload[SegmentPrefix::len(op)..]);
            head.into_reply(labels)
        }
        Op::StatsReply | Op::Error => {
            let text = std::str::from_utf8(payload)
                .map_err(|_| ProtocolError::BadText)?
                .to_string();
            Ok(match op {
                Op::StatsReply => Message::StatsReply { text },
                _ => Message::Error { message: text },
            })
        }
        Op::Ping | Op::Pong | Op::Stats | Op::Shutdown | Op::ShutdownReply | Op::Busy => {
            expect_len(op, payload, 0)?;
            Ok(match op {
                Op::Ping => Message::Ping,
                Op::Pong => Message::Pong,
                Op::Stats => Message::Stats,
                Op::Shutdown => Message::Shutdown,
                Op::Busy => Message::Busy,
                _ => Message::ShutdownReply,
            })
        }
    }
}

/// A frame header, with the payload length checked against
/// [`MAX_PAYLOAD_BYTES`].
fn frame_header(
    request_id: u64,
    op: Op,
    payload_len: usize,
) -> Result<[u8; HEADER_LEN], ProtocolError> {
    if payload_len > MAX_PAYLOAD_BYTES {
        return Err(ProtocolError::PayloadTooLarge {
            len: payload_len,
            max: MAX_PAYLOAD_BYTES,
        });
    }
    let mut header = [0u8; HEADER_LEN];
    header[0..4].copy_from_slice(&MAGIC);
    header[4..6].copy_from_slice(&VERSION.to_le_bytes());
    header[6] = op as u8;
    header[8..16].copy_from_slice(&request_id.to_le_bytes());
    header[16..20].copy_from_slice(&(payload_len as u32).to_le_bytes());
    Ok(header)
}

/// One allocation holding `head` then `body`: a whole frame.
fn frame_of(head: &[u8], body: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(head.len() + body.len());
    frame.extend_from_slice(head);
    frame.extend_from_slice(body);
    frame
}

/// A segment frame's head — header, prefix words (flags, tile counters)
/// and `width, height` — built on the stack.  The pixels or labels that
/// follow it on the wire are written from their own buffer.
#[derive(Debug, Clone, Copy)]
struct SegmentHead {
    bytes: [u8; MAX_SEGMENT_HEAD_BYTES],
    len: usize,
}

impl SegmentHead {
    /// The head of a frame whose body is `bytes_per_pixel` bytes per pixel
    /// of a `width × height` image.  Refuses dimensions the decoder would
    /// refuse, so the payload always fits [`MAX_PAYLOAD_BYTES`].
    fn new(
        request_id: u64,
        op: Op,
        prefix: &[u32],
        (width, height): (usize, usize),
        bytes_per_pixel: usize,
    ) -> Result<SegmentHead, ProtocolError> {
        let pixels = checked_pixels(width, height)?;
        // A zero-area image passes the pixel check at any width or height.
        let dims = match (u32::try_from(width), u32::try_from(height)) {
            (Ok(width), Ok(height)) => [width, height],
            _ => return Err(ProtocolError::BadDimensions { width, height }),
        };
        let payload_len = 4 * prefix.len() + 8 + bytes_per_pixel * pixels;
        let mut bytes = [0u8; MAX_SEGMENT_HEAD_BYTES];
        bytes[..HEADER_LEN].copy_from_slice(&frame_header(request_id, op, payload_len)?);
        let mut len = HEADER_LEN;
        for word in prefix.iter().chain(&dims) {
            bytes[len..len + 4].copy_from_slice(&word.to_le_bytes());
            len += 4;
        }
        Ok(SegmentHead { bytes, len })
    }

    fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len]
    }
}

/// Encodes a segment reply: the labels are written little-endian into a
/// pre-sized tail, a loop the compiler turns into a straight copy on
/// little-endian targets.
fn encode_labels_frame(
    request_id: u64,
    op: Op,
    prefix: &[u32],
    labels: &LabelMap,
) -> Result<Vec<u8>, ProtocolError> {
    let head = SegmentHead::new(request_id, op, prefix, labels.dimensions(), 4)?;
    let mut frame = Vec::with_capacity(head.len + 4 * labels.len());
    frame.extend_from_slice(head.as_bytes());
    frame.resize(head.len + 4 * labels.len(), 0);
    for (bytes, label) in frame[head.len..].chunks_exact_mut(4).zip(labels.as_slice()) {
        bytes.copy_from_slice(&label.to_le_bytes());
    }
    Ok(frame)
}

/// Encodes a full frame (header + payload) into a byte vector.
///
/// Returns an error if the message's payload would exceed
/// [`MAX_PAYLOAD_BYTES`] or the image exceeds `MAX_PIXELS` — the encoder
/// enforces the same limits the decoder does, so a conforming peer can never
/// be handed an undecodable frame.
pub fn encode_message(request_id: u64, message: &Message) -> Result<Vec<u8>, ProtocolError> {
    let op = message.op();
    match message {
        Message::Segment { image } => encode_segment(request_id, image),
        Message::SegmentCached { image, bypass } => {
            encode_segment_cached(request_id, image, *bypass)
        }
        Message::SegmentDelta { image } => encode_segment_delta(request_id, image),
        Message::SegmentReply { labels } => encode_labels_frame(request_id, op, &[], labels),
        Message::SegmentCachedReply { labels, cached } => {
            let flags = if *cached { FLAG_CACHE_HIT } else { 0 };
            encode_labels_frame(request_id, op, &[flags], labels)
        }
        Message::SegmentDeltaReply {
            labels,
            tiles_hit,
            tiles_recomputed,
        } => encode_labels_frame(request_id, op, &[0, *tiles_hit, *tiles_recomputed], labels),
        Message::StatsReply { text: body } | Message::Error { message: body } => Ok(frame_of(
            &frame_header(request_id, op, body.len())?,
            body.as_bytes(),
        )),
        _ => Ok(frame_header(request_id, op, 0)?.to_vec()),
    }
}

/// Encodes a `Segment` request frame directly from a borrowed image —
/// byte-identical to `encode_message` with [`Message::Segment`], without
/// cloning the image into a message first.  The client writes the same
/// bytes without the frame buffer, through a [`RequestWriter`].
pub fn encode_segment(request_id: u64, image: &RgbImage) -> Result<Vec<u8>, ProtocolError> {
    RequestWriter::segment(request_id, image).map(RequestWriter::into_frame)
}

/// Borrowed-image encoder for [`Message::SegmentCached`] — byte-identical to
/// `encode_message`, without cloning the pixels into a message first.
pub fn encode_segment_cached(
    request_id: u64,
    image: &RgbImage,
    bypass: bool,
) -> Result<Vec<u8>, ProtocolError> {
    RequestWriter::segment_cached(request_id, image, bypass).map(RequestWriter::into_frame)
}

/// Borrowed-image encoder for [`Message::SegmentDelta`] — byte-identical to
/// `encode_message`, without cloning the pixels into a message first.
pub fn encode_segment_delta(request_id: u64, image: &RgbImage) -> Result<Vec<u8>, ProtocolError> {
    RequestWriter::segment_delta(request_id, image).map(RequestWriter::into_frame)
}

/// Encodes and writes one frame to `w` (single `write_all` + flush).
pub fn write_message<W: Write>(
    w: &mut W,
    request_id: u64,
    message: &Message,
) -> Result<(), ProtocolError> {
    let frame = encode_message(request_id, message)?;
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Reads one full frame from `r` and decodes it, with the same result and
/// the same typed errors as [`parse_header`], reading the whole payload,
/// then [`decode_body`].
///
/// A segment reply is read with one copy: its fixed prefix first, judged
/// by the checks [`decode_body`] runs, then the labels straight into the
/// buffer the returned [`LabelMap`] owns.  Nothing is allocated for a reply
/// before its prefix passes.  Mid-frame EOF surfaces as
/// [`ProtocolError::Io`] with [`io::ErrorKind::UnexpectedEof`], even where
/// the prefix that did arrive is malformed.
pub fn read_message<R: Read>(r: &mut R) -> Result<(u64, Message), ProtocolError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let header = parse_header(&header)?;
    let message = match header.op {
        Op::SegmentReply | Op::SegmentCachedReply | Op::SegmentDeltaReply => {
            read_label_reply(r, &header)?
        }
        op => {
            let mut payload = vec![0u8; header.payload_len];
            r.read_exact(&mut payload)?;
            decode_body(op, &payload)?
        }
    };
    Ok((header.request_id, message))
}

/// The segment-reply half of [`read_message`].
fn read_label_reply<R: Read>(r: &mut R, header: &Header) -> Result<Message, ProtocolError> {
    let mut prefix = [0u8; MAX_SEGMENT_PREFIX_BYTES];
    let prefix = &mut prefix[..SegmentPrefix::len(header.op).min(header.payload_len)];
    r.read_exact(prefix)?;
    let head = match SegmentPrefix::parse(header.op, prefix, header.payload_len) {
        Ok(head) => head,
        Err(err) => {
            // A truncated frame is an EOF whatever its prefix says, as it
            // is for a reader that takes the whole payload before judging.
            let rest = (header.payload_len - prefix.len()) as u64;
            if io::copy(&mut r.take(rest), &mut io::sink())? < rest {
                return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
            }
            return Err(err);
        }
    };
    let mut labels = vec![0u32; head.pixels];
    r.read_exact(labels_as_bytes_mut(&mut labels))?;
    head.into_reply(labels)
}

/// A segment request written straight from the image it carries: a head of
/// at most 32 bytes (header, prefix word, dimensions) built on the stack,
/// then the image's own bytes, gathered into one vectored write.  The bytes
/// are exactly [`encode_segment`]'s (or `_cached`'s, or `_delta`'s), with
/// no frame-sized buffer in between.
///
/// The writer keeps its progress, so a write cut short resumes where it
/// stopped: call [`RequestWriter::write_to`] again after a `WouldBlock` or
/// `TimedOut`.
#[derive(Debug)]
pub struct RequestWriter<'a> {
    head: SegmentHead,
    pixels: &'a [u8],
    written: usize,
}

impl<'a> RequestWriter<'a> {
    fn new(
        request_id: u64,
        op: Op,
        prefix: &[u32],
        image: &'a RgbImage,
    ) -> Result<Self, ProtocolError> {
        Ok(RequestWriter {
            head: SegmentHead::new(request_id, op, prefix, image.dimensions(), 3)?,
            pixels: Rgb::slice_as_bytes(image.as_slice()),
            written: 0,
        })
    }

    /// A [`Message::Segment`] request.
    pub fn segment(request_id: u64, image: &'a RgbImage) -> Result<Self, ProtocolError> {
        Self::new(request_id, Op::Segment, &[], image)
    }

    /// A [`Message::SegmentCached`] request.
    pub fn segment_cached(
        request_id: u64,
        image: &'a RgbImage,
        bypass: bool,
    ) -> Result<Self, ProtocolError> {
        let flags = if bypass { FLAG_BYPASS_CACHE } else { 0 };
        Self::new(request_id, Op::SegmentCached, &[flags], image)
    }

    /// A [`Message::SegmentDelta`] request.
    pub fn segment_delta(request_id: u64, image: &'a RgbImage) -> Result<Self, ProtocolError> {
        Self::new(request_id, Op::SegmentDelta, &[0], image)
    }

    /// The request id the frame carries.
    pub fn request_id(&self) -> u64 {
        u64::from_le_bytes(self.head.bytes[8..16].try_into().expect("8-byte slice"))
    }

    /// The whole frame in one buffer, as the allocating encoders return it.
    fn into_frame(self) -> Vec<u8> {
        frame_of(self.head.as_bytes(), self.pixels)
    }

    /// Bytes not yet written.
    pub fn remaining(&self) -> usize {
        self.head.len + self.pixels.len() - self.written
    }

    /// Writes the rest of the frame, retrying `Interrupted`.  Any other
    /// error returns with the progress kept.
    pub fn write_to<W: Write + ?Sized>(&mut self, w: &mut W) -> io::Result<()> {
        while self.remaining() > 0 {
            let head = self.head.as_bytes();
            let (head, pixels) = match self.written.checked_sub(head.len()) {
                None => (&head[self.written..], self.pixels),
                Some(sent) => (&[][..], &self.pixels[sent..]),
            };
            match w.write_vectored(&[IoSlice::new(head), IoSlice::new(pixels)]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.written += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// Decodes one complete frame from a byte slice (header + payload).
pub fn decode_message(frame: &[u8]) -> Result<(u64, Message), ProtocolError> {
    let mut cursor = frame;
    let decoded = read_message(&mut cursor)?;
    Ok(decoded)
}

/// How much of a declared payload the decoder reserves up front.  The buffer
/// grows with the bytes that actually arrive, so a peer declaring a 64 MiB
/// frame and then stalling holds only what it sent, not what it promised.
const INITIAL_PAYLOAD_RESERVE: usize = 64 << 10;

/// The longest fixed prefix of a segment request: a flags word and the
/// dimensions.
const MAX_REQUEST_PREFIX_BYTES: usize = 12;

/// One complete wire frame as produced by [`FrameDecoder`]: the validated
/// header plus its body.
///
/// A segment request arrives decoded: its prefix was judged as it arrived
/// and its pixels were copied straight into the image, so
/// [`Frame::into_message`] hands that image over as it is.  Every other
/// payload is kept as raw bytes and decoded by [`Frame::message`] — header
/// validation and body decoding fail differently (a bad header loses
/// framing, a bad body does not).
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// The validated frame header.
    pub header: Header,
    body: Body,
}

#[derive(Debug, Clone, PartialEq)]
enum Body {
    /// The raw payload (`header.payload_len` bytes) of a frame that is not
    /// a segment request.
    Payload(Vec<u8>),
    /// A segment request whose prefix passed, with its pixels in place.
    Request(Message),
    /// A segment request whose prefix failed: the prefix bytes judged (the
    /// first `len` of `prefix`), which fail the same way again.
    Refused {
        prefix: [u8; MAX_REQUEST_PREFIX_BYTES],
        len: usize,
    },
}

impl Frame {
    /// Decodes the body into a [`Message`] (same typed errors as
    /// [`decode_body`], which the blocking stream path also uses).
    pub fn message(&self) -> Result<Message, ProtocolError> {
        self.clone().into_message()
    }

    /// [`Frame::message`], handing a segment request's image over without
    /// a copy.
    pub fn into_message(self) -> Result<Message, ProtocolError> {
        let Header {
            op, payload_len, ..
        } = self.header;
        match self.body {
            Body::Payload(payload) => decode_body(op, &payload),
            Body::Request(message) => Ok(message),
            Body::Refused { prefix, len } => {
                match SegmentPrefix::parse(op, &prefix[..len], payload_len) {
                    Err(err) => Err(err),
                    Ok(_) => unreachable!("a refused prefix fails the same checks again"),
                }
            }
        }
    }
}

enum DecodeState {
    /// Accumulating the 20 header bytes.
    Header { filled: usize },
    /// Header validated; accumulating the payload of a frame that is not a
    /// segment request.
    Payload { header: Header },
    /// A segment request's header validated; accumulating its fixed prefix
    /// (the payload's first `min(payload_len, prefix length)` bytes).
    Prefix { header: Header, filled: usize },
    /// The prefix passed; copying pixel bytes straight into `pixels`.
    Pixels {
        header: Header,
        head: SegmentPrefix,
        pixels: Vec<Rgb<u8>>,
        /// Pixel bytes written so far.
        filled: usize,
    },
    /// The prefix failed; counting off the rest of the frame, unkept, so
    /// the error is reported when the frame completes.
    Skip {
        header: Header,
        judged: usize,
        left: usize,
    },
    /// A header failed validation: framing is lost and the decoder is done.
    Failed,
}

/// Sans-io incremental frame decoder: feed it byte chunks of any size and
/// take [`Frame`]s (or one typed [`ProtocolError`]) out.  It performs no I/O
/// and allocates nothing beyond the buffer of the frame being filled: the
/// payload bytes of most frames, and for a segment request the pixels of its
/// image.
///
/// The state machine mirrors the blocking stream path exactly —
/// [`parse_header`] runs the moment the 20th header byte arrives, and
/// payload buffering is bounded by the already-validated `payload_len` (so
/// it can never buffer more than [`MAX_PAYLOAD_BYTES`] + [`HEADER_LEN`]
/// bytes).  A header that fails validation poisons the decoder: framing is
/// lost, so every later byte is refused (`feed` consumes nothing and returns
/// no event) and the connection should be closed, exactly as the blocking
/// server does.
///
/// A segment request takes one copy: once its fixed prefix has arrived and
/// passed the checks [`decode_body`] runs, every later byte goes straight
/// into the pixels of the image the frame will carry.  That buffer is the
/// caller's warm one when it offers one through [`FrameDecoder::feed_with`]
/// (written as it is), else a cold one that starts at 64 KiB and grows
/// geometrically with the bytes that arrive, never past the frame, so a
/// peer that declares a 64 MiB frame and stalls holds about what it sent.
/// A prefix that fails is reported, with [`decode_body`]'s typed error, once
/// the rest of its frame has been counted off (and not kept), so the frames
/// before it are still answered in order.
///
/// Feeding loop (a chunk may contain many frames):
///
/// ```
/// use iqft_serve::protocol::{encode_message, FrameDecoder, Message};
/// let mut bytes = encode_message(7, &Message::Ping).unwrap();
/// bytes.extend(encode_message(8, &Message::Stats).unwrap());
/// let mut decoder = FrameDecoder::new();
/// let mut frames = Vec::new();
/// let mut offset = 0;
/// while offset < bytes.len() {
///     let (consumed, event) = decoder.feed(&bytes[offset..]);
///     offset += consumed;
///     match event {
///         Some(Ok(frame)) => frames.push(frame),
///         Some(Err(err)) => panic!("valid stream: {err}"),
///         None if consumed == 0 => break, // poisoned decoder
///         None => {}
///     }
/// }
/// assert_eq!(frames.len(), 2);
/// assert_eq!(frames[0].header.request_id, 7);
/// assert_eq!(frames[1].header.request_id, 8);
/// ```
pub struct FrameDecoder {
    state: DecodeState,
    header_buf: [u8; HEADER_LEN],
    prefix_buf: [u8; MAX_REQUEST_PREFIX_BYTES],
    payload: Vec<u8>,
    frames_started: u64,
    frames_decoded: u64,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameDecoder {
    /// A fresh decoder at a frame boundary.
    pub fn new() -> Self {
        FrameDecoder {
            state: DecodeState::Header { filled: 0 },
            header_buf: [0u8; HEADER_LEN],
            prefix_buf: [0u8; MAX_REQUEST_PREFIX_BYTES],
            payload: Vec::new(),
            frames_started: 0,
            frames_decoded: 0,
        }
    }

    /// Feeds one chunk.  Returns how many bytes were consumed and the event
    /// (if any) that stopped consumption; call again with the unconsumed
    /// remainder.  `(0, None)` on non-empty input means the decoder is
    /// poisoned ([`FrameDecoder::is_failed`]).  A segment request's pixels
    /// land in a cold buffer.
    pub fn feed(&mut self, chunk: &[u8]) -> (usize, Option<Result<Frame, ProtocolError>>) {
        self.feed_with(chunk, Vec::new)
    }

    /// [`FrameDecoder::feed`], offering a warm pixel buffer: if this call
    /// completes the prefix of a segment request with pixels, `warm` is
    /// called once and the image is written into the buffer it returns.
    /// A buffer a finished request of the same size handed back is already
    /// full size, and is written as it is.
    pub fn feed_with(
        &mut self,
        chunk: &[u8],
        warm: impl FnOnce() -> Vec<Rgb<u8>>,
    ) -> (usize, Option<Result<Frame, ProtocolError>>) {
        let (consumed, frame) = match &mut self.state {
            DecodeState::Failed => return (0, None),
            DecodeState::Header { filled } => {
                let take = (HEADER_LEN - *filled).min(chunk.len());
                self.header_buf[*filled..*filled + take].copy_from_slice(&chunk[..take]);
                *filled += take;
                if *filled < HEADER_LEN {
                    return (take, None);
                }
                // The header is complete: this is the same moment the
                // blocking server's `read_exact` of the header returns, so
                // frame accounting (`frames_started`) ticks here, before
                // validation — malformed headers still count as requests.
                self.frames_started += 1;
                match parse_header(&self.header_buf) {
                    Err(err) => {
                        self.state = DecodeState::Failed;
                        return (take, Some(Err(err)));
                    }
                    Ok(header) => (take, self.begin(header, warm)),
                }
            }
            DecodeState::Payload { header } => {
                let header = *header;
                let take = (header.payload_len - self.payload.len()).min(chunk.len());
                self.payload.extend_from_slice(&chunk[..take]);
                let done = self.payload.len() == header.payload_len;
                let frame = done.then(|| Frame {
                    header,
                    body: Body::Payload(std::mem::take(&mut self.payload)),
                });
                (take, frame)
            }
            DecodeState::Prefix { header, filled } => {
                let header = *header;
                let want = SegmentPrefix::len(header.op).min(header.payload_len);
                let take = (want - *filled).min(chunk.len());
                self.prefix_buf[*filled..*filled + take].copy_from_slice(&chunk[..take]);
                *filled += take;
                let frame = if *filled == want {
                    self.judge(header, warm)
                } else {
                    None
                };
                (take, frame)
            }
            DecodeState::Pixels {
                header,
                head,
                pixels,
                filled,
            } => {
                let total = 3 * head.pixels;
                let take = (total - *filled).min(chunk.len());
                fill_pixels(pixels, head.pixels, *filled, &chunk[..take]);
                *filled += take;
                let frame = (*filled == total).then(|| Frame {
                    header: *header,
                    body: Body::Request(head.into_request(std::mem::take(pixels))),
                });
                (take, frame)
            }
            DecodeState::Skip {
                header,
                judged,
                left,
            } => {
                let take = (*left).min(chunk.len());
                *left -= take;
                let frame = if *left == 0 {
                    let (header, judged) = (*header, *judged);
                    Some(self.refused(header, judged))
                } else {
                    None
                };
                (take, frame)
            }
        };
        match frame {
            Some(frame) => {
                self.frames_decoded += 1;
                self.state = DecodeState::Header { filled: 0 };
                (consumed, Some(Ok(frame)))
            }
            None => (consumed, None),
        }
    }

    /// Starts the payload of a frame whose header passed; returns the frame
    /// if it is already complete.
    fn begin(&mut self, header: Header, warm: impl FnOnce() -> Vec<Rgb<u8>>) -> Option<Frame> {
        if matches!(
            header.op,
            Op::Segment | Op::SegmentCached | Op::SegmentDelta
        ) {
            self.state = DecodeState::Prefix { header, filled: 0 };
            return if header.payload_len == 0 {
                self.judge(header, warm)
            } else {
                None
            };
        }
        if header.payload_len == 0 {
            return Some(Frame {
                header,
                body: Body::Payload(Vec::new()),
            });
        }
        self.payload = Vec::with_capacity(header.payload_len.min(INITIAL_PAYLOAD_RESERVE));
        self.state = DecodeState::Payload { header };
        None
    }

    /// Judges a segment request's prefix, now in `prefix_buf`; returns the
    /// frame if it is already complete (a zero-area image, or a failed
    /// prefix with no bytes behind it).
    fn judge(&mut self, header: Header, warm: impl FnOnce() -> Vec<Rgb<u8>>) -> Option<Frame> {
        let judged = SegmentPrefix::len(header.op).min(header.payload_len);
        match SegmentPrefix::parse(header.op, &self.prefix_buf[..judged], header.payload_len) {
            Err(_) if judged == header.payload_len => Some(self.refused(header, judged)),
            Err(_) => {
                self.state = DecodeState::Skip {
                    header,
                    judged,
                    left: header.payload_len - judged,
                };
                None
            }
            Ok(head) if head.pixels == 0 => Some(Frame {
                header,
                body: Body::Request(head.into_request(Vec::new())),
            }),
            Ok(head) => {
                let mut pixels = warm();
                pixels.truncate(head.pixels);
                self.state = DecodeState::Pixels {
                    header,
                    head,
                    pixels,
                    filled: 0,
                };
                None
            }
        }
    }

    /// The frame of a segment request whose prefix, the first `judged`
    /// bytes of `prefix_buf`, failed.
    fn refused(&self, header: Header, judged: usize) -> Frame {
        Frame {
            header,
            body: Body::Refused {
                prefix: self.prefix_buf,
                len: judged,
            },
        }
    }

    /// Whether a header failed validation; the decoder refuses further input.
    pub fn is_failed(&self) -> bool {
        matches!(self.state, DecodeState::Failed)
    }

    /// Whether the decoder is mid-frame: some bytes of the next frame have
    /// arrived but the frame is not complete.  This is what arms the
    /// server's per-frame read deadline.
    pub fn mid_frame(&self) -> bool {
        match self.state {
            DecodeState::Header { filled } => filled > 0,
            DecodeState::Failed => false,
            _ => true,
        }
    }

    /// Bytes currently buffered for the in-progress frame: what arrived of
    /// it, less the unkept rest of a refused request.  Bounded by
    /// [`HEADER_LEN`] + [`MAX_PAYLOAD_BYTES`] by construction.
    pub fn buffered_bytes(&self) -> usize {
        match &self.state {
            DecodeState::Header { filled } => *filled,
            DecodeState::Payload { .. } => HEADER_LEN + self.payload.len(),
            DecodeState::Prefix { filled, .. } => HEADER_LEN + filled,
            DecodeState::Pixels { head, filled, .. } => {
                HEADER_LEN + SegmentPrefix::len(head.op) + filled
            }
            DecodeState::Skip { judged, .. } => HEADER_LEN + judged,
            DecodeState::Failed => HEADER_LEN,
        }
    }

    /// Bytes of buffer the decoder holds for the in-progress frame: the
    /// capacity of its payload or pixel buffer.  A cold buffer holds at
    /// most 64 KiB plus twice the bytes that arrived.
    pub fn reserved_bytes(&self) -> usize {
        let pixels = match &self.state {
            DecodeState::Pixels { pixels, .. } => 3 * pixels.capacity(),
            _ => 0,
        };
        self.payload.capacity() + pixels
    }

    /// Hands back the pixel buffer of a segment request still arriving, as
    /// when the connection closes, for the caller to reuse.  The decoder
    /// is spent afterwards: it refuses further input.
    pub(crate) fn abandon(&mut self) -> Option<Vec<Rgb<u8>>> {
        match std::mem::replace(&mut self.state, DecodeState::Failed) {
            DecodeState::Pixels { pixels, .. } => Some(pixels),
            _ => None,
        }
    }

    /// Frames whose 20-byte header has fully arrived (valid or not).  This
    /// is the decoder-side analogue of the blocking server's "count a
    /// request once the header is read" accounting.
    pub fn frames_started(&self) -> u64 {
        self.frames_started
    }

    /// Frames fully decoded and handed out.
    pub fn frames_decoded(&self) -> u64 {
        self.frames_decoded
    }

    /// Best-effort request id for an error reply after a header failed
    /// validation: if the magic matched, the id field's offset is shared by
    /// every protocol version, so echo it; otherwise the peer is not
    /// speaking this protocol at all and the reply echoes 0.
    pub fn error_request_id(&self) -> u64 {
        if self.header_buf[0..4] == MAGIC {
            u64::from_le_bytes(self.header_buf[8..16].try_into().expect("8-byte slice"))
        } else {
            0
        }
    }
}

/// Copies `bytes` into `pixels` at byte offset `filled` of an image of
/// `total` pixels.  A buffer too short for them grows — to at least twice
/// its length and 64 KiB, never past `total` — and only what it grows into
/// is zero-filled; a buffer already long enough is written as it is.
fn fill_pixels(pixels: &mut Vec<Rgb<u8>>, total: usize, filled: usize, bytes: &[u8]) {
    let end = filled + bytes.len();
    let needed = end.div_ceil(3);
    if pixels.len() < needed {
        let grown = needed
            .max(2 * pixels.len())
            .max(INITIAL_PAYLOAD_RESERVE / 3)
            .min(total);
        pixels.reserve_exact(grown - pixels.len());
        pixels.resize(grown, Rgb::BLACK);
    }
    Rgb::slice_as_bytes_mut(pixels)[filled..end].copy_from_slice(bytes);
}

impl std::fmt::Debug for FrameDecoder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameDecoder")
            .field("mid_frame", &self.mid_frame())
            .field("failed", &self.is_failed())
            .field("buffered_bytes", &self.buffered_bytes())
            .field("frames_started", &self.frames_started)
            .field("frames_decoded", &self.frames_decoded)
            .finish()
    }
}

/// How many queued chunks one [`FrameEncoder::write_to`] gathers.
const MAX_WRITE_SLICES: usize = 16;

/// A segment reply on its way to a [`FrameEncoder`]: its labels, which may
/// be shared with the result cache, and the words its op puts in front of
/// them.
#[derive(Debug)]
pub(crate) struct LabelReply {
    op: Op,
    /// The flags word and the delta reply's tile counters; the op's layout
    /// says how many of them go on the wire.
    words: [u32; 3],
    labels: Arc<LabelMap>,
}

impl LabelReply {
    /// A [`Message::SegmentReply`].
    pub(crate) fn segment(labels: Arc<LabelMap>) -> Self {
        LabelReply {
            op: Op::SegmentReply,
            words: [0; 3],
            labels,
        }
    }

    /// A [`Message::SegmentCachedReply`].
    pub(crate) fn cached(labels: Arc<LabelMap>, hit: bool) -> Self {
        let flags = if hit { FLAG_CACHE_HIT } else { 0 };
        LabelReply {
            op: Op::SegmentCachedReply,
            words: [flags, 0, 0],
            labels,
        }
    }

    /// A [`Message::SegmentDeltaReply`].
    pub(crate) fn delta(labels: Arc<LabelMap>, tiles_hit: u32, tiles_recomputed: u32) -> Self {
        LabelReply {
            op: Op::SegmentDeltaReply,
            words: [0, tiles_hit, tiles_recomputed],
            labels,
        }
    }
}

/// Sans-io mirror of [`FrameDecoder`] for the write side: enqueue reply
/// frames, hand [`FrameEncoder::pending`] to whatever transport is ready to
/// write, and report progress back with [`FrameEncoder::advance`] (or let
/// [`FrameEncoder::write_to`] do both with one vectored write).  Performs
/// no I/O of its own; partial writes leave the unsent tail queued.
///
/// A segment reply queued with [`FrameEncoder::enqueue_reply`] is never
/// encoded into a frame buffer: the encoder queues its head (at most 40
/// bytes) and then the label buffer itself, shared and unchanged (on
/// big-endian hosts, a copy in the wire's little-endian order), and once
/// the buffer's last byte is written it comes back through
/// [`FrameEncoder::take_written`].  Encoded frames queued back to back form
/// one contiguous run, so [`FrameEncoder::pending`] is everything queued
/// until a label buffer is.
#[derive(Debug, Default)]
pub struct FrameEncoder {
    /// Unsent bytes in wire order.
    chunks: VecDeque<Chunk>,
    /// Bytes of the front chunk already written.
    cursor: usize,
    /// Unsent bytes across all chunks.
    len: usize,
    /// Label buffers whose last byte has been written.
    written: Vec<Arc<LabelMap>>,
}

#[derive(Debug)]
enum Chunk {
    /// Encoded bytes: whole frames and the heads of label replies.
    Bytes(Vec<u8>),
    /// A segment reply's labels.
    Labels(QueuedLabels),
}

/// A queued reply's labels, as they go on the wire.
#[derive(Debug)]
struct QueuedLabels {
    labels: Arc<LabelMap>,
    /// The labels in little-endian order.
    #[cfg(target_endian = "big")]
    wire: Vec<u32>,
}

impl QueuedLabels {
    fn new(labels: Arc<LabelMap>) -> Self {
        QueuedLabels {
            #[cfg(target_endian = "big")]
            wire: labels
                .as_slice()
                .iter()
                .map(|label| label.to_le())
                .collect(),
            labels,
        }
    }

    fn bytes(&self) -> &[u8] {
        #[cfg(target_endian = "big")]
        return labels_as_bytes(&self.wire);
        #[cfg(target_endian = "little")]
        labels_as_bytes(self.labels.as_slice())
    }
}

impl Chunk {
    fn bytes(&self) -> &[u8] {
        match self {
            Chunk::Bytes(bytes) => bytes,
            Chunk::Labels(labels) => labels.bytes(),
        }
    }
}

impl FrameEncoder {
    /// A fresh, empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encodes `message` and queues the frame for writing.
    pub fn enqueue(&mut self, request_id: u64, message: &Message) -> Result<(), ProtocolError> {
        self.enqueue_frame(encode_message(request_id, message)?);
        Ok(())
    }

    /// Queues an already-encoded frame.  An idle encoder, or one whose
    /// queue ends in a label buffer, adopts the frame's buffer as it is;
    /// behind unsent encoded bytes the frame joins their run.
    pub(crate) fn enqueue_frame(&mut self, frame: Vec<u8>) {
        self.len += frame.len();
        match self.chunks.back_mut() {
            Some(Chunk::Bytes(run)) => run.extend_from_slice(&frame),
            _ => self.chunks.push_back(Chunk::Bytes(frame)),
        }
    }

    /// Queues a reply, taking it by value.  A segment reply's labels are
    /// queued in place behind their head; any other message is encoded as
    /// [`FrameEncoder::enqueue`] does.  The bytes written are exactly
    /// [`encode_message`]'s either way.
    pub fn enqueue_reply(&mut self, request_id: u64, reply: Message) -> Result<(), ProtocolError> {
        let reply = match reply {
            Message::SegmentReply { labels } => LabelReply::segment(Arc::new(labels)),
            Message::SegmentCachedReply { labels, cached } => {
                LabelReply::cached(Arc::new(labels), cached)
            }
            Message::SegmentDeltaReply {
                labels,
                tiles_hit,
                tiles_recomputed,
            } => LabelReply::delta(Arc::new(labels), tiles_hit, tiles_recomputed),
            other => return self.enqueue(request_id, &other),
        };
        self.enqueue_labels(request_id, reply)
    }

    /// Queues a segment reply's head, then its label buffer as it is.  The
    /// buffer comes back through [`FrameEncoder::take_written`] once its
    /// last byte is written — at once if it is empty, or if the head is
    /// refused.
    pub(crate) fn enqueue_labels(
        &mut self,
        request_id: u64,
        reply: LabelReply,
    ) -> Result<(), ProtocolError> {
        let LabelReply { op, words, labels } = reply;
        let prefix = &words[..SegmentPrefix::layout(op).0];
        match SegmentHead::new(request_id, op, prefix, labels.dimensions(), 4) {
            Ok(head) => self.enqueue_frame(head.as_bytes().to_vec()),
            Err(err) => {
                self.written.push(labels);
                return Err(err);
            }
        }
        if labels.is_empty() {
            self.written.push(labels);
            return Ok(());
        }
        self.len += 4 * labels.len();
        self.chunks
            .push_back(Chunk::Labels(QueuedLabels::new(labels)));
        Ok(())
    }

    /// The next contiguous bytes waiting to be written: the unsent part of
    /// the front run of encoded bytes, or of the front label buffer.
    pub fn pending(&self) -> &[u8] {
        match self.chunks.front() {
            Some(chunk) => &chunk.bytes()[self.cursor..],
            None => &[],
        }
    }

    /// Number of bytes waiting to be written, label buffers included.
    pub fn pending_len(&self) -> usize {
        self.len
    }

    /// Whether everything queued has been written.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Records that the next `n` queued bytes were written.  They may span
    /// chunks, as a vectored write's do.  A chunk is released the moment
    /// its last byte is written, so an idle connection holds no buffer.
    pub fn advance(&mut self, mut n: usize) {
        assert!(n <= self.len, "advanced past the queued bytes");
        self.len -= n;
        while n > 0 {
            let front = self.chunks.front().expect("queued bytes are in chunks");
            let left = front.bytes().len() - self.cursor;
            if n < left {
                self.cursor += n;
                return;
            }
            n -= left;
            self.cursor = 0;
            if let Some(Chunk::Labels(queued)) = self.chunks.pop_front() {
                self.written.push(queued.labels);
            }
        }
    }

    /// Writes what `w` accepts of the queue in one vectored write, up to
    /// 16 chunks, and advances past it.  Errors are returned untouched
    /// (`WouldBlock`, `Interrupted` and the rest), with nothing advanced.
    pub fn write_to<W: Write + ?Sized>(&mut self, w: &mut W) -> io::Result<usize> {
        let mut slices = [IoSlice::new(&[]); MAX_WRITE_SLICES];
        for (index, (slice, chunk)) in slices.iter_mut().zip(&self.chunks).enumerate() {
            let skip = if index == 0 { self.cursor } else { 0 };
            *slice = IoSlice::new(&chunk.bytes()[skip..]);
        }
        let used = self.chunks.len().min(MAX_WRITE_SLICES);
        let n = w.write_vectored(&slices[..used])?;
        self.advance(n);
        Ok(n)
    }

    /// The label buffers written in full since the last call, each handed
    /// back exactly once, for the caller to release.
    pub fn take_written(&mut self) -> impl Iterator<Item = Arc<LabelMap>> + '_ {
        self.written.drain(..)
    }

    /// Drops everything still queued, as when the connection closes, and
    /// hands back every label buffer not handed back yet: the written ones
    /// and the unsent ones alike.  The encoder is empty afterwards.
    pub fn abandon(&mut self) -> impl Iterator<Item = Arc<LabelMap>> + '_ {
        self.cursor = 0;
        self.len = 0;
        let unsent = self.chunks.drain(..).filter_map(|chunk| match chunk {
            Chunk::Labels(queued) => Some(queued.labels),
            Chunk::Bytes(_) => None,
        });
        self.written.drain(..).chain(unsent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_image() -> RgbImage {
        RgbImage::from_fn(5, 3, |x, y| Rgb::new(x as u8, y as u8, (x * y) as u8))
    }

    fn all_messages() -> Vec<Message> {
        vec![
            Message::Segment {
                image: sample_image(),
            },
            Message::SegmentReply {
                labels: LabelMap::from_vec(5, 3, (0..15).collect()).unwrap(),
            },
            Message::SegmentCached {
                image: sample_image(),
                bypass: false,
            },
            Message::SegmentCached {
                image: sample_image(),
                bypass: true,
            },
            Message::SegmentCachedReply {
                labels: LabelMap::from_vec(5, 3, (0..15).collect()).unwrap(),
                cached: true,
            },
            Message::SegmentCachedReply {
                labels: LabelMap::from_vec(5, 3, (15..30).collect()).unwrap(),
                cached: false,
            },
            Message::SegmentDelta {
                image: sample_image(),
            },
            Message::SegmentDeltaReply {
                labels: LabelMap::from_vec(5, 3, (30..45).collect()).unwrap(),
                tiles_hit: 7,
                tiles_recomputed: 2,
            },
            Message::Ping,
            Message::Pong,
            Message::Stats,
            Message::StatsReply {
                text: "requests=3\nplan=classifier=table;tile=off;backend=serial\n".to_string(),
            },
            Message::Shutdown,
            Message::ShutdownReply,
            Message::Busy,
            Message::Error {
                message: "no such θ".to_string(),
            },
        ]
    }

    #[test]
    fn every_op_round_trips_through_encode_decode() {
        for (i, message) in all_messages().into_iter().enumerate() {
            let id = 0x1234_5678_9abc_def0 ^ i as u64;
            let frame = encode_message(id, &message).unwrap();
            let (got_id, got) = decode_message(&frame).unwrap();
            assert_eq!(got_id, id, "{}", message.name());
            assert_eq!(got, message, "{}", message.name());
            assert_eq!(got.op(), message.op());
        }
    }

    #[test]
    fn stream_read_write_round_trips() {
        let mut buf = Vec::new();
        for (i, message) in all_messages().into_iter().enumerate() {
            write_message(&mut buf, i as u64, &message).unwrap();
        }
        let mut cursor = &buf[..];
        for (i, message) in all_messages().into_iter().enumerate() {
            let (id, got) = read_message(&mut cursor).unwrap();
            assert_eq!(id, i as u64);
            assert_eq!(got, message);
        }
        assert!(cursor.is_empty());
    }

    #[test]
    fn borrowed_segment_encoder_matches_the_message_encoder() {
        let image = sample_image();
        let via_message = encode_message(
            42,
            &Message::Segment {
                image: image.clone(),
            },
        )
        .unwrap();
        assert_eq!(encode_segment(42, &image).unwrap(), via_message);
    }

    #[test]
    fn zero_area_image_round_trips() {
        let message = Message::Segment {
            image: RgbImage::from_fn(0, 0, |_, _| Rgb::new(0, 0, 0)),
        };
        let frame = encode_message(1, &message).unwrap();
        let (_, got) = decode_message(&frame).unwrap();
        assert_eq!(got, message);
    }

    #[test]
    fn truncated_frames_error_instead_of_panicking() {
        let frame = encode_message(
            7,
            &Message::Segment {
                image: sample_image(),
            },
        )
        .unwrap();
        for cut in [
            0,
            1,
            HEADER_LEN - 1,
            HEADER_LEN,
            HEADER_LEN + 5,
            frame.len() - 1,
        ] {
            let err = decode_message(&frame[..cut]).unwrap_err();
            assert!(
                matches!(err, ProtocolError::Io(ref e) if e.kind() == io::ErrorKind::UnexpectedEof),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn bad_magic_version_op_and_reserved_are_rejected() {
        let good = encode_message(1, &Message::Ping).unwrap();

        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            decode_message(&bad).unwrap_err(),
            ProtocolError::BadMagic(_)
        ));

        let mut bad = good.clone();
        bad[4] = 99;
        assert!(matches!(
            decode_message(&bad).unwrap_err(),
            ProtocolError::BadVersion(99)
        ));

        let mut bad = good.clone();
        bad[6] = 0x7E;
        assert!(matches!(
            decode_message(&bad).unwrap_err(),
            ProtocolError::UnknownOp(0x7E)
        ));

        let mut bad = good;
        bad[7] = 1;
        assert!(matches!(
            decode_message(&bad).unwrap_err(),
            ProtocolError::BadReserved(1)
        ));
    }

    #[test]
    fn oversized_payload_length_is_rejected_before_allocation() {
        let mut frame = encode_message(1, &Message::Ping).unwrap();
        frame[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        // The length field alone triggers the error; no 4 GiB allocation.
        assert!(matches!(
            decode_message(&frame).unwrap_err(),
            ProtocolError::PayloadTooLarge { .. }
        ));
    }

    #[test]
    fn dimension_overflow_and_pixel_limit_are_rejected() {
        // Declared dims whose product overflows the payload bound.
        let mut payload = Vec::new();
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_body(Op::Segment, &payload).unwrap_err(),
            ProtocolError::BadDimensions { .. }
        ));
        // A Segment whose payload disagrees with its declared dims.
        let mut payload = Vec::new();
        payload.extend_from_slice(&4u32.to_le_bytes());
        payload.extend_from_slice(&4u32.to_le_bytes());
        payload.extend_from_slice(&[0; 5]);
        assert!(matches!(
            decode_body(Op::Segment, &payload).unwrap_err(),
            ProtocolError::BadLength {
                op: Op::Segment,
                expected: Some(56),
                got: 13,
            }
        ));
        // A header too short to even carry dimensions.
        assert!(matches!(
            decode_body(Op::SegmentReply, &[1, 2, 3]).unwrap_err(),
            ProtocolError::BadLength { expected: None, .. }
        ));
        // An in-bounds reply still encodes fine.
        assert!(encode_message(
            1,
            &Message::SegmentReply {
                labels: LabelMap::from_vec(1, 1, vec![0]).unwrap(),
            },
        )
        .is_ok());
    }

    #[test]
    fn every_segment_payload_at_max_pixels_fits_and_one_more_pixel_is_refused() {
        // (op, fixed prefix bytes, bytes per pixel), per the module docs.
        for (op, prefix, per_pixel) in [
            (Op::Segment, 8, 3),
            (Op::SegmentCached, 12, 3),
            (Op::SegmentDelta, 12, 3),
            (Op::SegmentReply, 8, 4),
            (Op::SegmentCachedReply, 12, 4),
            (Op::SegmentDeltaReply, 20, 4),
        ] {
            assert!(prefix <= MAX_SEGMENT_PREFIX_BYTES, "{op:?}");
            assert!(
                prefix + per_pixel * MAX_PIXELS <= MAX_PAYLOAD_BYTES,
                "{op:?} at MAX_PIXELS overflows the payload limit"
            );
            // Zeroed flags and counters, then dims of MAX_PIXELS + 1 by 1.
            let mut payload = vec![0u8; prefix - 8];
            payload.extend_from_slice(&(MAX_PIXELS as u32 + 1).to_le_bytes());
            payload.extend_from_slice(&1u32.to_le_bytes());
            assert!(
                matches!(
                    decode_body(op, &payload).unwrap_err(),
                    ProtocolError::BadDimensions { width, height: 1 } if width == MAX_PIXELS + 1
                ),
                "{op:?}"
            );
        }
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn zero_area_images_wider_than_the_wire_field_are_refused() {
        let image = RgbImage::from_vec(u32::MAX as usize + 1, 0, Vec::new()).unwrap();
        assert!(matches!(
            encode_segment(1, &image).unwrap_err(),
            ProtocolError::BadDimensions { height: 0, .. }
        ));
    }

    #[test]
    fn an_idle_encoder_adopts_the_frame_without_copying() {
        let mut encoder = FrameEncoder::new();
        let frame = encode_segment(3, &sample_image()).unwrap();
        let (ptr, len) = (frame.as_ptr(), frame.len());
        encoder.enqueue_frame(frame);
        assert_eq!(
            (encoder.pending().as_ptr(), encoder.pending_len()),
            (ptr, len)
        );
        // With bytes still pending, the next frame is appended behind them.
        encoder.advance(1);
        encoder.enqueue(4, &Message::Pong).unwrap();
        assert_eq!(encoder.pending_len(), len - 1 + HEADER_LEN);
    }

    #[test]
    fn empty_op_payloads_must_be_empty() {
        for op in [
            Op::Ping,
            Op::Pong,
            Op::Stats,
            Op::Shutdown,
            Op::ShutdownReply,
            Op::Busy,
        ] {
            assert!(matches!(
                decode_body(op, &[0]).unwrap_err(),
                ProtocolError::BadLength { .. }
            ));
            assert!(decode_body(op, &[]).is_ok());
        }
    }

    #[test]
    fn cached_segment_flags_round_trip_and_undefined_bits_are_rejected() {
        let image = sample_image();
        let frame = encode_segment_cached(11, &image, true).unwrap();
        let via_message = encode_message(
            11,
            &Message::SegmentCached {
                image: image.clone(),
                bypass: true,
            },
        )
        .unwrap();
        assert_eq!(frame, via_message);
        let (id, got) = decode_message(&frame).unwrap();
        assert_eq!(id, 11);
        assert_eq!(
            got,
            Message::SegmentCached {
                image,
                bypass: true
            }
        );

        // An undefined flag bit is a typed error, not silently ignored.
        let mut bad = frame.clone();
        bad[HEADER_LEN] |= 0x02;
        assert!(matches!(
            decode_message(&bad).unwrap_err(),
            ProtocolError::BadFlags {
                op: Op::SegmentCached,
                flags: 0x03,
            }
        ));
        // A payload too short even for the flags word is a length error.
        assert!(matches!(
            decode_body(Op::SegmentCachedReply, &[0, 0]).unwrap_err(),
            ProtocolError::BadLength { expected: None, .. }
        ));
    }

    #[test]
    fn delta_ops_round_trip_counters_and_reject_any_flag_bit() {
        let image = sample_image();
        let frame = encode_segment_delta(21, &image).unwrap();
        let via_message = encode_message(
            21,
            &Message::SegmentDelta {
                image: image.clone(),
            },
        )
        .unwrap();
        assert_eq!(frame, via_message);
        let (id, got) = decode_message(&frame).unwrap();
        assert_eq!(id, 21);
        assert_eq!(got, Message::SegmentDelta { image });

        // The delta ops define no flags at all: even bit 0 (legal on the
        // cached ops) is a typed error here.
        let mut bad = frame.clone();
        bad[HEADER_LEN] |= 0x01;
        assert!(matches!(
            decode_message(&bad).unwrap_err(),
            ProtocolError::BadFlags {
                op: Op::SegmentDelta,
                flags: 0x01,
            }
        ));

        let reply = Message::SegmentDeltaReply {
            labels: LabelMap::from_vec(5, 3, (0..15).collect()).unwrap(),
            tiles_hit: u32::MAX,
            tiles_recomputed: 0,
        };
        let frame = encode_message(22, &reply).unwrap();
        let (_, got) = decode_message(&frame).unwrap();
        assert_eq!(got, reply);
        let mut bad = frame;
        bad[HEADER_LEN] |= 0x01;
        assert!(matches!(
            decode_message(&bad).unwrap_err(),
            ProtocolError::BadFlags {
                op: Op::SegmentDeltaReply,
                flags: 0x01,
            }
        ));
        // A reply payload too short for the tile counters is a length error.
        assert!(matches!(
            decode_body(Op::SegmentDeltaReply, &[0, 0, 0, 0, 1, 2]).unwrap_err(),
            ProtocolError::BadLength { expected: None, .. }
        ));
    }

    #[test]
    fn version_1_frames_are_rejected_with_a_typed_error() {
        let mut frame = encode_message(1, &Message::Ping).unwrap();
        frame[4..6].copy_from_slice(&1u16.to_le_bytes());
        match decode_message(&frame).unwrap_err() {
            ProtocolError::BadVersion(1) => {}
            other => panic!("expected BadVersion(1), got {other}"),
        }
        assert!(ProtocolError::BadVersion(1)
            .to_string()
            .contains("expected 2"));
    }

    #[test]
    fn invalid_utf8_text_payloads_are_rejected() {
        for op in [Op::StatsReply, Op::Error] {
            assert!(matches!(
                decode_body(op, &[0xFF, 0xFE]).unwrap_err(),
                ProtocolError::BadText
            ));
        }
    }

    #[test]
    fn errors_render_human_readable_diagnostics() {
        let err = ProtocolError::PayloadTooLarge {
            len: 1 << 30,
            max: MAX_PAYLOAD_BYTES,
        };
        assert!(err.to_string().contains("exceeds"));
        assert!(ProtocolError::BadMagic(*b"HTTP")
            .to_string()
            .contains("magic"));
        assert!(ProtocolError::BadText.to_string().contains("UTF-8"));
    }
}
