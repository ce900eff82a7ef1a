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
//! * [`Message::Busy`] (v2) — empty.  An admission-control rejection: the
//!   segment request was well-formed but the server's worker pool and queue
//!   are saturated (`max_queue` exceeded); the request was not executed and
//!   may be retried.
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
//! Each segment frame crosses each end of the wire with one copy, between
//! the socket and the buffer the frame describes; the bytes are the same as
//! [`encode_message`]'s.  A request goes out through a [`RequestWriter`]: a
//! head of at most 32 bytes built on the stack, then the image's own bytes,
//! in one vectored write.  [`read_message`] reads a reply's labels straight
//! into the buffer the returned [`LabelMap`] owns, after judging its fixed
//! prefix.  [`FrameEncoder::enqueue_reply`] queues a reply's label buffer
//! itself behind a head of at most 40 bytes, and hands the buffer back once
//! its last byte is written.  Labels are converted in place with
//! `to_le`/`from_le`, a no-op on little-endian targets.  The allocating
//! encoders ([`encode_message`], [`encode_segment`] and its `_cached` and
//! `_delta` twins) and [`decode_body`] remain the byte-exact reference.

use imaging::{labels_as_bytes, labels_as_bytes_mut, LabelMap, Rgb, RgbImage};
use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};

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
    /// Reply to any segment op when the server's admission limit is reached:
    /// the request was *not* executed and may be retried (v2, empty payload).
    /// Distinct from [`Op::Error`] — the request was well-formed, the server
    /// is just saturated.
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
    /// The server's admission limit is reached; the segment request was not
    /// executed and may be retried (reply).
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

    /// A segment reply's labels; `None` for every other message.
    pub(crate) fn into_labels(self) -> Option<LabelMap> {
        match self {
            Message::SegmentReply { labels }
            | Message::SegmentCachedReply { labels, .. }
            | Message::SegmentDeltaReply { labels, .. } => Some(labels),
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

fn read_dims(op: Op, payload: &[u8]) -> Result<(usize, usize, usize), ProtocolError> {
    if payload.len() < 8 {
        return Err(ProtocolError::BadLength {
            op,
            expected: None,
            got: payload.len(),
        });
    }
    let width = u32::from_le_bytes(payload[0..4].try_into().expect("4-byte slice")) as usize;
    let height = u32::from_le_bytes(payload[4..8].try_into().expect("4-byte slice")) as usize;
    let pixels = checked_pixels(width, height)?;
    Ok((width, height, pixels))
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

/// Splits a leading `flags: u32` word off a v2 payload and rejects any bits
/// outside `allowed` — undefined flags are a protocol error, not silently
/// ignored, so a future flag cannot be half-understood.
fn read_flags(op: Op, payload: &[u8], allowed: u32) -> Result<(u32, &[u8]), ProtocolError> {
    if payload.len() < 4 {
        return Err(ProtocolError::BadLength {
            op,
            expected: None,
            got: payload.len(),
        });
    }
    let flags = u32::from_le_bytes(payload[0..4].try_into().expect("4-byte slice"));
    if flags & !allowed != 0 {
        return Err(ProtocolError::BadFlags { op, flags });
    }
    Ok((flags, &payload[4..]))
}

/// Decodes the `width, height, pixels…` image layout shared by the segment
/// request ops.
fn decode_image(op: Op, payload: &[u8]) -> Result<RgbImage, ProtocolError> {
    let (width, height, pixels) = read_dims(op, payload)?;
    expect_len(op, payload, 8 + pixels * 3)?;
    let mut data = vec![Rgb::BLACK; pixels];
    Rgb::slice_as_bytes_mut(&mut data).copy_from_slice(&payload[8..]);
    RgbImage::from_vec(width, height, data)
        .map_err(|_| ProtocolError::BadDimensions { width, height })
}

/// The validated fixed prefix of a segment reply: everything in front of
/// its labels.
struct ReplyHead {
    op: Op,
    /// The words in front of the dimensions: the flags word, then the delta
    /// reply's two tile counters (zero where the op has none).
    words: [u32; 3],
    width: usize,
    height: usize,
    pixels: usize,
}

impl ReplyHead {
    /// Bytes in front of the labels of a reply with this op.
    fn prefix_len(op: Op) -> usize {
        match op {
            Op::SegmentCachedReply => 12,
            Op::SegmentDeltaReply => 20,
            _ => 8,
        }
    }

    /// Validates the prefix of a segment reply whose payload is
    /// `payload_len` bytes, given at least its first
    /// `min(payload_len, ReplyHead::prefix_len(op))` bytes: flags, then tile
    /// counters, then dimensions against [`MAX_PIXELS`], then the exact
    /// payload length.  Both [`decode_body`] and [`read_message`] judge a
    /// reply here, so they fail with the same typed error.
    fn parse(op: Op, prefix: &[u8], payload_len: usize) -> Result<ReplyHead, ProtocolError> {
        let word = |at: usize| u32::from_le_bytes(prefix[at..at + 4].try_into().expect("4 bytes"));
        let short = |got| ProtocolError::BadLength {
            op,
            expected: None,
            got,
        };
        let mut words = [0u32; 3];
        let mut at = 0;
        if op != Op::SegmentReply {
            if payload_len < 4 {
                return Err(short(payload_len));
            }
            // The cached reply defines bit 0; the delta reply no flag yet.
            let allowed = if op == Op::SegmentCachedReply {
                FLAG_CACHE_HIT
            } else {
                0
            };
            words[0] = word(0);
            if words[0] & !allowed != 0 {
                return Err(ProtocolError::BadFlags {
                    op,
                    flags: words[0],
                });
            }
            at = 4;
        }
        if op == Op::SegmentDeltaReply {
            if payload_len < 12 {
                return Err(short(payload_len));
            }
            words[1] = word(4);
            words[2] = word(8);
            at = 12;
        }
        // From here on lengths count from the dimensions, as for a request.
        let rest = payload_len - at;
        if rest < 8 {
            return Err(short(rest));
        }
        let (width, height) = (word(at) as usize, word(at + 4) as usize);
        let pixels = checked_pixels(width, height)?;
        if rest != 8 + 4 * pixels {
            return Err(ProtocolError::BadLength {
                op,
                expected: Some(8 + 4 * pixels),
                got: rest,
            });
        }
        Ok(ReplyHead {
            op,
            words,
            width,
            height,
            pixels,
        })
    }

    /// The reply message, given its labels as they arrived: little-endian
    /// words, converted in place (a no-op on little-endian targets).
    fn into_message(self, mut labels: Vec<u32>) -> Result<Message, ProtocolError> {
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
        Op::Segment => Ok(Message::Segment {
            image: decode_image(op, payload)?,
        }),
        Op::SegmentReply | Op::SegmentCachedReply | Op::SegmentDeltaReply => {
            let head = ReplyHead::parse(op, payload, payload.len())?;
            let mut labels = vec![0u32; head.pixels];
            labels_as_bytes_mut(&mut labels).copy_from_slice(&payload[ReplyHead::prefix_len(op)..]);
            head.into_message(labels)
        }
        Op::SegmentCached => {
            // The cached ops define exactly bit 0.
            let (flags, rest) = read_flags(op, payload, FLAG_BYPASS_CACHE)?;
            Ok(Message::SegmentCached {
                image: decode_image(op, rest)?,
                bypass: flags & FLAG_BYPASS_CACHE != 0,
            })
        }
        Op::SegmentDelta => {
            // The delta ops define no flags yet; the word must be zero.
            let (_flags, rest) = read_flags(op, payload, 0)?;
            Ok(Message::SegmentDelta {
                image: decode_image(op, rest)?,
            })
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
    let prefix = &mut prefix[..ReplyHead::prefix_len(header.op).min(header.payload_len)];
    r.read_exact(prefix)?;
    let head = match ReplyHead::parse(header.op, prefix, header.payload_len) {
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
    head.into_message(labels)
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

/// One complete wire frame as produced by [`FrameDecoder`]: the validated
/// header plus the raw payload bytes (exactly `header.payload_len` of them).
///
/// The payload is *not* yet decoded into a [`Message`] — header validation
/// and body decoding fail differently (a bad header loses framing, a bad
/// body does not), and the split keeps the decoder allocation-free beyond
/// the frame buffer itself.  Call [`Frame::message`] to decode the body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The validated frame header.
    pub header: Header,
    /// The raw payload (`header.payload_len` bytes).
    pub payload: Vec<u8>,
}

impl Frame {
    /// Decodes the payload into a [`Message`] (same typed errors as
    /// [`decode_body`], which the blocking stream path also uses).
    pub fn message(&self) -> Result<Message, ProtocolError> {
        decode_body(self.header.op, &self.payload)
    }
}

enum DecodeState {
    /// Accumulating the 20 header bytes.
    Header { filled: usize },
    /// Header validated; accumulating `header.payload_len` payload bytes.
    Payload { header: Header },
    /// A header failed validation: framing is lost and the decoder is done.
    Failed,
}

/// Sans-io incremental frame decoder: feed it byte chunks of any size and
/// take [`Frame`]s (or one typed [`ProtocolError`]) out.  It performs no I/O
/// and allocates nothing beyond the frame buffer currently being filled.
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
            payload: Vec::new(),
            frames_started: 0,
            frames_decoded: 0,
        }
    }

    /// Feeds one chunk.  Returns how many bytes were consumed and the event
    /// (if any) that stopped consumption; call again with the unconsumed
    /// remainder.  `(0, None)` on non-empty input means the decoder is
    /// poisoned ([`FrameDecoder::is_failed`]).
    pub fn feed(&mut self, chunk: &[u8]) -> (usize, Option<Result<Frame, ProtocolError>>) {
        match &mut self.state {
            DecodeState::Failed => (0, None),
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
                        (take, Some(Err(err)))
                    }
                    Ok(header) if header.payload_len == 0 => {
                        self.frames_decoded += 1;
                        self.state = DecodeState::Header { filled: 0 };
                        (
                            take,
                            Some(Ok(Frame {
                                header,
                                payload: Vec::new(),
                            })),
                        )
                    }
                    Ok(header) => {
                        self.payload =
                            Vec::with_capacity(header.payload_len.min(INITIAL_PAYLOAD_RESERVE));
                        self.state = DecodeState::Payload { header };
                        (take, None)
                    }
                }
            }
            DecodeState::Payload { header } => {
                let need = header.payload_len - self.payload.len();
                let take = need.min(chunk.len());
                self.payload.extend_from_slice(&chunk[..take]);
                if self.payload.len() < header.payload_len {
                    return (take, None);
                }
                let frame = Frame {
                    header: *header,
                    payload: std::mem::take(&mut self.payload),
                };
                self.frames_decoded += 1;
                self.state = DecodeState::Header { filled: 0 };
                (take, Some(Ok(frame)))
            }
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
            DecodeState::Payload { .. } => true,
            DecodeState::Failed => false,
        }
    }

    /// Bytes currently buffered for the in-progress frame.  Bounded by
    /// [`HEADER_LEN`] + [`MAX_PAYLOAD_BYTES`] by construction.
    pub fn buffered_bytes(&self) -> usize {
        let header = match self.state {
            DecodeState::Header { filled } => filled,
            _ => HEADER_LEN,
        };
        header + self.payload.len()
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

/// Sans-io mirror of [`FrameDecoder`] for the write side: enqueue reply
/// frames, hand [`FrameEncoder::pending`] to whatever transport is ready to
/// write, and report progress back with [`FrameEncoder::advance`] (or let
/// [`FrameEncoder::write_to`] do both with one vectored write).  Performs
/// no I/O of its own; partial writes leave the unsent tail queued.
///
/// A segment reply queued with [`FrameEncoder::enqueue_reply`] is never
/// encoded into a frame buffer: the encoder queues its head (at most 40
/// bytes) and then the label buffer itself, converted in place to the
/// wire's little-endian order, and once the buffer's last byte is written
/// it comes back through [`FrameEncoder::take_written`] for reuse.
/// Encoded frames queued back to back form one contiguous run, so
/// [`FrameEncoder::pending`] is everything queued until a label buffer is.
#[derive(Debug, Default)]
pub struct FrameEncoder {
    /// Unsent bytes in wire order.
    chunks: VecDeque<Chunk>,
    /// Bytes of the front chunk already written.
    cursor: usize,
    /// Unsent bytes across all chunks.
    len: usize,
    /// Label buffers whose last byte has been written.
    written: Vec<LabelMap>,
}

#[derive(Debug)]
enum Chunk {
    /// Encoded bytes: whole frames and the heads of label replies.
    Bytes(Vec<u8>),
    /// A segment reply's labels, already in wire order.
    Labels(LabelMap),
}

impl Chunk {
    fn bytes(&self) -> &[u8] {
        match self {
            Chunk::Bytes(bytes) => bytes,
            Chunk::Labels(labels) => labels_as_bytes(labels.as_slice()),
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
        let head = |op, prefix: &[u32], labels: &LabelMap| {
            SegmentHead::new(request_id, op, prefix, labels.dimensions(), 4)
        };
        let (head, mut labels) = match reply {
            Message::SegmentReply { labels } => (head(Op::SegmentReply, &[], &labels), labels),
            Message::SegmentCachedReply { labels, cached } => {
                let flags = if cached { FLAG_CACHE_HIT } else { 0 };
                (head(Op::SegmentCachedReply, &[flags], &labels), labels)
            }
            Message::SegmentDeltaReply {
                labels,
                tiles_hit,
                tiles_recomputed,
            } => {
                let prefix = [0, tiles_hit, tiles_recomputed];
                (head(Op::SegmentDeltaReply, &prefix, &labels), labels)
            }
            other => return self.enqueue(request_id, &other),
        };
        self.enqueue_frame(head?.as_bytes().to_vec());
        if labels.is_empty() {
            self.written.push(labels);
            return Ok(());
        }
        for label in labels.as_mut_slice() {
            *label = label.to_le();
        }
        self.len += 4 * labels.len();
        self.chunks.push_back(Chunk::Labels(labels));
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
            if let Some(Chunk::Labels(labels)) = self.chunks.pop_front() {
                self.written.push(labels);
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
    /// back exactly once, for the caller to reuse.
    pub fn take_written(&mut self) -> impl Iterator<Item = LabelMap> + '_ {
        self.written.drain(..)
    }

    /// Drops everything still queued, as when the connection closes, and
    /// hands back every label buffer not handed back yet: the written ones
    /// and the unsent ones alike.  The encoder is empty afterwards.
    pub fn abandon(&mut self) -> impl Iterator<Item = LabelMap> + '_ {
        self.cursor = 0;
        self.len = 0;
        let unsent = self.chunks.drain(..).filter_map(|chunk| match chunk {
            Chunk::Labels(labels) => Some(labels),
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
