#![warn(missing_docs)]
#![deny(unsafe_code)]
//! `iqft-serve` — a TCP segmentation service on top of the warm pipeline.
//!
//! Everything the earlier layers earned — the split-table fast path, the
//! [`iqft_pipeline::LabelArena`] recycling pool, the chunk-parallel
//! whole-frame pass — was only reachable in-process.  This crate puts a long-lived daemon in front of it:
//! a [`Server`] owns one [`seg_engine::SegmentPlan`] and one warm
//! [`iqft_pipeline::SegmentPipeline`], and serves concurrent clients over a
//! hand-rolled, length-prefixed binary protocol ([`protocol`]) built purely
//! on `std::net` — the workspace is offline, so there are no external
//! dependencies to lean on.
//!
//! * [`protocol`] — the wire format (version 2): 20-byte header (magic,
//!   version, op, request id, payload length) + checked payload.  A
//!   malformed frame can never allocate unbounded memory and never panics
//!   the peer; a v1 frame gets a typed version error.  The incremental
//!   sans-io core (`FrameDecoder` / `FrameEncoder`) does the same
//!   parsing with no I/O inside, which is what the server (and the
//!   socket-free protocol test suite) is built on.
//! * [`Server`] — one warm pipeline behind one serving core: a nonblocking
//!   readiness loop over `poll(2)` ([`poll`]) where
//!   [`ServerConfig::max_inflight`] reactor threads own every connection
//!   and run each frame to completion on the reactor that decoded it, so a
//!   thousand-plus pipelined connections cost buffers, not threads.  On top sit an opt-in content-addressed result
//!   cache ([`ServerConfig::cache`]) answering repeated `SegmentCached`
//!   requests from the cached label buffer itself, per-connection and
//!   aggregate [`stats::ServerStats`], per-frame read deadlines
//!   ([`ServerConfig::frame_deadline`]) and graceful drain-then-stop
//!   shutdown (in-flight requests are answered).
//!   Serving is unix-only; the client side and [`protocol`] are portable.
//! * [`Client`] — the synchronous request/response side, built from a
//!   [`ClientConfig`] (endpoints, pipeline depth, deadlines): `ping`,
//!   `segment`, `segment_cached`, `segment_delta`, `segment_pipelined` (up
//!   to [`protocol::MAX_PIPELINE_DEPTH`] requests in flight, replies
//!   reordered by id), `stats`, `shutdown`.  It holds one connection, and
//!   sends each segment call to the first of its endpoints that answers,
//!   in the order its config lists them, failing over to the next when a
//!   daemon dies or drains.  Every segmentation call reports one
//!   [`SegmentOutcome`] vocabulary: `Done | Busy | Failover`.
//!
//! The `iqft-experiments` binary exposes both ends as subcommands:
//! `serve --addr … --classifier … --backend … --workers … --cache-mb …`
//! boots the daemon, and `loadgen --addr … --clients C
//! --images N --pipeline K --repeat-ratio R` drives concurrent (optionally
//! repeated and pipelined) traffic with default-on byte-identity
//! verification against a local [`seg_engine::SegmentEngine`] pass.
//!
//! # Example
//!
//! ```
//! use imaging::{Rgb, RgbImage, Segmenter};
//! use iqft_serve::{Client, ClientConfig, Server, ServerConfig};
//!
//! // Boot a server on an ephemeral loopback port.
//! let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
//!
//! // Segment over the wire; the result is byte-identical to a local pass.
//! let img = RgbImage::from_fn(24, 16, |x, y| Rgb::new((x * 10) as u8, (y * 12) as u8, 80));
//! let config = ClientConfig::new(server.local_addr().to_string());
//! let mut client = Client::open(&config).unwrap();
//! let (remote, _) = client.segment(&img).unwrap().unwrap_done();
//! let local = iqft_seg::IqftRgbSegmenter::paper_default().segment_rgb(&img);
//! assert_eq!(remote, local);
//!
//! // Drain and stop.
//! client.shutdown().unwrap();
//! server.join();
//! ```

pub(crate) mod client;
#[cfg(unix)]
mod evented;
#[cfg(unix)]
pub mod poll;
pub mod protocol;
pub(crate) mod server;
pub mod stats;

pub use client::{Client, ClientConfig, SegmentOutcome, ServeError};
pub use protocol::Message;
pub use server::{ServeMode, Server, ServerConfig};
pub use stats::StatsSnapshot;
