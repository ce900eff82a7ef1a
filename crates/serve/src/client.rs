//! The synchronous client side of the `iqft-serve` protocol.
//!
//! A [`Client`] owns one TCP connection and issues request/response pairs in
//! lockstep: every call writes one frame, reads one frame, checks the echoed
//! request id, and converts a server [`Message::Error`] into
//! [`ServeError::Server`].  One client is one connection — for concurrent
//! load, open one client per thread (the `iqft-experiments loadgen`
//! subcommand gives each thread a [`crate::fleet::FleetClient`], which
//! holds one client per endpoint).
//!
//! A segment request is written straight from the caller's image, and a
//! reply's labels are read straight into the returned map: one copy at each
//! end, between the socket and the buffer the frame describes (see
//! [`RequestWriter`] and [`protocol::read_message`]).  The lockstep calls
//! and the pipelined burst share the one request writer.
//!
//! Construction mirrors the server side: a [`ClientConfig`] builder names
//! the endpoint(s), the pipeline depth and the connect/reply deadlines, and
//! [`Client::open`] dials it.  Saturation is not an error — every
//! segmentation call returns a [`SegmentOutcome`], the one vocabulary shared
//! by the lockstep calls, the pipelined burst, and the fleet layer
//! ([`crate::fleet`]); a [`Busy`](SegmentOutcome::Busy) request was never
//! executed, so the caller may send it again.

use crate::protocol::{self, Message, ProtocolError, RequestWriter};
use crate::stats::StatsSnapshot;
use imaging::{LabelMap, RgbImage};
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Write-poll granularity while a pipelined burst is being sent: when a
/// request write blocks this long, the client drains one reply to free
/// socket-buffer space instead of waiting (see
/// [`Client::segment_pipelined`]'s deadlock-safety note).
const PIPELINE_WRITE_POLL: Duration = Duration::from_millis(100);

/// How a [`Client`] is built: endpoint address(es), pipeline depth and
/// deadlines.  Mirrors the server-side `ServerConfig` builder; every knob
/// chains:
///
/// ```no_run
/// use iqft_serve::{Client, ClientConfig};
/// use std::time::Duration;
///
/// let config = ClientConfig::new("127.0.0.1:7700")
///     .with_pipeline_depth(16)
///     .with_connect_deadline(Duration::from_millis(250))
///     .with_reply_deadline(Duration::from_secs(5));
/// let client = Client::open(&config).unwrap();
/// ```
///
/// A config with several addresses describes a fleet; [`Client::open`]
/// dials the first address that answers, while
/// [`FleetClient::open`](crate::fleet::FleetClient::open) keeps one
/// connection per address and routes between them by content hash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientConfig {
    /// Daemon endpoint(s), in `host:port` form.  One for a single-daemon
    /// client; the full fleet for [`crate::fleet::FleetClient`].
    pub addrs: Vec<String>,
    /// Default in-flight depth for [`Client::segment_pipelined`], clamped
    /// to `1..=`[`protocol::MAX_PIPELINE_DEPTH`] at use.
    pub pipeline_depth: usize,
    /// Per-address connect timeout; `None` leaves the OS default (which can
    /// be minutes when an accept backlog overflows).
    pub connect_deadline: Option<Duration>,
    /// Read timeout applied to every reply; `None` waits indefinitely.
    pub reply_deadline: Option<Duration>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            addrs: Vec::new(),
            pipeline_depth: 8,
            connect_deadline: None,
            reply_deadline: None,
        }
    }
}

impl ClientConfig {
    /// A config for one endpoint with every knob at its default.
    pub fn new(addr: impl Into<String>) -> ClientConfig {
        ClientConfig {
            addrs: vec![addr.into()],
            ..ClientConfig::default()
        }
    }

    /// A config for a whole fleet of endpoints.
    pub fn fleet<I, S>(addrs: I) -> ClientConfig
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        ClientConfig {
            addrs: addrs.into_iter().map(Into::into).collect(),
            ..ClientConfig::default()
        }
    }

    /// Sets the default pipelined in-flight depth.
    pub fn with_pipeline_depth(mut self, depth: usize) -> Self {
        self.pipeline_depth = depth;
        self
    }

    /// Sets the per-address connect timeout.
    pub fn with_connect_deadline(mut self, deadline: Duration) -> Self {
        self.connect_deadline = Some(deadline);
        self
    }

    /// Sets the per-reply read timeout.
    pub fn with_reply_deadline(mut self, deadline: Duration) -> Self {
        self.reply_deadline = Some(deadline);
        self
    }
}

/// Everything a client call can fail with.
///
/// Admission refusal is *not* here: a saturated server is an outcome
/// ([`SegmentOutcome::Busy`]), not an error, so both the lockstep and the
/// pipelined paths report it the same way.
#[derive(Debug)]
pub enum ServeError {
    /// The wire protocol failed (framing, limits, transport I/O).
    Protocol(ProtocolError),
    /// The server answered with an [`Message::Error`] frame.
    Server(String),
    /// The server answered with a well-formed frame of the wrong kind.
    Unexpected {
        /// What the call was waiting for.
        expected: &'static str,
        /// What actually arrived.
        got: &'static str,
    },
    /// The reply echoed a different request id than the one sent.
    IdMismatch {
        /// The id this client sent.
        sent: u64,
        /// The id the reply carried.
        got: u64,
    },
    /// A pipelined reply echoed an id with no outstanding request (or one
    /// already answered).
    UnknownId(u64),
    /// A stats payload that did not parse as a snapshot.
    BadStats(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Protocol(err) => write!(f, "protocol error: {err}"),
            ServeError::Server(message) => write!(f, "server error: {message}"),
            ServeError::Unexpected { expected, got } => {
                write!(f, "expected a {expected} reply, got {got}")
            }
            ServeError::IdMismatch { sent, got } => {
                write!(f, "request id mismatch: sent {sent}, reply echoed {got}")
            }
            ServeError::UnknownId(got) => {
                write!(
                    f,
                    "pipelined reply echoed id {got}, which has no outstanding request"
                )
            }
            ServeError::BadStats(err) => write!(f, "malformed stats snapshot: {err}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ProtocolError> for ServeError {
    fn from(err: ProtocolError) -> Self {
        ServeError::Protocol(err)
    }
}

impl From<io::Error> for ServeError {
    fn from(err: io::Error) -> Self {
        ServeError::Protocol(ProtocolError::Io(err))
    }
}

/// What became of one segmentation request — the single outcome vocabulary
/// shared by the lockstep calls, the pipelined burst, and the fleet layer.
///
/// Saturation and failover are states to handle, not errors to unwrap:
/// a [`SegmentOutcome::Busy`] slot was never executed and may be retried
/// on the same connection, and a [`SegmentOutcome::Failover`] reply is a
/// correct answer that simply came from a non-primary daemon (so it was
/// almost certainly a cache miss there).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentOutcome {
    /// The frame was segmented; `cached` says whether the server answered
    /// from its result cache (always `false` for plain `Segment` requests).
    Done {
        /// The computed label map, byte-identical to the serial reference.
        labels: LabelMap,
        /// Whether the reply was served from the server's result cache.
        cached: bool,
    },
    /// The server refused admission for this request (pool and queue
    /// saturated); it was not executed.
    Busy,
    /// A fleet request whose ring owner was unreachable (connect failure or
    /// drain) and that a fallback owner answered instead.  Only
    /// [`crate::fleet::FleetClient`] produces this variant.
    Failover {
        /// The computed label map, byte-identical to the serial reference.
        labels: LabelMap,
        /// Whether the fallback server answered from its result cache.
        cached: bool,
        /// How many unreachable endpoints were skipped before this reply.
        tried: u32,
    },
}

impl SegmentOutcome {
    /// The labels, unless the request was shed (`Busy`).
    pub fn labels(&self) -> Option<&LabelMap> {
        match self {
            SegmentOutcome::Done { labels, .. } | SegmentOutcome::Failover { labels, .. } => {
                Some(labels)
            }
            SegmentOutcome::Busy => None,
        }
    }

    /// Whether the reply came from a server-side result cache.
    pub fn cached(&self) -> bool {
        match self {
            SegmentOutcome::Done { cached, .. } | SegmentOutcome::Failover { cached, .. } => {
                *cached
            }
            SegmentOutcome::Busy => false,
        }
    }

    /// Whether the server shed this request.
    pub(crate) fn is_busy(&self) -> bool {
        matches!(self, SegmentOutcome::Busy)
    }

    /// How many unreachable endpoints the fleet skipped for this request
    /// (`0` unless the outcome is [`SegmentOutcome::Failover`]).
    pub fn tried(&self) -> u32 {
        match self {
            SegmentOutcome::Failover { tried, .. } => *tried,
            _ => 0,
        }
    }

    /// Unwraps into `(labels, cached)`; panics on [`SegmentOutcome::Busy`].
    /// A failover reply unwraps like a done one — the labels are just as
    /// correct, only their origin differs.
    #[track_caller]
    pub fn unwrap_done(self) -> (LabelMap, bool) {
        match self {
            SegmentOutcome::Done { labels, cached }
            | SegmentOutcome::Failover { labels, cached, .. } => (labels, cached),
            SegmentOutcome::Busy => panic!("request was shed by the server (Busy)"),
        }
    }
}

/// A synchronous connection to an `iqft-serve` daemon.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    next_id: u64,
    config: ClientConfig,
}

impl Client {
    /// Dials the configured endpoint(s) and returns a connected client.
    ///
    /// Each address in [`ClientConfig::addrs`] is tried in order (and every
    /// socket address each resolves to), under
    /// [`ClientConfig::connect_deadline`] when one is set; the first that
    /// answers wins.  The config's deadlines stay attached to the client for
    /// the lifetime of the connection.
    pub fn open(config: &ClientConfig) -> io::Result<Client> {
        let mut last_err = None;
        for addr in &config.addrs {
            match Client::dial(addr, config) {
                Ok(client) => return Ok(client),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "client config names no address",
            )
        }))
    }

    /// Dials one `host:port` endpoint under `config`'s deadlines.
    pub(crate) fn dial(addr: &str, config: &ClientConfig) -> io::Result<Client> {
        let mut last_err = None;
        for resolved in addr.to_socket_addrs()? {
            let connected = match config.connect_deadline {
                Some(deadline) => TcpStream::connect_timeout(&resolved, deadline),
                None => TcpStream::connect(resolved),
            };
            match connected {
                Ok(stream) => return Client::from_stream(stream, config.clone()),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        }))
    }

    fn from_stream(stream: TcpStream, config: ClientConfig) -> io::Result<Client> {
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(config.reply_deadline)?;
        Ok(Client {
            stream,
            next_id: 1,
            config,
        })
    }

    fn next_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        id
    }

    fn read_reply(&mut self, sent: u64) -> Result<Message, ServeError> {
        let (got, reply) = protocol::read_message(&mut self.stream)?;
        if let Message::Error { message } = reply {
            return Err(ServeError::Server(message));
        }
        if let Message::Busy = reply {
            // Busy frames echo the refused id; tolerate servers that zero it.
            return Ok(Message::Busy);
        }
        if got != sent {
            return Err(ServeError::IdMismatch { sent, got });
        }
        Ok(reply)
    }

    /// Writes one segment request straight from its image and reads the
    /// reply, its labels straight into the returned map.
    fn request(&mut self, mut frame: RequestWriter<'_>) -> Result<Message, ServeError> {
        frame.write_to(&mut self.stream)?;
        self.read_reply(frame.request_id())
    }

    fn round_trip(&mut self, request: &Message) -> Result<Message, ServeError> {
        let sent = self.next_id();
        protocol::write_message(&mut self.stream, sent, request)?;
        self.read_reply(sent)
    }

    /// Liveness probe: sends `Ping`, expects `Pong`.
    pub fn ping(&mut self) -> Result<(), ServeError> {
        match self.round_trip(&Message::Ping)? {
            Message::Pong => Ok(()),
            other => Err(ServeError::Unexpected {
                expected: "Pong",
                got: other.name(),
            }),
        }
    }

    /// Segments `image` on the server.
    ///
    /// The reply's dimensions are checked against the request's, so a
    /// confused server cannot hand back a mis-shaped map silently.  The
    /// frame is written straight from the borrowed image
    /// ([`RequestWriter`]); the hot path never copies the pixels into a
    /// frame buffer.  A saturated server yields [`SegmentOutcome::Busy`].
    pub fn segment(&mut self, image: &RgbImage) -> Result<SegmentOutcome, ServeError> {
        let id = self.next_id();
        match self.request(RequestWriter::segment(id, image)?)? {
            Message::SegmentReply { labels } => {
                if labels.dimensions() != image.dimensions() {
                    return Err(ServeError::Unexpected {
                        expected: "SegmentReply with matching dimensions",
                        got: "SegmentReply with different dimensions",
                    });
                }
                Ok(SegmentOutcome::Done {
                    labels,
                    cached: false,
                })
            }
            Message::Busy => Ok(SegmentOutcome::Busy),
            other => Err(ServeError::Unexpected {
                expected: "SegmentReply",
                got: other.name(),
            }),
        }
    }

    /// Segments `image` through the server's content-addressed result cache
    /// (protocol v2's `SegmentCached` op).  The outcome's `cached` flag says
    /// whether the server answered from its cache; with `bypass` the server
    /// skips the cache entirely (neither lookup nor store).  Hit or miss,
    /// the labels are byte-identical to [`Client::segment`].
    pub fn segment_cached(
        &mut self,
        image: &RgbImage,
        bypass: bool,
    ) -> Result<SegmentOutcome, ServeError> {
        let id = self.next_id();
        match self.request(RequestWriter::segment_cached(id, image, bypass)?)? {
            Message::SegmentCachedReply { labels, cached } => {
                if labels.dimensions() != image.dimensions() {
                    return Err(ServeError::Unexpected {
                        expected: "SegmentCachedReply with matching dimensions",
                        got: "SegmentCachedReply with different dimensions",
                    });
                }
                Ok(SegmentOutcome::Done { labels, cached })
            }
            Message::Busy => Ok(SegmentOutcome::Busy),
            other => Err(ServeError::Unexpected {
                expected: "SegmentCachedReply",
                got: other.name(),
            }),
        }
    }

    /// Segments `image` through the server's per-tile delta cache (protocol
    /// v2's `SegmentDelta` op).  Returns the outcome plus
    /// `(tiles_hit, tiles_recomputed)` — how many of the frame's tiles the
    /// server stitched from cached label tiles versus re-classified (both
    /// zero when the request was shed).  The stitched result is
    /// byte-identical to [`Client::segment`]; only the cost differs,
    /// scaling with how much of the frame changed since the tiles were
    /// last seen.
    pub fn segment_delta(
        &mut self,
        image: &RgbImage,
    ) -> Result<(SegmentOutcome, u32, u32), ServeError> {
        let id = self.next_id();
        match self.request(RequestWriter::segment_delta(id, image)?)? {
            Message::SegmentDeltaReply {
                labels,
                tiles_hit,
                tiles_recomputed,
            } => {
                if labels.dimensions() != image.dimensions() {
                    return Err(ServeError::Unexpected {
                        expected: "SegmentDeltaReply with matching dimensions",
                        got: "SegmentDeltaReply with different dimensions",
                    });
                }
                Ok((
                    SegmentOutcome::Done {
                        labels,
                        cached: tiles_recomputed == 0,
                    },
                    tiles_hit,
                    tiles_recomputed,
                ))
            }
            Message::Busy => Ok((SegmentOutcome::Busy, 0, 0)),
            other => Err(ServeError::Unexpected {
                expected: "SegmentDeltaReply",
                got: other.name(),
            }),
        }
    }

    /// Segments a whole slice of images with up to
    /// [`ClientConfig::pipeline_depth`] requests in flight on this one
    /// connection (protocol v2 pipelining) — the client no longer pays one
    /// network round-trip per image.
    ///
    /// The depth is clamped to `1..=`[`protocol::MAX_PIPELINE_DEPTH`].
    /// With `use_cache` the requests go through the server's result cache
    /// (`SegmentCached`); otherwise plain `Segment` frames are sent.
    ///
    /// Replies may arrive in any completion order; they are matched back to
    /// their requests by the echoed id, so the returned vector is always in
    /// input order.  Each element is a [`SegmentOutcome`]: either the labels
    /// plus the served-from-cache flag, or [`SegmentOutcome::Busy`] when the
    /// server shed that request under overload (the rest of the burst still
    /// completes).
    ///
    /// Deadlock safety: a pipelined burst can exceed what the kernel socket
    /// buffers hold (large frames, deep pipelines), and a server blocked
    /// writing a reply nobody reads would stall the client's own writes
    /// forever.  Request writes therefore run with a short write timeout,
    /// and whenever a write would block while replies are outstanding the
    /// client drains one reply before continuing — writes and reads
    /// interleave on the full-duplex socket, so progress is always possible
    /// on at least one side.
    pub fn segment_pipelined(
        &mut self,
        images: &[&RgbImage],
        use_cache: bool,
    ) -> Result<Vec<SegmentOutcome>, ServeError> {
        let depth = self
            .config
            .pipeline_depth
            .clamp(1, protocol::MAX_PIPELINE_DEPTH);
        let mut results: Vec<Option<SegmentOutcome>> = (0..images.len()).map(|_| None).collect();
        let mut pending: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        let mut next = 0usize;
        self.stream
            .set_write_timeout(Some(PIPELINE_WRITE_POLL))
            .map_err(|e| ServeError::Protocol(e.into()))?;
        let outcome = (|| -> Result<(), ServeError> {
            while results.iter().any(|slot| slot.is_none()) {
                // Keep the pipe full: write until `depth` requests are in
                // flight (or the input is exhausted), then read one reply.
                while next < images.len() && pending.len() < depth {
                    let id = self.next_id();
                    let mut frame = if use_cache {
                        RequestWriter::segment_cached(id, images[next], false)?
                    } else {
                        RequestWriter::segment(id, images[next])?
                    };
                    // Insert before writing: if the write has to drain
                    // replies mid-frame, this request is already addressable.
                    pending.insert(id, next);
                    next += 1;
                    self.write_frame_draining(&mut frame, &mut pending, &mut results, images)?;
                }
                self.receive_pipelined_reply(&mut pending, &mut results, images)?;
            }
            Ok(())
        })();
        // Restore blocking writes for the lockstep calls whatever happened.
        let _ = self.stream.set_write_timeout(None);
        outcome?;
        Ok(results
            .into_iter()
            .map(|slot| slot.expect("every request was answered"))
            .collect())
    }

    /// Writes one request frame under the pipeline write timeout, draining
    /// a reply whenever the write would block and replies are outstanding —
    /// the socket's send buffer can only be full because the peer (or this
    /// side's receive path) has unread data in flight.  The frame resumes
    /// where the blocked write stopped.
    fn write_frame_draining(
        &mut self,
        frame: &mut RequestWriter<'_>,
        pending: &mut std::collections::HashMap<u64, usize>,
        results: &mut [Option<SegmentOutcome>],
        images: &[&RgbImage],
    ) -> Result<(), ServeError> {
        loop {
            match frame.write_to(&mut self.stream) {
                Ok(()) => return Ok(()),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    // More than this half-written frame is outstanding:
                    // free buffer space by consuming a reply.  (With only
                    // the in-progress frame pending the server cannot be
                    // mid-reply; it drains our bytes as it reads the frame,
                    // so simply retrying makes progress.)
                    if pending.len() > 1 {
                        self.receive_pipelined_reply(pending, results, images)?;
                    }
                }
                Err(e) => return Err(ServeError::Protocol(ProtocolError::Io(e))),
            }
        }
    }

    /// Reads one pipelined reply and files it into `results` by echoed id.
    fn receive_pipelined_reply(
        &mut self,
        pending: &mut std::collections::HashMap<u64, usize>,
        results: &mut [Option<SegmentOutcome>],
        images: &[&RgbImage],
    ) -> Result<(), ServeError> {
        let (got, reply) = protocol::read_message(&mut self.stream)?;
        if let Message::Error { message } = reply {
            return Err(ServeError::Server(message));
        }
        let Some(slot) = pending.remove(&got) else {
            return Err(ServeError::UnknownId(got));
        };
        let (labels, cached) = match reply {
            Message::SegmentCachedReply { labels, cached } => (labels, cached),
            Message::SegmentReply { labels } => (labels, false),
            Message::Busy => {
                results[slot] = Some(SegmentOutcome::Busy);
                return Ok(());
            }
            other => {
                return Err(ServeError::Unexpected {
                    expected: "SegmentReply or SegmentCachedReply",
                    got: other.name(),
                })
            }
        };
        if labels.dimensions() != images[slot].dimensions() {
            return Err(ServeError::Unexpected {
                expected: "a reply with matching dimensions",
                got: "a reply with different dimensions",
            });
        }
        results[slot] = Some(SegmentOutcome::Done { labels, cached });
        Ok(())
    }

    /// Fetches and parses a server statistics snapshot.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ServeError> {
        match self.round_trip(&Message::Stats)? {
            Message::StatsReply { text } => {
                StatsSnapshot::from_text(&text).map_err(ServeError::BadStats)
            }
            other => Err(ServeError::Unexpected {
                expected: "StatsReply",
                got: other.name(),
            }),
        }
    }

    /// Asks the server to drain and stop.  On `Ok`, the shutdown was
    /// acknowledged and the server is stopping; this connection is done.
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        match self.round_trip(&Message::Shutdown)? {
            Message::ShutdownReply => Ok(()),
            other => Err(ServeError::Unexpected {
                expected: "ShutdownReply",
                got: other.name(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_human_readable_diagnostics() {
        let err = ServeError::IdMismatch { sent: 4, got: 9 };
        assert!(err.to_string().contains("sent 4"));
        let err = ServeError::Unexpected {
            expected: "Pong",
            got: "StatsReply",
        };
        assert!(err.to_string().contains("Pong"));
        assert!(ServeError::Server("boom".into())
            .to_string()
            .contains("boom"));
        assert!(ServeError::BadStats("no plan".into())
            .to_string()
            .contains("no plan"));
    }

    #[test]
    fn connect_to_unbound_port_fails_cleanly() {
        // Port 1 on loopback is essentially never listening.
        assert!(Client::open(&ClientConfig::new("127.0.0.1:1")).is_err());
        // The deadline-bounded dial fails the same way.
        let config =
            ClientConfig::new("127.0.0.1:1").with_connect_deadline(Duration::from_millis(50));
        assert!(Client::open(&config).is_err());
    }

    #[test]
    fn open_with_no_address_is_an_invalid_input_error() {
        let err = Client::open(&ClientConfig::default()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn config_builder_chains_every_knob() {
        let config = ClientConfig::fleet(["a:1", "b:2"])
            .with_pipeline_depth(16)
            .with_connect_deadline(Duration::from_millis(250))
            .with_reply_deadline(Duration::from_secs(2));
        assert_eq!(config.addrs, vec!["a:1".to_string(), "b:2".to_string()]);
        assert_eq!(config.pipeline_depth, 16);
        assert_eq!(config.connect_deadline, Some(Duration::from_millis(250)));
        assert_eq!(config.reply_deadline, Some(Duration::from_secs(2)));
        assert_eq!(
            ClientConfig::fleet(["a:1", "b:2"]).addrs,
            vec!["a:1".to_string(), "b:2".to_string()]
        );
    }

    #[test]
    fn outcome_accessors_expose_one_uniform_vocabulary() {
        let labels = LabelMap::new(2, 1, 0u32);
        let done = SegmentOutcome::Done {
            labels: labels.clone(),
            cached: true,
        };
        assert!(done.cached());
        assert!(!done.is_busy());
        assert_eq!(done.tried(), 0);
        assert_eq!(done.labels(), Some(&labels));
        let failover = SegmentOutcome::Failover {
            labels: labels.clone(),
            cached: false,
            tried: 2,
        };
        assert_eq!(failover.tried(), 2);
        assert_eq!(failover.clone().unwrap_done(), (labels, false));
        assert!(SegmentOutcome::Busy.is_busy());
        assert_eq!(SegmentOutcome::Busy.labels(), None);
        assert!(!SegmentOutcome::Busy.cached());
    }

    #[test]
    #[should_panic(expected = "Busy")]
    fn unwrap_done_panics_on_busy() {
        SegmentOutcome::Busy.unwrap_done();
    }
}
