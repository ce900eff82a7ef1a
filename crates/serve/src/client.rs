//! The synchronous client side of the `iqft-serve` protocol.
//!
//! A [`Client`] holds one TCP connection and issues request/response pairs
//! in lockstep: every call writes one frame, reads one frame, checks the
//! echoed request id, and converts a server [`Message::Error`] into
//! [`ServeError::Server`].  For concurrent load, open one client per thread
//! (the `iqft-experiments loadgen` subcommand does).
//!
//! A segment request is written straight from the caller's image, and a
//! reply's labels are read straight into the returned map: one copy at each
//! end, between the socket and the buffer the frame describes (see
//! [`RequestWriter`] and [`protocol::read_message`]).  The lockstep calls
//! and the pipelined burst share the one request writer, and one check of
//! each segment reply's op and dimensions.
//!
//! Failover: a [`ClientConfig`] may list several daemons.  Each segment
//! call (a pipelined burst, whole) goes to the first of them, in config
//! order, that answers.  A refused connect or a dead connection (a killed
//! or draining daemon) moves the request on to the next endpoint: the
//! failed socket is dropped, the request is sent again (every segment op is
//! idempotent), and the answer comes back as [`SegmentOutcome::Failover`],
//! almost certainly a miss at its fallback.  Killing one daemon therefore
//! degrades to misses, never to errors, and a restarted daemon rejoins on
//! the next request.  Nothing is routed by content: with the split table
//! classifying a pixel about as fast as the cache can hash it, spreading one
//! working set over several daemons' caches no longer pays.  To spread load,
//! give each client its own endpoint order (`loadgen` rotates the list by
//! client index).
//!
//! Construction mirrors the server side: a [`ClientConfig`] builder names
//! the endpoint(s), the pipeline depth and the connect/reply deadlines, and
//! [`Client::open`] dials the first endpoint that answers.  Saturation is
//! not an error — every segmentation call returns a [`SegmentOutcome`], the
//! one vocabulary shared by the lockstep calls and the pipelined burst; a
//! [`Busy`](SegmentOutcome::Busy) request was never executed, so the caller
//! may send it again.

use crate::protocol::{self, Message, ProtocolError, RequestWriter};
use crate::stats::StatsSnapshot;
use imaging::{LabelMap, RgbImage};
use std::collections::HashMap;
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
/// A config with several addresses describes a fleet: [`Client::open`]
/// dials the first address that answers, and each segment call goes to the
/// first address that answers it, so the list order is the failover order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientConfig {
    /// Daemon endpoint(s), in `host:port` form, in the order they are
    /// tried.  One for a single-daemon client; several for a fleet, which
    /// a [`Client`] fails over across.
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
/// shared by the lockstep calls and the pipelined burst.
///
/// Saturation and failover are states to handle, not errors to unwrap:
/// a [`SegmentOutcome::Busy`] slot was never executed and may be retried
/// on the same connection, and a [`SegmentOutcome::Failover`] reply is a
/// correct answer that simply came from a fallback daemon (so it was
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
    /// The server shed this request; it was not executed.  This crate's
    /// daemon never sheds (a saturated reactor stops reading instead), but
    /// the reply stays decodable.
    Busy,
    /// A request whose first endpoint was unreachable (connect failure or
    /// drain) and that a later endpoint in the config's list answered
    /// instead.  Only a [`Client`] whose config lists several endpoints
    /// produces this variant.
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

    /// How many unreachable endpoints the client skipped for this request
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

/// A client of one `iqft-serve` daemon, or of several in failover order.
///
/// Holds at most one connection, to one endpoint of
/// [`ClientConfig::addrs`].  Each segment call goes to the first endpoint,
/// in config order, that answers it (see the module docs).  `ping`, `stats`
/// and `shutdown` go to the endpoint the client is connected to, or, when
/// it holds no connection, to the first endpoint that answers.  After a
/// transport error the client redials on its next call.
#[derive(Debug)]
pub struct Client {
    config: ClientConfig,
    conn: Option<Connection>,
}

/// One open connection and the endpoint it reaches.
#[derive(Debug)]
struct Connection {
    stream: TcpStream,
    /// The endpoint's index in [`ClientConfig::addrs`]: how many endpoints
    /// a reply on this connection skipped.
    endpoint: usize,
    next_id: u64,
}

/// The segment op a request is sent as.
#[derive(Debug, Clone, Copy)]
enum SegmentOp {
    Plain,
    Cached { bypass: bool },
    Delta,
}

impl SegmentOp {
    /// The request frame for `image`, written straight from its pixels.
    fn request(self, id: u64, image: &RgbImage) -> Result<RequestWriter<'_>, ProtocolError> {
        match self {
            SegmentOp::Plain => RequestWriter::segment(id, image),
            SegmentOp::Cached { bypass } => RequestWriter::segment_cached(id, image, bypass),
            SegmentOp::Delta => RequestWriter::segment_delta(id, image),
        }
    }
}

/// The one check every segment reply passes, lockstep or pipelined: it is
/// `Busy`, or a reply op that answers `op` (either whole-frame reply
/// answers either whole-frame request) with the labels of an `image`-sized
/// frame.  Returns the outcome — [`SegmentOutcome::Failover`] when the reply
/// came from endpoint `tried` > 0 — and the delta op's tile counts (zero
/// for the other ops).
fn check_reply(
    reply: Message,
    op: SegmentOp,
    image: &RgbImage,
    tried: usize,
) -> Result<(SegmentOutcome, u32, u32), ServeError> {
    let whole_frame = !matches!(op, SegmentOp::Delta);
    let (labels, cached, tiles_hit, tiles_recomputed) = match reply {
        Message::Busy => return Ok((SegmentOutcome::Busy, 0, 0)),
        Message::SegmentReply { labels } if whole_frame => (labels, false, 0, 0),
        Message::SegmentCachedReply { labels, cached } if whole_frame => (labels, cached, 0, 0),
        Message::SegmentDeltaReply {
            labels,
            tiles_hit,
            tiles_recomputed,
        } if !whole_frame => (labels, tiles_recomputed == 0, tiles_hit, tiles_recomputed),
        other => {
            return Err(ServeError::Unexpected {
                expected: if whole_frame {
                    "SegmentReply or SegmentCachedReply"
                } else {
                    "SegmentDeltaReply"
                },
                got: other.name(),
            })
        }
    };
    if labels.dimensions() != image.dimensions() {
        return Err(ServeError::Unexpected {
            expected: "a reply with the request's dimensions",
            got: "a reply with different dimensions",
        });
    }
    let outcome = match tried {
        0 => SegmentOutcome::Done { labels, cached },
        tried => SegmentOutcome::Failover {
            labels,
            cached,
            tried: tried as u32,
        },
    };
    Ok((outcome, tiles_hit, tiles_recomputed))
}

impl Connection {
    /// Dials endpoint `endpoint` of `config` (every socket address it
    /// resolves to, in order) under the config's deadlines.
    fn dial(config: &ClientConfig, endpoint: usize) -> io::Result<Connection> {
        let mut last_err =
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing");
        for resolved in config.addrs[endpoint].to_socket_addrs()? {
            let connected = match config.connect_deadline {
                Some(deadline) => TcpStream::connect_timeout(&resolved, deadline),
                None => TcpStream::connect(resolved),
            };
            match connected {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    stream.set_read_timeout(config.reply_deadline)?;
                    return Ok(Connection {
                        stream,
                        endpoint,
                        next_id: 1,
                    });
                }
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    /// Dials the first endpoint of `config`, in order, that answers.
    fn dial_first(config: &ClientConfig) -> io::Result<Connection> {
        let mut last_err = io::Error::new(
            io::ErrorKind::InvalidInput,
            "client config names no address",
        );
        for endpoint in 0..config.addrs.len() {
            match Connection::dial(config, endpoint) {
                Ok(conn) => return Ok(conn),
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
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

    fn round_trip(&mut self, request: &Message) -> Result<Message, ServeError> {
        let sent = self.next_id();
        protocol::write_message(&mut self.stream, sent, request)?;
        self.read_reply(sent)
    }

    /// Sends one segment request straight from its image, reads the reply
    /// (its labels straight into the returned map) and checks it.
    fn segment(
        &mut self,
        op: SegmentOp,
        image: &RgbImage,
    ) -> Result<(SegmentOutcome, u32, u32), ServeError> {
        let mut frame = op.request(self.next_id(), image)?;
        frame.write_to(&mut self.stream)?;
        let reply = self.read_reply(frame.request_id())?;
        check_reply(reply, op, image, self.endpoint)
    }

    /// The burst behind [`Client::segment_pipelined`], on this connection.
    fn pipelined(
        &mut self,
        images: &[&RgbImage],
        op: SegmentOp,
        depth: usize,
    ) -> Result<Vec<SegmentOutcome>, ServeError> {
        let mut results: Vec<Option<SegmentOutcome>> = (0..images.len()).map(|_| None).collect();
        let mut pending: HashMap<u64, usize> = HashMap::new();
        let mut next = 0usize;
        self.stream.set_write_timeout(Some(PIPELINE_WRITE_POLL))?;
        let outcome = (|| -> Result<(), ServeError> {
            while results.iter().any(|slot| slot.is_none()) {
                // Keep the pipe full: write until `depth` requests are in
                // flight (or the input is exhausted), then read one reply.
                while next < images.len() && pending.len() < depth {
                    let mut frame = op.request(self.next_id(), images[next])?;
                    // Insert before writing: if the write has to drain
                    // replies mid-frame, this request is already addressable.
                    pending.insert(frame.request_id(), next);
                    next += 1;
                    self.write_frame_draining(&mut frame, op, &mut pending, &mut results, images)?;
                }
                self.receive_pipelined_reply(op, &mut pending, &mut results, images)?;
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
        op: SegmentOp,
        pending: &mut HashMap<u64, usize>,
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
                        self.receive_pipelined_reply(op, pending, results, images)?;
                    }
                }
                Err(e) => return Err(ServeError::Protocol(ProtocolError::Io(e))),
            }
        }
    }

    /// Reads one pipelined reply, checks it and files it into `results` by
    /// echoed id.
    fn receive_pipelined_reply(
        &mut self,
        op: SegmentOp,
        pending: &mut HashMap<u64, usize>,
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
        let (outcome, _, _) = check_reply(reply, op, images[slot], self.endpoint)?;
        results[slot] = Some(outcome);
        Ok(())
    }
}

impl Client {
    /// Dials the first endpoint of [`ClientConfig::addrs`] that answers and
    /// returns a client connected to it.
    ///
    /// Each address is tried in order (and every socket address each
    /// resolves to), under [`ClientConfig::connect_deadline`] when one is
    /// set.  The config's deadlines stay attached to every connection the
    /// client makes.
    pub fn open(config: &ClientConfig) -> io::Result<Client> {
        Ok(Client {
            conn: Some(Connection::dial_first(config)?),
            config: config.clone(),
        })
    }

    /// The one failover loop behind every segment call: runs `call` on the
    /// first endpoint, in config order, that answers.  The held connection
    /// serves its own endpoint; any other endpoint is dialed, and a dial
    /// that answers replaces the held connection.  Only a connect or
    /// transport failure moves on, dropping the failed socket; any other
    /// answer, error or not, is the caller's.  When every endpoint fails,
    /// the last transport error is returned.
    fn failover<T>(
        &mut self,
        mut call: impl FnMut(&mut Connection) -> Result<T, ServeError>,
    ) -> Result<T, ServeError> {
        let mut last_err = None;
        for endpoint in 0..self.config.addrs.len() {
            let mut conn = match self.conn.take() {
                Some(conn) if conn.endpoint == endpoint => conn,
                // A held connection that is not this endpoint's reaches a
                // later one, and stays held only while this one is down.
                held => match Connection::dial(&self.config, endpoint) {
                    Ok(conn) => conn,
                    Err(err) => {
                        self.conn = held;
                        last_err = Some(err.into());
                        continue;
                    }
                },
            };
            match call(&mut conn) {
                // A connection that died under us (a draining or killed
                // daemon): drop it and send the request again to the next
                // endpoint.
                Err(err @ ServeError::Protocol(_)) => last_err = Some(err),
                answer => {
                    self.conn = Some(conn);
                    return answer;
                }
            }
        }
        Err(last_err.expect("open refuses a config without addresses"))
    }

    /// A `Ping`, `Stats` or `Shutdown` round trip on the held connection,
    /// or on a new one to the first endpoint that answers.  A transport
    /// error drops the connection.
    fn control(&mut self, request: &Message) -> Result<Message, ServeError> {
        let conn = match self.conn.take() {
            Some(conn) => conn,
            None => Connection::dial_first(&self.config)?,
        };
        let reply = self.conn.insert(conn).round_trip(request);
        if let Err(ServeError::Protocol(_)) = reply {
            self.conn = None;
        }
        reply
    }

    /// Liveness probe: sends `Ping`, expects `Pong`.
    pub fn ping(&mut self) -> Result<(), ServeError> {
        match self.control(&Message::Ping)? {
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
        let (outcome, _, _) = self.failover(|conn| conn.segment(SegmentOp::Plain, image))?;
        Ok(outcome)
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
        let op = SegmentOp::Cached { bypass };
        let (outcome, _, _) = self.failover(|conn| conn.segment(op, image))?;
        Ok(outcome)
    }

    /// Segments `image` through the server's per-tile delta cache (protocol
    /// v2's `SegmentDelta` op).  Returns the outcome plus
    /// `(tiles_hit, tiles_recomputed)` — how many of the frame's tiles the
    /// server that answered stitched from cached label tiles versus
    /// re-classified (both zero when the request was shed).  The stitched
    /// result is byte-identical to [`Client::segment`]; only the cost
    /// differs, scaling with how much of the frame changed since the tiles
    /// were last seen.
    pub fn segment_delta(
        &mut self,
        image: &RgbImage,
    ) -> Result<(SegmentOutcome, u32, u32), ServeError> {
        self.failover(|conn| conn.segment(SegmentOp::Delta, image))
    }

    /// Segments a whole slice of images with up to
    /// [`ClientConfig::pipeline_depth`] requests in flight on one
    /// connection (protocol v2 pipelining) — the client no longer pays one
    /// network round-trip per image.  The burst goes whole to one endpoint:
    /// if its endpoint dies mid-burst, the whole burst is sent again to the
    /// next one.
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
        if images.is_empty() {
            return Ok(Vec::new());
        }
        let op = if use_cache {
            SegmentOp::Cached { bypass: false }
        } else {
            SegmentOp::Plain
        };
        let depth = self
            .config
            .pipeline_depth
            .clamp(1, protocol::MAX_PIPELINE_DEPTH);
        self.failover(|conn| conn.pipelined(images, op, depth))
    }

    /// Fetches and parses a server statistics snapshot.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ServeError> {
        match self.control(&Message::Stats)? {
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
        match self.control(&Message::Shutdown)? {
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
    use crate::server::{Server, ServerConfig};
    use imaging::Rgb;
    use iqft_pipeline::CacheConfig;
    use iqft_seg::IqftClassifier;
    use seg_engine::{ClassifierKind, SegmentEngine, SegmentPlan};

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
        assert_ne!(done, SegmentOutcome::Busy);
        assert_eq!(done.tried(), 0);
        assert_eq!(done.labels(), Some(&labels));
        let failover = SegmentOutcome::Failover {
            labels: labels.clone(),
            cached: false,
            tried: 2,
        };
        assert_eq!(failover.tried(), 2);
        assert_eq!(failover.clone().unwrap_done(), (labels, false));
        assert_eq!(SegmentOutcome::Busy.labels(), None);
        assert!(!SegmentOutcome::Busy.cached());
    }

    fn test_image(seed: u8) -> RgbImage {
        let mut img = RgbImage::new(48, 32, Rgb::new(0u8, 0, 0));
        for y in 0..32 {
            for x in 0..48 {
                let v = (x as u8)
                    .wrapping_mul(31)
                    .wrapping_add((y as u8).wrapping_mul(17))
                    .wrapping_add(seed);
                img.set(x, y, Rgb::new(v, v.wrapping_add(40), v.wrapping_add(80)));
            }
        }
        img
    }

    /// The exact oracle's labels for `img`, which every reply must equal.
    fn reference(img: &RgbImage) -> LabelMap {
        SegmentEngine::serial()
            .segment_rgb(&IqftClassifier::paper_default(ClassifierKind::Exact), img)
    }

    fn boot_daemon_at(addr: &str) -> Server {
        Server::bind(
            addr,
            ServerConfig::new(SegmentPlan::default())
                .with_max_inflight(2)
                .with_cache(CacheConfig::with_capacity_mb(8)),
        )
        .unwrap()
    }

    fn boot_daemons(n: usize) -> Vec<Server> {
        (0..n).map(|_| boot_daemon_at("127.0.0.1:0")).collect()
    }

    fn fleet_config(servers: &[Server]) -> ClientConfig {
        ClientConfig::fleet(servers.iter().map(|s| s.local_addr().to_string()))
    }

    /// A daemon's own stats, through a client of its own.
    fn daemon_stats(server: &Server) -> StatsSnapshot {
        let config = ClientConfig::new(server.local_addr().to_string());
        Client::open(&config).unwrap().stats().unwrap()
    }

    /// Drains each daemon through a client of its own and joins it.
    fn stop(servers: Vec<Server>) {
        for server in servers {
            let config = ClientConfig::new(server.local_addr().to_string());
            Client::open(&config).unwrap().shutdown().unwrap();
            server.join();
        }
    }

    /// Drains endpoint 0 and joins it, so its listener is gone before the
    /// next request; returns the survivors.
    fn kill_first(mut servers: Vec<Server>) -> Vec<Server> {
        stop(vec![servers.remove(0)]);
        servers
    }

    #[test]
    fn every_request_goes_to_the_first_endpoint_and_its_cache_stays_hot() {
        let servers = boot_daemons(2);
        let mut client = Client::open(&fleet_config(&servers)).unwrap();
        let images: Vec<RgbImage> = (0..8).map(test_image).collect();
        let mut recomputed_first = 0;
        for img in &images {
            let (outcome, _, recomputed) = client.segment_delta(img).unwrap();
            assert!(recomputed > 0 && !outcome.cached(), "first sight is a miss");
            assert_eq!(outcome.unwrap_done().0, reference(img));
            recomputed_first += recomputed as usize;
        }
        // Second pass: every tile of every repeat hits, because every
        // request went to the same daemon's cache.
        let mut hit_second = 0;
        for img in &images {
            let (outcome, hit, recomputed) = client.segment_delta(img).unwrap();
            assert_eq!(recomputed, 0, "repeat must hit the first endpoint's cache");
            assert!(hit > 0 && outcome.cached());
            assert_eq!(outcome.tried(), 0);
            assert_eq!(outcome.unwrap_done().0, reference(img));
            hit_second += hit as usize;
        }
        let first = daemon_stats(&servers[0]);
        assert_eq!(first.segment_requests, 16, "{first:?}");
        assert_eq!(
            (first.delta_tiles_recomputed, first.delta_tiles_hit),
            (recomputed_first, hit_second),
            "{first:?}"
        );
        let second = daemon_stats(&servers[1]);
        assert_eq!(
            second.segment_requests, 0,
            "a live first endpoint takes all: {second:?}"
        );
        stop(servers);
    }

    #[test]
    fn killing_the_first_daemon_degrades_to_failover_misses_not_errors() {
        let servers = boot_daemons(3);
        let mut client = Client::open(&fleet_config(&servers)).unwrap();
        let images: Vec<RgbImage> = (0..12).map(test_image).collect();
        for img in &images {
            client.segment_delta(img).unwrap();
        }
        let servers = kill_first(servers);
        // Every image still answers byte-identically from the second
        // endpoint, each after skipping the dead first.
        for img in &images {
            let (outcome, _, _) = client.segment_delta(img).unwrap();
            assert_eq!(
                outcome.tried(),
                1,
                "each request skips the dead first endpoint"
            );
            assert!(!outcome.cached(), "the second endpoint's cache starts cold");
            assert_eq!(outcome.unwrap_done().0, reference(img));
        }
        let second = daemon_stats(&servers[0]);
        assert_eq!(
            second.segment_requests, 12,
            "every reply came from the second: {second:?}"
        );
        assert_eq!(daemon_stats(&servers[1]).segment_requests, 0);
        stop(servers);
    }

    #[test]
    fn pipelined_bursts_go_whole_to_the_first_endpoint_in_input_order() {
        let servers = boot_daemons(2);
        let mut client = Client::open(&fleet_config(&servers)).unwrap();
        let images: Vec<RgbImage> = (0..10).map(test_image).collect();
        let refs: Vec<&RgbImage> = images.iter().collect();
        let first = client.segment_pipelined(&refs, true).unwrap();
        let again = client.segment_pipelined(&refs, true).unwrap();
        for ((cold, warm), img) in first.iter().zip(&again).zip(&images) {
            assert!(!cold.cached() && warm.cached(), "second burst hits");
            assert_eq!(cold.labels(), Some(&reference(img)), "input order");
            assert_eq!(warm.labels(), cold.labels());
        }
        assert!(client.segment_pipelined(&[], true).unwrap().is_empty());
        let first = daemon_stats(&servers[0]);
        assert_eq!(
            (first.segment_requests, first.cache_hits),
            (20, 10),
            "{first:?}"
        );
        assert_eq!(daemon_stats(&servers[1]).segment_requests, 0);
        stop(servers);
    }

    #[test]
    fn a_pipelined_burst_fails_over_whole_when_its_endpoint_dies_between_bursts() {
        let servers = boot_daemons(3);
        let mut client = Client::open(&fleet_config(&servers)).unwrap();
        let images: Vec<RgbImage> = (0..12).map(test_image).collect();
        let refs: Vec<&RgbImage> = images.iter().collect();
        let first = client.segment_pipelined(&refs, true).unwrap();
        let servers = kill_first(servers);
        let after = client.segment_pipelined(&refs, true).unwrap();
        for (outcome, want) in after.iter().zip(&first) {
            assert_eq!(outcome.labels(), want.labels(), "byte-identical after kill");
            assert_eq!(
                outcome.tried(),
                1,
                "the whole burst skipped the dead endpoint"
            );
        }
        assert_eq!(daemon_stats(&servers[0]).segment_requests, 12);
        assert_eq!(daemon_stats(&servers[1]).segment_requests, 0);
        stop(servers);
    }

    #[test]
    fn a_daemon_restarted_on_the_first_endpoint_rejoins_on_the_next_request() {
        let servers = boot_daemons(2);
        let config = fleet_config(&servers);
        let mut client = Client::open(&config).unwrap();
        let img = test_image(0);
        assert_eq!(client.segment_cached(&img, false).unwrap().tried(), 0);
        let servers = kill_first(servers);
        // The first request finds the connection dead, the second finds
        // nothing listening: both fail over.
        for _ in 0..2 {
            assert_eq!(client.segment_cached(&img, false).unwrap().tried(), 1);
        }
        let restarted = boot_daemon_at(&config.addrs[0]);
        let outcome = client.segment_cached(&img, false).unwrap();
        assert_eq!(outcome.tried(), 0, "the restarted daemon answers first");
        assert!(!outcome.cached(), "its cache starts cold");
        assert_eq!(outcome.unwrap_done().0, reference(&img));
        assert_eq!(daemon_stats(&restarted).segment_requests, 1);
        assert_eq!(daemon_stats(&servers[0]).segment_requests, 2);
        stop(servers);
        stop(vec![restarted]);
    }

    /// Only a transport failure moves a request on.  A live first endpoint
    /// (a mock here) that answers with an error frame, then with `Busy`,
    /// has both returned to the caller on the same connection, and the
    /// second endpoint sees no request.
    #[test]
    fn server_errors_and_busy_are_answers_not_failovers() {
        let mock = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mock_addr = mock.local_addr().unwrap().to_string();
        let mock = std::thread::spawn(move || {
            let (mut stream, _) = mock.accept().unwrap();
            for reply in [
                Message::Error {
                    message: "boom".to_string(),
                },
                Message::Busy,
            ] {
                let (id, _) = protocol::read_message(&mut stream).unwrap();
                protocol::write_message(&mut stream, id, &reply).unwrap();
            }
        });
        let servers = boot_daemons(1);
        let config = ClientConfig::fleet([mock_addr, servers[0].local_addr().to_string()])
            .with_reply_deadline(Duration::from_secs(30));
        let mut client = Client::open(&config).unwrap();
        let img = test_image(0);
        match client.segment(&img) {
            Err(ServeError::Server(message)) => assert_eq!(message, "boom"),
            other => panic!("expected the mock's error, got {other:?}"),
        }
        assert_eq!(
            client.segment_cached(&img, false).unwrap(),
            SegmentOutcome::Busy
        );
        mock.join().unwrap();
        assert_eq!(daemon_stats(&servers[0]).segment_requests, 0);
        stop(servers);
    }

    #[test]
    #[should_panic(expected = "Busy")]
    fn unwrap_done_panics_on_busy() {
        SegmentOutcome::Busy.unwrap_done();
    }
}
