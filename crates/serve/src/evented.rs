//! The evented serving core: a hand-rolled nonblocking readiness loop that
//! runs each frame to completion on the reactor that decoded it.
//!
//! Layering (sans-io at the center, I/O at the edges):
//!
//! ```text
//!              accept            readable             complete frame
//!   listener ────────► reactor ──────────► FrameDecoder ───────────┐
//!   (nonblocking,        │  ▲                (no I/O inside)       │
//!    owned by            │  │ wake: a connection                   ▼
//!    reactor 0)          │  │ another reactor               run here, in
//!                        │  │ accepted                      arrival order:
//!                        │  │                               light ops, hits,
//!                        ▼                                  misses, Segment,
//!                   poll(2) over ◄──────────── FrameEncoder ◄── SegmentDelta
//!                   its conn fds    writev     (per-conn queue:   │
//!                                              frames + label     ▼
//!                                              buffers)       LabelArena
//!                                                             (written buffers)
//! ```
//!
//! [`crate::ServerConfig::max_inflight`] reactor threads own *all*
//! connections.  The acceptor is just the listener's readiness entry in
//! reactor 0's poll set, and new connections are dealt round robin across
//! reactors through each reactor's inbox and socketpair waker — the only
//! hand-off between threads.  Each connection costs one [`FrameDecoder`] +
//! [`FrameEncoder`] pair and a few counters — kilobytes, not an OS thread —
//! which is what lets one daemon hold a thousand-plus pipelined
//! connections.
//!
//! Way in: the decoder copies a segment request's pixels straight from the
//! reactor's read buffer into the image the request will carry, in a warm
//! buffer from the daemon's pixel arena; the image goes back to the arena
//! once its request has run, and so does the buffer of a frame a closing
//! connection abandons.
//!
//! Run to completion: each connection's complete frames run strictly in
//! arrival order, on the reactor that decoded them, and each reply is
//! queued the moment its request finishes.  `Ping`/`Stats`/`Shutdown` and
//! protocol errors take microseconds.  A segment request — `Segment`,
//! `SegmentDelta`, or a `SegmentCached` hit, miss or bypass — calls the
//! server's one warm pipeline right there: a whole-frame hit replies from
//! the cache entry's own label buffer, and a miss classifies and stores
//! under the key its lookup computed, so nothing is hashed twice.  No frame
//! crosses to another thread, so a reactor classifies one frame at a time
//! and the daemon at most as many as it has reactors.  The frames of one
//! connection never run concurrently, so a pipelined repeat sees the cache
//! entry its predecessor stored, and a hit never overtakes an earlier miss.
//! Across connections replies ship in whatever order the reactors make,
//! which protocol v2 permits (clients match replies by echoed id).
//!
//! Head-of-line stalls: while a reactor classifies, its other connections
//! wait — about 0.5 ms for a 1024×768 frame on the split table, and up to
//! ~8 ms for the largest legal frame.  So that one pipelining peer cannot
//! hold its reactor for longer, a reactor runs at most one segment request
//! per connection per pass over its poll set, and none for a connection
//! whose unsent replies exceed [`WRITE_HIGH_WATER`]; a connection left with
//! a frame it may run makes the next `poll(2)` return at once.  The `table`
//! and `exact` kinds classify far slower: one of their frames holds its
//! reactor for the whole classification (~11 ms and ~200 ms at 1024×768),
//! which is why neither is served by default.
//!
//! Replies: a segment reply's labels are queued as they are — for a miss,
//! the very buffer the cache now stores — behind a head of at most 40
//! bytes, and both go out with one `writev`.  Once a buffer's last byte is
//! written the reply lets go of it, and so do the replies still queued when
//! a connection closes; whichever of the replies and the cache entry lets
//! go last returns the buffer to the pipeline's arena.
//!
//! Overload and backpressure: nothing waits in a daemon-wide queue, so
//! nothing is shed, and the daemon never answers `Busy`.  A connection stops
//! being polled for readability while it has [`MAX_PIPELINE_DEPTH`] frames
//! queued or more than [`WRITE_HIGH_WATER`] unsent reply bytes — the kernel
//! socket buffer then pushes back on the client, bounding per-connection
//! memory no matter how fast the peer writes.  A saturated reactor reads no
//! faster than it classifies, so TCP slows its clients to its pace.
//!
//! Deadlines: the per-frame read deadline is reactor bookkeeping, not a
//! socket timeout — each mid-frame connection records when its frame must be
//! complete, the poll timeout is the nearest such deadline, and an expired
//! connection is closed without disturbing any other.  One stalled
//! (slow-loris) connection can never delay replies on a healthy one, because
//! nothing about the stalled fd blocks: it merely sits unready in the poll
//! set until its deadline fires.  The deadline runs only while the reactor
//! would read the connection: backpressure that stops reading mid-frame
//! clears it, and the pass that resumes reading arms a fresh one, so a peer
//! that drains its replies and then stalls is still closed one deadline
//! later.  A peer that never reads its replies at all is never timed out;
//! that takes a write deadline, which the daemon does not have yet.
//!
//! Accept errors: a failed `accept(2)` (e.g. `EMFILE` when the process is
//! out of descriptors) leaves the waiting connection in the backlog, so the
//! listener stays readable.  Reactor 0 therefore drops the listener from its
//! poll set for [`POLL_INTERVAL`] after such an error instead of spinning on
//! it, and retries once that back-off ends.

#![cfg(unix)]

use crate::poll::{poll, PollFd, POLLIN, POLLOUT};
use crate::protocol::{
    Frame, FrameDecoder, FrameEncoder, LabelReply, Message, Op, MAX_PIPELINE_DEPTH,
};
use crate::server::{ConnStats, Shared};
use iqft_pipeline::CacheLookup;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A reactor's longest `poll(2)` wait: an idle reactor re-checks the
/// shutdown flag at least this often.  It is also how long reactor 0 stops
/// accepting after `accept(2)` fails.
const POLL_INTERVAL: Duration = Duration::from_millis(100);
/// After shutdown is signalled, how long an idle connection stays open for
/// frames still in flight before the reactor closes it.
const SHUTDOWN_GRACE: Duration = Duration::from_millis(200);
/// A connection whose unsent reply bytes exceed this is not read, and runs
/// no segment request, until the peer drains some — bounding
/// per-connection memory and what one peer can make its reactor do.
const WRITE_HIGH_WATER: usize = 8 << 20;
/// Read scratch size per reactor (shared across its connections).
const READ_CHUNK: usize = 64 << 10;

/// The cross-thread face of one reactor: the connections another reactor
/// accepted for it, plus a socketpair waker.
struct ReactorHandle {
    inbox: Mutex<Vec<TcpStream>>,
    waker: UnixStream,
}

impl ReactorHandle {
    fn wake(&self) {
        // Nonblocking: if the pair's buffer is full the reactor already has
        // a pending wake-up, which is all a wake-up means.
        let _ = (&self.waker).write(&[1]);
    }

    fn push_conn(&self, stream: TcpStream) {
        self.inbox
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(stream);
        self.wake();
    }
}

/// Whether `op` asks for a segmentation (the ops a pass runs at most one
/// of per connection).
fn is_segment(op: Op) -> bool {
    matches!(op, Op::Segment | Op::SegmentCached | Op::SegmentDelta)
}

/// One connection's entire server-side state.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    encoder: FrameEncoder,
    /// Pixels segmented for this connection.
    pixels: u64,
    /// Frames started on this connection (header fully received).
    requests: usize,
    /// `decoder.frames_started()` already folded into the counters above.
    counted: u64,
    /// Complete frames decoded but not yet run, in arrival order.
    queue: VecDeque<Frame>,
    read_eof: bool,
    /// No more reads; flush pending replies, then close.
    closing: bool,
    /// When the in-progress frame must be complete (reactor bookkeeping, not
    /// a socket timeout); set only while the reactor would read it.
    frame_deadline: Option<Instant>,
    idle_since: Instant,
}

impl Conn {
    fn new(stream: TcpStream, now: Instant) -> Self {
        Conn {
            stream,
            decoder: FrameDecoder::new(),
            encoder: FrameEncoder::new(),
            pixels: 0,
            requests: 0,
            counted: 0,
            queue: VecDeque::new(),
            read_eof: false,
            closing: false,
            frame_deadline: None,
            idle_since: now,
        }
    }

    /// Whether the unsent replies exceed [`WRITE_HIGH_WATER`].
    fn backed_up(&self) -> bool {
        self.encoder.pending_len() > WRITE_HIGH_WATER
    }

    /// Whether the reactor should keep polling this connection for reads.
    fn wants_read(&self) -> bool {
        !self.closing
            && !self.read_eof
            && !self.decoder.is_failed()
            && self.queue.len() < MAX_PIPELINE_DEPTH
            && !self.backed_up()
    }

    /// Whether the frame at the head of the queue may run now: a light op
    /// always may, a segment request only while the replies are not backed
    /// up.
    fn can_run(&self) -> bool {
        !self.closing
            && self
                .queue
                .front()
                .is_some_and(|frame| !is_segment(frame.header.op) || !self.backed_up())
    }

    /// Nothing queued, nothing buffered, no partial frame.
    fn is_idle(&self) -> bool {
        self.queue.is_empty()
            && self.encoder.is_empty()
            && !self.decoder.mid_frame()
            && !self.closing
    }

    /// Finished: the peer is done (or we are) and all owed replies shipped.
    /// A closing connection abandons its queue (framing was lost or the
    /// server is stopping); a peer that merely half-closed its write side
    /// still gets every queued frame answered first.
    fn is_done(&self) -> bool {
        if !self.encoder.is_empty() {
            return false;
        }
        self.closing || (self.read_eof && self.queue.is_empty())
    }
}

/// Writes as much queued output as the socket accepts right now, and
/// releases every label buffer written in full to the pipeline's arena.
fn flush(conn: &mut Conn, shared: &Shared) -> io::Result<()> {
    let mut result = Ok(());
    while !conn.encoder.is_empty() {
        match conn.encoder.write_to(&mut &conn.stream) {
            Ok(0) => {
                result = Err(io::ErrorKind::WriteZero.into());
                break;
            }
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                result = Err(e);
                break;
            }
        }
    }
    for labels in conn.encoder.take_written() {
        shared.pipeline.arena().release(labels);
    }
    result
}

/// Queues a segment reply.  Its dimensions came from a decoded request, so
/// it always fits a frame; should it not, the peer gets a typed error
/// instead.
fn queue_reply(conn: &mut Conn, request_id: u64, reply: LabelReply) {
    if let Err(err) = conn.encoder.enqueue_labels(request_id, reply) {
        let _ = conn.encoder.enqueue(
            request_id,
            &Message::Error {
                message: err.to_string(),
            },
        );
    }
}

struct Reactor {
    index: usize,
    shared: Arc<Shared>,
    handle: Arc<ReactorHandle>,
    peers: Arc<Vec<Arc<ReactorHandle>>>,
    waker_rx: UnixStream,
    /// Reactor 0 owns the (nonblocking) listener; its readiness entry *is*
    /// the acceptor.
    listener: Option<TcpListener>,
    /// Set after an `accept(2)` error: the listener stays out of the poll
    /// set until then, so a full descriptor table cannot spin the reactor.
    accept_paused_until: Option<Instant>,
    accepting_done: Arc<AtomicBool>,
    slots: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_assign: usize,
    shutdown_seen: Option<Instant>,
}

enum Target {
    Waker,
    Listener,
    Conn(usize),
}

impl Reactor {
    fn run(mut self) {
        let mut scratch = vec![0u8; READ_CHUNK];
        let mut pollfds: Vec<PollFd> = Vec::new();
        let mut targets: Vec<Target> = Vec::new();
        loop {
            let now = Instant::now();
            let shutting_down = self.shared.shutting_down();
            if shutting_down && self.shutdown_seen.is_none() {
                self.shutdown_seen = Some(now);
            }
            if shutting_down {
                if let Some(listener) = self.listener.take() {
                    // Serve whatever was already queued in the accept backlog
                    // at shutdown, so a client that connected just before the
                    // flag flipped is answered, then stop accepting for good.
                    self.accept_ready(&listener, now);
                    drop(listener);
                    self.accepting_done.store(true, Ordering::SeqCst);
                    for peer in self.peers.iter() {
                        peer.wake();
                    }
                }
            }
            self.drain_inbox(now);
            self.sweep(now, shutting_down);
            if shutting_down && self.accepting_done.load(Ordering::SeqCst) && self.live_conns() == 0
            {
                let inbox = self.handle.inbox.lock().unwrap_or_else(|e| e.into_inner());
                if inbox.is_empty() {
                    break;
                }
                continue;
            }
            pollfds.clear();
            targets.clear();
            pollfds.push(PollFd::new(self.waker_rx.as_raw_fd(), POLLIN));
            targets.push(Target::Waker);
            let mut timeout = if shutting_down {
                SHUTDOWN_GRACE
            } else {
                POLL_INTERVAL
            };
            if let Some(listener) = &self.listener {
                match self.accept_paused_until {
                    Some(until) if now < until => {
                        timeout = timeout.min(until.saturating_duration_since(now));
                    }
                    _ => {
                        pollfds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
                        targets.push(Target::Listener);
                    }
                }
            }
            for (idx, slot) in self.slots.iter().enumerate() {
                let Some(conn) = slot else { continue };
                let mut events = 0i16;
                if conn.wants_read() {
                    events |= POLLIN;
                }
                if !conn.encoder.is_empty() {
                    events |= POLLOUT;
                }
                pollfds.push(PollFd::new(conn.stream.as_raw_fd(), events));
                targets.push(Target::Conn(idx));
                // Poll timeout = the nearest deadline among mid-frame
                // connections (and, during a drain, the nearest idle-grace
                // cutoff) — deadline bookkeeping lives here, in the
                // reactor, not in per-socket timeouts.  A frame that may
                // run now waits for nothing.
                if conn.can_run() {
                    timeout = Duration::ZERO;
                }
                if let Some(deadline) = conn.frame_deadline {
                    timeout = timeout.min(deadline.saturating_duration_since(now));
                }
                if let (true, Some(seen)) = (conn.is_idle(), self.shutdown_seen) {
                    let cutoff = conn.idle_since.max(seen) + SHUTDOWN_GRACE;
                    timeout = timeout.min(cutoff.saturating_duration_since(now));
                }
            }
            let _ = poll(&mut pollfds, Some(timeout));
            let now = Instant::now();
            for (fd, target) in pollfds.iter().zip(&targets) {
                match target {
                    Target::Waker => {
                        if fd.readable() {
                            self.drain_waker();
                        }
                    }
                    Target::Listener => {
                        if fd.readable() {
                            if let Some(listener) = self.listener.take() {
                                self.accept_ready(&listener, now);
                                self.listener = Some(listener);
                            }
                        }
                    }
                    Target::Conn(idx) => {
                        let runnable = self.slots[*idx].as_ref().is_some_and(Conn::can_run);
                        if fd.ready() || runnable {
                            self.service_conn(*idx, fd.readable(), &mut scratch, now);
                        }
                    }
                }
            }
        }
    }

    fn live_conns(&self) -> usize {
        self.slots.iter().filter(|slot| slot.is_some()).count()
    }

    fn drain_waker(&mut self) {
        let mut buf = [0u8; 64];
        loop {
            match (&self.waker_rx).read(&mut buf) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn accept_ready(&mut self, listener: &TcpListener, now: Instant) {
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let target = self.next_assign % self.peers.len();
                    self.next_assign = self.next_assign.wrapping_add(1);
                    if target == self.index {
                        self.register(stream, now);
                    } else {
                        self.peers[target].push_conn(stream);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // EMFILE, ENFILE, ENOBUFS…: the connection stays in the
                // backlog, so the listener would poll readable again at
                // once.  Back off instead of spinning a core on it.
                Err(_) => {
                    self.accept_paused_until = Some(now + POLL_INTERVAL);
                    break;
                }
            }
        }
    }

    fn register(&mut self, stream: TcpStream, now: Instant) {
        let _ = stream.set_nonblocking(true);
        let _ = stream.set_nodelay(true);
        self.shared.stats.connection_opened();
        let conn = Some(Conn::new(stream, now));
        match self.free.pop() {
            Some(idx) => self.slots[idx] = conn,
            None => self.slots.push(conn),
        }
    }

    fn close(&mut self, idx: usize) {
        if let Some(mut conn) = self.slots[idx].take() {
            // Reclaim the label buffers the peer will never read, and the
            // pixels of the frames it will never get answered, before the
            // close is counted, so a stats reader that sees the close also
            // sees them back in the arenas.
            for labels in conn.encoder.abandon() {
                self.shared.pipeline.arena().release(labels);
            }
            let unanswered = conn
                .queue
                .drain(..)
                .filter_map(|frame| frame.into_message().ok().and_then(Message::into_image));
            for image in unanswered {
                self.shared.pixel_arena.recycle(image);
            }
            if let Some(pixels) = conn.decoder.abandon() {
                self.shared.pixel_arena.put(pixels);
            }
            self.shared.stats.connection_closed();
            self.free.push(idx);
        }
    }

    fn drain_inbox(&mut self, now: Instant) {
        let conns =
            std::mem::take(&mut *self.handle.inbox.lock().unwrap_or_else(|e| e.into_inner()));
        for stream in conns {
            self.register(stream, now);
        }
    }

    /// Runs each connection's frame deadline only while the reactor would
    /// read the frame's rest — a fresh budget from the pass that resumes
    /// reading mid-frame — and closes connections that are finished,
    /// stalled past their frame deadline, or idle past the shutdown grace
    /// window.
    fn sweep(&mut self, now: Instant, shutting_down: bool) {
        for idx in 0..self.slots.len() {
            let Some(conn) = &mut self.slots[idx] else {
                continue;
            };
            conn.frame_deadline = if conn.wants_read() && conn.decoder.mid_frame() {
                conn.frame_deadline
                    .or(Some(now + self.shared.frame_deadline))
            } else {
                None
            };
            let stalled = conn.frame_deadline.is_some_and(|deadline| now >= deadline);
            let drained = shutting_down
                && conn.is_idle()
                && now >= conn.idle_since.max(self.shutdown_seen.unwrap_or(now)) + SHUTDOWN_GRACE;
            if conn.is_done() || stalled || drained {
                self.close(idx);
            }
        }
    }

    /// Reads what the socket has (when it polled readable), runs what the
    /// connection may run in this pass, and writes what it can.
    fn service_conn(&mut self, idx: usize, readable: bool, scratch: &mut [u8], now: Instant) {
        let Some(mut conn) = self.slots[idx].take() else {
            return;
        };
        let mut dead = readable && !self.read_conn(&mut conn, scratch, now);
        if !dead {
            self.pump(&mut conn);
            if !conn.encoder.is_empty() {
                dead = flush(&mut conn, &self.shared).is_err();
            }
        }
        self.slots[idx] = Some(conn);
        if dead {
            self.close(idx);
        }
    }

    /// Reads until the socket would block (or backpressure caps reading).
    /// Returns `false` when the connection died at the transport level.
    fn read_conn(&self, conn: &mut Conn, scratch: &mut [u8], now: Instant) -> bool {
        while conn.wants_read() {
            match (&conn.stream).read(scratch) {
                Ok(0) => {
                    conn.read_eof = true;
                    break;
                }
                Ok(n) => {
                    conn.idle_since = now;
                    self.ingest(conn, &scratch[..n]);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        true
    }

    /// Feeds one received chunk through the sans-io decoder and queues
    /// every complete frame it yields.
    fn ingest(&self, conn: &mut Conn, chunk: &[u8]) {
        let mut offset = 0;
        while offset < chunk.len() && !conn.closing {
            let (consumed, event) = conn
                .decoder
                .feed_with(&chunk[offset..], || self.shared.pixel_arena.take());
            offset += consumed;
            // Fold newly-started frames into the request counters the
            // moment a full header has arrived, valid or not.
            while conn.counted < conn.decoder.frames_started() {
                self.shared.stats.request();
                conn.requests += 1;
                conn.counted += 1;
            }
            match event {
                None if consumed == 0 => break, // poisoned decoder
                None => {}
                Some(Err(err)) => {
                    // Framing is lost: best-effort typed error reply (with
                    // the echoed id when the magic matched), then close.
                    self.shared.stats.protocol_error();
                    let id = conn.decoder.error_request_id();
                    let _ = conn.encoder.enqueue(
                        id,
                        &Message::Error {
                            message: err.to_string(),
                        },
                    );
                    conn.closing = true;
                }
                Some(Ok(frame)) => {
                    // The next frame's budget starts at the next sweep;
                    // progress within a frame never resets it.
                    conn.frame_deadline = None;
                    conn.queue.push_back(frame);
                }
            }
        }
    }

    /// Runs this connection's queued frames strictly in arrival order, each
    /// to completion, queueing its reply at once.  Light ops all run; a
    /// segment request runs only while the replies are not backed up, and
    /// at most one does per pass, so one pipelining peer holds its reactor
    /// for at most one frame between the other connections' turns.
    fn pump(&self, conn: &mut Conn) {
        while conn.can_run() {
            let frame = conn.queue.pop_front().expect("a runnable frame is queued");
            let request_id = frame.header.request_id;
            let message = match frame.into_message() {
                Ok(message) => message,
                Err(err) => {
                    self.shared.stats.protocol_error();
                    let _ = conn.encoder.enqueue(
                        request_id,
                        &Message::Error {
                            message: err.to_string(),
                        },
                    );
                    conn.closing = true;
                    continue;
                }
            };
            let started = Instant::now();
            let pipeline = &self.shared.pipeline;
            let (image, reply) = match message {
                Message::Segment { image } => {
                    let labels = Arc::new(pipeline.segment_request(&image));
                    (image, LabelReply::segment(labels))
                }
                Message::SegmentCached { image, bypass } => {
                    let lookup = if bypass {
                        None
                    } else {
                        pipeline.lookup_request(&image)
                    };
                    let reply = match lookup {
                        Some(CacheLookup::Hit(labels)) => LabelReply::cached(labels, true),
                        Some(CacheLookup::Miss(key)) => {
                            LabelReply::cached(pipeline.segment_miss(&image, key), false)
                        }
                        None => {
                            LabelReply::cached(Arc::new(pipeline.segment_request(&image)), false)
                        }
                    };
                    (image, reply)
                }
                Message::SegmentDelta { image } => {
                    let (labels, tiles_hit, tiles_recomputed) =
                        pipeline.segment_request_delta(&image);
                    (
                        image,
                        LabelReply::delta(Arc::new(labels), tiles_hit, tiles_recomputed),
                    )
                }
                Message::Ping => {
                    let _ = conn.encoder.enqueue(request_id, &Message::Pong);
                    continue;
                }
                Message::Stats => {
                    let text = self
                        .shared
                        .snapshot(&ConnStats {
                            requests: conn.requests,
                            pixels: conn.pixels,
                        })
                        .to_text();
                    let _ = conn
                        .encoder
                        .enqueue(request_id, &Message::StatsReply { text });
                    continue;
                }
                Message::Shutdown => {
                    let _ = conn.encoder.enqueue(request_id, &Message::ShutdownReply);
                    self.shared.signal_shutdown();
                    conn.closing = true;
                    continue;
                }
                // A reply op arriving as a request is a protocol violation; say
                // so precisely (the op *is* known, it is just not a request).
                other => {
                    self.shared.stats.protocol_error();
                    let _ = conn.encoder.enqueue(
                        request_id,
                        &Message::Error {
                            message: format!(
                                "{} is a reply op and cannot be sent as a request",
                                other.name()
                            ),
                        },
                    );
                    conn.closing = true;
                    continue;
                }
            };
            // Counted before the reply can reach the wire, so a client
            // holding its reply never reads a stale Stats snapshot.
            self.shared.stats.record_latency(started.elapsed());
            self.shared.stats.segmented(image.len());
            conn.pixels += image.len() as u64;
            self.shared.pixel_arena.recycle(image);
            queue_reply(conn, request_id, reply);
            conn.idle_since = Instant::now();
            break;
        }
    }
}

/// Boots the evented core: `max_inflight` reactor threads and one
/// coordinator thread (returned) that joins them — so `Server::join` keeps
/// its drain-then-stop contract unchanged.
pub(crate) fn spawn(listener: TcpListener, shared: Arc<Shared>) -> io::Result<JoinHandle<()>> {
    listener.set_nonblocking(true)?;
    let reactors = shared.max_inflight.max(1);
    let mut handles = Vec::with_capacity(reactors);
    let mut wake_receivers = Vec::with_capacity(reactors);
    for _ in 0..reactors {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        handles.push(Arc::new(ReactorHandle {
            inbox: Mutex::new(Vec::new()),
            waker: tx,
        }));
        wake_receivers.push(rx);
    }
    let handles = Arc::new(handles);
    let accepting_done = Arc::new(AtomicBool::new(false));
    let mut listener = Some(listener);
    let mut reactor_threads = Vec::with_capacity(reactors);
    for (index, waker_rx) in wake_receivers.into_iter().enumerate() {
        let reactor = Reactor {
            index,
            shared: Arc::clone(&shared),
            handle: Arc::clone(&handles[index]),
            peers: Arc::clone(&handles),
            waker_rx,
            listener: if index == 0 { listener.take() } else { None },
            accept_paused_until: None,
            accepting_done: Arc::clone(&accepting_done),
            slots: Vec::new(),
            free: Vec::new(),
            next_assign: 0,
            shutdown_seen: None,
        };
        reactor_threads.push(
            std::thread::Builder::new()
                .name(format!("iqft-serve-reactor-{index}"))
                .spawn(move || reactor.run())?,
        );
    }
    std::thread::Builder::new()
        .name("iqft-serve-evented".to_string())
        .spawn(move || {
            for handle in reactor_threads {
                let _ = handle.join();
            }
        })
}
