//! The evented serving core: a hand-rolled nonblocking readiness loop.
//!
//! Layering (sans-io at the center, I/O at the edges):
//!
//! ```text
//!              accept            readable             complete frame
//!   listener ────────► reactor ──────────► FrameDecoder ─────────────┐
//!   (nonblocking,        │  ▲                (no I/O inside)         │
//!    owned by            │  │ wake                                   ▼
//!    reactor 0)          │  │                 light ops,       other segment
//!                        │  │                 whole-frame      ops, cache
//!                        │  │                 cache hits       misses (worker
//!                        │  │                 (inline)         pool, max_inflight
//!                        │  └── completions ◄─────┼─────────── threads)
//!                        ▼      (labels)          ▼
//!                   poll(2) over ◄──────────── FrameEncoder ──► LabelArena
//!                   all conn fds    writev     (per-conn queue:  (written
//!                                              frames + label    buffers)
//!                                              buffers)
//! ```
//!
//! A small fixed set of reactor threads ([`REACTOR_THREADS`]) owns *all*
//! connections; the acceptor is just the listener's readiness entry in
//! reactor 0's poll set, and new connections are dealt round-robin across
//! reactors.  Each connection costs one [`FrameDecoder`] + [`FrameEncoder`]
//! pair and a few counters — kilobytes, not an OS thread — which is what
//! lets one daemon hold a thousand-plus pipelined connections.
//!
//! Way in: the decoder copies a segment request's pixels straight from the
//! reactor's read buffer into the image the request will carry, in a warm
//! buffer from the daemon's pixel arena; the image goes back to the arena
//! after its job, its inline hit or its `Busy` refusal, and so does the
//! buffer of a frame a closing connection abandons.
//!
//! Work split: each connection's complete frames are processed strictly in
//! arrival order.  `Ping`/`Stats`/`Shutdown` and all protocol errors are
//! answered inline on the reactor (they are O(µs)).  So is a `SegmentCached`
//! request that hits: on a daemon with a cache, the reactor computes the
//! whole-frame key of every non-bypassed `SegmentCached` request and looks
//! it up, and a hit is queued on the spot from the cache entry's own label
//! buffer — one key and no label copy, with no worker, admission slot or
//! thread wake-up.  A miss goes to the worker pool carrying its key, so
//! nothing is hashed twice;
//! `Segment`, `SegmentDelta`, bypassed `SegmentCached` and `SegmentCached`
//! on a daemon without a cache go there as they arrive.  The pool is
//! `max_inflight` threads sharing the server's one warm pipeline, with at
//! most one job per connection at a time, so per-connection execution is
//! serial (a pipelined repeat sees the cache entry its predecessor stored,
//! and a hit is only looked up once nothing is in flight on its connection,
//! so it never overtakes an earlier miss), while connections execute
//! concurrently.  Workers hand replies back through a per-reactor
//! completion queue and wake the reactor via a socketpair; across
//! connections replies ship in *completion order*, which protocol v2
//! explicitly permits (clients match replies by echoed id).
//!
//! Replies: a worker never encodes a segment reply.  It records the reply's
//! stats and `lat_*` time and hands over the labels as they are — for a
//! miss, the very buffer the cache now stores; the reactor queues them
//! behind a head of at most 40 bytes and writes both with one `writev`.  An
//! inline cache hit takes the same path.  Once a buffer's last byte is
//! written the reply lets go of it, and so do the replies still queued when
//! a connection closes and a completion whose connection is already gone;
//! whichever of the replies and the cache entry lets go last returns the
//! buffer to the pipeline's arena.
//!
//! Backpressure: a connection stops being polled for readability while it
//! has [`MAX_PIPELINE_DEPTH`] frames queued or more than
//! [`WRITE_HIGH_WATER`] unsent reply bytes — the kernel socket buffer then
//! pushes back on the client, bounding per-connection memory no matter how
//! fast the peer writes.  The worker queue is in turn bounded by what the
//! reactors admit: at most one dispatched frame per connection, and with
//! `max_queue` set, a typed `Busy` reply for a frame that would wait behind
//! that many others.  Admission bounds only work bound for the pool: an
//! inline cache hit never takes a queue slot and is never answered `Busy`.
//!
//! Deadlines: the per-frame read deadline is reactor bookkeeping, not a
//! socket timeout — each mid-frame connection records when its frame must be
//! complete, the poll timeout is the nearest such deadline, and an expired
//! connection is closed without disturbing any other.  One stalled
//! (slow-loris) connection can never delay replies on a healthy one, because
//! nothing about the stalled fd blocks: it merely sits unready in the poll
//! set until its deadline fires.
//!
//! Accept errors: a failed `accept(2)` (e.g. `EMFILE` when the process is
//! out of descriptors) leaves the waiting connection in the backlog, so the
//! listener stays readable.  Reactor 0 therefore drops the listener from its
//! poll set for [`POLL_INTERVAL`] after such an error instead of spinning on
//! it, and retries once that back-off ends.

#![cfg(unix)]

use crate::poll::{poll, PollFd, POLLIN, POLLOUT};
use crate::protocol::{Frame, FrameDecoder, FrameEncoder, LabelReply, Message, MAX_PIPELINE_DEPTH};
use crate::server::{ConnStats, Shared};
use imaging::RgbImage;
use iqft_pipeline::{CacheKey, CacheLookup};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
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
/// Fixed number of reactor threads.  Readiness dispatch is cheap; two
/// threads keep accept latency low while one reactor is mid-sweep without
/// approaching a thread-per-connection footprint.
const REACTOR_THREADS: usize = 2;
/// A connection with more unsent reply bytes than this stops being read
/// until the peer drains some — bounding per-connection memory.
const WRITE_HIGH_WATER: usize = 8 << 20;
/// Read scratch size per reactor (shared across its connections).
const READ_CHUNK: usize = 64 << 10;

/// A segment request dispatched from a reactor to the worker pool.
struct Job {
    reactor: usize,
    conn: usize,
    gen: u64,
    request_id: u64,
    image: RgbImage,
    work: Work,
    pixels: Arc<AtomicU64>,
}

/// The pipeline call a [`Job`] makes on its image.
enum Work {
    Segment,
    /// A `SegmentCached` the reactor did not look up: bypassed, or served
    /// by a daemon without a cache.
    Cached {
        bypass: bool,
    },
    /// A `SegmentCached` the reactor keyed and looked up without a hit: the
    /// worker classifies and inserts under `key`.  `lookup` is the
    /// reactor's key-and-lookup time, so `lat_*` still covers the whole
    /// pipeline call.
    Miss {
        key: CacheKey,
        lookup: Duration,
    },
    Delta,
}

/// A segment reply travelling back from a worker to a reactor, its labels
/// not yet encoded.
struct Completion {
    conn: usize,
    gen: u64,
    request_id: u64,
    reply: LabelReply,
}

#[derive(Default)]
struct Inbox {
    conns: Vec<TcpStream>,
    completions: Vec<Completion>,
}

/// The cross-thread face of one reactor: an inbox plus a socketpair waker.
struct ReactorHandle {
    inbox: Mutex<Inbox>,
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
            .conns
            .push(stream);
        self.wake();
    }

    fn push_completion(&self, completion: Completion) {
        self.inbox
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .completions
            .push(completion);
        self.wake();
    }
}

/// One connection's entire server-side state.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    encoder: FrameEncoder,
    /// Pixels segmented for this connection (written by workers, and by
    /// the reactor for inline cache hits).
    pixels: Arc<AtomicU64>,
    /// Frames started on this connection (header fully received).
    requests: usize,
    /// `decoder.frames_started()` already folded into the counters above.
    counted: u64,
    /// Complete frames decoded but not yet processed.  Frames on one
    /// connection are handled strictly in arrival order with at most one
    /// dispatched to the worker pool at a time, so per-connection execution
    /// (and therefore cache-hit behaviour and reply order) is serial.
    queue: VecDeque<Frame>,
    /// Whether a dispatched job's completion is still outstanding.
    inflight: bool,
    read_eof: bool,
    /// No more reads; flush + finish pending work, then close.
    closing: bool,
    /// When the in-progress frame must be complete (reactor bookkeeping, not
    /// a socket timeout).
    frame_deadline: Option<Instant>,
    idle_since: Instant,
}

impl Conn {
    fn new(stream: TcpStream, now: Instant) -> Self {
        Conn {
            stream,
            decoder: FrameDecoder::new(),
            encoder: FrameEncoder::new(),
            pixels: Arc::new(AtomicU64::new(0)),
            requests: 0,
            counted: 0,
            queue: VecDeque::new(),
            inflight: false,
            read_eof: false,
            closing: false,
            frame_deadline: None,
            idle_since: now,
        }
    }

    /// Whether the reactor should keep polling this connection for reads.
    fn wants_read(&self) -> bool {
        !self.closing
            && !self.read_eof
            && !self.decoder.is_failed()
            && self.queue.len() < MAX_PIPELINE_DEPTH
            && self.encoder.pending_len() < WRITE_HIGH_WATER
    }

    /// Nothing in flight, nothing buffered, no partial frame.
    fn is_idle(&self) -> bool {
        self.queue.is_empty()
            && !self.inflight
            && self.encoder.is_empty()
            && !self.decoder.mid_frame()
            && !self.closing
    }

    /// Finished: the peer is done (or we are) and all owed replies shipped.
    /// A closing connection abandons its queue (framing was lost or the
    /// server is stopping); a peer that merely half-closed its write side
    /// still gets every queued frame answered first.
    fn is_done(&self) -> bool {
        if self.inflight || !self.encoder.is_empty() {
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

/// Queues a segment reply, whichever thread produced it.  Its dimensions
/// came from a decoded request, so it always fits a frame; should it not,
/// the peer gets a typed error instead.
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

struct Slot {
    gen: u64,
    conn: Option<Conn>,
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
    job_tx: Sender<Job>,
    slots: Vec<Slot>,
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
                if inbox.conns.is_empty() && inbox.completions.is_empty() {
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
                let Some(conn) = &slot.conn else { continue };
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
                // reactor, not in per-socket timeouts.
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
                        if fd.ready() {
                            self.service_conn(*idx, fd.readable(), &mut scratch, now);
                        }
                    }
                }
            }
        }
    }

    fn live_conns(&self) -> usize {
        self.slots.iter().filter(|slot| slot.conn.is_some()).count()
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
        let conn = Conn::new(stream, now);
        match self.free.pop() {
            Some(idx) => self.slots[idx].conn = Some(conn),
            None => self.slots.push(Slot {
                gen: 0,
                conn: Some(conn),
            }),
        }
    }

    fn close(&mut self, idx: usize) {
        if let Some(mut conn) = self.slots[idx].conn.take() {
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
            // Bump the generation so stale completions for this slot are
            // recognised, and only their labels kept, instead of landing on
            // a new tenant.
            self.slots[idx].gen += 1;
            self.free.push(idx);
        }
    }

    fn drain_inbox(&mut self, now: Instant) {
        let (conns, completions) = {
            let mut inbox = self.handle.inbox.lock().unwrap_or_else(|e| e.into_inner());
            (
                std::mem::take(&mut inbox.conns),
                std::mem::take(&mut inbox.completions),
            )
        };
        for stream in conns {
            self.register(stream, now);
        }
        for completion in completions {
            let Some(slot) = self.slots.get_mut(completion.conn) else {
                continue;
            };
            let live = slot.gen == completion.gen;
            let Some(mut conn) = slot.conn.take_if(|_| live) else {
                // Its connection is gone: only the labels are worth keeping.
                self.shared
                    .pipeline
                    .arena()
                    .release(completion.reply.into_labels());
                continue;
            };
            conn.inflight = false;
            queue_reply(&mut conn, completion.request_id, completion.reply);
            conn.idle_since = now;
            // The completed job unblocks this connection's frame queue.
            self.pump(&mut conn, completion.conn, completion.gen);
            let dead = flush(&mut conn, &self.shared).is_err();
            self.slots[completion.conn].conn = Some(conn);
            if dead {
                self.close(completion.conn);
            }
        }
    }

    /// Closes connections that are finished, stalled past their frame
    /// deadline, or idle past the shutdown grace window.
    fn sweep(&mut self, now: Instant, shutting_down: bool) {
        for idx in 0..self.slots.len() {
            let Some(conn) = &self.slots[idx].conn else {
                continue;
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

    fn service_conn(&mut self, idx: usize, readable: bool, scratch: &mut [u8], now: Instant) {
        let Some(mut conn) = self.slots[idx].conn.take() else {
            return;
        };
        let gen = self.slots[idx].gen;
        let mut dead = false;
        if readable {
            dead = !self.read_conn(&mut conn, idx, gen, scratch, now);
        }
        if !dead && !conn.encoder.is_empty() {
            dead = flush(&mut conn, &self.shared).is_err();
        }
        if dead {
            self.slots[idx].conn = Some(conn);
            self.close(idx);
        } else {
            self.slots[idx].conn = Some(conn);
        }
    }

    /// Reads until the socket would block (or backpressure caps reading).
    /// Returns `false` when the connection died at the transport level.
    fn read_conn(
        &mut self,
        conn: &mut Conn,
        idx: usize,
        gen: u64,
        scratch: &mut [u8],
        now: Instant,
    ) -> bool {
        while conn.wants_read() {
            match (&conn.stream).read(scratch) {
                Ok(0) => {
                    conn.read_eof = true;
                    break;
                }
                Ok(n) => {
                    conn.idle_since = now;
                    self.ingest(conn, idx, gen, &scratch[..n], now);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        true
    }

    /// Feeds one received chunk through the sans-io decoder and handles
    /// every complete frame it yields.
    fn ingest(&self, conn: &mut Conn, idx: usize, gen: u64, chunk: &[u8], now: Instant) {
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
                    conn.frame_deadline = None;
                    conn.queue.push_back(frame);
                }
            }
        }
        // Arm the per-frame deadline when a frame is in progress; keep an
        // already-armed deadline (progress must not reset the budget).
        if conn.decoder.mid_frame() {
            conn.frame_deadline
                .get_or_insert(now + self.shared.frame_deadline);
        } else {
            conn.frame_deadline = None;
        }
        self.pump(conn, idx, gen);
    }

    /// Processes this connection's queued frames strictly in arrival order.
    /// Light ops and whole-frame cache hits answer inline; any other segment
    /// op dispatches to the worker pool and blocks the queue until its
    /// completion returns, so per-connection execution is serial and
    /// replies leave in request order.
    fn pump(&self, conn: &mut Conn, idx: usize, gen: u64) {
        while !conn.closing && !conn.inflight {
            let Some(frame) = conn.queue.pop_front() else {
                break;
            };
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
            let (image, work) = match message {
                Message::Segment { image } => (image, Work::Segment),
                Message::SegmentDelta { image } => (image, Work::Delta),
                Message::SegmentCached { image, bypass } => {
                    // The whole-frame lookup runs here, on the reactor: a
                    // hit is answered without a worker, an admission slot or
                    // a thread wake-up, and a miss carries its key along.
                    let started = Instant::now();
                    let lookup = if bypass {
                        None
                    } else {
                        self.shared.pipeline.lookup_request(&image)
                    };
                    match lookup {
                        Some(CacheLookup::Hit(labels)) => {
                            record_reply(
                                &self.shared,
                                labels.len(),
                                started.elapsed(),
                                &conn.pixels,
                            );
                            self.shared.pixel_arena.recycle(image);
                            queue_reply(conn, request_id, LabelReply::cached(labels, true));
                            continue;
                        }
                        Some(CacheLookup::Miss(key)) => (
                            image,
                            Work::Miss {
                                key,
                                lookup: started.elapsed(),
                            },
                        ),
                        None => (image, Work::Cached { bypass }),
                    }
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
                            pixels: conn.pixels.load(Ordering::Relaxed),
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
            // Admission control: the worker pool drains the queue counter as
            // it picks jobs up, so the counter gauges *waiting* work.  Claim
            // a queue slot optimistically; if that overshoots the limit,
            // give it back and answer with the typed Busy reply instead of
            // queueing unboundedly (count before the reply can ship).
            let max_queue = self.shared.max_queue;
            let queued = self.shared.queued_jobs.fetch_add(1, Ordering::Relaxed);
            if max_queue != 0 && queued >= max_queue {
                self.shared.queued_jobs.fetch_sub(1, Ordering::Relaxed);
                self.shared.stats.busy_rejection();
                self.shared.pixel_arena.recycle(image);
                let _ = conn.encoder.enqueue(request_id, &Message::Busy);
                continue;
            }
            let job = Job {
                reactor: self.index,
                conn: idx,
                gen,
                request_id,
                image,
                work,
                pixels: Arc::clone(&conn.pixels),
            };
            conn.inflight = true;
            if let Err(unsent) = self.job_tx.send(job) {
                // Workers are gone (teardown race); nothing can answer.
                self.shared.queued_jobs.fetch_sub(1, Ordering::Relaxed);
                self.shared.pixel_arena.recycle(unsent.0.image);
                conn.inflight = false;
                conn.closing = true;
            }
        }
    }
}

/// Executes one dispatched segment request against the shared pipeline and
/// returns the reply, recorded but not encoded: the reactor writes its
/// labels straight from their buffer.
fn execute_job(shared: &Shared, image: &RgbImage, work: Work, pixels: &AtomicU64) -> LabelReply {
    let started = Instant::now();
    // The share of the pipeline call a reactor already ran (a miss's key
    // and lookup).
    let mut earlier = Duration::ZERO;
    let reply = match work {
        Work::Segment => LabelReply::segment(Arc::new(shared.pipeline.segment_request(image))),
        Work::Cached { bypass } => {
            let (labels, cached) = shared.pipeline.segment_request_cached(image, bypass);
            LabelReply::cached(Arc::new(labels), cached)
        }
        Work::Miss { key, lookup } => {
            earlier = lookup;
            LabelReply::cached(shared.pipeline.segment_miss(image, key), false)
        }
        Work::Delta => {
            let (labels, tiles_hit, tiles_recomputed) =
                shared.pipeline.segment_request_delta(image);
            LabelReply::delta(Arc::new(labels), tiles_hit, tiles_recomputed)
        }
    };
    record_reply(shared, image.len(), earlier + started.elapsed(), pixels);
    reply
}

/// Records one finished segment reply of `labelled` pixels: its pipeline
/// time in `lat_*`, the server's and the connection's pixel counters.
/// Reactors (inline cache hits) and workers both call this before handing
/// the reply on, so the counters move before the reply can reach the wire
/// and a client holding its reply never reads a stale Stats snapshot.
fn record_reply(shared: &Shared, labelled: usize, latency: Duration, pixels: &AtomicU64) {
    shared.stats.record_latency(latency);
    shared.stats.segmented(labelled);
    pixels.fetch_add(labelled as u64, Ordering::Relaxed);
}

fn worker_loop(
    shared: Arc<Shared>,
    job_rx: Arc<Mutex<Receiver<Job>>>,
    reactors: Arc<Vec<Arc<ReactorHandle>>>,
) {
    loop {
        // Holding the lock across `recv` serialises dispatch, not execution:
        // the holder sleeps until a job arrives, takes it, and releases.
        let job = {
            let rx = job_rx.lock().unwrap_or_else(|e| e.into_inner());
            match rx.recv() {
                Ok(job) => job,
                Err(_) => break, // all reactors gone: drain complete
            }
        };
        // The job left the queue and is now executing: release its admission
        // slot so the gauge tracks waiting work, not in-flight work.
        shared.queued_jobs.fetch_sub(1, Ordering::Relaxed);
        let reply = execute_job(&shared, &job.image, job.work, &job.pixels);
        shared.pixel_arena.recycle(job.image);
        reactors[job.reactor].push_completion(Completion {
            conn: job.conn,
            gen: job.gen,
            request_id: job.request_id,
            reply,
        });
    }
}

/// Boots the evented core: reactor threads, the worker pool, and one
/// coordinator thread (returned) that joins them all — so `Server::join`
/// keeps its drain-then-stop contract unchanged.
pub(crate) fn spawn(listener: TcpListener, shared: Arc<Shared>) -> io::Result<JoinHandle<()>> {
    listener.set_nonblocking(true)?;
    let mut handles = Vec::with_capacity(REACTOR_THREADS);
    let mut wake_receivers = Vec::with_capacity(REACTOR_THREADS);
    for _ in 0..REACTOR_THREADS {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        handles.push(Arc::new(ReactorHandle {
            inbox: Mutex::new(Inbox::default()),
            waker: tx,
        }));
        wake_receivers.push(rx);
    }
    let handles = Arc::new(handles);
    let accepting_done = Arc::new(AtomicBool::new(false));
    let (job_tx, job_rx) = std::sync::mpsc::channel::<Job>();
    let job_rx = Arc::new(Mutex::new(job_rx));
    let mut listener = Some(listener);
    let mut reactor_threads = Vec::with_capacity(REACTOR_THREADS);
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
            job_tx: job_tx.clone(),
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
    // Workers exit when every reactor's job sender is dropped.
    drop(job_tx);
    let worker_count = shared.max_inflight.max(1);
    let mut worker_threads = Vec::with_capacity(worker_count);
    for index in 0..worker_count {
        let shared = Arc::clone(&shared);
        let job_rx = Arc::clone(&job_rx);
        let reactors = Arc::clone(&handles);
        worker_threads.push(
            std::thread::Builder::new()
                .name(format!("iqft-serve-worker-{index}"))
                .spawn(move || worker_loop(shared, job_rx, reactors))?,
        );
    }
    std::thread::Builder::new()
        .name("iqft-serve-evented".to_string())
        .spawn(move || {
            for handle in reactor_threads {
                let _ = handle.join();
            }
            for handle in worker_threads {
                let _ = handle.join();
            }
        })
}
