//! The TCP segmentation daemon.
//!
//! One serving core — the evented reactor set of the `evented` module —
//! runs one protocol against one warm [`SegmentPipeline`] and one
//! statistics block.  [`ServerConfig::max_inflight`] reactor threads own
//! *all* connections on nonblocking sockets behind a `poll(2)` readiness
//! loop.  Complete frames come out of the sans-io
//! [`crate::protocol::FrameDecoder`], and each runs to completion on the
//! reactor that decoded it, its reply queued at once on the connection's
//! write buffer; so the reactor count is also how many segment requests
//! run at once.  A saturated daemon sheds nothing: it stops reading, and
//! TCP slows its clients.  Per-connection cost is one buffered frame, not
//! one OS thread, which is what lets one daemon hold a thousand pipelined
//! connections with flat memory.  The core is built on `poll(2)`, so
//! serving is unix-only: elsewhere [`Server::bind`] fails with
//! [`io::ErrorKind::Unsupported`] (the [`crate::Client`] and the protocol
//! stay portable).
//!
//! Shutdown: a `Shutdown` frame (or [`Server::shutdown_now`]) flips a flag,
//! the server stops accepting, and every connection finishes the frames
//! already on the wire — a request whose bytes reached the server is always
//! answered — then closes once its socket goes idle.  [`Server::join`]
//! returns when the last connection has drained.  Each connection also runs
//! a per-frame read deadline ([`ServerConfig::frame_deadline`]): once a
//! frame has started, the rest of it must arrive within the budget, so a
//! client dripping bytes cannot pin a connection (or the drain) forever.

#[cfg(unix)]
use crate::evented::spawn as spawn_core;
use crate::stats::{ServerStats, StatsSnapshot};
use iqft_pipeline::{CacheConfig, PixelArena, SegmentPipeline};
use iqft_seg::IqftClassifier;
use seg_engine::SegmentPlan;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Once a frame's first byte has arrived, the *whole* rest of the frame must
/// arrive within this wall-clock budget.  The reactor arms it when a frame
/// starts and never resets it on progress, so a client dripping one byte at
/// a time cannot keep its connection (and thus the drain) open forever.
/// This is the default for [`ServerConfig::frame_deadline`].
pub(crate) const FRAME_READ_DEADLINE: Duration = Duration::from_secs(10);

/// The serving core a [`Server`] runs.  The evented reactor is the only
/// core, so this type selects nothing.  It and [`ServerConfig::with_mode`]
/// remain only because the loopback benchmark (`loopbench/`) names them;
/// both go with the next change to that benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeMode {
    /// Nonblocking readiness loop on `max_inflight` reactor threads, each
    /// running every frame it decodes to completion.
    Evented,
}

/// Tuning for a [`Server`].
///
/// Build one with [`ServerConfig::new`] and the chainable `with_*` setters —
/// struct-literal construction is discouraged so future knobs stop being
/// breaking changes:
///
/// ```no_run
/// use iqft_serve::{Server, ServerConfig};
/// use iqft_pipeline::CacheConfig;
///
/// let config = ServerConfig::new("classifier=table;tile=off;backend=serial".parse().unwrap())
///     .with_cache(CacheConfig::with_capacity_mb(64))
///     .with_max_inflight(4);
/// let server = Server::bind("127.0.0.1:0", config).unwrap();
/// # drop(server);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// The segmentation strategy (classifier × backend) the server
    /// materialises once and serves from.
    pub plan: SegmentPlan,
    /// Reactor threads, each running one segment request at a time, so
    /// also the most that run at once across all connections (0 = the
    /// plan's effective thread count, and at least 2).
    pub max_inflight: usize,
    /// Content-addressed result cache for `SegmentCached` requests
    /// (default: disabled).  The cache key is salted with the plan spec, so
    /// a server never serves entries recorded under a different strategy.
    pub cache: CacheConfig,
    /// Wall-clock budget for the rest of a frame once its first byte has
    /// arrived (default: `FRAME_READ_DEADLINE`).  Tests shrink this to
    /// exercise slow-loris handling without ten-second waits.
    pub frame_deadline: Duration,
}

impl ServerConfig {
    /// A config serving `plan` with every other knob at its default.
    pub fn new(plan: SegmentPlan) -> Self {
        ServerConfig {
            plan,
            ..ServerConfig::default()
        }
    }

    /// Sets the result cache for `SegmentCached`/`SegmentDelta` requests.
    pub fn with_cache(mut self, cache: CacheConfig) -> Self {
        self.cache = cache;
        self
    }

    /// Accepts the only serving core and changes nothing; kept for the
    /// loopback benchmark (see [`ServeMode`]).
    pub fn with_mode(self, _mode: ServeMode) -> Self {
        self
    }

    /// Sets the per-frame read deadline.
    pub fn with_frame_deadline(mut self, deadline: Duration) -> Self {
        self.frame_deadline = deadline;
        self
    }

    /// Sets the reactor count, which caps concurrently-executing segment
    /// requests (0 = the plan's effective thread count, and at least 2).
    pub fn with_max_inflight(mut self, max_inflight: usize) -> Self {
        self.max_inflight = max_inflight;
        self
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            plan: SegmentPlan::default(),
            max_inflight: 0,
            cache: CacheConfig::default(),
            frame_deadline: FRAME_READ_DEADLINE,
        }
    }
}

/// State shared by the reactor threads.
///
/// Every field that each request writes — the statistics block, the pixel
/// arena and the pipeline's label arena — sits on cache lines of its own,
/// apart from the fields every request only reads (`frame_deadline`,
/// `shutting_down`, the pipeline's cache and classifier).  Left to the
/// compiler, a written field can share a line with them, and every write
/// then bounces that line between the reactors' cores: where the compiler
/// placed the label arena once cost the loopback benchmark's cache-hit
/// throughput about a tenth.
#[derive(Debug)]
pub(crate) struct Shared {
    pub(crate) pipeline: SegmentPipeline<IqftClassifier>,
    plan: SegmentPlan,
    pub(crate) stats: ServerStats,
    /// The pixel buffers of decoded segment requests, recycled across
    /// requests and connections.
    pub(crate) pixel_arena: PixelArena,
    /// Reactor threads (`ServerConfig::max_inflight`, resolved).
    pub(crate) max_inflight: usize,
    shutting_down: AtomicBool,
    started: Instant,
    addr: SocketAddr,
    pub(crate) frame_deadline: Duration,
}

impl Shared {
    pub(crate) fn shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    pub(crate) fn snapshot(&self, conn: &ConnStats) -> StatsSnapshot {
        let uptime_secs = self.started.elapsed().as_secs_f64();
        let pixels_total = self.stats.pixels_total();
        let cache = self
            .pipeline
            .cache()
            .map(|cache| cache.stats())
            .unwrap_or_default();
        let mut snapshot = StatsSnapshot {
            plan: self.plan.to_spec(),
            uptime_secs,
            connections_total: self.stats.connections_total(),
            connections_open: self.stats.connections_open(),
            requests_total: self.stats.requests_total(),
            segment_requests: self.stats.segment_requests(),
            pixels_total,
            protocol_errors: self.stats.protocol_errors(),
            arena_allocations: self.pipeline.arena().allocations(),
            arena_reuses: self.pipeline.arena().reuses(),
            arena_pooled: self.pipeline.arena().pooled(),
            pixel_arena_allocations: self.pixel_arena.allocations(),
            pixel_arena_pooled: self.pixel_arena.pooled(),
            max_inflight: self.max_inflight,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            cache_entries: cache.entries,
            cache_bytes: cache.bytes,
            cache_capacity_bytes: cache.capacity_bytes,
            delta_tiles_hit: cache.tile_hits,
            delta_tiles_recomputed: cache.tile_recomputed,
            quant_fallback_pixels: 0,
            conn_requests: conn.requests,
            conn_pixels: conn.pixels,
            ..StatsSnapshot::default()
        };
        snapshot.set_latency(self.stats.latency_summary());
        snapshot
    }

    /// Flips the shutdown flag and pokes the listener with a throwaway
    /// loopback connection, so reactor 0 wakes from `poll(2)` and sees the
    /// flag at once rather than at its next timeout.
    pub(crate) fn signal_shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        // A wildcard bind (0.0.0.0 / ::) is not itself connectable; poke
        // the loopback of the same family instead.  A failed poke just
        // means the listener is already gone.
        let mut poke = self.addr;
        if poke.ip().is_unspecified() {
            poke.set_ip(match poke {
                SocketAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                SocketAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect_timeout(&poke, Duration::from_secs(1));
    }
}

/// Per-connection counters (folded into the Stats reply for that client).
#[derive(Debug, Default)]
pub(crate) struct ConnStats {
    pub(crate) requests: usize,
    pub(crate) pixels: u64,
}

/// A running segmentation service bound to a TCP address.
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    /// The thread that joins every reactor once they drain.
    core: Option<JoinHandle<()>>,
}

/// Serving needs `poll(2)`, which non-unix targets lack.
#[cfg(not(unix))]
fn spawn_core(_listener: TcpListener, _shared: Arc<Shared>) -> io::Result<JoinHandle<()>> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "iqft-serve's reactor needs poll(2); serving is unix-only",
    ))
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port), builds the
    /// warm pipeline for `config.plan`, and starts the reactor threads.  On non-unix targets this fails with
    /// [`io::ErrorKind::Unsupported`].
    pub fn bind<A: ToSocketAddrs>(addr: A, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let plan = config.plan;
        let pipeline = SegmentPipeline::new(plan.engine(), IqftClassifier::for_plan(&plan))
            .with_cache(config.cache, &plan.to_spec());
        let max_inflight = if config.max_inflight == 0 {
            plan.engine().threads().max(2)
        } else {
            config.max_inflight
        };
        let shared = Arc::new(Shared {
            pipeline,
            plan,
            stats: ServerStats::new(),
            pixel_arena: PixelArena::new(),
            max_inflight,
            shutting_down: AtomicBool::new(false),
            started: Instant::now(),
            addr,
            frame_deadline: config.frame_deadline,
        });
        let core = spawn_core(listener, Arc::clone(&shared))?;
        Ok(Server {
            shared,
            core: Some(core),
        })
    }

    /// The address the server actually bound (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The daemon's reactor threads, so also its cap on
    /// concurrently-executing segment requests.
    pub fn max_inflight(&self) -> usize {
        self.shared.max_inflight
    }

    /// Triggers the same drain-then-stop shutdown a `Shutdown` frame does.
    pub fn shutdown_now(&self) {
        self.shared.signal_shutdown();
    }

    /// Blocks until the server has fully drained and stopped: the last
    /// connection has closed and every reactor thread has exited.
    pub fn join(self) {
        let _ = self.join_with_counters();
    }

    /// Like [`Server::join`], but returns the final
    /// `(requests_total, pixels_total)` counters observed after the drain —
    /// what a supervising CLI prints as its exit summary.
    pub fn join_with_counters(mut self) -> (usize, u64) {
        if let Some(handle) = self.core.take() {
            let _ = handle.join();
        }
        (
            self.shared.stats.requests_total(),
            self.shared.stats.pixels_total(),
        )
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // A dropped server must not leak its reactor threads.
        if let Some(handle) = self.core.take() {
            self.shared.signal_shutdown();
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::protocol::{self, Message};
    use imaging::{Rgb, RgbImage};
    use seg_engine::{ClassifierKind, SegmentEngine};
    use std::io::Write;

    fn test_image(seed: u8) -> RgbImage {
        RgbImage::from_fn(31, 17, move |x, y| {
            Rgb::new(
                (x * 7 + seed as usize) as u8,
                (y * 11) as u8,
                ((x + y) * 5) as u8,
            )
        })
    }

    fn open_client(addr: SocketAddr) -> io::Result<Client> {
        Client::open(&crate::client::ClientConfig::new(addr.to_string()))
    }

    #[test]
    fn ephemeral_server_serves_ping_segment_stats_and_drains() {
        let plan: SegmentPlan = "classifier=table;backend=threads:2".parse().unwrap();
        let server =
            Server::bind("127.0.0.1:0", ServerConfig::new(plan).with_max_inflight(2)).unwrap();
        assert_eq!(server.max_inflight(), 2);
        assert_eq!(server.shared.plan, plan);
        assert!(!server.shared.shutting_down());

        let mut client = open_client(server.local_addr()).unwrap();
        client.ping().unwrap();
        let img = test_image(3);
        let (labels, _) = client.segment(&img).unwrap().unwrap_done();
        let expected = SegmentEngine::serial()
            .segment_rgb(&IqftClassifier::paper_default(ClassifierKind::Exact), &img);
        assert_eq!(labels, expected);

        let stats = client.stats().unwrap();
        assert_eq!(stats.segment_requests, 1);
        assert_eq!(stats.pixels_total, img.len() as u64);
        assert_eq!(stats.conn_requests, 3, "ping + segment + stats");
        assert_eq!(stats.max_inflight, 2);
        assert_eq!(stats.busy_rejections, 0);
        assert_eq!(stats.plan, plan.to_spec());
        assert_eq!(stats.lat_count, 1, "one segment = one latency sample");
        assert!(stats.lat_p50_us <= stats.lat_max_us);

        client.shutdown().unwrap();
        server.join();
    }

    #[test]
    fn cached_requests_hit_after_first_miss_and_stats_report_it() {
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig::new(SegmentPlan::default())
                .with_max_inflight(2)
                .with_cache(CacheConfig::with_capacity_mb(8)),
        )
        .unwrap();
        let mut client = open_client(server.local_addr()).unwrap();
        let img = test_image(5);
        let expected = SegmentEngine::serial()
            .segment_rgb(&IqftClassifier::paper_default(ClassifierKind::Exact), &img);
        let (first, hit) = client.segment_cached(&img, false).unwrap().unwrap_done();
        assert!(!hit, "cold cache misses");
        assert_eq!(first, expected);
        let (second, hit) = client.segment_cached(&img, false).unwrap().unwrap_done();
        assert!(hit, "warm cache hits");
        assert_eq!(second, expected, "hit is byte-identical to a fresh pass");
        // Bypass skips the cache but still answers identically.
        let (third, hit) = client.segment_cached(&img, true).unwrap().unwrap_done();
        assert!(!hit);
        assert_eq!(third, expected);
        let stats = client.stats().unwrap();
        assert_eq!(stats.cache_hits, 1, "{stats:?}");
        assert_eq!(stats.cache_misses, 1, "{stats:?}");
        assert_eq!(stats.cache_entries, 1);
        assert_eq!(stats.cache_capacity_bytes, 8 << 20);
        assert!(stats.cache_bytes > 0);
        client.shutdown().unwrap();
        server.join();
    }

    #[test]
    fn config_builder_chains_every_knob() {
        let plan = SegmentPlan::default().with_classifier(ClassifierKind::Simd);
        let config = ServerConfig::new(plan)
            .with_cache(CacheConfig::with_capacity_mb(4))
            .with_frame_deadline(Duration::from_secs(3))
            .with_max_inflight(5);
        assert_eq!(config.plan, plan);
        assert_eq!(config.cache, CacheConfig::with_capacity_mb(4));
        assert_eq!(config.frame_deadline, Duration::from_secs(3));
        assert_eq!(config.max_inflight, 5);
        assert_eq!(
            config.clone().with_mode(ServeMode::Evented),
            config,
            "one core: with_mode changes nothing"
        );
    }

    #[test]
    fn dropped_server_does_not_leak_its_acceptor() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = server.local_addr();
        drop(server); // Drop joins every serving thread; a hang here fails the test.
        assert!(
            open_client(addr).is_err() || {
                // The OS may briefly accept on the dead listener's backlog; a
                // subsequent request must still fail.
                let mut c = open_client(addr).unwrap();
                c.ping().is_err()
            }
        );
    }

    #[test]
    fn garbage_frames_get_an_error_reply_not_a_crash() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        stream.write_all(&[0u8; 16]).unwrap();
        let (id, reply) = protocol::read_message(&mut stream).unwrap();
        assert_eq!(id, 0, "header never parsed, so the error echoes id 0");
        assert!(
            matches!(reply, Message::Error { ref message } if message.contains("magic")),
            "{reply:?}"
        );
        // A well-formed frame carrying a reply op is diagnosed precisely.
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .write_all(&protocol::encode_message(5, &Message::Pong).unwrap())
            .unwrap();
        let (id, reply) = protocol::read_message(&mut stream).unwrap();
        assert_eq!(id, 5);
        assert!(
            matches!(reply, Message::Error { ref message } if message.contains("reply op")),
            "{reply:?}"
        );
        // The server survives and still serves fresh connections.
        let mut client = open_client(server.local_addr()).unwrap();
        client.ping().unwrap();
        let stats = client.stats().unwrap();
        assert_eq!(stats.protocol_errors, 2, "bad magic + reply-op request");
        server.shutdown_now();
        server.join();
    }
}
