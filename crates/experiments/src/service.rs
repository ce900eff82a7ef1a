//! The `serve` and `loadgen` subcommands: the network face of the harness.
//!
//! `serve` boots a long-lived [`iqft_serve::Server`] around one warm
//! [`seg_engine::SegmentPlan`] and blocks until a Shutdown frame drains it.
//! `loadgen` is the client side, with one driver for every traffic shape:
//! `--clients C` threads each open one [`Client`] over the
//! `--addr A[,B,…]` endpoints (one address is a fleet of one; client `c`
//! tries them in the listed order rotated by `c`) and send their share of
//! the run — a pipelined `SegmentCached` burst of synthetic images,
//! or with `--video` their own synthetic video as lockstep `SegmentDelta`
//! frames.  Every reply is cross-checked byte-for-byte against a local
//! pass of the exact segmenter (default on, like the `throughput`
//! subcommand), and one report prints per-client, per-endpoint and total
//! figures plus each endpoint's own statistics snapshot.  `--kill-one` boots
//! three daemons in-process and, between the run's two halves, hard-stops
//! the one the second half's first request is sent to.
//! With `--shutdown`, loadgen finishes by asking every endpoint to drain and
//! stop — which is exactly what the CI `service-smoke` job does.

use crate::throughput::{throughput_images, ThroughputConfig};
use imaging::{LabelMap, RgbImage, Segmenter};
use iqft_pipeline::CacheConfig;
use iqft_seg::IqftRgbSegmenter;
use iqft_serve::{
    protocol, Client, ClientConfig, SegmentOutcome, Server, ServerConfig, StatsSnapshot,
};
use seg_engine::{ClassifierKind, SegmentEngine, SegmentPlan};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The address `serve` binds and `ping`/`loadgen` dial when `--addr` is not
/// given.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7870";

/// Configuration of the `serve` subcommand (mirrors its CLI flags).
#[derive(Debug, Clone)]
pub struct ServeCliConfig {
    /// Listen address (`--addr`), e.g. `127.0.0.1:7870`.
    pub addr: String,
    /// Classifier flag (`--classifier`), one of
    /// [`seg_engine::ClassifierKind::FLAG_HELP`]; defaults to
    /// `ClassifierKind::default()`.
    pub classifier: String,
    /// Backend flag (`--backend serial|threads`).
    pub backend: String,
    /// Thread count for the threads backend (`--threads`).
    pub threads: usize,
    /// Reactor threads, each running the frames it reads to completion, so
    /// also the cap on concurrently-executing segment requests
    /// (`--workers`, 0 = the plan's effective thread count, at least 2).
    pub workers: usize,
    /// Byte budget of the content-addressed result cache in MiB
    /// (`--cache-mb`, 0 = caching disabled).
    pub cache_mb: usize,
    /// When set, the bound address is written to this file once the server
    /// is listening (`--addr-file`) — with `--addr 127.0.0.1:0` this is how
    /// a supervising script learns the ephemeral port.
    pub addr_file: Option<PathBuf>,
}

impl Default for ServeCliConfig {
    fn default() -> Self {
        Self {
            addr: DEFAULT_ADDR.to_string(),
            classifier: ClassifierKind::default().flag().to_string(),
            backend: "threads".to_string(),
            threads: 0,
            workers: 0,
            cache_mb: 0,
            addr_file: None,
        }
    }
}

/// Boots the daemon described by `config` and blocks until it has drained
/// and stopped (a client sent Shutdown).  Returns a one-line exit summary.
///
/// The boot line is printed to stdout *before* blocking so a supervising
/// script (the CI smoke job) can tell the server is up.
pub fn serve_command(config: &ServeCliConfig) -> Result<String, String> {
    let plan = SegmentPlan::new(
        ClassifierKind::from_flag(&config.classifier)?,
        SegmentEngine::from_flags(&config.backend, config.threads)?.backend(),
    );
    // A thousand-connection sweep needs more descriptors than the common
    // 1024 soft default; raise it best-effort before binding.
    #[cfg(unix)]
    iqft_serve::poll::raise_nofile_limit(8192);
    let server_config = ServerConfig::new(plan)
        .with_max_inflight(config.workers)
        .with_cache(CacheConfig::with_capacity_mb(config.cache_mb));
    let server = Server::bind(config.addr.as_str(), server_config)
        .map_err(|e| format!("failed to bind {}: {e}", config.addr))?;
    if let Some(path) = &config.addr_file {
        // Written only after the bind succeeded, so a supervising script can
        // treat the file's existence as "the port is known and listening".
        std::fs::write(path, server.local_addr().to_string())
            .map_err(|e| format!("failed to write {}: {e}", path.display()))?;
    }
    println!(
        "iqft-serve listening on {} (plan [{plan}]; max_inflight={}; cache={})",
        server.local_addr(),
        server.max_inflight(),
        if config.cache_mb > 0 {
            format!("{}MiB", config.cache_mb)
        } else {
            "off".to_string()
        },
    );
    let (total, pixels) = server.join_with_counters();
    Ok(format!(
        "iqft-serve drained and stopped after {total} requests ({:.3} Mpx segmented)",
        pixels as f64 / 1e6
    ))
}

/// The `ping` subcommand: probes a server with bounded retries — the
/// readiness check a supervising script (the CI smoke job) runs between
/// booting the daemon and launching traffic at it.
pub fn ping_command(addr: &str, retries: usize, interval_ms: u64) -> Result<String, String> {
    let attempts = retries.max(1);
    let mut last = String::from("never attempted");
    for attempt in 1..=attempts {
        match Client::open(&ClientConfig::new(addr)) {
            Ok(mut client) => match client.ping() {
                Ok(()) => {
                    return Ok(format!("pong from {addr} (attempt {attempt}/{attempts})"));
                }
                Err(e) => last = e.to_string(),
            },
            Err(e) => last = e.to_string(),
        }
        if attempt < attempts {
            std::thread::sleep(Duration::from_millis(interval_ms));
        }
    }
    Err(format!(
        "no pong from {addr} after {attempts} attempts: {last}"
    ))
}

/// Configuration of the `loadgen` subcommand (mirrors its CLI flags).
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Daemon endpoints (`--addr A[,B,…]`, comma-separated; empty dials
    /// [`DEFAULT_ADDR`]).  One address is a fleet of one; with several,
    /// client `c` sends to the list rotated by `c` and fails over to the
    /// next endpoint when one is down.  Must be empty with
    /// [`LoadgenConfig::kill_one`], which boots its own endpoints.
    pub addr: String,
    /// Concurrent clients (`--clients`), each with its own [`Client`].
    pub clients: usize,
    /// Total images to stream across all clients (`--images`).
    pub images: usize,
    /// Square-ish image edge length (`--size`).
    pub image_size: usize,
    /// Dataset seed (`--seed`).
    pub seed: u64,
    /// Cross-check every reply against a local pass of the exact segmenter
    /// (`--no-verify` turns this off; the default runs it).
    pub verify: bool,
    /// Ask every endpoint to drain and stop once traffic (and stats) are
    /// done (`--shutdown`).
    pub shutdown: bool,
    /// Fraction of requests that repeat an earlier image
    /// (`--repeat-ratio`, 0.0–1.0) — Zipf-ish, head-biased repeated
    /// traffic, the shape a warm result cache is built for.
    pub repeat_ratio: f64,
    /// Requests each client keeps in flight per connection (`--pipeline`,
    /// clamped to `1..=MAX_PIPELINE_DEPTH`).
    pub pipeline_depth: usize,
    /// Fail loudly unless at least one reply says it was served from a cache
    /// (`--expect-cache-hits`) — the CI cache leg's assertion.  In `--video`
    /// mode the assertion counts delta *tile* hits instead of whole-image
    /// hits.
    pub expect_cache_hits: bool,
    /// Stream synthetic video instead of independent images (`--video`):
    /// each client plays its own deterministic frame stream through the
    /// per-tile delta op (`SegmentDelta`), so consecutive frames share most
    /// of their tiles and the server's delta cache can prove itself.  A
    /// client's frames all go to its first live endpoint, so each camera
    /// stays on one daemon.
    pub video: bool,
    /// Fraction of each frame's blocks mutated per frame in `--video` mode
    /// (`--change-rate`, 0.0–1.0).
    pub change_rate: f64,
    /// Chaos mode (`--kill-one`): boot an in-process fleet of three cached
    /// daemons, hard-stop the first endpoint of the client that sends the
    /// second half's first request between the run's two halves, and
    /// require byte-identity plus at least one recorded failover — proving
    /// a dead daemon degrades to misses, never to errors.
    pub kill_one: bool,
    /// How long the preflight ping keeps retrying each endpoint
    /// (milliseconds), so loadgen can be launched concurrently with a booting
    /// server.  No CLI flag; tests shrink it.
    pub connect_deadline_ms: u64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            addr: String::new(),
            clients: 4,
            images: 32,
            image_size: 160,
            seed: 42,
            verify: true,
            shutdown: false,
            repeat_ratio: 0.0,
            pipeline_depth: 1,
            expect_cache_hits: false,
            video: false,
            change_rate: 0.1,
            kill_one: false,
            connect_deadline_ms: 15_000,
        }
    }
}

const CONNECT_RETRY: Duration = Duration::from_millis(250);

/// Per-dial connect timeout for loadgen's client connections: a
/// thousand-way fan-out can momentarily overflow the listener's accept
/// backlog, and a dropped SYN would otherwise sit in the OS default connect
/// timeout for minutes.
const CLIENT_CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// Connects with retries until `deadline_ms` elapses, then pings, so loadgen
/// can be launched concurrently with a still-booting server (as the CI smoke
/// job does).  The connection is kept for the run's closing stats request.
fn preflight(addr: &str, deadline_ms: u64) -> Result<Client, String> {
    let deadline = Instant::now() + Duration::from_millis(deadline_ms);
    let mut probe = loop {
        match Client::open(&ClientConfig::new(addr)) {
            Ok(client) => break client,
            Err(_) if Instant::now() < deadline => std::thread::sleep(CONNECT_RETRY),
            Err(e) => return Err(format!("could not connect to {addr}: {e}")),
        }
    };
    probe
        .ping()
        .map_err(|e| format!("ping {addr} failed: {e}"))?;
    Ok(probe)
}

/// What one client saw over the run (or, summed, what all of them saw).
#[derive(Debug, Default, Clone)]
struct ClientOutcome {
    requests: usize,
    pixels: u64,
    mismatches: usize,
    busy: usize,
    cache_hits: usize,
    failovers: usize,
    tiles_hit: u64,
    tiles_recomputed: u64,
    elapsed_secs: f64,
    /// What each endpoint did, indexed like the `--addr` list.
    endpoints: Vec<EndpointCounts>,
}

/// One endpoint's share of the replies.
#[derive(Debug, Default, Clone, Copy)]
struct EndpointCounts {
    /// Requests it answered.  A `Busy` reply names no endpoint, so it
    /// counts at its client's first one.
    requests: usize,
    /// Replies it served from its cache.
    hits: usize,
    /// Requests it could not serve, each then sent to the next endpoint.
    failovers: usize,
}

impl ClientOutcome {
    fn new(endpoints: usize) -> Self {
        ClientOutcome {
            endpoints: vec![EndpointCounts::default(); endpoints],
            ..ClientOutcome::default()
        }
    }

    fn add(&mut self, other: &ClientOutcome) {
        self.requests += other.requests;
        self.pixels += other.pixels;
        self.mismatches += other.mismatches;
        self.busy += other.busy;
        self.cache_hits += other.cache_hits;
        self.failovers += other.failovers;
        self.tiles_hit += other.tiles_hit;
        self.tiles_recomputed += other.tiles_recomputed;
        self.elapsed_secs += other.elapsed_secs;
        for (mine, theirs) in self.endpoints.iter_mut().zip(&other.endpoints) {
            mine.requests += theirs.requests;
            mine.hits += theirs.hits;
            mine.failovers += theirs.failovers;
        }
    }
}

/// Deterministic xorshift64* generator for the traffic shape (no external
/// RNG on this path; the dataset generator owns its own seeding).
struct TrafficRng(u64);

impl TrafficRng {
    fn new(seed: u64) -> Self {
        Self(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next_unit(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The request sequence for a loadgen run: request `i` either introduces
/// image `i` or — with probability `repeat_ratio` — repeats the image of an
/// earlier request, biased quadratically toward the head of the sequence
/// (Zipf-ish popularity: a few images soak up most of the repeats).
/// Deterministic in `seed`.
fn request_sequence(n: usize, repeat_ratio: f64, seed: u64) -> Vec<usize> {
    let mut rng = TrafficRng::new(seed);
    let mut seq: Vec<usize> = Vec::with_capacity(n);
    for i in 0..n {
        if i > 0 && rng.next_unit() < repeat_ratio {
            let u = rng.next_unit();
            let j = ((u * u) * i as f64) as usize;
            seq.push(seq[j.min(i - 1)]);
        } else {
            seq.push(i);
        }
    }
    seq
}

/// Drives the configured traffic and renders the report.
///
/// Every traffic shape runs through the same steps: `--clients` threads
/// each hold one [`Client`] over the endpoints, client `c` over the list
/// rotated by `c`, and send their share of the run (request `k` belongs to
/// client `k % clients`), in one half, or in two with `--kill-one`.
///
/// Errors (rather than reporting) on bad flags, when no endpoint answers
/// the preflight ping, on any protocol/server error, or — when verification
/// is on — on any reply that is not byte-identical to the local exact
/// reference, so a supervising script fails loudly.
pub fn loadgen_report(config: &LoadgenConfig) -> Result<String, String> {
    let mut addrs: Vec<String> = config
        .addr
        .split(',')
        .map(str::trim)
        .filter(|a| !a.is_empty())
        .map(str::to_string)
        .collect();
    if config.kill_one && !addrs.is_empty() {
        return Err(
            "--kill-one boots its own in-process fleet; it cannot be combined with --addr"
                .to_string(),
        );
    }
    if !config.kill_one && addrs.is_empty() {
        addrs.push(DEFAULT_ADDR.to_string());
    }
    let clients = config.clients.max(1);
    // Video frames go out one at a time, in order, like a camera's.
    let depth = if config.video {
        1
    } else {
        config.pipeline_depth.clamp(1, protocol::MAX_PIPELINE_DEPTH)
    };

    // Chaos mode boots its own three-daemon fleet, caches on, so the run is
    // self-contained and the kill is a real (hard) stop.
    let mut booted = Vec::new();
    for _ in 0..if config.kill_one { 3 } else { 0 } {
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig::new(SegmentPlan::default()).with_cache(CacheConfig::with_capacity_mb(64)),
        )
        .map_err(|e| format!("failed to boot chaos fleet daemon: {e}"))?;
        booted.push(server);
    }
    addrs.extend(booted.iter().map(|server| server.local_addr().to_string()));

    // A dead endpoint is not fatal — its requests fail over to the next
    // endpoint and get counted — but no live endpoint at all is.
    let mut probes: Vec<Result<Client, String>> = addrs
        .iter()
        .map(|addr| preflight(addr, config.connect_deadline_ms))
        .collect();
    let unreachable: Vec<&str> = probes
        .iter()
        .filter_map(|p| p.as_ref().err().map(String::as_str))
        .collect();
    if unreachable.len() == addrs.len() {
        return Err(unreachable.join("; "));
    }
    for e in unreachable {
        eprintln!("loadgen: {e}; its requests will fail over");
    }
    // Each client holds one socket and each endpoint one probe (the kernel
    // a few more again); a thousand-client run overruns the common 1024
    // soft descriptor limit.
    #[cfg(unix)]
    iqft_serve::poll::raise_nofile_limit(clients as u64 + addrs.len() as u64 + 512);

    // Inputs and references are built before the clock starts.  Request `k`
    // carries `inputs[sequence[k]]`.
    let width = config.image_size;
    let height = config.image_size * 3 / 4;
    let (inputs, sequence) = if config.video {
        // Each client is its own camera: a distinct seed gives it a distinct
        // (still deterministic) scene and motion.  Interleaving the clients'
        // frames makes client `c`'s share its own video, in order.
        let frames = config.images.div_ceil(clients).max(2);
        let inputs: Vec<RgbImage> = (0..clients)
            .flat_map(|client_idx| {
                datasets::synthetic_video(&datasets::VideoConfig {
                    frames,
                    width,
                    height,
                    change_rate: config.change_rate,
                    block: 0,
                    seed: config.seed
                        ^ ((client_idx as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                })
            })
            .collect();
        let sequence = (0..clients * frames)
            .map(|k| (k % clients) * frames + k / clients)
            .collect();
        (inputs, sequence)
    } else {
        let inputs = throughput_images(&ThroughputConfig {
            images: config.images,
            image_size: config.image_size,
            seed: config.seed,
            ..ThroughputConfig::default()
        });
        // With --repeat-ratio this is Zipf-ish repeated traffic, the shape
        // the server's result cache is built for; at 0.0 every request is a
        // distinct image.
        (
            inputs,
            request_sequence(config.images, config.repeat_ratio, config.seed),
        )
    };
    // Whatever plan each *server* runs, its replies — cache hits and misses
    // alike — must be byte-identical to this local pass by construction.
    // The exact segmenter's default engine spreads each image over the
    // cores.
    let reference: Vec<LabelMap> = if config.verify {
        let local = IqftRgbSegmenter::paper_default();
        inputs.iter().map(|img| local.segment_rgb(img)).collect()
    } else {
        Vec::new()
    };

    // Client `c` tries the endpoints rotated left by `c`, so the clients
    // spread over every daemon while each keeps to one while it lives: its
    // endpoint `j` is `addrs[endpoint_of(c, j)]`.
    let endpoint_of = |c: usize, j: usize| (j + c) % addrs.len();
    // Each client connects to its first live endpoint before the clock
    // starts.  Up to three attempts, so transient accept-backlog overflow
    // does not fail the run; failover redials inside the client stay single
    // attempts, so a dead endpoint is skipped promptly.
    let open_client = |c: usize| -> Result<Client, String> {
        let rotated = (0..addrs.len()).map(|j| addrs[endpoint_of(c, j)].clone());
        let client_config = ClientConfig::fleet(rotated)
            .with_connect_deadline(CLIENT_CONNECT_TIMEOUT)
            .with_pipeline_depth(depth);
        let mut attempt = 1;
        loop {
            match Client::open(&client_config) {
                Ok(client) => return Ok(client),
                Err(e) if attempt == 3 => {
                    return Err(format!(
                        "client {c}: no endpoint accepted a connection: {e}"
                    ))
                }
                Err(_) => {
                    attempt += 1;
                    std::thread::sleep(CONNECT_RETRY);
                }
            }
        }
    };
    let mut load_clients = (0..clients)
        .map(open_client)
        .collect::<Result<Vec<_>, _>>()?;
    // One client's share of one half: send, then — off the clock — check
    // each reply against its reference.
    let run_client =
        |client_idx: usize, client: &mut Client, mine: &[usize]| -> Result<ClientOutcome, String> {
            let started = Instant::now();
            let replies: Vec<(SegmentOutcome, u32, u32)> = if config.video {
                mine.iter()
                    .map(|&input| client.segment_delta(&inputs[input]))
                    .collect::<Result<_, _>>()
                    .map_err(|e| format!("client {client_idx}: delta segment failed: {e}"))?
            } else {
                let refs: Vec<&RgbImage> = mine.iter().map(|&input| &inputs[input]).collect();
                client
                    .segment_pipelined(&refs, true)
                    .map_err(|e| format!("client {client_idx}: pipelined segment failed: {e}"))?
                    .into_iter()
                    .map(|reply| (reply, 0, 0))
                    .collect()
            };
            let mut outcome = ClientOutcome {
                elapsed_secs: started.elapsed().as_secs_f64(),
                ..ClientOutcome::new(addrs.len())
            };
            for (&input, (reply, hit, recomputed)) in mine.iter().zip(&replies) {
                // A reply from the client's endpoint `tried` failed over from
                // each endpoint before it.
                let tried = reply.tried() as usize;
                let answered = &mut outcome.endpoints[endpoint_of(client_idx, tried)];
                answered.requests += 1;
                answered.hits += usize::from(reply.cached());
                for j in 0..tried {
                    outcome.endpoints[endpoint_of(client_idx, j)].failovers += 1;
                }
                outcome.failovers += usize::from(tried > 0);
                outcome.tiles_hit += u64::from(*hit);
                outcome.tiles_recomputed += u64::from(*recomputed);
                match reply.labels() {
                    Some(labels) => {
                        outcome.requests += 1;
                        outcome.pixels += labels.len() as u64;
                        outcome.cache_hits += usize::from(reply.cached());
                        if config.verify && labels != &reference[input] {
                            outcome.mismatches += 1;
                        }
                    }
                    // A daemon that sheds load refused this request; it was
                    // never executed, so there is nothing to verify.
                    None => outcome.busy += 1,
                }
            }
            Ok(outcome)
        };

    // Two halves give --kill-one a "mid-run" to kill at; without it the
    // second half is empty.
    let split = if config.kill_one {
        (sequence.len() / 2).max(1)
    } else {
        sequence.len()
    };
    let mut outcomes = vec![ClientOutcome::new(addrs.len()); clients];
    let mut wall_secs = 0.0;
    let mut victim: Option<usize> = None;
    for (half, range) in [0..split, split..sequence.len()].into_iter().enumerate() {
        if range.is_empty() {
            continue;
        }
        if half == 1 {
            // Hard-stop the first endpoint of the client that sends the
            // second half's first request, so at least that request fails
            // over.
            let killed = endpoint_of(split % clients, 0);
            let server = booted.remove(killed);
            server.shutdown_now();
            server.join();
            victim = Some(killed);
        }
        let started = Instant::now();
        let results: Vec<Result<ClientOutcome, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = load_clients
                .iter_mut()
                .enumerate()
                .map(|(client_idx, client)| {
                    let mine: Vec<usize> = range
                        .clone()
                        .filter(|k| k % clients == client_idx)
                        .map(|k| sequence[k])
                        .collect();
                    let run_client = &run_client;
                    scope.spawn(move || run_client(client_idx, client, &mine))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
                .collect()
        });
        wall_secs += started.elapsed().as_secs_f64();
        for (outcome, result) in outcomes.iter_mut().zip(results) {
            outcome.add(&result?);
        }
    }

    let mut out = String::new();
    let unique = sequence
        .iter()
        .collect::<std::collections::HashSet<_>>()
        .len();
    let _ = writeln!(
        out,
        "Loadgen: {} requests over {unique} unique {width}x{height} {} across {clients} \
         clients (pipeline depth {depth}) against {}{}",
        sequence.len(),
        if config.video {
            format!(
                "video frames (change rate {:.0}%)",
                config.change_rate * 100.0
            )
        } else {
            "images".to_string()
        },
        addrs.join(", "),
        if config.kill_one {
            "; chaos: kill one mid-run"
        } else {
            ""
        },
    );
    let mut total = ClientOutcome::new(addrs.len());
    for (idx, outcome) in outcomes.iter().enumerate() {
        let _ = writeln!(
            out,
            "  client {idx}: {:>4} requests  {:>3} busy  {:>4} cache hits  {:>3} failovers  \
             {:>8.3} Mpx  {:>8.2} ms  {:>7.2} Mpx/s",
            outcome.requests,
            outcome.busy,
            outcome.cache_hits,
            outcome.failovers,
            outcome.pixels as f64 / 1e6,
            outcome.elapsed_secs * 1e3,
            outcome.pixels as f64 / 1e6 / outcome.elapsed_secs.max(1e-9),
        );
        total.add(outcome);
    }
    for (idx, (addr, counts)) in addrs.iter().zip(&total.endpoints).enumerate() {
        let _ = writeln!(
            out,
            "  endpoint {idx} ({addr}): {:>4} requests  {:>4} hits  {:>3} failovers{}",
            counts.requests,
            counts.hits,
            counts.failovers,
            if victim == Some(idx) {
                "  [killed mid-run]"
            } else if probes[idx].is_err() {
                "  [unreachable]"
            } else {
                ""
            },
        );
    }
    let tiles = total.tiles_hit + total.tiles_recomputed;
    let _ = writeln!(
        out,
        "  total: {} requests ({} cache hits, {} busy-rejected, {} failed over){}, {:.3} Mpx \
         in {:.2} ms -> {:.2} Mpx/s over the wire",
        total.requests,
        total.cache_hits,
        total.busy,
        total.failovers,
        if tiles > 0 {
            format!(
                ", {} of {tiles} tiles from cache ({:.1}% tile hit ratio)",
                total.tiles_hit,
                total.tiles_hit as f64 * 100.0 / tiles as f64
            )
        } else {
            String::new()
        },
        total.pixels as f64 / 1e6,
        wall_secs * 1e3,
        total.pixels as f64 / 1e6 / wall_secs.max(1e-9),
    );
    if config.verify {
        if total.mismatches > 0 {
            return Err(format!(
                "verify: FAILED — {} of {} replies differ from the local exact reference",
                total.mismatches, total.requests
            ));
        }
        let _ = writeln!(
            out,
            "  verify: all {} {} byte-identical to the local exact reference",
            total.requests,
            if config.video {
                "stitched replies"
            } else {
                "replies (hits and misses alike)"
            },
        );
    }
    if config.kill_one {
        match victim {
            Some(victim) if total.failovers > 0 => {
                let _ = writeln!(
                    out,
                    "  chaos: killed endpoint {victim} mid-run; {} requests degraded to \
                     graceful failover misses, zero errors",
                    total.failovers,
                );
            }
            _ => {
                return Err(
                    "chaos: killed a daemon mid-run but recorded no failovers — the kill was \
                     not exercised"
                        .to_string(),
                )
            }
        }
    }

    let mut answered: Vec<StatsSnapshot> = Vec::new();
    let mut stats_error = String::new();
    for (idx, probe) in probes.iter_mut().enumerate() {
        let Ok(probe) = probe else { continue };
        match probe.stats() {
            Ok(stats) => {
                let _ = writeln!(out, "  endpoint {idx} ({}) server stats:", addrs[idx]);
                write_server_stats(&mut out, &stats);
                answered.push(stats);
            }
            Err(e) => stats_error = format!("stats request to {} failed: {e}", addrs[idx]),
        }
    }
    if answered.is_empty() {
        return Err(stats_error);
    }
    // Judged from the replies' own flags: whole-image hits, or reused delta
    // tiles for video.
    let (hits, what) = if config.video {
        (total.tiles_hit, "delta tile hits")
    } else {
        (total.cache_hits as u64, "cache hits")
    };
    if config.expect_cache_hits && hits == 0 {
        let enabled = answered.iter().any(|stats| stats.cache_capacity_bytes > 0);
        return Err(format!(
            "expected {what}, but no reply reports any (cache {} on the endpoints; {} replies)",
            if enabled { "enabled" } else { "DISABLED" },
            total.requests,
        ));
    }

    if config.shutdown {
        // One Shutdown per endpoint, through its preflight probe; an
        // endpoint that is down does not acknowledge.
        let acknowledged = probes
            .iter_mut()
            .filter_map(|probe| probe.as_mut().ok())
            .filter_map(|probe| probe.shutdown().ok())
            .count();
        let _ = writeln!(
            out,
            "  shutdown: acknowledged by {acknowledged} of {}",
            addrs.len()
        );
    }
    // Self-booted chaos daemons come down with the run: without --shutdown
    // no drain was sent, and joining a still-listening server would block
    // forever.  Closing this side's connections first lets the drain finish
    // without waiting out its idle grace.
    drop((load_clients, probes));
    for server in booted {
        server.shutdown_now();
        server.join();
    }
    Ok(out)
}

/// Renders one endpoint's own statistics snapshot, indented under its
/// `endpoint N (addr) server stats:` line.
fn write_server_stats(out: &mut String, stats: &StatsSnapshot) {
    let _ = writeln!(
        out,
        "    server: plan [{}], {} conns ({} open), {} requests ({} segment), {:.3} Mpx",
        stats.plan,
        stats.connections_total,
        stats.connections_open,
        stats.requests_total,
        stats.segment_requests,
        stats.pixels_total as f64 / 1e6,
    );
    let _ = writeln!(
        out,
        "    server arena: {} allocations, {} reuses ({} pooled); max_inflight {}; {} protocol \
         errors",
        stats.arena_allocations,
        stats.arena_reuses,
        stats.arena_pooled,
        stats.max_inflight,
        stats.protocol_errors,
    );
    if stats.lat_count > 0 {
        let _ = writeln!(
            out,
            "    server latency: p50 {} us, p90 {} us, p99 {} us, p999 {} us, max {} us \
             over {} ops",
            stats.lat_p50_us,
            stats.lat_p90_us,
            stats.lat_p99_us,
            stats.lat_p999_us,
            stats.lat_max_us,
            stats.lat_count,
        );
    }
    if stats.cache_capacity_bytes > 0 {
        let _ = writeln!(
            out,
            "    server cache: {} hits, {} misses, {} evictions; {} entries, \
             {:.1}/{:.0} MiB used",
            stats.cache_hits,
            stats.cache_misses,
            stats.cache_evictions,
            stats.cache_entries,
            stats.cache_bytes as f64 / (1 << 20) as f64,
            stats.cache_capacity_bytes as f64 / (1 << 20) as f64,
        );
    } else {
        let _ = writeln!(out, "    server cache: off");
    }
    let delta_total = stats.delta_tiles_hit + stats.delta_tiles_recomputed;
    if delta_total > 0 {
        let _ = writeln!(
            out,
            "    server delta: {} tiles hit, {} recomputed ({:.1}% tile hit ratio)",
            stats.delta_tiles_hit,
            stats.delta_tiles_recomputed,
            stats.delta_tiles_hit as f64 * 100.0 / delta_total as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seg_engine::ClassifierKind;

    fn boot(plan: SegmentPlan) -> Server {
        boot_with_cache(plan, 0)
    }

    fn boot_with_cache(plan: SegmentPlan, cache_mb: usize) -> Server {
        Server::bind(
            "127.0.0.1:0",
            ServerConfig::new(plan).with_cache(CacheConfig::with_capacity_mb(cache_mb)),
        )
        .expect("ephemeral bind")
    }

    fn small_loadgen(addr: String) -> LoadgenConfig {
        LoadgenConfig {
            addr,
            clients: 3,
            images: 9,
            image_size: 40,
            seed: 7,
            verify: true,
            shutdown: true,
            connect_deadline_ms: 2_000,
            ..LoadgenConfig::default()
        }
    }

    #[test]
    fn loadgen_drives_verifies_and_shuts_down_a_real_server() {
        let plan = SegmentPlan::default().with_classifier(ClassifierKind::Table);
        let server = boot(plan);
        let report = loadgen_report(&small_loadgen(server.local_addr().to_string())).unwrap();
        assert!(
            report.contains("verify: all 9 replies (hits and misses alike) byte-identical"),
            "{report}"
        );
        assert!(report.contains("client 0"), "{report}");
        assert!(report.contains("server cache: off"), "{report}");
        assert!(
            report.contains("shutdown: acknowledged by 1 of 1"),
            "{report}"
        );
        assert!(report.contains(&plan.to_spec()), "{report}");
        // The Shutdown frame drains the server; join must not hang.
        server.join();
    }

    #[test]
    fn repeated_traffic_against_a_cached_server_reports_hits() {
        let server = boot_with_cache(SegmentPlan::default(), 64);
        let mut config = small_loadgen(server.local_addr().to_string());
        config.images = 24;
        config.repeat_ratio = 0.8;
        config.pipeline_depth = 4;
        config.expect_cache_hits = true;
        let report = loadgen_report(&config).unwrap();
        assert!(report.contains("byte-identical"), "{report}");
        assert!(report.contains("server cache:"), "{report}");
        assert!(!report.contains("server cache: off"), "{report}");
        assert!(!report.contains(" 0 hits"), "{report}");
        server.join();
    }

    #[test]
    fn expect_cache_hits_fails_loudly_against_an_uncached_server() {
        let server = boot(SegmentPlan::default());
        let mut config = small_loadgen(server.local_addr().to_string());
        config.shutdown = false;
        config.repeat_ratio = 0.8;
        config.expect_cache_hits = true;
        let err = loadgen_report(&config).unwrap_err();
        assert!(err.contains("expected cache hits"), "{err}");
        assert!(err.contains("DISABLED"), "{err}");
        server.shutdown_now();
        server.join();
    }

    #[test]
    fn video_loadgen_hits_the_delta_cache_and_verifies_stitched_replies() {
        let server = boot_with_cache(SegmentPlan::default(), 64);
        let mut config = small_loadgen(server.local_addr().to_string());
        config.video = true;
        config.change_rate = 0.2;
        config.clients = 2;
        config.images = 6; // 3 frames per client
        config.image_size = 160; // 160x120 frames: 6 tiles of 64x64, 4 ragged
        config.expect_cache_hits = true;
        let report = loadgen_report(&config).unwrap();
        assert!(report.contains("6 unique 160x120 video frames"), "{report}");
        assert!(
            report.contains("stitched replies byte-identical"),
            "{report}"
        );
        assert!(report.contains("server delta:"), "{report}");
        assert!(report.contains("tile hit ratio"), "{report}");
        server.join();
    }

    #[test]
    fn video_loadgen_without_a_cache_fails_the_hit_expectation() {
        let server = boot(SegmentPlan::default());
        let mut config = small_loadgen(server.local_addr().to_string());
        config.video = true;
        config.shutdown = false;
        config.expect_cache_hits = true;
        let err = loadgen_report(&config).unwrap_err();
        assert!(err.contains("expected delta tile hits"), "{err}");
        server.shutdown_now();
        server.join();
    }

    #[test]
    fn an_overloaded_one_reactor_daemon_answers_every_request_and_sheds_none() {
        // CI's overload leg shape: 4 clients x 8 pipelined 160x120 frames
        // each against one reactor on the phase table.  Nothing is shed:
        // while the reactor classifies it stops reading, and every request
        // is answered and verifies.
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig::new(SegmentPlan::default().with_classifier(ClassifierKind::Table))
                .with_max_inflight(1),
        )
        .expect("ephemeral bind");
        let mut config = small_loadgen(server.local_addr().to_string());
        config.clients = 4;
        config.images = 32;
        config.image_size = 160;
        config.pipeline_depth = 8;
        let report = loadgen_report(&config).unwrap();
        assert!(
            report.contains("total: 32 requests (0 cache hits, 0 busy-rejected, 0 failed over)"),
            "{report}"
        );
        assert!(
            report.contains("verify: all 32 replies (hits and misses alike) byte-identical"),
            "{report}"
        );
        assert!(report.contains("max_inflight 1;"), "{report}");
        server.join();
    }

    #[test]
    fn request_sequences_are_deterministic_and_respect_the_ratio() {
        let seq = request_sequence(64, 0.0, 7);
        assert_eq!(seq, (0..64).collect::<Vec<_>>(), "no repeats at ratio 0");
        let seq = request_sequence(200, 0.8, 7);
        assert_eq!(seq, request_sequence(200, 0.8, 7), "deterministic in seed");
        assert_ne!(seq, request_sequence(200, 0.8, 8));
        let repeats = seq.iter().enumerate().filter(|&(i, &img)| img != i).count();
        // 80% nominal; leave generous slack for the small sample.
        assert!(
            (120..=190).contains(&repeats),
            "expected roughly 160 repeats, got {repeats}"
        );
        // Every repeated request replays an image introduced earlier.
        for (i, &img) in seq.iter().enumerate() {
            assert!(img <= i);
        }
    }

    #[test]
    fn ping_command_reports_liveness_and_bounded_failure() {
        let server = boot(SegmentPlan::default());
        let addr = server.local_addr().to_string();
        let ok = ping_command(&addr, 5, 10).unwrap();
        assert!(ok.contains("pong"), "{ok}");
        server.shutdown_now();
        server.join();
        let err = ping_command("127.0.0.1:1", 2, 1).unwrap_err();
        assert!(err.contains("after 2 attempts"), "{err}");
    }

    #[test]
    fn loadgen_fails_loudly_when_no_server_listens() {
        let mut config = small_loadgen("127.0.0.1:1".to_string());
        config.shutdown = false;
        config.connect_deadline_ms = 100;
        let err = loadgen_report(&config).unwrap_err();
        assert!(err.contains("could not connect"), "{err}");
    }

    #[test]
    fn serve_command_rejects_bad_flags() {
        let config = ServeCliConfig {
            classifier: "gpu".to_string(),
            ..ServeCliConfig::default()
        };
        assert!(serve_command(&config).is_err());
        let config = ServeCliConfig {
            addr: "256.256.256.256:99999".to_string(),
            ..ServeCliConfig::default()
        };
        assert!(serve_command(&config).unwrap_err().contains("bind"));
    }

    #[test]
    fn fleet_loadgen_routes_over_external_daemons_and_reports_per_endpoint() {
        let a = boot_with_cache(SegmentPlan::default(), 64);
        let b = boot_with_cache(SegmentPlan::default(), 64);
        let addrs = format!("{}, {}", a.local_addr(), b.local_addr());
        let mut config = small_loadgen(addrs.clone());
        config.images = 16;
        config.repeat_ratio = 0.6;
        config.pipeline_depth = 4;
        config.expect_cache_hits = true;
        let report = loadgen_report(&config).unwrap();
        assert!(report.contains(&format!("against {addrs}")), "{report}");
        assert!(report.contains("endpoint 0"), "{report}");
        assert!(report.contains("endpoint 1"), "{report}");
        assert!(
            report.contains("byte-identical to the local exact reference"),
            "{report}"
        );
        assert!(
            report.contains("shutdown: acknowledged by 2 of 2"),
            "{report}"
        );
        a.join();
        b.join();
    }

    #[test]
    fn every_client_runs_against_a_fleet_and_each_endpoint_reports_its_stats() {
        let a = boot_with_cache(SegmentPlan::default(), 64);
        let b = boot_with_cache(SegmentPlan::default(), 64);
        let config = small_loadgen(format!("{},{}", a.local_addr(), b.local_addr()));
        let report = loadgen_report(&config).unwrap();
        for client in 0..3 {
            assert!(report.contains(&format!("client {client}: ")), "{report}");
        }
        assert!(!report.contains("client 3: "), "{report}");
        // Every request is answered by exactly one endpoint.
        assert_eq!(
            endpoint_requests(&report).iter().sum::<u64>(),
            9,
            "{report}"
        );
        for server in [&a, &b] {
            let header = format!("({}) server stats:", server.local_addr());
            assert!(report.contains(&header), "{report}");
        }
        assert_eq!(report.matches("server: plan [").count(), 2, "{report}");
        a.join();
        b.join();
    }

    #[test]
    fn fleet_loadgen_degrades_when_an_endpoint_is_already_dead() {
        let live = boot_with_cache(SegmentPlan::default(), 64);
        // An address nothing listens on: bind an ephemeral port, then drop
        // the listener before the run.
        let dead = std::net::TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap()
            .to_string();
        let mut config = small_loadgen(format!("{},{dead}", live.local_addr()));
        config.connect_deadline_ms = 300;
        config.images = 12;
        let report = loadgen_report(&config).unwrap();
        assert!(report.contains("byte-identical"), "{report}");
        // Client 1 of 3 starts at the dead endpoint: its 4 requests fail
        // over from there to the live one, which answers all 12.
        assert_eq!(endpoint_requests(&report), vec![12, 0], "{report}");
        assert_eq!(
            endpoint_column(&report, "failovers"),
            vec![0, 4],
            "{report}"
        );
        assert!(report.contains(", 4 failed over)"), "{report}");
        assert!(
            report.contains("shutdown: acknowledged by 1 of 2"),
            "{report}"
        );
        live.join();
    }

    #[test]
    fn kill_one_chaos_run_degrades_to_failovers_and_still_verifies() {
        let mut config = small_loadgen(String::new());
        config.kill_one = true;
        config.images = 12;
        config.pipeline_depth = 4;
        let report = loadgen_report(&config).unwrap();
        assert!(report.contains("chaos: kill one mid-run"), "{report}");
        assert!(report.contains("[killed mid-run]"), "{report}");
        assert!(report.contains("chaos: killed endpoint"), "{report}");
        assert!(
            report.contains("byte-identical to the local exact reference"),
            "{report}"
        );
        // Exactly one of the three booted daemons was killed; the other two
        // acknowledge the shutdown.
        assert!(report.contains("acknowledged by 2 of 3"), "{report}");
    }

    #[test]
    fn kill_one_chaos_run_kills_the_endpoint_the_second_half_starts_at() {
        // Two requests split at request 1, which client 1 of 4 sends: its
        // rotated list starts at endpoint 1, so that is the one killed.
        let mut config = small_loadgen(String::new());
        config.kill_one = true;
        config.clients = 4;
        config.images = 2;
        config.pipeline_depth = 4;
        let report = loadgen_report(&config).unwrap();
        assert!(
            report.contains("chaos: killed endpoint 1 mid-run"),
            "{report}"
        );
        assert!(report.contains(" 1 failed over"), "{report}");
        // Client 1's list starts at the victim and goes on to endpoint 2.
        assert_eq!(
            endpoint_column(&report, "failovers"),
            vec![0, 1, 0],
            "{report}"
        );
        assert_eq!(endpoint_requests(&report), vec![1, 0, 1], "{report}");
        assert!(report.contains("acknowledged by 2 of 3"), "{report}");
    }

    #[test]
    fn kill_one_chaos_fleet_tears_down_without_explicit_shutdown() {
        // Regression: the self-booted chaos fleet must hard-stop its
        // surviving daemons when no --shutdown drain was requested —
        // otherwise the final join blocks forever.
        let mut config = small_loadgen(String::new());
        config.kill_one = true;
        config.shutdown = false;
        config.images = 12;
        config.pipeline_depth = 4;
        let report = loadgen_report(&config).unwrap();
        assert!(report.contains("chaos: killed endpoint"), "{report}");
        assert!(!report.contains("shutdown: acknowledged"), "{report}");
    }

    #[test]
    fn fleet_flags_reject_incompatible_combinations() {
        let mut config = small_loadgen("127.0.0.1:1".to_string());
        config.kill_one = true;
        let err = loadgen_report(&config).unwrap_err();
        assert!(err.contains("cannot be combined"), "{err}");
    }

    /// The `connections_total` of each endpoint's server stats block, in
    /// endpoint order.
    fn endpoint_connections(report: &str) -> Vec<u64> {
        report
            .lines()
            .filter_map(|line| line.strip_prefix("    server: plan ["))
            .map(|line| {
                let counts = line.split("], ").nth(1).unwrap();
                counts.split_whitespace().next().unwrap().parse().unwrap()
            })
            .collect()
    }

    /// The count before `column` (`requests`, `hits` or `failovers`) on
    /// each `endpoint N (addr): …` report line, in endpoint order.
    fn endpoint_column(report: &str, column: &str) -> Vec<u64> {
        report
            .lines()
            .filter(|line| line.starts_with("  endpoint ") && line.contains("): "))
            .map(|line| {
                let counts: Vec<&str> = line.split_whitespace().collect();
                let at = counts.iter().position(|&word| word == column).unwrap();
                counts[at - 1].parse().unwrap()
            })
            .collect()
    }

    fn endpoint_requests(report: &str) -> Vec<u64> {
        endpoint_column(report, "requests")
    }

    #[test]
    fn two_endpoint_loadgen_spreads_requests_over_both_endpoints() {
        let a = boot_with_cache(SegmentPlan::default(), 64);
        let b = boot_with_cache(SegmentPlan::default(), 64);
        let mut config = small_loadgen(format!("{},{}", a.local_addr(), b.local_addr()));
        config.pipeline_depth = 4;
        let report = loadgen_report(&config).unwrap();
        // Clients 0 and 2 start at the first endpoint, client 1 at the
        // second: 3 + 3 + 3 requests split 6 / 3.
        assert_eq!(endpoint_requests(&report), vec![6, 3], "{report}");
        // Each client dials only the endpoint it starts at; loadgen's probe
        // adds one connection per endpoint.
        assert_eq!(endpoint_connections(&report), vec![3, 2], "{report}");
        assert!(report.contains(" 0 failed over"), "{report}");
        assert!(report.contains("byte-identical"), "{report}");
        a.join();
        b.join();
    }

    #[test]
    fn two_endpoint_video_loadgen_keeps_each_camera_on_one_daemon_and_hits_tiles() {
        let a = boot_with_cache(SegmentPlan::default(), 64);
        let b = boot_with_cache(SegmentPlan::default(), 64);
        let mut config = small_loadgen(format!("{},{}", a.local_addr(), b.local_addr()));
        config.video = true;
        config.change_rate = 0.2;
        config.clients = 2;
        config.images = 6; // 3 frames per camera
        config.image_size = 160;
        config.expect_cache_hits = true;
        let report = loadgen_report(&config).unwrap();
        assert_eq!(endpoint_requests(&report), vec![3, 3], "{report}");
        assert!(
            report.contains("stitched replies byte-identical"),
            "{report}"
        );
        // Each daemon reuses tiles across its own camera's frames.
        assert_eq!(report.matches("server delta:").count(), 2, "{report}");
        assert!(report.contains("tile hit ratio"), "{report}");
        a.join();
        b.join();
    }
}
