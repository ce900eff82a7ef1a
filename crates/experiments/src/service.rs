//! The `serve` and `loadgen` subcommands: the network face of the harness.
//!
//! `serve` boots a long-lived [`iqft_serve::Server`] around one warm
//! [`seg_engine::SegmentPlan`] and blocks until a Shutdown frame drains it.
//! `loadgen` is the client side, with one driver for every traffic shape:
//! `--clients C` threads each open a [`FleetClient`] over the
//! `--addr A[,B,…]` endpoints (one address is a fleet of one) and send their
//! share of the run — a pipelined `SegmentCached` burst of synthetic images,
//! or with `--video` their own synthetic video as lockstep `SegmentDelta`
//! frames.  Every reply is cross-checked byte-for-byte against a local
//! serial [`SegmentEngine`] pass (default on, like the `throughput`
//! subcommand), and one report prints per-client, per-endpoint and total
//! figures plus each endpoint's own statistics snapshot.  `--kill-one` boots
//! three daemons in-process and hard-stops one between the run's two halves.
//! With `--shutdown`, loadgen finishes by asking every endpoint to drain and
//! stop — which is exactly what the CI `service-smoke` job does.

use crate::plans::resolve_plan;
use crate::throughput::{throughput_images, ThroughputConfig};
use imaging::{LabelMap, RgbImage, Segmenter};
use iqft_pipeline::CacheConfig;
use iqft_seg::IqftRgbSegmenter;
use iqft_serve::{
    protocol, Client, ClientConfig, EndpointStats, FleetClient, SegmentOutcome, Server,
    ServerConfig, StatsSnapshot,
};
use seg_engine::{ClassifierKind, SegmentEngine, SegmentPlan, Tiling};
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
    /// Whole-plan flag (`--plan`): a `classifier=…;tile=…;backend=…` spec,
    /// `auto` to probe the host at boot (`crate::plans`), or empty to
    /// compose the plan from the per-axis flags below.
    pub plan: String,
    /// Classifier flag (`--classifier`), one of
    /// [`seg_engine::ClassifierKind::FLAG_HELP`].
    pub classifier: String,
    /// Tiling flag (`--tile off|WxH`).
    pub tile: String,
    /// Backend flag (`--backend serial|threads`).
    pub backend: String,
    /// Thread count for the threads backend (`--threads`).
    pub threads: usize,
    /// Cap on concurrently-executing segment requests (`--workers`,
    /// 0 = the plan's effective thread count).
    pub workers: usize,
    /// Admission-control queue bound (`--max-queue`, 0 = unbounded): once
    /// every worker is busy and this many segment requests are already
    /// waiting, further ones get an immediate typed Busy reply.
    pub max_queue: usize,
    /// Byte budget of the content-addressed result cache in MiB
    /// (`--cache-mb`, 0 = caching disabled).
    pub cache_mb: usize,
    /// When set, the bound address is written to this file once the server
    /// is listening (`--addr-file`) — with `--addr 127.0.0.1:0` this is how
    /// a supervising script learns the ephemeral port.
    pub addr_file: Option<PathBuf>,
    /// Result-cache persistence path (`--cache-persist`): warm-load a
    /// snapshot from here on boot (salt mismatch ⟹ clean cold start) and
    /// write the resident entries back on a drain-then-stop shutdown.
    pub cache_persist: Option<PathBuf>,
}

impl Default for ServeCliConfig {
    fn default() -> Self {
        Self {
            addr: DEFAULT_ADDR.to_string(),
            plan: String::new(),
            classifier: "table".to_string(),
            tile: "off".to_string(),
            backend: "threads".to_string(),
            threads: 0,
            workers: 0,
            max_queue: 0,
            cache_mb: 0,
            addr_file: None,
            cache_persist: None,
        }
    }
}

/// Boots the daemon described by `config` and blocks until it has drained
/// and stopped (a client sent Shutdown).  Returns a one-line exit summary.
///
/// The boot line is printed to stdout *before* blocking so a supervising
/// script (the CI smoke job) can tell the server is up.
pub fn serve_command(config: &ServeCliConfig) -> Result<String, String> {
    let resolved = resolve_plan(&config.plan, || {
        let engine = SegmentEngine::from_flags(&config.backend, config.threads)?;
        Ok(SegmentPlan::new(
            ClassifierKind::from_flag(&config.classifier)?,
            Tiling::from_flag(&config.tile)?,
            engine.backend(),
        ))
    })?;
    let plan = resolved.plan;
    if let Some(report) = &resolved.calibration {
        println!("iqft-serve calibrated [{plan}]: {}", report.summary());
    }
    // A thousand-connection sweep needs more descriptors than the common
    // 1024 soft default; raise it best-effort before binding.
    #[cfg(unix)]
    iqft_serve::poll::raise_nofile_limit(8192);
    let mut server_config = ServerConfig::new(plan)
        .with_max_inflight(config.workers)
        .with_max_queue(config.max_queue)
        .with_cache(CacheConfig::with_capacity_mb(config.cache_mb))
        .with_calibration(resolved.calibration_summary());
    if let Some(path) = &config.cache_persist {
        server_config = server_config.with_cache_persist(path);
    }
    let server = Server::bind(config.addr.as_str(), server_config)
        .map_err(|e| format!("failed to bind {}: {e}", config.addr))?;
    if let Some(path) = &config.addr_file {
        // Written only after the bind succeeded, so a supervising script can
        // treat the file's existence as "the port is known and listening".
        std::fs::write(path, server.local_addr().to_string())
            .map_err(|e| format!("failed to write {}: {e}", path.display()))?;
    }
    println!(
        "iqft-serve listening on {} (plan [{plan}]; max_inflight={}; max_queue={}; cache={})",
        server.local_addr(),
        server.max_inflight(),
        if config.max_queue > 0 {
            config.max_queue.to_string()
        } else {
            "unbounded".to_string()
        },
        if config.cache_mb > 0 {
            format!("{}MiB", config.cache_mb)
        } else {
            "off".to_string()
        },
    );
    if config.cache_persist.is_some() {
        let (entries, bytes) = server.cache_warm_loaded();
        println!(
            "iqft-serve cache persistence on: warm-loaded {entries} entries ({:.1} MiB)",
            bytes as f64 / (1 << 20) as f64
        );
    }
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
    /// requests are routed by content hash over the consistent-hash ring and
    /// fail over when an endpoint is down.  Must be empty with
    /// [`LoadgenConfig::kill_one`], which boots its own endpoints.
    pub addr: String,
    /// Plan for the *local* verification reference (`--plan`): empty keeps
    /// the exact serial pass, `auto` calibrates the reference backend, and
    /// an explicit spec pins it.  Byte-identity makes every choice produce
    /// the same labels; the knob only changes how fast the reference side
    /// keeps up with a big run.
    pub plan: String,
    /// Concurrent clients (`--clients`), each with its own [`FleetClient`].
    pub clients: usize,
    /// Total images to stream across all clients (`--images`).
    pub images: usize,
    /// Square-ish image edge length (`--size`).
    pub image_size: usize,
    /// Dataset seed (`--seed`).
    pub seed: u64,
    /// Cross-check every reply against a local serial pass (`--no-verify`
    /// turns this off; the default runs it).
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
    /// of their tiles and the server's delta cache can prove itself.  Needs
    /// a single endpoint: ring routing by whole-frame hash would scatter one
    /// camera's frames over the fleet.
    pub video: bool,
    /// Fraction of each frame's blocks mutated per frame in `--video` mode
    /// (`--change-rate`, 0.0–1.0).
    pub change_rate: f64,
    /// Chaos mode (`--kill-one`): boot an in-process fleet of three cached
    /// daemons, hard-stop the owner of the next key between the run's two
    /// halves, and require byte-identity plus at least one recorded failover
    /// — proving a dead daemon degrades to misses, never to errors.
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
            plan: String::new(),
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
}

impl ClientOutcome {
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
/// each hold a [`FleetClient`] over the endpoints and send their share of
/// the run (request `k` belongs to client `k % clients`), in one half, or
/// in two with `--kill-one`.
///
/// Errors (rather than reporting) on bad flags, when no endpoint answers
/// the preflight ping, on any protocol/server error, or — when verification
/// is on — on any reply that is not byte-identical to the local serial
/// reference, so a supervising script fails loudly.
pub fn loadgen_report(config: &LoadgenConfig) -> Result<String, String> {
    let mut addrs: Vec<String> = config
        .addr
        .split(',')
        .map(str::trim)
        .filter(|a| !a.is_empty())
        .map(str::to_string)
        .collect();
    if config.video && (config.kill_one || addrs.len() > 1) {
        return Err(
            "--video and a multi-daemon fleet (--addr A,B,… or --kill-one) are mutually \
             exclusive: routing by whole-frame hash would scatter one camera's frames"
                .to_string(),
        );
    }
    if config.kill_one && !addrs.is_empty() {
        return Err(
            "--kill-one boots its own in-process fleet; it cannot be combined with --addr"
                .to_string(),
        );
    }
    if !config.kill_one && addrs.is_empty() {
        addrs.push(DEFAULT_ADDR.to_string());
    }
    // An empty --plan keeps the exact serial reference.
    let resolved = match config.plan.trim() {
        "" => None,
        plan => Some(resolve_plan(plan, || Ok(SegmentPlan::default()))?),
    };
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

    // A dead endpoint is not fatal — its keys fail over to the next ring
    // owner and get counted — but no live endpoint at all is.
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
        eprintln!("loadgen: {e}; its keys will fail over");
    }
    let live: Vec<usize> = (0..addrs.len()).filter(|&i| probes[i].is_ok()).collect();
    // Each client holds a socket per endpoint (and the kernel a few more); a
    // thousand-client run overruns the common 1024 soft descriptor limit.
    #[cfg(unix)]
    iqft_serve::poll::raise_nofile_limit(
        (clients as u64).saturating_mul(addrs.len() as u64 + 1) + 512,
    );

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
    // `--plan` only picks the backend the reference runs on.
    let reference: Vec<LabelMap> = if config.verify {
        let engine = resolved
            .as_ref()
            .map(|r| r.plan.engine())
            .unwrap_or_else(SegmentEngine::serial);
        let local = IqftRgbSegmenter::paper_default().with_engine(engine);
        inputs.iter().map(|img| local.segment_rgb(img)).collect()
    } else {
        Vec::new()
    };

    let client_config = ClientConfig::fleet(addrs.iter().cloned())
        .with_connect_deadline(CLIENT_CONNECT_TIMEOUT)
        .with_pipeline_depth(depth);
    let mut fleets = (0..clients)
        .map(|_| FleetClient::open(&client_config))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| e.to_string())?;
    // One client's share of one half: dial the `dial` endpoints, send, then
    // — off the clock — check each reply against its reference.
    let run_client = |client_idx: usize,
                      fleet: &mut FleetClient,
                      mine: &[usize],
                      dial: &[usize]|
     -> Result<ClientOutcome, String> {
        // Up to three attempts per connection, so transient accept-backlog
        // overflow does not fail the run; failover redials inside the
        // FleetClient stay single attempts, so a dead endpoint is skipped
        // promptly.
        for &endpoint in dial {
            let mut attempt = 1;
            while let Err(e) = fleet.connect(endpoint) {
                if attempt == 3 {
                    let addr = &fleet.addrs()[endpoint];
                    return Err(format!(
                        "client {client_idx}: connect to {addr} failed: {e}"
                    ));
                }
                attempt += 1;
                std::thread::sleep(CONNECT_RETRY);
            }
        }
        let started = Instant::now();
        let replies: Vec<(SegmentOutcome, u32, u32)> = if config.video {
            mine.iter()
                .map(|&input| fleet.segment_delta(&inputs[input]))
                .collect::<Result<_, _>>()
                .map_err(|e| format!("client {client_idx}: delta segment failed: {e}"))?
        } else {
            let refs: Vec<&RgbImage> = mine.iter().map(|&input| &inputs[input]).collect();
            fleet
                .segment_pipelined(&refs, true)
                .map_err(|e| format!("client {client_idx}: pipelined segment failed: {e}"))?
                .into_iter()
                .map(|reply| (reply, 0, 0))
                .collect()
        };
        let mut outcome = ClientOutcome {
            elapsed_secs: started.elapsed().as_secs_f64(),
            ..ClientOutcome::default()
        };
        for (&input, (reply, hit, recomputed)) in mine.iter().zip(&replies) {
            outcome.failovers += usize::from(reply.tried() > 0);
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
                // The server shed this request under overload; it was never
                // executed, so there is nothing to verify.
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
    let mut outcomes = vec![ClientOutcome::default(); clients];
    let mut wall_secs = 0.0;
    let mut victim: Option<usize> = None;
    for (half, range) in [0..split, split..sequence.len()].into_iter().enumerate() {
        if range.is_empty() {
            continue;
        }
        if half == 1 {
            // Hard-stop the daemon that owns the next key, so the second
            // half is guaranteed to exercise failover.
            let owner = fleets[0]
                .ring()
                .owner(iqft_pipeline::route_hash(&inputs[sequence[range.start]]));
            let server = booted.remove(owner);
            server.shutdown_now();
            server.join();
            victim = Some(owner);
        }
        // Connections open once, in the first half, to the endpoints that
        // answered the preflight.
        let dial: &[usize] = if half == 0 { &live } else { &[] };
        let started = Instant::now();
        let results: Vec<Result<ClientOutcome, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = fleets
                .iter_mut()
                .enumerate()
                .map(|(client_idx, fleet)| {
                    let mine: Vec<usize> = range
                        .clone()
                        .filter(|k| k % clients == client_idx)
                        .map(|k| sequence[k])
                        .collect();
                    let run_client = &run_client;
                    scope.spawn(move || run_client(client_idx, fleet, &mine, dial))
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
    if let Some(resolved) = &resolved {
        let _ = writeln!(out, "  local reference plan: [{}]", resolved.plan);
        if let Some(report) = &resolved.calibration {
            let _ = writeln!(out, "  local calibration: {}", report.summary());
        }
    }
    let mut total = ClientOutcome::default();
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
    let mut endpoints = vec![EndpointStats::default(); addrs.len()];
    for fleet in &fleets {
        for (sum, stats) in endpoints.iter_mut().zip(fleet.stats()) {
            sum.requests += stats.requests;
            sum.hits += stats.hits;
            sum.busy += stats.busy;
            sum.errors += stats.errors;
            sum.failovers += stats.failovers;
        }
    }
    for (idx, (addr, stats)) in addrs.iter().zip(&endpoints).enumerate() {
        let _ = writeln!(
            out,
            "  endpoint {idx} ({addr}): {:>4} requests  {:>4} hits  {:>3} busy  \
             {:>3} errors  {:>3} failovers{}",
            stats.requests,
            stats.hits,
            stats.busy,
            stats.errors,
            stats.failovers,
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
                "verify: FAILED — {} of {} replies differ from the local serial reference",
                total.mismatches, total.requests
            ));
        }
        let _ = writeln!(
            out,
            "  verify: all {} {} byte-identical to the local serial reference",
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
        let acknowledged = fleets[0].shutdown_all();
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
    drop((fleets, probes));
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
    let _ = writeln!(
        out,
        "    server admission: max_queue {}, {} busy rejections",
        if stats.max_queue > 0 {
            stats.max_queue.to_string()
        } else {
            "unbounded".to_string()
        },
        stats.busy_rejections,
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
    if !stats.calibration.is_empty() {
        let _ = writeln!(out, "    server calibration: {}", stats.calibration);
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
    // Forward-compatible keys travel in `extra`; read them through the
    // typed accessor instead of re-parsing the snapshot text.
    if let Some(entries) = stats.extra_u64("cache_warm_loaded_entries") {
        let _ = writeln!(
            out,
            "    server cache persistence: warm-loaded {} entries ({:.1} MiB){}",
            entries,
            stats.extra_u64("cache_warm_loaded_bytes").unwrap_or(0) as f64 / (1 << 20) as f64,
            match stats.extra.get("cache_warm_error") {
                Some(why) => format!("; last load error: {why}"),
                None => String::new(),
            },
        );
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
    use seg_engine::{ClassifierKind, Tiling};

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
        let plan = SegmentPlan::default()
            .with_classifier(ClassifierKind::Table)
            .with_tiling(Tiling::Tiles {
                width: 16,
                height: 16,
            });
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
        let plan = SegmentPlan::default().with_tiling(Tiling::Tiles {
            width: 48,
            height: 48,
        });
        let server = boot_with_cache(plan, 64);
        let mut config = small_loadgen(server.local_addr().to_string());
        config.video = true;
        config.change_rate = 0.2;
        config.clients = 2;
        config.images = 6; // 3 frames per client
        config.image_size = 160; // 160x120 frames: 12 tiles of 48x48
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
    fn overloaded_server_sheds_with_busy_and_the_rest_verifies() {
        // One worker, a one-deep queue.  The server runs one request per
        // connection at a time, so overflowing admission takes more busy
        // connections than the worker plus the queue slot: CI's overload
        // leg shape (4 clients x 8 pipelined 160x120 frames each) must be
        // shed at least once.
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig::new(SegmentPlan::default())
                .with_max_inflight(1)
                .with_max_queue(1),
        )
        .expect("ephemeral bind");
        let mut config = small_loadgen(server.local_addr().to_string());
        config.clients = 4;
        config.images = 32;
        config.image_size = 160;
        config.pipeline_depth = 8;
        let report = loadgen_report(&config).unwrap();
        assert!(report.contains("server admission: max_queue 1"), "{report}");
        assert!(
            !report.contains(", 0 busy rejections"),
            "4 clients' 8-deep bursts against 1 worker + 1 queue slot must shed:\n{report}"
        );
        // Whatever was admitted verified byte-identically; loadgen reports
        // rather than fails when the shed count is nonzero.
        assert!(report.contains("byte-identical"), "{report}");
        server.join();
    }

    #[test]
    fn loadgen_plan_flag_resolves_the_reference_backend() {
        let server = boot(SegmentPlan::default());
        let mut config = small_loadgen(server.local_addr().to_string());
        config.plan = "classifier=table;tile=off;backend=threads:2".to_string();
        let report = loadgen_report(&config).unwrap();
        assert!(
            report.contains("local reference plan: [classifier=table;tile=off;backend=threads:2]"),
            "{report}"
        );
        assert!(report.contains("byte-identical"), "{report}");
        assert!(report.contains("server admission:"), "{report}");
        server.join();

        let mut config = small_loadgen("127.0.0.1:1".to_string());
        config.plan = "classifier=warp".to_string();
        config.shutdown = false;
        assert!(loadgen_report(&config).is_err());
    }

    #[test]
    fn video_loadgen_refuses_an_unparsable_plan() {
        let server = boot(SegmentPlan::default());
        let mut config = small_loadgen(server.local_addr().to_string());
        config.video = true;
        config.shutdown = false;
        config.plan = "classifier=warp".to_string();
        let err = loadgen_report(&config).unwrap_err();
        assert!(err.contains("warp"), "{err}");
        server.shutdown_now();
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
            report.contains("byte-identical to the local serial reference"),
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
        let answered: u64 = report
            .lines()
            .filter(|line| line.starts_with("  endpoint ") && line.contains("): "))
            .map(|line| {
                let counts = line.split("): ").nth(1).unwrap();
                counts
                    .split_whitespace()
                    .next()
                    .unwrap()
                    .parse::<u64>()
                    .unwrap()
            })
            .sum();
        assert_eq!(answered, 9, "{report}");
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
            report.contains("byte-identical to the local serial reference"),
            "{report}"
        );
        // Exactly one of the three booted daemons was killed; the other two
        // acknowledge the shutdown.
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
        let mut config = small_loadgen(String::new());
        config.kill_one = true;
        config.video = true;
        let err = loadgen_report(&config).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");

        let mut config = small_loadgen("127.0.0.1:1".to_string());
        config.kill_one = true;
        let err = loadgen_report(&config).unwrap_err();
        assert!(err.contains("cannot be combined"), "{err}");

        let mut config = small_loadgen("127.0.0.1:1,127.0.0.1:2".to_string());
        config.video = true;
        let err = loadgen_report(&config).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn loadgen_reports_a_warm_loaded_cache_after_a_persisted_restart() {
        let dir = std::env::temp_dir().join("iqft-experiments-persist-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("loadgen-{}.snap", std::process::id()));
        std::fs::remove_file(&path).ok();
        let boot = || {
            Server::bind(
                "127.0.0.1:0",
                ServerConfig::new(SegmentPlan::default())
                    .with_cache(CacheConfig::with_capacity_mb(64))
                    .with_cache_persist(&path),
            )
            .expect("ephemeral bind")
        };

        // First life: populate, then `--shutdown` drains, which saves.
        let server = boot();
        let report = loadgen_report(&small_loadgen(server.local_addr().to_string())).unwrap();
        assert!(report.contains("byte-identical"), "{report}");
        server.join();

        // Second life: the report must surface the warm load through the
        // typed `extra_u64` accessor, and repeats hit without re-populating.
        let server = boot();
        let mut config = small_loadgen(server.local_addr().to_string());
        config.repeat_ratio = 0.0; // only warm entries can hit
        config.expect_cache_hits = true;
        let report = loadgen_report(&config).unwrap();
        assert!(
            report.contains("server cache persistence: warm-loaded 9 entries"),
            "{report}"
        );
        assert!(report.contains("byte-identical"), "{report}");
        server.join();
        std::fs::remove_file(&path).ok();
    }
}
