//! The daemon under test: booted in-process through `Server::bind`, driven
//! only through the public `Client` over loopback.

use crate::guards;
use crate::workload::{plan, Inputs, Op, Shape, CONNECTIONS};
use imaging::{LabelMap, RgbImage};
use iqft_serve::{
    Client, ClientConfig, SegmentOutcome, ServeError, ServeMode, Server, ServerConfig,
    StatsSnapshot,
};
use std::time::Instant;

/// One reply to a segment request.
#[derive(Debug)]
pub struct Reply {
    pub labels: LabelMap,
    pub cached: bool,
    pub tiles_hit: u32,
    pub tiles_recomputed: u32,
}

/// Sends one segment request of kind `op` and waits for its reply; `None`
/// is a `Busy` refusal.
pub fn request(client: &mut Client, op: Op, image: &RgbImage) -> Result<Option<Reply>, ServeError> {
    let (outcome, tiles_hit, tiles_recomputed) = match op {
        Op::Cached => (client.segment_cached(image, false)?, 0, 0),
        Op::Delta => client.segment_delta(image)?,
    };
    Ok(match outcome {
        SegmentOutcome::Busy => None,
        outcome => {
            let cached = outcome.cached();
            let (labels, _) = outcome.unwrap_done();
            Some(Reply {
                labels,
                cached,
                tiles_hit,
                tiles_recomputed,
            })
        }
    })
}

/// A booted daemon with one client connection per load thread and one for
/// stats polls.
pub struct Daemon {
    // Declared before the server so a dropped daemon closes its
    // connections before the server drains.
    pub clients: Vec<Client>,
    control: Client,
    server: Server,
}

impl Daemon {
    /// Boots the daemon for `shape`, connects, and runs the warm-up pass that
    /// leaves it in the workload's steady state, then checks that state.
    /// Returns the daemon and the seconds all of that took (`setup_s`).
    pub fn boot(shape: &Shape, inputs: &Inputs) -> Result<(Daemon, f64), String> {
        let started = Instant::now();
        let mut daemon = Daemon::boot_unchecked(shape, inputs)?;
        guards::check_steady(shape, &daemon.stats()?)?;
        Ok((daemon, started.elapsed().as_secs_f64()))
    }

    /// [`Daemon::boot`] without the steady-state check.
    pub fn boot_unchecked(shape: &Shape, inputs: &Inputs) -> Result<Daemon, String> {
        let config = ServerConfig::new(plan())
            .with_cache(shape.cache)
            .with_mode(ServeMode::Evented);
        let server = Server::bind("127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))?;
        let client_config = ClientConfig::new(server.local_addr().to_string());
        let open = || Client::open(&client_config).map_err(|e| format!("connect: {e}"));
        let clients = (0..CONNECTIONS)
            .map(|_| open())
            .collect::<Result<Vec<_>, _>>()?;
        let control = open()?;
        let mut daemon = Daemon {
            clients,
            control,
            server,
        };
        daemon.warm_up(shape, inputs)?;
        Ok(daemon)
    }

    /// Sends every connection's distinct frames once, interleaving the
    /// connections request by request: the order the timed phase keeps.
    fn warm_up(&mut self, shape: &Shape, inputs: &Inputs) -> Result<(), String> {
        let op = shape.workload.op();
        for k in 0..shape.frames_per_conn {
            for (conn, client) in self.clients.iter_mut().enumerate() {
                let frame = inputs.frame(conn, k);
                match request(client, op, &frame.image) {
                    Ok(Some(reply)) if frame.matches(reply.labels.as_slice()) => {}
                    Ok(Some(_)) => {
                        return Err(format!(
                            "warm-up: connection {conn} frame {k}: label mismatch"
                        ))
                    }
                    Ok(None) => return Err(format!("warm-up: connection {conn} frame {k}: Busy")),
                    Err(e) => return Err(format!("warm-up: connection {conn} frame {k}: {e}")),
                }
            }
        }
        Ok(())
    }

    pub fn stats(&mut self) -> Result<StatsSnapshot, String> {
        self.control.stats().map_err(|e| format!("stats: {e}"))
    }

    /// Closes every connection and drains the daemon.
    pub fn stop(self) {
        let Daemon {
            clients,
            control,
            server,
        } = self;
        drop(clients);
        drop(control);
        server.shutdown_now();
        server.join();
    }
}

/// Changes in the daemon's counters between two stats snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub pixels: u64,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub tiles_hit: u64,
    pub tiles_recomputed: u64,
    pub busy_rejections: u64,
    pub protocol_errors: u64,
    pub arena_allocations: u64,
    pub fallback_pixels: u64,
}

impl Counters {
    pub fn between(before: &StatsSnapshot, after: &StatsSnapshot) -> Counters {
        let d = |a: usize, b: usize| b.saturating_sub(a) as u64;
        Counters {
            pixels: after.pixels_total.saturating_sub(before.pixels_total),
            hits: d(before.cache_hits, after.cache_hits),
            misses: d(before.cache_misses, after.cache_misses),
            evictions: d(before.cache_evictions, after.cache_evictions),
            tiles_hit: d(before.delta_tiles_hit, after.delta_tiles_hit),
            tiles_recomputed: d(before.delta_tiles_recomputed, after.delta_tiles_recomputed),
            busy_rejections: d(before.busy_rejections, after.busy_rejections),
            protocol_errors: d(before.protocol_errors, after.protocol_errors),
            arena_allocations: d(before.arena_allocations, after.arena_allocations),
            fallback_pixels: after
                .quant_fallback_pixels
                .saturating_sub(before.quant_fallback_pixels),
        }
    }
}
