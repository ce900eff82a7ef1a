//! The multi-daemon fleet layer: failover over N daemons.
//!
//! A [`FleetClient`] tries its endpoints in the order its config lists
//! them and sends each request — or each pipelined burst, whole — to the
//! first one that answers.  When an endpoint is unreachable (connect
//! refused, or the connection dies because the daemon is draining), the
//! request moves to the next endpoint in the list, the skip is counted
//! against the dead endpoint, and the reply comes back as
//! [`SegmentOutcome::Failover`] — a correct answer that was almost
//! certainly a miss at its fallback.  Killing one daemon therefore degrades
//! to misses, never to errors.
//!
//! Nothing is routed by content: with the split table classifying a pixel
//! about as fast as the cache can hash it, spreading one working set over
//! several daemons' caches no longer pays.  To spread load, give each
//! client its own endpoint order (the `loadgen` subcommand rotates the list
//! by client index).

use crate::client::{Client, ClientConfig, SegmentOutcome, ServeError};
use imaging::RgbImage;
use std::io;

/// Typed per-endpoint accounting, indexed like the fleet's
/// [`ClientConfig::addrs`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct EndpointStats {
    /// Requests this endpoint answered (including `Busy` refusals).
    pub requests: u64,
    /// Replies this endpoint served from its result cache.
    pub hits: u64,
    /// Requests this endpoint refused with `Busy`.
    pub busy: u64,
    /// Connect or transport failures observed talking to this endpoint.
    pub errors: u64,
    /// Requests sent to this endpoint that it could not serve — each was
    /// moved on to the next endpoint and counted here, against the endpoint
    /// that failed.
    pub failovers: u64,
}

/// A client for a fleet of `iqft-serve` daemons.
///
/// Holds at most one connection per endpoint (dialed lazily, redialed
/// transparently after a failure, so a restarted daemon rejoins the fleet
/// on the next request that reaches it) and sends each request to the
/// first endpoint, in config order, that answers.
#[derive(Debug)]
pub struct FleetClient {
    config: ClientConfig,
    connections: Vec<Option<Client>>,
    stats: Vec<EndpointStats>,
}

impl FleetClient {
    /// Returns a fleet client over `config.addrs`.  No connection is dialed
    /// yet — endpoints connect on first use, so a fleet with one dead
    /// daemon opens fine and simply fails over.
    pub fn open(config: &ClientConfig) -> io::Result<FleetClient> {
        if config.addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "fleet config names no address",
            ));
        }
        Ok(FleetClient {
            config: config.clone(),
            connections: (0..config.addrs.len()).map(|_| None).collect(),
            stats: vec![EndpointStats::default(); config.addrs.len()],
        })
    }

    /// Per-endpoint accounting, indexed like the config's
    /// [`ClientConfig::addrs`], the order the endpoints are tried in.
    pub fn stats(&self) -> &[EndpointStats] {
        &self.stats
    }

    /// Dials endpoint `idx` now instead of on its first request; a no-op
    /// when that connection is already open.  One attempt under the
    /// config's connect deadline, like the lazy dial — a caller that wants
    /// startup retries (a load generator racing an accept backlog) loops.
    ///
    /// # Panics
    ///
    /// If `idx` is not an index into the config's [`ClientConfig::addrs`].
    pub fn connect(&mut self, idx: usize) -> io::Result<()> {
        if self.connections[idx].is_none() {
            self.connections[idx] = Some(Client::dial(&self.config.addrs[idx], &self.config)?);
        }
        Ok(())
    }

    /// Takes (or dials) the connection for endpoint `idx`; the caller puts
    /// it back on success so a transport failure drops the socket.
    fn take_connection(&mut self, idx: usize) -> io::Result<Client> {
        match self.connections[idx].take() {
            Some(client) => Ok(client),
            None => Client::dial(&self.config.addrs[idx], &self.config),
        }
    }

    /// Records a successfully-answered outcome against endpoint `idx`.
    fn record_outcome(&mut self, idx: usize, outcome: &SegmentOutcome) {
        let stats = &mut self.stats[idx];
        stats.requests += 1;
        if outcome.cached() {
            stats.hits += 1;
        }
        if outcome.is_busy() {
            stats.busy += 1;
        }
    }

    /// The one failover loop: runs `call` on each endpoint in config order
    /// until one answers, and returns that endpoint's index with its
    /// answer.  The index is also how many endpoints were skipped.  Only
    /// connect and transport failures move on; each skip counts one error,
    /// and `requests` failovers, against the endpoint that failed.
    fn first_answer<T>(
        &mut self,
        requests: u64,
        mut call: impl FnMut(&mut Client) -> Result<T, ServeError>,
    ) -> Result<(usize, T), ServeError> {
        let mut last_err = None;
        for idx in 0..self.connections.len() {
            let answer = match self.take_connection(idx) {
                Ok(mut client) => call(&mut client).map(|answer| (client, answer)),
                Err(err) => Err(err.into()),
            };
            match answer {
                Ok((client, answer)) => {
                    self.connections[idx] = Some(client);
                    return Ok((idx, answer));
                }
                // A refused connect, or a connection that died under us (a
                // draining or killed daemon): drop the socket and move to
                // the next endpoint; the ops are idempotent, so re-sending
                // is safe.
                Err(err @ ServeError::Protocol(_)) => {
                    self.stats[idx].errors += 1;
                    self.stats[idx].failovers += requests;
                    last_err = Some(err);
                }
                Err(err) => return Err(err),
            }
        }
        Err(last_err.expect("open refuses a fleet without endpoints"))
    }

    /// [`Client::segment_delta`] on the first endpoint that answers.
    /// `Busy` is an answer (the endpoint is alive, just saturated); only
    /// connect and transport failures move on to the next endpoint, and a
    /// reply that had to skip one comes back as
    /// [`SegmentOutcome::Failover`].  Tile counts come from whichever
    /// endpoint answered.
    pub fn segment_delta(
        &mut self,
        image: &RgbImage,
    ) -> Result<(SegmentOutcome, u32, u32), ServeError> {
        let (idx, (outcome, hit, recomputed)) =
            self.first_answer(1, |client| client.segment_delta(image))?;
        self.record_outcome(idx, &outcome);
        Ok((promote_outcome(outcome, idx as u32), hit, recomputed))
    }

    /// [`Client::segment_pipelined`] on the first endpoint that answers:
    /// the whole burst goes to one endpoint (depth from
    /// [`ClientConfig::pipeline_depth`]).  An endpoint that fails mid-burst
    /// has the whole burst re-sent to the next one (idempotent ops), and
    /// each of its replies comes back as [`SegmentOutcome::Failover`].
    pub fn segment_pipelined(
        &mut self,
        images: &[&RgbImage],
        use_cache: bool,
    ) -> Result<Vec<SegmentOutcome>, ServeError> {
        if images.is_empty() {
            return Ok(Vec::new());
        }
        let (idx, outcomes) = self.first_answer(images.len() as u64, |client| {
            client.segment_pipelined(images, use_cache)
        })?;
        Ok(outcomes
            .into_iter()
            .map(|outcome| {
                self.record_outcome(idx, &outcome);
                promote_outcome(outcome, idx as u32)
            })
            .collect())
    }

    /// Asks every reachable daemon in the fleet to drain and stop.  Returns
    /// how many acknowledged; unreachable endpoints are skipped (they are
    /// already down).
    pub fn shutdown_all(&mut self) -> usize {
        let mut acknowledged = 0;
        for idx in 0..self.connections.len() {
            let Ok(mut client) = self.take_connection(idx) else {
                continue;
            };
            if client.shutdown().is_ok() {
                acknowledged += 1;
            }
        }
        acknowledged
    }
}

/// Re-labels an outcome that had to skip `tried` dead endpoints as
/// [`SegmentOutcome::Failover`]; `Busy` and zero-skip outcomes pass
/// through unchanged.
fn promote_outcome(outcome: SegmentOutcome, tried: u32) -> SegmentOutcome {
    match outcome {
        SegmentOutcome::Done { labels, cached }
        | SegmentOutcome::Failover { labels, cached, .. }
            if tried > 0 =>
        {
            SegmentOutcome::Failover {
                labels,
                cached,
                tried,
            }
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Server, ServerConfig};
    use imaging::{LabelMap, Rgb};
    use iqft_pipeline::CacheConfig;
    use iqft_seg::IqftClassifier;
    use seg_engine::{ClassifierKind, SegmentEngine, SegmentPlan};

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

    fn boot_daemon() -> Server {
        Server::bind(
            "127.0.0.1:0",
            ServerConfig::new(SegmentPlan::default())
                .with_max_inflight(2)
                .with_cache(CacheConfig::with_capacity_mb(8)),
        )
        .unwrap()
    }

    fn fleet_config(servers: &[Server]) -> ClientConfig {
        ClientConfig::fleet(servers.iter().map(|s| s.local_addr().to_string()))
    }

    /// Drains endpoint 0 through a direct client and joins it, so its
    /// listener is gone before the next request; returns the survivors.
    fn kill_first(config: &ClientConfig, mut servers: Vec<Server>) -> Vec<Server> {
        let mut direct = Client::open(&ClientConfig::new(config.addrs[0].clone())).unwrap();
        direct.shutdown().unwrap();
        servers.remove(0).join();
        servers
    }

    #[test]
    fn fleet_sends_every_request_to_the_first_endpoint_and_its_cache_stays_hot() {
        let servers = vec![boot_daemon(), boot_daemon()];
        let mut fleet = FleetClient::open(&fleet_config(&servers)).unwrap();
        let images: Vec<RgbImage> = (0..8).map(test_image).collect();
        for img in &images {
            let (outcome, _, recomputed) = fleet.segment_delta(img).unwrap();
            assert!(recomputed > 0 && !outcome.cached(), "first sight is a miss");
            assert_eq!(outcome.unwrap_done().0, reference(img));
        }
        // Second pass: every tile of every repeat hits, because every
        // request went to the same daemon's cache.
        for img in &images {
            let (outcome, hit, recomputed) = fleet.segment_delta(img).unwrap();
            assert_eq!(recomputed, 0, "repeat must hit the first endpoint's cache");
            assert!(hit > 0 && outcome.cached());
            assert_eq!(outcome.tried(), 0);
            assert_eq!(outcome.unwrap_done().0, reference(img));
        }
        let stats = fleet.stats();
        assert_eq!((stats[0].requests, stats[0].hits), (16, 8));
        assert_eq!(
            stats[1],
            EndpointStats::default(),
            "a live first endpoint takes all"
        );
        assert_eq!(fleet.shutdown_all(), 2);
        for server in servers {
            server.join();
        }
    }

    #[test]
    fn killing_one_daemon_degrades_to_failover_misses_not_errors() {
        let servers = vec![boot_daemon(), boot_daemon(), boot_daemon()];
        let config = fleet_config(&servers);
        let mut fleet = FleetClient::open(&config).unwrap();
        let images: Vec<RgbImage> = (0..12).map(test_image).collect();
        for img in &images {
            fleet.segment_delta(img).unwrap();
        }
        let servers = kill_first(&config, servers);
        // Every image still answers byte-identically from the second
        // endpoint, each counted as a failover against the first.
        for img in &images {
            let (outcome, _, _) = fleet.segment_delta(img).unwrap();
            assert_eq!(
                outcome.tried(),
                1,
                "each request skips the dead first endpoint"
            );
            assert!(!outcome.cached(), "the second endpoint's cache starts cold");
            assert_eq!(outcome.unwrap_done().0, reference(img));
        }
        let stats = fleet.stats();
        assert_eq!(stats[0].failovers, 12);
        assert!(stats[0].errors >= 1);
        assert_eq!(stats[1].requests, 12, "every reply came from the second");
        assert_eq!(stats[2], EndpointStats::default());
        assert_eq!(fleet.shutdown_all(), 2);
        for server in servers {
            server.join();
        }
    }

    #[test]
    fn pipelined_fleet_bursts_go_whole_to_the_first_endpoint_in_input_order() {
        let servers = vec![boot_daemon(), boot_daemon()];
        let mut fleet = FleetClient::open(&fleet_config(&servers)).unwrap();
        let images: Vec<RgbImage> = (0..10).map(test_image).collect();
        let refs: Vec<&RgbImage> = images.iter().collect();
        let first = fleet.segment_pipelined(&refs, true).unwrap();
        let again = fleet.segment_pipelined(&refs, true).unwrap();
        for ((cold, warm), img) in first.iter().zip(&again).zip(&images) {
            assert!(!cold.cached() && warm.cached(), "second burst hits");
            assert_eq!(cold.labels(), Some(&reference(img)), "input order");
            assert_eq!(warm.labels(), cold.labels());
        }
        assert!(fleet.segment_pipelined(&[], true).unwrap().is_empty());
        let stats = fleet.stats();
        assert_eq!((stats[0].requests, stats[0].hits), (20, 10));
        assert_eq!(stats[1], EndpointStats::default());
        fleet.shutdown_all();
        for server in servers {
            server.join();
        }
    }

    #[test]
    fn pipelined_fleet_fails_over_when_an_endpoint_dies_between_bursts() {
        let servers = vec![boot_daemon(), boot_daemon(), boot_daemon()];
        let config = fleet_config(&servers);
        let mut fleet = FleetClient::open(&config).unwrap();
        let images: Vec<RgbImage> = (0..12).map(test_image).collect();
        let refs: Vec<&RgbImage> = images.iter().collect();
        let first = fleet.segment_pipelined(&refs, true).unwrap();
        let servers = kill_first(&config, servers);
        let after = fleet.segment_pipelined(&refs, true).unwrap();
        for (outcome, want) in after.iter().zip(&first) {
            assert_eq!(outcome.labels(), want.labels(), "byte-identical after kill");
            assert_eq!(
                outcome.tried(),
                1,
                "the whole burst skipped the dead endpoint"
            );
        }
        let stats = fleet.stats();
        assert_eq!(
            stats[0].failovers, 12,
            "each request of the burst counts once"
        );
        assert_eq!(stats[1].requests, 12);
        assert_eq!(stats[2], EndpointStats::default());
        fleet.shutdown_all();
        for server in servers {
            server.join();
        }
    }
}
