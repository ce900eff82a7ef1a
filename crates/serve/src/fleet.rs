//! The multi-daemon fleet layer: consistent-hash routing over N daemons.
//!
//! One daemon's content-addressed cache tops out at one machine's memory
//! and one accept loop.  A [`FleetClient`] scales the hit path horizontally
//! by routing every `SegmentCached`/`SegmentDelta` request to the daemon
//! that *owns* the image's content hash on a deterministic consistent-hash
//! ring ([`HashRing`], hand-rolled, virtual nodes) — so each daemon's LRU
//! only ever sees its own slice of the key space and stays hot.
//!
//! Failover is part of routing, not an afterthought: when an owner is
//! unreachable (connect refused, or the connection dies because the daemon
//! is draining), the request moves to the next distinct owner clockwise on
//! the ring, the skip is counted against the dead endpoint, and the reply
//! comes back as [`SegmentOutcome::Failover`] — a correct answer that was
//! almost certainly a miss at its fallback.  Killing one daemon therefore
//! degrades to misses, never to errors.
//!
//! All routing is client-side and deterministic: every fleet client with
//! the same endpoint list computes the same ring, so independent load
//! generators agree on placement without any coordination service.

use crate::client::{Client, ClientConfig, SegmentOutcome, ServeError};
use crate::protocol::ProtocolError;
use imaging::RgbImage;
use iqft_pipeline::route_hash;
use std::collections::BTreeMap;
use std::io;

/// Virtual nodes per endpoint on the ring.  Enough that removing one of N
/// endpoints moves close to the ideal 1/N of the key space (the ring test
/// suite bounds it at 2/N) without making ring construction noticeable.
pub(crate) const DEFAULT_VNODES: usize = 64;

/// FNV-1a over `bytes` — the same seedless hash the stats and cache layers
/// use for fingerprints; collisions on ring points are broken by sort
/// order, so cryptographic strength is not required, only determinism.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The splitmix64 finalizer: spreads consecutive vnode indices across the
/// full 64-bit ring so an endpoint's virtual nodes do not cluster.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// A deterministic consistent-hash ring with virtual nodes.
///
/// Each endpoint label is expanded into `DEFAULT_VNODES` points on a
/// 64-bit ring; a key is owned by the first point clockwise from it.
/// Because points depend only on the labels (not their order or count),
/// adding or removing an endpoint moves only the keys adjacent to that
/// endpoint's own points — ≈1/N of the key space — instead of reshuffling
/// everything the way `hash % N` would.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashRing {
    /// `(point, endpoint index)` sorted by point.
    points: Vec<(u64, usize)>,
    /// How many distinct endpoints the ring covers.
    nodes: usize,
}

impl HashRing {
    /// Builds the ring over `labels` with `vnodes` virtual nodes each.
    pub(crate) fn new(labels: &[String], vnodes: usize) -> HashRing {
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(labels.len() * vnodes);
        for (idx, label) in labels.iter().enumerate() {
            let base = fnv1a(label.as_bytes());
            for v in 0..vnodes {
                points.push((mix64(base ^ mix64(v as u64 + 1)), idx));
            }
        }
        points.sort_unstable();
        HashRing {
            points,
            nodes: labels.len(),
        }
    }

    /// The endpoint that owns `key`: the first ring point at or clockwise
    /// after it (wrapping at the top of the 64-bit space).
    pub fn owner(&self, key: u64) -> usize {
        let i = self.points.partition_point(|&(p, _)| p < key);
        let i = if i == self.points.len() { 0 } else { i };
        self.points[i].1
    }

    /// The failover order for `key`: its owner, then every other distinct
    /// endpoint in the order their points appear clockwise from the key.
    /// Deterministic, covers each endpoint exactly once.
    pub(crate) fn owners(&self, key: u64) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.nodes);
        if self.points.is_empty() {
            return order;
        }
        let start = self.points.partition_point(|&(p, _)| p < key);
        let mut seen = vec![false; self.nodes];
        for offset in 0..self.points.len() {
            let (_, node) = self.points[(start + offset) % self.points.len()];
            if !seen[node] {
                seen[node] = true;
                order.push(node);
                if order.len() == self.nodes {
                    break;
                }
            }
        }
        order
    }
}

/// Typed per-endpoint accounting, indexed like [`FleetClient::addrs`].
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
    /// Requests this endpoint owned but could not serve — each was rerouted
    /// to the next ring owner and counted here, against the endpoint that
    /// failed.
    pub failovers: u64,
}

/// A client for a fleet of `iqft-serve` daemons.
///
/// Holds at most one connection per endpoint (dialed lazily, redialed
/// transparently after a failure, so a restarted daemon rejoins the fleet
/// on its next owned request) and routes each request by content hash over
/// the [`HashRing`].  Pipelined bursts are split per endpoint and pipelined
/// on each connection independently.
#[derive(Debug)]
pub struct FleetClient {
    config: ClientConfig,
    ring: HashRing,
    connections: Vec<Option<Client>>,
    stats: Vec<EndpointStats>,
}

impl FleetClient {
    /// Builds the ring over `config.addrs` and returns the fleet client.
    /// No connection is dialed yet — endpoints connect on first use, so a
    /// fleet with one dead daemon opens fine and simply fails over.
    pub fn open(config: &ClientConfig) -> io::Result<FleetClient> {
        if config.addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "fleet config names no address",
            ));
        }
        let ring = HashRing::new(&config.addrs, DEFAULT_VNODES);
        Ok(FleetClient {
            config: config.clone(),
            connections: (0..config.addrs.len()).map(|_| None).collect(),
            stats: vec![EndpointStats::default(); config.addrs.len()],
            ring,
        })
    }

    /// The fleet's endpoint addresses, in ring-index order.
    pub fn addrs(&self) -> &[String] {
        &self.config.addrs
    }

    /// Per-endpoint accounting, indexed like [`FleetClient::addrs`].
    pub fn stats(&self) -> &[EndpointStats] {
        &self.stats
    }

    /// The ring used for routing (shared by every identically-configured
    /// fleet client).
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Dials endpoint `idx` now instead of on its first request; a no-op
    /// when that connection is already open.  One attempt under the
    /// config's connect deadline, like the lazy dial — a caller that wants
    /// startup retries (a load generator racing an accept backlog) loops.
    ///
    /// # Panics
    ///
    /// If `idx` is not an index into [`FleetClient::addrs`].
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

    /// [`Client::segment_delta`] routed to the image's ring owner, trying
    /// each owner in failover order until one answers.  `Busy` is an answer
    /// (the endpoint is alive, just saturated); only connect and transport
    /// failures move on to the next owner, and a reply that had to skip one
    /// comes back as [`SegmentOutcome::Failover`].  Tile counts come from
    /// whichever endpoint answered.
    pub fn segment_delta(
        &mut self,
        image: &RgbImage,
    ) -> Result<(SegmentOutcome, u32, u32), ServeError> {
        let order = self.ring.owners(route_hash(image));
        let mut tried = 0u32;
        let mut last_err: Option<ServeError> = None;
        for idx in order {
            let reply = match self.take_connection(idx) {
                Ok(mut client) => client.segment_delta(image).map(|reply| (client, reply)),
                Err(err) => Err(err.into()),
            };
            match reply {
                Ok((client, (outcome, hit, recomputed))) => {
                    self.connections[idx] = Some(client);
                    self.record_outcome(idx, &outcome);
                    return Ok((promote_outcome(outcome, tried), hit, recomputed));
                }
                // A refused connect, or a connection that died under us (a
                // draining or killed daemon): drop the socket and move to
                // the next owner; the op is idempotent, so re-sending is
                // safe.
                Err(err @ ServeError::Protocol(_)) => {
                    self.stats[idx].errors += 1;
                    self.stats[idx].failovers += 1;
                    tried += 1;
                    last_err = Some(err);
                }
                Err(err) => return Err(err),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            ServeError::Protocol(ProtocolError::Io(io::Error::new(
                io::ErrorKind::NotConnected,
                "no fleet endpoint reachable",
            )))
        }))
    }

    /// Pipelined fleet segmentation: splits `images` by ring owner, runs
    /// one pipelined burst per endpoint (depth from
    /// [`ClientConfig::pipeline_depth`]), and reassembles the outcomes in
    /// input order.  An endpoint that fails mid-burst has its whole group
    /// rerouted to each image's next ring owner — already-answered images
    /// keep their replies; unanswered ones are re-sent (idempotent ops).
    pub fn segment_pipelined(
        &mut self,
        images: &[&RgbImage],
        use_cache: bool,
    ) -> Result<Vec<SegmentOutcome>, ServeError> {
        let orders: Vec<Vec<usize>> = images
            .iter()
            .map(|image| self.ring.owners(route_hash(image)))
            .collect();
        let mut results: Vec<Option<SegmentOutcome>> = (0..images.len()).map(|_| None).collect();
        // Work items: (image index, step into its failover order, skips).
        let mut pending: Vec<(usize, usize, u32)> = (0..images.len()).map(|i| (i, 0, 0)).collect();
        let mut last_err: Option<ServeError> = None;
        while !pending.is_empty() {
            let mut groups: BTreeMap<usize, Vec<(usize, usize, u32)>> = BTreeMap::new();
            for item in pending.drain(..) {
                let (image, step, _) = item;
                if step >= orders[image].len() {
                    return Err(last_err.unwrap_or_else(|| {
                        ServeError::Protocol(ProtocolError::Io(io::Error::new(
                            io::ErrorKind::NotConnected,
                            "no fleet endpoint reachable",
                        )))
                    }));
                }
                groups.entry(orders[image][step]).or_default().push(item);
            }
            for (endpoint, group) in groups {
                let mut client = match self.take_connection(endpoint) {
                    Ok(client) => client,
                    Err(err) => {
                        self.stats[endpoint].errors += 1;
                        self.stats[endpoint].failovers += group.len() as u64;
                        last_err = Some(err.into());
                        pending.extend(
                            group
                                .into_iter()
                                .map(|(image, step, tried)| (image, step + 1, tried + 1)),
                        );
                        continue;
                    }
                };
                let burst: Vec<&RgbImage> =
                    group.iter().map(|&(image, _, _)| images[image]).collect();
                match client.segment_pipelined(&burst, use_cache) {
                    Ok(outcomes) => {
                        self.connections[endpoint] = Some(client);
                        for (&(image, _, tried), outcome) in group.iter().zip(outcomes) {
                            self.record_outcome(endpoint, &outcome);
                            results[image] = Some(promote_outcome(outcome, tried));
                        }
                    }
                    Err(ServeError::Protocol(err)) => {
                        self.stats[endpoint].errors += 1;
                        self.stats[endpoint].failovers += group.len() as u64;
                        last_err = Some(ServeError::Protocol(err));
                        pending.extend(
                            group
                                .into_iter()
                                .map(|(image, step, tried)| (image, step + 1, tried + 1)),
                        );
                    }
                    Err(err) => return Err(err),
                }
            }
        }
        Ok(results
            .into_iter()
            .map(|slot| slot.expect("every image was routed"))
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

/// Re-labels an outcome that had to skip `tried` dead owners as
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
    use imaging::Rgb;
    use iqft_pipeline::CacheConfig;
    use seg_engine::SegmentPlan;

    fn labels(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    /// The same xorshift64 the experiments crate uses for synthetic load.
    fn xorshift_keys(count: usize, mut state: u64) -> Vec<u64> {
        (0..count)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            })
            .collect()
    }

    #[test]
    fn ring_is_deterministic_and_order_independent() {
        let a = HashRing::new(&labels(&["10.0.0.1:7700", "10.0.0.2:7700"]), 64);
        let b = HashRing::new(&labels(&["10.0.0.1:7700", "10.0.0.2:7700"]), 64);
        assert_eq!(a, b);
        // Same endpoints listed in a different order: indices differ but
        // the owning *label* of every key is identical.
        let c = HashRing::new(&labels(&["10.0.0.2:7700", "10.0.0.1:7700"]), 64);
        let names = ["10.0.0.1:7700", "10.0.0.2:7700"];
        let swapped = ["10.0.0.2:7700", "10.0.0.1:7700"];
        for key in xorshift_keys(1000, 7) {
            assert_eq!(names[a.owner(key)], swapped[c.owner(key)]);
        }
    }

    #[test]
    fn failover_order_covers_every_node_once_starting_at_the_owner() {
        let ring = HashRing::new(&labels(&["a:1", "b:1", "c:1", "d:1"]), 64);
        for key in xorshift_keys(200, 99) {
            let order = ring.owners(key);
            assert_eq!(order.len(), 4);
            assert_eq!(order[0], ring.owner(key));
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3], "each node appears once");
        }
    }

    #[test]
    fn adding_a_node_moves_at_most_two_over_n_of_the_keys() {
        let four = labels(&["a:1", "b:1", "c:1", "d:1"]);
        let mut five = four.clone();
        five.push("e:1".to_string());
        let before = HashRing::new(&four, DEFAULT_VNODES);
        let after = HashRing::new(&five, DEFAULT_VNODES);
        let keys = xorshift_keys(100_000, 42);
        let moved = keys
            .iter()
            .filter(|&&k| four[before.owner(k)] != five[after.owner(k)])
            .count();
        // Ideal movement is 1/5 of the keys (only those the new node takes
        // over); the 2/N bound leaves room for vnode placement variance.
        assert!(
            moved <= keys.len() * 2 / four.len(),
            "moved {moved} of {} keys",
            keys.len()
        );
        // Every moved key must have moved TO the new node — consistent
        // hashing never shuffles keys between surviving nodes.
        for &k in &keys {
            if four[before.owner(k)] != five[after.owner(k)] {
                assert_eq!(five[after.owner(k)], "e:1");
            }
        }
    }

    #[test]
    fn removing_a_node_strands_only_its_own_keys() {
        let four = labels(&["a:1", "b:1", "c:1", "d:1"]);
        let three = labels(&["a:1", "b:1", "d:1"]);
        let before = HashRing::new(&four, DEFAULT_VNODES);
        let after = HashRing::new(&three, DEFAULT_VNODES);
        let keys = xorshift_keys(100_000, 1234);
        let mut moved = 0usize;
        for &k in &keys {
            let was = &four[before.owner(k)];
            let now = &three[after.owner(k)];
            if was != now {
                moved += 1;
                assert_eq!(was, "c:1", "only the removed node's keys move");
            }
        }
        assert!(moved <= keys.len() * 2 / four.len(), "moved {moved}");
        assert!(moved > 0, "the removed node owned something");
    }

    #[test]
    fn ring_distributes_xorshift_keys_within_bounds() {
        let names = labels(&["a:1", "b:1", "c:1", "d:1"]);
        let ring = HashRing::new(&names, 128);
        let keys = xorshift_keys(100_000, 5150);
        let mut counts = vec![0usize; names.len()];
        for &k in &keys {
            counts[ring.owner(k)] += 1;
        }
        let fair = keys.len() / names.len();
        for (node, &count) in counts.iter().enumerate() {
            assert!(
                count >= fair / 2 && count <= fair * 2,
                "node {node} owns {count} of {} keys (fair share {fair})",
                keys.len()
            );
        }
    }

    // ---- fleet integration: in-process daemons on loopback ----

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

    fn boot_daemon() -> Server {
        Server::bind(
            "127.0.0.1:0",
            ServerConfig::new(SegmentPlan::default())
                .with_max_inflight(2)
                .with_cache(CacheConfig::with_capacity_mb(8)),
        )
        .unwrap()
    }

    fn fleet_config(servers: &[&Server]) -> ClientConfig {
        ClientConfig::fleet(servers.iter().map(|s| s.local_addr().to_string()))
    }

    #[test]
    fn fleet_routes_by_content_and_each_owner_cache_stays_hot() {
        let servers = [boot_daemon(), boot_daemon()];
        let mut fleet = FleetClient::open(&fleet_config(&[&servers[0], &servers[1]])).unwrap();
        let images: Vec<RgbImage> = (0..8).map(test_image).collect();
        let mut first: Vec<_> = Vec::new();
        for img in &images {
            let (outcome, _, recomputed) = fleet.segment_delta(img).unwrap();
            assert!(recomputed > 0 && !outcome.cached(), "first sight is a miss");
            first.push(outcome.unwrap_done().0);
        }
        // Second pass: every tile of every repeat hits, because routing
        // pinned each image to one daemon's cache.
        for (img, reference) in images.iter().zip(&first) {
            let (outcome, hit, recomputed) = fleet.segment_delta(img).unwrap();
            assert_eq!(recomputed, 0, "repeat must hit its ring owner's cache");
            assert!(hit > 0 && outcome.cached());
            assert_eq!(outcome.tried(), 0);
            assert_eq!(outcome.unwrap_done().0, *reference);
        }
        let stats = fleet.stats();
        assert_eq!(stats.iter().map(|s| s.requests).sum::<u64>(), 16);
        assert_eq!(stats.iter().map(|s| s.hits).sum::<u64>(), 8);
        assert_eq!(stats.iter().map(|s| s.failovers).sum::<u64>(), 0);
        assert_eq!(fleet.shutdown_all(), 2);
        for server in servers {
            server.join();
        }
    }

    #[test]
    fn killing_one_daemon_degrades_to_failover_misses_not_errors() {
        let servers = vec![boot_daemon(), boot_daemon(), boot_daemon()];
        let config = fleet_config(&[&servers[0], &servers[1], &servers[2]]);
        let mut fleet = FleetClient::open(&config).unwrap();
        let images: Vec<RgbImage> = (0..12).map(test_image).collect();
        let mut reference = Vec::new();
        for img in &images {
            reference.push(fleet.segment_delta(img).unwrap().0.unwrap_done().0);
        }
        // Kill the daemon that owns at least one image.
        let ring = fleet.ring().clone();
        let victim = ring.owner(route_hash(&images[0]));
        let mut owned = 0;
        for img in &images {
            if ring.owner(route_hash(img)) == victim {
                owned += 1;
            }
        }
        assert!(owned >= 1);
        {
            let mut direct =
                Client::open(&ClientConfig::new(config.addrs[victim].clone())).unwrap();
            direct.shutdown().unwrap();
        }
        let mut servers: Vec<Option<Server>> = servers.into_iter().map(Some).collect();
        servers[victim].take().unwrap().join();
        // Every image still answers byte-identically; the victim's keys
        // come back as Failover (served by the next owner, cold there).
        let mut failovers = 0;
        for (img, want) in images.iter().zip(&reference) {
            let (outcome, _, _) = fleet.segment_delta(img).unwrap();
            let tried = outcome.tried();
            let (labels, _) = outcome.unwrap_done();
            assert_eq!(labels, *want, "failover replies stay byte-identical");
            if ring.owner(route_hash(img)) == victim {
                assert_eq!(tried, 1, "victim's keys skip exactly one endpoint");
                failovers += 1;
            } else {
                assert_eq!(tried, 0);
            }
        }
        assert_eq!(failovers, owned);
        assert_eq!(fleet.stats()[victim].failovers, owned as u64);
        assert!(fleet.stats()[victim].errors >= 1);
        fleet.shutdown_all();
        for server in servers.into_iter().flatten() {
            server.join();
        }
    }

    #[test]
    fn pipelined_fleet_bursts_reassemble_in_input_order_across_endpoints() {
        let servers = [boot_daemon(), boot_daemon()];
        let mut fleet = FleetClient::open(&fleet_config(&[&servers[0], &servers[1]])).unwrap();
        let images: Vec<RgbImage> = (0..10).map(test_image).collect();
        let refs: Vec<&RgbImage> = images.iter().collect();
        let first = fleet.segment_pipelined(&refs, true).unwrap();
        assert_eq!(first.len(), images.len());
        let again = fleet.segment_pipelined(&refs, true).unwrap();
        for (warm, cold) in again.iter().zip(&first) {
            assert!(warm.cached(), "second burst hits the owners' caches");
            assert_eq!(warm.labels(), cold.labels());
        }
        fleet.shutdown_all();
        for server in servers {
            server.join();
        }
    }

    #[test]
    fn pipelined_fleet_fails_over_when_an_endpoint_dies_between_bursts() {
        let servers = vec![boot_daemon(), boot_daemon(), boot_daemon()];
        let config = fleet_config(&[&servers[0], &servers[1], &servers[2]]);
        let mut fleet = FleetClient::open(&config).unwrap();
        let images: Vec<RgbImage> = (0..12).map(test_image).collect();
        let refs: Vec<&RgbImage> = images.iter().collect();
        let first = fleet.segment_pipelined(&refs, true).unwrap();
        let victim = fleet.ring().owner(route_hash(&images[0]));
        {
            let mut direct =
                Client::open(&ClientConfig::new(config.addrs[victim].clone())).unwrap();
            direct.shutdown().unwrap();
        }
        let mut servers: Vec<Option<Server>> = servers.into_iter().map(Some).collect();
        servers[victim].take().unwrap().join();
        let after = fleet.segment_pipelined(&refs, true).unwrap();
        let mut failovers = 0;
        for (outcome, want) in after.iter().zip(&first) {
            assert_eq!(outcome.labels(), want.labels(), "byte-identical after kill");
            if outcome.tried() > 0 {
                failovers += 1;
            }
        }
        assert!(failovers >= 1, "the victim owned at least images[0]");
        assert!(fleet.stats()[victim].failovers >= 1);
        fleet.shutdown_all();
        for server in servers.into_iter().flatten() {
            server.join();
        }
    }
}
