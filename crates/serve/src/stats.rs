//! Server-side counters and the wire-level statistics snapshot.
//!
//! [`ServerStats`] is the live atomic counter block the server updates on
//! every frame; [`StatsSnapshot`] is the frozen, serializable view a
//! [`crate::protocol::Op::Stats`] request receives.  The snapshot travels as
//! plain `key=value` lines (one per field, split on the *first* `=` so values
//! may themselves contain `=`, like the plan spec), which keeps the protocol
//! free of any external serialization dependency and trivially
//! forward-compatible: unknown keys are preserved in
//! [`StatsSnapshot::extra`], so they survive a decode→encode round trip
//! instead of silently vanishing when an older client polls a newer daemon.

use iqft_pipeline::{LatencyHistogram, LatencySummary};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// Live aggregate counters for a running server.
///
/// All counters are monotonic and relaxed — they feed an operator-facing
/// snapshot, not a synchronization protocol.  The latency histogram is the
/// same lock-free log-bucketed structure offline pipeline runs use, so
/// every reactor records per-op service time with no lock on the hot path.
///
/// Aligned to a cache line: every reactor writes these counters on each
/// request, so they must not share a line with the read-mostly fields
/// around them in the daemon's shared state.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct ServerStats {
    /// Connections accepted since boot.
    connections_total: AtomicUsize,
    /// Connections currently open.
    connections_open: AtomicUsize,
    /// Frames handled (any op, including errors).
    requests_total: AtomicUsize,
    /// Segment requests completed.
    segment_requests: AtomicUsize,
    /// Pixels segmented.
    pixels_total: AtomicU64,
    /// Frames that failed to decode or execute.
    protocol_errors: AtomicUsize,
    /// Per-op service latency (pipeline execution time) across every
    /// connection.
    latency: LatencyHistogram,
}

impl ServerStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an accepted connection.
    pub(crate) fn connection_opened(&self) {
        self.connections_total.fetch_add(1, Ordering::Relaxed);
        self.connections_open.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a closed connection.
    pub(crate) fn connection_closed(&self) {
        self.connections_open.fetch_sub(1, Ordering::Relaxed);
    }

    /// Records one handled frame.
    pub fn request(&self) {
        self.requests_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one completed segmentation of `pixels` pixels.
    pub(crate) fn segmented(&self, pixels: usize) {
        self.segment_requests.fetch_add(1, Ordering::Relaxed);
        self.pixels_total
            .fetch_add(pixels as u64, Ordering::Relaxed);
    }

    /// Records a malformed or failed frame.
    pub fn protocol_error(&self) {
        self.protocol_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the service latency of one completed segment request.
    pub(crate) fn record_latency(&self, latency: Duration) {
        self.latency.record(latency);
    }

    /// Percentile summary of every recorded service latency.
    pub(crate) fn latency_summary(&self) -> LatencySummary {
        self.latency.summary()
    }

    /// Frames handled so far (any op).
    pub fn requests_total(&self) -> usize {
        self.requests_total.load(Ordering::Relaxed)
    }

    /// Segment requests completed so far.
    pub(crate) fn segment_requests(&self) -> usize {
        self.segment_requests.load(Ordering::Relaxed)
    }

    /// Pixels segmented so far.
    pub(crate) fn pixels_total(&self) -> u64 {
        self.pixels_total.load(Ordering::Relaxed)
    }

    /// Frames rejected so far.
    pub fn protocol_errors(&self) -> usize {
        self.protocol_errors.load(Ordering::Relaxed)
    }

    /// Connections accepted since boot.
    pub(crate) fn connections_total(&self) -> usize {
        self.connections_total.load(Ordering::Relaxed)
    }

    /// Connections currently open.
    pub(crate) fn connections_open(&self) -> usize {
        self.connections_open.load(Ordering::Relaxed)
    }
}

/// A frozen statistics snapshot, as carried by a `StatsReply` frame.
///
/// Combines the aggregate server counters, the arena's recycling counters
/// (the "arena hits" the pipeline earns), the serialized
/// [`seg_engine::SegmentPlan`] spec, and the requesting *connection's* own
/// counters — so a client sees both the server-wide picture and its share.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsSnapshot {
    /// The server's segmentation strategy (`SegmentPlan::to_spec` format).
    pub plan: String,
    /// Seconds since the server started.
    pub uptime_secs: f64,
    /// Connections accepted since boot.
    pub connections_total: usize,
    /// Connections currently open.
    pub connections_open: usize,
    /// Frames handled (any op).
    pub requests_total: usize,
    /// Segment requests completed.
    pub segment_requests: usize,
    /// Pixels segmented.
    pub pixels_total: u64,
    /// Frames that failed to decode or execute.
    pub protocol_errors: usize,
    /// Label-buffer allocations the arena could not avoid.
    pub arena_allocations: usize,
    /// Label-buffer takes served from the recycling pool (arena hits).  A
    /// cache hit takes none: it replies from the cache entry's own buffer.
    pub arena_reuses: usize,
    /// Buffers currently pooled in the arena.
    pub arena_pooled: usize,
    /// Pixel-buffer allocations for decoded segment requests that the
    /// pixel arena could not avoid.
    pub pixel_arena_allocations: usize,
    /// Pixel buffers currently pooled in the pixel arena.
    pub pixel_arena_pooled: usize,
    /// Maximum concurrently-executing segment requests.
    pub max_inflight: usize,
    /// Result-cache lookups answered from the cache (0 when disabled).
    pub cache_hits: usize,
    /// Result-cache lookups that missed (0 when disabled).
    pub cache_misses: usize,
    /// Result-cache entries evicted under the byte budget (0 when disabled).
    pub cache_evictions: usize,
    /// Entries resident in the result cache.
    pub cache_entries: usize,
    /// Bytes charged against the result cache's budget.
    pub cache_bytes: usize,
    /// The result cache's configured byte budget (0 = caching disabled).
    pub cache_capacity_bytes: usize,
    /// Delta-path tiles answered from the result cache (0 when disabled or
    /// when no `SegmentDelta` request has been served).
    pub delta_tiles_hit: usize,
    /// Delta-path tiles re-classified because their content hash missed.
    pub delta_tiles_recomputed: usize,
    /// Always 0: no classifier kind routes pixels to a fallback any more.
    /// The field stays on the wire, in its place in the stats text, because
    /// existing clients and the loopback benchmark read it.
    pub quant_fallback_pixels: u64,
    /// Segment requests refused with a typed `Busy` reply.  This daemon
    /// sheds nothing (a saturated reactor stops reading instead), so it
    /// always reports 0; the key stays because existing clients and the
    /// loopback benchmark read it.
    pub busy_rejections: usize,
    /// Service-latency samples recorded (one per completed segment request).
    /// A sample times only the pipeline's own work: key and lookup for a
    /// cache hit, plus classification and insert for a miss.  Frame decode,
    /// the wait behind other frames, reply encode and the socket write all
    /// fall outside it.
    pub lat_count: u64,
    /// Median pipeline-call time in microseconds (see `lat_count`).
    pub lat_p50_us: u64,
    /// 90th-percentile pipeline-call time in microseconds.
    pub lat_p90_us: u64,
    /// 99th-percentile pipeline-call time in microseconds.
    pub lat_p99_us: u64,
    /// 99.9th-percentile pipeline-call time in microseconds.
    pub lat_p999_us: u64,
    /// Maximum pipeline-call time in microseconds (exact, not
    /// bucket-quantised).
    pub lat_max_us: u64,
    /// Frames handled on the connection that asked for this snapshot.
    pub conn_requests: usize,
    /// Pixels segmented on the connection that asked for this snapshot.
    pub conn_pixels: u64,
    /// `key=value` pairs this decoder did not recognise, preserved verbatim
    /// (sorted by key) so they survive a decode→encode round trip — a newer
    /// daemon's keys are never dropped by an older relay.
    pub extra: BTreeMap<String, String>,
}

impl StatsSnapshot {
    /// Fills the latency fields from a histogram summary (nanoseconds →
    /// microseconds).
    pub(crate) fn set_latency(&mut self, summary: LatencySummary) {
        self.lat_count = summary.count;
        self.lat_p50_us = summary.p50_ns / 1_000;
        self.lat_p90_us = summary.p90_ns / 1_000;
        self.lat_p99_us = summary.p99_ns / 1_000;
        self.lat_p999_us = summary.p999_ns / 1_000;
        self.lat_max_us = summary.max_ns / 1_000;
    }
}

impl StatsSnapshot {
    /// Renders the snapshot as `key=value` lines (the `StatsReply` payload).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let mut push = |key: &str, value: String| {
            out.push_str(key);
            out.push('=');
            out.push_str(&value);
            out.push('\n');
        };
        push("plan", self.plan.clone());
        push("uptime_secs", format!("{:.3}", self.uptime_secs));
        push("connections_total", self.connections_total.to_string());
        push("connections_open", self.connections_open.to_string());
        push("requests_total", self.requests_total.to_string());
        push("segment_requests", self.segment_requests.to_string());
        push("pixels_total", self.pixels_total.to_string());
        push("protocol_errors", self.protocol_errors.to_string());
        push("arena_allocations", self.arena_allocations.to_string());
        push("arena_reuses", self.arena_reuses.to_string());
        push("arena_pooled", self.arena_pooled.to_string());
        push(
            "pixel_arena_allocations",
            self.pixel_arena_allocations.to_string(),
        );
        push("pixel_arena_pooled", self.pixel_arena_pooled.to_string());
        push("max_inflight", self.max_inflight.to_string());
        push("cache_hits", self.cache_hits.to_string());
        push("cache_misses", self.cache_misses.to_string());
        push("cache_evictions", self.cache_evictions.to_string());
        push("cache_entries", self.cache_entries.to_string());
        push("cache_bytes", self.cache_bytes.to_string());
        push(
            "cache_capacity_bytes",
            self.cache_capacity_bytes.to_string(),
        );
        push("delta_tiles_hit", self.delta_tiles_hit.to_string());
        push(
            "delta_tiles_recomputed",
            self.delta_tiles_recomputed.to_string(),
        );
        push(
            "quant_fallback_pixels",
            self.quant_fallback_pixels.to_string(),
        );
        push("busy_rejections", self.busy_rejections.to_string());
        push("lat_count", self.lat_count.to_string());
        push("lat_p50_us", self.lat_p50_us.to_string());
        push("lat_p90_us", self.lat_p90_us.to_string());
        push("lat_p99_us", self.lat_p99_us.to_string());
        push("lat_p999_us", self.lat_p999_us.to_string());
        push("lat_max_us", self.lat_max_us.to_string());
        push("conn_requests", self.conn_requests.to_string());
        push("conn_pixels", self.conn_pixels.to_string());
        for (key, value) in &self.extra {
            push(key, value.clone());
        }
        out
    }

    /// Parses a snapshot back out of `key=value` lines.
    ///
    /// Unknown keys are preserved in [`StatsSnapshot::extra`] (newer servers
    /// may add fields, and re-encoding must not drop them); a missing `plan`
    /// key or an unparsable number is an error.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut snapshot = StatsSnapshot::default();
        let mut saw_plan = false;
        for line in text.lines() {
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("stats line '{line}' has no '='"))?;
            let bad = |what: &str| format!("stats key '{key}' has invalid {what} '{value}'");
            match key {
                "plan" => {
                    snapshot.plan = value.to_string();
                    saw_plan = true;
                }
                "uptime_secs" => snapshot.uptime_secs = value.parse().map_err(|_| bad("float"))?,
                "connections_total" => {
                    snapshot.connections_total = value.parse().map_err(|_| bad("count"))?
                }
                "connections_open" => {
                    snapshot.connections_open = value.parse().map_err(|_| bad("count"))?
                }
                "requests_total" => {
                    snapshot.requests_total = value.parse().map_err(|_| bad("count"))?
                }
                "segment_requests" => {
                    snapshot.segment_requests = value.parse().map_err(|_| bad("count"))?
                }
                "pixels_total" => {
                    snapshot.pixels_total = value.parse().map_err(|_| bad("count"))?
                }
                "protocol_errors" => {
                    snapshot.protocol_errors = value.parse().map_err(|_| bad("count"))?
                }
                "arena_allocations" => {
                    snapshot.arena_allocations = value.parse().map_err(|_| bad("count"))?
                }
                "arena_reuses" => {
                    snapshot.arena_reuses = value.parse().map_err(|_| bad("count"))?
                }
                "arena_pooled" => {
                    snapshot.arena_pooled = value.parse().map_err(|_| bad("count"))?
                }
                "pixel_arena_allocations" => {
                    snapshot.pixel_arena_allocations = value.parse().map_err(|_| bad("count"))?
                }
                "pixel_arena_pooled" => {
                    snapshot.pixel_arena_pooled = value.parse().map_err(|_| bad("count"))?
                }
                "max_inflight" => {
                    snapshot.max_inflight = value.parse().map_err(|_| bad("count"))?
                }
                "cache_hits" => snapshot.cache_hits = value.parse().map_err(|_| bad("count"))?,
                "cache_misses" => {
                    snapshot.cache_misses = value.parse().map_err(|_| bad("count"))?
                }
                "cache_evictions" => {
                    snapshot.cache_evictions = value.parse().map_err(|_| bad("count"))?
                }
                "cache_entries" => {
                    snapshot.cache_entries = value.parse().map_err(|_| bad("count"))?
                }
                "cache_bytes" => snapshot.cache_bytes = value.parse().map_err(|_| bad("count"))?,
                "cache_capacity_bytes" => {
                    snapshot.cache_capacity_bytes = value.parse().map_err(|_| bad("count"))?
                }
                "delta_tiles_hit" => {
                    snapshot.delta_tiles_hit = value.parse().map_err(|_| bad("count"))?
                }
                "delta_tiles_recomputed" => {
                    snapshot.delta_tiles_recomputed = value.parse().map_err(|_| bad("count"))?
                }
                "quant_fallback_pixels" => {
                    snapshot.quant_fallback_pixels = value.parse().map_err(|_| bad("count"))?
                }
                "conn_requests" => {
                    snapshot.conn_requests = value.parse().map_err(|_| bad("count"))?
                }
                "conn_pixels" => snapshot.conn_pixels = value.parse().map_err(|_| bad("count"))?,
                "busy_rejections" => {
                    snapshot.busy_rejections = value.parse().map_err(|_| bad("count"))?
                }
                "lat_count" => snapshot.lat_count = value.parse().map_err(|_| bad("count"))?,
                "lat_p50_us" => snapshot.lat_p50_us = value.parse().map_err(|_| bad("count"))?,
                "lat_p90_us" => snapshot.lat_p90_us = value.parse().map_err(|_| bad("count"))?,
                "lat_p99_us" => snapshot.lat_p99_us = value.parse().map_err(|_| bad("count"))?,
                "lat_p999_us" => snapshot.lat_p999_us = value.parse().map_err(|_| bad("count"))?,
                "lat_max_us" => snapshot.lat_max_us = value.parse().map_err(|_| bad("count"))?,
                _ => {
                    snapshot.extra.insert(key.to_string(), value.to_string());
                }
            }
        }
        if !saw_plan {
            return Err("stats snapshot is missing the 'plan' key".to_string());
        }
        Ok(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StatsSnapshot {
        StatsSnapshot {
            plan: "classifier=table;tile=off;backend=threads:4".to_string(),
            uptime_secs: 12.5,
            connections_total: 9,
            connections_open: 4,
            requests_total: 120,
            segment_requests: 100,
            pixels_total: 1_920_000,
            protocol_errors: 2,
            arena_allocations: 6,
            arena_reuses: 94,
            arena_pooled: 6,
            pixel_arena_allocations: 2,
            pixel_arena_pooled: 2,
            max_inflight: 4,
            cache_hits: 70,
            cache_misses: 30,
            cache_evictions: 5,
            cache_entries: 25,
            cache_bytes: 12_000_000,
            cache_capacity_bytes: 64 << 20,
            delta_tiles_hit: 44,
            delta_tiles_recomputed: 11,
            quant_fallback_pixels: 17,
            busy_rejections: 3,
            lat_count: 100,
            lat_p50_us: 900,
            lat_p90_us: 1_500,
            lat_p99_us: 4_000,
            lat_p999_us: 9_000,
            lat_max_us: 12_345,
            conn_requests: 31,
            conn_pixels: 480_000,
            extra: BTreeMap::new(),
        }
    }

    #[test]
    fn snapshot_round_trips_through_text() {
        let snapshot = sample();
        let parsed = StatsSnapshot::from_text(&snapshot.to_text()).unwrap();
        assert_eq!(parsed, snapshot);
        // The plan value itself contains '=' characters; first-'=' splitting
        // must preserve it verbatim.
        assert!(parsed.plan.contains("backend=threads:4"));
    }

    #[test]
    fn unknown_keys_are_preserved_and_missing_plan_is_an_error() {
        let mut text = sample().to_text();
        text.push_str("future_field=42\n");
        text.push_str("future_spec=a=b;c=d\n");
        let parsed = StatsSnapshot::from_text(&text).unwrap();
        assert_eq!(parsed.extra.get("future_field").unwrap(), "42");
        assert_eq!(
            parsed.extra.get("future_spec").unwrap(),
            "a=b;c=d",
            "first-'=' splitting preserves '=' inside unknown values too"
        );
        // The unknown keys survive a full decode → encode → decode cycle.
        let reencoded = StatsSnapshot::from_text(&parsed.to_text()).unwrap();
        assert_eq!(reencoded, parsed);
        // Text from an older daemon still carries the retired
        // uptime-averaged rate, the summary of the retired boot-time plan
        // probe, the retired cache-snapshot warm-load figure and the retired
        // admission limit; it parses, and the keys land in `extra`.
        let mut older = sample().to_text();
        older.push_str("mpix_per_sec=153.600\n");
        older.push_str("calibration=cores=2;probes=5\n");
        older.push_str("cache_warm_loaded_entries=12\n");
        older.push_str("max_queue=4\n");
        let parsed = StatsSnapshot::from_text(&older).unwrap();
        assert_eq!(parsed.extra.get("mpix_per_sec").unwrap(), "153.600");
        assert_eq!(parsed.extra.get("calibration").unwrap(), "cores=2;probes=5");
        assert_eq!(parsed.extra.get("cache_warm_loaded_entries").unwrap(), "12");
        assert_eq!(parsed.extra.get("max_queue").unwrap(), "4");
        assert_eq!(
            StatsSnapshot {
                extra: BTreeMap::new(),
                ..parsed
            },
            sample()
        );
        assert!(StatsSnapshot::from_text("requests_total=1\n").is_err());
        assert!(StatsSnapshot::from_text("requests_total\n").is_err());
        assert!(StatsSnapshot::from_text("plan=x\nrequests_total=abc\n").is_err());
    }

    #[test]
    fn latency_fields_convert_histogram_nanoseconds_to_microseconds() {
        let mut snapshot = sample();
        snapshot.set_latency(LatencySummary {
            count: 7,
            p50_ns: 1_500,
            p90_ns: 2_000_000,
            p99_ns: 3_000_000,
            p999_ns: 3_000_000,
            max_ns: 4_123_456,
        });
        assert_eq!(snapshot.lat_count, 7);
        assert_eq!(snapshot.lat_p50_us, 1);
        assert_eq!(snapshot.lat_p90_us, 2_000);
        assert_eq!(snapshot.lat_max_us, 4_123);
    }

    #[test]
    fn latency_counters_accumulate() {
        let stats = ServerStats::new();
        stats.record_latency(Duration::from_micros(250));
        stats.record_latency(Duration::from_micros(750));
        let summary = stats.latency_summary();
        assert_eq!(summary.count, 2);
        assert!(summary.max_ns >= 750_000);
    }

    #[test]
    fn live_counters_accumulate() {
        let stats = ServerStats::new();
        stats.connection_opened();
        stats.connection_opened();
        stats.connection_closed();
        stats.request();
        stats.request();
        stats.segmented(1000);
        stats.protocol_error();
        assert_eq!(stats.connections_total(), 2);
        assert_eq!(stats.connections_open(), 1);
        assert_eq!(stats.requests_total(), 2);
        assert_eq!(stats.segment_requests(), 1);
        assert_eq!(stats.pixels_total(), 1000);
        assert_eq!(stats.protocol_errors(), 1);
    }
}
