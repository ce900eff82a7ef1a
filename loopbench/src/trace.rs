//! The traced run: spans around each layer's public functions, replayed in
//! the benchmark process on the same frame right after its `Client` call.
//!
//! Per request, a root span `loadgen.request` parents the
//! `iqft-serve.client.round_trip` span (the `Client` call itself) and one
//! sibling span per layer call, all sharing the request id.  Spans stay in
//! memory and are written once, at exit.

use crate::daemon::Reply;
use crate::pct::percentile;
use crate::workload::{entry_bytes, plan, Inputs, Op, Shape, CONNECTIONS};
use imaging::{LabelMap, Rgb, RgbImage};
use iqft_pipeline::{CacheConfig, LabelArena, PipelineConfig, SegmentCache, SegmentPipeline};
use iqft_seg::IqftClassifier;
use iqft_serve::protocol::{self, Message};
use seg_engine::SegmentPlan;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

pub const REQUEST: &str = "loadgen.request";
pub const ROUND_TRIP: &str = "iqft-serve.client.round_trip";
pub const CLASSIFY: &str = "iqft-seg.classify";
pub const KEY: &str = "iqft-pipeline.cache.key";
pub const LOOKUP: &str = "iqft-pipeline.cache.lookup";
pub const INSERT: &str = "iqft-pipeline.cache.insert";
pub const TILE_KEYS: &str = "iqft-pipeline.cache.tile_keys";
pub const PIPELINE_REQUEST: &str = "iqft-pipeline.request";
pub const ENCODE_REQUEST: &str = "iqft-serve.protocol.encode_request";
pub const DECODE_REQUEST: &str = "iqft-serve.protocol.decode_request";
pub const ENCODE_REPLY: &str = "iqft-serve.protocol.encode_reply";
pub const DECODE_REPLY: &str = "iqft-serve.protocol.decode_reply";
/// Not a span: per request, the round trip minus the served spans.
pub const TRANSPORT: &str = "iqft-serve.server.transport";

/// The daemon-side work the round trip contains besides transport: the
/// four protocol spans and the pipeline request.
const SERVED_SPANS: [&str; 5] = [
    ENCODE_REQUEST,
    DECODE_REQUEST,
    PIPELINE_REQUEST,
    ENCODE_REPLY,
    DECODE_REPLY,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// `0` for a root span.
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// State shared by the traced connections: the clock, span ids, and a
/// replica pipeline with the daemon's plan and cache config.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    plan: SegmentPlan,
    op: Op,
    replica: SegmentPipeline<IqftClassifier>,
}

impl Tracer {
    /// Builds the replica and feeds it the daemon's warm-up sequence, so it
    /// starts the traced phase in the same steady state.
    pub fn new(shape: &Shape, inputs: &Inputs) -> Tracer {
        let plan = plan();
        let replica = SegmentPipeline::new(plan.engine(), IqftClassifier::for_plan(&plan))
            .with_config(PipelineConfig {
                tiling: plan.tiling(),
                ..PipelineConfig::default()
            })
            .with_cache(shape.cache, &plan.to_spec());
        let tracer = Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            plan,
            op: shape.workload.op(),
            replica,
        };
        for k in 0..shape.frames_per_conn {
            for conn in 0..CONNECTIONS {
                let labels = tracer.pipeline_request(&inputs.frame(conn, k).image);
                tracer.replica.recycle(labels);
            }
        }
        tracer
    }

    fn pipeline_request(&self, image: &RgbImage) -> LabelMap {
        match self.op {
            Op::Cached => self.replica.segment_request_cached(image, false).0,
            Op::Delta => self.replica.segment_request_delta(image).0,
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// A per-connection recorder for frames of `pixels` pixels.
    pub fn recorder(&self, pixels: usize) -> Recorder<'_> {
        // The insert probe holds exactly one entry of this frame size, so
        // every insert of a new key evicts: the write path of a full cache.
        let probe = SegmentCache::new(
            CacheConfig {
                capacity_bytes: entry_bytes(pixels),
                shards: 1,
            },
            &self.plan.to_spec(),
        );
        let probe_arena = LabelArena::new();
        let filler = RgbImage::new(1, 1, Rgb::new(1, 2, 3));
        probe.insert(
            probe.key_for(&filler),
            &LabelMap::new(1, 1, 0u32),
            &probe_arena,
        );
        Recorder {
            tracer: self,
            classifier: IqftClassifier::for_plan(&self.plan),
            label_buf: Vec::new(),
            probe,
            probe_arena,
            spans: Vec::new(),
            wire: Wire::default(),
        }
    }
}

/// Exact frame sizes on the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Wire {
    pub pixels: u64,
    pub request_bytes: u64,
    pub reply_bytes: u64,
}

/// One connection's span log and its private copies of the layer state.
pub struct Recorder<'t> {
    tracer: &'t Tracer,
    classifier: IqftClassifier,
    label_buf: Vec<u32>,
    probe: SegmentCache,
    probe_arena: LabelArena,
    pub spans: Vec<Span>,
    pub wire: Wire,
}

impl Recorder<'_> {
    /// Runs `f` inside a span named `name`.
    fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        self.push(self.tracer.id(), name, request, parent, start, end);
        out
    }

    fn push(
        &mut self,
        id: u64,
        name: &'static str,
        request: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns: self.tracer.ns(start),
            end_ns: self.tracer.ns(end),
        });
    }

    /// Records the `Client` call that ran from `sent` to `done`, then
    /// replays each layer's public functions on the same frame and reply.
    pub fn replay(
        &mut self,
        request: u64,
        image: &RgbImage,
        reply: Reply,
        sent: Instant,
        done: Instant,
    ) {
        let tracer = self.tracer;
        let root = tracer.id();
        self.push(tracer.id(), ROUND_TRIP, request, root, sent, done);
        let (tw, th) = tracer.plan.tiling().delta_shape();
        let cache = tracer
            .replica
            .cache()
            .expect("every workload runs with a cache");

        self.span(CLASSIFY, request, root, |r| {
            tracer
                .plan
                .segment_rgb_into(&r.classifier, image, &mut r.label_buf)
        });
        let key = self.span(KEY, request, root, |_| cache.key_for(image));
        self.span(TILE_KEYS, request, root, |_| {
            for rect in image.tile_rects(tw, th) {
                let view = image.view(rect).expect("tile rects lie inside their image");
                black_box(cache.key_for_tile(&view, tw, th));
            }
        });
        let labels = self.span(PIPELINE_REQUEST, request, root, |_| {
            tracer.pipeline_request(image)
        });
        tracer.replica.recycle(labels);
        self.span(INSERT, request, root, |r| {
            r.probe.insert(key, &reply.labels, &r.probe_arena)
        });
        let hit = self.span(LOOKUP, request, root, |r| {
            r.probe.lookup(key, &r.probe_arena)
        });
        self.probe_arena
            .recycle(hit.expect("a just-inserted key is resident"));

        let frame = self.span(ENCODE_REQUEST, request, root, |_| match tracer.op {
            Op::Cached => protocol::encode_segment_cached(request, image, false),
            Op::Delta => protocol::encode_segment_delta(request, image),
        });
        let frame = frame.expect("a benchmark frame encodes");
        let decoded = self.span(DECODE_REQUEST, request, root, |_| {
            protocol::decode_message(&frame)
        });
        drop(decoded.expect("an encoded request decodes"));
        let message = match tracer.op {
            Op::Cached => Message::SegmentCachedReply {
                labels: reply.labels,
                cached: reply.cached,
            },
            Op::Delta => Message::SegmentDeltaReply {
                labels: reply.labels,
                tiles_hit: reply.tiles_hit,
                tiles_recomputed: reply.tiles_recomputed,
            },
        };
        let reply_frame = self.span(ENCODE_REPLY, request, root, |_| {
            protocol::encode_message(request, &message)
        });
        let reply_frame = reply_frame.expect("a reply encodes");
        let decoded = self.span(DECODE_REPLY, request, root, |_| {
            protocol::decode_message(&reply_frame)
        });
        drop(decoded.expect("an encoded reply decodes"));

        self.wire = Wire {
            pixels: self.wire.pixels + image.len() as u64,
            request_bytes: self.wire.request_bytes + frame.len() as u64,
            reply_bytes: self.wire.reply_bytes + reply_frame.len() as u64,
        };
        self.push(root, REQUEST, request, 0, sent, Instant::now());
    }
}

/// Each span name's p50 self time in milliseconds, plus
/// `iqft-serve.server.transport`: per request, the round trip minus the
/// served spans, at p50.  A span's self time is its duration minus its
/// children's; the children of one request run one after another, so they
/// never overlap.
pub fn self_times_ms(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children_ns: HashMap<u64, u64> = HashMap::new();
    for span in spans.iter().filter(|s| s.parent != 0) {
        *children_ns.entry(span.parent).or_default() += span.duration_ns();
    }
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut by_request: HashMap<u64, HashMap<&'static str, u64>> = HashMap::new();
    for span in spans {
        let own = span.duration_ns()
            - children_ns
                .get(&span.id)
                .copied()
                .unwrap_or(0)
                .min(span.duration_ns());
        by_name.entry(span.name).or_default().push(own as f64 / 1e6);
        by_request
            .entry(span.request)
            .or_default()
            .insert(span.name, span.duration_ns());
    }
    let mut transport: Vec<f64> = by_request
        .values()
        .filter_map(|named| {
            let round_trip = *named.get(ROUND_TRIP)? as f64;
            let served: u64 = SERVED_SPANS.iter().filter_map(|name| named.get(name)).sum();
            Some((round_trip - served as f64) / 1e6)
        })
        .collect();
    let mut p50s: BTreeMap<&'static str, f64> = by_name
        .into_iter()
        .map(|(name, mut ms)| {
            ms.sort_by(f64::total_cmp);
            (name, percentile(&ms, 50.0))
        })
        .collect();
    if !transport.is_empty() {
        transport.sort_by(f64::total_cmp);
        p50s.insert(TRANSPORT, percentile(&transport, 50.0));
    }
    p50s
}

/// Writes every span as one JSON line: name, start, end, parent, request.
pub fn dump(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u64,
        parent: u64,
        request: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_transport_subtracts_served_spans() {
        let ms = 1_000_000;
        let spans = [
            span(2, 1, 7, ROUND_TRIP, 0, 10 * ms),
            span(3, 1, 7, ENCODE_REQUEST, 10 * ms, 11 * ms),
            span(4, 1, 7, DECODE_REQUEST, 11 * ms, 12 * ms),
            span(5, 1, 7, PIPELINE_REQUEST, 12 * ms, 15 * ms),
            span(6, 1, 7, ENCODE_REPLY, 15 * ms, 16 * ms),
            span(7, 1, 7, DECODE_REPLY, 16 * ms, 17 * ms),
            span(1, 0, 7, REQUEST, 0, 20 * ms),
        ];
        let p50 = self_times_ms(&spans);
        assert_eq!(p50[REQUEST], 3.0, "20 ms minus 17 ms of children");
        assert_eq!(p50[PIPELINE_REQUEST], 3.0);
        assert_eq!(p50[TRANSPORT], 3.0, "10 ms minus 7 ms served");
    }
}
