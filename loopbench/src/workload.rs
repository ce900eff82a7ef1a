//! The three workloads: their fixed shapes, and the inputs and reference
//! labels generated from a workload seed.
//!
//! Everything here is a pure function of the seed: the daemon only ever
//! sees the frames built here, and the request sequence of connection `c`
//! is `frames[c][k % frames[c].len()]` for its `k`-th request.

use datasets::{synthetic_video, PascalVocLikeConfig, PascalVocLikeDataset, VideoConfig};
use imaging::RgbImage;
use iqft_pipeline::cache::ENTRY_OVERHEAD_BYTES;
use iqft_pipeline::CacheConfig;
use iqft_seg::IqftClassifier;
use seg_engine::SegmentPlan;

/// The plan the daemon serves.  Pinned: `auto` would let calibration pick
/// the plan by measured speed, which changes between runs on a noisy host.
pub const PLAN: &str = "classifier=simd;tile=off;backend=serial";
/// The plan the reference labels come from.  `table` is bit-identical to
/// the exact oracle by construction, so the served SIMD path never checks
/// itself.
pub const REFERENCE_PLAN: &str = "classifier=table;tile=off;backend=serial";
/// Client threads, each with its own connection.  Fixed, not derived from
/// the host.
pub const CONNECTIONS: usize = 2;

/// Which traffic mix a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop of distinct 1024×768 `SegmentCached` frames cycling a set
    /// larger than the result cache: every request misses and evicts.
    FreshFrames,
    /// Closed loop of 256×192 `SegmentCached` frames over a hot set the
    /// cache holds: every request hits.
    RepeatHits,
    /// Open loop of 640×480 `SegmentDelta` video frames, one camera per
    /// connection, on a fixed schedule.
    VideoDelta,
}

/// How the daemon answers a workload's requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `SegmentCached`: whole-frame result cache.
    Cached,
    /// `SegmentDelta`: per-tile delta cache.
    Delta,
}

/// Everything that sizes a workload.  The three real workloads use
/// [`Workload::shape`]; the self-tests shrink frames and mis-size caches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    pub workload: Workload,
    pub width: usize,
    pub height: usize,
    /// Distinct frames per connection: the cycled set, the hot set, or the
    /// clip length.
    pub frames_per_conn: usize,
    /// The daemon's result cache.
    pub cache: CacheConfig,
    /// Frames per second per camera (open loop only).
    pub fps: u32,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::FreshFrames,
        Workload::RepeatHits,
        Workload::VideoDelta,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FreshFrames => "fresh_frames",
            Workload::RepeatHits => "repeat_hits",
            Workload::VideoDelta => "video_delta",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn op(self) -> Op {
        match self {
            Workload::VideoDelta => Op::Delta,
            _ => Op::Cached,
        }
    }

    /// The fixed shape the benchmark runs this workload at.
    pub fn shape(self) -> Shape {
        match self {
            // Four frames per connection, a cache of three: each connection's
            // own cycle evicts a frame before it comes round again, whatever
            // the other connection does.  One shard, because a 9 MiB budget
            // split over the default eight shards is smaller than one entry
            // and would store nothing.
            Workload::FreshFrames => Shape {
                workload: self,
                width: 1024,
                height: 768,
                frames_per_conn: 4,
                cache: CacheConfig {
                    capacity_bytes: 3 * entry_bytes(1024 * 768),
                    shards: 1,
                },
                fps: 0,
            },
            // 128 hot frames (24 MiB of labels) under a 64 MiB budget: no
            // shard can overflow, since each of the eight holds 42 entries
            // and a shard is sent 16 on average.  A hot set this large also
            // gives the warm-up pass that `setup_s` times real work.
            Workload::RepeatHits => Shape {
                workload: self,
                width: 256,
                height: 192,
                frames_per_conn: 64,
                cache: CacheConfig::with_capacity_mb(64),
                fps: 0,
            },
            // A 50-frame clip per camera at 25 fps, 5% of blocks changed per
            // frame.  Two cameras at 25 fps keep the one worker about a third
            // busy, so the schedule stays well under capacity even when the
            // host slows down.  The tile cache holds about two frames per
            // camera, so each pass of the clip evicts everything older than
            // about 20 frames and every pass sees the same hits.
            Workload::VideoDelta => Shape {
                workload: self,
                width: 640,
                height: 480,
                frames_per_conn: 50,
                cache: CacheConfig {
                    capacity_bytes: 2
                        * CONNECTIONS
                        * tiles_per_frame(640, 480)
                        * entry_bytes(64 * 64),
                    shards: 0,
                },
                fps: 25,
            },
        }
    }
}

/// Bytes one cached label map of `pixels` labels is charged.
pub fn entry_bytes(pixels: usize) -> usize {
    pixels * 4 + ENTRY_OVERHEAD_BYTES
}

/// Tiles per frame on the delta path of [`PLAN`].
pub fn tiles_per_frame(width: usize, height: usize) -> usize {
    let (tw, th) = plan().tiling().delta_shape();
    width.div_ceil(tw) * height.div_ceil(th)
}

pub fn plan() -> SegmentPlan {
    PLAN.parse().expect("the pinned plan spec parses")
}

/// One distinct input frame and its reference labels (0..=7, one byte per
/// pixel to keep the references small).
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    pub image: RgbImage,
    pub reference: Vec<u8>,
}

impl Frame {
    pub fn pixels(&self) -> usize {
        self.image.len()
    }

    /// Whether `labels` equal the reference, label for label.
    pub fn matches(&self, labels: &[u32]) -> bool {
        labels.len() == self.reference.len()
            && labels
                .iter()
                .zip(&self.reference)
                .all(|(&got, &want)| got == u32::from(want))
    }
}

/// The generated inputs: per connection, its distinct frames in request
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    pub conns: Vec<Vec<Frame>>,
}

impl Inputs {
    /// Connection `conn`'s frame for its `k`-th request.
    pub fn frame(&self, conn: usize, k: usize) -> &Frame {
        let frames = &self.conns[conn];
        &frames[k % frames.len()]
    }

    pub fn distinct_frames(&self) -> usize {
        self.conns.iter().map(Vec::len).sum()
    }
}

/// Spreads the seed so that neighbouring seeds give unrelated inputs.  The
/// VOC-like generator seeds image `i` with `seed + i`, so sets built from
/// seeds 7 and 8 would share all but one image.
fn spread(seed: u64, stream: u64) -> u64 {
    let mut x = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Builds a shape's inputs and references from `seed`, using two threads.
pub fn build_inputs(shape: &Shape, seed: u64) -> Inputs {
    let n = shape.frames_per_conn;
    let images: Vec<Vec<RgbImage>> = match shape.workload.op() {
        Op::Cached => {
            // One set of 2n VOC-like scenes, split between the connections,
            // so every frame is distinct across connections too.
            let voc = PascalVocLikeDataset::new(PascalVocLikeConfig {
                len: CONNECTIONS * n,
                width: shape.width,
                height: shape.height,
                seed: spread(seed, 1),
                ..PascalVocLikeConfig::default()
            });
            let all = parallel_map(CONNECTIONS * n, |i| voc.sample(i).image);
            let mut all = all.into_iter();
            (0..CONNECTIONS)
                .map(|_| all.by_ref().take(n).collect())
                .collect()
        }
        Op::Delta => (0..CONNECTIONS)
            .map(|camera| {
                synthetic_video(&VideoConfig {
                    frames: n,
                    width: shape.width,
                    height: shape.height,
                    change_rate: 0.05,
                    block: 0,
                    seed: spread(seed, 2 + camera as u64),
                })
            })
            .collect(),
    };
    let reference_plan: SegmentPlan = REFERENCE_PLAN.parse().expect("reference plan parses");
    let oracle = IqftClassifier::for_plan(&reference_plan);
    let flat: Vec<&RgbImage> = images.iter().flatten().collect();
    let mut references = parallel_map(flat.len(), |i| {
        reference_plan
            .segment_rgb(&oracle, flat[i])
            .into_vec()
            .into_iter()
            .map(|label| u8::try_from(label).expect("IQFT labels are 0..=7"))
            .collect::<Vec<u8>>()
    })
    .into_iter();
    let conns = images
        .into_iter()
        .map(|frames| {
            frames
                .into_iter()
                .map(|image| Frame {
                    image,
                    reference: references.next().expect("one reference per frame"),
                })
                .collect()
        })
        .collect();
    Inputs { conns }
}

/// `(0..len).map(f)` on two threads, in order.
fn parallel_map<T: Send>(len: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let f = &f;
    std::thread::scope(|scope| {
        let odd = scope.spawn(move || (1..len).step_by(2).map(f).collect::<Vec<T>>());
        let even: Vec<T> = (0..len).step_by(2).map(f).collect();
        let odd = odd.join().expect("input generator thread panicked");
        let mut out = Vec::with_capacity(len);
        let (mut even, mut odd) = (even.into_iter(), odd.into_iter());
        for i in 0..len {
            out.push(
                if i % 2 == 0 { even.next() } else { odd.next() }.expect("one item per index"),
            );
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: Workload) -> Shape {
        Shape {
            width: 48,
            height: 40,
            frames_per_conn: 3,
            ..workload.shape()
        }
    }

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        for workload in Workload::ALL {
            let shape = tiny(workload);
            let a = build_inputs(&shape, 7);
            assert_eq!(a, build_inputs(&shape, 7), "{}", workload.name());
            let b = build_inputs(&shape, 8);
            assert_ne!(
                a.conns[0][0].image,
                b.conns[0][0].image,
                "{}",
                workload.name()
            );
            // The request sequence is the cycle over those frames.
            assert_eq!(a.frame(1, 4), &a.conns[1][1]);
        }
    }

    #[test]
    fn neighbouring_seeds_share_no_frame() {
        let shape = tiny(Workload::FreshFrames);
        let a = build_inputs(&shape, 7);
        let b = build_inputs(&shape, 8);
        for fa in a.conns.iter().flatten() {
            assert!(b.conns.iter().flatten().all(|fb| fa.image != fb.image));
        }
    }

    #[test]
    fn every_frame_of_a_set_is_distinct() {
        for workload in Workload::ALL {
            let inputs = build_inputs(&tiny(workload), 3);
            let all: Vec<_> = inputs.conns.iter().flatten().collect();
            for (i, a) in all.iter().enumerate() {
                assert!(all[i + 1..].iter().all(|b| a.image != b.image));
            }
        }
    }

    #[test]
    fn references_match_the_exact_oracle() {
        let inputs = build_inputs(&tiny(Workload::RepeatHits), 5);
        let exact = IqftClassifier::paper_default(seg_engine::ClassifierKind::Exact);
        for frame in inputs.conns.iter().flatten() {
            assert!(frame.matches(exact.segment_rgb(&frame.image).as_slice()));
        }
    }
}
