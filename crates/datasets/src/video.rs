//! Synthetic streaming-video generator for the per-tile delta-cache path.
//!
//! Real video traffic is frame-coherent: consecutive frames share most of
//! their pixels and differ in a few moving regions.  [`synthetic_video`]
//! reproduces exactly that statistic with a controllable knob — each frame
//! copies its predecessor and mutates a chosen *fraction of the frame's
//! blocks* ([`VideoConfig::change_rate`]), drawing a seeded moving ball into
//! each mutated block and shifting every pixel byte in it so the change is
//! guaranteed to be visible to a content hash.  Untouched blocks are
//! byte-identical to the previous frame by construction, which is what lets
//! the delta cache's hit ratio be asserted exactly in tests and benches.
//!
//! Like every generator in this crate the stream is fully deterministic:
//! the same [`VideoConfig`] always produces the same frames.

use imaging::draw;
use imaging::{Rgb, RgbImage};

/// Default mutation-block edge in pixels.  Matches the delta cache's default
/// tile edge (`seg_engine::Tiling::DEFAULT_DELTA_TILE`) so a default-config
/// video stresses the default-config delta path one block per tile.
pub(crate) const DEFAULT_BLOCK: usize = 64;

/// Parameters for [`synthetic_video`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VideoConfig {
    /// Number of frames in the stream.
    pub frames: usize,
    /// Frame width in pixels.
    pub width: usize,
    /// Frame height in pixels.
    pub height: usize,
    /// Fraction of the frame's blocks mutated per frame, clamped to
    /// `0.0..=1.0`.  `0.0` repeats the first frame verbatim; `1.0` changes
    /// every block of every frame.
    pub change_rate: f64,
    /// Mutation-block edge in pixels (0 = `DEFAULT_BLOCK`).  Edge blocks
    /// are clamped to the frame, mirroring tile clamping.
    pub block: usize,
    /// RNG seed; the stream is a pure function of the whole config.
    pub seed: u64,
}

impl Default for VideoConfig {
    fn default() -> Self {
        Self {
            frames: 8,
            width: 256,
            height: 192,
            change_rate: 0.1,
            block: 0,
            seed: 42,
        }
    }
}

impl VideoConfig {
    /// The effective mutation-block edge.
    pub(crate) fn effective_block(&self) -> usize {
        if self.block == 0 {
            DEFAULT_BLOCK
        } else {
            self.block
        }
    }

    /// Number of mutation blocks per frame (edge blocks clamped, so this is
    /// `ceil(w/b) × ceil(h/b)`).
    pub(crate) fn blocks_per_frame(&self) -> usize {
        let b = self.effective_block();
        self.width.div_ceil(b) * self.height.div_ceil(b)
    }

    /// Exact number of blocks mutated in each frame after the first:
    /// `ceil(change_rate × blocks_per_frame)`, so any non-zero rate changes
    /// at least one block.
    pub(crate) fn changed_blocks_per_frame(&self) -> usize {
        let rate = self.change_rate.clamp(0.0, 1.0);
        let blocks = self.blocks_per_frame();
        ((rate * blocks as f64).ceil() as usize).min(blocks)
    }
}

/// The xorshift64* generator the experiments harness also uses for traffic
/// shaping — small, seedable, and good enough for scene placement.
struct FrameRng(u64);

impl FrameRng {
    fn new(seed: u64) -> Self {
        Self(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound.max(1) as u64) as usize
    }
}

/// The first frame: a deterministic "scene" of smooth gradients with a few
/// seeded balls, so every intensity band the classifiers care about is
/// populated.
fn base_frame(config: &VideoConfig, rng: &mut FrameRng) -> RgbImage {
    let seed = config.seed;
    let mut frame = RgbImage::from_fn(config.width, config.height, move |x, y| {
        Rgb::new(
            ((x * 5 + y) as u64 + seed) as u8,
            ((y * 3 + x / 2) as u64 + seed / 3) as u8,
            (((x + y) * 2) as u64 + seed / 7) as u8,
        )
    });
    let radius = ((config.width.min(config.height) / 8).max(2)) as i64;
    for _ in 0..6 {
        let cx = rng.below(config.width) as i64;
        let cy = rng.below(config.height) as i64;
        let color = Rgb::new(
            rng.next_u64() as u8,
            rng.next_u64() as u8,
            rng.next_u64() as u8,
        );
        draw::fill_circle(&mut frame, cx, cy, radius, color);
    }
    frame
}

/// Mutates one block of `frame` in place: draws a seeded ball into it, then
/// shifts every pixel's red channel by an odd constant so *every* byte row
/// of the block differs from the previous frame regardless of where the
/// ball landed.
fn mutate_block(frame: &mut RgbImage, bx: usize, by: usize, block: usize, rng: &mut FrameRng) {
    let x0 = bx * block;
    let y0 = by * block;
    let x1 = (x0 + block).min(frame.width());
    let y1 = (y0 + block).min(frame.height());
    let w = x1 - x0;
    let h = y1 - y0;
    // The ball must stay strictly inside the block — a mutation that bled
    // into a neighbouring block would change more blocks than configured.
    if w >= 3 && h >= 3 {
        let radius = (w.min(h) / 4).max(1);
        let cx = (x0 + radius + rng.below(w - 2 * radius)) as i64;
        let cy = (y0 + radius + rng.below(h - 2 * radius)) as i64;
        let color = Rgb::new(
            rng.next_u64() as u8,
            rng.next_u64() as u8,
            rng.next_u64() as u8,
        );
        draw::fill_circle(frame, cx, cy, radius as i64, color);
    }
    let shift = (rng.next_u64() as u8) | 1;
    for y in y0..y1 {
        for x in x0..x1 {
            let px = frame.get(x, y);
            frame.set(x, y, Rgb::new(px.r().wrapping_add(shift), px.g(), px.b()));
        }
    }
}

/// Generates a deterministic video stream per `config`.
///
/// Frame 0 is a seeded scene; each later frame copies its predecessor and
/// mutates exactly `VideoConfig::changed_blocks_per_frame` *distinct*
/// blocks.  All other pixels are byte-identical to the previous frame.
pub fn synthetic_video(config: &VideoConfig) -> Vec<RgbImage> {
    let mut rng = FrameRng::new(config.seed ^ 0x5EED_F00D_CAFE_D00D);
    let mut frames = Vec::with_capacity(config.frames);
    if config.frames == 0 {
        return frames;
    }
    frames.push(base_frame(config, &mut rng));
    let block = config.effective_block();
    let cols = config.width.div_ceil(block);
    let changes = config.changed_blocks_per_frame();
    let total = config.blocks_per_frame();
    let mut block_ids: Vec<usize> = (0..total).collect();
    for _ in 1..config.frames {
        let mut frame = frames.last().expect("frame 0 exists").clone();
        // Partial Fisher-Yates: the first `changes` entries become a
        // uniformly-chosen set of distinct block indices.
        for i in 0..changes {
            let j = i + rng.below(total - i);
            block_ids.swap(i, j);
        }
        for &id in &block_ids[..changes] {
            mutate_block(&mut frame, id % cols, id / cols, block, &mut rng);
        }
        frames.push(frame);
    }
    frames
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_changed_blocks(a: &RgbImage, b: &RgbImage, block: usize) -> usize {
        let cols = a.width().div_ceil(block);
        let rows = a.height().div_ceil(block);
        (0..cols * rows)
            .filter(|id| {
                let x0 = (id % cols) * block;
                let y0 = (id / cols) * block;
                let x1 = (x0 + block).min(a.width());
                let y1 = (y0 + block).min(a.height());
                (y0..y1).any(|y| (x0..x1).any(|x| a.get(x, y) != b.get(x, y)))
            })
            .count()
    }

    #[test]
    fn streams_are_deterministic() {
        let config = VideoConfig {
            frames: 4,
            width: 96,
            height: 64,
            change_rate: 0.25,
            block: 32,
            seed: 7,
        };
        assert_eq!(synthetic_video(&config), synthetic_video(&config));
        let other = VideoConfig { seed: 8, ..config };
        assert_ne!(synthetic_video(&config)[0], synthetic_video(&other)[0]);
    }

    #[test]
    fn change_rate_mutates_exactly_the_configured_block_count() {
        for (rate, expected) in [(0.0, 0usize), (0.25, 2), (0.5, 3), (1.0, 6)] {
            let config = VideoConfig {
                frames: 5,
                width: 96,  // 3 columns of 32-px blocks
                height: 64, // 2 rows
                change_rate: rate,
                block: 32,
                seed: 11,
            };
            assert_eq!(config.blocks_per_frame(), 6);
            assert_eq!(config.changed_blocks_per_frame(), expected, "rate={rate}");
            let frames = synthetic_video(&config);
            for pair in frames.windows(2) {
                assert_eq!(
                    count_changed_blocks(&pair[0], &pair[1], 32),
                    expected,
                    "rate={rate}"
                );
            }
        }
    }

    #[test]
    fn zero_rate_repeats_the_first_frame_byte_identically() {
        let config = VideoConfig {
            frames: 3,
            width: 80,
            height: 50,
            change_rate: 0.0,
            block: 0,
            seed: 3,
        };
        let frames = synthetic_video(&config);
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0], frames[1]);
        assert_eq!(frames[0], frames[2]);
    }

    #[test]
    fn tiny_nonzero_rates_still_change_at_least_one_block() {
        let config = VideoConfig {
            frames: 2,
            width: 128,
            height: 128,
            change_rate: 0.001,
            block: 32,
            seed: 5,
        };
        assert_eq!(config.changed_blocks_per_frame(), 1);
        let frames = synthetic_video(&config);
        assert_ne!(frames[0], frames[1]);
        assert_eq!(count_changed_blocks(&frames[0], &frames[1], 32), 1);
    }

    #[test]
    fn non_divisible_frames_clamp_edge_blocks() {
        let config = VideoConfig {
            frames: 3,
            width: 53,
            height: 37,
            change_rate: 1.0,
            block: 32,
            seed: 9,
        };
        assert_eq!(config.blocks_per_frame(), 4);
        let frames = synthetic_video(&config);
        for frame in &frames {
            assert_eq!(frame.dimensions(), (53, 37));
        }
        assert_eq!(count_changed_blocks(&frames[0], &frames[1], 32), 4);
    }

    #[test]
    fn config_helpers_cover_defaults() {
        let config = VideoConfig::default();
        assert_eq!(config.effective_block(), DEFAULT_BLOCK);
        assert!(config.blocks_per_frame() > 0);
        assert_eq!(
            synthetic_video(&VideoConfig {
                frames: 0,
                ..config
            })
            .len(),
            0
        );
    }
}
