//! A sharded, content-addressed cache of finished segmentations.
//!
//! Real segmentation traffic is highly repetitive — the same frames arrive
//! again and again with the same θ-parameters — yet every request used to pay
//! the full classification cost.  [`SegmentCache`] keys a finished label
//! buffer by the *content* of the request (a 128-bit hand-rolled hash over
//! the pixel bytes, the image dimensions, and a caller-provided salt such as
//! `SegmentPlan::to_spec()`), so a repeated image is answered from the
//! cached labels instead of a classification pass.
//!
//! Design points:
//!
//! * **Striped content hash** — one hasher serves whole-frame keys and
//!   tile keys.  It reads the pixel bytes in place (a frame
//!   or a tile row is one byte slice, via `Rgb::slice_as_bytes`) in 32-byte
//!   stripes: four independent 64-bit lanes each absorb one 8-byte word per
//!   stripe with a multiply–rotate–multiply round, so the lanes' multiply
//!   chains overlap instead of waiting on one another.  The lanes are then
//!   merged into two 64-bit halves and each half gets a full avalanche.
//!   The layout follows XXH64/XXH3 (Collet,
//!   <https://github.com/Cyan4973/xxHash>) and the tests hold it to
//!   SMHasher's avalanche criterion (Appleby); the stream may be fed in
//!   chunks of any size without changing the key.
//! * **Sharded locking** — the key space is split across N independent
//!   mutex-guarded shards, so concurrent connections rarely contend on the
//!   same lock.
//! * **Byte-budget LRU eviction** — every shard owns an equal slice of the
//!   configured byte budget and evicts its least-recently-used entries when
//!   an insert would overflow it.  An entry larger than a whole shard's
//!   budget is never stored (it would evict everything for one request).
//! * **Arena integration** — cached label buffers come from the pipeline's
//!   existing [`LabelArena`] and go back to it, so a warm cache keeps the
//!   steady state allocation-free end to end.
//! * **One buffer per result, shared** — an entry holds its labels as an
//!   `Arc<LabelMap>`: a miss stores the very buffer it classified into and
//!   replies from it too ([`SegmentCache::insert_shared`]), and a hit
//!   replies from the entry itself ([`SegmentCache::lookup_shared`]).  A
//!   shared buffer is never written while shared, and an eviction drops
//!   only the cache's reference, so it can never touch a reply in flight;
//!   the buffer returns to the arena when its last holder lets go
//!   ([`LabelArena::release`]).  [`SegmentCache::lookup`] and
//!   [`SegmentCache::insert`] are copying wrappers over the two.
//! * **Correctness over capacity** — keys are 128 bits (two 64-bit halves
//!   of one striped hash) and carry the image dimensions, which makes an
//!   accidental collision between distinct requests astronomically
//!   unlikely and a dimension mix-up impossible.
//!
//! Hit results are byte-identical to a fresh segmentation by construction:
//! the cache only ever stores bytes produced by the pipeline itself, and
//! `tests/service_roundtrip.rs` plus the loadgen's default-on verification
//! enforce the identity end to end.

use crate::arena::LabelArena;
use imaging::{ImageView, LabelMap, LabelViewMut, Rgb, RgbImage};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default shard count when [`CacheConfig::shards`] is 0.
pub(crate) const DEFAULT_SHARDS: usize = 8;

/// Approximate per-entry bookkeeping overhead charged against the byte
/// budget (map nodes, LRU stamp, entry header) in addition to the label
/// bytes themselves.
pub const ENTRY_OVERHEAD_BYTES: usize = 96;

/// Tuning for a [`SegmentCache`].  `Default` (and `capacity_bytes == 0`)
/// means *no cache* — callers opt in, typically via the `--cache-mb` CLI
/// knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheConfig {
    /// Total byte budget across all shards (0 = caching disabled).
    pub capacity_bytes: usize,
    /// Number of mutex-sharded LRU shards (0 = `DEFAULT_SHARDS`).
    pub shards: usize,
}

impl CacheConfig {
    /// A config with an `mb`-megabyte budget and the default shard count
    /// (the shape the `--cache-mb N` flag builds).
    pub fn with_capacity_mb(mb: usize) -> Self {
        Self {
            capacity_bytes: mb.saturating_mul(1 << 20),
            shards: 0,
        }
    }

    /// Whether this config enables caching at all.
    pub(crate) fn enabled(&self) -> bool {
        self.capacity_bytes > 0
    }

    /// The effective shard count.
    pub fn effective_shards(&self) -> usize {
        if self.shards == 0 {
            DEFAULT_SHARDS
        } else {
            self.shards
        }
    }
}

/// A 128-bit content address: two 64-bit halves drawn from the striped
/// hasher's 256-bit lane state over the request bytes.  The pair (plus the
/// dimensions stored in the entry) makes accidental collisions between
/// distinct images astronomically unlikely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    lo: u64,
    hi: u64,
}

impl CacheKey {
    /// The shard index this key maps to.
    fn shard(&self, shards: usize) -> usize {
        // The high hash picks the shard and the low hash addresses within
        // it, so shard choice and map lookup use independent bits.
        (self.hi % shards as u64) as usize
    }
}

const PRIME_A: u64 = 0xFF51_AFD7_ED55_8CCD;
const PRIME_B: u64 = 0xC4CE_B9FE_1A85_EC53;
const SEED_LO: u64 = 0x9E37_79B9_7F4A_7C15;
const SEED_HI: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// One multiply-rotate-multiply mixing step (xxHash-style), used to fold the
/// dimensions and tile geometry into a key's seeds.
#[inline]
fn mix(state: u64, word: u64) -> u64 {
    (state ^ word.wrapping_mul(PRIME_A))
        .rotate_left(27)
        .wrapping_mul(SEED_LO)
        .wrapping_add(0x2545_F491_4F6C_DD1D)
}

/// Final avalanche so every input bit affects every output bit.
#[inline]
fn finish(mut state: u64) -> u64 {
    state ^= state >> 33;
    state = state.wrapping_mul(PRIME_A);
    state ^= state >> 29;
    state = state.wrapping_mul(PRIME_B);
    state ^ (state >> 32)
}

/// Packs a `width × height` pair into the one word that seeds a key.
fn dims_word(width: usize, height: usize) -> u64 {
    ((width as u64) << 32) | height as u64
}

/// Lanes of the [`StripeHasher`].
const LANES: usize = 4;
/// Bytes per stripe: one 8-byte word for each lane.
const STRIPE: usize = 8 * LANES;
/// Multiplies each input word before it enters a lane.
const WORD_MUL: u64 = 0xC2B2_AE3D_27D4_EB4F;
/// Multiplies a lane after each rotation.
const LANE_MUL: u64 = 0x9E37_79B1_85EB_CA87;

/// One lane step (XXH64's round): add the multiplied word, rotate,
/// multiply.  For any fixed word this is a bijection of the lane, so no
/// input can wipe out what the lane has absorbed so far.
#[inline(always)]
fn lane_round(lane: u64, word: u64) -> u64 {
    lane.wrapping_add(word.wrapping_mul(WORD_MUL))
        .rotate_left(31)
        .wrapping_mul(LANE_MUL)
}

/// The content hasher behind every cache key: a byte stream in 32-byte
/// stripes over four independent 64-bit lanes (see the module docs).
/// `update` may be called with chunks of any size: a partial stripe waits
/// in `tail` for the next call, so the key depends only on the concatenated
/// bytes, never on how they were split.  `finish` zero-pads the last
/// partial stripe and mixes in the total length, which keeps a padded tail
/// distinct from real zero bytes.
struct StripeHasher {
    lanes: [u64; LANES],
    tail: [u8; STRIPE],
    tail_len: usize,
    len: u64,
}

impl StripeHasher {
    fn new(seed_lo: u64, seed_hi: u64) -> Self {
        let mut lanes = [0u64; LANES];
        for (i, lane) in lanes.iter_mut().enumerate() {
            let seed = if i % 2 == 0 { seed_lo } else { seed_hi };
            *lane = seed.wrapping_add((i as u64 + 1).wrapping_mul(PRIME_B));
        }
        Self {
            lanes,
            tail: [0u8; STRIPE],
            tail_len: 0,
            len: 0,
        }
    }

    #[inline(always)]
    fn absorb(&mut self, stripe: &[u8]) {
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            let word = u64::from_le_bytes(stripe[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
            *lane = lane_round(*lane, word);
        }
    }

    #[inline]
    fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.tail_len > 0 {
            let take = (STRIPE - self.tail_len).min(bytes.len());
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&bytes[..take]);
            self.tail_len += take;
            bytes = &bytes[take..];
            if self.tail_len < STRIPE {
                return;
            }
            let stripe = self.tail;
            self.absorb(&stripe);
            self.tail_len = 0;
        }
        let stripes = bytes.chunks_exact(STRIPE);
        let rest = stripes.remainder();
        for stripe in stripes {
            self.absorb(stripe);
        }
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    fn finish(mut self) -> CacheKey {
        if self.tail_len > 0 {
            self.tail[self.tail_len..].fill(0);
            let stripe = self.tail;
            self.absorb(&stripe);
        }
        // Two merges of the same four lanes, with different rotations,
        // orders and multipliers, give the key's two halves.
        let [a, b, c, d] = self.lanes;
        let mut lo = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18))
            ^ self.len;
        let mut hi = d
            .rotate_left(3)
            .wrapping_add(c.rotate_left(17))
            .wrapping_add(b.rotate_left(23))
            .wrapping_add(a.rotate_left(41))
            ^ self.len.wrapping_mul(PRIME_A);
        for lane in self.lanes {
            lo = (lo ^ lane_round(0, lane))
                .wrapping_mul(LANE_MUL)
                .wrapping_add(PRIME_B);
        }
        for lane in self.lanes.iter().rev() {
            hi = (hi ^ lane_round(0, lane.rotate_left(32)))
                .wrapping_mul(PRIME_A)
                .wrapping_add(WORD_MUL);
        }
        CacheKey {
            lo: finish(lo),
            hi: finish(hi ^ lo),
        }
    }
}

/// Incremental FNV-1a: it folds the caller's salt (e.g. the plan spec) into
/// the image-hash seeds.
struct Fnv64(u64);

impl Fnv64 {
    fn new() -> Self {
        Fnv64(0xCBF2_9CE4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// One cached segmentation: a whole frame's labels or one tile's.
#[derive(Debug)]
struct Entry {
    labels: Arc<LabelMap>,
    /// LRU stamp; also the entry's key in the shard's recency index.
    stamp: u64,
}

/// What an entry of `labels` labels is charged against the byte budget.
fn charged_bytes(labels: usize) -> usize {
    labels * 4 + ENTRY_OVERHEAD_BYTES
}

/// Counters and live figures for one shard (or, summed, the whole cache).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: usize,
    /// Lookups that found nothing (the caller then segments and inserts).
    pub misses: usize,
    /// Entries stored.
    pub insertions: usize,
    /// Entries evicted to make room under the byte budget.
    pub evictions: usize,
    /// Entries currently resident.
    pub entries: usize,
    /// Bytes currently charged against the budget (labels + overhead).
    pub bytes: usize,
    /// The configured total byte budget.
    pub capacity_bytes: usize,
    /// Delta-path tiles answered from the cache (whole-cache figure; not
    /// counted into [`CacheStats::hits`], which tracks whole-image lookups).
    pub tile_hits: usize,
    /// Delta-path tiles that missed and were re-classified.
    pub tile_recomputed: usize,
}

impl CacheStats {
    fn absorb(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.insertions += other.insertions;
        self.evictions += other.evictions;
        self.entries += other.entries;
        self.bytes += other.bytes;
        self.tile_hits += other.tile_hits;
        self.tile_recomputed += other.tile_recomputed;
    }
}

/// One mutex-guarded slice of the key space: a content-addressed map plus a
/// recency index ordered by LRU stamp.
#[derive(Debug, Default)]
struct Shard {
    entries: HashMap<CacheKey, Entry>,
    /// stamp → key, ordered oldest-first; eviction pops the first entry.
    recency: BTreeMap<u64, CacheKey>,
    bytes: usize,
    next_stamp: u64,
    hits: usize,
    misses: usize,
    insertions: usize,
    evictions: usize,
}

impl Shard {
    fn touch(&mut self, key: CacheKey) {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        if let Some(entry) = self.entries.get_mut(&key) {
            self.recency.remove(&entry.stamp);
            entry.stamp = stamp;
            self.recency.insert(stamp, key);
        }
    }

    /// Stores `labels` under `key` with a fresh stamp, charged `charged`
    /// bytes: first drops any entry already under `key` (two threads raced
    /// to segment the same image; keep one), then evicts least-recently-used
    /// entries until the new one fits under `budget`.  Dropped entries are
    /// released to `arena`.
    fn store(
        &mut self,
        key: CacheKey,
        labels: Arc<LabelMap>,
        charged: usize,
        budget: usize,
        arena: &LabelArena,
    ) {
        if let Some(existing) = self.entries.remove(&key) {
            self.recency.remove(&existing.stamp);
            self.bytes -= charged_bytes(existing.labels.len());
            arena.release(existing.labels);
        }
        while self.bytes + charged > budget {
            let Some((&stamp, &key)) = self.recency.iter().next() else {
                break;
            };
            self.recency.remove(&stamp);
            let entry = self
                .entries
                .remove(&key)
                .expect("recency index entries always exist in the map");
            self.bytes -= charged_bytes(entry.labels.len());
            self.evictions += 1;
            arena.release(entry.labels);
        }
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.recency.insert(stamp, key);
        self.bytes += charged;
        self.insertions += 1;
        self.entries.insert(key, Entry { labels, stamp });
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            insertions: self.insertions,
            evictions: self.evictions,
            entries: self.entries.len(),
            bytes: self.bytes,
            ..CacheStats::default()
        }
    }
}

/// A sharded, content-addressed, byte-budgeted LRU cache of segmentations.
///
/// See the [module docs](self) for the design; build one through
/// [`CacheConfig`] (usually via `SegmentPipeline::with_cache`).
#[derive(Debug)]
pub struct SegmentCache {
    shards: Vec<Mutex<Shard>>,
    /// Each shard owns an equal slice of the total budget.
    shard_budget: usize,
    capacity_bytes: usize,
    seed_lo: u64,
    seed_hi: u64,
    /// Delta-path tiles served from cache.  Kept outside the shard counters
    /// (and outside `hits`/`misses`) so tile traffic and whole-image traffic
    /// stay separately attributable in every report.
    tile_hits: AtomicU64,
    /// Delta-path tiles that missed and were re-classified.
    tile_recomputed: AtomicU64,
}

impl SegmentCache {
    /// Builds a cache for `config`, salting the content hash with `salt`
    /// (callers pass the serialized segmentation strategy, e.g.
    /// `SegmentPlan::to_spec()`, so caches built for different strategies
    /// can never alias even if their buffers were somehow shared).
    ///
    /// `config.capacity_bytes` must be non-zero; gate on
    /// `CacheConfig::enabled` first.
    pub fn new(config: CacheConfig, salt: &str) -> Self {
        assert!(config.enabled(), "SegmentCache requires a non-zero budget");
        let shards = config.effective_shards();
        let mut salt_hash = Fnv64::new();
        salt_hash.update(salt.as_bytes());
        let salt_hash = salt_hash.0;
        Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_budget: (config.capacity_bytes / shards).max(1),
            capacity_bytes: config.capacity_bytes,
            seed_lo: SEED_LO ^ salt_hash,
            seed_hi: SEED_HI ^ salt_hash.rotate_left(32),
            tile_hits: AtomicU64::new(0),
            tile_recomputed: AtomicU64::new(0),
        }
    }

    /// The content address of `img` under this cache's salt: the
    /// dimensions seed the lanes, then the pixel bytes stream in as one
    /// slice.
    pub fn key_for(&self, img: &RgbImage) -> CacheKey {
        let dims = dims_word(img.width(), img.height());
        let mut hasher = StripeHasher::new(mix(self.seed_lo, dims), mix(self.seed_hi, dims));
        hasher.update(Rgb::slice_as_bytes(img.as_slice()));
        hasher.finish()
    }

    /// The content address of one tile of an image under this cache's salt,
    /// for the per-tile delta path.
    ///
    /// `tile_w`/`tile_h` are the delta path's tile geometry (edge tiles are
    /// smaller than this); the geometry is mixed into the seeds before any
    /// pixel, so tile keys from different tile shapes — and tile keys vs
    /// whole-image keys — can never alias even on identical pixel bytes.
    /// The view's own (clamped) dimensions are mixed in next, then each row
    /// streams in as one byte slice, so the key depends only on the logical
    /// pixel sequence: the same tile content hashes identically wherever the
    /// view sits in its parent buffer and whatever that parent's stride is.
    /// The tile's *position* is deliberately not part of the key —
    /// classification is per-pixel, so identical content segments
    /// identically anywhere in the frame, and content-only keys let a
    /// panning scene reuse tiles across positions.
    pub fn key_for_tile(
        &self,
        view: &ImageView<'_, Rgb<u8>>,
        tile_w: usize,
        tile_h: usize,
    ) -> CacheKey {
        let geometry = dims_word(tile_w, tile_h);
        let (width, height) = view.dimensions();
        let dims = dims_word(width, height);
        let mut hasher = StripeHasher::new(
            mix(mix(self.seed_lo, geometry), dims),
            mix(mix(self.seed_hi, geometry), dims),
        );
        for row in view.rows() {
            hasher.update(Rgb::slice_as_bytes(row));
        }
        hasher.finish()
    }

    /// Looks a tile key up and, on a hit, copies the cached labels straight
    /// into `dest` (a tile-shaped window over the caller's stitch buffer).
    /// Returns whether the copy happened.  An entry whose dimensions do not
    /// match `dest` is treated as a miss — the 128-bit key makes that
    /// practically impossible, but a dimension check costs nothing and keeps
    /// a collision from ever mis-stitching a frame.
    ///
    /// Counts into the cache-wide `tile_hits`/`tile_recomputed` figures, not
    /// the shard `hits`/`misses` (those track whole-image lookups).
    pub(crate) fn lookup_tile_into(&self, key: CacheKey, dest: &mut LabelViewMut<'_>) -> bool {
        let mut shard = self.shards[key.shard(self.shards.len())]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let hit = match shard.entries.get(&key) {
            Some(entry) if entry.labels.dimensions() == dest.dimensions() => {
                let width = entry.labels.width();
                for (y, row) in entry.labels.as_slice().chunks_exact(width).enumerate() {
                    dest.row_mut(y).copy_from_slice(row);
                }
                true
            }
            _ => false,
        };
        if hit {
            shard.touch(key);
        }
        drop(shard);
        if hit {
            self.tile_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.tile_recomputed.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Stores a copy of `labels` (row-major, `width × height`: a frame's or
    /// one re-classified tile's), taken from `arena`, under `key`.  Same
    /// byte-budget and arena rules as [`SegmentCache::insert_shared`].  The
    /// copy runs before any shard lock is taken: the memcpy of a
    /// multi-megapixel map is the expensive part and touches no shard
    /// state.
    pub(crate) fn insert_copy(
        &self,
        key: CacheKey,
        labels: &[u32],
        width: usize,
        height: usize,
        arena: &LabelArena,
    ) {
        if charged_bytes(labels.len()) <= self.shard_budget {
            let copy = LabelMap::from_vec(width, height, arena.copy_of(labels))
                .expect("labels match their dimensions");
            self.insert_shared(key, Arc::new(copy), arena);
        }
    }

    /// Looks `key` up and, on a hit, returns the entry's own labels, shared
    /// with the cache.  Counts a hit or a miss either way.  The caller
    /// replies from the returned buffer and then hands it to
    /// [`LabelArena::release`]; an eviction meanwhile drops only the
    /// cache's reference.
    pub fn lookup_shared(&self, key: CacheKey) -> Option<Arc<LabelMap>> {
        let mut shard = self.shards[key.shard(self.shards.len())]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let Some(entry) = shard.entries.get(&key) else {
            shard.misses += 1;
            return None;
        };
        let labels = Arc::clone(&entry.labels);
        shard.hits += 1;
        shard.touch(key);
        Some(labels)
    }

    /// Stores a finished segmentation under `key`, sharing the caller's
    /// buffer: the caller may keep replying from its own reference, and
    /// must not write the labels while they are shared.  Entries evicted to
    /// make room (and any replaced duplicate) are released to `arena`.  An
    /// entry larger than one shard's whole budget is not stored.
    ///
    /// The cache charges each entry `4 × labels + ENTRY_OVERHEAD_BYTES`.
    pub fn insert_shared(&self, key: CacheKey, labels: Arc<LabelMap>, arena: &LabelArena) {
        let charged = charged_bytes(labels.len());
        if charged > self.shard_budget {
            return;
        }
        self.shards[key.shard(self.shards.len())]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .store(key, labels, charged, self.shard_budget, arena);
    }

    /// [`SegmentCache::lookup_shared`] with the hit copied into a buffer
    /// taken from `arena`, so the caller owns the returned map.  The
    /// loopback benchmark's `LOOKUP` span names this call.
    pub fn lookup(&self, key: CacheKey, arena: &LabelArena) -> Option<LabelMap> {
        let shared = self.lookup_shared(key)?;
        let (width, height) = shared.dimensions();
        let copy = arena.copy_of(shared.as_slice());
        arena.release(shared);
        Some(LabelMap::from_vec(width, height, copy).expect("cached labels match their dimensions"))
    }

    /// [`SegmentCache::insert_shared`] of a copy of `labels`, taken from
    /// `arena`, so the caller keeps its map.  The loopback benchmark's
    /// `INSERT` span names this call.
    pub fn insert(&self, key: CacheKey, labels: &LabelMap, arena: &LabelArena) {
        let (width, height) = labels.dimensions();
        self.insert_copy(key, labels.as_slice(), width, height, arena);
    }

    /// Aggregate counters across all shards.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats {
            capacity_bytes: self.capacity_bytes,
            tile_hits: self.tile_hits.load(Ordering::Relaxed) as usize,
            tile_recomputed: self.tile_recomputed.load(Ordering::Relaxed) as usize,
            ..CacheStats::default()
        };
        for stats in self.shard_stats() {
            total.absorb(&stats);
        }
        total
    }

    /// Per-shard counters, in shard order (each reports `capacity_bytes` 0;
    /// the budget is a whole-cache figure).
    pub(crate) fn shard_stats(&self) -> Vec<CacheStats> {
        self.shards
            .iter()
            .map(|shard| shard.lock().unwrap_or_else(|e| e.into_inner()).stats())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imaging::Rgb;

    fn image(seed: u8, w: usize, h: usize) -> RgbImage {
        RgbImage::from_fn(w, h, move |x, y| {
            Rgb::new(
                (x * 3 + seed as usize) as u8,
                (y * 5) as u8,
                ((x ^ y) * 7) as u8,
            )
        })
    }

    fn labels_for(img: &RgbImage, fill: u32) -> LabelMap {
        LabelMap::from_vec(img.width(), img.height(), vec![fill; img.len()]).unwrap()
    }

    fn small_cache(capacity: usize, shards: usize) -> SegmentCache {
        SegmentCache::new(
            CacheConfig {
                capacity_bytes: capacity,
                shards,
            },
            "classifier=table;tile=off;backend=serial",
        )
    }

    #[test]
    fn lookup_after_insert_returns_byte_identical_labels() {
        let arena = LabelArena::new();
        let cache = small_cache(1 << 20, 4);
        let img = image(1, 16, 12);
        let labels = labels_for(&img, 3);
        let key = cache.key_for(&img);
        assert!(cache.lookup(key, &arena).is_none(), "cold cache misses");
        cache.insert(key, &labels, &arena);
        let hit = cache.lookup(key, &arena).expect("warm cache hits");
        assert_eq!(hit, labels);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes >= img.len() * 4);
        assert_eq!(stats.capacity_bytes, 1 << 20);
    }

    #[test]
    fn keys_are_content_addressed_and_salted() {
        let cache = small_cache(1 << 20, 4);
        let img = image(1, 16, 12);
        assert_eq!(cache.key_for(&img), cache.key_for(&img.clone()));
        // A single-byte difference changes the key.
        let mut other = img.clone();
        other.set(3, 4, Rgb::new(255, 0, 0));
        assert_ne!(cache.key_for(&img), cache.key_for(&other));
        // Same pixel bytes, different dimensions → different key.
        let wide = RgbImage::from_vec(img.len(), 1, img.as_slice().to_vec()).unwrap();
        assert_ne!(cache.key_for(&img), cache.key_for(&wide));
        // Same content, different salt (plan spec) → different key.
        let other_salt = SegmentCache::new(
            CacheConfig {
                capacity_bytes: 1 << 20,
                shards: 4,
            },
            "classifier=exact;tile=off;backend=serial",
        );
        assert_ne!(cache.key_for(&img), other_salt.key_for(&img));
    }

    #[test]
    fn byte_budget_evicts_least_recently_used_first() {
        let arena = LabelArena::new();
        let entry_bytes = 8 * 8 * 4 + ENTRY_OVERHEAD_BYTES;
        // One shard that fits exactly two entries.
        let cache = small_cache(entry_bytes * 2, 1);
        let imgs: Vec<RgbImage> = (0..3).map(|i| image(i as u8, 8, 8)).collect();
        let keys: Vec<CacheKey> = imgs.iter().map(|img| cache.key_for(img)).collect();
        cache.insert(keys[0], &labels_for(&imgs[0], 0), &arena);
        cache.insert(keys[1], &labels_for(&imgs[1], 1), &arena);
        assert_eq!(cache.stats().entries, 2);
        // Touch entry 0 so entry 1 is the LRU, then overflow the budget.
        assert!(cache.lookup(keys[0], &arena).is_some());
        cache.insert(keys[2], &labels_for(&imgs[2], 2), &arena);
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        assert!(stats.bytes <= entry_bytes * 2, "{stats:?}");
        assert!(cache.lookup(keys[1], &arena).is_none(), "LRU entry evicted");
        assert!(
            cache.lookup(keys[0], &arena).is_some(),
            "touched entry kept"
        );
        assert!(
            cache.lookup(keys[2], &arena).is_some(),
            "new entry resident"
        );
        // Evicted and copied-out buffers flow through the arena.
        assert!(arena.pooled() + stats.entries > 0);
    }

    /// An entry evicted while a reply still holds its labels: the reply's
    /// labels stay intact, and the buffer reaches the arena only once the
    /// reply lets go of it.
    #[test]
    fn an_evicted_entry_reaches_the_arena_only_after_its_reply_drops_it() {
        let arena = LabelArena::new();
        // One shard that holds exactly one 8x8 entry.
        let cache = small_cache(8 * 8 * 4 + ENTRY_OVERHEAD_BYTES, 1);
        let (first, second) = (image(1, 8, 8), image(2, 8, 8));
        let stored = Arc::new(labels_for(&first, 5));
        let ptr = stored.as_slice().as_ptr();
        cache.insert_shared(cache.key_for(&first), stored, &arena);
        let reply = cache
            .lookup_shared(cache.key_for(&first))
            .expect("resident entry hits");
        assert_eq!(reply.as_slice().as_ptr(), ptr, "the hit is the entry");
        cache.insert_shared(
            cache.key_for(&second),
            Arc::new(labels_for(&second, 6)),
            &arena,
        );
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.lookup_shared(cache.key_for(&first)).is_none());
        assert_eq!(*reply, labels_for(&first, 5), "the reply is untouched");
        assert_eq!(arena.pooled(), 0, "the reply still holds the buffer");
        arena.release(reply);
        assert_eq!(arena.pooled(), 1);
        let again = arena.take();
        assert_eq!(again.as_ptr(), ptr, "the evicted buffer came back");
    }

    #[test]
    fn entries_larger_than_a_shard_budget_are_not_stored() {
        let arena = LabelArena::new();
        let cache = small_cache(256, 1);
        let img = image(0, 32, 32); // 4 KiB of labels ≫ 256-byte budget
        let key = cache.key_for(&img);
        cache.insert(key, &labels_for(&img, 1), &arena);
        assert_eq!(cache.stats().entries, 0);
        assert!(cache.lookup(key, &arena).is_none());
    }

    #[test]
    fn keys_spread_across_shards() {
        let cache = small_cache(8 << 20, 8);
        let arena = LabelArena::new();
        for i in 0..64u8 {
            let img = image(i, 8, 8);
            cache.insert(cache.key_for(&img), &labels_for(&img, i as u32), &arena);
        }
        let per_shard = cache.shard_stats();
        assert_eq!(per_shard.len(), 8);
        let populated = per_shard.iter().filter(|s| s.entries > 0).count();
        assert!(
            populated >= 6,
            "64 distinct keys should land in most of 8 shards, got {populated}: {per_shard:?}"
        );
        assert_eq!(
            per_shard.iter().map(|s| s.entries).sum::<usize>(),
            cache.stats().entries
        );
    }

    #[test]
    fn duplicate_insert_keeps_one_copy_and_recycles_the_other() {
        let arena = LabelArena::new();
        let cache = small_cache(1 << 20, 1);
        let img = image(3, 8, 8);
        let key = cache.key_for(&img);
        cache.insert(key, &labels_for(&img, 1), &arena);
        let bytes_before = cache.stats().bytes;
        cache.insert(key, &labels_for(&img, 1), &arena);
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.bytes, bytes_before);
        assert_eq!(stats.insertions, 2);
        // The replaced duplicate's buffer went back to the arena pool (the
        // new copy's buffer is taken before the lock, so it cannot reuse
        // the one it replaces).
        assert!(arena.pooled() >= 1);
    }

    #[test]
    fn eviction_under_concurrency_never_corrupts_returned_maps() {
        // A tiny budget forces constant eviction while many threads hit the
        // same shard set; every returned map must still carry exactly the
        // bytes that were inserted for its image.
        let arena = LabelArena::new();
        let entry_bytes = 8 * 8 * 4 + ENTRY_OVERHEAD_BYTES;
        let cache = small_cache(entry_bytes * 4, 2);
        let imgs: Vec<RgbImage> = (0..16).map(|i| image(i as u8, 8, 8)).collect();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let cache = &cache;
                let arena = &arena;
                let imgs = &imgs;
                scope.spawn(move || {
                    for round in 0..50 {
                        let img = &imgs[(t * 7 + round * 3) % imgs.len()];
                        let expected = ((t * 7 + round * 3) % imgs.len()) as u32;
                        let key = cache.key_for(img);
                        match cache.lookup(key, arena) {
                            Some(map) => {
                                assert_eq!(map.dimensions(), img.dimensions());
                                assert!(map.as_slice().iter().all(|&l| l == expected));
                                arena.recycle(map);
                            }
                            None => {
                                let labels = LabelMap::from_vec(
                                    img.width(),
                                    img.height(),
                                    vec![expected; img.len()],
                                )
                                .unwrap();
                                cache.insert(key, &labels, arena);
                            }
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert!(
            stats.evictions > 0,
            "tiny budget must have evicted: {stats:?}"
        );
        assert!(stats.bytes <= entry_bytes * 4);
    }

    #[test]
    fn tile_keys_depend_only_on_logical_pixel_content() {
        use imaging::TileRect;
        let cache = small_cache(1 << 20, 4);
        // The same 6x4 pixel content planted at two different offsets in two
        // differently-sized parents (different strides).
        let content = |x: usize, y: usize| Rgb::new((x * 11) as u8, (y * 13) as u8, (x ^ y) as u8);
        let a = RgbImage::from_fn(40, 30, |x, y| {
            if (3..9).contains(&x) && (5..9).contains(&y) {
                content(x - 3, y - 5)
            } else {
                Rgb::new(255, 255, 255)
            }
        });
        let b = RgbImage::from_fn(17, 21, |x, y| {
            if (10..16).contains(&x) && (2..6).contains(&y) {
                content(x - 10, y - 2)
            } else {
                Rgb::new(0, 0, 0)
            }
        });
        let va = a.view(TileRect::new(3, 5, 6, 4)).unwrap();
        let vb = b.view(TileRect::new(10, 2, 6, 4)).unwrap();
        let key = cache.key_for_tile(&va, 8, 8);
        assert_eq!(
            key,
            cache.key_for_tile(&vb, 8, 8),
            "same content, different offset/stride → same key"
        );
        // A one-pixel difference changes the key.
        let mut c = a.clone();
        c.set(4, 6, Rgb::new(99, 99, 99));
        let vc = c.view(TileRect::new(3, 5, 6, 4)).unwrap();
        assert_ne!(key, cache.key_for_tile(&vc, 8, 8));
        // Distinct configured tile geometry → distinct key for identical
        // content, and a tile key never aliases the whole-image key.
        assert_ne!(key, cache.key_for_tile(&va, 16, 16));
        assert_ne!(key, cache.key_for_tile(&va, 8, 16));
        let tile_img = RgbImage::from_fn(6, 4, content);
        let whole_view = tile_img.view(TileRect::new(0, 0, 6, 4)).unwrap();
        assert_eq!(key, cache.key_for_tile(&whole_view, 8, 8));
        assert_ne!(
            cache.key_for(&tile_img),
            key,
            "geometry salt separates tile keys from whole-image keys"
        );
        // Distinct plan salt → distinct tile key.
        let other_salt = small_cache(1 << 20, 4);
        let other_plan = SegmentCache::new(
            CacheConfig {
                capacity_bytes: 1 << 20,
                shards: 4,
            },
            "classifier=simd;tile=off;backend=serial",
        );
        assert_eq!(key, other_salt.key_for_tile(&va, 8, 8));
        assert_ne!(key, other_plan.key_for_tile(&va, 8, 8));
    }

    #[test]
    fn tile_lookup_stitches_into_a_window_and_counts_separately() {
        use imaging::TileRect;
        let arena = LabelArena::new();
        let cache = small_cache(1 << 20, 2);
        let img = image(7, 20, 10);
        let rect = TileRect::new(8, 4, 6, 5);
        let view = img.view(rect).unwrap();
        let key = cache.key_for_tile(&view, 8, 8);
        let tile_labels: Vec<u32> = (0..30).collect();

        let mut stitch = vec![u32::MAX; img.len()];
        let mut dest = LabelViewMut::new(&mut stitch, img.width(), rect).unwrap();
        assert!(!cache.lookup_tile_into(key, &mut dest), "cold tile misses");
        cache.insert_copy(key, &tile_labels, 6, 5, &arena);
        let mut dest = LabelViewMut::new(&mut stitch, img.width(), rect).unwrap();
        assert!(cache.lookup_tile_into(key, &mut dest), "warm tile hits");
        // The copy landed exactly inside the window.
        for y in 0..5 {
            for x in 0..6 {
                assert_eq!(stitch[(4 + y) * img.width() + 8 + x], (y * 6 + x) as u32);
            }
        }
        assert_eq!(
            stitch.iter().filter(|&&l| l == u32::MAX).count(),
            img.len() - 30,
            "labels outside the window untouched"
        );
        let stats = cache.stats();
        assert_eq!((stats.tile_hits, stats.tile_recomputed), (1, 1));
        assert_eq!(
            (stats.hits, stats.misses),
            (0, 0),
            "tile traffic stays out of the whole-image counters"
        );
        assert_eq!(stats.insertions, 1);

        // A dimension mismatch is a (counted) miss, never a mis-stitch.
        let mut wrong = vec![0u32; 36];
        let mut wrong_dest = LabelViewMut::contiguous(&mut wrong, 6, 6).unwrap();
        assert!(!cache.lookup_tile_into(key, &mut wrong_dest));
        assert_eq!(cache.stats().tile_recomputed, 2);
    }

    #[test]
    fn config_helpers() {
        assert!(!CacheConfig::default().enabled());
        let config = CacheConfig::with_capacity_mb(64);
        assert!(config.enabled());
        assert_eq!(config.capacity_bytes, 64 << 20);
        assert_eq!(config.effective_shards(), DEFAULT_SHARDS);
        assert_eq!(
            CacheConfig {
                shards: 3,
                ..config
            }
            .effective_shards(),
            3
        );
    }

    #[test]
    #[should_panic(expected = "non-zero budget")]
    fn zero_budget_cache_is_a_construction_error() {
        let _ = SegmentCache::new(CacheConfig::default(), "");
    }

    /// A seeded splitmix64 stream for the hasher tests.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The 128-bit key of `parts` fed to one hasher, one `update` each.
    fn stripe_key(parts: &[&[u8]]) -> u128 {
        let mut hasher = StripeHasher::new(SEED_LO ^ 0x5EED, SEED_HI);
        for part in parts {
            hasher.update(part);
        }
        let key = hasher.finish();
        u128::from(key.lo) | u128::from(key.hi) << 64
    }

    #[test]
    fn stripe_hasher_is_split_invariant() {
        let mut rng = 7u64;
        for len in [0usize, 1, 31, 32, 33, 64, 100, 1000] {
            let bytes: Vec<u8> = (0..len).map(|_| splitmix(&mut rng) as u8).collect();
            let whole = stripe_key(&[&bytes]);
            let singles: Vec<&[u8]> = bytes.chunks(1).collect();
            assert_eq!(stripe_key(&singles), whole, "byte at a time, len {len}");
            for chunk in [3usize, 7, 32, 45] {
                let parts: Vec<&[u8]> = bytes.chunks(chunk).collect();
                assert_eq!(stripe_key(&parts), whole, "chunks of {chunk}, len {len}");
            }
            // Random cut points, empty chunks included.
            for _ in 0..8 {
                let mut parts: Vec<&[u8]> = Vec::new();
                let mut at = 0;
                while at < len {
                    let take = (splitmix(&mut rng) as usize % 40).min(len - at);
                    parts.push(&bytes[at..at + take]);
                    at += take;
                }
                assert_eq!(stripe_key(&parts), whole, "random cuts, len {len}");
            }
        }
        // A zero-padded tail never aliases real trailing zero bytes.
        assert_ne!(stripe_key(&[b"abc"]), stripe_key(&[b"abc\0"]));
        assert_ne!(stripe_key(&[]), stripe_key(&[&[0u8]]));
    }

    /// SMHasher's avalanche criterion: flipping any one input bit flips each
    /// of the 128 output bits with probability ½.  Over `TRIALS` seeded
    /// random inputs every (input bit, output bit) frequency must lie within
    /// `BOUND` of ½.  With 1000 trials one frequency has a standard
    /// deviation of 0.016, so the bound is 6.3σ: an ideal hash passes, while
    /// an input bit that misses an output bit (frequency 0) or always flips
    /// it (frequency 1) fails.
    #[test]
    fn stripe_hasher_flips_every_output_bit_with_probability_one_half() {
        const TRIALS: u32 = 1000;
        const BOUND: f64 = 0.1;
        // Shorter than one stripe; a stripe plus a ragged tail; and 7-pixel
        // rows fed one `update` per row, like a tile.
        for (case, len, row) in [
            ("short", 20usize, 20usize),
            ("ragged", 45, 45),
            ("rows", 63, 21),
        ] {
            let mut rng = 0xA5A5_0000 + len as u64;
            let bits = len * 8;
            let mut flips = vec![0u32; bits * 128];
            for _ in 0..TRIALS {
                let mut input: Vec<u8> = (0..len).map(|_| splitmix(&mut rng) as u8).collect();
                let key = |input: &[u8]| stripe_key(&input.chunks(row).collect::<Vec<_>>());
                let base = key(&input);
                for bit in 0..bits {
                    input[bit / 8] ^= 1 << (bit % 8);
                    let mut diff = base ^ key(&input);
                    input[bit / 8] ^= 1 << (bit % 8);
                    while diff != 0 {
                        flips[bit * 128 + diff.trailing_zeros() as usize] += 1;
                        diff &= diff - 1;
                    }
                }
            }
            for (cell, &count) in flips.iter().enumerate() {
                let freq = f64::from(count) / f64::from(TRIALS);
                assert!(
                    (freq - 0.5).abs() <= BOUND,
                    "{case}: input bit {} flips output bit {} with frequency {freq}",
                    cell / 128,
                    cell % 128
                );
            }
        }
    }

    /// Over the seeded datasets' frames and synthetic video clips, no two
    /// different (key kind, dimensions, pixel bytes) triples share a key:
    /// not two frames, not two tiles, not a tile and a frame.  Identical
    /// tiles (a video's unchanged blocks) legitimately share one.
    #[test]
    fn keys_are_distinct_over_seeded_datasets_and_video_clips() {
        use datasets::{
            synthetic_video, PascalVocLikeConfig, PascalVocLikeDataset, VideoConfig,
            XViewLikeConfig, XViewLikeDataset,
        };
        use std::collections::hash_map::Entry as Slot;

        let voc = PascalVocLikeDataset::new(PascalVocLikeConfig {
            seed: 42,
            ..PascalVocLikeConfig::default()
        });
        let xview = XViewLikeDataset::new(XViewLikeConfig {
            seed: 43,
            ..XViewLikeConfig::default()
        });
        let mut frames: Vec<RgbImage> = (0..8)
            .flat_map(|i| [voc.sample(i).image, xview.sample(i).image])
            .collect();
        frames.extend(synthetic_video(&VideoConfig::default()));
        frames.extend(synthetic_video(&VideoConfig {
            frames: 6,
            width: 200,
            height: 150,
            change_rate: 0.25,
            block: 16,
            seed: 9,
        }));

        let cache = small_cache(1 << 20, 4);
        // key → (tile geometry, or None for a whole frame; dims; bytes)
        type Keyed = (Option<(usize, usize)>, (usize, usize), Vec<u8>);
        let mut seen: HashMap<CacheKey, Keyed> = HashMap::new();
        let mut keyed = 0usize;
        let mut check = |key: CacheKey, content: Keyed| {
            keyed += 1;
            match seen.entry(key) {
                Slot::Occupied(first) => assert!(
                    *first.get() == content,
                    "{key:?} is shared by two different contents: {:?} {:?} and {:?} {:?}",
                    first.get().0,
                    first.get().1,
                    content.0,
                    content.1
                ),
                Slot::Vacant(slot) => {
                    slot.insert(content);
                }
            }
        };
        for frame in &frames {
            let bytes = Rgb::slice_as_bytes(frame.as_slice()).to_vec();
            check(cache.key_for(frame), (None, frame.dimensions(), bytes));
            for (tw, th) in [(64, 64), (16, 16), (7, 5)] {
                for rect in frame.tile_rects(tw, th) {
                    let view = frame.view(rect).unwrap();
                    let bytes: Vec<u8> =
                        view.rows().flat_map(Rgb::slice_as_bytes).copied().collect();
                    check(
                        cache.key_for_tile(&view, tw, th),
                        (Some((tw, th)), view.dimensions(), bytes),
                    );
                }
            }
        }
        assert!(
            seen.len() > 10_000 && seen.len() < keyed,
            "{} distinct keys of {keyed}: the clips' unchanged tiles must share keys",
            seen.len()
        );
    }
}
