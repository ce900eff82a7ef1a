//! A recycling arena for label and pixel buffers.
//!
//! Segmenting an image needs one `u32` per pixel, and a served request needs
//! its pixels in a buffer too; allocating those buffers fresh for every
//! image puts an allocator round-trip on the hot path and, at production
//! frame rates, real pressure on the allocator.  An [`Arena`] keeps
//! returned buffers and hands them back out: once the pool has warmed up
//! (one buffer per in-flight image), the steady-state pipeline performs
//! **zero per-image allocations** — [`Arena::reuses`] vs
//! [`Arena::allocations`] make that observable, and the pipeline's report
//! prints both.  [`LabelArena`] pools label buffers, [`PixelArena`] the
//! pixel buffers of decoded requests.
//!
//! What a pool keeps is bounded: buffers whose capacity would take its
//! pooled bytes past `MAX_POOLED_BYTES` are dropped instead of kept, so
//! one burst of large frames cannot pin its memory for the daemon's life.

use imaging::{ImageBuffer, Rgb};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The most bytes of buffer capacity one arena keeps pooled: one frame of
/// the wire protocol's largest payload (64 MiB).  A returned buffer that
/// would take the pool past this is dropped.
pub(crate) const MAX_POOLED_BYTES: usize = 64 << 20;

/// A thread-safe pool of reusable `Vec<T>` buffers.
///
/// Aligned to a cache line of its own: every take and put writes its lock
/// and counters from whichever thread serves the request, while
/// the fields next to it in a `SegmentPipeline` or a daemon's shared state
/// are read on every request.  Sharing a line with them makes that line
/// bounce between cores; where the compiler happened to place the
/// neighbours cost the loopback benchmark's cache-hit throughput about a
/// tenth.
#[derive(Debug)]
#[repr(align(64))]
pub struct Arena<T> {
    pool: Mutex<Pool<T>>,
    /// The most bytes of capacity `pool` may hold.
    cap_bytes: usize,
    allocations: AtomicUsize,
    reuses: AtomicUsize,
}

#[derive(Debug)]
struct Pool<T> {
    free: Vec<Vec<T>>,
    /// Bytes of capacity across `free`.
    bytes: usize,
}

/// The arena of label buffers: one `u32` per pixel.
pub type LabelArena = Arena<u32>;

/// The arena of decoded requests' pixel buffers.
pub type PixelArena = Arena<Rgb<u8>>;

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Self::with_cap_bytes(MAX_POOLED_BYTES)
    }
}

impl<T> Arena<T> {
    /// An empty arena that keeps up to 64 MiB pooled, one frame of the
    /// wire protocol's largest payload.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty arena that keeps up to `cap_bytes` pooled.
    pub(crate) fn with_cap_bytes(cap_bytes: usize) -> Self {
        Arena {
            pool: Mutex::new(Pool {
                free: Vec::new(),
                bytes: 0,
            }),
            cap_bytes,
            allocations: AtomicUsize::new(0),
            reuses: AtomicUsize::new(0),
        }
    }

    fn pool(&self) -> std::sync::MutexGuard<'_, Pool<T>> {
        // Every update below leaves the pool valid, so a guard poisoned by
        // a panicking holder is still sound to use.
        self.pool.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Takes a buffer from the pool, or allocates an empty one if the pool is
    /// dry.  The buffer's length and contents are whatever its last user
    /// left; callers resize it and overwrite every element, as
    /// `SegmentEngine::segment_rgb_into` does.
    pub fn take(&self) -> Vec<T> {
        let recycled = {
            let mut pool = self.pool();
            let buf = pool.free.pop();
            if let Some(buf) = &buf {
                pool.bytes -= bytes_of(buf);
            }
            buf
        };
        match recycled {
            Some(buf) => {
                self.reuses.fetch_add(1, Ordering::Relaxed);
                buf
            }
            None => {
                self.allocations.fetch_add(1, Ordering::Relaxed);
                Vec::new()
            }
        }
    }

    /// Returns a buffer to the pool for reuse, or drops it if keeping it
    /// would take the pool past its byte cap.
    pub fn put(&self, buf: Vec<T>) {
        let bytes = bytes_of(&buf);
        let mut pool = self.pool();
        if pool.bytes + bytes <= self.cap_bytes {
            pool.bytes += bytes;
            pool.free.push(buf);
        }
    }

    /// Number of buffers currently pooled.
    pub fn pooled(&self) -> usize {
        self.pool().free.len()
    }

    /// Bytes of buffer capacity currently pooled.
    #[cfg(test)]
    fn pooled_bytes(&self) -> usize {
        self.pool().bytes
    }

    /// How many [`Arena::take`] calls had to allocate a fresh buffer.
    pub fn allocations(&self) -> usize {
        self.allocations.load(Ordering::Relaxed)
    }

    /// How many [`Arena::take`] calls were served from the pool.
    pub fn reuses(&self) -> usize {
        self.reuses.load(Ordering::Relaxed)
    }
}

impl<T: Copy> Arena<T> {
    /// A buffer from the pool holding a copy of `src`.
    pub(crate) fn copy_of(&self, src: &[T]) -> Vec<T> {
        let mut buf = self.take();
        buf.clear();
        buf.extend_from_slice(src);
        buf
    }

    /// Recycles a finished image's (or label map's) backing storage into
    /// the pool.
    pub fn recycle(&self, image: ImageBuffer<T>) {
        self.put(image.into_vec());
    }

    /// Drops one holder of a shared buffer.  The last holder — whichever of
    /// a cache entry and the replies sharing it lets go last — recycles the
    /// storage; every earlier one only drops its reference.
    pub fn release(&self, shared: Arc<ImageBuffer<T>>) {
        if let Some(image) = Arc::into_inner(shared) {
            self.recycle(image);
        }
    }
}

/// Bytes of capacity `buf` holds.
fn bytes_of<T>(buf: &Vec<T>) -> usize {
    buf.capacity() * std::mem::size_of::<T>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use imaging::LabelMap;

    #[test]
    fn take_put_cycle_reuses_storage() {
        let arena = LabelArena::new();
        let mut buf = arena.take();
        assert_eq!(arena.allocations(), 1);
        buf.resize(1024, 7);
        let ptr = buf.as_ptr();
        arena.put(buf);
        assert_eq!(arena.pooled(), 1);
        let again = arena.take();
        assert_eq!(again.as_ptr(), ptr, "same backing storage came back");
        assert_eq!(arena.reuses(), 1);
        assert_eq!(arena.allocations(), 1);
    }

    #[test]
    fn recycle_reclaims_a_label_maps_storage() {
        let arena = LabelArena::new();
        let map = LabelMap::from_vec(4, 2, vec![1; 8]).unwrap();
        arena.recycle(map);
        assert_eq!(arena.pooled(), 1);
        let buf = arena.take();
        assert!(buf.capacity() >= 8);
        assert_eq!(arena.reuses(), 1);
        assert_eq!(arena.allocations(), 0);
    }

    /// Only the last of a buffer's holders puts it back in the pool.
    #[test]
    fn release_recycles_only_through_the_last_holder() {
        let arena = LabelArena::new();
        let shared = Arc::new(LabelMap::from_vec(4, 2, vec![3; 8]).unwrap());
        let other = Arc::clone(&shared);
        arena.release(shared);
        assert_eq!(arena.pooled(), 0, "a second holder still reads it");
        let ptr = other.as_slice().as_ptr();
        arena.release(other);
        assert_eq!(arena.pooled(), 1);
        let again = arena.take();
        assert_eq!(again.as_ptr(), ptr);
    }

    /// After a burst of buffers larger than the cap allows, the pool holds
    /// at most its cap in bytes, and what it dropped is simply gone.
    #[test]
    fn pooled_bytes_stay_under_the_cap_after_a_burst_of_large_buffers() {
        let cap = 4 << 10;
        let arena = LabelArena::with_cap_bytes(cap);
        for _ in 0..16 {
            arena.put(Vec::with_capacity(300));
            assert!(
                arena.pooled_bytes() <= cap,
                "{} bytes",
                arena.pooled_bytes()
            );
        }
        // 1200 bytes each: three fit under 4 KiB, the rest were dropped.
        assert_eq!(arena.pooled(), 3);
        assert_eq!(arena.pooled_bytes(), 3 * 1200);
        arena.put(Vec::with_capacity(2048));
        assert_eq!(arena.pooled(), 3, "a buffer past the cap is dropped");
        // Taking one makes room again.
        let buf = arena.take();
        assert_eq!(arena.pooled_bytes(), 2 * 1200);
        arena.put(buf);
        assert_eq!(arena.pooled_bytes(), 3 * 1200);
        // The production cap is one largest wire frame.
        assert_eq!(PixelArena::new().cap_bytes, MAX_POOLED_BYTES);
    }
}
