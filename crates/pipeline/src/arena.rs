//! A recycling arena for label buffers.
//!
//! Segmenting an image needs one `u32` per pixel; allocating that buffer
//! fresh for every image puts an allocator round-trip on the hot path and, at
//! production frame rates, real pressure on the allocator.  [`LabelArena`]
//! keeps returned buffers and hands them back out: once the pool has warmed
//! up (one buffer per in-flight image), the steady-state pipeline performs
//! **zero per-image allocations** — [`LabelArena::reuses`] vs
//! [`LabelArena::allocations`] make that observable, and the pipeline's
//! report prints both.

use imaging::LabelMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A thread-safe pool of reusable `Vec<u32>` label buffers.
///
/// Aligned to a cache line of its own: every take and put writes its lock
/// and counters from whichever reactor or worker serves the request, while
/// the fields next to it in a `SegmentPipeline` are read on every request.
/// Sharing a line with them makes that line bounce between cores; where the
/// compiler happened to place the neighbours cost the loopback benchmark's
/// cache-hit throughput about a tenth.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct LabelArena {
    free: Mutex<Vec<Vec<u32>>>,
    allocations: AtomicUsize,
    reuses: AtomicUsize,
}

impl LabelArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a buffer from the pool, or allocates an empty one if the pool is
    /// dry.  The buffer's length and contents are whatever its last user
    /// left; callers resize it and overwrite every label, as
    /// `SegmentEngine::segment_rgb_into` does.
    pub fn take(&self) -> Vec<u32> {
        let recycled = self.free.lock().unwrap_or_else(|e| e.into_inner()).pop();
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

    /// Returns a buffer to the pool for reuse.
    pub fn put(&self, buf: Vec<u32>) {
        self.free
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(buf);
    }

    /// Recycles a finished [`LabelMap`]'s backing storage into the pool.
    pub fn recycle(&self, map: LabelMap) {
        self.put(map.into_vec());
    }

    /// Number of buffers currently pooled.
    pub fn pooled(&self) -> usize {
        self.free.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// How many [`LabelArena::take`] calls had to allocate a fresh buffer.
    pub fn allocations(&self) -> usize {
        self.allocations.load(Ordering::Relaxed)
    }

    /// How many [`LabelArena::take`] calls were served from the pool.
    pub fn reuses(&self) -> usize {
        self.reuses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
