//! Scoped, chunk-based data-parallel helpers.
//!
//! These helpers use `std::thread::scope`, so closures may borrow from the
//! caller's stack (no `'static` bound), which keeps the call sites in the
//! imaging and segmentation crates free of `Arc` plumbing.
//!
//! Concurrency is **bounded**: each helper spawns at most `threads` worker
//! threads, which pull chunks from a shared queue until it drains.  `threads`
//! therefore means what it says — `Backend::Threads(2)` runs at most two
//! workers, whatever the chunk count — which is what the parallel-scaling
//! ablation sweeps over.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of chunks a workload of `len` items should be split into when run on
/// `threads` workers.
///
/// A small oversubscription factor (4× more chunks than workers) keeps the
/// workers busy when chunks have uneven cost (e.g. rows of an image with
/// differing content); the worker count itself stays at `threads`.
pub fn par_chunk_count(len: usize, threads: usize) -> usize {
    if len == 0 {
        return 1;
    }
    (threads.max(1) * 4).min(len)
}

/// Splits `0..len` into `chunks` contiguous ranges of near-equal size.
fn split_ranges(len: usize, chunks: usize) -> Vec<std::ops::Range<usize>> {
    let chunks = chunks.max(1).min(len.max(1));
    let base = len / chunks;
    let rem = len % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    for i in 0..chunks {
        let size = base + usize::from(i < rem);
        out.push(start..start + size);
        start += size;
    }
    out
}

/// Runs `per_chunk` over every index of `chunks` on at most `threads` scoped
/// workers and returns the per-chunk results in chunk order.
///
/// Workers claim chunk indices from a shared atomic counter, so a slow chunk
/// never blocks the others and the worker count stays exactly bounded.
fn run_chunked<R, F>(chunk_count: usize, threads: usize, per_chunk: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = threads.min(chunk_count).max(1);
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::new();
    slots.resize_with(chunk_count, || None);
    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(chunk_count));
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let next = &next;
            let results = &results;
            let per_chunk = &per_chunk;
            handles.push(scope.spawn(move || loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= chunk_count {
                    break;
                }
                let r = per_chunk(idx);
                results.lock().push((idx, r));
            }));
        }
        for handle in handles {
            handle.join().expect("parallel chunk worker panicked");
        }
    });
    for (idx, r) in results.into_inner() {
        slots[idx] = Some(r);
    }
    slots
        .into_iter()
        .map(|r| r.expect("chunk result missing"))
        .collect()
}

/// Applies `f` to every index in `0..len` in parallel and collects the results
/// in index order.
///
/// `threads == 0` or `threads == 1` runs serially on the calling thread; at
/// most `threads` workers run otherwise.
pub fn par_map_indexed<T, F>(len: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || len <= 1 {
        return (0..len).map(f).collect();
    }
    let ranges = split_ranges(len, par_chunk_count(len, threads));
    let pieces = run_chunked(ranges.len(), threads, |idx| {
        ranges[idx].clone().map(&f).collect::<Vec<T>>()
    });
    let mut out = Vec::with_capacity(len);
    for piece in pieces {
        out.extend(piece);
    }
    out
}

/// Runs `f` over disjoint mutable chunks of `items` in parallel.
///
/// `f` receives the starting index of the chunk and the mutable chunk slice.
/// Chunk boundaries are chosen internally; callers must not rely on a
/// particular chunk size, only on every element being visited exactly once.
/// At most `threads` workers run.
pub fn par_for_each_chunk_mut<T, F>(items: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if items.is_empty() {
        return;
    }
    if threads <= 1 {
        f(0, items);
        return;
    }
    let len = items.len();
    let ranges = split_ranges(len, par_chunk_count(len, threads));
    // Pre-split the buffer into disjoint mutable chunks, then let a bounded
    // set of workers drain them from a shared queue.
    let mut chunks: Vec<(usize, &mut [T])> = Vec::with_capacity(ranges.len());
    let mut rest = items;
    let mut consumed = 0usize;
    for range in ranges {
        let size = range.len();
        let (chunk, tail) = rest.split_at_mut(size);
        rest = tail;
        chunks.push((consumed, chunk));
        consumed += size;
    }
    let workers = threads.min(chunks.len()).max(1);
    let queue = Mutex::new(chunks);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let queue = &queue;
            let f = &f;
            scope.spawn(move || {
                while let Some((start, chunk)) = queue.lock().pop() {
                    f(start, chunk);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_ranges_covers_everything_exactly_once() {
        for len in [0usize, 1, 2, 7, 16, 101] {
            for chunks in [1usize, 2, 3, 8, 50] {
                let ranges = split_ranges(len, chunks);
                let mut seen = vec![false; len];
                for r in &ranges {
                    for i in r.clone() {
                        assert!(!seen[i], "index {i} visited twice");
                        seen[i] = true;
                    }
                }
                assert!(seen.into_iter().all(|s| s), "len={len} chunks={chunks}");
            }
        }
    }

    #[test]
    fn par_map_indexed_matches_serial() {
        let serial: Vec<usize> = (0..1000).map(|i| i * i).collect();
        for threads in [1usize, 2, 4, 8] {
            let par = par_map_indexed(1000, threads, |i| i * i);
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn par_map_indexed_empty_and_single() {
        assert!(par_map_indexed(0, 4, |i| i).is_empty());
        assert_eq!(par_map_indexed(1, 4, |i| i + 10), vec![10]);
    }

    #[test]
    fn par_for_each_chunk_mut_touches_every_element() {
        let mut data = vec![0i64; 4096];
        par_for_each_chunk_mut(&mut data, 8, |start, chunk| {
            for (offset, v) in chunk.iter_mut().enumerate() {
                *v = (start + offset) as i64;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i as i64);
        }
    }

    #[test]
    fn par_for_each_chunk_mut_serial_path() {
        let mut data = vec![1u32; 17];
        par_for_each_chunk_mut(&mut data, 1, |_, chunk| {
            for v in chunk {
                *v += 1;
            }
        });
        assert!(data.iter().all(|&v| v == 2));
    }

    #[test]
    fn chunk_count_bounds() {
        assert_eq!(par_chunk_count(0, 8), 1);
        assert!(par_chunk_count(3, 8) <= 3);
        assert!(par_chunk_count(1_000_000, 8) >= 8);
    }

    /// The `threads` argument bounds concurrency: even with many chunks in
    /// flight, no more than `threads` invocations of the closure overlap.
    #[test]
    fn worker_concurrency_is_bounded_by_threads() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for threads in [2usize, 3] {
            let active = AtomicUsize::new(0);
            let peak = AtomicUsize::new(0);
            let mut data = vec![0u8; 64];
            par_for_each_chunk_mut(&mut data, threads, |_, chunk| {
                let now = active.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(5));
                for v in chunk.iter_mut() {
                    *v = 1;
                }
                active.fetch_sub(1, Ordering::SeqCst);
            });
            assert!(data.iter().all(|&v| v == 1));
            assert!(
                peak.load(Ordering::SeqCst) <= threads,
                "peak {} > threads {threads}",
                peak.load(Ordering::SeqCst)
            );

            let peak_map = AtomicUsize::new(0);
            let active_map = AtomicUsize::new(0);
            let out = par_map_indexed(64, threads, |i| {
                let now = active_map.fetch_add(1, Ordering::SeqCst) + 1;
                peak_map.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(2));
                active_map.fetch_sub(1, Ordering::SeqCst);
                i
            });
            assert_eq!(out, (0..64).collect::<Vec<_>>());
            assert!(peak_map.load(Ordering::SeqCst) <= threads);
        }
    }
}
