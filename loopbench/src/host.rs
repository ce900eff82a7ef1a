//! What the benchmark reads about its host: a speed probe, core count and
//! peak resident memory.

use std::hint::black_box;
use std::time::Instant;

/// Times a fixed loop of the benchmark's own code (an xorshift walk over a
/// 256 KiB table; no program code in it) and returns the median of five
/// passes in milliseconds.  It gates nothing: it tells a shift in host speed
/// apart from a change in the program.
pub fn probe_ms() -> f64 {
    let mut table = vec![0u64; 32 * 1024];
    let mut passes: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            let mut x = 0x2545_F491_4F6C_DD1Du64;
            for _ in 0..2_000_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let slot = (x as usize) % table.len();
                table[slot] = table[slot].wrapping_add(x);
            }
            black_box(&table);
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    passes.sort_by(f64::total_cmp);
    passes[passes.len() / 2]
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

extern "C" {
    /// glibc: returns free heap memory of every malloc arena to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns the memory the benchmark freed while building its inputs to the
/// kernel, then resets the process's resident-memory high-water mark to its
/// current resident size and returns that size in KiB.  Without the trim,
/// the daemon's threads would reuse whatever the input generators happened to
/// leave in the allocator, and its growth would read differently per seed.
pub fn reset_peak_rss_kib() -> Result<u64, String> {
    // SAFETY: `malloc_trim` takes no pointers and only releases memory the
    // allocator has already marked free; it is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the memory high-water mark: {e}"))?;
    peak_rss_kib()
}

/// The process's resident-memory high-water mark (`VmHWM`) in KiB.
pub fn peak_rss_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}
