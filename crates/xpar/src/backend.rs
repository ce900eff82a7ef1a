//! Runtime-selectable execution policy.
//!
//! Higher-level crates expose a single `Backend` knob so that every algorithm
//! (pixel classification, K-means assignment, dataset sweeps) can be run
//! serially or with the scoped-thread substrate, without changing call
//! sites.  This is also what the parallel-scaling ablation benchmark sweeps
//! over.

/// Execution policy for data-parallel loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Run on the calling thread.
    Serial,
    /// Use the scoped-thread helpers in [`crate::par`] with the given number of
    /// worker threads (0 means "use [`crate::default_threads`]").
    Threads(usize),
}

impl Default for Backend {
    fn default() -> Self {
        Backend::Threads(0)
    }
}

impl Backend {
    /// Effective worker-thread count for this backend.
    pub fn effective_threads(self) -> usize {
        match self {
            Backend::Serial => 1,
            Backend::Threads(0) => crate::default_threads(),
            Backend::Threads(n) => n,
        }
    }

    /// Maps `f` over `0..len`, collecting results in index order, using this
    /// backend's execution policy.
    pub fn map_indexed<T, F>(self, len: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync + Send,
    {
        match self {
            Backend::Serial => (0..len).map(f).collect(),
            Backend::Threads(_) => crate::par::par_map_indexed(len, self.effective_threads(), f),
        }
    }

    /// Runs `f` over disjoint mutable chunks of `items` using this backend.
    pub fn for_each_chunk_mut<T, F>(self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync + Send,
    {
        if items.is_empty() {
            return;
        }
        match self {
            Backend::Serial => f(0, items),
            Backend::Threads(_) => {
                crate::par::par_for_each_chunk_mut(items, self.effective_threads(), f)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_backends() -> Vec<Backend> {
        vec![
            Backend::Serial,
            Backend::Threads(1),
            Backend::Threads(3),
            Backend::Threads(0),
        ]
    }

    #[test]
    fn map_indexed_is_backend_independent() {
        let expected: Vec<usize> = (0..500).map(|i| i * 3 + 1).collect();
        for backend in all_backends() {
            let got = backend.map_indexed(500, |i| i * 3 + 1);
            assert_eq!(got, expected, "backend {backend:?}");
        }
    }

    #[test]
    fn for_each_chunk_mut_visits_all_elements_once() {
        for backend in all_backends() {
            let mut data = vec![0u32; 1234];
            backend.for_each_chunk_mut(&mut data, |start, chunk| {
                for (offset, v) in chunk.iter_mut().enumerate() {
                    *v = (start + offset) as u32 + 1;
                }
            });
            for (i, v) in data.iter().enumerate() {
                assert_eq!(*v, i as u32 + 1, "backend {backend:?}");
            }
        }
    }

    #[test]
    fn effective_threads_is_positive() {
        for backend in all_backends() {
            assert!(backend.effective_threads() >= 1, "backend {backend:?}");
        }
        assert_eq!(Backend::Serial.effective_threads(), 1);
        assert_eq!(Backend::Threads(5).effective_threads(), 5);
    }

    #[test]
    fn empty_workloads_are_handled() {
        for backend in all_backends() {
            assert!(backend.map_indexed(0, |i| i).is_empty());
            let mut empty: Vec<u8> = Vec::new();
            backend.for_each_chunk_mut(&mut empty, |_, _| panic!("should not be called"));
        }
    }
}
