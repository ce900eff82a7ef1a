//! Offline shim for the subset of `parking_lot` this workspace uses.
//!
//! Wraps `std::sync::Mutex` behind the `parking_lot` API shape: `lock()`
//! returns the guard directly instead of a `Result`.  Poisoning is deliberately ignored (`parking_lot` has no
//! poisoning either): a panic while holding a lock leaves the data in
//! whatever state it was, exactly like the real crate.

use std::sync::{Mutex as StdMutex, MutexGuard};

/// Mutual exclusion lock with the `parking_lot::Mutex` API.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: StdMutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex protecting `value`.
    pub fn new(value: T) -> Self {
        Self {
            inner: StdMutex::new(value),
        }
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_round_trips_values() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn locks_survive_a_panicked_holder() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison attempt");
        })
        .join();
        // parking_lot semantics: no poisoning, the lock stays usable.
        *m.lock() = 5;
        assert_eq!(*m.lock(), 5);
    }
}
