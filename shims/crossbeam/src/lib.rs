//! Offline shim for a subset of `crossbeam`:
//! `crossbeam::channel::{unbounded, Sender, Receiver}` with clonable
//! multi-producer multi-consumer endpoints.
//!
//! Implemented as a `Mutex<VecDeque>` + `Condvar` queue.  `recv` blocks until
//! an item arrives or every `Sender` is dropped; `send` fails once every
//! `Receiver` is gone.  Throughput is far below real crossbeam.
//!
//! No workspace crate uses it.  It stays, with `xpar`'s dependency on it,
//! only because the benchmark's committed `loopbench/Cargo.lock` records it.

pub mod channel {
    //! MPMC channel with the `crossbeam-channel` API shape.

    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};

    struct Shared<T> {
        queue: Mutex<State<T>>,
        available: Condvar,
    }

    struct State<T> {
        items: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    /// Error returned by [`Sender::send`] when every receiver is gone.
    #[derive(Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    // Like real crossbeam: Debug without requiring T: Debug (the payload may
    // be an opaque closure).
    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// every sender is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "receiving on an empty and disconnected channel")
        }
    }

    /// The sending half of an unbounded channel.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half of an unbounded channel.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Creates an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(State {
                items: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            available: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        /// Enqueues `value`, failing only if every receiver was dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut state = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            if state.receivers == 0 {
                return Err(SendError(value));
            }
            state.items.push_back(value);
            drop(state);
            self.shared.available.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared
                .queue
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .senders += 1;
            Self {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            state.senders -= 1;
            let last = state.senders == 0;
            drop(state);
            if last {
                // Wake blocked receivers so they observe the disconnect.
                self.shared.available.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until an item is available or every sender is dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(item) = state.items.pop_front() {
                    return Ok(item);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state = self
                    .shared
                    .available
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }

        /// Non-blocking receive; `None` when the queue is currently empty.
        pub fn try_recv(&self) -> Option<T> {
            self.shared
                .queue
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .items
                .pop_front()
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared
                .queue
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .receivers += 1;
            Self {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.shared
                .queue
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .receivers -= 1;
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::sync::atomic::{AtomicUsize, Ordering};

        #[test]
        fn values_flow_in_order_through_one_receiver() {
            let (tx, rx) = unbounded();
            for i in 0..10 {
                tx.send(i).unwrap();
            }
            for i in 0..10 {
                assert_eq!(rx.recv().unwrap(), i);
            }
        }

        #[test]
        fn recv_errors_after_all_senders_drop() {
            let (tx, rx) = unbounded::<u32>();
            tx.send(1).unwrap();
            drop(tx);
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Err(RecvError));
        }

        #[test]
        fn send_errors_after_all_receivers_drop() {
            let (tx, rx) = unbounded::<u32>();
            drop(rx);
            assert_eq!(tx.send(9), Err(SendError(9)));
        }

        #[test]
        fn cloned_receivers_split_the_work() {
            let (tx, rx) = unbounded::<usize>();
            let seen = std::sync::Arc::new(AtomicUsize::new(0));
            let mut handles = Vec::new();
            for _ in 0..4 {
                let rx = rx.clone();
                let seen = std::sync::Arc::clone(&seen);
                handles.push(std::thread::spawn(move || {
                    while rx.recv().is_ok() {
                        seen.fetch_add(1, Ordering::Relaxed);
                    }
                }));
            }
            drop(rx);
            for i in 0..100 {
                tx.send(i).unwrap();
            }
            drop(tx);
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(seen.load(Ordering::Relaxed), 100);
        }
    }
}
