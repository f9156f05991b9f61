//! Offline stand-in for the `crossbeam` crate.
//!
//! Only `crossbeam::channel` is used by this workspace — by the network
//! simulator's lane worker pool (`mvbc_netsim::lanepool`: job queues and
//! result channels) and by its tests — so only that module is provided,
//! backed by `std::sync::mpsc`. The semantics the pool needs — unbounded
//! FIFO channels, clonable senders, blocking `recv` — are identical;
//! std's channel merely lacks a `Sync` receiver, which the pool never
//! requires (each receiver lives on exactly one thread). Rounds and lane
//! hops do not use channels.

#![forbid(unsafe_code)]

/// Multi-producer single-consumer channels (`crossbeam-channel` API slice).
pub mod channel {
    use std::sync::mpsc;
    use std::time::Duration;

    pub use std::sync::mpsc::{RecvError, RecvTimeoutError, SendError, TryRecvError};

    /// The sending half of an unbounded channel.
    #[derive(Debug)]
    pub struct Sender<T>(mpsc::Sender<T>);

    // Derived Clone would require T: Clone; the sender handle itself is
    // always clonable.
    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(self.0.clone())
        }
    }

    impl<T> Sender<T> {
        /// Sends `msg`, failing only when the receiver was dropped.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            self.0.send(msg)
        }
    }

    /// The receiving half of an unbounded channel.
    #[derive(Debug)]
    pub struct Receiver<T>(mpsc::Receiver<T>);

    impl<T> Receiver<T> {
        /// Blocks until a message arrives or every sender was dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.0.recv()
        }

        /// As [`recv`](Receiver::recv) with an upper bound on the wait.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.0.recv_timeout(timeout)
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.0.try_recv()
        }

        /// Drains and returns all currently-queued messages.
        pub fn try_iter(&self) -> mpsc::TryIter<'_, T> {
            self.0.try_iter()
        }
    }

    impl<T> IntoIterator for Receiver<T> {
        type Item = T;
        type IntoIter = mpsc::IntoIter<T>;

        fn into_iter(self) -> Self::IntoIter {
            self.0.into_iter()
        }
    }

    /// Creates an unbounded FIFO channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender(tx), Receiver(rx))
    }
}

#[cfg(test)]
mod tests {
    use super::channel;
    use std::time::Duration;

    #[test]
    fn send_recv_fifo() {
        let (tx, rx) = channel::unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.recv().unwrap(), 2);
    }

    #[test]
    fn clone_sender_across_threads() {
        let (tx, rx) = channel::unbounded();
        std::thread::scope(|s| {
            for i in 0..4 {
                let tx = tx.clone();
                s.spawn(move || tx.send(i).unwrap());
            }
        });
        drop(tx);
        let mut got: Vec<i32> = rx.into_iter().collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn recv_timeout_times_out() {
        let (tx, rx) = channel::unbounded::<()>();
        assert!(rx.recv_timeout(Duration::from_millis(10)).is_err());
        drop(tx);
    }
}
