//! One-slot handoffs: how a waiting node or lane receives its next
//! message.
//!
//! Every node of a simulation owns one [`Handoff`] for its round inbox,
//! and every lane owns one for each direction of its hop to the
//! multiplexer. Exactly one item is in flight per slot at a time: the
//! receiver blocks in [`Handoff::take`] until the sender's
//! [`Handoff::put`], and never sends again before it has taken.
//!
//! A receiver first yield-spins [`SPIN_YIELDS`] times on an atomic flag —
//! a round barrier usually completes within a few scheduler slices — and
//! only then parks on a [`Condvar`]. A sender signals the condvar only
//! when its receiver is actually parked, so a handoff that lands during
//! the spin costs no wake-up call. The spin is a fixed count of
//! [`std::thread::yield_now`] calls rather than a wall-clock budget, so
//! it makes progress even when every thread of a run shares one core.
//!
//! A handoff has no disconnect signal. Whoever abandons a receiver must
//! call [`Handoff::fail`], which releases it (now and on every later
//! take) with a message.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Yields a receiver spends polling before it parks. Throughput on the
/// repo benchmark was flat across 8–512 on a 2-core host; 64 sits in the
/// middle of that plateau.
const SPIN_YIELDS: u32 = 64;

/// Why [`Handoff::take`] returned without an item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Missed {
    /// The slot was failed with this message (see [`Handoff::fail`]).
    Failed(Arc<str>),
    /// The timeout passed with the slot still empty.
    TimedOut,
}

struct Slot<T> {
    item: Option<T>,
    failed: Option<Arc<str>>,
    /// The receiver is waiting on the condvar (not spinning).
    parked: bool,
}

/// A one-slot, single-receiver mailbox with a spin-then-park wait.
pub(crate) struct Handoff<T> {
    /// Set while `item` or `failed` is present: the spinning receiver
    /// polls this instead of the lock. It is only a hint (Release on
    /// set, Acquire on poll): the item itself is always read under the
    /// lock.
    ready: AtomicBool,
    slot: Mutex<Slot<T>>,
    bell: Condvar,
}

impl<T> Default for Handoff<T> {
    fn default() -> Self {
        Handoff {
            ready: AtomicBool::new(false),
            slot: Mutex::new(Slot {
                item: None,
                failed: None,
                parked: false,
            }),
            bell: Condvar::new(),
        }
    }
}

impl<T> Handoff<T> {
    fn lock(&self) -> MutexGuard<'_, Slot<T>> {
        // Every update under the lock is a single step (`put` asserts
        // before it writes), so the slot is valid even after a panic.
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn signal(&self, slot: &Slot<T>) {
        self.ready.store(true, Ordering::Release);
        if slot.parked {
            self.bell.notify_one();
        }
    }

    /// Places `item` in the slot and wakes the receiver.
    ///
    /// # Panics
    ///
    /// Panics when the slot still holds an untaken item: the protocol is
    /// strictly one in flight.
    pub(crate) fn put(&self, item: T) {
        let mut slot = self.lock();
        assert!(slot.item.is_none(), "handoff already holds an untaken item");
        slot.item = Some(item);
        self.signal(&slot);
    }

    /// Releases the receiver, now and on every later take, with `why`.
    /// An item already in the slot is still delivered first; only the
    /// first failure message is kept.
    pub(crate) fn fail(&self, why: Arc<str>) {
        let mut slot = self.lock();
        slot.failed.get_or_insert(why);
        self.signal(&slot);
    }

    /// True once [`Handoff::fail`] was called.
    pub(crate) fn is_failed(&self) -> bool {
        self.lock().failed.is_some()
    }

    /// True while the receiver is parked on the condvar.
    #[cfg(test)]
    pub(crate) fn is_parked(&self) -> bool {
        self.lock().parked
    }

    /// Waits for the next item: yield-spins, then parks for at most
    /// `timeout` (`None` waits without limit).
    pub(crate) fn take(&self, timeout: Option<Duration>) -> Result<T, Missed> {
        for _ in 0..SPIN_YIELDS {
            if self.ready.load(Ordering::Acquire) {
                break;
            }
            std::thread::yield_now();
        }
        let empty = |s: &mut Slot<T>| s.item.is_none() && s.failed.is_none();
        let mut slot = self.lock();
        if empty(&mut slot) {
            slot.parked = true;
            slot = match timeout {
                Some(limit) => {
                    self.bell
                        .wait_timeout_while(slot, limit, empty)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
                None => self
                    .bell
                    .wait_while(slot, empty)
                    .unwrap_or_else(PoisonError::into_inner),
            };
            slot.parked = false;
        }
        if let Some(item) = slot.item.take() {
            self.ready.store(slot.failed.is_some(), Ordering::Release);
            return Ok(item);
        }
        Err(slot.failed.clone().map_or(Missed::TimedOut, Missed::Failed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel;

    #[test]
    fn put_before_take_delivers_without_parking() {
        let h = Handoff::default();
        h.put(7u32);
        assert_eq!(h.take(Some(Duration::ZERO)), Ok(7));
        // The slot is empty again and reusable.
        assert_eq!(h.take(Some(Duration::ZERO)), Err(Missed::TimedOut));
        h.put(8);
        assert_eq!(h.take(None), Ok(8));
    }

    #[test]
    fn take_before_put_parks_until_the_item_lands() {
        let h = Handoff::default();
        std::thread::scope(|s| {
            let taker = s.spawn(|| h.take(None));
            // The taker spins out and parks before the item exists.
            while !h.is_parked() {
                std::thread::yield_now();
            }
            h.put(42u64);
            assert_eq!(taker.join().expect("taker returns"), Ok(42));
        });
    }

    #[test]
    fn a_put_during_the_spin_is_taken_without_parking() {
        let h = Handoff::default();
        let (started_tx, started_rx) = channel::unbounded::<()>();
        std::thread::scope(|s| {
            let taker = s.spawn(|| {
                started_tx.send(()).expect("main listens");
                h.take(None)
            });
            // Put as soon as the taker runs: whether it is still spinning
            // or already parked, it must see the item exactly once.
            started_rx.recv().expect("taker started");
            h.put(5u64);
            assert_eq!(taker.join().expect("taker returns"), Ok(5));
        });
        assert!(!h.is_parked());
    }

    #[test]
    fn a_timed_take_times_out_on_an_empty_slot() {
        let h: Handoff<u8> = Handoff::default();
        assert_eq!(h.take(Some(Duration::from_millis(1))), Err(Missed::TimedOut));
        assert!(!h.is_parked(), "the timed-out taker unparks");
    }

    #[test]
    fn many_round_trips_between_two_threads() {
        // Ping-pong through two handoffs: every put is taken exactly once
        // and in order, whichever side arrives first.
        let (ping, pong) = (Handoff::default(), Handoff::default());
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..1000 {
                    let v: u32 = ping.take(None).expect("ping");
                    pong.put(v + 1);
                }
            });
            for i in 0..1000u32 {
                ping.put(i);
                assert_eq!(pong.take(None), Ok(i + 1));
            }
        });
    }

    #[test]
    fn fail_releases_a_parked_taker_and_sticks() {
        let h: Handoff<u8> = Handoff::default();
        std::thread::scope(|s| {
            let taker = s.spawn(|| h.take(None));
            while !h.is_parked() {
                std::thread::yield_now();
            }
            h.fail("root cause".into());
            assert_eq!(
                taker.join().expect("taker returns"),
                Err(Missed::Failed("root cause".into()))
            );
        });
        // Later takes fail at once; the first message wins.
        h.fail("second".into());
        assert_eq!(h.take(None), Err(Missed::Failed("root cause".into())));
    }

    #[test]
    fn an_item_put_before_a_failure_is_still_delivered() {
        let h = Handoff::default();
        h.put(1u8);
        h.fail("late".into());
        assert_eq!(h.take(None), Ok(1));
        assert_eq!(h.take(None), Err(Missed::Failed("late".into())));
    }

    #[test]
    #[should_panic(expected = "already holds an untaken item")]
    fn double_put_is_rejected() {
        let h = Handoff::default();
        h.put(1u8);
        h.put(2u8);
    }
}
