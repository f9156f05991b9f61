//! Worker-thread pool for lane execution.
//!
//! [`LaneMux::spawn`](crate::lanes::LaneMux::spawn) runs each lane as a
//! blocking closure over its own pair of one-slot handoffs to the mux,
//! which historically meant one fresh OS thread per lane. Pipelined workloads spawn and retire
//! lanes constantly (the `mvbc-smr` replicated log opens one lane per
//! broadcast slot), so at n >= 64 a run churns through thousands of
//! short-lived threads. The pool here keeps finished lane workers warm
//! and hands them the next lane instead: one OS thread drives many
//! lanes *over its lifetime*.
//!
//! Two properties are load-bearing:
//!
//! - **Concurrency is never bounded.** A lane blocks inside
//!   `end_round` until its mux steps it, so every concurrently-live
//!   lane needs a live thread. `run` therefore always finds a thread
//!   for a job — it pops an idle warm worker when one exists and spawns
//!   a fresh one otherwise. The pool size knob bounds only how many
//!   *idle* workers are retained for reuse; it can never deadlock a
//!   pipeline, and it can never change scheduling order: each lane
//!   still owns its private pair of handoffs, and
//!   [`LaneMux::step`](crate::lanes::LaneMux::step) still collects
//!   lanes in lane-id order, so committed bytes and trace digests are
//!   identical for every pool size.
//! - **Panics stay contained.** A lane panic is caught on the worker,
//!   shipped through the lane's `PoolHandle` exactly like
//!   [`std::thread::JoinHandle::join`] would ship it, and the worker
//!   survives to run later lanes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

use crossbeam::channel::{self, Receiver, Sender};

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    /// Warm workers waiting for their next lane (a stack: the most
    /// recently parked worker — hottest caches — is reused first).
    idle: Mutex<Vec<Sender<Job>>>,
    /// Total workers ever spawned (diagnostics; see [`lane_pool_spawned`]).
    spawned: AtomicUsize,
}

fn state() -> &'static PoolState {
    static STATE: OnceLock<PoolState> = OnceLock::new();
    STATE.get_or_init(|| PoolState {
        idle: Mutex::new(Vec::new()),
        spawned: AtomicUsize::new(0),
    })
}

/// `0` means "unset": resolve from the machine's available parallelism.
static LANE_POOL_RETAIN: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide lane-pool size: how many idle lane workers are
/// kept warm for reuse. `1` keeps a single warm worker — functionally
/// identical to the historical thread-per-lane behaviour, minus the
/// spawn churn for strictly sequential lanes.
///
/// The knob never bounds lane *concurrency* (see the module docs) and
/// never affects committed bytes or trace digests.
///
/// # Panics
///
/// Panics when `retain` is zero — reject zero at the flag-parsing layer
/// with a structured error instead.
pub fn set_lane_pool_retain(retain: usize) {
    assert!(retain >= 1, "lane pool size must be at least 1");
    LANE_POOL_RETAIN.store(retain, Ordering::Relaxed);
}

/// The effective lane-pool size (see [`set_lane_pool_retain`]).
///
/// Defaults to the machine's available parallelism until set.
pub fn lane_pool_retain() -> usize {
    match LANE_POOL_RETAIN.load(Ordering::Relaxed) {
        // mvbc-lint: allow(determinism.thread_count): the pool size only bounds how many idle workers are retained for reuse; lane scheduling and trace digests are pinned pool-size-invariant by the netsim latency suite
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// Total lane workers ever spawned by this process (diagnostics: a
/// pipelined run that reuses warm workers keeps this far below its lane
/// count).
pub fn lane_pool_spawned() -> usize {
    state().spawned.load(Ordering::Relaxed)
}

/// Handle to a job submitted with [`run`] — the pool's analogue of
/// [`std::thread::JoinHandle`].
#[derive(Debug)]
pub(crate) struct PoolHandle<O> {
    result: Receiver<std::thread::Result<O>>,
}

impl<O> PoolHandle<O> {
    /// Waits for the job to finish. Mirrors
    /// [`std::thread::JoinHandle::join`]: a panicking job yields
    /// `Err(payload)` with the original panic payload.
    pub(crate) fn join(self) -> std::thread::Result<O> {
        self.result
            .recv()
            .unwrap_or_else(|_| Err(Box::new("lane pool worker vanished")))
    }
}

/// Runs `f` on a warm lane worker (or a freshly spawned one when none
/// is idle) and returns a join handle for its result.
pub(crate) fn run<O, F>(f: F) -> PoolHandle<O>
where
    O: Send + 'static,
    F: FnOnce() -> O + Send + 'static,
{
    let (res_tx, res_rx) = channel::unbounded::<std::thread::Result<O>>();
    let job: Job = Box::new(move || {
        let out = catch_unwind(AssertUnwindSafe(f));
        let _ = res_tx.send(out);
    });
    dispatch(job);
    PoolHandle { result: res_rx }
}

fn dispatch(mut job: Job) {
    let pool = state();
    loop {
        let worker = pool
            .idle
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop();
        match worker {
            Some(tx) => match tx.send(job) {
                Ok(()) => return,
                // The worker vanished (can only happen if its thread was
                // torn down externally); retry with the next one.
                Err(err) => job = err.0,
            },
            None => {
                let (tx, rx) = channel::unbounded::<Job>();
                tx.send(job).expect("fresh worker accepts its first job");
                pool.spawned.fetch_add(1, Ordering::Relaxed);
                std::thread::spawn(move || worker_loop(&rx, &tx));
                return;
            }
        }
    }
}

/// Executes jobs until the retain bound says this worker should retire.
/// The worker holds a sender to its own queue, so exit is decided by the
/// park step, never by channel disconnection.
fn worker_loop(rx: &Receiver<Job>, tx: &Sender<Job>) {
    while let Ok(job) = rx.recv() {
        job();
        let mut idle = state().idle.lock().unwrap_or_else(PoisonError::into_inner);
        if idle.len() >= lane_pool_retain() {
            return; // enough warm workers already; retire this thread
        }
        idle.push(tx.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_output_round_trips() {
        let handle = run(|| 6 * 7);
        assert_eq!(handle.join().expect("job succeeded"), 42);
    }

    #[test]
    fn panic_payload_is_preserved() {
        let handle = run(|| -> u32 { panic!("pool exploded") });
        let err = handle.join().expect_err("job panicked");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"pool exploded"));
    }

    #[test]
    fn worker_survives_a_panicking_job() {
        let boom = run(|| -> () { panic!("first job dies") });
        assert!(boom.join().is_err());
        let ok = run(|| "still serving");
        assert_eq!(ok.join().expect("pool still works"), "still serving");
    }

    #[test]
    fn concurrent_jobs_all_complete() {
        let handles: Vec<_> = (0..32u64).map(|i| run(move || i * i)).collect();
        let total: u64 = handles
            .into_iter()
            .map(|h| h.join().expect("job succeeded"))
            .sum();
        assert_eq!(total, (0..32u64).map(|i| i * i).sum());
    }

    #[test]
    fn sequential_jobs_reuse_warm_workers() {
        // Prime one warm worker, then run strictly sequential jobs: the
        // pool should mostly reuse instead of spawning per job. Other
        // tests share the process-wide pool, so the bound is generous.
        run(|| ()).join().expect("prime job");
        let before = lane_pool_spawned();
        for i in 0..20u64 {
            assert_eq!(run(move || i).join().expect("job succeeded"), i);
        }
        let delta = lane_pool_spawned() - before;
        assert!(delta < 20, "20 sequential jobs spawned {delta} fresh workers");
    }

    #[test]
    #[should_panic(expected = "lane pool size must be at least 1")]
    fn retain_knob_rejects_zero() {
        set_lane_pool_retain(0);
    }
}
