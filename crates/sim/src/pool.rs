//! A persistent worker pool for the sweep runners.
//!
//! A figure run is many short sub-sweeps (every cell range, every panel,
//! every resumed plan runs its own `parallel_for_tapered` call). Spawning and
//! joining a fresh `thread::scope` per sub-sweep costs tens of microseconds
//! per thread — comparable to the sub-sweep itself on quick grids, and pure
//! overhead on full ones. This module keeps one process-wide set of
//! detached worker threads alive and *lends* them to one runner at a time:
//!
//! * [`run(threads, body)`](run) wakes `threads` workers, each of which
//!   calls `body()` exactly once, and returns after all of them finish —
//!   the same barrier semantics as spawning `threads` scoped threads.
//! * The pool serves **one submission at a time** (a `try_lock` on the
//!   submission mutex). A concurrent caller — e.g. two test sweeps on
//!   different test threads — gets `false` back and falls back to
//!   `thread::scope`, so the pool is an optimization, never a serialization
//!   point or a deadlock risk (a sweep started *from inside* a pool worker
//!   falls back the same way).
//! * Worker panics are caught per-worker and the first one is re-raised in
//!   the submitter after the barrier, mirroring `thread::scope`'s
//!   propagation; the pool stays usable afterwards.
//!
//! Safety: `body` is lifetime-erased into a raw pointer while it crosses
//! into the workers. This is sound because [`run`] blocks until every
//! participating worker has finished its call and re-entered the idle wait
//! (the `remaining` count under the slot mutex), so the pointer is never
//! dereferenced after [`run`] returns; and because workers register
//! themselves (and read the current epoch) *before* a submission can
//! publish a new job, no worker can observe an epoch's job pointer after
//! that epoch's barrier has completed.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

/// Upper bound on pool size; a caller asking for more parallelism than this
/// falls back to scoped threads rather than growing the pool unboundedly.
const MAX_POOL_THREADS: usize = 256;

/// The lifetime-erased job pointer handed to workers for one epoch.
struct JobPtr(*const (dyn Fn() + Sync));
// SAFETY: the pointee is `Sync` (shared calls are fine) and the pointer
// only crosses threads while `run` keeps the referent alive (see the
// module-level safety argument).
unsafe impl Send for JobPtr {}

/// Coordination state shared by the submitter and every worker.
struct Slot {
    /// Submission generation; bumped once per `run`.
    epoch: u64,
    /// Workers participating in the current epoch (`index < active` runs).
    active: usize,
    /// Participants that have not yet finished the current epoch's call.
    remaining: usize,
    /// Workers that have started up and observed the current epoch.
    registered: usize,
    /// The current epoch's job (present exactly while `remaining > 0`).
    job: Option<JobPtr>,
    /// First panic payload caught this epoch.
    panic: Option<Box<dyn Any + Send>>,
}

struct Shared {
    slot: Mutex<Slot>,
    /// Signals workers: a new epoch is published.
    work: Condvar,
    /// Signals the submitter: registration or completion progressed.
    done: Condvar,
}

struct Pool {
    /// Serializes submissions; the guarded value is the number of worker
    /// threads spawned so far.
    submit: Mutex<usize>,
    shared: Shared,
    /// Total workers ever spawned (observable, for pool-reuse tests).
    spawned: AtomicUsize,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        submit: Mutex::new(0),
        shared: Shared {
            slot: Mutex::new(Slot {
                epoch: 0,
                active: 0,
                remaining: 0,
                registered: 0,
                job: None,
                panic: None,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        },
        spawned: AtomicUsize::new(0),
    })
}

/// Locks a mutex, shrugging off poisoning: the pool's own invariants never
/// depend on a panicking lock holder (jobs run outside the locks), so a
/// poisoned guard's state is still consistent.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn worker_main(index: usize) {
    let shared = &pool().shared;
    let mut guard = lock(&shared.slot);
    guard.registered += 1;
    // Observing the epoch under the same lock that publishes new ones is
    // what guarantees this worker cannot miss (or double-run) a submission.
    let mut seen = guard.epoch;
    shared.done.notify_all();
    loop {
        while guard.epoch == seen {
            guard = shared.work.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
        seen = guard.epoch;
        if index >= guard.active {
            continue;
        }
        let job = guard.job.as_ref().expect("active epoch carries a job").0;
        drop(guard);
        // SAFETY: the submitter keeps the job alive until `remaining == 0`.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*job)() }));
        guard = lock(&shared.slot);
        if let Err(payload) = result {
            guard.panic.get_or_insert(payload);
        }
        guard.remaining -= 1;
        if guard.remaining == 0 {
            shared.done.notify_all();
        }
    }
}

/// Erases `body`'s borrow lifetime so it can sit in the shared slot.
///
/// SAFETY: callers must not let the returned pointer outlive the borrow —
/// [`run`] upholds this by blocking until `remaining == 0` (no worker still
/// holds the pointer) before returning. See the module-level argument.
fn erase<'a>(body: &'a (dyn Fn() + Sync)) -> JobPtr {
    let short: *const (dyn Fn() + Sync + 'a) = body;
    JobPtr(unsafe {
        std::mem::transmute::<*const (dyn Fn() + Sync + 'a), *const (dyn Fn() + Sync + 'static)>(
            short,
        )
    })
}

/// Runs `body` once on each of `threads` pooled workers and waits for all
/// of them — the pooled equivalent of spawning `threads` scoped threads.
///
/// Returns `false` without running anything when the pool cannot take the
/// submission (another submission is in flight, `threads` is out of the
/// pool's range, or workers cannot be spawned); the caller then runs the
/// same `body` on scoped threads. Panics from `body` are re-raised here
/// after every participant has finished.
pub fn run(threads: usize, body: &(dyn Fn() + Sync)) -> bool {
    if !(2..=MAX_POOL_THREADS).contains(&threads) {
        return false;
    }
    let pool = pool();
    // One submission at a time; never wait for another sweep (that path
    // would deadlock a sweep nested inside a pool worker).
    let Ok(mut workers) = pool.submit.try_lock() else {
        return false;
    };
    while *workers < threads {
        let index = *workers;
        let spawned = std::thread::Builder::new()
            .name(format!("sweep-pool-{index}"))
            .spawn(move || worker_main(index));
        if spawned.is_err() {
            return false;
        }
        *workers += 1;
        pool.spawned.store(*workers, Ordering::Relaxed);
    }
    let shared = &pool.shared;
    let job = erase(body);
    let mut guard = lock(&shared.slot);
    // Wait until every spawned worker has registered (each registers before
    // it can wait for work, so a newly grown pool cannot miss this epoch).
    while guard.registered < *workers {
        guard = shared.done.wait(guard).unwrap_or_else(|e| e.into_inner());
    }
    guard.epoch += 1;
    guard.active = threads;
    guard.remaining = threads;
    guard.job = Some(job);
    guard.panic = None;
    shared.work.notify_all();
    while guard.remaining > 0 {
        guard = shared.done.wait(guard).unwrap_or_else(|e| e.into_inner());
    }
    guard.job = None;
    let panic = guard.panic.take();
    drop(guard);
    drop(workers);
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
    true
}

/// Total worker threads the pool has ever spawned — stable across repeated
/// [`run`] calls once the pool has grown to the working size, which is the
/// observable fact the pool exists to provide.
pub fn spawned_workers() -> usize {
    pool().spawned.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_body_once_per_worker_and_reuses_threads() {
        let count = AtomicUsize::new(0);
        let body = || {
            count.fetch_add(1, Ordering::Relaxed);
        };
        if !run(3, &body) {
            // Another test holds the pool; nothing to assert here — the
            // engine's fallback path is covered by the sweep suites.
            return;
        }
        assert_eq!(count.load(Ordering::Relaxed), 3);
        let after_first = spawned_workers();
        assert!(after_first >= 3);
        for _ in 0..5 {
            if !run(3, &body) {
                return;
            }
        }
        assert_eq!(
            spawned_workers(),
            after_first,
            "repeat submissions must reuse workers, not spawn more"
        );
        assert_eq!(count.load(Ordering::Relaxed), 18);
    }

    #[test]
    fn nested_submission_falls_back() {
        let inner_accepted = AtomicUsize::new(usize::MAX);
        let body = || {
            // A sweep started from inside a pool worker must not deadlock
            // on the pool; it reports "not taken" and the caller scopes.
            let nested = run(2, &|| {});
            inner_accepted.store(usize::from(nested), Ordering::Relaxed);
        };
        if !run(2, &body) {
            return;
        }
        assert_eq!(
            inner_accepted.load(Ordering::Relaxed),
            0,
            "nested submission must be rejected, not served"
        );
    }

    #[test]
    fn degenerate_thread_counts_are_rejected() {
        assert!(!run(0, &|| {}));
        assert!(!run(1, &|| {}));
        assert!(!run(MAX_POOL_THREADS + 1, &|| {}));
    }

    #[test]
    fn panics_propagate_and_pool_survives() {
        let attempt = std::panic::catch_unwind(|| run(2, &|| panic!("pool probe panic")));
        match attempt {
            // Pool busy elsewhere: the submission was never taken.
            Ok(taken) => assert!(!taken),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .copied()
                    .unwrap_or("<non-str payload>");
                assert!(msg.contains("pool probe panic"), "{msg}");
                // The pool still serves after a panicked epoch.
                let count = AtomicUsize::new(0);
                let body = || {
                    count.fetch_add(1, Ordering::Relaxed);
                };
                if run(2, &body) {
                    assert_eq!(count.load(Ordering::Relaxed), 2);
                }
            }
        }
    }
}
