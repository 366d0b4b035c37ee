//! The persistent worker pool behind [`crate::Runtime`]'s `par_*` calls.
//!
//! ## Why a pool
//!
//! The original runtime spawned scoped worker threads *per `par_*` call*.
//! That keeps the crate trivially safe, but every small oracle call pays
//! the thread-spawn tax — tens of microseconds per worker — which is why
//! the colour-coding oracle needed a serial cutoff (`work_proxy`) to stay
//! competitive on small instances. This module
//! replaces the per-call spawn with **long-lived workers** that park on a
//! condvar between jobs: dispatching a job is a mutex lock plus a wakeup,
//! two orders of magnitude cheaper than a spawn.
//!
//! ## The retire-before-return protocol
//!
//! A *job* is a borrowed closure `&(dyn Fn() + Sync)` that every
//! participant runs exactly once (the closure loops over an atomic work
//! cursor internally). The closure borrows the caller's stack — results
//! sink, work cursor, the user's `f` — so handing it to threads that
//! outlive the call requires erasing its lifetime. That erasure is the
//! runtime's **only `unsafe`**, and it is sound because of a strict
//! protocol:
//!
//! 1. **Publish.** [`Pool::try_execute`] installs the erased closure under
//!    the pool mutex together with a *slot count* (how many helpers may
//!    claim it) and wakes the workers. A worker participates only by
//!    *claiming a slot* under the same mutex, which increments the job's
//!    `active` count before the worker ever touches the closure.
//! 2. **Participate.** The caller runs the closure on its own thread too —
//!    the pool contributes `width − 1` helpers to a width-`w` call.
//! 3. **Retire.** Before `try_execute` returns (or unwinds — the step runs
//!    in a drop guard), it re-locks the state, *cancels all unclaimed
//!    slots*, and blocks until `active == 0`. After that point no worker
//!    holds or can ever re-acquire the closure, so the borrow ends strictly
//!    after every use: the caller's stack frame outlives all accesses.
//!
//! A worker panic inside the job is caught, recorded, and re-raised on the
//! calling thread after retirement (matching the scoped runtime's
//! `join().expect` behaviour); the caller's own panic still runs step 3
//! via the drop guard, so unwinding never leaves a dangling job behind.
//!
//! ## Determinism
//!
//! The pool affects **scheduling only**. Which thread claims a slot and
//! how many helpers wake up in time to participate change nothing about
//! results: the runtime's `par_*` primitives key every result by work-item
//! index and fold in index order, and every RNG stream derives from
//! `(seed, item index)` (see the crate docs). The width matrix in
//! `tests/parallel_determinism.rs` pins this: estimates are bit-identical
//! at 1, 2 and 8 threads and equal to the serial path.
//!
//! ## Sizing, nesting and contention
//!
//! The pool has no width of its own. A call asks for `width` participants
//! (the runtime's thread count) and the pool spawns helpers lazily up to
//! the widest call it has seen; parked helpers cost nothing.
//!
//! Jobs do not nest: [`Pool::try_execute`] refuses a call issued from
//! within a pool worker (e.g. an oracle call inside a `count_batch` or
//! serve-shard item) and a call that finds another job in flight. The
//! runtime then runs the body once, inline on the calling thread — the
//! serial loop, with identical results.

#![allow(unsafe_code)]

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

thread_local! {
    /// Set for the lifetime of every pool worker thread; lets nested
    /// `par_*` calls detect that they are already running on the pool.
    static IN_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Is the current thread a pool worker? Nested parallel calls are refused
/// on pool workers, so they run inline instead of deadlocking on the pool.
pub(crate) fn on_pool_worker() -> bool {
    IN_POOL_WORKER.with(|f| f.get())
}

/// Jobs currently published to a pool and not yet retired, across every
/// pool in the process. The serving layer samples this into its
/// queue-depth gauge; it is observation-only and bounds nothing.
static ACTIVE_DISPATCHES: AtomicUsize = AtomicUsize::new(0);

/// Pooled jobs currently in flight (published, not yet retired).
pub fn active_dispatches() -> u64 {
    ACTIVE_DISPATCHES.load(Ordering::Relaxed) as u64
}

/// The borrowed job closure with its lifetime erased. Soundness rests on
/// the retire-before-return protocol (module docs): the pointer is only
/// dereferenced by workers that claimed a slot under the state mutex, and
/// the publishing call does not return until every claim has retired.
#[derive(Clone, Copy)]
struct ErasedJob(*const (dyn Fn() + Sync));

// SAFETY: the pointee is `Sync` (shared calls from many threads are fine)
// and outlives every dereference by the retire-before-return protocol; the
// raw pointer is only a lifetime-erasure device, never used for mutation.
unsafe impl Send for ErasedJob {}

#[derive(Default)]
struct State {
    /// The in-flight job, if any. `Some` between publish and retire.
    job: Option<ErasedJob>,
    /// Bumped once per published job so a worker never claims two slots of
    /// the same job (each participant runs the closure exactly once).
    epoch: u64,
    /// Helper slots still claimable for the current job.
    slots: usize,
    /// Helpers that claimed a slot and have not yet finished the closure.
    active: usize,
    /// A helper panicked inside the current job.
    panicked: bool,
    /// Worker threads spawned so far (they are spawned lazily on demand).
    spawned: usize,
    shutdown: bool,
}

#[derive(Default)]
struct Shared {
    state: Mutex<State>,
    /// Workers park here between jobs.
    work_cv: Condvar,
    /// The publishing caller parks here until `active == 0`.
    done_cv: Condvar,
}

/// A persistent worker pool: long-lived threads that execute borrowed
/// scoped jobs (see the module docs for the protocol). One process-wide
/// pool serves every [`crate::Runtime`] ([`global`]); private pools exist
/// only for the protocol's unit tests.
pub struct Pool {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

static GLOBAL: OnceLock<Pool> = OnceLock::new();

/// The process-wide pool used by every [`crate::Runtime`]. Workers are
/// spawned lazily up to the widest call seen and never torn down; parked
/// workers cost nothing.
pub fn global() -> &'static Pool {
    GLOBAL.get_or_init(Pool::new)
}

impl Pool {
    /// An empty pool; helpers are spawned by the first wide call.
    pub(crate) fn new() -> Pool {
        Pool {
            shared: Arc::default(),
            handles: Mutex::default(),
        }
    }

    /// The pool's current width: the caller plus every helper spawned so
    /// far, i.e. the widest call it has served.
    pub fn width(&self) -> usize {
        1 + self.shared.state.lock().unwrap().spawned
    }

    /// Run `body` with `width` participants: the calling thread plus
    /// `width − 1` pool helpers. Every participant calls `body` exactly
    /// once; `body` is expected to self-schedule over an atomic cursor.
    ///
    /// Returns `false` without running anything when the pool cannot take
    /// the job — the caller is itself a pool worker (nested parallelism) or
    /// another job is in flight — in which case the caller runs `body`
    /// inline. Returns `true` once the job has fully retired: no worker
    /// touches `body` after this function returns.
    pub fn try_execute(&self, width: usize, body: &(dyn Fn() + Sync)) -> bool {
        let helpers = width.saturating_sub(1);
        if helpers == 0 {
            body();
            return true;
        }
        if on_pool_worker() {
            return false;
        }
        {
            let mut st = self.shared.state.lock().unwrap();
            if st.job.is_some() {
                return false; // busy with another top-level job
            }
            // Lazily grow the worker set up to the helpers we want now.
            let missing = helpers.saturating_sub(st.spawned);
            for _ in 0..missing {
                let shared = Arc::clone(&self.shared);
                let handle = std::thread::Builder::new()
                    .name("cqc-pool-worker".into())
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker");
                self.handles.lock().unwrap().push(handle);
                st.spawned += 1;
            }
            st.job = Some(erase(body));
            st.epoch = st.epoch.wrapping_add(1);
            st.slots = helpers;
            st.active = 0;
            st.panicked = false;
            self.shared.work_cv.notify_all();
            ACTIVE_DISPATCHES.fetch_add(1, Ordering::Relaxed);
            if cqc_obs::trace::enabled() {
                cqc_obs::trace::instant(
                    "pool_dispatch",
                    &format!("width {} slots {}", helpers + 1, st.slots),
                );
            }
        }

        // Retirement runs in a drop guard so that a panic inside the
        // caller's own run of `body` still cancels unclaimed slots and
        // waits out active helpers before the stack frame unwinds.
        struct Retire<'a> {
            shared: &'a Shared,
        }
        impl Drop for Retire<'_> {
            fn drop(&mut self) {
                let mut st = self.shared.state.lock().unwrap();
                st.slots = 0; // unclaimed slots can no longer be claimed
                while st.active > 0 {
                    st = self.shared.done_cv.wait(st).unwrap();
                }
                st.job = None;
                let panicked = std::mem::replace(&mut st.panicked, false);
                drop(st);
                ACTIVE_DISPATCHES.fetch_sub(1, Ordering::Relaxed);
                if panicked && !std::thread::panicking() {
                    panic!("runtime worker panicked");
                }
            }
        }
        let retire = Retire {
            shared: &self.shared,
        };
        body();
        drop(retire);
        true
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for handle in self.handles.lock().unwrap().drain(..) {
            handle.join().expect("pool worker shut down cleanly");
        }
    }
}

/// Erase the lifetime of a borrowed job closure.
///
/// SAFETY: sound only under the retire-before-return protocol — the caller
/// ([`Pool::try_execute`]) must not return (or unwind) past `body`'s
/// lifetime until every claimed slot has retired and all unclaimed slots
/// are cancelled, which it enforces with its drop guard.
fn erase<'a>(body: &'a (dyn Fn() + Sync)) -> ErasedJob {
    let short: *const (dyn Fn() + Sync + 'a) = body;
    ErasedJob(unsafe {
        std::mem::transmute::<*const (dyn Fn() + Sync + 'a), *const (dyn Fn() + Sync + 'static)>(
            short,
        )
    })
}

fn worker_loop(shared: &Shared) {
    IN_POOL_WORKER.with(|f| f.set(true));
    let mut seen_epoch = 0u64;
    let mut st = shared.state.lock().unwrap();
    loop {
        if st.shutdown {
            return;
        }
        if st.job.is_some() && st.slots > 0 && st.epoch != seen_epoch {
            // Claim a slot: from here on the publisher waits for us.
            seen_epoch = st.epoch;
            st.slots -= 1;
            st.active += 1;
            let job = st.job.expect("checked above");
            drop(st);
            // SAFETY: the slot claim above happened under the mutex while
            // `job` was published, so the closure is alive until we
            // decrement `active` below (retire-before-return).
            let ok = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)() })).is_ok();
            st = shared.state.lock().unwrap();
            st.active -= 1;
            if !ok {
                st.panicked = true;
            }
            if st.active == 0 {
                shared.done_cv.notify_all();
            }
        } else {
            st = shared.work_cv.wait(st).unwrap();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn inline_when_width_one() {
        let pool = Pool::new();
        let ran = AtomicU64::new(0);
        assert!(pool.try_execute(1, &|| {
            ran.fetch_add(1, Ordering::Relaxed);
        }));
        // width-1 call: exactly one (inline) run, no helpers spawned
        assert_eq!(ran.load(Ordering::Relaxed), 1);
        assert_eq!(pool.width(), 1);
    }

    #[test]
    fn width_grows_to_the_widest_call() {
        let pool = Pool::new();
        assert!(pool.try_execute(3, &|| {}));
        assert_eq!(pool.width(), 3);
        assert!(pool.try_execute(2, &|| {}));
        assert_eq!(pool.width(), 3, "helpers are never torn down");
    }

    #[test]
    fn executes_borrowed_state_and_retires() {
        let pool = Pool::new();
        for round in 0..50u64 {
            // borrow round-local state; retire-before-return means this is
            // sound even though the workers are long-lived
            let cursor = AtomicUsize::new(0);
            let sum = Mutex::new(0u64);
            let n = 100;
            assert!(pool.try_execute(4, &|| {
                let mut local = 0u64;
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    local += i as u64 + round;
                }
                *sum.lock().unwrap() += local;
            }));
            let expect: u64 = (0..n as u64).map(|i| i + round).sum();
            assert_eq!(*sum.lock().unwrap(), expect, "round {round}");
        }
    }

    #[test]
    fn nested_execute_from_worker_is_refused() {
        let pool = Pool::new();
        let inner_pool = Pool::new();
        let participants = AtomicUsize::new(0);
        let refused = AtomicU64::new(0);
        assert!(pool.try_execute(4, &|| {
            // hold every participant until at least one pool helper has
            // joined, so the refusal branch below is guaranteed to run
            participants.fetch_add(1, Ordering::SeqCst);
            while participants.load(Ordering::SeqCst) < 2 {
                std::thread::yield_now();
            }
            if on_pool_worker() {
                // a worker asking any pool for parallelism is refused
                assert!(
                    !inner_pool.try_execute(2, &|| {}),
                    "nested execute from a pool worker must be refused"
                );
                refused.fetch_add(1, Ordering::Relaxed);
            }
        }));
        assert!(
            refused.load(Ordering::Relaxed) >= 1,
            "no pool helper exercised the refusal path"
        );
    }

    #[test]
    fn worker_panic_propagates_after_retirement() {
        let pool = Pool::new();
        let cursor = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.try_execute(4, &|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= 64 {
                    break;
                }
                assert!(i != 17, "injected failure");
            })
        }));
        assert!(result.is_err());
        // the pool must be reusable after a panicked job
        let ran = AtomicU64::new(0);
        assert!(pool.try_execute(2, &|| {
            ran.fetch_add(1, Ordering::Relaxed);
        }));
        assert!(ran.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn traced_dispatches_record_instants() {
        // a private pool is never busy, so the dispatch is accepted and
        // the `pool_dispatch` instant must appear. The tracer is
        // process-global, so concurrent tests may add events — the
        // assertion only requires presence, never exact counts.
        let pool = Pool::new();
        cqc_obs::trace::set_enabled(true);
        assert!(pool.try_execute(4, &|| {}));
        cqc_obs::trace::set_enabled(false);
        let ndjson = cqc_obs::trace::drain().to_ndjson();
        assert!(ndjson.contains("\"name\":\"pool_dispatch\""), "{ndjson}");
    }

    #[test]
    fn drop_joins_workers() {
        let pool = Pool::new();
        let cursor = AtomicUsize::new(0);
        assert!(pool.try_execute(3, &|| {
            while cursor.fetch_add(1, Ordering::Relaxed) < 1000 {}
        }));
        drop(pool); // must not hang or panic
    }
}
