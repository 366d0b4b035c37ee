//! # cqc-runtime — deterministic parallel execution
//!
//! A std-only (no external dependencies) parallel runtime for the
//! embarrassingly parallel loops of the counting engines: colour-coding
//! repetitions (Lemma 22), Karp–Luby union trials (Lemma 51), batch
//! evaluation across databases, and the decomposition candidate search
//! (Lemma 43). The design goal is captured by one invariant:
//!
//! > **Determinism.** For a fixed engine seed, every estimate is
//! > bit-identical whether it is computed on 1, 2, or N threads.
//!
//! ## The seed-splitting scheme
//!
//! Sequential Monte-Carlo code conventionally threads *one* RNG stream
//! through every loop iteration, which makes the i-th draw depend on how
//! many draws iterations `0..i` consumed — and therefore on scheduling.
//! This crate removes that dependency: each logical work item (repetition
//! index, trial index, database index, candidate index) derives its own
//! RNG stream from the pair `(seed, item_index)` via [`split_seed`], a
//! SplitMix64-style bit-mix finaliser:
//!
//! ```text
//! z  = seed ⊕ (index · 0x9E3779B97F4A7C15)      // golden-ratio spacing
//! z  = (z ⊕ (z ≫ 30)) · 0xBF58476D1CE4E5B9
//! z  = (z ⊕ (z ≫ 27)) · 0x94D049BB133111EB
//! s' = z ⊕ (z ≫ 31)                             // the item's stream seed
//! ```
//!
//! The item seeds the workspace RNG (`rand::rngs::StdRng`, itself a
//! SplitMix64 generator) with `s'` and draws as much randomness as it
//! needs, in isolation. Nested loops split hierarchically with
//! [`split_seed2`] (`split_seed(split_seed(seed, a), b)`), e.g.
//! `(engine_seed, oracle_call, repetition)`. Because every item's
//! randomness is a pure function of the engine seed and the item's logical
//! coordinates, the multiset of item outcomes — and any order-insensitive
//! reduction of it (counts, sums, "any positive", first-k-by-index) — is
//! independent of thread count and scheduling.
//!
//! ## Execution model
//!
//! [`Runtime`] is a cheap `Copy` handle holding a resolved thread count
//! (requested, or [`THREADS_ENV`], or `std::thread::available_parallelism`
//! — see [`resolve_threads`]). [`Runtime::par_map`] /
//! [`Runtime::par_map_n`] execute a fixed index range with chunked
//! work-stealing: the participants (the calling thread plus persistent
//! pool workers) repeatedly claim the next chunk of indices from a shared
//! atomic cursor, so a slow chunk on one participant does not idle the
//! others. Results are returned **in index order**, making
//! `par_map` a drop-in replacement for a serial `map` loop.
//! [`Runtime::par_reduce`] folds the mapped results in index order (again
//! scheduling-independent), and [`Runtime::par_any_n`] evaluates an
//! order-insensitive "∃ index with predicate" with cooperative early exit.
//!
//! Work is executed by the **persistent worker pool** of [`pool`]: a
//! `par_*` call publishes its loop body as a scoped job, the calling
//! thread participates, and `threads − 1` long-lived pool workers join
//! in — dispatching costs a mutex lock and a wakeup instead of a thread
//! spawn per call, which is what makes fanning out *small* oracle calls
//! profitable. The thread count is the one and only width: the pool has
//! no cap of its own and grows to the widest call it is asked for. Nested
//! calls (a `par_*` issued from inside a pool worker) and calls that find
//! the pool busy run their body once, inline on the calling thread —
//! the serial loop, with identical results. The pool module carries the
//! runtime's only `unsafe` (lifetime-erased scoped jobs behind a
//! retire-before-return protocol — see its docs).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod pool;

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable consulted by [`resolve_threads`] when the caller
/// requests automatic thread selection (`0`). Used by CI to force a fixed
/// thread count (e.g. `COUNTING_THREADS=2`) so the determinism guarantee is
/// exercised on every push.
pub const THREADS_ENV: &str = "COUNTING_THREADS";

// The seed-splitting functions live in `cqc-obs` (the workspace's
// dependency root) so the tracer can derive deterministic span IDs with
// the same finaliser; the established `cqc_runtime::split_seed` path is
// preserved by re-export.
pub use cqc_obs::seed::{split_seed, split_seed2};

/// Resolve a requested thread count: a positive request wins; `0` (auto)
/// falls back to [`THREADS_ENV`] and then to
/// `std::thread::available_parallelism()`.
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Ok(raw) = std::env::var(THREADS_ENV) {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A resolved parallel execution context: a thread count plus the
/// deterministic `par_*` primitives. Cheap to copy and pass down the call
/// stack; work runs on the persistent worker [`pool`], or inline on the
/// caller when the pool refuses (nested or contended calls).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Runtime {
    threads: usize,
}

impl Default for Runtime {
    /// Equivalent to `Runtime::new(0)` (automatic thread selection).
    fn default() -> Self {
        Runtime::new(0)
    }
}

impl Runtime {
    /// A runtime with `resolve_threads(requested)` threads
    /// (`0` = automatic: [`THREADS_ENV`], else available parallelism).
    pub fn new(requested: usize) -> Self {
        Runtime {
            threads: resolve_threads(requested).max(1),
        }
    }

    /// The single-threaded runtime (all `par_*` calls degenerate to serial
    /// loops on the calling thread; used to avoid nested oversubscription).
    pub const fn serial() -> Self {
        Runtime { threads: 1 }
    }

    /// The resolved number of worker threads: the width of every `par_*`
    /// call that the pool accepts.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `body` on `width` participants — the calling thread plus
    /// `width − 1` pool helpers — or, when the pool refuses (nested call,
    /// pool busy), once, inline on the caller. `body` self-schedules over
    /// an atomic cursor, so participant count affects scheduling only.
    fn execute_wide(&self, width: usize, body: &(dyn Fn() + Sync)) {
        if !pool::global().try_execute(width, body) {
            body();
        }
    }

    /// Chunk size for `n` items: small enough that work can be stolen
    /// (≈ 4 chunks per worker), large enough to amortise the cursor
    /// traffic. Public so callers that pre-chunk their own inputs (e.g.
    /// slice-local reductions) share one chunking policy.
    pub fn chunk_size(&self, n: usize) -> usize {
        n.div_ceil(self.threads * 4).max(1)
    }

    /// Map `f` over `0..n` in parallel, returning results in index order —
    /// a drop-in replacement for `(0..n).map(f).collect()`. Deterministic:
    /// the output never depends on the thread count or the schedule.
    pub fn par_map_n<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if self.threads <= 1 || n <= 1 {
            return (0..n).map(f).collect();
        }
        let workers = self.threads.min(n);
        let chunk = self.chunk_size(n);
        let cursor = AtomicUsize::new(0);
        // Participants append their locally collected (index, result) pairs
        // here — one short lock per participant, after its work is done.
        let sink: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
        self.execute_wide(workers, &|| {
            let mut local: Vec<(usize, R)> = Vec::new();
            loop {
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                if cqc_obs::trace::enabled() && pool::on_pool_worker() {
                    // a pool helper claimed this chunk off the shared cursor
                    cqc_obs::trace::instant(
                        "steal",
                        &format!("chunk {start}..{} of {n}", (start + chunk).min(n)),
                    );
                }
                for i in start..(start + chunk).min(n) {
                    local.push((i, f(i)));
                }
            }
            if !local.is_empty() {
                sink.lock().expect("no poisoned sink").extend(local);
            }
        });
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for (i, r) in sink.into_inner().expect("no poisoned sink") {
            out[i] = Some(r);
        }
        out.into_iter()
            .map(|r| r.expect("every index computed exactly once"))
            .collect()
    }

    /// Map `f` over a slice in parallel, returning results in item order.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.par_map_n(items.len(), |i| f(i, &items[i]))
    }

    /// Parallel map-then-fold: map `f` over `items` in parallel and fold
    /// the results **in index order** with `fold` on the calling thread.
    /// The index-ordered fold keeps non-commutative reductions (first
    /// minimum, floating-point sums) bit-identical to the serial loop.
    pub fn par_reduce<T, R, A, F, G>(&self, items: &[T], f: F, init: A, fold: G) -> A
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
        G: FnMut(A, R) -> A,
    {
        self.par_map(items, f).into_iter().fold(init, fold)
    }

    /// Does `pred` hold for any index in `0..n`? Evaluates items in
    /// parallel with cooperative early exit once a witness is found.
    /// Deterministic because ∃ over a fixed family of independent item
    /// outcomes is order-insensitive — even though *which* items are
    /// evaluated after the first witness varies with scheduling.
    pub fn par_any_n<F>(&self, n: usize, pred: F) -> bool
    where
        F: Fn(usize) -> bool + Sync,
    {
        if self.threads <= 1 || n <= 1 {
            return (0..n).any(pred);
        }
        let workers = self.threads.min(n);
        let cursor = AtomicUsize::new(0);
        let found = AtomicBool::new(false);
        self.execute_wide(workers, &|| loop {
            if found.load(Ordering::Relaxed) {
                break;
            }
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            if pred(i) {
                found.store(true, Ordering::Relaxed);
                break;
            }
        });
        found.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::atomic::AtomicU64;
    use std::sync::{Arc, MutexGuard};

    /// Serialises the tests that dispatch on the process-wide pool, so the
    /// nested and busy-pool tests below control exactly who holds it.
    static GLOBAL_POOL: Mutex<()> = Mutex::new(());

    fn hold_global_pool() -> MutexGuard<'static, ()> {
        GLOBAL_POOL.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn split_seed_is_a_pure_injective_looking_mix() {
        assert_eq!(split_seed(7, 3), split_seed(7, 3));
        // distinct indices give distinct streams (spot-check a window)
        let seeds: BTreeSet<u64> = (0..10_000).map(|i| split_seed(42, i)).collect();
        assert_eq!(seeds.len(), 10_000);
        // and distinct parents give distinct streams for the same index
        assert_ne!(split_seed(1, 0), split_seed(2, 0));
        assert_ne!(split_seed2(9, 1, 2), split_seed2(9, 2, 1));
    }

    #[test]
    fn resolve_threads_prefers_explicit_request() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn par_map_matches_serial_for_every_thread_count() {
        let _pool = hold_global_pool();
        let inputs: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = inputs.iter().map(|&x| x * x + 1).collect();
        for threads in [1, 2, 3, 8] {
            let rt = Runtime::new(threads);
            assert_eq!(rt.par_map(&inputs, |_, &x| x * x + 1), serial);
            assert_eq!(
                rt.par_map_n(inputs.len(), |i| inputs[i] * inputs[i] + 1),
                serial
            );
        }
    }

    #[test]
    fn par_map_handles_tiny_inputs() {
        let rt = Runtime::new(8);
        assert_eq!(rt.par_map_n(0, |i| i), Vec::<usize>::new());
        assert_eq!(rt.par_map_n(1, |i| i + 10), vec![10]);
    }

    #[test]
    fn par_reduce_folds_in_index_order() {
        let _pool = hold_global_pool();
        // string concatenation is order-sensitive: catches any shuffle
        let items: Vec<usize> = (0..100).collect();
        let serial: String = items.iter().map(|i| format!("{i},")).collect();
        for threads in [1, 2, 8] {
            let rt = Runtime::new(threads);
            let folded = rt.par_reduce(
                &items,
                |_, i| format!("{i},"),
                String::new(),
                |mut acc, s| {
                    acc.push_str(&s);
                    acc
                },
            );
            assert_eq!(folded, serial);
        }
    }

    #[test]
    fn par_any_agrees_with_serial_any() {
        let _pool = hold_global_pool();
        for threads in [1, 2, 8] {
            let rt = Runtime::new(threads);
            assert!(rt.par_any_n(100, |i| i == 97));
            assert!(!rt.par_any_n(100, |i| i > 1000));
            assert!(!rt.par_any_n(0, |_| true));
        }
    }

    #[test]
    fn par_any_early_exit_skips_work() {
        let _pool = hold_global_pool();
        // with a witness at index 0, an 8-thread scan of 10_000 items must
        // not evaluate all of them (cooperative cancellation)
        let evaluated = AtomicU64::new(0);
        let rt = Runtime::new(8);
        assert!(rt.par_any_n(10_000, |i| {
            evaluated.fetch_add(1, Ordering::Relaxed);
            i == 0
        }));
        assert!(evaluated.load(Ordering::Relaxed) < 10_000);
    }

    /// Runs a probe body through `rt.execute_wide` at full width and checks
    /// that it ran exactly once, on the calling thread.
    fn assert_runs_once_inline(rt: &Runtime) {
        let caller = std::thread::current().id();
        let runs = AtomicU64::new(0);
        let elsewhere = AtomicBool::new(false);
        rt.execute_wide(rt.threads(), &|| {
            runs.fetch_add(1, Ordering::Relaxed);
            if std::thread::current().id() != caller {
                elsewhere.store(true, Ordering::Relaxed);
            }
        });
        assert_eq!(runs.load(Ordering::Relaxed), 1, "body ran more than once");
        assert!(!elsewhere.load(Ordering::Relaxed), "body left the caller");
    }

    /// `par_map_n` and `par_any_n` on `rt` agree with the serial loops.
    fn assert_serial_results(rt: &Runtime) {
        let serial: Vec<u64> = (0..513u64).map(|x| x.wrapping_mul(x) ^ 3).collect();
        assert_eq!(rt.par_map_n(513, |i| serial[i]), serial);
        assert!(rt.par_any_n(513, |i| i == 400));
        assert!(!rt.par_any_n(513, |i| i > 1000));
    }

    #[test]
    fn nested_calls_run_once_inline_with_serial_results() {
        let _pool = hold_global_pool();
        let rt = Runtime::new(4);
        let joined = AtomicU64::new(0);
        let nested_on_helper = AtomicBool::new(false);
        // Both participants wait until a pool helper has joined, so the
        // nested calls run on the helper (a pool worker) and on the caller
        // (whose own job keeps the pool busy).
        rt.execute_wide(2, &|| {
            joined.fetch_add(1, Ordering::SeqCst);
            while joined.load(Ordering::SeqCst) < 2 {
                std::thread::yield_now();
            }
            assert_runs_once_inline(&rt);
            assert_serial_results(&rt);
            if pool::on_pool_worker() {
                nested_on_helper.store(true, Ordering::Relaxed);
            }
        });
        assert!(nested_on_helper.load(Ordering::Relaxed));
    }

    #[test]
    fn a_busy_pool_runs_the_call_once_inline_with_serial_results() {
        let _pool = hold_global_pool();
        let entered = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        let occupant = {
            let (entered, release) = (Arc::clone(&entered), Arc::clone(&release));
            std::thread::spawn(move || {
                pool::global().try_execute(2, &|| {
                    entered.store(true, Ordering::SeqCst);
                    while !release.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                })
            })
        };
        while !entered.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        let rt = Runtime::new(4);
        assert_runs_once_inline(&rt);
        assert_serial_results(&rt);
        release.store(true, Ordering::SeqCst);
        assert!(occupant.join().unwrap(), "the occupant's job was accepted");
    }

    #[test]
    fn seeded_streams_are_schedule_independent() {
        let _pool = hold_global_pool();
        // simulate the estimator pattern: item i draws from its own stream;
        // the order-insensitive sum is identical across thread counts
        let total = |threads: usize| -> u64 {
            Runtime::new(threads)
                .par_map_n(1000, |i| split_seed(0xC0FFEE, i as u64) >> 32)
                .into_iter()
                .sum()
        };
        assert_eq!(total(1), total(2));
        assert_eq!(total(1), total(8));
    }
}
