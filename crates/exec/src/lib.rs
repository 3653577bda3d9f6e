//! # th-exec: the workspace's parallel execution layer.
//!
//! A small persistent thread pool (plain `std::thread`, no dependencies)
//! with *deterministic* fan-out/reduce helpers. Work is claimed from a
//! shared atomic counter (chunked self-scheduling), but every result is
//! written to its item's own slot and reduced in item order, so the
//! output of [`Pool::map`] is **identical for any thread count** — the
//! experiment drivers rely on this to make parallel runs byte-for-byte
//! reproducible.
//!
//! Two layers:
//!
//! * [`Pool::broadcast`] — run one closure on every lane simultaneously
//!   and wait. The building block of the fan-out helpers.
//! * [`Pool::map`] / [`Pool::map_indexed`] — dynamic self-scheduled
//!   fan-out over a work list with in-order collection.
//!
//! The global pool ([`pool()`]) is sized by the `TH_THREADS` environment
//! variable, defaulting to [`std::thread::available_parallelism`].
//! `TH_THREADS=1` forces fully sequential execution (no worker threads
//! are spawned at all).

#![deny(missing_docs)]

use std::cell::{Cell, UnsafeCell};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

thread_local! {
    /// Set while the current thread is executing a pool job; a nested
    /// fan-out from inside a job runs inline instead of re-entering the
    /// pool (the outer fan-out already owns the lanes).
    static IN_JOB: Cell<bool> = const { Cell::new(false) };
}

/// RAII guard marking the current thread as inside a pool job.
struct JobScope;

impl JobScope {
    fn enter() -> JobScope {
        IN_JOB.with(|f| f.set(true));
        JobScope
    }
}

impl Drop for JobScope {
    fn drop(&mut self) {
        IN_JOB.with(|f| f.set(false));
    }
}

/// A lifetime-erased broadcast job. The pointer is only dereferenced
/// between the epoch publication and the last worker's completion
/// acknowledgement, both of which happen inside [`Pool::broadcast`]'s
/// borrow of the real closure.
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared invocation is safe) and the
// pool's completion barrier guarantees it outlives every dereference.
unsafe impl Send for Job {}

struct State {
    /// Incremented per broadcast; workers run one job per epoch.
    epoch: u64,
    job: Option<Job>,
    /// Workers still executing the current epoch's job.
    active: usize,
    /// A worker lane panicked during the current epoch.
    panicked: bool,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Workers wait here for a new epoch.
    work_cv: Condvar,
    /// The caller waits here for `active == 0`.
    done_cv: Condvar,
    /// Serialises top-level broadcasts from different threads. All pool
    /// locks recover from poisoning: a panic unwinding out of
    /// [`Pool::broadcast`] (deliberately re-raised after the barrier)
    /// must not wedge subsequent jobs.
    gate: Mutex<()>,
}

/// A persistent job pool of `threads` lanes (the calling thread is lane
/// 0; `threads - 1` workers are spawned).
pub struct Pool {
    shared: std::sync::Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl Pool {
    /// Builds a pool with `threads` lanes (clamped to at least 1).
    ///
    /// `threads == 1` spawns nothing and runs everything inline.
    pub fn new(threads: usize) -> Pool {
        let threads = threads.max(1);
        let shared = std::sync::Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                active: 0,
                panicked: false,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            gate: Mutex::new(()),
        });
        let workers = (1..threads)
            .map(|lane| {
                let shared = std::sync::Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("th-exec-{lane}"))
                    .spawn(move || worker_loop(&shared, lane))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool { shared, workers, threads }
    }

    /// Builds a pool sized by `TH_THREADS` (default: available
    /// parallelism).
    pub fn from_env() -> Pool {
        Pool::new(threads_from_env())
    }

    /// Number of lanes (including the calling thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(lane)` once on every lane (0 = the caller) and waits for
    /// all lanes to finish.
    ///
    /// # Panics
    ///
    /// Re-raises a panic if any lane panicked (after all lanes finished,
    /// so shared borrows never dangle).
    pub fn broadcast<F: Fn(usize) + Sync>(&self, f: F) {
        if self.threads == 1 || IN_JOB.with(|flag| flag.get()) {
            // Sequential pool, or a nested fan-out from inside a pool
            // job: the outer fan-out already owns the lanes.
            f(0);
            return;
        }
        let _gate = self.shared.gate.lock().unwrap_or_else(|e| e.into_inner());
        let wide: &(dyn Fn(usize) + Sync) = &f;
        // SAFETY: the job pointer never outlives this call — we publish
        // it, run our own lane, then block until `active == 0`.
        let job = Job(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(wide)
        });
        {
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            debug_assert_eq!(st.active, 0, "overlapping broadcast");
            st.epoch += 1;
            st.job = Some(job);
            st.active = self.workers.len();
            st.panicked = false;
            self.shared.work_cv.notify_all();
        }
        // Lane 0 runs on the calling thread.
        let caller = catch_unwind(AssertUnwindSafe(|| {
            let _scope = JobScope::enter();
            f(0)
        }));
        // Barrier: every worker must acknowledge before the borrow ends.
        let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        while st.active > 0 {
            st = self.shared.done_cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.job = None;
        let worker_panicked = st.panicked;
        drop(st);
        if let Err(payload) = caller {
            resume_unwind(payload);
        }
        if worker_panicked {
            panic!("th-exec worker lane panicked");
        }
    }

    /// Applies `f` to every item, in parallel, returning the results in
    /// **item order** regardless of thread count or scheduling.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.map_indexed(items.len(), |i| f(&items[i]))
    }

    /// [`Pool::map`] over the index range `0..n`.
    pub fn map_indexed<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if self.threads == 1 || n <= 1 || IN_JOB.with(|flag| flag.get()) {
            // Sequential pool, trivial fan-out, or nested inside a pool
            // job (which would run inline anyway): skip the slot vector
            // and the shared claim counter entirely.
            return (0..n).map(f).collect();
        }
        struct Slots<R>(Vec<UnsafeCell<Option<R>>>);
        // SAFETY: each slot is written by exactly one claimant (the
        // atomic counter hands out each index once).
        unsafe impl<R: Send> Sync for Slots<R> {}
        let slots = Slots((0..n).map(|_| UnsafeCell::new(None)).collect());
        let slots_ref = &slots;
        let next = AtomicUsize::new(0);
        self.broadcast(|_lane| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let r = f(i);
            unsafe { *slots_ref.0[i].get() = Some(r) };
        });
        slots
            .0
            .into_iter()
            .map(|c| c.into_inner().expect("every slot claimed and filled"))
            .collect()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool").field("threads", &self.threads).finish()
    }
}

fn worker_loop(shared: &Shared, lane: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    seen_epoch = st.epoch;
                    break st.job.expect("job set with epoch");
                }
                st = shared.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _scope = JobScope::enter();
            // SAFETY: `broadcast` keeps the closure alive until every
            // worker decrements `active` below.
            (unsafe { &*job.0 })(lane)
        }));
        let mut st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
        if result.is_err() {
            st.panicked = true;
        }
        st.active -= 1;
        if st.active == 0 {
            shared.done_cv.notify_all();
        }
    }
}

/// Reads and parses an environment knob, warning **once per variable**
/// on stderr when a value is present but malformed (previously such
/// values were silently swallowed and the default took over without a
/// trace). An unset variable is a silent `None`; `parse` returning
/// `None` marks the value malformed.
///
/// `expected` describes the accepted format for the warning message,
/// e.g. `"a thread count >= 1"`.
pub fn env_knob<T>(name: &str, expected: &str, parse: impl FnOnce(&str) -> Option<T>) -> Option<T> {
    let value = std::env::var(name).ok()?;
    match parse(&value) {
        Some(v) => Some(v),
        None => {
            let mut warned = knob_warnings().lock().unwrap_or_else(|e| e.into_inner());
            if warned.insert(name.to_string()) {
                eprintln!(
                    "warning: ignoring malformed {name}={value:?}: expected {expected}"
                );
            }
            None
        }
    }
}

/// [`env_knob`] for any [`std::str::FromStr`] type (trimmed input).
pub fn env_knob_parse<T: std::str::FromStr>(name: &str, expected: &str) -> Option<T> {
    env_knob(name, expected, |s| s.trim().parse().ok())
}

/// Names that have already produced a malformed-value warning.
fn knob_warnings() -> &'static Mutex<std::collections::BTreeSet<String>> {
    static WARNED: OnceLock<Mutex<std::collections::BTreeSet<String>>> = OnceLock::new();
    WARNED.get_or_init(|| Mutex::new(std::collections::BTreeSet::new()))
}

#[cfg(test)]
fn knob_warned(name: &str) -> bool {
    knob_warnings().lock().unwrap_or_else(|e| e.into_inner()).contains(name)
}

/// Thread count from `TH_THREADS`, defaulting to available parallelism.
/// Malformed values (unparsable, or zero) warn once and fall back.
pub fn threads_from_env() -> usize {
    env_knob("TH_THREADS", "a thread count >= 1", |s| {
        s.trim().parse::<usize>().ok().filter(|n| *n >= 1)
    })
    .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The process-wide pool, lazily built from [`threads_from_env`].
pub fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(Pool::from_env)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order_at_any_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 4, 7] {
            let pool = Pool::new(threads);
            let got = pool.map(&items, |x| x * x);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn broadcast_visits_every_lane() {
        let pool = Pool::new(4);
        let mask = AtomicUsize::new(0);
        pool.broadcast(|lane| {
            mask.fetch_or(1 << lane, Ordering::Relaxed);
        });
        assert_eq!(mask.load(Ordering::Relaxed), 0b1111);
    }

    #[test]
    fn pool_is_reusable_across_calls() {
        let pool = Pool::new(4);
        for round in 0..50 {
            let v = pool.map_indexed(round + 1, |i| i);
            assert_eq!(v, (0..=round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = Pool::new(1);
        assert_eq!(pool.threads(), 1);
        let tid = std::thread::current().id();
        pool.broadcast(|_| assert_eq!(std::thread::current().id(), tid));
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = Pool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.map_indexed(8, |i| {
                if i == 5 {
                    panic!("boom");
                }
                i
            })
        }));
        assert!(result.is_err());
        // The pool must still be usable after a panicked job.
        assert_eq!(pool.map_indexed(3, |i| i * 2), vec![0, 2, 4]);
    }

    #[test]
    fn nested_fan_out_runs_inline() {
        // A fan-out from inside a pool job must complete inline on the
        // calling lane (re-entering the pool would deadlock on the gate).
        let pool = Pool::new(4);
        let outer = pool.map_indexed(4, |i| {
            let tid = std::thread::current().id();
            let inner = pool.map_indexed(3, |j| {
                assert_eq!(std::thread::current().id(), tid);
                i * 10 + j
            });
            inner.iter().sum::<usize>()
        });
        assert_eq!(outer, vec![3, 33, 63, 93]);
    }

    #[test]
    fn env_override_parses() {
        // Only checks the parser default path: no TH_THREADS → >= 1.
        assert!(threads_from_env() >= 1);
    }

    #[test]
    fn knob_unset_is_silently_none() {
        assert_eq!(env_knob_parse::<usize>("TH_TEST_KNOB_UNSET", "an integer"), None);
        assert!(!knob_warned("TH_TEST_KNOB_UNSET"));
    }

    #[test]
    fn knob_parses_well_formed_values() {
        std::env::set_var("TH_TEST_KNOB_OK", " 42 ");
        assert_eq!(env_knob_parse::<usize>("TH_TEST_KNOB_OK", "an integer"), Some(42));
        assert!(!knob_warned("TH_TEST_KNOB_OK"));
    }

    #[test]
    fn knob_warns_once_on_malformed_values() {
        std::env::set_var("TH_TEST_KNOB_BAD", "not-a-number");
        for _ in 0..3 {
            assert_eq!(env_knob_parse::<usize>("TH_TEST_KNOB_BAD", "an integer"), None);
        }
        assert!(knob_warned("TH_TEST_KNOB_BAD"));
    }

    #[test]
    fn knob_domain_filter_marks_value_malformed() {
        // A parsable value outside the accepted domain (here: zero) is
        // rejected — and warned about — exactly like garbage.
        std::env::set_var("TH_TEST_KNOB_ZERO", "0");
        let got = env_knob("TH_TEST_KNOB_ZERO", "a count >= 1", |s| {
            s.trim().parse::<usize>().ok().filter(|n| *n >= 1)
        });
        assert_eq!(got, None);
        assert!(knob_warned("TH_TEST_KNOB_ZERO"));
    }
}
