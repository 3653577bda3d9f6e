//! # th-exec: the workspace's parallel execution layer.
//!
//! [`Pool::map`] fans a work list out over scoped, self-scheduled lanes
//! (plain `std::thread`, no dependencies): the caller is lane 0, up to
//! `threads - 1` scoped workers run beside it, and every lane claims
//! item indices from one shared atomic counter. Each lane returns its
//! `(index, result)` pairs and the caller puts them back in item order,
//! so the output is **identical for any thread count**; the experiment
//! drivers rely on this to make parallel runs byte-for-byte reproducible.
//! A [`Pool`] is only a lane count: it owns no threads, and every worker
//! is joined before `map` returns.
//!
//! The global pool ([`pool()`]) is sized by the `TH_THREADS` environment
//! variable, defaulting to [`std::thread::available_parallelism`].
//! `TH_THREADS=1` spawns no worker threads at all.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

thread_local! {
    /// Set while the current thread is executing a pool job; a nested
    /// fan-out from inside a job runs inline instead of spawning more
    /// lanes (the outer fan-out already owns them).
    static IN_JOB: Cell<bool> = const { Cell::new(false) };
}

/// A fan-out width of `threads` lanes (the calling thread is lane 0).
#[derive(Debug)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// Builds a pool with `threads` lanes (clamped to at least 1).
    /// Spawns nothing: workers live only inside one [`Pool::map`] call.
    pub fn new(threads: usize) -> Pool {
        Pool { threads: threads.max(1) }
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

    /// Applies `f` to every item, in parallel, returning the results in
    /// **item order** regardless of thread count or scheduling.
    ///
    /// # Panics
    ///
    /// Re-raises the payload of a panicking item once every lane has
    /// been joined.
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
        if self.threads == 1 || n <= 1 || IN_JOB.with(Cell::get) {
            // Sequential pool, trivial fan-out, or nested inside a pool
            // job: the outer fan-out already owns the lanes.
            return (0..n).map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let lane = || {
            IN_JOB.with(|flag| flag.set(true));
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return done;
                }
                done.push((i, f(i)));
            }
        };
        let lanes = std::thread::scope(|s| {
            let workers: Vec<_> = (1..self.threads.min(n))
                .map(|k| {
                    std::thread::Builder::new()
                        .name(format!("th-exec-{k}"))
                        .spawn_scoped(s, lane)
                        .expect("spawn pool worker")
                })
                .collect();
            let mine = catch_unwind(AssertUnwindSafe(lane));
            IN_JOB.with(|flag| flag.set(false));
            let theirs = workers.into_iter().map(|w| w.join());
            std::iter::once(mine).chain(theirs).collect::<Vec<_>>()
        });
        let mut pairs = Vec::with_capacity(n);
        for lane in lanes {
            pairs.extend(lane.unwrap_or_else(|payload| resume_unwind(payload)));
        }
        pairs.sort_unstable_by_key(|&(i, _)| i);
        pairs.into_iter().map(|(_, r)| r).collect()
    }
}

/// Reads and parses an environment knob, warning **once per variable**
/// on stderr when a value is present but malformed. An unset variable
/// is a silent `None`; `parse` returning `None` marks the value
/// malformed.
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

    fn knob_warned(name: &str) -> bool {
        knob_warnings().lock().unwrap_or_else(|e| e.into_inner()).contains(name)
    }

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
    fn four_lanes_run_four_items_at_once() {
        // Each item waits until all four have started, so the map only
        // completes with every count at 4 if four lanes ran concurrently.
        // The deadline makes a pool that serialises items fail, not hang.
        let pool = Pool::new(4);
        let started = AtomicUsize::new(0);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let seen = pool.map_indexed(4, |_| {
            started.fetch_add(1, Ordering::SeqCst);
            loop {
                let now = started.load(Ordering::SeqCst);
                if now == 4 || std::time::Instant::now() > deadline {
                    return now;
                }
                std::hint::spin_loop();
            }
        });
        assert_eq!(seen, vec![4; 4]);
    }

    #[test]
    fn concurrent_maps_on_one_pool_stay_ordered() {
        let pool = Pool::new(4);
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| pool.map_indexed(200, |i| i * 3));
            let b = s.spawn(|| pool.map_indexed(150, |i| i + 7));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(a, (0..200).map(|i| i * 3).collect::<Vec<_>>());
        assert_eq!(b, (0..150).map(|i| i + 7).collect::<Vec<_>>());
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
        let got = pool.map_indexed(5, |i| {
            assert_eq!(std::thread::current().id(), tid);
            i
        });
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
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
    fn panic_reraises_the_items_own_payload() {
        let pool = Pool::new(3);
        let payload = catch_unwind(AssertUnwindSafe(|| {
            pool.map_indexed(9, |i| {
                if i == 7 {
                    panic!("item seven");
                }
                i
            })
        }))
        .unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"item seven"));
    }

    #[test]
    fn nested_fan_out_runs_inline() {
        // A fan-out from inside a pool job must complete inline on the
        // calling lane (the outer fan-out already owns the lanes).
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
