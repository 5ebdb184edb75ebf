//! A deterministic scoped worker pool for running many independent
//! simulations.
//!
//! The experiment sweeps are embarrassingly parallel: each `(app, policy)`
//! scenario owns its RNG (seeded purely from the scenario description) and
//! shares no mutable state with its siblings. The runner has two worker
//! loops over plain `std::thread::scope` workers — no external
//! dependencies, no unsafe code:
//!
//! * [`ParallelRunner::run_many_observed`] runs a materialized list,
//!   workers pulling chunks from a shared queue, and returns the results
//!   in input order;
//! * [`ParallelRunner::run_batches`] streams an index range through
//!   per-worker accumulators, for campaigns too large to materialize.
//!
//! # Determinism
//!
//! Two rules keep parallel output byte-identical to serial output:
//!
//! 1. **Seeds never depend on scheduling.** The job closure receives the
//!    item's *input index*; any randomness must derive from the item and
//!    that index (see [`derive_seed`]), never from worker identity,
//!    completion order or wall-clock time.
//! 2. **Results are collected in input order.** Each result is written to
//!    the slot of its input index, so the output `Vec` is independent of
//!    which worker finished first.
//!
//! With `jobs = 1` the pool is bypassed entirely and items run on the
//! calling thread in input order — the exact legacy serial path.
//!
//! # Examples
//!
//! ```
//! use ccdem_simkit::parallel::ParallelRunner;
//!
//! let squares = ParallelRunner::new(4).run_many_with((0u64..100).collect(), || (), |(), i, x| {
//!     let _ = i;
//!     x * x
//! });
//! assert_eq!(squares[7], 49);
//! assert_eq!(squares.len(), 100);
//! ```

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};

/// Derives a per-run seed as a pure function of a root seed and a stream
/// index. Uses the SplitMix64 finalizer, so nearby indices yield
/// uncorrelated seeds.
///
/// This is the seeding scheme behind every parallel sweep: the seed for
/// run `i` depends only on `(root_seed, i)` — never on which worker
/// executes it or when — so a parallel sweep replays the exact runs a
/// serial sweep would.
///
/// # Examples
///
/// ```
/// use ccdem_simkit::parallel::derive_seed;
///
/// assert_eq!(derive_seed(9, 3), derive_seed(9, 3));
/// assert_ne!(derive_seed(9, 3), derive_seed(9, 4));
/// ```
pub fn derive_seed(root_seed: u64, stream: u64) -> u64 {
    let mut z = root_seed
        .rotate_left(17)
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The number of worker threads the host supports, with a floor of one.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Joins every worker, then re-raises the first worker panic, if any.
///
/// `std::thread::scope` on its own waits only until each worker's
/// closure returns. A join also waits until the thread has exited, which
/// is when the C allocator hands the thread's arena back for reuse.
/// Without it, the next call's workers can start before the old arenas
/// are free and the allocator creates a new arena for them, so a loop of
/// short parallel calls grows its resident memory by one arena at a time.
fn join_all<T>(workers: Vec<std::thread::ScopedJoinHandle<'_, T>>) {
    let mut first_panic = None;
    for worker in workers {
        if let Err(panic) = worker.join() {
            first_panic.get_or_insert(panic);
        }
    }
    if let Some(panic) = first_panic {
        std::panic::resume_unwind(panic);
    }
}

/// A fixed-width scoped worker pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelRunner {
    jobs: usize,
}

impl Default for ParallelRunner {
    /// A runner using every available core.
    fn default() -> Self {
        ParallelRunner::new(0)
    }
}

impl ParallelRunner {
    /// A runner with `jobs` workers; `0` means "all available cores" and
    /// `1` means "run serially on the calling thread".
    pub fn new(jobs: usize) -> ParallelRunner {
        ParallelRunner {
            jobs: if jobs == 0 {
                available_parallelism()
            } else {
                jobs
            },
        }
    }

    /// The worker count this runner resolves to (always ≥ 1).
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// [`run_many_observed`](Self::run_many_observed) without an
    /// observer: runs `f(state, index, item)` for every item and returns
    /// the results in input order.
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised by `init` or `f` (after all
    /// workers stop).
    pub fn run_many_with<S, T, R, I, F>(&self, items: Vec<T>, init: I, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, T) -> R + Sync,
    {
        self.run_many_observed(items, init, f, |_, _| {})
    }

    /// Runs `f(state, index, item)` for every item and returns the
    /// results in input order. `f` receives each item's index in `items`
    /// so it can derive per-run seeds (see [`derive_seed`]).
    ///
    /// **Per-worker scratch state:** each worker lazily builds one `S`
    /// via `init` the first time it picks up work, then passes `&mut` of
    /// that same state to every `f(state, index, item)` it executes.
    /// With one worker (or one item), a single state serves all items on
    /// the calling thread in input order. Callers without scratch pass
    /// `|| ()` as `init`.
    ///
    /// This is how sweeps reuse expensive per-run scratch (framebuffers,
    /// snapshots) without allocating per item. Determinism is preserved
    /// as long as `f`'s *result* does not depend on the incoming state —
    /// i.e. the scratch is reset before use, which `RunScratch` consumers
    /// guarantee. Which items share a state *is* scheduling-dependent;
    /// results must not be.
    ///
    /// **Streaming observer:** as each item completes,
    /// `observe(index, &result)` runs on the *calling thread* before the
    /// result is slotted, so a sweep can fold per-run metric deltas into
    /// campaign-level aggregates online — memory stays bounded by the
    /// aggregate, never by the run count — and emit progress while
    /// workers are still busy. Results are returned in input order as
    /// always, but `observe` sees them in **completion order**, which is
    /// scheduling-dependent. Observers must therefore be order-oblivious
    /// folds (e.g. mergeable sketches, whose merge is commutative and
    /// associative) for their final state to be deterministic; anything
    /// order-sensitive they surface (like progress lines) is monitoring,
    /// not results. With one worker (or one item) `observe` runs inline
    /// after each item, in input order — the exact serial path.
    ///
    /// # Allocation contract
    ///
    /// This path **materializes everything**: the caller builds a
    /// `Vec<T>` of all items up front, and the runner holds a `Vec<R>`
    /// of all results until it returns — memory is O(items + results)
    /// for the life of the call. That is the right trade for sweeps of
    /// tens or hundreds of runs whose results are all consumed; for
    /// campaigns of 10⁵–10⁶ independent items whose results fold into a
    /// bounded aggregate, use [`run_batches`](Self::run_batches), which
    /// generates items lazily from their index and keeps only one
    /// accumulator per worker.
    ///
    /// With more than one worker, workers pull chunks from a shared
    /// queue; chunking keeps queue contention negligible while still
    /// balancing uneven run times.
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised by `init`, `f`, or `observe`
    /// (after all workers stop).
    pub fn run_many_observed<S, T, R, I, F, O>(
        &self,
        items: Vec<T>,
        init: I,
        f: F,
        mut observe: O,
    ) -> Vec<R>
    where
        T: Send,
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, T) -> R + Sync,
        O: FnMut(usize, &R),
    {
        let n = items.len();
        let jobs = self.jobs.min(n).max(1);
        if jobs == 1 {
            let mut state = init();
            return items
                .into_iter()
                .enumerate()
                .map(|(i, t)| {
                    let result = f(&mut state, i, t);
                    observe(i, &result);
                    result
                })
                .collect();
        }

        // Chunks of roughly a quarter of a fair share: large enough that
        // the queue lock is cold, small enough to rebalance stragglers.
        let chunk = n.div_ceil(jobs * 4).max(1);
        let queue: Mutex<VecDeque<(usize, T)>> =
            Mutex::new(items.into_iter().enumerate().collect());
        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();

        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel::<(usize, R)>();
            let mut workers = Vec::with_capacity(jobs);
            for _ in 0..jobs {
                let tx = tx.clone();
                workers.push(scope.spawn(|| {
                    let tx = tx; // move the clone, not the original
                                 // Built on first use so workers that never win a
                                 // batch never pay for a state.
                    let mut state: Option<S> = None;
                    loop {
                        let batch: Vec<(usize, T)> = {
                            // ccdem-lint: allow(panic) — poisoned lock means a
                            // worker already panicked; re-raising is correct
                            let mut q = queue.lock().expect("queue poisoned");
                            let take = chunk.min(q.len());
                            if take == 0 {
                                break;
                            }
                            q.drain(..take).collect()
                        };
                        for (index, item) in batch {
                            let result = f(state.get_or_insert_with(&init), index, item);
                            if tx.send((index, result)).is_err() {
                                // Receiver gone: the calling thread is
                                // unwinding; stop quietly.
                                return;
                            }
                        }
                    }
                }));
            }
            drop(tx);
            // Drain on the calling thread until every worker clone hangs
            // up; a worker panic closes the channel early and the join
            // re-raises it after this loop ends.
            while let Ok((index, result)) = rx.recv() {
                observe(index, &result);
                // ccdem-lint: allow(panic) — workers only send indices
                // of the items slice, which sized this vec.
                results[index] = Some(result);
            }
            join_all(workers);
        });

        results
            .into_iter()
            // ccdem-lint: allow(panic) — every index was sent exactly once
            // before the workers hung up
            .map(|r| r.expect("worker completed every drained job"))
            .collect()
    }

    /// Streams the item indices in `range` through per-worker
    /// accumulators without materializing items or results: workers
    /// claim fixed-size batches of indices from a shared atomic cursor
    /// (work stealing — a fast worker simply claims more batches), call
    /// `fold(acc, index)` for every index of each claimed batch in
    /// ascending order, and the per-worker accumulators come back when
    /// the range is exhausted. Memory is **O(workers)** accumulators —
    /// never O(items) — and the only in-flight work is one batch per
    /// worker.
    ///
    /// This is the primitive under fleet-scale campaigns: `fold`
    /// derives the item from its index (see [`derive_seed`]), runs it,
    /// and folds the result into the accumulator, so a million-item
    /// campaign needs neither a `Vec<T>` of specs nor a `Vec<R>` of
    /// results (contrast the
    /// [`run_many_observed`](Self::run_many_observed) allocation
    /// contract).
    ///
    /// # Determinism
    ///
    /// Which indices share an accumulator — and the order of the
    /// returned partials — depends on scheduling. The per-index work is
    /// deterministic (indices are pure inputs), so the *multiset* of
    /// folded results is not; callers therefore need an accumulator
    /// whose merge is commutative and associative (e.g. mergeable
    /// sketches) for the combined final state to be independent of
    /// worker count and steal order. With one worker the whole range
    /// folds into a single accumulator in ascending index order on the
    /// calling thread — the exact serial path.
    ///
    /// `batch_size` is clamped to at least 1. An empty range returns no
    /// accumulators.
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised by `init` or `fold` (after all
    /// workers stop).
    pub fn run_batches<A, I, F>(&self, range: Range<u64>, batch_size: u64, init: I, fold: F) -> Vec<A>
    where
        A: Send,
        I: Fn() -> A + Sync,
        F: Fn(&mut A, u64) + Sync,
    {
        let total = range.end.saturating_sub(range.start);
        if total == 0 {
            return Vec::new();
        }
        let batch = batch_size.max(1);
        let n_batches = total.div_ceil(batch);
        let jobs = (self.jobs as u64).min(n_batches).max(1);
        if jobs == 1 {
            let mut acc = init();
            for index in range {
                fold(&mut acc, index);
            }
            return vec![acc];
        }

        let cursor = AtomicU64::new(0);
        let partials: Mutex<Vec<A>> = Mutex::new(Vec::with_capacity(jobs as usize));
        std::thread::scope(|scope| {
            let mut workers = Vec::with_capacity(jobs as usize);
            for _ in 0..jobs {
                workers.push(scope.spawn(|| {
                    // Built on first claim so workers that never win a
                    // batch never pay for an accumulator.
                    let mut acc: Option<A> = None;
                    loop {
                        let claimed = cursor.fetch_add(1, Ordering::Relaxed);
                        if claimed >= n_batches {
                            break;
                        }
                        let start = range.start + claimed * batch;
                        let end = (start + batch).min(range.end);
                        let acc = acc.get_or_insert_with(&init);
                        for index in start..end {
                            fold(acc, index);
                        }
                    }
                    if let Some(acc) = acc {
                        // ccdem-lint: allow(panic) — poisoned lock means a
                        // worker already panicked; re-raising is correct
                        partials.lock().expect("partials poisoned").push(acc);
                    }
                }));
            }
            join_all(workers);
        });
        partials
            .into_inner()
            // ccdem-lint: allow(panic) — poisoned lock re-raises a worker
            // panic after the scope has joined every thread
            .expect("partials poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_in_input_order_regardless_of_jobs() {
        let items: Vec<u64> = (0..257).collect();
        for jobs in [1, 2, 3, 8] {
            let out = ParallelRunner::new(jobs).run_many_with(items.clone(), || (), |(), i, x| {
                assert_eq!(i as u64, x);
                x * 3
            });
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let work = |i: usize, x: u64| derive_seed(x, i as u64);
        let items: Vec<u64> = (0..100).map(|i| i * 7).collect();
        let serial =
            ParallelRunner::new(1).run_many_with(items.clone(), || (), |(), i, x| work(i, x));
        let parallel = ParallelRunner::new(4).run_many_with(items, || (), |(), i, x| work(i, x));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn all_items_processed_once() {
        let calls = AtomicUsize::new(0);
        let out = ParallelRunner::new(4).run_many_with(vec![(); 1000], || (), |(), _, ()| {
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(out.len(), 1000);
        assert_eq!(calls.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn zero_jobs_resolves_to_available_parallelism() {
        let runner = ParallelRunner::new(0);
        assert_eq!(runner.jobs(), available_parallelism());
        assert!(runner.jobs() >= 1);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u64> =
            ParallelRunner::new(4).run_many_with(Vec::<u64>::new(), || (), |(), _, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn actually_uses_multiple_threads() {
        use std::collections::HashSet;
        let ids = Mutex::new(HashSet::new());
        ParallelRunner::new(4).run_many_with(vec![(); 64], || (), |(), _, ()| {
            ids.lock().unwrap().insert(std::thread::current().id());
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        assert!(
            ids.lock().unwrap().len() > 1,
            "expected more than one worker thread"
        );
    }

    #[test]
    fn run_many_with_builds_at_most_one_state_per_worker() {
        let inits = AtomicUsize::new(0);
        let out = ParallelRunner::new(4).run_many_with(
            (0u64..64).collect(),
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0u64 // per-worker accumulator
            },
            |acc, _, x| {
                *acc += x;
                x * 2
            },
        );
        assert_eq!(out, (0u64..64).map(|x| x * 2).collect::<Vec<_>>());
        let states = inits.load(Ordering::Relaxed);
        assert!(
            (1..=4).contains(&states),
            "lazy init must cap states at the worker count, got {states}"
        );
    }

    #[test]
    fn run_many_with_serial_shares_one_state_in_order() {
        let out = ParallelRunner::new(1).run_many_with(
            vec![3u64, 1, 4],
            Vec::new,
            |seen: &mut Vec<u64>, i, x| {
                seen.push(x);
                // The serial path must visit items in input order on one
                // shared state.
                assert_eq!(seen.len(), i + 1);
                seen.iter().sum::<u64>()
            },
        );
        assert_eq!(out, vec![3, 4, 8]);
    }

    #[test]
    fn run_many_with_matches_a_serial_map_when_state_is_unused() {
        let work = |i: usize, x: u64| derive_seed(x, i as u64);
        let items: Vec<u64> = (0..100).map(|i| i * 3).collect();
        let plain: Vec<u64> = items.iter().enumerate().map(|(i, &x)| work(i, x)).collect();
        let with = ParallelRunner::new(4).run_many_with(items, || (), |(), i, x| work(i, x));
        assert_eq!(plain, with);
    }

    #[test]
    fn observed_results_match_unobserved_in_input_order() {
        let work = |i: usize, x: u64| derive_seed(x, i as u64);
        let items: Vec<u64> = (0..200).map(|i| i * 11).collect();
        let plain =
            ParallelRunner::new(4).run_many_with(items.clone(), || (), |(), i, x| work(i, x));
        let mut seen = Vec::new();
        let observed = ParallelRunner::new(4).run_many_observed(
            items,
            || (),
            |(), i, x| work(i, x),
            |i, r| seen.push((i, *r)),
        );
        assert_eq!(observed, plain);
        // Every result was observed exactly once, with the value that was
        // returned for that index (completion order is unspecified).
        assert_eq!(seen.len(), observed.len());
        seen.sort_unstable();
        for (i, r) in seen {
            assert_eq!(r, observed[i]);
        }
    }

    #[test]
    fn observed_serial_path_runs_observer_in_input_order() {
        let mut order = Vec::new();
        let out = ParallelRunner::new(1).run_many_observed(
            vec![10u64, 20, 30],
            || (),
            |(), _, x| x + 1,
            |i, r| order.push((i, *r)),
        );
        assert_eq!(out, vec![11, 21, 31]);
        assert_eq!(order, vec![(0, 11), (1, 21), (2, 31)]);
    }

    #[test]
    fn observer_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        ParallelRunner::new(4).run_many_observed(
            vec![(); 64],
            || (),
            |(), _, ()| std::thread::current().id(),
            |_, worker| {
                assert_eq!(std::thread::current().id(), caller);
                // Under >1 jobs at least some work happens off-thread, but
                // observation never does.
                let _ = worker;
            },
        );
    }

    #[test]
    fn run_batches_folds_every_index_once_for_any_worker_count() {
        for jobs in [1, 2, 3, 8] {
            for batch in [1, 7, 64, 1000] {
                let partials = ParallelRunner::new(jobs).run_batches(
                    10..523,
                    batch,
                    || (0u64, 0u64), // (sum, count)
                    |acc, i| {
                        acc.0 += derive_seed(99, i) >> 32;
                        acc.1 += 1;
                    },
                );
                assert!(partials.len() <= jobs.max(1));
                let count: u64 = partials.iter().map(|p| p.1).sum();
                assert_eq!(count, 513, "jobs={jobs} batch={batch}");
                // A commutative-associative fold combines to the same
                // value regardless of worker count and steal order.
                let sum: u64 = partials.iter().map(|p| p.0).sum();
                let serial: u64 = (10..523).map(|i| derive_seed(99, i) >> 32).sum();
                assert_eq!(sum, serial, "jobs={jobs} batch={batch}");
            }
        }
    }

    #[test]
    fn run_batches_serial_visits_ascending_on_one_accumulator() {
        let partials = ParallelRunner::new(1).run_batches(
            5..12,
            3,
            Vec::new,
            |seen: &mut Vec<u64>, i| seen.push(i),
        );
        assert_eq!(partials, vec![(5..12).collect::<Vec<u64>>()]);
    }

    #[test]
    fn run_batches_visits_batches_ascending_within_each_worker_claim() {
        // Every worker must see each claimed batch's indices in
        // ascending order, with no index outside the range.
        let partials = ParallelRunner::new(4).run_batches(
            0..1024,
            32,
            Vec::new,
            |seen: &mut Vec<u64>, i| seen.push(i),
        );
        let mut all: Vec<u64> = Vec::new();
        for worker in &partials {
            for pair in worker.windows(2) {
                // Within one worker, order jumps only at batch
                // boundaries; inside a batch it is ascending by one.
                assert!(pair[1] == pair[0] + 1 || pair[1] % 32 == 0);
            }
            all.extend_from_slice(worker);
        }
        all.sort_unstable();
        assert_eq!(all, (0..1024).collect::<Vec<u64>>());
    }

    #[test]
    fn run_batches_empty_range_returns_no_accumulators() {
        let partials =
            ParallelRunner::new(4).run_batches(7..7, 16, || 0u64, |acc, i| *acc += i);
        assert!(partials.is_empty());
    }

    #[test]
    fn run_batches_never_materializes_items_and_caps_accumulators() {
        // 100k indices, zero per-item storage: only per-worker
        // accumulators exist, and at most `jobs` of them.
        let inits = AtomicUsize::new(0);
        let partials = ParallelRunner::new(4).run_batches(
            0..100_000,
            1024,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0u64
            },
            |acc, _| *acc += 1,
        );
        assert_eq!(partials.iter().sum::<u64>(), 100_000);
        let states = inits.load(Ordering::Relaxed);
        assert!(
            (1..=4).contains(&states),
            "lazy init must cap accumulators at the worker count, got {states}"
        );
        assert_eq!(partials.len(), states);
    }

    #[test]
    fn derive_seed_is_pure_and_spread() {
        let seeds: Vec<u64> = (0..64).map(|i| derive_seed(42, i)).collect();
        let distinct: std::collections::BTreeSet<u64> = seeds.iter().copied().collect();
        assert_eq!(distinct.len(), seeds.len(), "seed collisions");
        assert_eq!(seeds, (0..64).map(|i| derive_seed(42, i)).collect::<Vec<_>>());
        // Root seeds must matter too.
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
    }
}
