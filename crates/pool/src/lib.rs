//! A persistent, work-stealing, scoped worker pool built only on `std`.
//!
//! The monitoring engine in `mpn-sim` advances chunks of its session slab in parallel on
//! every tick.  Doing that with [`std::thread::scope`] means spawning and joining one OS
//! thread per chunk per tick — fine when a tick carries heavy safe-region computations, but measurable overhead on
//! quiet ticks.  [`WorkerPool`] keeps the workers alive instead: threads are spawned once,
//! park on a condition variable between ticks, and a [`scoped`](WorkerPool::scoped) call acts
//! as the tick barrier — it hands closures to the workers and blocks until all of them
//! completed, so borrowed data (the slab's chunks, the POI tree) may safely flow into the jobs.
//!
//! # Deques and stealing
//!
//! A tick is only as fast as its slowest worker, and real fleets are skewed: one chunk can
//! carry a group ten times the size of everyone else's.  The pool therefore follows the
//! classic work-stealing shape (Chase–Lev, here with a mutex-backed `VecDeque` since this
//! workspace builds without external crates):
//!
//! * **Ownership.**  Every worker owns one deque.  [`Scope::execute_on`] pushes a job onto a
//!   *specific* worker's deque (the engine routes neighbouring session batches to the same
//!   worker, preserving locality); [`Scope::execute`] round-robins over the deques.  Only the
//!   submitting thread pushes — workers never re-enqueue — so a deque only shrinks while a
//!   scope's barrier is waiting.
//! * **LIFO owner pop, FIFO steal.**  An owner pops its own deque from the back (the most
//!   recently pushed job is the hottest in cache); a worker whose own deque is empty scans
//!   the other deques — starting after itself, so thieves spread out — and steals from the
//!   *front*, taking the oldest job, the one the owner would reach last.  Owner and thief
//!   therefore drain opposite ends and only contend on the final job.  No deque lock is
//!   held while a job runs: a busy worker's deque stays open to thieves and to the producer.
//! * **Parking.**  A worker that finds every deque empty re-checks all of them *while
//!   holding the parking mutex* and only then waits on the condition variable; producers
//!   push first and then notify under the same mutex, so a wake-up can never be lost.
//!
//! Per-scope diagnostics — jobs submitted, steals, per-worker execution counts — are
//! captured at the barrier and exposed via [`WorkerPool::last_scope_stats`]; the engine
//! surfaces them as tick counters.  They describe *scheduling*, which is racy by design:
//! two runs of the same workload may steal differently while computing identical results.
//!
//! # Workers persist, and so do their arenas
//!
//! The pool's threads live for the lifetime of the pool, which is what makes *per-worker*
//! scratch state cheap: thread-keyed arenas (e.g. `mpn-index`'s query scratch, which keeps
//! the GNN neighbour staging buffer) are built once per worker and then
//! reused by every batch that worker executes, tick after tick.  A scoped-thread executor
//! gets fresh threads — and therefore cold arenas — every tick; routing the tick through
//! the pool is what turns those per-query allocations into steady-state zero.
//!
//! The dispatch path is deliberately lean for the same reason: the barrier count is a
//! plain atomic (no mutex round-trip per submitted job), and only the final decrement to
//! zero takes the completion lock to signal the barrier.
//!
//! # Panic semantics
//!
//! * A job that panics is caught on the worker (keeping the pool alive), recorded, and the
//!   panic is re-raised on the caller of [`scoped`](WorkerPool::scoped) after the barrier.
//! * Dispatch **fails fast**: [`Scope::execute`] / [`Scope::execute_on`] drain the panic
//!   flag before pushing, so once any job of the scope has panicked the next submission
//!   panics immediately instead of fanning more work onto a doomed tick and discovering the
//!   failure at the barrier.
//! * The scope's drop joins every outstanding job even during unwinding — the borrows jobs
//!   capture never outlive the scope — and a scope whose *body* panicked does not poison the
//!   next scope (the flag is reset when a new scope starts).
//!
//! Jobs are boxed closures whose borrow lifetime is erased to `'static` before reaching a
//! deque — the **only** `unsafe` in the workspace; soundness comes from the barrier, exactly
//! as in the well-trodden `scoped_threadpool` design.  [`shutdown`](WorkerPool::shutdown)
//! (also run on drop) raises the shutdown flag, wakes every worker and joins the threads,
//! reporting whether all of them exited cleanly.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// A job crossing to a worker: boxed so it can be sent, lifetime-erased by the scope.
type Thunk<'a> = Box<dyn FnOnce() + Send + 'a>;

/// Locks a mutex, ignoring poisoning (a panicking job is already recorded separately).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// State shared between the pool handle and its worker threads.
struct Shared {
    /// One job deque per worker: the owner pops from the back, thieves pop from the front.
    deques: Vec<Mutex<VecDeque<Thunk<'static>>>>,
    /// Parking lock; the guarded flag is the shutdown request.  Producers notify
    /// [`Shared::work_ready`] under this mutex after pushing, workers re-check every deque
    /// under it before waiting, so no wake-up is ever lost.
    parking: Mutex<bool>,
    work_ready: Condvar,
    /// Jobs submitted to the current scope that have not completed yet.  A plain atomic so
    /// the dispatch hot path (thousands of batch jobs per tick) pays no mutex round-trip;
    /// [`Shared::done`] is locked only around the barrier wait and the final decrement.
    pending: AtomicUsize,
    /// Completion lock for the barrier: [`Scope::join_all`] re-checks `pending` under it
    /// before waiting, and a worker whose decrement hit zero locks it before notifying, so
    /// the wake-up can never be lost.
    done: Mutex<()>,
    /// Signalled whenever `pending` drops to zero.
    all_done: Condvar,
    /// Set by a worker whose job panicked; drained by dispatch (fail fast) or by `scoped`
    /// (re-raise after the barrier).
    job_panicked: AtomicBool,
    /// Jobs taken from another worker's deque during the current scope.
    steals: AtomicUsize,
    /// Jobs executed per worker during the current scope.
    executed: Vec<AtomicUsize>,
}

impl Shared {
    /// The worker loop: own deque from the back, then steal from the front of the others,
    /// then park.  Exits when the shutdown flag is raised (all deques are empty by then —
    /// every scope joins its jobs before returning, and shutdown needs `&mut` access).
    fn worker_loop(&self, me: usize) {
        loop {
            // Bind the popped job first: a `MutexGuard` temporary in an `if let` scrutinee
            // lives to the end of the body, which would keep this deque locked — unstealable
            // and unpushable — for as long as the job runs.
            let own = lock(&self.deques[me]).pop_back();
            if let Some(job) = own {
                self.run_job(me, job);
                continue;
            }
            if let Some(job) = self.try_steal(me) {
                self.steals.fetch_add(1, Ordering::Relaxed);
                self.run_job(me, job);
                continue;
            }
            let parked = lock(&self.parking);
            if *parked {
                return;
            }
            // Re-check under the parking lock: a producer that pushed after the scans above
            // must either be seen here or notify after this thread started waiting.
            if self.deques.iter().any(|d| !lock(d).is_empty()) {
                continue;
            }
            drop(self.work_ready.wait(parked));
        }
    }

    /// Scans the other deques (starting after `me`, so thieves spread out) and steals the
    /// *oldest* job of the first non-empty one.
    fn try_steal(&self, me: usize) -> Option<Thunk<'static>> {
        let n = self.deques.len();
        (1..n).find_map(|step| lock(&self.deques[(me + step) % n]).pop_front())
    }

    fn run_job(&self, me: usize, job: Thunk<'static>) {
        if catch_unwind(AssertUnwindSafe(job)).is_err() {
            self.job_panicked.store(true, Ordering::SeqCst);
        }
        self.executed[me].fetch_add(1, Ordering::Relaxed);
        if self.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Last job of the scope: take the completion lock before notifying.  A joiner
            // that saw `pending > 0` is either still holding the lock (we wait for it, then
            // our notify lands after its `wait` began) or already waiting — never between.
            let _done = lock(&self.done);
            self.all_done.notify_all();
        }
    }
}

/// Scheduling diagnostics of one completed [`WorkerPool::scoped`] call.
///
/// These counters describe how the barrier's work was *distributed*, not what it computed:
/// they depend on thread timing and differ run to run even for identical workloads.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScopeStats {
    /// Jobs submitted to the scope.
    pub jobs: usize,
    /// Jobs a worker took from another worker's deque (idle workers helping a straggler).
    pub steals: usize,
    /// Jobs executed by each worker, in worker order.  Sums to [`jobs`](ScopeStats::jobs).
    pub per_worker: Vec<usize>,
}

impl ScopeStats {
    /// Spread between the busiest and the laziest worker (0 for an empty scope): how uneven
    /// the tick's work ended up *after* stealing.
    #[must_use]
    pub fn imbalance(&self) -> usize {
        let max = self.per_worker.iter().copied().max().unwrap_or(0);
        let min = self.per_worker.iter().copied().min().unwrap_or(0);
        max - min
    }
}

/// A pool of persistent, work-stealing worker threads executing borrowed jobs scope by scope.
///
/// See the [module docs](self) for the deque/steal design and the panic semantics.  One
/// scope runs at a time (enforced by `&mut self`); nested scopes are not supported.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<Option<JoinHandle<()>>>,
    /// Round-robin cursor for [`Scope::execute`].
    next_worker: usize,
    shut_down: bool,
    last_stats: ScopeStats,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .field("shut_down", &self.shut_down)
            .field("last_stats", &self.last_stats)
            .finish()
    }
}

impl WorkerPool {
    /// Spawns `threads` parked worker threads (clamped to at least 1).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            deques: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            parking: Mutex::new(false),
            work_ready: Condvar::new(),
            pending: AtomicUsize::new(0),
            done: Mutex::new(()),
            all_done: Condvar::new(),
            job_panicked: AtomicBool::new(false),
            steals: AtomicUsize::new(0),
            executed: (0..threads).map(|_| AtomicUsize::new(0)).collect(),
        });
        let handles = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let handle = std::thread::Builder::new()
                    .name(format!("mpn-pool-{i}"))
                    .spawn(move || shared.worker_loop(i))
                    .expect("failed to spawn pool worker thread");
                Some(handle)
            })
            .collect();
        Self {
            shared,
            handles,
            next_worker: 0,
            shut_down: false,
            last_stats: ScopeStats::default(),
        }
    }

    /// Number of worker threads (and of job deques).
    #[must_use]
    pub fn worker_count(&self) -> usize {
        self.handles.len()
    }

    /// Runs a batch of borrowed jobs: `f` submits them via [`Scope::execute`] /
    /// [`Scope::execute_on`], and `scoped` returns only after every submitted job completed
    /// (the tick barrier).
    ///
    /// # Panics
    /// Re-raises a panic from any job (after the barrier, so borrows stay sound), and panics
    /// when called on a pool that was already [`shutdown`](WorkerPool::shutdown).
    pub fn scoped<'pool, 'scope, R>(
        &'pool mut self,
        f: impl FnOnce(&mut Scope<'pool, 'scope>) -> R,
    ) -> R {
        let shared = Arc::clone(&self.shared);
        // A previous scope whose *body* panicked may have left a job-panic report undrained
        // (the re-raise below is skipped during unwinding — that scope's own panic already
        // propagated).  Don't charge it to this scope's jobs.
        shared.job_panicked.store(false, Ordering::SeqCst);
        shared.steals.store(0, Ordering::Relaxed);
        for count in &shared.executed {
            count.store(0, Ordering::Relaxed);
        }
        let mut scope = Scope { pool: self, jobs: 0, _scope: std::marker::PhantomData };
        let result = f(&mut scope);
        scope.join_all();
        scope.pool.last_stats = ScopeStats {
            jobs: scope.jobs,
            steals: shared.steals.load(Ordering::Relaxed),
            per_worker: shared.executed.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
        };
        drop(scope); // explicit: the Drop barrier has already been satisfied
        if shared.job_panicked.swap(false, Ordering::SeqCst) {
            panic!("a worker-pool job panicked");
        }
        result
    }

    /// Scheduling diagnostics of the most recent completed [`scoped`](WorkerPool::scoped)
    /// call (empty before the first one, unchanged by a scope whose body panicked).
    #[must_use]
    pub fn last_scope_stats(&self) -> &ScopeStats {
        &self.last_stats
    }

    /// Raises the shutdown flag, wakes and joins every worker; returns whether all of them
    /// exited cleanly (no worker died, no unreported job panic).  Idempotent.
    pub fn shutdown(&mut self) -> bool {
        if !self.shut_down {
            self.shut_down = true;
            *lock(&self.shared.parking) = true;
            self.shared.work_ready.notify_all();
        }
        let mut clean = true;
        for handle in &mut self.handles {
            if let Some(handle) = handle.take() {
                clean &= handle.join().is_ok();
            }
        }
        clean && !self.shared.job_panicked.load(Ordering::SeqCst)
    }

    /// Whether [`shutdown`](WorkerPool::shutdown) has completed (all workers joined).
    #[must_use]
    pub fn is_shut_down(&self) -> bool {
        self.handles.iter().all(Option::is_none)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A batch of jobs tied to one [`WorkerPool::scoped`] call.
///
/// Dropping the scope joins all outstanding jobs, which is what makes handing borrowed data
/// to the workers sound even when the scope body unwinds.
pub struct Scope<'pool, 'scope> {
    pool: &'pool mut WorkerPool,
    /// Jobs submitted to this scope (reported via [`WorkerPool::last_scope_stats`]).
    jobs: usize,
    /// Invariant over `'scope` (mirrors `scoped_threadpool`): prevents the borrow checker
    /// from shrinking the scope lifetime below the borrows captured by submitted jobs.
    _scope: std::marker::PhantomData<std::cell::Cell<&'scope mut ()>>,
}

impl<'scope> Scope<'_, 'scope> {
    /// Submits one job to the next worker (round-robin).  The job may borrow anything that
    /// outlives `'scope`; it is guaranteed to finish before `scoped` returns.
    ///
    /// # Panics
    /// Panics when the pool was shut down, and fails fast (see the [module docs](self))
    /// when a job of this scope has already panicked.
    pub fn execute<F: FnOnce() + Send + 'scope>(&mut self, f: F) {
        let w = self.pool.next_worker % self.pool.worker_count();
        self.pool.next_worker = self.pool.next_worker.wrapping_add(1);
        self.execute_on(w, f);
    }

    /// Submits one job onto a *specific* worker's deque (`worker` taken modulo the worker
    /// count).  This is the locality hint of the engine's batched tick: neighbouring batches
    /// go to the same worker and are only moved elsewhere by stealing.
    ///
    /// # Panics
    /// Panics when the pool was shut down, and fails fast (see the [module docs](self))
    /// when a job of this scope has already panicked.
    pub fn execute_on<F: FnOnce() + Send + 'scope>(&mut self, worker: usize, f: F) {
        // The liveness check runs *before* the barrier count is raised: a panic here must
        // not strand `pending` above zero, or the unwinding scope's join barrier would wait
        // forever instead of propagating the panic.
        assert!(!self.pool.shut_down, "worker pool already shut down");
        // Fail fast: once any job of this scope panicked the tick's outcome is a panic
        // anyway, so stop fanning out work at the first dispatch that notices.  Draining the
        // flag here (instead of at the barrier) is what the re-raise path would have done.
        if self.pool.shared.job_panicked.swap(false, Ordering::SeqCst) {
            panic!("a worker-pool job panicked; failing the scope fast");
        }
        let shared = &self.pool.shared;
        let w = worker % shared.deques.len();
        // The count must be raised before the push — a worker may finish the job (and
        // decrement) before this thread would otherwise get around to incrementing.
        shared.pending.fetch_add(1, Ordering::SeqCst);
        self.jobs += 1;
        let job: Thunk<'scope> = Box::new(f);
        // SAFETY: the lifetime of the boxed job is erased so it can sit on a deque consumed
        // by long-lived worker threads.  `join_all` runs before `'scope` ends on every path —
        // `scoped` calls it after the body, and `Scope::drop` repeats it during unwinding —
        // so the job (and thus every borrow it captures) never outlives `'scope`.
        let job: Thunk<'static> =
            unsafe { std::mem::transmute::<Thunk<'scope>, Thunk<'static>>(job) };
        lock(&shared.deques[w]).push_back(job);
        // Notify under the parking mutex: a worker re-checks the deques while holding it
        // before waiting, so the job pushed above is either seen or woken for.
        let _parked = lock(&shared.parking);
        shared.work_ready.notify_all();
    }

    /// Blocks until every job submitted to this scope has completed.
    fn join_all(&self) {
        let shared = &self.pool.shared;
        let mut done = lock(&shared.done);
        while shared.pending.load(Ordering::SeqCst) > 0 {
            done = shared.all_done.wait(done).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

impl Drop for Scope<'_, '_> {
    fn drop(&mut self) {
        self.join_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_mutate_borrowed_data_through_the_barrier() {
        let mut pool = WorkerPool::new(4);
        assert_eq!(pool.worker_count(), 4);
        let mut values = vec![0usize; 16];
        pool.scoped(|scope| {
            for (i, slot) in values.iter_mut().enumerate() {
                scope.execute(move || *slot = i * i);
            }
        });
        assert_eq!(values, (0..16).map(|i| i * i).collect::<Vec<_>>());
        let stats = pool.last_scope_stats();
        assert_eq!(stats.jobs, 16);
        assert_eq!(stats.per_worker.iter().sum::<usize>(), 16, "every job ran exactly once");
    }

    #[test]
    fn scopes_are_reusable_and_workers_persist() {
        let mut pool = WorkerPool::new(2);
        let counter = AtomicUsize::new(0);
        for _ in 0..100 {
            pool.scoped(|scope| {
                for _ in 0..2 {
                    scope.execute(|| {
                        counter.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        }
        assert_eq!(counter.load(Ordering::SeqCst), 200);
    }

    #[test]
    fn empty_scopes_are_fine() {
        let mut pool = WorkerPool::new(3);
        let out = pool.scoped(|_| 7);
        assert_eq!(out, 7);
        assert_eq!(
            pool.last_scope_stats(),
            &ScopeStats { jobs: 0, steals: 0, per_worker: vec![0; 3] }
        );
        assert_eq!(pool.last_scope_stats().imbalance(), 0);
    }

    #[test]
    fn zero_thread_request_is_clamped() {
        let mut pool = WorkerPool::new(0);
        assert_eq!(pool.worker_count(), 1);
        let mut x = 0;
        pool.scoped(|scope| scope.execute(|| x = 5));
        assert_eq!(x, 5);
    }

    /// Jobs that rendezvous: each decrements the countdown and spins until it reaches zero,
    /// so all of them must run *concurrently* — on distinct workers — to complete at all.
    /// A missing steal (or a worker not woken) turns this into a visible test hang.
    fn rendezvous(count: &AtomicUsize) {
        count.fetch_sub(1, Ordering::SeqCst);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while count.load(Ordering::SeqCst) > 0 {
            assert!(std::time::Instant::now() < deadline, "rendezvous starved: no steal");
            std::thread::yield_now();
        }
    }

    #[test]
    fn idle_workers_steal_from_a_hot_deque() {
        let mut pool = WorkerPool::new(2);
        let count = AtomicUsize::new(2);
        pool.scoped(|scope| {
            // Both jobs land on worker 0's deque; the rendezvous only completes if worker 1
            // steals one of them and runs it concurrently.
            for _ in 0..2 {
                scope.execute_on(0, || rendezvous(&count));
            }
        });
        let stats = pool.last_scope_stats();
        assert_eq!(stats.jobs, 2);
        assert!(stats.steals >= 1, "one of the two jobs must have been stolen");
        assert_eq!(stats.per_worker, vec![1, 1], "the rendezvous forces one job per worker");
        assert_eq!(stats.imbalance(), 0);
    }

    #[test]
    fn execute_on_spreads_affine_jobs_one_per_worker() {
        let mut pool = WorkerPool::new(4);
        let count = AtomicUsize::new(4);
        pool.scoped(|scope| {
            for w in 0..4 {
                scope.execute_on(w, || rendezvous(&count));
            }
        });
        let stats = pool.last_scope_stats();
        assert_eq!(stats.jobs, 4);
        assert_eq!(stats.per_worker, vec![1; 4], "four concurrent jobs pin one per worker");
    }

    #[test]
    fn job_panics_are_reraised_after_the_barrier() {
        let mut pool = WorkerPool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.scoped(|scope| {
                scope.execute(|| panic!("job boom"));
                scope.execute(|| {});
            });
        }));
        assert!(caught.is_err(), "the job panic must propagate to the scope caller");
        // The pool survives a job panic and keeps working.
        let mut x = 0;
        pool.scoped(|scope| scope.execute(|| x = 1));
        assert_eq!(x, 1);
        assert!(pool.shutdown(), "a caught-and-reported panic leaves the shutdown clean");
    }

    #[test]
    fn dispatch_fails_fast_once_a_job_panicked() {
        let mut pool = WorkerPool::new(2);
        let failed_fast = pool.scoped(|scope| {
            scope.execute(|| panic!("job boom"));
            // Poll until the panic report lands; the next dispatch must then refuse.
            for _ in 0..5_000 {
                std::thread::sleep(std::time::Duration::from_millis(1));
                if catch_unwind(AssertUnwindSafe(|| scope.execute(|| {}))).is_err() {
                    return true;
                }
            }
            false
        });
        assert!(failed_fast, "dispatch after a job panic must fail fast, not queue more work");
        // The fail-fast drain consumed the report; the pool stays usable and clean.
        let mut x = 0;
        pool.scoped(|scope| scope.execute(|| x = 1));
        assert_eq!(x, 1);
        assert!(pool.shutdown());
    }

    #[test]
    fn execute_after_shutdown_panics_instead_of_hanging() {
        let mut pool = WorkerPool::new(2);
        assert!(pool.shutdown());
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.scoped(|scope| scope.execute(|| {}));
        }));
        // The panic must propagate: the barrier count is only raised after the liveness
        // check, so the unwinding scope's join does not wait for a job no worker ever saw.
        assert!(caught.is_err(), "submitting to a shut-down pool is a panic, not a hang");
    }

    #[test]
    fn a_panicking_scope_body_does_not_poison_the_next_scope() {
        let mut pool = WorkerPool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.scoped(|scope| {
                scope.execute(|| panic!("job boom"));
                panic!("body boom");
            });
        }));
        assert!(caught.is_err());
        // The body panic propagated; the undrained job-panic report must not be charged to
        // the next, fully successful scope.
        let mut x = 0;
        pool.scoped(|scope| scope.execute(|| x = 1));
        assert_eq!(x, 1);
    }

    #[test]
    fn shutdown_is_clean_and_idempotent() {
        let mut pool = WorkerPool::new(4);
        pool.scoped(|scope| scope.execute(|| {}));
        assert!(!pool.is_shut_down());
        assert!(pool.shutdown());
        assert!(pool.is_shut_down());
        assert!(pool.shutdown(), "second shutdown is a clean no-op");
    }
}
