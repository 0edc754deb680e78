//! Persistent work-stealing worker pool for the distfl workspace.
//!
//! The CONGEST engine can step a round's nodes in parallel, which is one
//! fork/join batch *per simulated round*, and the experiment sweeps fan
//! out independent trials. Spawning OS threads with `std::thread::scope`
//! for every batch puts a thread create/join pair on the round critical
//! path — tens of microseconds that dwarf the work of a medium-traffic
//! round. This crate replaces that with a pool of **long-lived workers**
//! that park between batches, so dispatching a batch costs a queue push
//! and a wake instead of a spawn.
//!
//! Design:
//!
//! - **Per-worker deques with stealing.** Each worker owns a deque; the
//!   submitter distributes a batch round-robin across deques. A worker pops
//!   from the *back* of its own deque (LIFO, cache-hot) and steals from the
//!   *front* of a victim's deque (FIFO, oldest task) when its own is empty.
//! - **Scoped API.** [`WorkerPool::scope`] accepts non-`'static` closures,
//!   exactly like `std::thread::scope`: it blocks until every task spawned
//!   in the scope has finished, which is what makes lending `&mut` chunks
//!   of caller-owned buffers to tasks sound.
//! - **Park/unpark idling.** Idle workers sleep on a condvar guarded by an
//!   *epoch counter* (an eventcount): a worker reads the epoch, scans all
//!   deques, and only parks if the epoch is unchanged — so a push that
//!   lands between scan and park can never be lost.
//! - **Determinism is the caller's contract, kept by construction.** Tasks
//!   write results into pre-assigned, index-ordered slots
//!   ([`WorkerPool::map_indexed`]); the pool never merges anything itself,
//!   so results are independent of which worker ran which task and of
//!   steal timing.
//! - **Zero workers = inline.** A pool with 0 workers runs every task on
//!   the submitting thread, in spawn order. The serial and parallel code
//!   paths are therefore literally the same code.
//!
//! The crate has exactly one `unsafe` block: the lifetime erasure that
//! every scoped-thread implementation needs (see [`Scope::spawn`]).

#![warn(missing_docs)]

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// Locks `m`, recovering from poisoning.
///
/// Task bodies run under `catch_unwind` and never while a pool mutex is
/// held, so a poisoned lock means the pool *itself* panicked mid-update —
/// and every pool mutex guards plain data (job deques, epoch and pending
/// counters) that is coherent at every step. Recovering keeps one panicked
/// worker from cascading `PoisonError` panics into every thread that
/// touches the pool afterwards.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A task as stored in a worker deque: lifetime-erased, tagged with the
/// batch it belongs to and the deque it was pushed to.
struct Job {
    run: Box<dyn FnOnce() + Send + 'static>,
    batch: Arc<Batch>,
    home: usize,
}

/// Completion state shared by all jobs spawned in one [`WorkerPool::scope`].
struct Batch {
    /// Jobs pushed but not yet finished. The scope blocks until this is 0.
    pending: Mutex<usize>,
    /// Signalled when `pending` reaches 0.
    done: Condvar,
    /// First panic payload observed; re-raised on the scope caller.
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
    /// Jobs executed by a worker other than the owner of their home deque.
    stolen: AtomicU64,
    /// Jobs executed in total (including by the submitting thread).
    tasks: AtomicU64,
}

impl Batch {
    fn new() -> Arc<Self> {
        Arc::new(Batch {
            pending: Mutex::new(0),
            done: Condvar::new(),
            panic: Mutex::new(None),
            stolen: AtomicU64::new(0),
            tasks: AtomicU64::new(0),
        })
    }

    /// Run one job body, capturing a panic instead of unwinding through
    /// the worker loop, then decrement `pending` and signal if last.
    fn run_job(&self, run: Box<dyn FnOnce() + Send + 'static>, executor: usize, home: usize) {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(run)) {
            let mut slot = relock(&self.panic);
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        self.tasks.fetch_add(1, Ordering::Relaxed);
        if executor != home && executor != CALLER {
            self.stolen.fetch_add(1, Ordering::Relaxed);
        }
        let mut pending = relock(&self.pending);
        *pending -= 1;
        if *pending == 0 {
            self.done.notify_all();
        }
    }
}

/// Executor id used for the thread that opened the scope (not a worker).
const CALLER: usize = usize::MAX;

/// Cached obs handles for the per-scope task/steal counters.
fn pool_counters() -> (distfl_obs::Counter, distfl_obs::Counter) {
    static COUNTERS: OnceLock<(distfl_obs::Counter, distfl_obs::Counter)> = OnceLock::new();
    *COUNTERS
        .get_or_init(|| (distfl_obs::counter("pool.tasks"), distfl_obs::counter("pool.stolen")))
}

/// Shared state between the pool handle and its workers.
struct Shared {
    /// One deque per worker. A `Mutex<VecDeque>` per lane is deliberately
    /// boring: lanes are touched a handful of times per engine round, so
    /// contention is negligible and correctness is obvious.
    queues: Vec<Mutex<VecDeque<Job>>>,
    /// Eventcount epoch: bumped on every push and on shutdown.
    epoch: Mutex<u64>,
    /// Signalled (broadcast) whenever `epoch` is bumped.
    wake: Condvar,
    /// Set once, before the final epoch bump, to retire the workers.
    shutdown: AtomicBool,
}

impl Shared {
    /// Bump the epoch and wake every parked worker.
    fn notify(&self) {
        let mut epoch = relock(&self.epoch);
        *epoch += 1;
        drop(epoch);
        self.wake.notify_all();
    }

    /// Pop a runnable job for `who`: own deque from the back (LIFO),
    /// then every other deque from the front (FIFO steal).
    fn find_job(&self, who: usize) -> Option<Job> {
        if let Some(job) = relock(&self.queues[who]).pop_back() {
            return Some(job);
        }
        let lanes = self.queues.len();
        for offset in 1..lanes {
            let victim = (who + offset) % lanes;
            if let Some(job) = relock(&self.queues[victim]).pop_front() {
                return Some(job);
            }
        }
        None
    }

    /// Worker main loop: run jobs until shutdown, parking when idle.
    fn worker_loop(&self, who: usize) {
        loop {
            // Read the epoch *before* scanning, so a push that races with
            // the scan bumps the epoch and the park below returns at once.
            let seen = *relock(&self.epoch);
            if let Some(job) = self.find_job(who) {
                job.batch.clone().run_job(job.run, who, job.home);
                continue;
            }
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            let mut epoch = relock(&self.epoch);
            while *epoch == seen && !self.shutdown.load(Ordering::Acquire) {
                epoch = self.wake.wait(epoch).unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

/// Spawn handle passed to the closure of [`WorkerPool::scope`].
///
/// Tasks spawned here may borrow from the enclosing environment (`'env`);
/// the scope call does not return until all of them have completed.
pub struct Scope<'pool, 'env> {
    pool: &'pool WorkerPool,
    batch: Arc<Batch>,
    /// Next deque to push to (round-robin).
    next_lane: usize,
    _env: std::marker::PhantomData<&'env mut &'env ()>,
}

impl<'pool, 'env> Scope<'pool, 'env> {
    /// Spawn a task into the pool. The task may borrow data from outside
    /// the `scope` call; completion is guaranteed before `scope` returns.
    pub fn spawn<F>(&mut self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        let task: Box<dyn FnOnce() + Send + 'env> = Box::new(f);
        // SAFETY: the only `unsafe` in this crate. We erase `'env` down to
        // `'static` so the job can sit in a deque owned by `'static`
        // worker threads. This is sound because `WorkerPool::scope` does
        // not return until `batch.pending` is 0, i.e. until this closure
        // (and every borrow it holds) has finished running — the same
        // argument `std::thread::scope` relies on. The closure is never
        // cloned and runs exactly once.
        let run: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(task) };

        let shared = &self.pool.shared;
        let lanes = shared.queues.len();
        *relock(&self.batch.pending) += 1;
        if lanes == 0 {
            // Inline pool: run on the submitting thread, in spawn order.
            self.batch.run_job(run, CALLER, CALLER);
            return;
        }
        let home = self.next_lane % lanes;
        self.next_lane = self.next_lane.wrapping_add(1);
        relock(&shared.queues[home]).push_back(Job { run, batch: Arc::clone(&self.batch), home });
        shared.notify();
    }
}

/// A persistent pool of worker threads with per-worker deques, work
/// stealing, and a scoped spawn API. See the crate docs for the design.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("workers", &self.workers()).finish()
    }
}

impl WorkerPool {
    /// Create a pool with `workers` long-lived worker threads.
    ///
    /// `workers == 0` is valid and useful: every task runs inline on the
    /// submitting thread, in spawn order — the deterministic serial
    /// reference that parallel runs are compared against.
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            epoch: Mutex::new(0),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|who| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("distfl-pool-{who}"))
                    .spawn(move || shared.worker_loop(who))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, handles: Mutex::new(handles) }
    }

    /// Number of worker threads (0 for an inline pool).
    pub fn workers(&self) -> usize {
        self.shared.queues.len()
    }

    /// Maximum useful concurrency: the workers plus the submitting thread,
    /// which always participates in draining its own scope.
    pub fn parallelism(&self) -> usize {
        self.workers() + 1
    }

    /// The process-wide default pool, created on first use.
    ///
    /// Worker count: `DISTFL_POOL_THREADS` if set (0 = inline), otherwise
    /// `available_parallelism() - 1` (the submitting thread supplies the
    /// remaining lane).
    pub fn global() -> Arc<WorkerPool> {
        static GLOBAL: OnceLock<Arc<WorkerPool>> = OnceLock::new();
        Arc::clone(GLOBAL.get_or_init(|| {
            let workers = std::env::var("DISTFL_POOL_THREADS")
                .ok()
                .and_then(|s| s.trim().parse::<usize>().ok())
                .unwrap_or_else(|| {
                    std::thread::available_parallelism().map_or(0, |c| c.get().saturating_sub(1))
                });
            Arc::new(WorkerPool::new(workers))
        }))
    }

    /// A process-wide pool with exactly `workers` workers, created on
    /// first request and reused afterwards. Tests and benches sweep worker
    /// counts {1, 2, 4, 8}; sharing one pool per count keeps that sweep
    /// from spawning threads quadratically.
    pub fn shared(workers: usize) -> Arc<WorkerPool> {
        type Registry = Mutex<Vec<(usize, Arc<WorkerPool>)>>;
        static SHARED: OnceLock<Registry> = OnceLock::new();
        let registry = SHARED.get_or_init(|| Mutex::new(Vec::new()));
        let mut pools = relock(registry);
        if let Some((_, pool)) = pools.iter().find(|(w, _)| *w == workers) {
            return Arc::clone(pool);
        }
        let pool = Arc::new(WorkerPool::new(workers));
        pools.push((workers, Arc::clone(&pool)));
        pool
    }

    /// Run `build`, which may spawn borrowing tasks via [`Scope::spawn`],
    /// then block until every spawned task has finished.
    ///
    /// While blocked, the submitting thread *helps*: it drains jobs
    /// belonging to this scope from the worker deques, so a scope makes
    /// progress even on a machine where every worker is busy elsewhere.
    /// If any task panicked, the first panic is resumed on this thread
    /// after all tasks have settled.
    pub fn scope<'env, F>(&self, build: F)
    where
        F: for<'pool> FnOnce(&mut Scope<'pool, 'env>),
    {
        let batch = Batch::new();
        let mut scope = Scope {
            pool: self,
            batch: Arc::clone(&batch),
            next_lane: 0,
            _env: std::marker::PhantomData,
        };
        build(&mut scope);

        // Help: steal back jobs of *this* batch and run them here.
        loop {
            let job = self.shared.queues.iter().find_map(|queue| {
                let mut queue = relock(queue);
                let pos = queue.iter().position(|job| Arc::ptr_eq(&job.batch, &batch));
                pos.and_then(|pos| queue.remove(pos))
            });
            match job {
                Some(job) => job.batch.clone().run_job(job.run, CALLER, job.home),
                None => break,
            }
        }

        let mut pending = relock(&batch.pending);
        while *pending > 0 {
            pending = batch.done.wait(pending).unwrap_or_else(PoisonError::into_inner);
        }
        drop(pending);

        if let Some(payload) = relock(&batch.panic).take() {
            resume_unwind(payload);
        }
        if distfl_obs::enabled() {
            let (tasks, stolen) = pool_counters();
            tasks.add(batch.tasks.load(Ordering::Relaxed));
            stolen.add(batch.stolen.load(Ordering::Relaxed));
        }
    }

    /// Evaluate `f(0..n)` in parallel and collect results in index order.
    ///
    /// Each task writes into its own pre-assigned slot, so the output is
    /// identical to `(0..n).map(f).collect()` regardless of worker count
    /// or steal timing — the primitive the experiment sweeps are built on.
    pub fn map_indexed<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let f = &f;
        self.scope(|scope| {
            for (index, slot) in slots.iter_mut().enumerate() {
                scope.spawn(move || *slot = Some(f(index)));
            }
        });
        slots.into_iter().map(|slot| slot.expect("map_indexed task completed")).collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.notify();
        for handle in relock(&self.handles).drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn inline_pool_runs_tasks_in_spawn_order() {
        let pool = WorkerPool::new(0);
        let log = Mutex::new(Vec::new());
        pool.scope(|scope| {
            for i in 0..8 {
                let log = &log;
                scope.spawn(move || log.lock().unwrap().push(i));
            }
        });
        assert_eq!(*log.lock().unwrap(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn scope_blocks_until_all_tasks_finish() {
        let pool = WorkerPool::new(3);
        let hits = AtomicUsize::new(0);
        for _ in 0..50 {
            hits.store(0, Ordering::SeqCst);
            pool.scope(|scope| {
                for _ in 0..16 {
                    let hits = &hits;
                    scope.spawn(move || {
                        hits.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
            assert_eq!(hits.load(Ordering::SeqCst), 16);
        }
    }

    #[test]
    fn tasks_may_borrow_mutable_chunks() {
        let pool = WorkerPool::new(2);
        let mut data = vec![0u64; 1000];
        pool.scope(|scope| {
            for (i, chunk) in data.chunks_mut(100).enumerate() {
                scope.spawn(move || {
                    for (j, v) in chunk.iter_mut().enumerate() {
                        *v = (i * 100 + j) as u64;
                    }
                });
            }
        });
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u64));
    }

    #[test]
    fn map_indexed_is_index_ordered_at_every_worker_count() {
        let expected: Vec<usize> = (0..200).map(|i| i * i).collect();
        for workers in [0, 1, 2, 4, 8] {
            let pool = WorkerPool::new(workers);
            assert_eq!(pool.map_indexed(200, |i| i * i), expected, "workers={workers}");
        }
    }

    #[test]
    fn nested_scopes_complete() {
        let pool = WorkerPool::new(2);
        let outer: Vec<Vec<usize>> =
            pool.map_indexed(4, |i| pool.map_indexed(5, move |j| i * 10 + j));
        for (i, inner) in outer.iter().enumerate() {
            assert_eq!(inner, &(0..5).map(|j| i * 10 + j).collect::<Vec<_>>());
        }
    }

    #[test]
    fn panics_propagate_to_the_scope_caller() {
        let pool = WorkerPool::new(2);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|scope| {
                scope.spawn(|| {});
                scope.spawn(|| panic!("boom"));
                scope.spawn(|| {});
            });
        }));
        assert!(caught.is_err());
        // The pool must stay usable after a panicking batch.
        assert_eq!(pool.map_indexed(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn shared_pools_are_reused_per_worker_count() {
        let a = WorkerPool::shared(2);
        let b = WorkerPool::shared(2);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.workers(), 2);
        let c = WorkerPool::shared(3);
        assert_eq!(c.workers(), 3);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn dropping_a_pool_joins_its_workers() {
        let pool = WorkerPool::new(2);
        let sum = AtomicUsize::new(0);
        pool.scope(|scope| {
            for i in 0..10 {
                let sum = &sum;
                scope.spawn(move || {
                    sum.fetch_add(i, Ordering::SeqCst);
                });
            }
        });
        drop(pool);
        assert_eq!(sum.load(Ordering::SeqCst), 45);
    }
}
