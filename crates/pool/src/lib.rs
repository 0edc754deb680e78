//! Persistent worker pool for the distfl workspace.
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
//! - **One queue.** Every task is pushed to the back of one FIFO queue
//!   behind one mutex, and workers pop from its front. Each push wakes one
//!   parked worker.
//! - **Scoped API.** [`WorkerPool::scope`] accepts non-`'static` closures,
//!   exactly like `std::thread::scope`: it blocks until every task spawned
//!   in the scope has finished, which is what makes lending `&mut` chunks
//!   of caller-owned buffers to tasks sound.
//! - **Park/unpark idling.** A worker checks the queue and parks on the
//!   pool's condvar while holding the lock that every push takes, so a
//!   push can never land between the check and the park and be missed.
//! - **Determinism is the caller's contract, kept by construction.** Tasks
//!   write results into pre-assigned, index-ordered slots
//!   ([`WorkerPool::map_indexed`]); the pool never merges anything itself,
//!   so results are independent of which worker ran which task and when.
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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// Locks `m`, recovering from poisoning.
///
/// Task bodies run under `catch_unwind` and never while a pool mutex is
/// held, so a poisoned lock means the pool *itself* panicked mid-update —
/// and every pool mutex guards plain data (the job queue and its shutdown
/// flag, pending counters, the panic slot) that is coherent at every step.
/// Recovering keeps one panicked worker from cascading `PoisonError`
/// panics into every thread that touches the pool afterwards.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A task as stored in the queue: lifetime-erased and tagged with the
/// batch it belongs to.
struct Job {
    run: Box<dyn FnOnce() + Send + 'static>,
    batch: Arc<Batch>,
}

/// Completion state shared by all jobs spawned in one [`WorkerPool::scope`].
struct Batch {
    /// Jobs pushed but not yet finished. The scope blocks until this is 0.
    pending: Mutex<usize>,
    /// Signalled when `pending` reaches 0.
    done: Condvar,
    /// First panic payload observed; re-raised on the scope caller.
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
    /// Jobs executed in total (including by the submitting thread).
    tasks: AtomicU64,
}

impl Batch {
    fn new() -> Arc<Self> {
        Arc::new(Batch {
            pending: Mutex::new(0),
            done: Condvar::new(),
            panic: Mutex::new(None),
            tasks: AtomicU64::new(0),
        })
    }

    /// Run one job body, capturing a panic instead of unwinding through
    /// the worker loop, then decrement `pending` and signal if last.
    fn run_job(&self, run: Box<dyn FnOnce() + Send + 'static>) {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(run)) {
            let mut slot = relock(&self.panic);
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        self.tasks.fetch_add(1, Ordering::Relaxed);
        let mut pending = relock(&self.pending);
        *pending -= 1;
        if *pending == 0 {
            self.done.notify_all();
        }
    }
}

/// Cached obs handle for the per-scope task counter.
fn tasks_counter() -> distfl_obs::Counter {
    static TASKS: OnceLock<distfl_obs::Counter> = OnceLock::new();
    *TASKS.get_or_init(|| distfl_obs::counter("pool.tasks"))
}

/// The queue every worker takes jobs from.
#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    /// Set once, by [`WorkerPool`]'s `Drop`, to retire the workers.
    shutdown: bool,
}

/// Shared state between the pool handle and its workers.
#[derive(Default)]
struct Shared {
    queue: Mutex<Queue>,
    /// Signalled once per push, and to every worker on shutdown.
    wake: Condvar,
}

impl Shared {
    /// Worker main loop: run jobs until shutdown, parking when idle.
    fn worker_loop(&self) {
        let mut queue = relock(&self.queue);
        loop {
            if let Some(Job { run, batch }) = queue.jobs.pop_front() {
                drop(queue);
                batch.run_job(run);
                queue = relock(&self.queue);
            } else if queue.shutdown {
                return;
            } else {
                queue = self.wake.wait(queue).unwrap_or_else(PoisonError::into_inner);
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
        // `'static` so the job can sit in a queue owned by `'static`
        // worker threads. This is sound because `WorkerPool::scope` does
        // not return until `batch.pending` is 0, i.e. until this closure
        // (and every borrow it holds) has finished running — the same
        // argument `std::thread::scope` relies on. The closure is never
        // cloned and runs exactly once.
        let run: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(task) };

        *relock(&self.batch.pending) += 1;
        if self.pool.handles.is_empty() {
            // Inline pool: run on the submitting thread, in spawn order.
            self.batch.run_job(run);
            return;
        }
        let shared = &self.pool.shared;
        relock(&shared.queue).jobs.push_back(Job { run, batch: Arc::clone(&self.batch) });
        shared.wake.notify_one();
    }
}

/// A persistent pool of worker threads sharing one job queue, with a
/// scoped spawn API. See the crate docs for the design.
pub struct WorkerPool {
    shared: Arc<Shared>,
    /// One per worker; emptied only by `Drop`.
    handles: Vec<JoinHandle<()>>,
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
        let shared = Arc::new(Shared::default());
        let handles = (0..workers)
            .map(|who| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("distfl-pool-{who}"))
                    .spawn(move || shared.worker_loop())
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Number of worker threads (0 for an inline pool).
    pub fn workers(&self) -> usize {
        self.handles.len()
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
    /// While blocked, the submitting thread *helps*: it takes this scope's
    /// jobs from the queue and runs them, so a scope makes progress even
    /// on a machine where every worker is busy elsewhere. If any task
    /// panicked, the first panic is resumed on this thread after all tasks
    /// have settled.
    pub fn scope<'env, F>(&self, build: F)
    where
        F: for<'pool> FnOnce(&mut Scope<'pool, 'env>),
    {
        let batch = Batch::new();
        let mut scope =
            Scope { pool: self, batch: Arc::clone(&batch), _env: std::marker::PhantomData };
        build(&mut scope);

        // Help: take this batch's queued jobs and run them here.
        loop {
            let job = {
                let mut queue = relock(&self.shared.queue);
                let pos = queue.jobs.iter().position(|job| Arc::ptr_eq(&job.batch, &batch));
                pos.and_then(|pos| queue.jobs.remove(pos))
            };
            match job {
                Some(Job { run, batch }) => batch.run_job(run),
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
            tasks_counter().add(batch.tasks.load(Ordering::Relaxed));
        }
    }

    /// Evaluate `f(0..n)` in parallel and collect results in index order.
    ///
    /// Each task writes into its own pre-assigned slot, so the output is
    /// identical to `(0..n).map(f).collect()` regardless of worker count
    /// or timing — the primitive the experiment sweeps are built on.
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
        relock(&self.shared.queue).shutdown = true;
        self.shared.wake.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize};
    use std::time::{Duration, Instant};

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
    fn a_parked_worker_wakes_for_the_next_push() {
        let pool = WorkerPool::new(1);
        for round in 0..200 {
            // Let the worker drain the queue and park before the pushes.
            std::thread::sleep(Duration::from_millis(1));
            let started = [AtomicBool::new(false), AtomicBool::new(false)];
            pool.scope(|scope| {
                for me in 0..2 {
                    let started = &started;
                    scope.spawn(move || {
                        // The caller runs one task, so the other needs the
                        // worker: a lost wakeup leaves this wait to time out.
                        started[me].store(true, Ordering::SeqCst);
                        let deadline = Instant::now() + Duration::from_secs(5);
                        while !started[1 - me].load(Ordering::SeqCst) {
                            assert!(
                                Instant::now() < deadline,
                                "round {round}: partner never started"
                            );
                            std::thread::yield_now();
                        }
                    });
                }
            });
        }
    }

    #[test]
    fn concurrent_submitters_share_one_pool() {
        let pool = WorkerPool::new(2);
        std::thread::scope(|threads| {
            for submitter in 0..4 {
                let pool = &pool;
                threads.spawn(move || {
                    for round in 0..200 {
                        let base = submitter * 10_000 + round * 10;
                        let got = pool.map_indexed(8, |i| base + i);
                        assert_eq!(got, (0..8).map(|i| base + i).collect::<Vec<_>>());
                    }
                });
            }
        });
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
