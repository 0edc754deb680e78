//! `bench pool`: the persistent worker pool (BENCH_3.json).
//!
//! Two measurements:
//!
//! 1. **dispatch** — the cost of one fork/join batch of `k` trivial tasks
//!    via `std::thread::scope` (a fresh OS thread per task, the shape the
//!    engine used before the pool) vs [`distfl_pool::WorkerPool::scope`]
//!    (persistent workers, no spawn). This isolates pure dispatch
//!    overhead: the engine pays one such batch per round when it steps
//!    nodes in parallel. (The engine's own parallel round is measured by
//!    `bench engine` at 1, 2, 4 and 8 threads.)
//! 2. **exp_all_quick** — `experiments::run_all(quick)` serial (zero
//!    workers, trials inline) vs pooled, asserting the emitted CSVs are
//!    byte-identical. After one untimed warm-up of each, five rounds
//!    alternate the two sweeps (the order swapped each round) and each
//!    side reports its best wall clock. `--smoke` skips it.
//!
//! The document records `"cores"`: on a single-core host the dispatch
//! win is real (both contenders get the same core; only the spawn
//! overhead differs) while multi-core scaling of `exp_all` is not
//! measurable — the JSON says which regime produced it.

use std::time::Instant;

use distfl_congest::WorkerPool;
use distfl_obs::JsonWriter;

use crate::{best_of, Mode, Report};

/// One fork/join batch of `k` trivial tasks on fresh scoped threads.
fn scoped_batch(k: usize) {
    std::thread::scope(|scope| {
        for _ in 0..k {
            scope.spawn(|| {
                std::hint::black_box(0u64);
            });
        }
    });
}

/// The same batch dispatched onto the persistent pool.
fn pool_batch(pool: &WorkerPool, k: usize) {
    pool.scope(|scope| {
        for _ in 0..k {
            scope.spawn(|| {
                std::hint::black_box(0u64);
            });
        }
    });
}

/// Timed rounds of [`exp_all_quick`]: each runs both sweeps once, in the
/// opposite order to the round before.
const SWEEP_ROUNDS: usize = 5;

/// `exp_all --quick` serial vs pooled, asserting byte-identical CSVs.
///
/// Both sweeps run once untimed to warm up. The timed rounds then
/// alternate them, swapping which goes first each round, and each side
/// reports its best time, so neither the order nor a cold first run
/// decides the speedup.
fn exp_all_quick(w: &mut JsonWriter, cores: usize) {
    let workers = if cores > 1 { cores - 1 } else { 3 };
    let sweep = |pooled: bool| {
        distfl_bench::set_sweep_workers(if pooled { workers } else { 0 });
        let start = Instant::now();
        let tables = distfl_bench::experiments::run_all(true);
        let secs = start.elapsed().as_secs_f64();
        distfl_bench::set_sweep_workers(0);
        (tables, secs)
    };
    let (serial, _) = sweep(false);
    let (pooled, _) = sweep(true);
    assert_eq!(serial.len(), pooled.len(), "table count must not depend on workers");
    let identical =
        serial.iter().zip(&pooled).all(|(a, b)| a.id() == b.id() && a.to_csv() == b.to_csv());
    assert!(identical, "pooled sweep produced different CSV bytes than serial");

    let (mut serial_secs, mut pooled_secs) = (f64::INFINITY, f64::INFINITY);
    for round in 0..SWEEP_ROUNDS {
        let order = if round % 2 == 0 { [false, true] } else { [true, false] };
        for pooled in order {
            let (_, secs) = sweep(pooled);
            let best = if pooled { &mut pooled_secs } else { &mut serial_secs };
            *best = best.min(secs);
        }
    }
    let speedup = serial_secs / pooled_secs;
    eprintln!(
        "exp_all quick (best of {SWEEP_ROUNDS} alternated rounds): serial={serial_secs:.3}s \
         pooled({workers} workers)={pooled_secs:.3}s speedup={speedup:.2}x \
         csv_identical={identical}"
    );
    w.begin_object();
    w.key("serial_secs").number(serial_secs);
    w.key("pooled_secs").number(pooled_secs);
    w.key("pool_workers").number_u64(workers as u64);
    w.key("rounds").number_u64(SWEEP_ROUNDS as u64);
    w.key("speedup").number(speedup);
    w.key("csv_identical").boolean(identical);
    w.end_object();
}

pub(crate) fn run(mode: Mode) -> Report {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut w = JsonWriter::object();
    w.key("bench").string("worker_pool");
    w.key("mode").string(mode.name());
    w.key("cores").number_u64(cores as u64);
    w.key("note").string(
        "dispatch compares identical work under scoped-spawn vs persistent-pool dispatch, so \
         its speedup holds at any core count; exp_all parallel scaling additionally needs \
         cores > 1",
    );

    let reps = if mode.quick() { 200 } else { 2_000 };
    w.key("dispatch").begin_array();
    for &k in &[2usize, 4, 8] {
        let pool = WorkerPool::shared(k - 1);
        // Warm both paths once before timing.
        scoped_batch(k);
        pool_batch(&pool, k);
        let scoped_ns = best_of(reps, || scoped_batch(k)).as_nanos() as u64;
        let pool_ns = best_of(reps, || pool_batch(&pool, k)).as_nanos() as u64;
        let speedup = scoped_ns as f64 / pool_ns as f64;
        eprintln!("dispatch k={k}: scoped={scoped_ns} ns pool={pool_ns} ns speedup={speedup:.1}x");
        w.begin_object();
        w.key("tasks").number_u64(k as u64);
        w.key("scoped_spawn_ns").number_u64(scoped_ns);
        w.key("pool_ns").number_u64(pool_ns);
        w.key("speedup").number(speedup);
        w.end_object();
    }
    w.end_array();

    w.key("exp_all_quick");
    if mode == Mode::Smoke {
        w.null();
    } else {
        exp_all_quick(&mut w, cores);
    }
    Report { document: Some(w.finish()), passed: true }
}
