//! # distfl-bench
//!
//! The experiment harness of the `distfl` reproduction. The PODC 2005
//! paper is purely analytical, so its "tables and figures" are its
//! claims; each experiment here turns one claim into a measurable sweep
//! (see `DESIGN.md` §4 and `EXPERIMENTS.md` for the index):
//!
//! | id | claim | module |
//! |----|-------|--------|
//! | E1 | round/approximation trade-off | [`experiments::e1_tradeoff`] |
//! | E2 | locality: rounds independent of input size | [`experiments::e2_locality`] |
//! | E3 | dependence on the coefficient spread `ρ` | [`experiments::e3_rho`] |
//! | E4 | algorithm comparison across workloads | [`experiments::e4_comparison`] |
//! | E5 | rounding stage: `log(m+n)` loss and success prob | [`experiments::e5_rounding`] |
//! | E6 | CONGEST compliance and message complexity | [`experiments::e6_congestion`] |
//! | E7 | ablation of the two-level phase nesting | [`experiments::e7_bucket_ablation`] |
//! | E8 | PayDual design ablation (rules × polish) | [`experiments::e8_paydual_ablation`] |
//! | E9 | cross-algorithm benchmark on shaped families | [`experiments::e9_benchmark`] |
//! | E10 | graceful degradation under faults | [`experiments::e10_faults`] |
//!
//! Every experiment is a library function returning [`Table`]s, so the
//! one experiment binary (`exp_all`, or `exp_all --only eN` for one
//! experiment; see [`experiments::select`]) is a thin wrapper and the
//! harness itself is unit-tested. Tables are printed aligned and written
//! as CSV under `target/experiments/`.
//!
//! ## Snapshot benchmarks
//!
//! The crate's `bench` binary (`src/bin/bench/`) records the BENCH files:
//! `bench <suite> [--quick] [--smoke] [--out PATH]`, with one suite per
//! measured layer (`engine`, `solvers`, `pool`, `kernels`, `delta`,
//! `sim`, `portfolio`) sharing one harness. `serve_load` records the
//! service's BENCH_5/BENCH_6.
//!
//! ## Concurrency
//!
//! Sweeps fan their independent trials out on the shared
//! [`distfl_pool::WorkerPool`] via [`sweep_pool`]. Every trial derives its
//! RNG seed from the row indices alone and results are collected in index
//! order, so the emitted CSVs are byte-identical to a serial run at any
//! worker count (`--serial`, `--threads N`, or `DISTFL_POOL_THREADS`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
mod figure;
mod stats;
mod table;

pub use figure::{emit_figures, Figure, Series};
pub use stats::{mean, std_dev};
pub use table::Table;

use std::path::PathBuf;

/// Where experiment CSVs are written.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("target")
        .join("experiments");
    std::fs::create_dir_all(&dir).expect("create results directory");
    dir
}

/// Prints tables and writes their CSVs; the uniform tail of every
/// experiment binary.
pub fn emit(tables: &[Table]) {
    let dir = results_dir();
    for table in tables {
        println!("{}", table.render());
        let path = dir.join(format!("{}.csv", table.id()));
        std::fs::write(&path, table.to_csv()).expect("write experiment csv");
        println!("[written: {}]\n", path.display());
    }
}

use distfl_pool::WorkerPool;
use std::sync::{Arc, Mutex, PoisonError};

/// The sweep worker count pinned by [`set_sweep_workers`], if any.
static SWEEP_WORKERS: Mutex<Option<usize>> = Mutex::new(None);

/// Pins the number of pool workers used by experiment sweeps.
///
/// `0` forces fully serial execution (trials run inline on the caller, in
/// spawn order). Binaries call this for `--serial` / `--threads N`.
pub fn set_sweep_workers(workers: usize) {
    *SWEEP_WORKERS.lock().unwrap_or_else(PoisonError::into_inner) = Some(workers);
}

/// The worker pool experiment sweeps fan out on: a pool of the pinned
/// size after [`set_sweep_workers`], otherwise the global pool (sized by
/// `DISTFL_POOL_THREADS`, see [`WorkerPool::global`]).
///
/// With zero workers every task runs inline in spawn order, which is the
/// reference serial schedule; results are always collected in index order,
/// so output is identical either way.
pub fn sweep_pool() -> Arc<WorkerPool> {
    match *SWEEP_WORKERS.lock().unwrap_or_else(PoisonError::into_inner) {
        Some(workers) => WorkerPool::shared(workers),
        None => WorkerPool::global(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unpinned_sweep_pool_is_the_global_pool() {
        assert!(Arc::ptr_eq(&sweep_pool(), &WorkerPool::global()));
    }
}
