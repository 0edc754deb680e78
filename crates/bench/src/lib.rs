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
//! ## Concurrency
//!
//! Sweeps fan their independent trials out on the shared
//! [`distfl_pool::WorkerPool`] via [`sweep_pool`]. Every trial derives its
//! RNG seed from the row indices alone and results are collected in index
//! order, so the emitted CSVs are byte-identical to a serial run at any
//! worker count (`--serial`, `--threads N`, or `DISTFL_THREADS`).

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

/// Whether quick mode is requested (smaller sweeps), via `--quick` or the
/// `DISTFL_QUICK` environment variable.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick") || std::env::var_os("DISTFL_QUICK").is_some()
}

use distfl_pool::WorkerPool;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Sentinel meaning "not set explicitly — resolve from the environment".
const SWEEP_AUTO: usize = usize::MAX;

static SWEEP_WORKERS: AtomicUsize = AtomicUsize::new(SWEEP_AUTO);

/// Pins the number of pool workers used by experiment sweeps.
///
/// `0` forces fully serial execution (trials run inline on the caller, in
/// spawn order). Binaries call this for `--serial` / `--threads N`; it
/// overrides the `DISTFL_THREADS` environment variable.
pub fn set_sweep_workers(workers: usize) {
    SWEEP_WORKERS.store(workers, Ordering::Relaxed);
}

/// Number of pool workers experiment sweeps will use.
///
/// Resolution order: [`set_sweep_workers`], then `DISTFL_THREADS` (total
/// concurrency, so `workers = threads - 1` because the caller also runs
/// trials), then `available_parallelism() - 1`.
pub fn sweep_workers() -> usize {
    let pinned = SWEEP_WORKERS.load(Ordering::Relaxed);
    if pinned != SWEEP_AUTO {
        return pinned;
    }
    if let Some(v) = std::env::var_os("DISTFL_THREADS") {
        if let Ok(n) = v.to_string_lossy().parse::<usize>() {
            return n.saturating_sub(1);
        }
    }
    std::thread::available_parallelism().map_or(0, |n| n.get().saturating_sub(1))
}

/// The shared worker pool experiment sweeps fan out on.
///
/// With zero workers every task runs inline in spawn order, which is the
/// reference serial schedule; results are always collected in index order,
/// so output is identical either way.
pub fn sweep_pool() -> Arc<WorkerPool> {
    WorkerPool::shared(sweep_workers())
}
