//! The snapshot benchmarks: one suite per module, one harness.
//!
//! Usage: `bench <suite> [--quick] [--smoke] [--out PATH]`
//!
//! | suite | snapshot | modes besides full |
//! |-------|----------|--------------------|
//! | `engine` | BENCH_1.json | `--quick` |
//! | `solvers` | BENCH_2.json | `--quick`, `--smoke` |
//! | `pool` | BENCH_3.json | `--quick`, `--smoke` |
//! | `kernels` | BENCH_7.json | `--smoke` |
//! | `delta` | BENCH_8.json | `--quick`, `--smoke` |
//! | `sim` | BENCH_9.json | `--quick`, `--smoke` |
//! | `portfolio` | BENCH_10.json | `--quick`, `--smoke` |
//!
//! Each suite measures, asserts its contracts, and returns its document,
//! built with [`distfl_obs::JsonWriter`]. The harness prints the document
//! and writes it to `--out`, which defaults to the suite's snapshot.
//! `--smoke` implies `--quick` and is a CI gate: it exits 1 when a gate
//! fails, and writes a document only to an explicit `--out`, so a smoke
//! run never overwrites a committed snapshot. Committed budgets and
//! baselines are read through [`distfl_obs::Json`] before anything is
//! written. A mode the suite lacks, an unknown suite or flag, or `--out`
//! without a path exits 2 with the usage.
//!
//! The binary's global allocator counts allocations for [`count_allocs`];
//! it is the crate's only `unsafe` code.

mod delta;
mod engine;
mod kernels;
mod pool;
mod portfolio;
mod sim;
mod solvers;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use distfl_obs::Json;

/// Passes through to the system allocator, counting allocations and
/// reallocations (frees are not interesting here).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` unchanged, so `System`'s
// guarantees are this allocator's; the counter never touches the memory
// handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`, plus the caller's `new_size` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f`, returning its result and the allocations made while it ran
/// (on every thread).
fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// The best (minimum) wall time of `reps` runs of `f`. Each result is
/// dropped outside the timed span.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        best = best.min(start.elapsed());
        drop(out);
    }
    best
}

/// [`best_of`] in milliseconds.
fn best_ms<T>(reps: usize, f: impl FnMut() -> T) -> f64 {
    best_of(reps, f).as_secs_f64() * 1e3
}

/// A committed snapshot, parsed; `None` when it is missing or malformed,
/// in which case suites fall back to their compiled-in values.
fn snapshot(path: &str) -> Option<Json> {
    Json::parse(&std::fs::read_to_string(path).ok()?).ok()
}

/// How much a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Full,
    Quick,
    /// Quick sizes plus the suite's CI gates.
    Smoke,
}

impl Mode {
    fn quick(self) -> bool {
        self != Mode::Full
    }

    fn name(self) -> &'static str {
        match self {
            Mode::Full => "full",
            Mode::Quick => "quick",
            Mode::Smoke => "smoke",
        }
    }
}

/// What one suite run produced.
struct Report {
    /// The document, when the mode records one.
    document: Option<String>,
    /// Whether every gate held.
    passed: bool,
}

/// One suite: its name, its snapshot, the modes it has besides full, and
/// its entry point.
struct Suite {
    name: &'static str,
    snapshot: &'static str,
    quick: bool,
    smoke: bool,
    run: fn(Mode) -> Report,
}

const SUITES: [Suite; 7] = [
    Suite { name: "engine", snapshot: "BENCH_1.json", quick: true, smoke: false, run: engine::run },
    Suite {
        name: "solvers",
        snapshot: "BENCH_2.json",
        quick: true,
        smoke: true,
        run: solvers::run,
    },
    Suite { name: "pool", snapshot: "BENCH_3.json", quick: true, smoke: true, run: pool::run },
    Suite {
        name: "kernels",
        snapshot: "BENCH_7.json",
        quick: false,
        smoke: true,
        run: kernels::run,
    },
    Suite { name: "delta", snapshot: "BENCH_8.json", quick: true, smoke: true, run: delta::run },
    Suite { name: "sim", snapshot: "BENCH_9.json", quick: true, smoke: true, run: sim::run },
    Suite {
        name: "portfolio",
        snapshot: "BENCH_10.json",
        quick: true,
        smoke: true,
        run: portfolio::run,
    },
];

/// A parsed command line.
struct Args {
    suite: &'static Suite,
    mode: Mode,
    out: Option<String>,
}

/// Parses `bench`'s arguments (without the program name).
fn parse(args: &[String]) -> Result<Args, String> {
    let (name, flags) = args.split_first().ok_or("missing suite")?;
    let suite =
        SUITES.iter().find(|s| s.name == name).ok_or_else(|| format!("unknown suite '{name}'"))?;
    let mut mode = Mode::Full;
    let mut out = None;
    let mut flags = flags.iter();
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "--quick" if suite.quick => {
                if mode == Mode::Full {
                    mode = Mode::Quick;
                }
            }
            "--smoke" if suite.smoke => mode = Mode::Smoke,
            "--quick" | "--smoke" => {
                return Err(format!("suite '{name}' has no {flag} mode"));
            }
            "--out" => match flags.next().filter(|path| !path.starts_with("--")) {
                Some(path) => out = Some(path.clone()),
                None => return Err("--out requires a path".into()),
            },
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    Ok(Args { suite, mode, out })
}

fn usage() -> String {
    let mut text = "usage: bench <suite> [--quick] [--smoke] [--out PATH]\nsuites:".to_owned();
    for suite in &SUITES {
        let modes = match (suite.quick, suite.smoke) {
            (true, true) => "--quick, --smoke",
            (true, false) => "--quick",
            (false, true) => "--smoke",
            (false, false) => "",
        };
        text.push_str(&format!("\n  {:<10} {:<14} {modes}", suite.name, suite.snapshot));
    }
    text
}

/// Fails early on an unwritable output path without truncating an
/// existing file (and without leaving a new one behind).
fn probe(path: &str) -> std::io::Result<()> {
    let existed = std::path::Path::new(path).exists();
    std::fs::OpenOptions::new().append(true).create(true).open(path)?;
    if !existed {
        std::fs::remove_file(path)?;
    }
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{}", usage());
        std::process::exit(2);
    });
    let out =
        args.out.or_else(|| (args.mode != Mode::Smoke).then(|| args.suite.snapshot.to_owned()));
    if let Some(path) = &out {
        if let Err(e) = probe(path) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(2);
        }
    }

    let report = (args.suite.run)(args.mode);
    if let Some(document) = &report.document {
        println!("{document}");
        if let Some(path) = &out {
            if let Err(e) = std::fs::write(path, format!("{document}\n")) {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(2);
            }
            eprintln!("wrote {path}");
        }
    }
    if !report.passed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Args, String> {
        parse(&line.split_whitespace().map(str::to_owned).collect::<Vec<_>>())
    }

    #[test]
    fn every_suite_parses_in_each_of_its_modes() {
        for suite in &SUITES {
            let full = parse_str(suite.name).unwrap();
            assert_eq!((full.suite.name, full.mode, full.out), (suite.name, Mode::Full, None));
            if suite.quick {
                assert_eq!(
                    parse_str(&format!("{} --quick", suite.name)).unwrap().mode,
                    Mode::Quick
                );
            }
            if suite.smoke {
                let lines: &[&str] = if suite.quick {
                    &["--smoke", "--smoke --quick", "--quick --smoke"]
                } else {
                    &["--smoke"]
                };
                for line in lines {
                    let args = parse_str(&format!("{} {line}", suite.name)).unwrap();
                    assert_eq!(args.mode, Mode::Smoke, "{line}");
                    assert!(args.mode.quick(), "--smoke implies --quick");
                }
            }
        }
        let args = parse_str("solvers --smoke --out target/x.json").unwrap();
        assert_eq!(args.out.as_deref(), Some("target/x.json"));
    }

    #[test]
    fn unknown_suite_is_an_error() {
        assert_eq!(parse_str("bench_engine").err().unwrap(), "unknown suite 'bench_engine'");
        assert_eq!(parse_str("").err().unwrap(), "missing suite");
        assert!(parse_str("--quick engine").is_err());
    }

    #[test]
    fn unknown_flag_is_an_error() {
        assert_eq!(parse_str("solvers --fast").err().unwrap(), "unknown argument '--fast'");
        assert!(parse_str("pool --smoke extra").is_err());
    }

    #[test]
    fn out_without_a_path_is_an_error() {
        assert_eq!(parse_str("engine --out").err().unwrap(), "--out requires a path");
        assert_eq!(parse_str("engine --out --quick").err().unwrap(), "--out requires a path");
    }

    #[test]
    fn a_mode_the_suite_lacks_is_an_error() {
        assert_eq!(
            parse_str("engine --smoke").err().unwrap(),
            "suite 'engine' has no --smoke mode"
        );
        assert_eq!(
            parse_str("kernels --quick").err().unwrap(),
            "suite 'kernels' has no --quick mode"
        );
    }

    #[test]
    fn usage_lists_every_suite() {
        let text = usage();
        for suite in &SUITES {
            assert!(text.contains(suite.name) && text.contains(suite.snapshot), "{text}");
        }
    }

    #[test]
    fn probe_keeps_an_existing_file_and_leaves_no_new_one() {
        let dir = std::env::temp_dir().join(format!("distfl-bench-probe-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let kept = dir.join("kept.json");
        std::fs::write(&kept, "{\"budget\":1}\n").unwrap();
        probe(kept.to_str().unwrap()).unwrap();
        assert_eq!(std::fs::read_to_string(&kept).unwrap(), "{\"budget\":1}\n");
        let fresh = dir.join("fresh.json");
        probe(fresh.to_str().unwrap()).unwrap();
        assert!(!fresh.exists());
        assert!(probe(dir.join("missing/dir.json").to_str().unwrap()).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
