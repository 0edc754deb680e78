//! Runs every experiment E1-E10 and writes all CSVs and figures; the data
//! source for EXPERIMENTS.md. Pass `--quick` for a reduced sweep, and
//! `--only eN` (`e1` … `e10`) to run just that experiment. An unknown id
//! exits with status 2 and lists the valid ids.
//!
//! Sweeps fan out on the shared worker pool; output is byte-identical at
//! any thread count. Concurrency flags:
//!
//! * `--serial` — run every trial inline on the main thread,
//! * `--threads N` — use `N` threads in total (`N-1` pool workers),
//! * default — the global pool: `DISTFL_POOL_THREADS` workers if set,
//!   else one worker per available core beyond the main thread.
//!
//! Observability flags:
//!
//! * `--trace <path>` — record spans and metrics for the whole run and
//!   write a Chrome `trace_event` JSON file to `<path>` (open it in
//!   `chrome://tracing` or Perfetto); a flat CSV of the same events lands
//!   next to it at `<path>.csv`,
//! * `DISTFL_TRACE=1` — same, with the trace at
//!   `target/experiments/trace.json`.
//!
//! Tracing never changes experiment output: CSVs are byte-identical with
//! tracing on or off.

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let only = args.iter().position(|a| a == "--only").map(|i| {
        let id = args.get(i + 1).map_or("", String::as_str);
        distfl_bench::experiments::select(id).unwrap_or_else(|e| {
            eprintln!("error: --only: {e}");
            std::process::exit(2);
        })
    });
    if args.iter().any(|a| a == "--serial") {
        distfl_bench::set_sweep_workers(0);
    } else if let Some(i) = args.iter().position(|a| a == "--threads") {
        let n: usize = args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .expect("--threads needs a positive integer");
        distfl_bench::set_sweep_workers(n.saturating_sub(1));
    }

    let trace_path: Option<std::path::PathBuf> = args
        .iter()
        .position(|a| a == "--trace")
        .map(|i| {
            args.get(i + 1)
                .filter(|v| !v.starts_with("--"))
                .expect("--trace needs an output path")
                .into()
        })
        .or_else(|| {
            distfl_obs::init_from_env()
                .then(|| std::path::PathBuf::from("target/experiments/trace.json"))
        });
    if trace_path.is_some() {
        distfl_obs::set_enabled(true);
    }

    let run_span = if trace_path.is_some() {
        distfl_obs::span("exp", "exp_all")
    } else {
        distfl_obs::Span::disabled()
    };
    let experiments = only.as_deref().unwrap_or(distfl_bench::experiments::EXPERIMENTS);
    let quick = args.iter().any(|a| a == "--quick");
    let tables = distfl_bench::experiments::run(experiments, quick);
    distfl_bench::emit(&tables);
    let figures = distfl_bench::experiments::figures::standard_figures(&tables);
    distfl_bench::emit_figures(&figures);
    drop(run_span);

    if let Some(path) = trace_path {
        let snap = distfl_obs::snapshot();
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).expect("create trace output directory");
        }
        let json = snap.chrome_json();
        distfl_obs::validate_json(&json).expect("trace export must be well-formed JSON");
        std::fs::write(&path, json).expect("write trace file");
        let csv_path = {
            let mut os = path.clone().into_os_string();
            os.push(".csv");
            std::path::PathBuf::from(os)
        };
        std::fs::write(&csv_path, snap.csv()).expect("write trace CSV");
        println!(
            "trace: {} events ({} dropped), {} metrics -> {} and {}",
            snap.events.len(),
            snap.dropped_events(),
            snap.metrics.len(),
            path.display(),
            csv_path.display(),
        );
    }
    println!("experiments complete; CSVs and SVGs in target/experiments/");
}
