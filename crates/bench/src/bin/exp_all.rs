//! Runs every experiment E1-E10 and writes all CSVs and figures; the data
//! source for EXPERIMENTS.md. Pass `--quick` for a reduced sweep, and
//! `--only eN` (`e1` … `e10`) to run just that experiment. An unknown id
//! exits with status 2 and lists the valid ids; so does any argument
//! `exp_all` does not know, with the usage.
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

use distfl_bench::experiments::{self, Experiment};

/// A parsed command line.
#[derive(Default)]
struct Args {
    quick: bool,
    /// The experiments `--only` selected; all of them when `None`.
    only: Option<Vec<Experiment>>,
    serial: bool,
    /// `--threads N`: threads in total.
    threads: Option<usize>,
    trace: Option<std::path::PathBuf>,
}

const USAGE: &str = "usage: exp_all [--quick] [--only eN] [--serial | --threads N] [--trace PATH]";

/// Parses `exp_all`'s arguments (without the program name). Any argument
/// it does not know is an error, so a typo cannot start the full suite.
fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => parsed.quick = true,
            "--serial" => parsed.serial = true,
            "--threads" => {
                let n = args.next().and_then(|v| v.parse().ok());
                parsed.threads = Some(n.ok_or("--threads needs a positive integer")?);
            }
            "--trace" => {
                let path = args.next().filter(|v| !v.starts_with("--"));
                parsed.trace = Some(path.ok_or("--trace needs an output path")?.into());
            }
            "--only" => {
                let id = args.next().map_or("", String::as_str);
                parsed.only = Some(experiments::select(id).map_err(|e| format!("--only: {e}"))?);
            }
            _ => return Err(format!("unknown argument '{arg}'")),
        }
    }
    Ok(parsed)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if args.serial {
        distfl_bench::set_sweep_workers(0);
    } else if let Some(n) = args.threads {
        distfl_bench::set_sweep_workers(n.saturating_sub(1));
    }

    let trace_path = args.trace.or_else(|| {
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
    let experiments = args.only.as_deref().unwrap_or(experiments::EXPERIMENTS);
    let tables = experiments::run(experiments, args.quick);
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Args, String> {
        parse(&line.split_whitespace().map(str::to_owned).collect::<Vec<_>>())
    }

    #[test]
    fn known_flags_parse() {
        let args = parse_str("").unwrap();
        assert!(!args.quick && !args.serial && args.only.is_none());
        assert!(args.threads.is_none() && args.trace.is_none());
        let args = parse_str("--quick --only e3 --threads 4 --trace out/t.json").unwrap();
        assert!(args.quick);
        let only = args.only.unwrap();
        assert_eq!(only.len(), 1);
        assert!(only[0].0.starts_with("e3"), "{}", only[0].0);
        assert_eq!(args.threads, Some(4));
        assert_eq!(args.trace, Some("out/t.json".into()));
        assert!(parse_str("--serial").unwrap().serial);
    }

    #[test]
    fn unknown_or_incomplete_arguments_are_errors() {
        for (line, message) in [
            ("--help", "unknown argument '--help'"),
            ("--qiuck", "unknown argument '--qiuck'"),
            ("e1", "unknown argument 'e1'"),
            ("--quick --no-such-flag", "unknown argument '--no-such-flag'"),
            ("--threads", "--threads needs"),
            ("--threads many", "--threads needs"),
            ("--trace", "--trace needs"),
            ("--trace --quick", "--trace needs"),
            ("--only", "--only: unknown experiment"),
            ("--only e99", "--only: unknown experiment 'e99'"),
        ] {
            let err = parse_str(line).err().unwrap_or_else(|| panic!("{line:?} parsed"));
            assert!(err.starts_with(message), "{line:?}: {err}");
        }
    }
}
