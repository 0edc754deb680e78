//! The distfl benchmark: one workload per process.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --describe
//! perfbench --calibrate
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with
//! `distfl_obs` disabled; with `--trace 1` it makes the separate traced
//! run that yields the per-layer metrics. Either way every output is
//! checked, and a wrong output exits with status 1. The last line of
//! standard output is the result object.

mod calib;
mod feed;
mod gen;
mod load;
mod protocol;
mod report;
mod serve;
mod spans;
mod spec;
mod stats;
mod sys;
mod trace;

use serve::{Inputs, ServeWorkload};

/// The default workload seed.
const DEFAULT_SEED: u64 = 1;

const SERVE: [ServeWorkload; 3] = [
    ServeWorkload {
        name: "small-requests",
        rate: 4000.0,
        window: 32,
        inputs: Inputs::Small { templates: 384 },
    },
    ServeWorkload {
        name: "solver-mix",
        rate: 250.0,
        window: 8,
        inputs: Inputs::Mix { instances: 16 },
    },
    ServeWorkload {
        name: "session-churn",
        rate: 180.0,
        window: 4,
        inputs: Inputs::Churn { sessions: 4, facilities: 50, clients: 500 },
    },
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <small-requests|solver-mix|session-churn|protocol-sim> \
         [--seed N] [--seconds S] [--trace 0|1]\n       perfbench --describe\n       perfbench --calibrate"
    );
    std::process::exit(2);
}

fn parse_args() -> Option<Args> {
    let mut args =
        Args { workload: String::new(), seed: DEFAULT_SEED, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--describe" {
            return None;
        }
        if flag == "--calibrate" {
            calib::print_reference(100);
            std::process::exit(0);
        }
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    if args.workload.is_empty() || args.seconds.is_nan() || args.seconds <= 0.0 {
        usage();
    }
    Some(args)
}

fn main() {
    let Some(args) = parse_args() else {
        let mut settings = serve::describe_all(&SERVE);
        settings.push((protocol::NAME, protocol::settings_json()));
        println!("{}", spec::describe(DEFAULT_SEED, &settings));
        return;
    };
    let report = if args.workload == protocol::NAME {
        if args.trace {
            protocol::run_traced(args.seed, args.seconds)
        } else {
            protocol::run(args.seed, args.seconds)
        }
    } else {
        let Some(wl) = SERVE.iter().find(|w| w.name == args.workload) else { usage() };
        if args.trace {
            trace::run(wl, args.seed, args.seconds)
        } else {
            serve::run(wl, args.seed, args.seconds)
        }
    };
    report.print();
    if !report.correct() {
        std::process::exit(1);
    }
}
