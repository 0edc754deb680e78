//! The benchmark's definition. `BENCHMARK.json` at the repository root
//! is the one source of what a comparison gates on: the gated workloads
//! with their reasons, the gated end-to-end metrics with their units,
//! directions and bounds, and the per-layer metrics with their units and
//! directions. This module adds what that file has no room for: each
//! metric's definition, the workloads and metrics that are run but not
//! gated, and for each per-layer metric its layer and the end-to-end
//! metric and workload it should move. `--describe` prints all of it.

use std::fmt::Write as _;
use std::sync::OnceLock;

use distfl_serve::json::Json;

use crate::report::json_str;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

pub struct Workload {
    pub name: String,
    pub why: String,
    /// Whether `BENCHMARK.json` lists it, so that comparisons gate on it.
    pub gated: bool,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: String,
    pub better: String,
    /// The share by which the metric may worsen before a change counts
    /// as a regression; `None` for a metric that is reported but not
    /// gated.
    pub bound: Option<f64>,
    pub definition: &'static str,
}

pub struct PerLayer {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub layer: &'static str,
    pub moves: &'static str,
}

pub struct Spec {
    pub workloads: Vec<Workload>,
    pub end_to_end: Vec<EndToEnd>,
    pub per_layer: Vec<PerLayer>,
}

/// Workloads the one command runs but `BENCHMARK.json` does not list,
/// with why each exists and why it is not gated.
const UNGATED_WORKLOADS: [(&str, &str); 1] = [(
    "protocol-sim",
    "Library loop, no server: PayDual and MetricBall on lock-step engine and discrete-event simulator; the only workload reaching sim and synchronizer. Not gated: its cost ratio varies with the seed's instances by nearly the whole bound.",
)];

/// Every end-to-end metric a run prints, in order, with its definition.
const DEFINITIONS: [(&str, &str); 8] = [
    (
        "setup_s",
        "set-up time as process CPU time: from workload start until the first timed op can be issued (server start, connections, session uploads, one warm-up pass; protocol-sim: pool start and one warm-up run per instance and executor), median over set-up repetitions, scaled to the reference host by the calibration kernel's CPU time; the wall time is in the detail line",
    ),
    ("throughput_ops", "completed ops per second in the closed-loop phase"),
    (
        "latency_p50_us",
        "median op latency in the open-loop phase, from the scheduled send (protocol-sim: wall time per op)",
    ),
    ("latency_p99_us", "99th percentile of the same samples"),
    (
        "cpu_us_per_op",
        "server CPU time per completed op over the closed-loop phase (process utime + stime less the load generator thread's; protocol-sim: the whole process), scaled to the reference host by the calibration kernel's CPU time",
    ),
    (
        "ok_frac",
        "1 - failed_frac: ops answered ok by the deadline over ops attempted in both phases",
    ),
    (
        "cost_ratio",
        "mean reported cost over the instance's certified lower bound, over ok solve results",
    ),
    ("rss_peak_mb", "VmHWM of the workload's process"),
];

/// Unit and direction of the end-to-end metrics `BENCHMARK.json` does
/// not list: printed with their sample counts, but their run-to-run
/// spread on a shared machine is wider than the largest bound allowed.
const UNGATED_METRICS: [(&str, &str, &str); 3] = [
    ("throughput_ops", "ops/s", "higher"),
    ("latency_p50_us", "us", "lower"),
    ("latency_p99_us", "us", "lower"),
];

const REACTOR: &str = "serve::reactor + conn";
const REACTOR_MOVES: &str = "throughput_ops and cpu_us_per_op on small-requests";
const PROTO: &str = "serve::json, serve::proto";
const PROTO_MOVES: &str = "latency_p50_us on solver-mix; throughput_ops on small-requests";
const QUEUE: &str = "serve::queue";
const QUEUE_MOVES: &str = "latency_p99_us on small-requests; ok_frac";
const CORE: &str = "distfl-core dispatch";
const CORE_MOVES: &str = "throughput_ops, latency_p50_us and cost_ratio on solver-mix";
const WARM: &str = "distfl-core::warm";
const WARM_MOVES: &str = "latency_p50_us and throughput_ops on session-churn";
const ENGINE: &str = "distfl-congest engine";
const ENGINE_MOVES: &str = "latency_p50_us on protocol-sim; latency_p99_us on solver-mix";
const SIM: &str = "distfl-congest::sim + synchronizer";
const SIM_MOVES: &str = "throughput_ops and latency_p50_us on protocol-sim; traced on solver-mix by replaying its PayDual and MetricBall requests through run_simulated";
const POOL: &str = "distfl-pool";
const POOL_MOVES: &str = "throughput_ops on solver-mix and protocol-sim";

/// Each per-layer metric's layer and the end-to-end metric and workload
/// it should move.
const LAYERS: [(&str, &str, &str); 44] = [
    ("reactor.wakeups_per_op", REACTOR, REACTOR_MOVES),
    ("reactor.pipelined_frac", REACTOR, REACTOR_MOVES),
    ("reactor.read_bytes_per_op", REACTOR, REACTOR_MOVES),
    ("reactor.write_bytes_per_op", REACTOR, REACTOR_MOVES),
    ("frame.feed_ns_per_op", "serve::frame", "throughput_ops on small-requests"),
    ("json.parse_us", PROTO, PROTO_MOVES),
    ("json.parse_mb_s", PROTO, PROTO_MOVES),
    ("proto.parse_line_us", PROTO, PROTO_MOVES),
    ("proto.build_us", PROTO, PROTO_MOVES),
    ("proto.render_us", PROTO, PROTO_MOVES),
    ("queue.push_ns", QUEUE, QUEUE_MOVES),
    ("queue.pop_ns", QUEUE, QUEUE_MOVES),
    ("queue.mean_batch", QUEUE, QUEUE_MOVES),
    ("queue.full_frac", QUEUE, QUEUE_MOVES),
    ("scheduler.execute_us_p50", "serve::scheduler", "latency on solver-mix and session-churn"),
    ("scheduler.execute_us_p99", "serve::scheduler", "latency on solver-mix and session-churn"),
    ("session.create_us", "serve::session", "setup_s and rss_peak_mb on session-churn"),
    ("instance.orlib_parse_us", "distfl-instance", "latency_p50_us on solver-mix"),
    ("instance.classify_us", "distfl-instance", "latency_p99_us on solver-mix"),
    ("instance.apply_delta_us", "distfl-instance", "latency_p50_us on session-churn"),
    ("core.solve_us.greedy", CORE, CORE_MOVES),
    ("core.solve_us.local-search", CORE, CORE_MOVES),
    ("core.solve_us.jv", CORE, CORE_MOVES),
    ("core.solve_us.paydual", CORE, CORE_MOVES),
    ("core.solve_us.metricball", CORE, CORE_MOVES),
    ("core.solve_us.outliers", CORE, CORE_MOVES),
    ("core.auto_metric_frac", CORE, CORE_MOVES),
    ("warm.apply_delta_us", WARM, WARM_MOVES),
    ("warm.solve_us.greedy", WARM, WARM_MOVES),
    ("warm.solve_us.local-search", WARM, WARM_MOVES),
    ("warm.solve_us.jv", WARM, WARM_MOVES),
    ("warm.patch_frac", WARM, WARM_MOVES),
    ("congest.engine_run_us", ENGINE, ENGINE_MOVES),
    ("congest.rounds_per_op", ENGINE, ENGINE_MOVES),
    ("congest.messages_per_op", ENGINE, ENGINE_MOVES),
    ("congest.bits_per_op", ENGINE, ENGINE_MOVES),
    ("congest.sim_run_us", SIM, SIM_MOVES),
    ("congest.sim_ns_per_event", SIM, SIM_MOVES),
    ("congest.events_per_op", SIM, SIM_MOVES),
    ("congest.pulse_frac", SIM, SIM_MOVES),
    ("pool.tasks_per_op", POOL, POOL_MOVES),
    ("pool.stolen_frac", POOL, POOL_MOVES),
    ("obs.trace_overhead_frac", "distfl-obs", "none: a guard that enabling tracing stays cheap"),
    ("serve.unattributed_us_p50", "derived", "latency_p99_us on small-requests and solver-mix"),
];

fn text(value: &Json, key: &str) -> String {
    value
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("BENCHMARK.json: no {key}"))
        .to_owned()
}

fn entries<'a>(json: &'a Json, key: &str) -> &'a [Json] {
    json.get(key).and_then(Json::as_array).unwrap_or_else(|| panic!("BENCHMARK.json: no {key}"))
}

fn load() -> Spec {
    let json = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is JSON");
    let mut workloads: Vec<Workload> = entries(&json, "workloads")
        .iter()
        .map(|w| Workload { name: text(w, "name"), why: text(w, "why"), gated: true })
        .collect();
    for (name, why) in UNGATED_WORKLOADS {
        workloads.push(Workload { name: name.to_owned(), why: why.to_owned(), gated: false });
    }
    let gated = entries(&json, "end_to_end");
    for m in gated {
        let name = text(m, "name");
        assert!(
            DEFINITIONS.iter().any(|(n, _)| *n == name),
            "BENCHMARK.json gates {name}, which the benchmark does not measure"
        );
    }
    let end_to_end = DEFINITIONS
        .iter()
        .map(|&(name, definition)| {
            if let Some(m) = gated.iter().find(|m| text(m, "name") == name) {
                let bound =
                    m.get("bound").and_then(Json::as_f64).expect("gated metrics have a bound");
                EndToEnd {
                    name,
                    unit: text(m, "unit"),
                    better: text(m, "better"),
                    bound: Some(bound),
                    definition,
                }
            } else {
                let &(_, unit, better) = UNGATED_METRICS
                    .iter()
                    .find(|u| u.0 == name)
                    .unwrap_or_else(|| panic!("{name} is neither gated nor listed as ungated"));
                EndToEnd {
                    name,
                    unit: unit.to_owned(),
                    better: better.to_owned(),
                    bound: None,
                    definition,
                }
            }
        })
        .collect();
    let per_layer: Vec<PerLayer> = entries(&json, "per_layer")
        .iter()
        .map(|m| {
            let name = text(m, "name");
            let &(_, layer, moves) = LAYERS
                .iter()
                .find(|l| l.0 == name)
                .unwrap_or_else(|| panic!("BENCHMARK.json lists {name}, which no layer measures"));
            PerLayer { unit: text(m, "unit"), better: text(m, "better"), name, layer, moves }
        })
        .collect();
    for (name, _, _) in LAYERS {
        assert!(
            per_layer.iter().any(|m| m.name == name),
            "per-layer metric {name} is missing from BENCHMARK.json"
        );
    }
    Spec { workloads, end_to_end, per_layer }
}

/// The benchmark's definition, read once from `BENCHMARK.json` and the
/// tables above.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(load)
}

pub fn per_layer(name: &str) -> &'static PerLayer {
    spec()
        .per_layer
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("unknown metric {name}"))
}

/// Whether the result object carries metric `name`: every per-layer
/// metric, and the end-to-end metrics `BENCHMARK.json` gates.
pub fn in_result(name: &str) -> bool {
    !spec().end_to_end.iter().any(|m| m.name == name && m.bound.is_none())
}

/// Everything `--describe` prints: the workloads with their settings,
/// the metrics with their definitions, and the layer predictions.
pub fn describe(seed: u64, settings: &[(&str, String)]) -> String {
    let spec = spec();
    let mut out = String::new();
    let _ = write!(out, "{{\"default_seed\":{seed},\"workloads\":[");
    for (k, w) in spec.workloads.iter().enumerate() {
        let settings = settings.iter().find(|(n, _)| *n == w.name).map_or("{}", |(_, s)| s);
        let sep = if k > 0 { "," } else { "" };
        let _ = write!(
            out,
            "{sep}{{\"name\":{},\"why\":{},\"gated\":{},\"settings\":{settings}}}",
            json_str(&w.name),
            json_str(&w.why),
            w.gated
        );
    }
    out.push_str("],\"end_to_end\":[");
    for (k, m) in spec.end_to_end.iter().enumerate() {
        let sep = if k > 0 { "," } else { "" };
        let _ = write!(
            out,
            "{sep}{{\"name\":{},\"unit\":{},\"better\":{},\"bound\":{},\"definition\":{}}}",
            json_str(m.name),
            json_str(&m.unit),
            json_str(&m.better),
            m.bound.map_or("null".to_owned(), |b| b.to_string()),
            json_str(m.definition)
        );
    }
    out.push_str("],\"per_layer\":[");
    for (k, m) in spec.per_layer.iter().enumerate() {
        let sep = if k > 0 { "," } else { "" };
        let _ = write!(
            out,
            "{sep}{{\"name\":{},\"unit\":{},\"better\":{},\"layer\":{},\"should_move\":{}}}",
            json_str(&m.name),
            json_str(&m.unit),
            json_str(&m.better),
            json_str(m.layer),
            json_str(m.moves)
        );
    }
    out.push_str("]}");
    out
}
