//! The traced run of a serve workload. It is separate from the
//! end-to-end run and has two parts:
//!
//! 1. **Live**: the closed-loop phase once untraced and, with
//!    `distfl_obs` enabled, an open-loop and a closed-loop phase, reading
//!    the counters the server already keeps.
//! 2. **Replay**: on this thread, the same request stream fed through
//!    each layer's public function, with a span around every call.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use distfl_core::SolverKind;
use distfl_instance::classify;
use distfl_serve::frame::{Framed, LineFramer};
use distfl_serve::json::Json;
use distfl_serve::proto::{self, Action, InstanceSource, Request};
use distfl_serve::queue::Admission;
use distfl_serve::scheduler;
use distfl_serve::session::{SessionCache, SessionState};

use distfl_congest::{SimReport, Transcript};

use crate::feed::Feed;
use crate::load::Phase;
use crate::report::Report;
use crate::serve::{self, ServeWorkload, SessionCursor};
use crate::spans::Spans;
use crate::stats;

/// Per-layer values by metric name: (value, samples).
pub type Layers = BTreeMap<&'static str, (f64, usize)>;

/// Prints every per-layer metric, 0 with no samples where the workload
/// never reaches the layer.
pub fn emit(report: &mut Report, layers: &Layers) {
    for m in &crate::spec::spec().per_layer {
        let (value, samples) = layers.get(m.name.as_str()).copied().unwrap_or((0.0, 0));
        report.metric(&m.name, value, &m.unit, samples);
    }
}

pub fn put(layers: &mut Layers, name: &'static str, value: f64, samples: usize) {
    crate::spec::per_layer(name);
    layers.insert(name, (value, samples));
}

/// Mean duration in µs of the spans named `span`, stored as `metric`.
fn put_mean_us(layers: &mut Layers, spans: &Spans, span: &str, metric: &'static str) {
    let d = spans.durations(span);
    if !d.is_empty() {
        put(layers, metric, stats::mean(&d) / 1e3, d.len());
    }
}

const COUNTERS: [&str; 8] = [
    "serve.reactor_wakeups",
    "serve.pipelined_requests",
    "serve.bytes_read",
    "serve.bytes_written",
    "serve.requests",
    "serve.batches",
    "pool.tasks",
    "pool.stolen",
];

fn counter(name: &'static str) -> f64 {
    distfl_obs::counter(name).get() as f64
}

pub fn run(wl: &ServeWorkload, seed: u64, seconds: f64) -> Report {
    let inputs = serve::generate(wl, seed);
    let mut report = Report::new(wl.name, seed);
    let (mut live, setup_bad) = serve::set_up(&inputs);
    if setup_bad > 0 {
        report.mismatch(format!("{setup_bad} set-up requests were not answered ok"));
    }
    // Untraced and traced closed-loop slices alternate, so a change in
    // the machine's load between them does not read as tracing overhead.
    let slice = Duration::from_secs_f64(seconds * 0.1);
    distfl_obs::metrics_reset();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        assert!(!distfl_obs::enabled(), "the untraced slices run with tracing off");
        untraced.push(live.client.closed_loop(&mut live.feed, wl.window, slice, 1, false));
        distfl_obs::set_enabled(true);
        traced.push(live.client.closed_loop(&mut live.feed, wl.window, slice, 1, false));
        distfl_obs::set_enabled(false);
    }
    distfl_obs::set_enabled(true);
    let open =
        live.client.open_loop(&mut live.feed, wl.rate, Duration::from_secs_f64(seconds * 0.2), 1);
    distfl_obs::set_enabled(false);
    let counters: BTreeMap<&str, f64> = COUNTERS.iter().map(|&c| (c, counter(c))).collect();
    let auto: Vec<(SolverKind, f64)> = SolverKind::ALL
        .iter()
        .filter(|k| **k != SolverKind::Auto)
        .map(|&k| (k, counter(auto_counter(k))))
        .collect();
    let feed = live.shut_down(&mut report);

    let mut layers = Layers::new();
    let all: Vec<&Phase> = untraced.iter().chain(&traced).chain([&open]).collect();
    report.attempted = all.iter().map(|p| p.sent).sum();
    report.failed = all.iter().map(|p| p.failed()).sum();
    let traced_ops: usize = traced.iter().map(Phase::answered).sum();
    let answered = (open.answered() + traced_ops).max(1) as f64;
    let samples = answered as usize;
    put(
        &mut layers,
        "reactor.wakeups_per_op",
        counters["serve.reactor_wakeups"] / answered,
        samples,
    );
    put(
        &mut layers,
        "reactor.pipelined_frac",
        counters["serve.pipelined_requests"] / counters["serve.requests"].max(1.0),
        samples,
    );
    put(&mut layers, "reactor.read_bytes_per_op", counters["serve.bytes_read"] / answered, samples);
    put(
        &mut layers,
        "reactor.write_bytes_per_op",
        counters["serve.bytes_written"] / answered,
        samples,
    );
    put(
        &mut layers,
        "queue.mean_batch",
        counters["serve.requests"] / counters["serve.batches"].max(1.0),
        counters["serve.batches"] as usize,
    );
    let sent = (open.sent + traced.iter().map(|p| p.sent).sum::<usize>()).max(1);
    let full = open.queue_full + traced.iter().map(|p| p.queue_full).sum::<usize>();
    put(&mut layers, "queue.full_frac", full as f64 / sent as f64, sent);
    let routed: f64 = auto.iter().map(|(_, n)| n).sum();
    if routed > 0.0 {
        let metric: f64 =
            auto.iter().filter(|(k, _)| *k == SolverKind::MetricBall).map(|(_, n)| n).sum();
        put(&mut layers, "core.auto_metric_frac", metric / routed, routed as usize);
    }
    put(&mut layers, "pool.tasks_per_op", counters["pool.tasks"] / answered, samples);
    if counters["pool.tasks"] > 0.0 {
        put(
            &mut layers,
            "pool.stolen_frac",
            counters["pool.stolen"] / counters["pool.tasks"],
            counters["pool.tasks"] as usize,
        );
    }
    let rates = |phases: &[Phase]| {
        let mut r: Vec<f64> = phases.iter().map(Phase::throughput).collect();
        stats::median(&mut r)
    };
    let (plain, with_tracing) = (rates(&untraced), rates(&traced));
    put(
        &mut layers,
        "obs.trace_overhead_frac",
        1.0 - with_tracing / plain.max(f64::MIN_POSITIVE),
        untraced.len() + traced.len(),
    );

    let budget = Duration::from_secs_f64(seconds * 0.3);
    let (spans, totals) = replay(wl, &feed, budget, &mut report, &mut layers);
    spans_metrics(&spans, &mut layers);
    let mut open_lat = open.latency_us.clone();
    let mut sums = totals;
    if !sums.is_empty() {
        put(
            &mut layers,
            "serve.unattributed_us_p50",
            stats::median(&mut open_lat) - stats::median(&mut sums),
            sums.len(),
        );
    }
    let path = std::path::PathBuf::from(format!(".bench_out/spans-{}.jsonl", wl.name));
    if let Err(e) = spans.write(&path) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    report.detail("generator", serve::generator_json(&open, wl.rate));
    report.detail("spans", spans.list.len().to_string());
    emit(&mut report, &layers);
    report
}

fn auto_counter(kind: SolverKind) -> &'static str {
    match kind {
        SolverKind::Greedy => "serve.auto.greedy",
        SolverKind::LocalSearch => "serve.auto.local-search",
        SolverKind::JainVazirani => "serve.auto.jv",
        SolverKind::PayDual => "serve.auto.paydual",
        SolverKind::MetricBall => "serve.auto.metricball",
        SolverKind::MetricOutliers => "serve.auto.outliers",
        SolverKind::Auto => unreachable!("auto is never a route"),
    }
}

fn solve_span(kind: SolverKind) -> &'static str {
    match kind {
        SolverKind::Greedy => "core.solve.greedy",
        SolverKind::LocalSearch => "core.solve.local-search",
        SolverKind::JainVazirani => "core.solve.jv",
        SolverKind::PayDual => "core.solve.paydual",
        SolverKind::MetricBall => "core.solve.metricball",
        SolverKind::MetricOutliers => "core.solve.outliers",
        SolverKind::Auto => unreachable!("auto is resolved before solving"),
    }
}

fn warm_span(kind: SolverKind) -> &'static str {
    match kind {
        SolverKind::Greedy => "warm.solve.greedy",
        SolverKind::LocalSearch => "warm.solve.local-search",
        SolverKind::JainVazirani => "warm.solve.jv",
        _ => "warm.solve.other",
    }
}

/// Protocol counts a traced run accumulates: rounds, messages and bits
/// from lock-step transcripts, events and envelopes from simulated runs.
#[derive(Default)]
pub struct Tally {
    rounds: f64,
    messages: f64,
    bits: f64,
    sim_runs: usize,
    events: f64,
    pulses: f64,
    envelopes: f64,
}

impl Tally {
    pub fn add_transcript(&mut self, t: &Transcript) {
        self.rounds += f64::from(t.num_rounds());
        self.messages += t.total_messages() as f64;
        self.bits += t.total_bits() as f64;
    }

    pub fn add_sim(&mut self, report: &SimReport) {
        self.sim_runs += 1;
        self.events += report.events_processed as f64;
        self.pulses += report.pulse_envelopes as f64;
        self.envelopes += (report.pulse_envelopes + report.protocol_envelopes) as f64;
    }

    /// The engine's counts per op over `ops` ops, and the simulator's
    /// metrics from its `congest.sim.run` spans.
    pub fn put(&self, layers: &mut Layers, spans: &Spans, ops: usize) {
        let per_op = |total: f64| total / ops.max(1) as f64;
        put(layers, "congest.rounds_per_op", per_op(self.rounds), ops);
        put(layers, "congest.messages_per_op", per_op(self.messages), ops);
        put(layers, "congest.bits_per_op", per_op(self.bits), ops);
        let sim = spans.durations("congest.sim.run");
        if sim.is_empty() {
            return;
        }
        put(layers, "congest.sim_run_us", stats::mean(&sim) / 1e3, sim.len());
        put(
            layers,
            "congest.sim_ns_per_event",
            sim.iter().sum::<f64>() / self.events.max(1.0),
            sim.len(),
        );
        let runs = self.sim_runs;
        put(layers, "congest.events_per_op", self.events / runs.max(1) as f64, runs);
        put(layers, "congest.pulse_frac", self.pulses / self.envelopes.max(1.0), runs);
    }
}

/// One request of the replayed stream.
struct Item<'a> {
    line: String,
    /// The server's response, for session ops (stateless responses are
    /// checked per template instead).
    response: Option<&'a [u8]>,
    session: Option<(usize, u64)>,
}

/// What the replay counts beside its spans.
#[derive(Default)]
struct Replayed {
    json_bytes: f64,
    requests: usize,
    protocol: Tally,
    /// Requests whose protocol was also replayed on the simulator.
    simulated: std::collections::BTreeSet<u64>,
    problems: Vec<String>,
}

/// Replays the workload's request stream layer by layer until `budget`
/// runs out, checking every rendered line; then finishes the output
/// check without spans. Returns the spans and each request's total
/// replayed self time in µs.
fn replay(
    wl: &ServeWorkload,
    feed: &Feed,
    budget: Duration,
    report: &mut Report,
    layers: &mut Layers,
) -> (Spans, Vec<f64>) {
    let config = serve::config();
    let mut spans = Spans::new();
    let mut counts = Replayed::default();
    let mut totals = Vec::new();
    let cache_a = SessionCache::new(config.session_capacity);
    let cache_b = SessionCache::new(config.session_capacity);
    let queue: Admission<Request> = Admission::new(config.queue_capacity);
    let mut framer = LineFramer::new(16 * 1024 * 1024);
    let start = Instant::now();

    let (references, responses, mut cursors) = match feed {
        Feed::Stateless(f) => {
            let references = serve::references(&f.templates);
            serve::check_stateless(&f.templates, &references, &[f], report);
            (references, Vec::new(), Vec::new())
        }
        Feed::Sessions(f) => {
            let cursors: Vec<SessionCursor> =
                f.sessions.iter().map(|s| SessionCursor::new(s, &f.next_op)).collect();
            (Vec::new(), f.by_session(), cursors)
        }
    };
    let mut quality = serve::Quality::default();
    let mut problems = Vec::new();

    let mut position = 0usize;
    'bursts: while start.elapsed() < budget {
        let items: Vec<Item> = match feed {
            Feed::Stateless(f) => (0..wl.window)
                .map(|k| {
                    let t = (position + k) % f.templates.len();
                    Item { line: f.templates[t].line.clone(), response: None, session: None }
                })
                .collect(),
            Feed::Sessions(f) => {
                let end = (position + wl.window).min(f.log.len());
                if position >= end {
                    break 'bursts;
                }
                f.log[position..end]
                    .iter()
                    .map(|&(s, op)| Item {
                        line: f.sessions[s].op_line(op),
                        response: responses[s][op as usize],
                        session: Some((s, op)),
                    })
                    .collect()
            }
        };
        position += wl.window;
        if items.is_empty() {
            continue;
        }
        let first = proto::span_id(items[0].line.as_bytes());
        let mut burst = Vec::with_capacity(items.iter().map(|i| i.line.len() + 1).sum());
        for item in &items {
            burst.extend_from_slice(item.line.as_bytes());
            burst.push(b'\n');
        }
        let mut framed = 0usize;
        let feed_ns = timed(&mut spans, "frame.feed", first, None, || {
            framer.feed(&burst, &mut |f| {
                if let Framed::Line(_) = f {
                    framed += 1;
                }
            })
        });
        assert_eq!(framed, items.len(), "the framer yields every line of the burst");
        drop(burst);

        let mut parsed = Vec::with_capacity(items.len());
        let mut per_request: Vec<f64> = Vec::with_capacity(items.len());
        for item in &items {
            let id = proto::span_id(item.line.as_bytes());
            let json_index = spans.open("json.parse", id, None);
            let json = Json::parse(&item.line);
            spans.close(json_index);
            std::hint::black_box(json.expect("generated lines are JSON"));
            counts.json_bytes += item.line.len() as f64;
            let parse_index = spans.open("proto.parse_line", id, None);
            let request = proto::parse_line(&item.line);
            spans.close(parse_index);
            spans.list[json_index].parent = Some(parse_index);
            per_request.push(spans.list[parse_index].dur_ns() as f64);
            match request.expect("generated lines parse") {
                proto::Parsed::Request(request) => parsed.push(*request),
                proto::Parsed::Command(_) => panic!("generated line is a control command"),
            }
        }
        let n = parsed.len();
        let push_ns = timed(&mut spans, "queue.push", first, None, || queue.push_group(parsed));
        let mut popped = Vec::with_capacity(n);
        let mut pop_ns = 0.0;
        while queue.depth() > 0 {
            let index = spans.open("queue.pop", first, None);
            let batch = queue.pop_batch(config.max_batch);
            spans.close(index);
            pop_ns += spans.list[index].dur_ns() as f64;
            popped.extend(batch);
        }
        let shared = (feed_ns + push_ns + pop_ns) / n as f64;

        for ((request, item), parse_ns) in popped.iter().zip(&items).zip(per_request) {
            if let Some((s, _)) = item.session.filter(|_| serve::refused(item.response)) {
                // Refused at admission, so never executed by the server.
                cursors[s].next += 1;
                continue;
            }
            let id = request.span_id;
            let exec = spans.open("scheduler.execute", id, None);
            let rendered = scheduler::execute(request, &cache_a);
            spans.close(exec);
            totals.push((parse_ns + spans.list[exec].dur_ns() as f64 + shared) / 1e3);
            counts.requests += 1;
            match item.session {
                None => {
                    let t: usize = request.id[1..].parse().expect("template ids are t<index>");
                    if rendered != references[t] {
                        report.mismatch(format!("replayed t{t} renders {rendered}"));
                    }
                }
                Some((s, op)) => {
                    let cursor = &mut cursors[s];
                    assert_eq!(cursor.next, op, "session ops replay in order");
                    cursor.next += 1;
                    cursor.after(
                        op,
                        item.response,
                        &rendered,
                        &cache_a,
                        &mut quality,
                        &mut problems,
                    );
                }
            }
            components(request, exec, &mut spans, &cache_b, &mut counts);
        }
    }

    if !cursors.is_empty() {
        quality.merge(serve::finish_sessions(&mut cursors, &responses, &cache_a, report));
        let (mut patches, mut rebuilds) = (0u64, 0u64);
        for s in 0..cursors.len() {
            if let Some(handle) = cache_b.get(&format!("s{s}")) {
                let state = handle.lock().expect("session lock");
                patches += state.warm.patches();
                rebuilds += state.warm.rebuilds();
            }
        }
        if patches + rebuilds > 0 {
            put(
                layers,
                "warm.patch_frac",
                patches as f64 / (patches + rebuilds) as f64,
                (patches + rebuilds) as usize,
            );
        }
    }
    for p in problems.into_iter().chain(std::mem::take(&mut counts.problems)) {
        report.mismatch(p);
    }
    counts.protocol.put(layers, &spans, counts.requests);
    let json_ns: f64 = spans.durations("json.parse").iter().sum();
    if json_ns > 0.0 {
        put(layers, "json.parse_mb_s", counts.json_bytes / json_ns * 1e3, counts.requests);
    }
    (spans, totals)
}

/// Times `f` in a span and returns the span's duration in ns.
fn timed<T>(
    spans: &mut Spans,
    name: &'static str,
    request: u64,
    parent: Option<usize>,
    f: impl FnOnce() -> T,
) -> f64 {
    let index = spans.open(name, request, parent);
    std::hint::black_box(f());
    spans.close(index);
    spans.list[index].dur_ns() as f64
}

/// The layer calls inside `execute`, made separately on the same inputs
/// (session state on the replica cache `cache_b`), each in a span under
/// the request's `scheduler.execute` span.
fn components(
    request: &Request,
    parent: usize,
    spans: &mut Spans,
    cache_b: &SessionCache,
    counts: &mut Replayed,
) {
    let id = request.span_id;
    match &request.action {
        Action::Solve { solver, seed, source } => {
            let instance = match source {
                InstanceSource::Inline(instance) => instance.clone(),
                InstanceSource::OrLib(text) => spans
                    .time("instance.orlib_parse", id, Some(parent), || {
                        distfl_instance::orlib::from_str(text)
                    })
                    .expect("generated OR-Library text parses"),
            };
            let resolved = if *solver == SolverKind::Auto {
                spans.time("instance.classify", id, Some(parent), || classify::classify(&instance));
                solver.resolve(&instance)
            } else {
                *solver
            };
            let routed = (*solver != resolved).then_some(resolved);
            let outcome = spans
                .time(solve_span(resolved), id, Some(parent), || resolved.solve(&instance, *seed))
                .expect("generated solves succeed");
            if let Some(t) = &outcome.transcript {
                counts.protocol.add_transcript(t);
            }
            // The first time a PayDual or MetricBall request comes by, its
            // protocol also runs on the discrete-event simulator, which must
            // reproduce the lock-step transcript and solution.
            if matches!(resolved, SolverKind::PayDual | SolverKind::MetricBall)
                && counts.simulated.insert(id)
            {
                let metric = resolved == SolverKind::MetricBall;
                let run = spans
                    .time("congest.sim.run", id, None, || {
                        crate::protocol::simulate(&instance, *seed, metric)
                    })
                    .expect("generated simulated runs succeed");
                if run.outcome.transcript != outcome.transcript
                    || run.outcome.solution != outcome.solution
                {
                    counts.problems.push(format!(
                        "request {}: simulated {} differs from lock-step",
                        request.id,
                        resolved.name()
                    ));
                }
                counts.protocol.add_sim(&run.report);
            }
            render(request, *solver, *seed, routed, &instance, &outcome, parent, spans);
        }
        Action::Create { session, .. } => {
            let instance = serve::request_instance(request);
            spans.time("session.create", id, Some(parent), || cache_b.create(session, instance));
        }
        Action::Mutate { session, delta } => {
            let batch = serve::delta_batch(delta);
            let handle = cache_b.get(session).expect("replica session is held");
            let mut state = handle.lock().expect("session lock");
            let SessionState { instance, warm, epoch } = &mut *state;
            let delta_report = spans
                .time("instance.apply_delta", id, Some(parent), || instance.apply_delta(&batch))
                .expect("generated deltas apply");
            spans.time("warm.apply_delta", id, Some(parent), || {
                warm.apply_delta(instance, &delta_report)
            });
            *epoch += 1;
        }
        Action::SessionSolve { session, solver, seed } => {
            let handle = cache_b.get(session).expect("replica session is held");
            let mut state = handle.lock().expect("session lock");
            let SessionState { instance, warm, .. } = &mut *state;
            let outcome = spans
                .time(warm_span(*solver), id, Some(parent), || {
                    solver.solve_warm(instance, *seed, warm)
                })
                .expect("generated warm solves succeed");
            render(request, *solver, *seed, None, instance, &outcome, parent, spans);
        }
        Action::Drop { .. } => {}
    }
}

#[allow(clippy::too_many_arguments)]
fn render(
    request: &Request,
    solver: SolverKind,
    seed: u64,
    routed: Option<SolverKind>,
    instance: &distfl_instance::Instance,
    outcome: &distfl_core::Outcome,
    parent: usize,
    spans: &mut Spans,
) {
    let cost = outcome.solution.cost(instance).value();
    let open: Vec<usize> = outcome.solution.open_facilities().map(|i| i.index()).collect();
    let rounds = outcome.transcript.as_ref().map(|t| t.num_rounds()).or(outcome.modeled_rounds);
    spans.time("proto.render", request.span_id, Some(parent), || {
        proto::render_success(request, solver, seed, routed, cost, &open, rounds)
    });
}

/// Per-layer metrics derived from the replay's spans.
fn spans_metrics(spans: &Spans, layers: &mut Layers) {
    put_mean_us(layers, spans, "json.parse", "json.parse_us");
    put_mean_us(layers, spans, "proto.parse_line", "proto.parse_line_us");
    put_mean_us(layers, spans, "proto.render", "proto.render_us");
    put_mean_us(layers, spans, "session.create", "session.create_us");
    put_mean_us(layers, spans, "instance.orlib_parse", "instance.orlib_parse_us");
    put_mean_us(layers, spans, "instance.classify", "instance.classify_us");
    put_mean_us(layers, spans, "instance.apply_delta", "instance.apply_delta_us");
    put_mean_us(layers, spans, "warm.apply_delta", "warm.apply_delta_us");
    for (span, metric) in [
        ("core.solve.greedy", "core.solve_us.greedy"),
        ("core.solve.local-search", "core.solve_us.local-search"),
        ("core.solve.jv", "core.solve_us.jv"),
        ("core.solve.paydual", "core.solve_us.paydual"),
        ("core.solve.metricball", "core.solve_us.metricball"),
        ("core.solve.outliers", "core.solve_us.outliers"),
        ("warm.solve.greedy", "warm.solve_us.greedy"),
        ("warm.solve.local-search", "warm.solve_us.local-search"),
        ("warm.solve.jv", "warm.solve_us.jv"),
    ] {
        put_mean_us(layers, spans, span, metric);
    }
    let own = spans.self_ns();
    let build: Vec<f64> = spans
        .list
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == "proto.parse_line")
        .map(|(_, &ns)| ns / 1e3)
        .collect();
    if !build.is_empty() {
        put(layers, "proto.build_us", stats::mean(&build), build.len());
    }
    let feed: f64 = spans.durations("frame.feed").iter().sum();
    let lines = spans.durations("proto.parse_line").len();
    if lines > 0 {
        put(layers, "frame.feed_ns_per_op", feed / lines as f64, lines);
        let push: f64 = spans.durations("queue.push").iter().sum();
        let pop: f64 = spans.durations("queue.pop").iter().sum();
        put(layers, "queue.push_ns", push / lines as f64, lines);
        put(layers, "queue.pop_ns", pop / lines as f64, lines);
    }
    let mut exec: Vec<f64> =
        spans.durations("scheduler.execute").iter().map(|ns| ns / 1e3).collect();
    if !exec.is_empty() {
        put(layers, "scheduler.execute_us_p50", stats::quantile(&mut exec, 0.5), exec.len());
        put(layers, "scheduler.execute_us_p99", stats::quantile(&mut exec, 0.99), exec.len());
    }
    let engine: Vec<f64> = ["core.solve.paydual", "core.solve.metricball", "core.solve.outliers"]
        .iter()
        .flat_map(|name| spans.durations(name))
        .map(|ns| ns / 1e3)
        .collect();
    if !engine.is_empty() {
        put(layers, "congest.engine_run_us", stats::mean(&engine), engine.len());
    }
}
