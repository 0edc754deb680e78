//! The three serve workloads: an in-process `distfl_serve::Server` with
//! one fixed `ServeConfig`, driven by one generator thread over two
//! pipelined connections, first in an open loop at a fixed rate, then in
//! a closed loop at a fixed window.

use std::time::{Duration, Instant};

use distfl_core::{jv, SolverKind};
use distfl_instance::{ClientId, Cost, DeltaBatch, FacilityId, Instance};
use distfl_lp::bounds::{self, BoundSource};
use distfl_lp::DualSolution;
use distfl_serve::proto::{self, Action, InstanceSource, Parsed, Request};
use distfl_serve::reactor::ReactorKind;
use distfl_serve::scheduler;
use distfl_serve::session::SessionCache;
use distfl_serve::{ServeConfig, Server};

use crate::calib;
use crate::feed::{Feed, SessionFeed, StatelessFeed};
use crate::gen::{self, Session, Template};
use crate::load::{calmest_half, classify, Answer, Client, Phase, Slice};
use crate::report::Report;
use crate::stats;
use crate::sys;

/// One serve workload's fixed settings.
pub struct ServeWorkload {
    pub name: &'static str,
    /// Open-loop rate, requests per second over all connections.
    pub rate: f64,
    /// Closed-loop requests in flight per connection.
    pub window: usize,
    pub inputs: Inputs,
}

#[derive(Debug, Clone, Copy)]
pub enum Inputs {
    /// `templates` distinct tiny instances.
    Small { templates: usize },
    /// `instances` distinct 20×200 instances, each under every kind.
    Mix { instances: usize },
    /// `sessions` pinned sessions on `facilities`×`clients` instances.
    Churn { sessions: usize, facilities: usize, clients: usize },
}

pub const CONNECTIONS: usize = 2;
/// Set-up runs per workload run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;
/// Instances with at most this many facilities get the exact optimum as
/// their lower bound.
pub const EXACT_LIMIT: usize = 12;
/// `session-churn` re-derives its Jain–Vazirani dual every this many
/// stream steps and carries it through the deltas in between.
pub const DUAL_REFRESH: u64 = 16;

/// The one server configuration every serve workload runs.
pub fn config() -> ServeConfig {
    ServeConfig {
        queue_capacity: 1024,
        max_batch: 16,
        workers: Some(1),
        shards: 1,
        write_buffer_cap: 1 << 20,
        reactor: ReactorKind::Auto,
        sock_send_buffer: None,
        batch_hook: None,
        session_capacity: 64,
    }
}

pub fn settings_json(wl: &ServeWorkload) -> String {
    let c = config();
    let inputs = match wl.inputs {
        Inputs::Small { templates } => format!(
            "{{\"templates\":{templates},\"sizes\":\"2x2 to 8x40\",\"families\":[\"uniform\",\"euclidean\"],\"kinds\":[\"greedy\",\"local-search\",\"jv\"],\"payloads\":\"inline up to 64 links, OR-Library above\"}}"
        ),
        Inputs::Mix { instances } => format!(
            "{{\"instances\":{instances},\"size\":\"20x200\",\"families\":[\"euclidean\",\"uniform\",\"clustered\",\"powerlaw\"],\"kinds\":\"all seven including auto\",\"payloads\":\"inline and OR-Library, alternating per instance visit\"}}"
        ),
        Inputs::Churn { sessions, facilities, clients } => format!(
            "{{\"sessions\":{sessions},\"size\":\"{facilities}x{clients}\",\"families\":[\"uniform\",\"euclidean\"],\"step\":\"mutate (remove 1 client, reprice 1% of links, add 1 client) then warm solve\",\"kinds\":[\"greedy\",\"local-search\",\"jv\"]}}"
        ),
    };
    format!(
        "{{\"open_loop_rate_per_s\":{},\"open_loop_share\":{OPEN_SHARE},\"closed_loop_window_per_conn\":{},\"closed_loop_slice_s\":{CLOSED_SLICE_S},\"connections\":{CONNECTIONS},\"generator_threads\":1,\"setup_reps\":{SETUP_REPS},\"serve_config\":{{\"queue_capacity\":{},\"max_batch\":{},\"workers\":1,\"shards\":{},\"write_buffer_cap\":{},\"reactor\":\"{}\",\"session_capacity\":{}}},\"inputs\":{inputs}}}",
        wl.rate,
        wl.window,
        c.queue_capacity,
        c.max_batch,
        c.shards,
        c.write_buffer_cap,
        c.reactor.name(),
        c.session_capacity
    )
}

/// The workload's request stream over its generated inputs.
pub fn generate(wl: &ServeWorkload, seed: u64) -> Feed {
    match wl.inputs {
        Inputs::Small { templates } => Feed::templates(gen::small_requests(seed, templates)),
        Inputs::Mix { instances } => Feed::templates(gen::solver_mix(seed, instances)),
        Inputs::Churn { sessions, facilities, clients } => {
            Feed::sessions(gen::sessions(seed, sessions, facilities, clients), CONNECTIONS)
        }
    }
}

// ---------------------------------------------------------------------
// Set-up and the timed phases.

pub struct Live {
    pub server: Server,
    pub client: Client,
    pub feed: Feed,
}

impl Live {
    /// Closes the connections, drains the server, and hands back the
    /// feed with everything it recorded. A response that answered no
    /// request in flight is a wrong output.
    pub fn shut_down(self, report: &mut Report) -> Feed {
        if self.client.unmatched_count > 0 {
            report.mismatch(format!(
                "{} responses echo an id no request in flight carries, e.g. {}",
                self.client.unmatched_count, self.client.unmatched[0]
            ));
        }
        drop(self.client);
        self.server.shutdown();
        self.feed
    }
}

/// Starts a server, connects, uploads the sessions and runs one warm-up
/// pass over a fresh copy of `inputs`. Returns the live state and how
/// many set-up requests were not answered ok.
pub fn set_up(inputs: &Feed) -> (Live, usize) {
    let server = Server::start("127.0.0.1:0", config()).expect("start the server");
    let mut client = Client::connect(server.local_addr(), CONNECTIONS);
    let mut feed = inputs.fresh();
    let bad = feed.set_up_exchanges().iter().map(|counts| client.exchange(&mut feed, counts)).sum();
    (Live { server, client, feed }, bad)
}

/// The open-loop phase's share of a run's measured seconds; the closed
/// loop, which yields the gated timing, gets the rest.
const OPEN_SHARE: f64 = 0.3;

fn open_share(seconds: f64) -> Duration {
    Duration::from_secs_f64(seconds * OPEN_SHARE)
}

fn closed_share(seconds: f64) -> Duration {
    Duration::from_secs_f64(seconds * (1.0 - OPEN_SHARE))
}

/// Length of one closed-loop slice.
const CLOSED_SLICE_S: f64 = 0.5;

fn assert_untraced() {
    assert!(!distfl_obs::enabled(), "tracing must be off during timed phases");
}

/// Steal per second of each slice.
fn steal_shares(slices: &[Slice]) -> Vec<f64> {
    slices.iter().map(|s| s.steal.as_secs_f64() / s.wall.as_secs_f64().max(1e-9)).collect()
}

/// Runs `set_up` `reps` times, the calibration kernel before the first
/// and after each; returns each set-up's wall time, process CPU time and
/// steal (as a slice), the kernel timings, how many set-up requests were
/// not answered ok, and the result of the last set-up.
pub fn repeat_set_up<T>(
    reps: usize,
    mut set_up: impl FnMut(bool) -> (T, usize),
) -> (Vec<Slice>, Vec<f64>, usize, T) {
    let mut calib = vec![calib::measure()];
    let mut setups = Vec::with_capacity(reps);
    let mut bad = 0;
    let mut last = None;
    for rep in 0..reps {
        let (steal, cpu, start) = (sys::steal_time(), sys::cpu_time(), Instant::now());
        let (out, not_ok) = set_up(rep + 1 == reps);
        setups.push(Slice {
            wall: start.elapsed(),
            cpu: sys::cpu_time() - cpu,
            steal: sys::steal_time() - steal,
            ..Slice::default()
        });
        calib.push(calib::measure());
        bad += not_ok;
        last = Some(out);
    }
    (setups, calib, bad, last.expect("at least one set-up"))
}

/// The end-to-end run: repeated set-up, the open-loop phase, the
/// closed-loop phase; then, off the clock, the output check and the
/// quality oracle.
pub fn run(wl: &ServeWorkload, seed: u64, seconds: f64) -> Report {
    let inputs = generate(wl, seed);
    let mut report = Report::new(wl.name, seed);
    let mut earlier = Vec::new();
    let mut earlier_report = Report::default();
    let (setups, setup_calib, setup_bad, live) = repeat_set_up(SETUP_REPS, |last| {
        let (live, bad) = set_up(&inputs);
        if last {
            (Some(live), bad)
        } else {
            earlier.push(live.shut_down(&mut earlier_report));
            (None, bad)
        }
    });
    let mut live = live.expect("the last set-up stays up");
    let steal = sys::steal_time();
    assert_untraced();
    let open_for = open_share(seconds);
    let requests = (wl.rate * open_for.as_secs_f64()) as usize;
    let open_slices = (requests / stats::P50_SAMPLES).clamp(1, 100);
    let open = live.client.open_loop(&mut live.feed, wl.rate, open_for, open_slices);
    assert_untraced();
    let closed_for = closed_share(seconds);
    let slices = ((closed_for.as_secs_f64() / CLOSED_SLICE_S).round() as usize).max(4);
    let closed = live.client.closed_loop(&mut live.feed, wl.window, closed_for, slices, true);
    assert_untraced();
    let steal = sys::steal_time() - steal;
    let rss = sys::peak_rss_mb();
    let feed = live.shut_down(&mut report);
    for mismatch in earlier_report.mismatches {
        report.mismatch(mismatch);
    }

    if setup_bad > 0 {
        report.mismatch(format!("{setup_bad} set-up requests were not answered ok"));
    }
    let quality = check(&feed, &earlier, &mut report);
    let attempted = open.sent + closed.sent;
    let failed = open.failed() + closed.failed();
    report.attempted = attempted;
    report.failed = failed;
    report_setup(&mut report, &setups, &setup_calib);
    // Timed figures are medians over the calmest half of their phase's
    // slices, so a stall of the machine moves none of them.
    let closed_steal = steal_shares(&closed.slices);
    let calm_closed = calmest_half(&closed_steal);
    let closed_used: usize = calm_closed.iter().map(|&k| closed.slices[k].ops).sum();
    let mut per_slice: Vec<f64> = calm_closed
        .iter()
        .map(|&k| closed.slices[k].ops as f64 / closed.slices[k].wall.as_secs_f64())
        .collect();
    report.metric("throughput_ops", stats::median(&mut per_slice), "ops/s", closed_used);
    // The median needs fewer samples than the 99th percentile, so it is
    // taken over the open loop's fine slices and the p99 over runs of
    // consecutive slices holding at least P99_SAMPLES requests.
    let held: Vec<&Slice> = open.slices.iter().filter(|s| !s.latency_us.is_empty()).collect();
    let calm_open = calmest_half(&held.iter().map(|s| s.steal.as_secs_f64()).collect::<Vec<_>>());
    let mut p50s: Vec<f64> =
        calm_open.iter().map(|&k| stats::quantile(&mut held[k].latency_us.clone(), 0.5)).collect();
    let group = stats::P99_SAMPLES.div_ceil((requests / open_slices).max(1));
    let coarse = coarsen(&open.slices, group);
    let calm_coarse = calmest_half(&steal_shares(&coarse));
    let mut p99s: Vec<f64> = calm_coarse
        .iter()
        .map(|&k| stats::quantile(&mut coarse[k].latency_us.clone(), 0.99))
        .collect();
    let p50_used: usize = calm_open.iter().map(|&k| held[k].latency_us.len()).sum();
    let p99_used: usize = calm_coarse.iter().map(|&k| coarse[k].latency_us.len()).sum();
    report.metric("latency_p50_us", stats::median(&mut p50s), "us", p50_used);
    report.metric("latency_p99_us", stats::median(&mut p99s), "us", p99_used);
    // Server CPU per op: the process's CPU time less the load generator
    // thread's, over a slice, per response; scaled to the reference host
    // by the calibration kernel timed between the slices.
    let per_op: Vec<f64> = closed.slices.iter().map(server_cpu_us_per_op).collect();
    let cpu = calib::normalize(&per_op, &closed.calib, &calm_closed);
    report.metric("cpu_us_per_op", cpu.value, "us", closed_used);
    report.metric("ok_frac", 1.0 - failed as f64 / attempted.max(1) as f64, "ratio", attempted);
    report.metric("cost_ratio", stats::mean(&quality.ratios), "ratio", quality.ratios.len());
    report.metric("rss_peak_mb", rss, "MB", 1);
    let mut gen_cpu: Vec<f64> = calm_closed
        .iter()
        .map(|&k| {
            let s = &closed.slices[k];
            s.gen_cpu.as_secs_f64() * 1e6 / s.ops.max(1) as f64
        })
        .collect();
    report.detail("cpu_us_per_op_raw", cpu.raw.to_string());
    report.detail("cpu_host_factor", cpu.factor.to_string());
    report.detail("generator_cpu_us_per_op", stats::median(&mut gen_cpu).to_string());
    report.detail("open_slices", open_slices_json(&coarse));
    report.detail("closed_slices", closed_slices_json(&closed.slices));
    report.detail("closed_host_factors", format!("{:.4?}", closed.calib));
    report.detail("steal_s", steal.as_secs_f64().to_string());
    report.detail("generator", generator_json(&open, wl.rate));
    report.detail("bound_sources", quality.sources_json());
    report
}

/// Merges runs of `group` consecutive slices into one (the last run
/// takes the remainder).
fn coarsen(slices: &[Slice], group: usize) -> Vec<Slice> {
    let runs = (slices.len() / group.max(1)).max(1);
    (0..runs)
        .map(|r| {
            let end = if r + 1 == runs { slices.len() } else { (r + 1) * group };
            let mut merged = Slice::default();
            for s in &slices[r * group..end] {
                merged.latency_us.extend_from_slice(&s.latency_us);
                merged.ops += s.ops;
                merged.wall += s.wall;
                merged.steal += s.steal;
            }
            merged
        })
        .collect()
}

/// Reports `setup_s`: the median process CPU time of a set-up over the
/// calmest half of the set-ups, scaled to the reference host by the
/// calibration kernel timed between them. The set-ups' wall
/// time goes into the detail line.
///
/// CPU time rather than wall time, because on a shared machine a
/// set-up's wall time moves by half between passes with how often both
/// virtual CPUs are available at once, which no kernel timing divides
/// out: the kernel's own wall time doubles when one CPU is missing, while
/// a set-up's grows by however much of it ran in parallel.
pub fn report_setup(report: &mut Report, setups: &[Slice], calib: &[f64]) {
    let cpu: Vec<f64> = setups.iter().map(|s| s.cpu.as_secs_f64()).collect();
    let calm = calmest_half(&steal_shares(setups));
    let setup = calib::normalize(&cpu, calib, &calm);
    let mut wall: Vec<f64> = calm.iter().map(|&k| setups[k].wall.as_secs_f64()).collect();
    report.metric("setup_s", setup.value, "s", calm.len());
    report.detail("setup_cpu_s_raw", setup.raw.to_string());
    report.detail("setup_wall_s", stats::median(&mut wall).to_string());
    report.detail("setup_host_factor", setup.factor.to_string());
}

/// The process's CPU time less the load generator thread's over a slice,
/// per response, in µs.
fn server_cpu_us_per_op(s: &Slice) -> f64 {
    s.cpu.saturating_sub(s.gen_cpu).as_secs_f64() * 1e6 / s.ops.max(1) as f64
}

/// Per open-loop slice: `[requests, p50 µs, p99 µs, steal s]`.
fn open_slices_json(slices: &[Slice]) -> String {
    let parts: Vec<String> = slices
        .iter()
        .map(|s| {
            let mut lat = s.latency_us.clone();
            format!(
                "[{},{:.0},{:.0},{:.3}]",
                lat.len(),
                stats::quantile(&mut lat, 0.5),
                stats::quantile(&mut lat, 0.99),
                s.steal.as_secs_f64()
            )
        })
        .collect();
    format!("[{}]", parts.join(","))
}

/// Per closed-loop slice: `[ops, wall s, steal s, server CPU µs per op]`.
fn closed_slices_json(slices: &[Slice]) -> String {
    let parts: Vec<String> = slices
        .iter()
        .map(|s| {
            format!(
                "[{},{:.3},{:.3},{:.2}]",
                s.ops,
                s.wall.as_secs_f64(),
                s.steal.as_secs_f64(),
                server_cpu_us_per_op(s)
            )
        })
        .collect();
    format!("[{}]", parts.join(","))
}

/// Lateness of the open-loop generator. The run is marked invalid when
/// the generator fell behind its schedule rather than being preempted
/// now and then: its median send left more than one interval (or
/// 100 µs) late, a send left more than 100 ms late, or requests were
/// still unanswered at the deadline.
pub fn generator_json(open: &Phase, rate: f64) -> String {
    let mut late = open.lateness_us.clone();
    let p50 = stats::quantile(&mut late, 0.5);
    let p99 = stats::quantile(&mut late, 0.99);
    let max = late.iter().copied().fold(0.0, f64::max);
    let valid = p50 <= (1e6 / rate).max(100.0) && max <= 100_000.0 && open.unanswered == 0;
    if !valid {
        eprintln!(
            "warning: open-loop generator fell behind (late p50 {p50:.0} us, max {max:.0} us, \
             {} unanswered); run marked invalid",
            open.unanswered
        );
    }
    format!(
        "{{\"late_p50_us\":{p50},\"late_p99_us\":{p99},\"late_max_us\":{max},\"sent\":{},\"valid\":{valid}}}",
        open.sent
    )
}

// ---------------------------------------------------------------------
// Off the clock: output check and quality oracle.

/// Cost over certified lower bound of every distinct ok solve result (a
/// request answered several times counts once), and where the bounds
/// came from.
#[derive(Debug, Default)]
pub struct Quality {
    pub ratios: Vec<f64>,
    /// Bounds by source: exact, dual fitting, trivial.
    pub sources: [usize; 3],
}

impl Quality {
    pub fn record(&mut self, source: BoundSource) {
        self.sources[match source {
            BoundSource::Exact => 0,
            BoundSource::DualFitting => 1,
            BoundSource::Trivial => 2,
        }] += 1;
    }

    pub fn merge(&mut self, other: Quality) {
        self.ratios.extend(other.ratios);
        for (a, b) in self.sources.iter_mut().zip(other.sources) {
            *a += b;
        }
    }

    pub fn sources_json(&self) -> String {
        format!(
            "{{\"exact\":{},\"dual_fitting\":{},\"trivial\":{}}}",
            self.sources[0], self.sources[1], self.sources[2]
        )
    }
}

pub fn parse_request(line: &str) -> Request {
    match proto::parse_line(line).expect("generated lines parse") {
        Parsed::Request(request) => *request,
        Parsed::Command(_) => panic!("generated line is a control command"),
    }
}

/// The instance a stateless request carries, as the server builds it.
pub fn request_instance(request: &Request) -> Instance {
    match &request.action {
        Action::Solve { source, .. } | Action::Create { source, .. } => match source {
            InstanceSource::Inline(instance) => instance.clone(),
            InstanceSource::OrLib(text) => {
                distfl_instance::orlib::from_str(text).expect("generated OR-Library text parses")
            }
        },
        _ => panic!("request carries no instance"),
    }
}

/// The `cost` a success response reports.
pub fn response_cost(line: &str) -> f64 {
    let at = line.find("\"cost\":").expect("success responses carry a cost") + 7;
    let rest = &line[at..];
    let end = rest.find([',', '}']).expect("cost is followed by another field");
    rest[..end].parse().expect("cost is a number")
}

/// `cost ≥ bound` up to rounding; a cost below a certified lower bound
/// means the solver or the oracle is wrong.
fn cost_ok(cost: f64, bound: f64) -> bool {
    cost >= bound - 1e-9 * bound.abs().max(1.0)
}

fn check(feed: &Feed, earlier: &[Feed], report: &mut Report) -> Quality {
    match feed {
        Feed::Stateless(last) => {
            let references = references(&last.templates);
            let mut feeds: Vec<&StatelessFeed> = vec![last];
            for f in earlier {
                if let Feed::Stateless(f) = f {
                    feeds.push(f);
                }
            }
            check_stateless(&last.templates, &references, &feeds, report)
        }
        Feed::Sessions(last) => {
            for f in earlier {
                if let Feed::Sessions(f) = f {
                    compare_prefix(f, last, report);
                }
            }
            let responses = last.by_session();
            let cache = SessionCache::new(config().session_capacity);
            let mut cursors: Vec<SessionCursor> =
                last.sessions.iter().map(|s| SessionCursor::new(s, &last.next_op)).collect();
            finish_sessions(&mut cursors, &responses, &cache, report)
        }
    }
}

/// The line `scheduler::execute` renders for each template.
pub fn references(templates: &[Template]) -> Vec<String> {
    let cache = SessionCache::new(1);
    templates.iter().map(|t| scheduler::execute(&parse_request(&t.line), &cache)).collect()
}

/// Checks every ok response against the reference and computes the
/// quality of each distinct result.
pub fn check_stateless(
    templates: &[Template],
    references: &[String],
    feeds: &[&StatelessFeed],
    report: &mut Report,
) -> Quality {
    for feed in feeds {
        for diverged in &feed.diverged {
            report.mismatch(diverged.clone());
        }
        for (t, first) in feed.first_ok.iter().enumerate() {
            if let Some(first) = first {
                if first.as_slice() != references[t].as_bytes() {
                    report.mismatch(format!(
                        "template t{t}: server sent {} but execute renders {}",
                        String::from_utf8_lossy(first),
                        references[t]
                    ));
                }
            }
        }
    }
    for error in &feeds[0].errors {
        eprintln!("error response: {error}");
    }
    let bounds = template_bounds(templates);
    let mut quality = Quality::default();
    for (t, reference) in references.iter().enumerate() {
        let answered: usize = feeds.iter().map(|f| f.ok[t]).sum();
        if answered == 0 {
            continue;
        }
        let (bound, source) = bounds[templates[t].instance];
        let cost = response_cost(reference);
        if !cost_ok(cost, bound) {
            report.mismatch(format!("template t{t}: cost {cost} below certified bound {bound}"));
        }
        quality.ratios.push(cost / bound);
        quality.record(source);
    }
    quality
}

/// A certified lower bound per distinct instance: exact when it has at
/// most [`EXACT_LIMIT`] facilities, otherwise the best of the trivial
/// bound and dual fitting of the greedy, Jain–Vazirani and PayDual duals
/// computed here.
fn template_bounds(templates: &[Template]) -> Vec<(f64, BoundSource)> {
    let count = templates.iter().map(|t| t.instance).max().map_or(0, |m| m + 1);
    let mut bounds = vec![(0.0, BoundSource::Trivial); count];
    let mut done = vec![false; count];
    for t in templates {
        if done[t.instance] {
            continue;
        }
        done[t.instance] = true;
        let instance = request_instance(&parse_request(&t.line));
        let duals: Vec<DualSolution> = if instance.num_facilities() <= EXACT_LIMIT {
            Vec::new()
        } else {
            [SolverKind::Greedy, SolverKind::JainVazirani, SolverKind::PayDual]
                .iter()
                .filter_map(|k| k.solve(&instance, 7).ok().and_then(|o| o.dual))
                .collect()
        };
        let refs: Vec<&DualSolution> = duals.iter().collect();
        let lb = bounds::certified_lower_bound(&instance, &refs, EXACT_LIMIT);
        bounds[t.instance] = (lb.value, lb.source);
    }
    bounds
}

/// Earlier set-up repetitions replayed the same create and warm-up ops;
/// their responses must equal the final run's.
fn compare_prefix(earlier: &SessionFeed, last: &SessionFeed, report: &mut Report) {
    let last_by = last.by_session();
    for (tag, &(s, op)) in earlier.log.iter().enumerate() {
        let a = earlier.responses[tag].as_deref();
        let b = last_by.get(s).and_then(|ops| ops.get(op as usize)).copied().flatten();
        if a != b {
            report.mismatch(format!("session s{s} op {op}: response differs between set-ups"));
        }
    }
}

/// Replay state of one session: the next op to replay and the dual the
/// lower bounds are fitted from.
pub struct SessionCursor<'a> {
    pub session: &'a Session,
    pub next: u64,
    pub end: u64,
    alpha: Vec<f64>,
}

impl<'a> SessionCursor<'a> {
    pub fn new(session: &'a Session, next_op: &[u64]) -> Self {
        let index: usize = session.name[1..].parse().expect("session names are s<index>");
        SessionCursor { session, next: 0, end: next_op[index], alpha: Vec::new() }
    }

    pub fn index(&self) -> usize {
        self.session.name[1..].parse().expect("session names are s<index>")
    }

    /// Checks the server's response to op `op` against the line
    /// `reference` that `execute` rendered on `cache` and updates the
    /// quality oracle. Admission refusals were never executed and are
    /// skipped by the caller.
    pub fn after(
        &mut self,
        op: u64,
        response: Option<&[u8]>,
        reference: &str,
        cache: &SessionCache,
        quality: &mut Quality,
        report: &mut Vec<String>,
    ) {
        let name = &self.session.name;
        if let Some(response) = response {
            if response != reference.as_bytes() {
                report.push(format!(
                    "session {name} op {op}: server sent {} but execute renders {reference}",
                    String::from_utf8_lossy(response)
                ));
            }
        }
        let handle = cache.get(name).expect("replayed session is held");
        let state = handle.lock().expect("session lock");
        let instance = &state.instance;
        if op == 0 {
            self.alpha = jv::solve(instance).1.alpha().to_vec();
            return;
        }
        let k = (op - 1) / 2;
        if (op - 1).is_multiple_of(2) {
            if k.is_multiple_of(DUAL_REFRESH) {
                self.alpha = jv::solve(instance).1.alpha().to_vec();
            } else {
                self.alpha.remove(self.session.delta(k).remove as usize);
                self.alpha.push(0.0);
            }
            return;
        }
        if classify(reference.as_bytes()) != Answer::Ok || response.is_none() {
            return;
        }
        let trivial = bounds::trivial_lower_bound(instance);
        let fitted =
            DualSolution::new(self.alpha.clone()).lower_bound(instance, distfl_lp::TOLERANCE);
        let (bound, source) = if fitted > trivial {
            (fitted, BoundSource::DualFitting)
        } else {
            (trivial, BoundSource::Trivial)
        };
        let cost = response_cost(reference);
        if !cost_ok(cost, bound) {
            report
                .push(format!("session {name} op {op}: cost {cost} below certified bound {bound}"));
        }
        quality.ratios.push(cost / bound);
        quality.record(source);
    }
}

/// Whether a response is an admission refusal (never executed).
pub fn refused(response: Option<&[u8]>) -> bool {
    response.is_some_and(|r| classify(r) == Answer::QueueFull)
}

/// Replays every session's remaining ops against `cache`, sessions split
/// over two threads (each session's ops stay in order).
pub fn finish_sessions(
    cursors: &mut [SessionCursor],
    responses: &[Vec<Option<&[u8]>>],
    cache: &SessionCache,
    report: &mut Report,
) -> Quality {
    let results: Vec<(Quality, Vec<String>)> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        let mut parts: Vec<Vec<&mut SessionCursor>> = vec![Vec::new(), Vec::new()];
        for (k, cursor) in cursors.iter_mut().enumerate() {
            parts[k % 2].push(cursor);
        }
        for part in parts {
            handles.push(scope.spawn(move || {
                let mut quality = Quality::default();
                let mut problems = Vec::new();
                for cursor in part {
                    let ops = &responses[cursor.index()];
                    while cursor.next < cursor.end {
                        let op = cursor.next;
                        cursor.next += 1;
                        let response = ops[op as usize];
                        if refused(response) {
                            continue;
                        }
                        let request = parse_request(&cursor.session.op_line(op));
                        let reference = scheduler::execute(&request, cache);
                        cursor.after(op, response, &reference, cache, &mut quality, &mut problems);
                    }
                }
                (quality, problems)
            }));
        }
        handles.into_iter().map(|h| h.join().expect("replay thread")).collect()
    });
    let mut quality = Quality::default();
    for (q, problems) in results {
        quality.merge(q);
        for p in problems {
            report.mismatch(p);
        }
    }
    quality
}

/// Converts a parsed wire delta to the batch `execute` builds from it.
pub fn delta_batch(spec: &proto::DeltaSpec) -> DeltaBatch {
    let mut batch = DeltaBatch::new();
    for &j in &spec.remove {
        batch.remove_client(ClientId::new(j));
    }
    for &(j, i, c) in &spec.reprice {
        batch.reprice(ClientId::new(j), FacilityId::new(i), Cost::new(c).expect("valid cost"));
    }
    for links in &spec.add {
        let p = batch.add_client();
        for &(i, c) in links {
            batch
                .link(p, FacilityId::new(i), Cost::new(c).expect("valid cost"))
                .expect("valid link");
        }
    }
    batch
}

pub fn describe_all(workloads: &[ServeWorkload]) -> Vec<(&'static str, String)> {
    workloads.iter().map(|w| (w.name, settings_json(w))).collect()
}
