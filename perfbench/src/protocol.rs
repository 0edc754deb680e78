//! `protocol-sim`: a library-level closed loop with one caller and no
//! server. One op takes one pair of 30×300 instances through PayDual
//! (the non-metric instance) and MetricBall (the metric one), each on the
//! lock-step engine (`run`) and then on the discrete-event simulator with
//! its α-synchronizer (`run_simulated`). An op is the pair of protocols on
//! both executors, not one run, so every op does the same work and the
//! latency distribution has one mode.

use std::time::{Duration, Instant};

use distfl_congest::{LatencyModel, SimConfig, SimReport};
use distfl_core::metricball::{MetricBall, MetricBallParams};
use distfl_core::paydual::{PayDual, PayDualParams, SimulatedRun};
use distfl_core::{CoreError, FlAlgorithm, Outcome, SolverKind};
use distfl_instance::Instance;
use distfl_lp::bounds;
use distfl_lp::DualSolution;

use crate::calib;
use crate::gen::{self, Family};
use crate::load::{calmest_half, Slice};
use crate::report::Report;
use crate::serve::{self, Quality, EXACT_LIMIT};
use crate::spans::Spans;
use crate::stats;
use crate::sys;
use crate::trace::{self, put, Layers, Tally};

pub const NAME: &str = "protocol-sim";
/// Instance pairs the loop cycles over.
pub const PAIRS: usize = 6;
pub const FACILITIES: usize = 30;
pub const CLIENTS: usize = 300;
/// Set-up runs per workload run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Lock-step engine threads (the engine shards a round over the pool
/// when it moves enough messages).
pub const ENGINE_THREADS: usize = 2;

pub fn settings_json() -> String {
    format!(
        "{{\"loop\":\"closed, one caller\",\"op\":\"PayDual on the non-metric and MetricBall on the metric instance of one pair, each run lock-step then simulated\",\"pairs\":{PAIRS},\"size\":\"{FACILITIES}x{CLIENTS}\",\"families\":[\"uniform\",\"euclidean\"],\"paydual_phases\":{},\"metricball_phases\":{},\"engine_threads\":{ENGINE_THREADS},\"sim_latency\":\"lognormal median 50us sigma 0.5\",\"setup_reps\":{SETUP_REPS}}}",
        PayDualParams::default().phases,
        MetricBallParams::default().phases
    )
}

struct Pair {
    non_metric: Instance,
    metric: Instance,
}

fn generate(seed: u64) -> Vec<Pair> {
    let mut r = gen::rng(seed, 4);
    (0..PAIRS)
        .map(|_| {
            use rand::Rng;
            Pair {
                non_metric: Family::Uniform.generate(FACILITIES, CLIENTS, r.gen()),
                metric: Family::Euclidean.generate(FACILITIES, CLIENTS, r.gen()),
            }
        })
        .collect()
}

fn sim_config(seed: u64) -> SimConfig {
    SimConfig {
        latency: LatencyModel::LogNormal { median_nanos: 50_000.0, sigma: 0.5 },
        latency_seed: seed,
        ..SimConfig::default()
    }
}

/// One simulated run with the default parameters `SolverKind::PayDual`
/// and `SolverKind::MetricBall` use, on the benchmark's latency model.
pub fn simulate(instance: &Instance, seed: u64, metric: bool) -> Result<SimulatedRun, CoreError> {
    if metric {
        MetricBall::new(MetricBallParams::default()).run_simulated(instance, seed, sim_config(seed))
    } else {
        PayDual::new(PayDualParams::default()).run_simulated(instance, seed, sim_config(seed))
    }
}

fn paydual() -> PayDual {
    PayDual::new(PayDualParams { threads: Some(ENGINE_THREADS), ..PayDualParams::default() })
}

fn metricball() -> MetricBall {
    MetricBall::new(MetricBallParams {
        threads: Some(ENGINE_THREADS),
        ..MetricBallParams::default()
    })
}

/// What one protocol run on both executors produced.
struct Run {
    lockstep: Outcome,
    report: SimReport,
    transcript_matches: bool,
    solution_matches: bool,
}

fn both(
    instance: &Instance,
    seed: u64,
    metric: bool,
    spans: &mut Option<&mut Spans>,
    request: u64,
) -> Run {
    let lockstep_span = spans.as_deref_mut().map(|s| s.open("congest.engine.run", request, None));
    let lockstep =
        if metric { metricball().run(instance, seed) } else { paydual().run(instance, seed) }
            .expect("lock-step runs succeed");
    if let (Some(s), Some(i)) = (spans.as_deref_mut(), lockstep_span) {
        s.close(i);
    }
    let sim_span = spans.as_deref_mut().map(|s| s.open("congest.sim.run", request, None));
    let simulated = if metric {
        metricball().run_simulated(instance, seed, sim_config(seed))
    } else {
        paydual().run_simulated(instance, seed, sim_config(seed))
    }
    .expect("simulated runs succeed");
    if let (Some(s), Some(i)) = (spans.as_deref_mut(), sim_span) {
        s.close(i);
    }
    Run {
        transcript_matches: lockstep.transcript == simulated.outcome.transcript,
        solution_matches: lockstep.solution == simulated.outcome.solution,
        lockstep,
        report: simulated.report,
    }
}

/// One op over pair `k`; returns the two protocol runs.
fn op(pairs: &[Pair], k: usize, seed: u64, spans: &mut Option<&mut Spans>) -> [Run; 2] {
    let pair = &pairs[k % pairs.len()];
    let request = k as u64;
    [
        both(&pair.non_metric, seed, false, spans, request),
        both(&pair.metric, seed, true, spans, request),
    ]
}

/// Records mismatches between the executors and the protocol costs.
fn check(
    runs: &[Run; 2],
    k: usize,
    costs: &mut Vec<(usize, bool, f64)>,
    report: &mut Report,
    pairs: &[Pair],
) {
    for (run, metric) in runs.iter().zip([false, true]) {
        let name = if metric { "metricball" } else { "paydual" };
        if !run.transcript_matches {
            report.mismatch(format!("op {k}: {name} simulated transcript differs from lock-step"));
        }
        if !run.solution_matches {
            report.mismatch(format!("op {k}: {name} simulated solution differs from lock-step"));
        }
        let pair = &pairs[k % pairs.len()];
        let instance = if metric { &pair.metric } else { &pair.non_metric };
        costs.push((k % pairs.len(), metric, run.lockstep.solution.cost(instance).value()));
    }
}

/// Certified lower bounds per instance, off the clock: the best of the
/// trivial bound and dual fitting of the PayDual, greedy and
/// Jain–Vazirani duals.
fn quality(
    pairs: &[Pair],
    costs: &[(usize, bool, f64)],
    seed: u64,
    report: &mut Report,
) -> Quality {
    let bound = |instance: &Instance| {
        let duals: Vec<DualSolution> =
            [SolverKind::PayDual, SolverKind::Greedy, SolverKind::JainVazirani]
                .iter()
                .filter_map(|kind| kind.solve(instance, seed).ok().and_then(|o| o.dual))
                .collect();
        let refs: Vec<&DualSolution> = duals.iter().collect();
        bounds::certified_lower_bound(instance, &refs, EXACT_LIMIT)
    };
    let lbs: Vec<[bounds::LowerBound; 2]> =
        pairs.iter().map(|p| [bound(&p.non_metric), bound(&p.metric)]).collect();
    // Each (pair, protocol) result counts once; every op that repeated
    // it must have produced the same cost.
    let mut distinct: Vec<(usize, bool, f64)> = Vec::new();
    for &(k, metric, cost) in costs {
        match distinct.iter().find(|d| (d.0, d.1) == (k, metric)) {
            Some(d) if d.2 != cost => report.mismatch(format!(
                "pair {k}: protocol cost changed between runs ({} then {cost})",
                d.2
            )),
            Some(_) => {}
            None => distinct.push((k, metric, cost)),
        }
    }
    let mut quality = Quality::default();
    for (k, metric, cost) in distinct {
        let lb = lbs[k][usize::from(metric)];
        if cost < lb.value - 1e-9 * lb.value.abs().max(1.0) {
            report.mismatch(format!("pair {k}: cost {cost} below certified bound {}", lb.value));
        }
        quality.ratios.push(cost / lb.value);
        quality.record(lb.source);
    }
    quality
}

/// What a closed loop of ops measured: one slice per op with its wall
/// time, process CPU time and steal; with calibration, the kernel timed
/// before the first op and after each.
struct Ops {
    slices: Vec<Slice>,
    calib: Vec<f64>,
}

/// Runs ops in a closed loop for `duration`.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    pairs: &[Pair],
    seed: u64,
    duration: Duration,
    calibrate: bool,
    costs: &mut Vec<(usize, bool, f64)>,
    report: &mut Report,
    mut spans: Option<&mut Spans>,
    mut tally: Option<&mut Tally>,
) -> Ops {
    let start = Instant::now();
    let mut ops = Ops { slices: Vec::new(), calib: Vec::new() };
    if calibrate {
        ops.calib.push(calib::measure());
    }
    let mut k = 0;
    while start.elapsed() < duration {
        let (cpu, steal, t) = (sys::cpu_time(), sys::steal_time(), Instant::now());
        let runs = op(pairs, k, seed, &mut spans);
        let wall = t.elapsed();
        ops.slices.push(Slice {
            latency_us: vec![wall.as_secs_f64() * 1e6],
            ops: 1,
            wall,
            cpu: sys::cpu_time() - cpu,
            steal: sys::steal_time() - steal,
            ..Slice::default()
        });
        if calibrate {
            ops.calib.push(calib::measure());
        }
        check(&runs, k, costs, report, pairs);
        if let Some(tally) = tally.as_deref_mut() {
            for run in &runs {
                // Both executors ran the protocol, and the simulated
                // transcript equals the lock-step one, so it counts twice.
                let transcript =
                    run.lockstep.transcript.as_ref().expect("protocols have transcripts");
                tally.add_transcript(transcript);
                tally.add_transcript(transcript);
                tally.add_sim(&run.report);
            }
        }
        k += 1;
    }
    ops
}

fn latencies(ops: &Ops) -> Vec<f64> {
    ops.slices.iter().map(|s| s.latency_us[0]).collect()
}

pub fn run(seed: u64, seconds: f64) -> Report {
    let pairs = generate(seed);
    let mut report = Report::new(NAME, seed);
    let mut costs = Vec::new();
    let (setups, setup_calib, _, ()) = serve::repeat_set_up(SETUP_REPS, |_| {
        distfl_pool::WorkerPool::global();
        for k in 0..pairs.len() {
            let runs = op(&pairs, k, seed, &mut None);
            check(&runs, k, &mut Vec::new(), &mut report, &pairs);
        }
        ((), 0)
    });
    assert!(!distfl_obs::enabled(), "tracing must be off during timed phases");
    let steal = sys::steal_time();
    let ops = closed_loop(
        &pairs,
        seed,
        Duration::from_secs_f64(seconds),
        true,
        &mut costs,
        &mut report,
        None,
        None,
    );
    assert!(!distfl_obs::enabled(), "tracing must be off during timed phases");
    let steal = sys::steal_time() - steal;
    let rss = sys::peak_rss_mb();
    let quality = quality(&pairs, &costs, seed, &mut report);
    let n = ops.slices.len();
    report.attempted = n;
    report.failed = 0;
    // Timed figures use the half of the ops the hypervisor disturbed
    // least, as the serve workloads use their calmest slices.
    let shares: Vec<f64> =
        ops.slices.iter().map(|s| s.steal.as_secs_f64() / s.wall.as_secs_f64()).collect();
    let calm = calmest_half(&shares);
    let mut latency: Vec<f64> = calm.iter().map(|&k| ops.slices[k].latency_us[0]).collect();
    let wall: f64 = latency.iter().sum::<f64>() / 1e6;
    let used = calm.len();
    serve::report_setup(&mut report, &setups, &setup_calib);
    report.metric("throughput_ops", used as f64 / wall, "ops/s", used);
    report.metric("latency_p50_us", stats::quantile(&mut latency, 0.5), "us", used);
    report.metric("latency_p99_us", stats::quantile(&mut latency, 0.99), "us", used);
    let per_op: Vec<f64> = ops.slices.iter().map(|s| s.cpu.as_secs_f64() * 1e6).collect();
    let cpu = calib::normalize(&per_op, &ops.calib, &calm);
    report.metric("cpu_us_per_op", cpu.value, "us", used);
    report.metric("ok_frac", 1.0, "ratio", n);
    report.metric("cost_ratio", stats::mean(&quality.ratios), "ratio", quality.ratios.len());
    report.metric("rss_peak_mb", rss, "MB", 1);
    report.detail("cpu_us_per_op_raw", cpu.raw.to_string());
    report.detail("cpu_host_factor", cpu.factor.to_string());
    report.detail("bound_sources", quality.sources_json());
    report.detail("steal_s", steal.as_secs_f64().to_string());
    report
}

pub fn run_traced(seed: u64, seconds: f64) -> Report {
    let pairs = generate(seed);
    let mut report = Report::new(NAME, seed);
    let mut costs = Vec::new();
    for k in 0..pairs.len() {
        let runs = op(&pairs, k, seed, &mut None);
        check(&runs, k, &mut costs, &mut report, &pairs);
    }
    // Untraced and traced slices alternate, as in the serve workloads.
    let slice = Duration::from_secs_f64(seconds * 0.1);
    distfl_obs::metrics_reset();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        assert!(!distfl_obs::enabled(), "the untraced slices run with tracing off");
        untraced.extend(latencies(&closed_loop(
            &pairs,
            seed,
            slice,
            false,
            &mut costs,
            &mut report,
            None,
            None,
        )));
        distfl_obs::set_enabled(true);
        traced.extend(latencies(&closed_loop(
            &pairs,
            seed,
            slice,
            false,
            &mut costs,
            &mut report,
            None,
            None,
        )));
        distfl_obs::set_enabled(false);
    }
    let tasks = distfl_obs::counter("pool.tasks").get() as f64;
    let stolen = distfl_obs::counter("pool.stolen").get() as f64;

    let mut spans = Spans::new();
    let mut tally = Tally::default();
    let replay = Duration::from_secs_f64(seconds * 0.3);
    let replayed = closed_loop(
        &pairs,
        seed,
        replay,
        false,
        &mut costs,
        &mut report,
        Some(&mut spans),
        Some(&mut tally),
    );
    quality(&pairs, &costs, seed, &mut report);

    let mut layers = Layers::new();
    let engine = spans.durations("congest.engine.run");
    put(&mut layers, "congest.engine_run_us", stats::mean(&engine) / 1e3, engine.len());
    tally.put(&mut layers, &spans, replayed.slices.len());
    put(&mut layers, "pool.tasks_per_op", tasks / traced.len().max(1) as f64, traced.len());
    if tasks > 0.0 {
        put(&mut layers, "pool.stolen_frac", stolen / tasks, tasks as usize);
    }
    let samples = untraced.len() + traced.len();
    let plain = stats::median(&mut untraced);
    put(
        &mut layers,
        "obs.trace_overhead_frac",
        1.0 - plain / stats::median(&mut traced).max(f64::MIN_POSITIVE),
        samples,
    );
    let path = std::path::PathBuf::from(format!(".bench_out/spans-{NAME}.jsonl"));
    if let Err(e) = spans.write(&path) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    report.attempted = untraced.len() + traced.len() + replayed.slices.len();
    report.detail("spans", spans.list.len().to_string());
    trace::emit(&mut report, &layers);
    report
}
