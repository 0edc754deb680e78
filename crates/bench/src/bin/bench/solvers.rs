//! `bench solvers`: the sequential solver hot paths (BENCH_2.json).
//!
//! Measures the incremental implementations against the retained naive
//! references on identical inputs — lazy-heap star greedy vs the
//! per-iteration full rescan, cached-assignment local search vs the full
//! re-pricing of every candidate move, and the event-driven Jain–Vazirani
//! dual ascent vs the per-round scan over all links — across generator
//! families and OR-Library-shaped dense sizes. Every comparison also
//! asserts the outputs are identical, so a speedup reported here is a
//! speedup on the *same* answer.
//!
//! The document records allocation budgets for all three hot paths:
//! `greedy_allocs_per_iter_budget` (amortized heap allocations per greedy
//! iteration), `ls_allocs_per_move_budget` (per local-search move), and
//! `jv_allocs_per_client_budget` (per client of the JV dual ascent), and
//! three work budgets, read from the solvers' counters:
//! `greedy_entries_scanned_per_iter_budget` (star entries the greedy's
//! scans read per iteration, `solver.greedy.*`),
//! `ls_exact_folds_per_round_budget` (exact candidate folds per priced
//! local-search round, `solver.localsearch.*`) and
//! `jv_exact_sums_per_event_budget` (exact payment sums per JV ascent
//! event, `solver.jv.*`). Outputs and allocations cannot see a scan that
//! reads past its stop rule, a local search that folds more candidates
//! than its shortlist bound admits, or an ascent that shortlists more
//! facilities than its margins need. `--smoke` re-measures on small
//! instances and fails if any budget (read back from the committed
//! BENCH_2.json when it has the key) is exceeded.

use distfl_core::{greedy, jv, localsearch};
use distfl_instance::generators::{Clustered, InstanceGenerator, LineCity, UniformRandom};
use distfl_instance::{Instance, Solution};
use distfl_obs::JsonWriter;

use crate::{best_ms, count_allocs, snapshot, Mode, Report};

/// Amortized allocations per greedy iteration the fast path must stay
/// under (whole-call allocations divided by iterations, so the one-time
/// CSR/heap setup is included). The committed BENCH_2.json records this
/// value and `--smoke` enforces it.
const GREEDY_ALLOCS_PER_ITER_BUDGET: f64 = 16.0;

/// Amortized allocations per accepted local-search move (whole-call
/// allocations divided by moves, so the once-per-call cache and candidate
/// buffers are included). Guards the hoisted-pricing rework: a per-round
/// or per-candidate allocation sneaking back in blows this immediately.
const LS_ALLOCS_PER_MOVE_BUDGET: f64 = 32.0;

/// Amortized allocations per client for one JV dual ascent (whole-call
/// allocations divided by clients). The event loop reuses its sorted
/// lanes, linear forms, and candidate buffers, so the per-client share of
/// the setup is small and must stay that way.
const JV_ALLOCS_PER_CLIENT_BUDGET: f64 = 4.0;

/// Star entries the greedy's scans read per iteration (per star picked).
/// A scan stops at the first cost past its best ratio, so it reads the
/// best star and little more: 13–55 per iteration on the smoke rows,
/// against 93–164 for a copy whose scans read every live entry.
const GREEDY_ENTRIES_SCANNED_PER_ITER_BUDGET: f64 = 80.0;

/// Exact candidate folds per priced local-search round. The shortlist
/// bound leaves about the winner per round, and none in the round that
/// converges: 0.5–0.67 on the smoke rows, against 1.67 on the
/// uniform_20x200 row for a copy whose bound is `+inf`.
const LS_EXACT_FOLDS_PER_ROUND_BUDGET: f64 = 1.2;

/// Exact payment sums per JV ascent event. The keys' margins leave about
/// one (the facility whose event wins) per event; an ascent that
/// shortlists every unopened facility does one per facility.
const JV_EXACT_SUMS_PER_EVENT_BUDGET: f64 = 2.0;

/// Local-search move cap: both implementations run under the same cap, so
/// the comparison stays apples-to-apples even on instances whose descent
/// is long.
pub(crate) const LS_MOVES: u32 = 4;

/// One timed comparison: milliseconds for each implementation (best of
/// `reps`).
struct Timing {
    fast_ms: f64,
    reference_ms: f64,
}

impl Timing {
    fn speedup(&self) -> f64 {
        self.reference_ms / self.fast_ms
    }

    fn write(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("fast_ms").number(self.fast_ms);
        w.key("reference_ms").number(self.reference_ms);
        w.key("speedup").number(self.speedup());
        w.end_object();
    }
}

/// Greedy comparison: verifies bit-identical runs, then times both and
/// profiles the fast path's allocations per iteration.
fn bench_greedy(inst: &Instance, reps: usize) -> (Timing, u32, f64) {
    let fast = greedy::solve_detailed(inst);
    let slow = greedy::solve_detailed_reference(inst);
    assert_eq!(fast.solution, slow.solution, "lazy greedy diverged from reference");
    assert_eq!(fast.ratios, slow.ratios, "lazy greedy ratios diverged");
    assert_eq!(fast.iterations, slow.iterations, "lazy greedy iteration count diverged");

    let (run, allocs) = count_allocs(|| greedy::solve_detailed(inst));
    let allocs_per_iter = allocs as f64 / f64::from(run.iterations.max(1));

    let timing = Timing {
        fast_ms: best_ms(reps, || greedy::solve_detailed(inst)),
        reference_ms: best_ms(reps, || greedy::solve_detailed_reference(inst)),
    };
    (timing, run.iterations, allocs_per_iter)
}

/// Local-search comparison from the greedy solution, verified identical,
/// with the fast path's allocations per accepted move.
fn bench_local_search(inst: &Instance, reps: usize) -> (Timing, u32, f64) {
    let (start, _) = greedy::solve(inst);
    let fast = localsearch::optimize(inst, &start, LS_MOVES);
    let slow = localsearch::optimize_reference(inst, &start, LS_MOVES);
    assert_eq!(fast, slow, "cached local search diverged from reference");

    let (run, allocs) = count_allocs(|| localsearch::optimize(inst, &start, LS_MOVES));
    let allocs_per_move = allocs as f64 / f64::from(run.moves.max(1));

    let timing = Timing {
        fast_ms: best_ms(reps, || localsearch::optimize(inst, &start, LS_MOVES)),
        reference_ms: best_ms(reps, || localsearch::optimize_reference(inst, &start, LS_MOVES)),
    };
    (timing, fast.moves, allocs_per_move)
}

/// Jain–Vazirani phase-1 comparison, verified identical, with the fast
/// path's allocations per client.
fn bench_jv(inst: &Instance, reps: usize) -> (Timing, f64) {
    let fast = jv::dual_ascent(inst);
    let slow = jv::dual_ascent_reference(inst);
    assert_eq!(fast.alpha, slow.alpha, "event-driven ascent diverged from reference");
    assert_eq!(fast.temp_open, slow.temp_open, "ascent opening order diverged");

    let (_, allocs) = count_allocs(|| jv::dual_ascent(inst));
    let allocs_per_client = allocs as f64 / inst.num_clients().max(1) as f64;

    let timing = Timing {
        fast_ms: best_ms(reps, || jv::dual_ascent(inst)),
        reference_ms: best_ms(reps, || jv::dual_ascent_reference(inst)),
    };
    (timing, allocs_per_client)
}

/// The heap pops of one greedy solve and the star entries its scans read
/// per iteration, read from the `solver.greedy.*` counters with tracing on
/// for that solve only.
fn greedy_work(inst: &Instance) -> (u64, f64) {
    let pops = distfl_obs::counter("solver.greedy.heap_pops");
    let scanned = distfl_obs::counter("solver.greedy.entries_scanned");
    let before = (pops.get(), scanned.get());
    distfl_obs::set_enabled(true);
    let run = greedy::solve_detailed(inst);
    distfl_obs::set_enabled(false);
    let per_iter = (scanned.get() - before.1) as f64 / f64::from(run.iterations.max(1));
    (pops.get() - before.0, per_iter)
}

/// The priced rounds of one local-search solve from `start` and its exact
/// folds per round, read from the `solver.localsearch.*` counters with
/// tracing on for that solve only.
fn ls_work(inst: &Instance, start: &Solution) -> (u64, f64) {
    let rounds = distfl_obs::counter("solver.localsearch.rounds");
    let folds = distfl_obs::counter("solver.localsearch.exact_folds");
    let before = (rounds.get(), folds.get());
    distfl_obs::set_enabled(true);
    localsearch::optimize(inst, start, LS_MOVES);
    distfl_obs::set_enabled(false);
    let n = rounds.get() - before.0;
    (n, (folds.get() - before.1) as f64 / n.max(1) as f64)
}

/// The events of one JV dual ascent and its exact payment sums per event,
/// read from the `solver.jv.*` counters with tracing on for that ascent
/// only.
fn jv_work(inst: &Instance) -> (u64, f64) {
    let events = distfl_obs::counter("solver.jv.events");
    let exact_sums = distfl_obs::counter("solver.jv.exact_sums");
    let before = (events.get(), exact_sums.get());
    distfl_obs::set_enabled(true);
    jv::dual_ascent(inst);
    distfl_obs::set_enabled(false);
    let n = events.get() - before.0;
    (n, (exact_sums.get() - before.1) as f64 / n.max(1) as f64)
}

fn instances(quick: bool) -> Vec<(&'static str, Instance)> {
    let mk_uniform = |m: usize, n: usize, seed: u64| -> Instance {
        UniformRandom::new(m, n).unwrap().generate(seed).unwrap()
    };
    if quick {
        vec![
            ("uniform_10x50", mk_uniform(10, 50, 1)),
            // The full row: the one small row where folding every
            // candidate shows in the local-search folds per round.
            ("uniform_20x200", mk_uniform(20, 200, 1)),
            ("clustered_3x12x80", Clustered::new(3, 12, 80).unwrap().generate(2).unwrap()),
            ("line_12x80", LineCity::new(12, 80).unwrap().generate(3).unwrap()),
            // cap71..74 shape from the OR-Library: 16 facilities, 50 clients.
            ("cap74_shaped_16x50", mk_uniform(16, 50, 4)),
        ]
    } else {
        vec![
            ("uniform_20x200", mk_uniform(20, 200, 1)),
            ("clustered_5x30x400", Clustered::new(5, 30, 400).unwrap().generate(2).unwrap()),
            ("line_40x400", LineCity::new(40, 400).unwrap().generate(3).unwrap()),
            // cap71..74 shape from the OR-Library: 16 facilities, 50 clients.
            ("cap74_shaped_16x50", mk_uniform(16, 50, 4)),
            // capb shape from the OR-Library: 100 facilities, 1000 clients.
            ("capb_shaped_100x1000", mk_uniform(100, 1000, 5)),
        ]
    }
}

pub(crate) fn run(mode: Mode) -> Report {
    // The smoke gate compares against the committed snapshot's budgets
    // when it has them, so tightening BENCH_2.json tightens CI with it.
    let committed = if mode == Mode::Smoke { snapshot("BENCH_2.json") } else { None };
    let budget = |key: &str, default: f64| {
        committed.as_ref().and_then(|s| s.get(key)?.as_f64()).unwrap_or(default)
    };
    let budgets = [
        (
            "greedy allocations per iteration",
            budget("greedy_allocs_per_iter_budget", GREEDY_ALLOCS_PER_ITER_BUDGET),
        ),
        (
            "greedy entries scanned per iteration",
            budget(
                "greedy_entries_scanned_per_iter_budget",
                GREEDY_ENTRIES_SCANNED_PER_ITER_BUDGET,
            ),
        ),
        (
            "local-search allocations per move",
            budget("ls_allocs_per_move_budget", LS_ALLOCS_PER_MOVE_BUDGET),
        ),
        (
            "local-search exact folds per round",
            budget("ls_exact_folds_per_round_budget", LS_EXACT_FOLDS_PER_ROUND_BUDGET),
        ),
        (
            "jv allocations per client",
            budget("jv_allocs_per_client_budget", JV_ALLOCS_PER_CLIENT_BUDGET),
        ),
        (
            "jv exact sums per event",
            budget("jv_exact_sums_per_event_budget", JV_EXACT_SUMS_PER_EVENT_BUDGET),
        ),
    ];

    let reps = if mode.quick() { 2usize } else { 3 };
    let mut worst = [0.0f64; 6];
    let mut w = JsonWriter::object();
    w.key("bench").string("solver_hot_paths");
    w.key("mode").string(mode.name());
    w.key("baseline").string(&format!(
        "retained naive references: full-rescan greedy, full-repricing local search (both \
         capped at {LS_MOVES} moves), per-round link-scan JV dual ascent"
    ));
    w.key("greedy_allocs_per_iter_budget").number(GREEDY_ALLOCS_PER_ITER_BUDGET);
    w.key("greedy_entries_scanned_per_iter_budget").number(GREEDY_ENTRIES_SCANNED_PER_ITER_BUDGET);
    w.key("ls_allocs_per_move_budget").number(LS_ALLOCS_PER_MOVE_BUDGET);
    w.key("ls_exact_folds_per_round_budget").number(LS_EXACT_FOLDS_PER_ROUND_BUDGET);
    w.key("jv_allocs_per_client_budget").number(JV_ALLOCS_PER_CLIENT_BUDGET);
    w.key("jv_exact_sums_per_event_budget").number(JV_EXACT_SUMS_PER_EVENT_BUDGET);
    w.key("results").begin_array();
    for (name, inst) in instances(mode.quick()) {
        let (g_timing, iterations, allocs_per_iter) = bench_greedy(&inst, reps);
        let (heap_pops, scanned_per_iter) = greedy_work(&inst);
        let (ls_timing, moves, allocs_per_move) = bench_local_search(&inst, reps);
        let (ls_rounds, folds_per_round) = ls_work(&inst, &greedy::solve(&inst).0);
        let (jv_timing, allocs_per_client) = bench_jv(&inst, reps);
        let (jv_events, sums_per_event) = jv_work(&inst);
        for (worst, measured) in worst.iter_mut().zip([
            allocs_per_iter,
            scanned_per_iter,
            allocs_per_move,
            folds_per_round,
            allocs_per_client,
            sums_per_event,
        ]) {
            *worst = worst.max(measured);
        }
        eprintln!(
            "{name:<24} greedy {:>7.2}x ({iterations} iters, {allocs_per_iter:.1} allocs/iter, \
             {heap_pops} pops, {scanned_per_iter:.1} entries/iter)  \
             local-search {:>7.2}x ({moves} moves, {allocs_per_move:.1} allocs/move, \
             {ls_rounds} rounds, {folds_per_round:.2} exact folds/round)  \
             jv-ascent {:>7.2}x ({allocs_per_client:.2} allocs/client, {jv_events} events, \
             {sums_per_event:.2} exact sums/event)",
            g_timing.speedup(),
            ls_timing.speedup(),
            jv_timing.speedup(),
        );
        w.begin_object();
        w.key("instance").string(name);
        w.key("facilities").number_u64(inst.num_facilities() as u64);
        w.key("clients").number_u64(inst.num_clients() as u64);
        w.key("links").number_u64(inst.num_links() as u64);
        w.key("greedy");
        g_timing.write(&mut w);
        w.key("greedy_iterations").number_u64(u64::from(iterations));
        w.key("greedy_allocs_per_iter").number(allocs_per_iter);
        w.key("greedy_heap_pops").number_u64(heap_pops);
        w.key("greedy_entries_scanned_per_iter").number(scanned_per_iter);
        w.key("local_search");
        ls_timing.write(&mut w);
        w.key("local_search_moves").number_u64(u64::from(moves));
        w.key("local_search_allocs_per_move").number(allocs_per_move);
        w.key("local_search_rounds").number_u64(ls_rounds);
        w.key("local_search_exact_folds_per_round").number(folds_per_round);
        w.key("jv_dual_ascent");
        jv_timing.write(&mut w);
        w.key("jv_allocs_per_client").number(allocs_per_client);
        w.key("jv_events").number_u64(jv_events);
        w.key("jv_exact_sums_per_event").number(sums_per_event);
        w.end_object();
    }
    w.end_array();

    let mut passed = true;
    if mode == Mode::Smoke {
        for ((what, budget), worst) in budgets.into_iter().zip(worst) {
            if worst > budget {
                eprintln!("error: {what} {worst:.2} exceed the budget {budget}");
                passed = false;
            }
        }
    }
    Report { document: Some(w.finish()), passed }
}
