//! `bench delta`: the warm-start delta path (BENCH_8.json).
//!
//! Pits the incremental pipeline — `Instance::apply_delta` +
//! `WarmCache::apply_delta` + a warm solve — against the from-scratch
//! pipeline — rebuild the instance through `InstanceBuilder` + a cold
//! solve — on the `capb_shaped_100x1000` instance (100 facilities x 1000
//! clients, dense: the BENCH_2/BENCH_7 shape), across churn rates from
//! 0.1% to 20% of links repriced per delta, plus one structural schedule:
//! the serve `session-churn` step (remove one client, reprice 1% of links,
//! add one client linked to every facility). Every timed step first
//! asserts the warm solution is **identical** to the cold one, so a
//! speedup reported here is a speedup on the *same* answer.
//!
//! The counting allocator reports steady-state allocations per
//! delta+solve cycle on the warm path; the smoke gate bounds them for a
//! greedy and a JV cycle after a reprice-only and after a structural
//! delta, so a drain, repair or re-sort that starts reallocating its lanes
//! per delta fails CI rather than silently eating the speedup.
//!
//! `--smoke` skips the timing and records no document: it runs only the
//! equivalence sweep (all three warm solvers over both schedules on a
//! small instance) plus the allocation budget on the full shape.
//! `--quick` shrinks repetitions for a fast local run.

use std::time::Instant;

use distfl_core::warm::WarmCache;
use distfl_core::{greedy, jv, localsearch};
use distfl_instance::generators::{InstanceGenerator, UniformRandom};
use distfl_instance::{ClientId, Cost, DeltaBatch, FacilityId, Instance, InstanceBuilder};
use distfl_obs::JsonWriter;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{count_allocs, Mode, Report};

/// Move cap matching the serve dispatch, so local-search rows compare
/// like-for-like with the service's behavior.
const LS_MOVES: u32 = 10_000;

/// Steady-state allocation budget for one warm delta+solve cycle (apply
/// the delta to the warm cache, run the warm greedy or JV solve). The
/// measured values at 1% churn are 4 (greedy) and 10 (JV, mostly the
/// solution and duals it returns) after either kind of delta, so
/// triple-digit growth means a drain, repair, re-sort or ascent started
/// reallocating per row or per event.
const ALLOC_BUDGET: u64 = 128;

// ---- Delta schedules --------------------------------------------------

/// How each delta of a measured run is drawn.
#[derive(Clone, Copy, PartialEq)]
enum Schedule {
    /// Reprice `links` distinct existing links — the churn knob:
    /// `links / instance.num_links()` is exactly the drift the warm cache
    /// sees, so rates map one-to-one onto staging vs re-sort.
    Reprice,
    /// The serve `session-churn` step: remove one client, reprice `links`
    /// links of the others, add one client linked to every facility. The
    /// delta is structural, so every warm solve renames its family's lanes
    /// and merges the new client in.
    SessionChurn,
}

/// Draws one delta of `schedule` repricing `links` distinct links.
fn draw_batch(inst: &Instance, rng: &mut StdRng, schedule: Schedule, links: usize) -> DeltaBatch {
    let n = inst.num_clients() as u32;
    let mut batch = DeltaBatch::new();
    let removed = (schedule == Schedule::SessionChurn).then(|| rng.gen_range(0..n));
    if let Some(j) = removed {
        batch.remove_client(ClientId::new(j));
    }
    let mut seen: Vec<(u32, u32)> = Vec::with_capacity(links);
    while seen.len() < links {
        let j = rng.gen_range(0..n);
        if Some(j) == removed {
            continue;
        }
        let row = inst.client_links(ClientId::new(j));
        let i = row.ids[rng.gen_range(0..row.len())];
        if seen.contains(&(j, i)) {
            continue;
        }
        seen.push((j, i));
        batch.reprice(
            ClientId::new(j),
            FacilityId::new(i),
            Cost::new(rng.gen_range(0.1..100.0f64)).unwrap(),
        );
    }
    if removed.is_some() {
        let fresh = batch.add_client();
        for i in inst.facilities() {
            batch.link(fresh, i, Cost::new(rng.gen_range(0.1..100.0f64)).unwrap()).unwrap();
        }
    }
    batch
}

/// Rebuilds `inst` from its rows through the public builder — the
/// from-scratch path's instance-construction cost (what a client pays to
/// re-upload instead of sending a delta).
fn rebuild(inst: &Instance) -> Instance {
    let mut builder = InstanceBuilder::new();
    let fids: Vec<FacilityId> =
        inst.facilities().map(|i| builder.add_facility(inst.opening_cost(i))).collect();
    for j in inst.clients() {
        let client = builder.add_client();
        let row = inst.client_links(j);
        for (&i, &c) in row.ids.iter().zip(row.costs) {
            builder.link(client, fids[i as usize], Cost::new(c).unwrap()).unwrap();
        }
    }
    builder.build().unwrap()
}

// ---- The measured pipelines ------------------------------------------

/// One solver's warm-vs-scratch timing at one churn rate.
struct Row {
    solver: &'static str,
    delta_ms: f64,
    scratch_ms: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.scratch_ms / self.delta_ms
    }
}

/// Times one delta+solve cycle of `schedule` for all three solvers at
/// `churn` (fraction of links repriced per delta), asserting warm/cold
/// equivalence on every rep. Returns `(rows, warm-greedy allocs on the
/// final rep)`.
fn measure(
    base: &Instance,
    schedule: Schedule,
    churn: f64,
    reps: usize,
    seed: u64,
) -> (Vec<Row>, u64) {
    let links = ((churn * base.num_links() as f64).round() as usize).max(1);
    let mut rows = Vec::new();
    let mut greedy_allocs = 0;

    for solver in ["greedy", "local_search", "jv"] {
        // Fresh churn history per solver so each starts from `base` and
        // applies the identical delta sequence (seeded rng).
        let mut inst = base.clone();
        let mut warm = WarmCache::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut delta_ms = f64::INFINITY;
        let mut scratch_ms = f64::INFINITY;
        for _ in 0..reps {
            let batch = draw_batch(&inst, &mut rng, schedule, links);

            // Delta path: mutate in place, resync the warm cache, solve
            // warm.
            let start = Instant::now();
            let report = inst.apply_delta(&batch).unwrap();
            let ((), allocs) = count_allocs(|| warm.apply_delta(&inst, &report));
            match solver {
                "greedy" => std::hint::black_box(warm.solve_greedy(&inst).iterations),
                "local_search" => {
                    std::hint::black_box(warm.solve_local_search(&inst, LS_MOVES).moves)
                }
                _ => std::hint::black_box(warm.dual_ascent(&inst).temp_open.len() as u32),
            };
            delta_ms = delta_ms.min(start.elapsed().as_secs_f64() * 1e3);
            if solver == "greedy" {
                greedy_allocs = allocs;
            }

            // Scratch path: rebuild the instance through the builder,
            // then solve cold (structure construction included).
            let start = Instant::now();
            let fresh = rebuild(&inst);
            match solver {
                "greedy" => std::hint::black_box(greedy::solve_detailed(&fresh).iterations),
                "local_search" => {
                    let (s, _) = greedy::solve(&fresh);
                    std::hint::black_box(localsearch::optimize(&fresh, &s, LS_MOVES).moves)
                }
                _ => std::hint::black_box(jv::dual_ascent(&fresh).temp_open.len() as u32),
            };
            scratch_ms = scratch_ms.min(start.elapsed().as_secs_f64() * 1e3);

            // Equivalence: identical answers on the identical instance.
            match solver {
                "greedy" => {
                    assert_eq!(
                        warm.solve_greedy(&inst).solution,
                        greedy::solve_detailed(&inst).solution
                    );
                }
                "local_search" => {
                    let (s, _) = greedy::solve(&inst);
                    assert_eq!(
                        warm.solve_local_search(&inst, LS_MOVES).solution,
                        localsearch::optimize(&inst, &s, LS_MOVES).solution
                    );
                }
                _ => {
                    assert_eq!(warm.dual_ascent(&inst).alpha, jv::dual_ascent(&inst).alpha);
                }
            }
        }
        rows.push(Row { solver, delta_ms, scratch_ms });
    }
    (rows, greedy_allocs)
}

/// Writes `rows` as the `solvers` array of the open object in `w`, and
/// prints them.
fn write_rows(w: &mut JsonWriter, label: &str, rows: &[Row]) {
    w.key("solvers").begin_array();
    for row in rows {
        eprintln!(
            "{label:<15} {:<13} delta {:>8.3} ms  scratch {:>8.3} ms  {:>6.2}x",
            row.solver,
            row.delta_ms,
            row.scratch_ms,
            row.speedup()
        );
        w.begin_object();
        w.key("solver").string(row.solver);
        w.key("delta_ms").number(row.delta_ms);
        w.key("scratch_ms").number(row.scratch_ms);
        w.key("speedup").number(row.speedup());
        w.end_object();
    }
    w.end_array();
}

// ---- Smoke gate -------------------------------------------------------

/// Allocation events of the last of three warm delta+solve cycles of
/// `schedule` at 1% churn on `base` — the steady state. The cycle solves
/// JV (`solve_jv`) when `jv` is set, greedy otherwise.
fn steady_allocs(base: &Instance, schedule: Schedule, jv: bool) -> u64 {
    let mut inst = base.clone();
    let mut warm = WarmCache::new();
    let mut rng = StdRng::seed_from_u64(7);
    let links = (0.01 * base.num_links() as f64).round() as usize;
    let mut steady = 0;
    for _ in 0..3 {
        let batch = draw_batch(&inst, &mut rng, schedule, links);
        let report = inst.apply_delta(&batch).unwrap();
        let (_, allocs) = count_allocs(|| {
            warm.apply_delta(&inst, &report);
            if jv {
                std::hint::black_box(warm.solve_jv(&inst).0.num_open());
            } else {
                std::hint::black_box(warm.solve_greedy(&inst).iterations);
            }
        });
        steady = allocs;
    }
    steady
}

/// The CI gate: warm == cold over both delta schedules for all three
/// solvers on a small instance, plus the steady-state allocation budget
/// on the full capb shape. Prints what failed; returns overall success.
fn smoke() -> bool {
    let mut ok = true;

    // Equivalence sweep (assertions inside `measure` do the checking).
    let small = UniformRandom::new(20, 120).unwrap().generate(11).unwrap();
    let sweep = [
        (Schedule::Reprice, 0.01, 1u64),
        (Schedule::Reprice, 0.1, 2),
        (Schedule::Reprice, 0.5, 3),
        (Schedule::SessionChurn, 0.01, 4),
    ];
    for (schedule, churn, seed) in sweep {
        let result = std::panic::catch_unwind(|| measure(&small, schedule, churn, 3, seed));
        if result.is_err() {
            eprintln!("smoke FAILED: warm/cold divergence at churn {churn}, seed {seed}");
            ok = false;
        }
    }

    // Allocation budget at the headline shape and churn.
    let base = UniformRandom::new(100, 1000).unwrap().generate(5).unwrap();
    for (jv, solver) in [(false, "greedy"), (true, "jv")] {
        for (schedule, name) in
            [(Schedule::Reprice, "reprice"), (Schedule::SessionChurn, "structural")]
        {
            let steady = steady_allocs(&base, schedule, jv);
            eprintln!(
                "steady-state warm {solver} {name} cycle: {steady} allocation events \
                 (budget {ALLOC_BUDGET})"
            );
            if steady > ALLOC_BUDGET {
                eprintln!(
                    "smoke FAILED: {solver} {name} allocs per delta {steady} exceeds budget \
                     {ALLOC_BUDGET}"
                );
                ok = false;
            }
        }
    }
    if ok {
        eprintln!("bench delta smoke: warm solves bit-identical, allocation budget holds");
    }
    ok
}

pub(crate) fn run(mode: Mode) -> Report {
    if mode == Mode::Smoke {
        return Report { document: None, passed: smoke() };
    }

    let base = UniformRandom::new(100, 1000).unwrap().generate(5).unwrap();
    let reps = if mode.quick() { 3 } else { 7 };
    let churns = [0.001, 0.01, 0.05, 0.2];

    let mut w = JsonWriter::object();
    w.key("bench").string("warm_delta");
    w.key("instance").string("capb_shaped_100x1000");
    w.key("baseline").string(
        "from-scratch pipeline: InstanceBuilder rebuild + cold solve (structure construction \
         included); the delta pipeline is Instance::apply_delta + WarmCache::apply_delta + \
         warm solve, asserted identical to the cold answer on every rep",
    );
    w.key("ls_max_moves").number_u64(u64::from(LS_MOVES));
    let mut churn_rates = JsonWriter::array();
    let mut alloc_line = 0;
    for (index, &churn) in churns.iter().enumerate() {
        let (rows, allocs) = measure(&base, Schedule::Reprice, churn, reps, 40 + index as u64);
        if (churn - 0.01).abs() < 1e-12 {
            alloc_line = allocs;
        }
        churn_rates.begin_object();
        churn_rates.key("churn").number(churn);
        write_rows(&mut churn_rates, &format!("churn {:>5.1}%", churn * 100.0), &rows);
        churn_rates.end_object();
    }
    let (rows, _) = measure(&base, Schedule::SessionChurn, 0.01, reps, 44);
    w.key("warm_greedy_allocs_per_delta_at_1pct").number_u64(alloc_line);
    w.key("alloc_budget").number_u64(ALLOC_BUDGET);
    w.key("churn_rates").raw(&churn_rates.finish());
    w.key("session_churn").begin_object();
    w.key("step")
        .string("remove 1 client, reprice 1% of links, add 1 client linked to every facility");
    w.key("churn").number(0.01);
    write_rows(&mut w, "session churn", &rows);
    w.end_object();
    Report { document: Some(w.finish()), passed: true }
}
