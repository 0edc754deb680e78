//! Warm-start equivalence: after any schedule of instance deltas, a
//! warm-started solve must be **bit-identical** to a from-scratch solve of
//! the mutated instance — for all three warm solvers, over random
//! add/remove/reprice interleavings, in the style of `solver_equivalence`.
//! Most properties solve once after the whole schedule; three interleave
//! solves with structural, reprice-only and drift-sized deltas, so each
//! family's in-place repairs and re-sorts run in between.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use distfl_core::warm::WarmCache;
use distfl_core::{greedy, jv, localsearch, SolverKind};
use distfl_instance::generators::{Clustered, InstanceGenerator, LineCity, UniformRandom};
use distfl_instance::{ClientId, Cost, DeltaBatch, FacilityId, Instance};

/// Move cap matching the cold `SolverKind::LocalSearch` dispatch.
const LS_MAX_MOVES: u32 = 10_000;

/// One of three dense generator families, `m` facilities by `n` clients.
fn generate(family: u8, m: usize, n: usize, seed: u64) -> Instance {
    match family {
        0 => UniformRandom::new(m, n).unwrap().generate(seed).unwrap(),
        1 => {
            let clusters = m % 3 + 1;
            Clustered::new(clusters, m.max(clusters), n).unwrap().generate(seed).unwrap()
        }
        _ => LineCity::new(m, n).unwrap().generate(seed).unwrap(),
    }
}

fn any_instance() -> impl Strategy<Value = Instance> {
    (0u8..3, 1usize..8, 1usize..20, 0u64..1000).prop_map(|(f, m, n, seed)| generate(f, m, n, seed))
}

/// Session-sized instances: large enough (30+ clients) that a reprice-only
/// batch of a few links stays under the default drift threshold and is
/// staged, while a drift-sized one still takes the re-sort.
fn session_instance() -> impl Strategy<Value = Instance> {
    (0u8..3, 1usize..8, 30usize..100, 0u64..1000)
        .prop_map(|(f, m, n, seed)| generate(f, m, n, seed))
}

/// Draws a batch valid for the instance's current shape: a few removals
/// (never all clients), reprices of surviving clients' existing links
/// (distinct pairs), and added clients with random link sets.
fn random_batch(inst: &Instance, rng: &mut StdRng) -> DeltaBatch {
    let n = inst.num_clients();
    let m = inst.num_facilities();
    let mut batch = DeltaBatch::new();

    let max_remove = (n - 1).min(3);
    let num_remove = if max_remove == 0 { 0 } else { rng.gen_range(0..=max_remove) };
    let mut removed: Vec<u32> = Vec::new();
    while removed.len() < num_remove {
        let j = rng.gen_range(0..n as u32);
        if !removed.contains(&j) {
            removed.push(j);
        }
    }
    for &j in &removed {
        batch.remove_client(ClientId::new(j));
    }

    let mut repriced: Vec<(u32, u32)> = Vec::new();
    for _ in 0..rng.gen_range(0..=4usize) {
        let j = rng.gen_range(0..n as u32);
        if removed.contains(&j) {
            continue;
        }
        let row = inst.client_links(ClientId::new(j));
        let i = row.ids[rng.gen_range(0..row.len())];
        if repriced.contains(&(j, i)) {
            continue;
        }
        repriced.push((j, i));
        batch.reprice(
            ClientId::new(j),
            FacilityId::new(i),
            Cost::new(rng.gen_range(0.0..100.0f64)).unwrap(),
        );
    }

    for _ in 0..rng.gen_range(0..=3usize) {
        let p = batch.add_client();
        let deg = rng.gen_range(1..=m);
        let mut fids: Vec<u32> = (0..m as u32).collect();
        for k in 0..deg {
            let swap = rng.gen_range(k..m);
            fids.swap(k, swap);
        }
        fids.truncate(deg);
        fids.sort_unstable();
        for &i in &fids {
            batch
                .link(p, FacilityId::new(i), Cost::new(rng.gen_range(0.0..100.0f64)).unwrap())
                .unwrap();
        }
    }
    batch
}

/// Draws a session-style churn batch: removes one client and adds one
/// (when there are two or more, so the client count holds), and reprices
/// distinct links of surviving clients — one to three of them, or with
/// `drift` at least a fifth of all links, past the default drift
/// threshold, so the warm cache takes its lazy rebuild fallback.
fn churn_batch(inst: &Instance, rng: &mut StdRng, drift: bool) -> DeltaBatch {
    let n = inst.num_clients();
    let m = inst.num_facilities();
    let mut batch = DeltaBatch::new();
    let removed = (n > 1).then(|| rng.gen_range(0..n as u32));
    if let Some(j) = removed {
        batch.remove_client(ClientId::new(j));
        let p = batch.add_client();
        for i in 0..m as u32 {
            if i == 0 || rng.gen_bool(0.5) {
                batch
                    .link(p, FacilityId::new(i), Cost::new(rng.gen_range(0.0..100.0f64)).unwrap())
                    .unwrap();
            }
        }
    }
    let mut links: Vec<(u32, u32)> = (0..n as u32)
        .filter(|&j| Some(j) != removed)
        .flat_map(|j| inst.client_links(ClientId::new(j)).ids.iter().map(move |&i| (j, i)))
        .collect();
    let count = if drift {
        rng.gen_range(inst.num_links().div_ceil(5).min(links.len())..=links.len())
    } else {
        rng.gen_range(1..=3usize).min(links.len())
    };
    for k in 0..count {
        let pick = rng.gen_range(k..links.len());
        links.swap(k, pick);
        let (j, i) = links[k];
        batch.reprice(
            ClientId::new(j),
            FacilityId::new(i),
            Cost::new(rng.gen_range(0.0..100.0f64)).unwrap(),
        );
    }
    batch
}

/// Draws a reprice-only batch under the default drift threshold (at most a
/// tenth of all links): as many links of one facility as that allows —
/// more than a dozen on larger instances, so the greedy drain merges the
/// star row instead of rotating — or several links of one client.
fn reprice_batch(inst: &Instance, rng: &mut StdRng) -> DeltaBatch {
    let cap = inst.num_links() / 10;
    let (links, count): (Vec<(u32, u32)>, usize) = if rng.gen_bool(0.5) {
        let i = rng.gen_range(0..inst.num_facilities() as u32);
        let links: Vec<_> =
            inst.facility_links(FacilityId::new(i)).ids.iter().map(|&j| (j, i)).collect();
        let count = links.len();
        (links, count)
    } else {
        let j = rng.gen_range(0..inst.num_clients() as u32);
        let links: Vec<_> =
            inst.client_links(ClientId::new(j)).ids.iter().map(|&i| (j, i)).collect();
        let count = rng.gen_range(1..=links.len());
        (links, count)
    };
    let mut batch = DeltaBatch::new();
    for &(j, i) in links.iter().take(count.min(cap)) {
        batch.reprice(
            ClientId::new(j),
            FacilityId::new(i),
            Cost::new(rng.gen_range(0.0..100.0f64)).unwrap(),
        );
    }
    batch
}

/// Dense instances with 2+ facilities and 150+ clients: the four steps of
/// [`composed_churn`] change under a tenth of the links, so the warm cache
/// stages them all and repairs its lanes instead of re-sorting them.
fn repair_instance() -> impl Strategy<Value = Instance> {
    (0u8..3, 2usize..9, 150usize..200, 0u64..1000)
        .prop_map(|(f, m, n, seed)| generate(f, m, n, seed))
}

/// A cost for a link at facility `i`: half the time exactly the cost of a
/// random link in `i`'s current row, so repaired rows hold `(cost, id)`
/// ties that only the id order settles.
fn tie_prone_cost(inst: &Instance, i: u32, rng: &mut StdRng) -> Cost {
    let row = inst.facility_links(FacilityId::new(i));
    let c = if rng.gen_bool(0.5) {
        row.costs[rng.gen_range(0..row.len())]
    } else {
        rng.gen_range(0.0..100.0f64)
    };
    Cost::new(c).unwrap()
}

/// Step `step` of a run of churn batches with no solve in between. Step 0
/// removes client 0 and the highest id and adds three clients; step 1
/// removes the highest id (a client step 0 added) and reprices a link of
/// another client step 0 added; later steps remove a random client and add
/// one. Every step also reprices one link of a random surviving client.
/// Added clients link one to three facilities.
fn composed_churn(inst: &Instance, step: usize, rng: &mut StdRng) -> DeltaBatch {
    let n = inst.num_clients() as u32;
    let m = inst.num_facilities() as u32;
    let mut batch = DeltaBatch::new();
    let removed = match step {
        0 => vec![0, n - 1],
        1 => vec![n - 1],
        _ => vec![rng.gen_range(0..n)],
    };
    for &j in &removed {
        batch.remove_client(ClientId::new(j));
    }
    let mut repriced = Vec::new();
    if step == 1 {
        repriced.push(n - 2);
    }
    let j = loop {
        let j = rng.gen_range(0..n);
        if !removed.contains(&j) && !repriced.contains(&j) {
            break j;
        }
    };
    repriced.push(j);
    for j in repriced {
        let row = inst.client_links(ClientId::new(j));
        let i = row.ids[rng.gen_range(0..row.len())];
        batch.reprice(ClientId::new(j), FacilityId::new(i), tie_prone_cost(inst, i, rng));
    }
    for _ in 0..if step == 0 { 3 } else { 1 } {
        let p = batch.add_client();
        let first = rng.gen_range(0..m);
        for d in 0..rng.gen_range(1..=m.min(3)) {
            let i = (first + d) % m;
            batch.link(p, FacilityId::new(i), tie_prone_cost(inst, i, rng)).unwrap();
        }
    }
    batch
}

/// Solves `family` (0 greedy, 1 local search, 2 JV) warm and cold, and
/// asserts the two agree bit for bit.
fn assert_warm_matches_cold(warm: &mut WarmCache, inst: &Instance, family: u8, what: &str) {
    match family {
        0 => {
            let w = warm.solve_greedy(inst);
            let c = greedy::solve_detailed(inst);
            assert_eq!(w.solution, c.solution, "greedy, {what}");
            assert_eq!(bits(&w.ratios), bits(&c.ratios), "greedy, {what}");
            assert_eq!(w.iterations, c.iterations, "greedy, {what}");
        }
        1 => {
            let w = warm.solve_local_search(inst, LS_MAX_MOVES);
            let (start, _) = greedy::solve(inst);
            let c = localsearch::optimize(inst, &start, LS_MAX_MOVES);
            assert_eq!(w.solution, c.solution, "local search, {what}");
            assert_eq!(w.final_cost.to_bits(), c.final_cost.to_bits(), "local search, {what}");
            assert_eq!(w.moves, c.moves, "local search, {what}");
        }
        _ => {
            let (sol_w, dual_w) = warm.solve_jv(inst);
            let (sol_c, dual_c) = jv::solve(inst);
            assert_eq!(sol_w, sol_c, "jv, {what}");
            assert_eq!(bits(dual_w.alpha()), bits(dual_c.alpha()), "jv, {what}");
        }
    }
}

/// Runs `body` on its own thread and fails (instead of hanging the suite)
/// if it does not finish within the deadline.
fn within_deadline(body: impl FnOnce() + Send + 'static) {
    use std::sync::mpsc::RecvTimeoutError;
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    match rx.recv_timeout(std::time::Duration::from_secs(20)) {
        Ok(()) => handle.join().unwrap(),
        // A panicking body drops the sender: surface its panic.
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(handle.join().expect_err("the sender was dropped"))
        }
        Err(RecvTimeoutError::Timeout) => panic!("warm solve did not terminate"),
    }
}

/// Runs `batches` random deltas on `inst`, keeping `warm` in sync.
fn churn(inst: &mut Instance, warm: &mut WarmCache, seed: u64, batches: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..batches {
        let batch = random_batch(inst, &mut rng);
        let report = inst.apply_delta(&batch).unwrap();
        warm.apply_delta(inst, &report);
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn warm_greedy_is_bit_identical_after_delta_schedules(
        base in any_instance(),
        seed in any::<u64>(),
        batches in 1usize..4,
    ) {
        let mut inst = base.clone();
        let mut warm = WarmCache::new();
        churn(&mut inst, &mut warm, seed, batches);
        let w = warm.solve_greedy(&inst);
        let c = greedy::solve_detailed(&inst);
        prop_assert_eq!(&w.solution, &c.solution);
        prop_assert_eq!(bits(&w.ratios), bits(&c.ratios));
        prop_assert_eq!(w.iterations, c.iterations);
        // A second warm solve from the same epoch is stable (the working
        // copy, not the pristine rows, absorbed the run's destruction).
        let again = warm.solve_greedy(&inst);
        prop_assert_eq!(&again.solution, &c.solution);
    }

    #[test]
    fn warm_local_search_is_bit_identical_after_delta_schedules(
        base in any_instance(),
        seed in any::<u64>(),
        batches in 1usize..4,
    ) {
        let mut inst = base.clone();
        let mut warm = WarmCache::new();
        churn(&mut inst, &mut warm, seed, batches);
        let w = warm.solve_local_search(&inst, LS_MAX_MOVES);
        let (start, _) = greedy::solve(&inst);
        let c = localsearch::optimize(&inst, &start, LS_MAX_MOVES);
        prop_assert_eq!(&w.solution, &c.solution);
        prop_assert_eq!(w.initial_cost.to_bits(), c.initial_cost.to_bits());
        prop_assert_eq!(w.final_cost.to_bits(), c.final_cost.to_bits());
        prop_assert_eq!(w.moves, c.moves);
        prop_assert_eq!(w.converged, c.converged);
    }

    #[test]
    fn warm_jv_is_bit_identical_after_delta_schedules(
        base in any_instance(),
        seed in any::<u64>(),
        batches in 1usize..4,
    ) {
        let mut inst = base.clone();
        let mut warm = WarmCache::new();
        churn(&mut inst, &mut warm, seed, batches);
        let asc_w = warm.dual_ascent(&inst);
        let asc_c = jv::dual_ascent(&inst);
        prop_assert_eq!(bits(&asc_w.alpha), bits(&asc_c.alpha));
        prop_assert_eq!(&asc_w.temp_open, &asc_c.temp_open);
        let (sol_w, dual_w) = warm.solve_jv(&inst);
        let (sol_c, dual_c) = jv::solve(&inst);
        prop_assert_eq!(&sol_w, &sol_c);
        prop_assert_eq!(bits(dual_w.alpha()), bits(dual_c.alpha()));
    }

    #[test]
    fn warm_solves_interleaved_with_deltas_match_cold_solves(
        base in session_instance(),
        seed in any::<u64>(),
        steps in 1usize..16,
    ) {
        // Drift-sized batches mark both families for a re-sort; the
        // rest, structural or reprice-only, are staged. After each batch,
        // solve one random family (or none) warm and compare it with the
        // cold solve.
        within_deadline(move || {
            let mut inst = base;
            let mut warm = WarmCache::new();
            let mut rng = StdRng::seed_from_u64(seed);
            for step in 0..steps {
                let batch = match rng.gen_range(0..4u8) {
                    0 => random_batch(&inst, &mut rng),
                    3 => reprice_batch(&inst, &mut rng),
                    kind => churn_batch(&inst, &mut rng, kind == 2),
                };
                let report = inst.apply_delta(&batch).unwrap();
                warm.apply_delta(&inst, &report);
                let family = rng.gen_range(0..4u8);
                if family < 3 {
                    assert_warm_matches_cold(&mut warm, &inst, family, &format!("step {step}"));
                }
            }
        });
    }

    #[test]
    fn patch_and_rebuild_paths_agree(
        base in session_instance(),
        seed in any::<u64>(),
        batches in 1usize..6,
    ) {
        // The patcher solves greedy and JV before every delta, so both
        // families are live: batches under the drift threshold (a tenth
        // of the links), reprice-only or structural, are staged and
        // repaired in place, and larger ones re-sort. A fresh cache of the
        // final instance sorts everything from scratch. Outputs must not
        // differ.
        let mut inst = base;
        let mut patcher = WarmCache::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut drifted = 0;
        for _ in 0..batches {
            patcher.solve_greedy(&inst);
            patcher.solve_jv(&inst);
            let batch = if rng.gen_bool(0.5) {
                reprice_batch(&inst, &mut rng)
            } else {
                churn_batch(&inst, &mut rng, false)
            };
            let report = inst.apply_delta(&batch).unwrap();
            patcher.apply_delta(&inst, &report);
            drifted += usize::from(report.drift(&inst) > 0.1);
        }
        prop_assert_eq!(patcher.rebuilds() as usize, drifted);
        prop_assert_eq!(patcher.patches() as usize, batches - drifted);
        let mut rebuilder = WarmCache::new();
        let a = patcher.solve_greedy(&inst);
        let b = rebuilder.solve_greedy(&inst);
        prop_assert_eq!(&a.solution, &b.solution);
        prop_assert_eq!(bits(&a.ratios), bits(&b.ratios));
        let (ja, da) = patcher.solve_jv(&inst);
        let (jb, db) = rebuilder.solve_jv(&inst);
        prop_assert_eq!(&ja, &jb);
        prop_assert_eq!(bits(da.alpha()), bits(db.alpha()));
    }

    #[test]
    fn composed_structural_deltas_repair_lanes_bit_identically(
        base in repair_instance(),
        seed in any::<u64>(),
        runs in prop::collection::vec((0u8..3, 1usize..5), 1..4),
    ) {
        // Each run solves one family, so its lanes are live, composes one
        // to four `composed_churn` steps, and solves the family again. The
        // steps stay under the drift threshold together, so that solve
        // repairs the lanes from the staged id map and reprices.
        within_deadline(move || {
            let mut inst = base;
            let mut warm = WarmCache::new();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut deltas = 0;
            for (run, (family, steps)) in runs.into_iter().enumerate() {
                assert_warm_matches_cold(&mut warm, &inst, family, &format!("before run {run}"));
                let mut changed = 0;
                for step in 0..steps {
                    let report = inst.apply_delta(&composed_churn(&inst, step, &mut rng)).unwrap();
                    warm.apply_delta(&inst, &report);
                    changed += report.links_changed;
                    deltas += 1;
                }
                assert!(
                    changed * 10 <= inst.num_links(),
                    "run {run}: {changed} links changed of {}",
                    inst.num_links()
                );
                assert_eq!((warm.rebuilds(), warm.patches()), (0, deltas), "every step is staged");
                assert_warm_matches_cold(&mut warm, &inst, family, &format!("after run {run}"));
            }
        });
    }

    #[test]
    fn warm_dispatch_matches_cold_dispatch(
        base in any_instance(),
        seed in any::<u64>(),
    ) {
        let mut inst = base.clone();
        let mut warm = WarmCache::new();
        churn(&mut inst, &mut warm, seed, 2);
        for kind in SolverKind::ALL {
            let w = match kind.solve_warm(&inst, 7, &mut warm) {
                Ok(w) => w,
                // `auto` alone declines warm sessions by contract (typed
                // boundary); cold dispatch still covers it.
                Err(distfl_core::CoreError::WarmUnsupported { kind: name }) => {
                    prop_assert_eq!(kind, SolverKind::Auto);
                    prop_assert_eq!(name, kind.name());
                    continue;
                }
                Err(e) => return Err(TestCaseError::fail(format!("{kind}: {e}"))),
            };
            let c = kind.solve(&inst, 7).unwrap();
            prop_assert_eq!(&w.solution, &c.solution, "kind {}", kind);
            prop_assert_eq!(&w.transcript, &c.transcript, "kind {}", kind);
            match (w.dual, c.dual) {
                (Some(dw), Some(dc)) => prop_assert_eq!(bits(dw.alpha()), bits(dc.alpha())),
                (None, None) => {}
                _ => prop_assert!(false, "dual presence differs for {}", kind),
            }
        }
    }
}
