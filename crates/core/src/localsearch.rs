//! Local search (add / drop / swap) — the classic UFL post-optimizer.
//!
//! Starting from any feasible solution, repeatedly apply the best
//! improving move among:
//!
//! * **add** — open one more facility (clients re-route to it if cheaper),
//! * **drop** — close an open facility (its clients re-route to the
//!   cheapest remaining open facility),
//! * **swap** — close one open facility and open a closed one.
//!
//! On metric instances a local optimum of this neighborhood is a
//! 3-approximation (Arya et al.), and in practice local search squeezes
//! the last percent out of any starting point — which is exactly how a
//! deployment would use the distributed algorithms: PayDual produces a
//! good placement in `O(k)` rounds, and an (inherently sequential /
//! centralized) local-search pass polishes it offline. The experiments
//! keep the two regimes separate for honesty; this module is the bridge
//! for users who want final quality.
//!
//! # Cached assignment costs
//!
//! [`optimize`] keeps, per client, the best and second-best service costs
//! over the *currently* open facilities, as dense `f64`/`u32` lanes. Each
//! round hoists the per-candidate work: every closed facility `b` gets a
//! dense `add_min` column (its link costs scattered over `+inf`), and the
//! assignment part of every add/drop/swap candidate is then one pass
//! over the caches (a scalar fold for add and drop, the chunked
//! [`kernels::assign_sum_swap`] for swaps) — adding `b` takes the
//! per-client min with its column (`min(x, +inf) = x` covers unlinked
//! clients exactly), dropping `a` falls back to the second-best where
//! `a` holds the best. A candidate is therefore O(n + m) with no
//! per-candidate scatter, instead of the naive O(Σ_j deg j) full
//! rescan. The per-client minimum of a set of `f64`s is the same value
//! no matter how it is computed, and every candidate sums those minima
//! in the same (ascending client, then ascending facility) order as the
//! full rescan, so every candidate cost — and hence the best-move
//! selection sequence — is bit-identical to [`optimize_reference`].

use distfl_instance::{kernels, FacilityId, Instance, Solution};

/// Outcome of a local-search run.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalSearchRun {
    /// The locally-optimal (or iteration-capped) solution.
    pub solution: Solution,
    /// Cost before optimization.
    pub initial_cost: f64,
    /// Cost after optimization.
    pub final_cost: f64,
    /// Improving moves applied.
    pub moves: u32,
    /// Whether a true local optimum was reached (false = iteration cap).
    pub converged: bool,
}

/// Cost of serving every client by its cheapest facility in `open`
/// (`None` if some client has no link into `open`).
fn assignment_cost(instance: &Instance, open: &[bool]) -> Option<f64> {
    let mut total = 0.0;
    for j in instance.clients() {
        let best = instance
            .client_links(j)
            .iter()
            .filter(|&(i, _)| open[i as usize])
            .map(|(_, c)| c)
            .fold(f64::INFINITY, f64::min);
        if !best.is_finite() {
            return None;
        }
        total += best;
    }
    Some(total)
}

/// Total cost of an open set (opening + optimal assignment), `None` if
/// infeasible.
fn open_set_cost(instance: &Instance, open: &[bool]) -> Option<f64> {
    let opening: f64 = instance
        .facilities()
        .filter(|i| open[i.index()])
        .map(|i| instance.opening_cost(i).value())
        .sum();
    assignment_cost(instance, open).map(|a| a + opening)
}

/// Per-client service-cost caches over the currently open set: the best
/// open facility (by cost, first link wins ties) and the best value with
/// that facility excluded. Dense SoA lanes so the candidate-pricing
/// kernels scan them directly.
struct ServiceCache {
    best_cost: Vec<f64>,
    best_fac: Vec<u32>,
    second_cost: Vec<f64>,
}

impl ServiceCache {
    fn new(n: usize) -> Self {
        ServiceCache {
            best_cost: vec![f64::INFINITY; n],
            best_fac: vec![u32::MAX; n],
            second_cost: vec![f64::INFINITY; n],
        }
    }

    fn resize(&mut self, n: usize) {
        self.best_cost.resize(n, f64::INFINITY);
        self.best_fac.resize(n, u32::MAX);
        self.second_cost.resize(n, f64::INFINITY);
    }

    fn rebuild(&mut self, instance: &Instance, open: &[bool]) {
        for j in instance.clients() {
            let (mut b1, mut bf, mut b2) = (f64::INFINITY, u32::MAX, f64::INFINITY);
            for (i, c) in instance.client_links(j).iter() {
                if !open[i as usize] {
                    continue;
                }
                if c < b1 {
                    b2 = b1;
                    b1 = c;
                    bf = i;
                } else if c < b2 {
                    b2 = c;
                }
            }
            self.best_cost[j.index()] = b1;
            self.best_fac[j.index()] = bf;
            self.second_cost[j.index()] = b2;
        }
    }
}

/// The opening-cost part of a candidate open set obtained by closing
/// `drop` and/or opening `add`: the same ascending-facility select-sum
/// the full rescan folds, so the additive order is preserved exactly.
fn opening_part(open: &[bool], f_cost: &[f64], drop: Option<usize>, add: Option<usize>) -> f64 {
    let mut opening = 0.0f64;
    for (i, &f) in f_cost.iter().enumerate() {
        let is_open = if Some(i) == drop {
            false
        } else if Some(i) == add {
            true
        } else {
            open[i]
        };
        if is_open {
            opening += f;
        }
    }
    opening
}

/// Reusable buffers for [`optimize_with`]: the cost/open lanes, the
/// per-client service caches, and the per-round candidate-pricing
/// columns. Every lane is either refilled from the instance on entry or
/// written before it is read within a round (the add column is refilled
/// per closed facility; drop/add/swap sums are only read for the
/// open/closed pattern that just wrote them), so values left over from an
/// earlier run — even of a different instance — are never observed.
#[derive(Default)]
pub(crate) struct LsScratch {
    f_cost: Vec<f64>,
    open: Vec<bool>,
    cache: Option<ServiceCache>,
    add_min: Vec<f64>,
    add_assign: Vec<f64>,
    drop_assign: Vec<f64>,
    swap_assign: Vec<f64>,
}

/// Runs best-improvement local search from `start`, with an iteration cap.
///
/// Evaluates candidates through the per-client `ServiceCache`; produces
/// the exact move sequence and costs of [`optimize_reference`].
///
/// # Panics
///
/// Panics if `start` is infeasible for `instance`.
pub fn optimize(instance: &Instance, start: &Solution, max_moves: u32) -> LocalSearchRun {
    optimize_with(instance, start, max_moves, &mut LsScratch::default())
}

/// [`optimize`] with caller-provided buffers — the warm-start path reuses
/// one [`LsScratch`] across solves so repeated polishing allocates only
/// the output record.
pub(crate) fn optimize_with(
    instance: &Instance,
    start: &Solution,
    max_moves: u32,
    scratch: &mut LsScratch,
) -> LocalSearchRun {
    let _span = distfl_obs::span("solver", "localsearch");
    start.check_feasible(instance).expect("local search needs a feasible start");
    let n = instance.num_clients();
    let m = instance.num_facilities();
    let f_cost = &mut scratch.f_cost;
    f_cost.clear();
    f_cost.extend(instance.facilities().map(|i| instance.opening_cost(i).value()));
    let open = &mut scratch.open;
    open.clear();
    open.extend(instance.facilities().map(|i| start.is_open(i)));
    let initial_cost = start.cost(instance).value();
    let cache = scratch.cache.get_or_insert_with(|| ServiceCache::new(n));
    cache.resize(n);
    cache.rebuild(instance, open);
    // Round-scoped buffers: the dense add column for one closed facility,
    // and the precomputed assignment sums per candidate.
    let add_min = &mut scratch.add_min;
    add_min.resize(n, f64::INFINITY);
    let add_assign = &mut scratch.add_assign;
    add_assign.resize(m, f64::INFINITY);
    let drop_assign = &mut scratch.drop_assign;
    drop_assign.resize(m, f64::INFINITY);
    let swap_assign = &mut scratch.swap_assign;
    swap_assign.resize(m * m, f64::INFINITY);
    // The optimal reassignment may already beat the given assignment.
    let mut current = cache.best_cost.iter().fold(0.0f64, |acc, &b| acc + b)
        + opening_part(open, f_cost, None, None);
    assert!(current.is_finite(), "feasible start");
    let mut moves = 0;
    let mut converged = false;

    while moves < max_moves {
        // Phase 1: assignment sums for every candidate, one pass each,
        // summed in ascending client order. Each closed facility's dense
        // `add_min` column (link costs over `+inf`) is built once and
        // shared by its add and all its swap candidates — the
        // per-candidate stamping this replaces dominated the round.
        for a in 0..m {
            if open[a] {
                let lanes = cache.best_cost.iter().zip(&cache.best_fac).zip(&cache.second_cost);
                drop_assign[a] = lanes.fold(0.0f64, |acc, ((&best, &fac), &second)| {
                    acc + if fac == a as u32 { second } else { best }
                });
            }
        }
        for b in 0..m {
            if open[b] {
                continue;
            }
            add_min.fill(f64::INFINITY);
            for (j, c) in instance.facility_links(FacilityId::new(b as u32)).iter() {
                add_min[j as usize] = c;
            }
            add_assign[b] = cache
                .best_cost
                .iter()
                .zip(&*add_min)
                .fold(0.0f64, |acc, (&best, &add)| acc + best.min(add));
            for a in 0..m {
                if open[a] {
                    swap_assign[a * m + b] = kernels::assign_sum_swap(
                        &cache.best_cost,
                        &cache.best_fac,
                        &cache.second_cost,
                        a as u32,
                        add_min,
                    );
                }
            }
        }

        // Phase 2: selection scan in the reference enumeration order. An
        // infeasible candidate sums to `+inf` and fails the improvement
        // test, exactly as the rescan's `None` is skipped.
        let mut best: Option<(Option<usize>, Option<usize>, f64)> = None;
        let mut consider = |drop: Option<usize>, add: Option<usize>, assign: f64| {
            let cost = assign + opening_part(open, f_cost, drop, add);
            if cost < current - 1e-9 && best.as_ref().is_none_or(|(_, _, b)| cost < *b) {
                best = Some((drop, add, cost));
            }
        };
        for a in 0..m {
            if !open[a] {
                // Add.
                consider(None, Some(a), add_assign[a]);
            } else {
                // Drop.
                consider(Some(a), None, drop_assign[a]);
                // Swap a -> b.
                for b in (0..m).filter(|&b| !open[b]) {
                    consider(Some(a), Some(b), swap_assign[a * m + b]);
                }
            }
        }
        match best {
            Some((drop, add, cost)) => {
                if let Some(a) = drop {
                    open[a] = false;
                }
                if let Some(b) = add {
                    open[b] = true;
                }
                current = cost;
                moves += 1;
                cache.rebuild(instance, open);
            }
            None => {
                converged = true;
                break;
            }
        }
    }

    distfl_obs::counter("solver.localsearch.moves").add(u64::from(moves));
    finish(instance, open.clone(), initial_cost, moves, converged)
}

/// Builds the final run record from a locally-optimized open set.
fn finish(
    instance: &Instance,
    open: Vec<bool>,
    initial_cost: f64,
    moves: u32,
    converged: bool,
) -> LocalSearchRun {
    let assignment: Vec<FacilityId> = instance
        .clients()
        .map(|j| {
            // First-win strict `<` over the id-sorted row = the
            // `(cost, facility id)`-lexicographic minimum.
            let mut best: Option<(u32, f64)> = None;
            for (i, c) in instance.client_links(j).iter() {
                if open[i as usize] && best.is_none_or(|(_, bc)| c < bc) {
                    best = Some((i, c));
                }
            }
            FacilityId::new(best.expect("local-search open sets stay feasible").0)
        })
        .collect();
    let solution =
        Solution::from_assignment(instance, assignment).expect("assignment over existing links");
    let final_cost = solution.cost(instance).value();
    LocalSearchRun { solution, initial_cost, final_cost, moves, converged }
}

/// Runs best-improvement local search by fully re-pricing every candidate
/// open set. Retained as the reference implementation: `bench solvers`
/// measures [`optimize`] against it and the solver-equivalence proptests
/// pin bit-identical output.
///
/// # Panics
///
/// Panics if `start` is infeasible for `instance`.
pub fn optimize_reference(instance: &Instance, start: &Solution, max_moves: u32) -> LocalSearchRun {
    start.check_feasible(instance).expect("local search needs a feasible start");
    let m = instance.num_facilities();
    let mut open: Vec<bool> = instance.facilities().map(|i| start.is_open(i)).collect();
    let initial_cost = start.cost(instance).value();
    let mut current = open_set_cost(instance, &open).expect("feasible start");
    // The optimal reassignment may already beat the given assignment.
    let mut moves = 0;
    let mut converged = false;

    while moves < max_moves {
        let mut best: Option<(Vec<bool>, f64)> = None;
        let consider = |candidate: Vec<bool>, best: &mut Option<(Vec<bool>, f64)>| {
            if let Some(cost) = open_set_cost(instance, &candidate) {
                if cost < current - 1e-9 && best.as_ref().is_none_or(|(_, b)| cost < *b) {
                    *best = Some((candidate, cost));
                }
            }
        };
        for a in 0..m {
            if !open[a] {
                // Add.
                let mut cand = open.clone();
                cand[a] = true;
                consider(cand, &mut best);
            } else {
                // Drop.
                let mut cand = open.clone();
                cand[a] = false;
                consider(cand, &mut best);
                // Swap a -> b.
                for b in 0..m {
                    if !open[b] {
                        let mut cand = open.clone();
                        cand[a] = false;
                        cand[b] = true;
                        consider(cand, &mut best);
                    }
                }
            }
        }
        match best {
            Some((next, cost)) => {
                open = next;
                current = cost;
                moves += 1;
            }
            None => {
                converged = true;
                break;
            }
        }
    }

    finish(instance, open, initial_cost, moves, converged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paydual::{PayDual, PayDualParams};
    use crate::runner::FlAlgorithm;
    use distfl_instance::generators::{Euclidean, InstanceGenerator, UniformRandom};
    use distfl_lp::exact;

    #[test]
    fn never_worse_and_often_better() {
        for seed in 0..6 {
            let inst = UniformRandom::new(8, 30).unwrap().generate(seed).unwrap();
            let coarse =
                PayDual::new(PayDualParams::with_phases(2)).run(&inst, 1).unwrap().solution;
            let run = optimize(&inst, &coarse, 200);
            run.solution.check_feasible(&inst).unwrap();
            assert!(run.final_cost <= run.initial_cost + 1e-9, "seed {seed}");
        }
    }

    #[test]
    fn reaches_the_optimum_from_a_bad_start_on_small_instances() {
        let mut improved_to_optimal = 0;
        for seed in 0..6 {
            let inst = UniformRandom::new(6, 15).unwrap().generate(seed).unwrap();
            // Worst reasonable start: open everything.
            let assignment: Vec<FacilityId> =
                inst.clients().map(|j| inst.cheapest_link(j).0).collect();
            let all_open = Solution::new(&inst, vec![true; 6], assignment).unwrap();
            let run = optimize(&inst, &all_open, 500);
            assert!(run.converged);
            let opt = exact::solve(&inst).unwrap().cost.value();
            if (run.final_cost - opt).abs() < 1e-9 {
                improved_to_optimal += 1;
            }
            assert!(run.final_cost <= opt * 3.0 + 1e-9, "local optimum above 3x OPT");
        }
        assert!(improved_to_optimal >= 3, "local search should usually find OPT here");
    }

    #[test]
    fn local_optimum_is_stable() {
        let inst = Euclidean::new(6, 20).unwrap().generate(3).unwrap();
        let (greedy, _) = crate::greedy::solve(&inst);
        let first = optimize(&inst, &greedy, 500);
        assert!(first.converged);
        // Re-running from the local optimum makes no further moves.
        let second = optimize(&inst, &first.solution, 500);
        assert_eq!(second.moves, 0);
        assert!((second.final_cost - first.final_cost).abs() < 1e-9);
    }

    #[test]
    fn iteration_cap_is_respected() {
        let inst = UniformRandom::new(8, 30).unwrap().generate(9).unwrap();
        let assignment: Vec<FacilityId> = inst.clients().map(|j| inst.cheapest_link(j).0).collect();
        let all_open = Solution::new(&inst, vec![true; 8], assignment).unwrap();
        let run = optimize(&inst, &all_open, 1);
        assert!(run.moves <= 1);
    }

    #[test]
    fn end_to_end_pipeline_distributed_then_polish() {
        let inst = Euclidean::new(10, 40).unwrap().generate(4).unwrap();
        let fast = PayDual::new(PayDualParams::with_phases(4)).run(&inst, 2).unwrap();
        let run = optimize(&inst, &fast.solution, 300);
        let opt = exact::solve(&inst).unwrap().cost.value();
        let before = fast.solution.cost(&inst).value() / opt;
        let after = run.final_cost / opt;
        assert!(after <= before + 1e-9);
        assert!(after < 1.3, "polished ratio {after} should be near-optimal");
    }
}
