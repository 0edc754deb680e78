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
//! [`optimize`] keeps, per client, the best and second-best open
//! facility over the *currently* open set (cost and id, `(cost, id)`
//! order), as dense `f64`/`u32` lanes. A round prices every candidate
//! from those lanes without rescanning a link row:
//!
//! * **Block pricing.** The links of up to eight closed facilities are
//!   scattered over `+inf` into one client-major `n × 8` block, and
//!   [`kernels::assign_sum_swap`] prices the block in one pass per open
//!   facility `a` (the swaps `a → b`) plus one pass with no drop (the
//!   adds). Lane `b` folds `min(base(j), link_b(j))` in ascending client
//!   order, where `base(j)` falls back to the second-best where `a` holds
//!   the best; `min(x, +inf) = x` covers unlinked clients exactly. A drop
//!   is one scalar fold of `base(j)`.
//! * **Select while pricing.** The round keeps its cheapest candidate and
//!   that candidate's rank in the reference's enumeration order, so the
//!   order blocks are priced in does not matter. A candidate's opening
//!   part is folded over the ascending open list, and is skipped when the
//!   assignment sum plus a floor already loses: the opening fold without
//!   `a` for a swap, the current one for an add. Rounded addition of
//!   non-negative terms is monotone, so neither the floor nor the sum on
//!   top of it can exceed the exact value.
//! * **Refresh by the move.** An accepted move inserts the opened
//!   facility into the caches of its clients and rescans only the clients
//!   whose best or second-best facility closed, instead of every link.
//!
//! The per-client minimum of a set of `f64`s is the same value no matter
//! how it is computed, and every candidate sums those minima in the same
//! (ascending client, then ascending facility) order as the full rescan,
//! so every candidate cost — and hence the best-move selection sequence —
//! is bit-identical to [`optimize_reference`]. Per round that is O(n) per
//! drop and O(n) per (block, open facility) pair, with O(8n + m) scratch.

use distfl_instance::{kernels, ClientId, FacilityId, Instance, Solution};

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
/// and second-best open facility and their costs, in `(cost, facility
/// id)` order (so equal costs go to the lower id, as in [`finish`]).
/// Dense SoA lanes so the candidate-pricing kernel scans them directly.
#[derive(Default)]
struct ServiceCache {
    best_cost: Vec<f64>,
    best_fac: Vec<u32>,
    second_cost: Vec<f64>,
    second_fac: Vec<u32>,
}

impl ServiceCache {
    fn resize(&mut self, n: usize) {
        self.best_cost.resize(n, f64::INFINITY);
        self.best_fac.resize(n, NONE);
        self.second_cost.resize(n, f64::INFINITY);
        self.second_fac.resize(n, NONE);
    }

    fn rebuild(&mut self, instance: &Instance, open: &[bool]) {
        for j in 0..instance.num_clients() {
            self.rescan(instance, open, j);
        }
    }

    /// Recomputes client `j` from its link row. The row is id-sorted, so a
    /// strict `<` keeps the lower id on equal costs.
    fn rescan(&mut self, instance: &Instance, open: &[bool], j: usize) {
        let (mut b1, mut bf, mut b2, mut sf) = (f64::INFINITY, NONE, f64::INFINITY, NONE);
        for (i, c) in instance.client_links(ClientId::new(j as u32)).iter() {
            if !open[i as usize] {
                continue;
            }
            if c < b1 {
                (b2, sf) = (b1, bf);
                (b1, bf) = (c, i);
            } else if c < b2 {
                (b2, sf) = (c, i);
            }
        }
        self.best_cost[j] = b1;
        self.best_fac[j] = bf;
        self.second_cost[j] = b2;
        self.second_fac[j] = sf;
    }

    /// Brings the caches up to date after `open` closed `dropped` and/or
    /// opened `added` ([`NONE`] for neither). The opened facility is
    /// inserted into each of its clients first; a client whose best or
    /// second-best is then the closed facility is rescanned, and every
    /// other client keeps both entries, which are still its top two.
    fn refresh(&mut self, instance: &Instance, open: &[bool], dropped: u32, added: u32) {
        if added != NONE {
            for (j, c) in instance.facility_links(FacilityId::new(added)).iter() {
                let j = j as usize;
                let below = |cost: f64, fac: u32| c < cost || (c == cost && added < fac);
                if below(self.best_cost[j], self.best_fac[j]) {
                    self.second_cost[j] = self.best_cost[j];
                    self.second_fac[j] = self.best_fac[j];
                    self.best_cost[j] = c;
                    self.best_fac[j] = added;
                } else if below(self.second_cost[j], self.second_fac[j]) {
                    self.second_cost[j] = c;
                    self.second_fac[j] = added;
                }
            }
        }
        if dropped != NONE {
            for &j in instance.facility_links(FacilityId::new(dropped)).ids {
                let j = j as usize;
                if self.best_fac[j] == dropped || self.second_fac[j] == dropped {
                    self.rescan(instance, open, j);
                }
            }
        }
    }
}

/// "No facility": the drop id of an add, the add id of a drop, and the
/// cache entry of a client with fewer than two open links.
const NONE: u32 = u32::MAX;

/// The opening part of the open set with `drop` closed and `add` opened
/// ([`NONE`] for neither): the ascending-facility sum the full rescan
/// folds, so the additive order is preserved exactly.
fn opening_fold(open_ids: &[u32], f_cost: &[f64], drop: u32, add: u32) -> f64 {
    let (below, above) = open_ids.split_at(open_ids.partition_point(|&i| i < add));
    let fold = |acc: f64, ids: &[u32]| {
        ids.iter().filter(|&&i| i != drop).fold(acc, |acc, &i| acc + f_cost[i as usize])
    };
    let acc = fold(0.0, below);
    fold(if add == NONE { acc } else { acc + f_cost[add as usize] }, above)
}

/// The cheapest candidate of a round so far, with its rank in the
/// reference's enumeration order — `(a, 0)` adds or drops facility `a`,
/// `(a, 1 + b)` swaps `a` out for `b` — so that a candidate wins exactly
/// when the reference's first strict minimum would be it, whatever order
/// the candidates are priced in.
struct Pick {
    /// Improvement threshold: a candidate must cost strictly less.
    limit: f64,
    best: Option<(f64, (usize, usize))>,
}

impl Pick {
    fn beats(&self, cost: f64, rank: (usize, usize)) -> bool {
        cost < self.limit && self.best.is_none_or(|(c, r)| cost < c || (cost == c && rank < r))
    }

    /// Offers the candidate whose assignment part is `assign` and whose
    /// opening part is `opening()`, at least `floor`. `cost` is monotone
    /// in the opening part, so a candidate that loses at `assign + floor`
    /// loses at its exact cost and the opening fold is skipped.
    fn offer(&mut self, assign: f64, floor: f64, rank: (usize, usize), opening: impl Fn() -> f64) {
        if self.beats(assign + floor, rank) {
            let cost = assign + opening();
            if self.beats(cost, rank) {
                self.best = Some((cost, rank));
            }
        }
    }
}

/// Reusable buffers for [`optimize_with`]: the cost/open lanes, the
/// per-client service caches, the round's open and closed id lists with
/// each open facility's drop floor, and the `n × 8` pricing block. Every
/// lane is refilled on entry (the block to all `+inf`) or rewritten each
/// round before it is read, and a block's scattered links are cleared
/// after it is priced, so values left over from an earlier run — even of
/// a different instance — are never observed. No lane grows past
/// `8·n + m` entries.
#[derive(Default)]
pub(crate) struct LsScratch {
    f_cost: Vec<f64>,
    open: Vec<bool>,
    cache: ServiceCache,
    open_ids: Vec<u32>,
    closed_ids: Vec<u32>,
    floors: Vec<f64>,
    block: Vec<f64>,
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
    let LsScratch { f_cost, open, cache, open_ids, closed_ids, floors, block } = scratch;
    f_cost.clear();
    f_cost.extend(instance.facilities().map(|i| instance.opening_cost(i).value()));
    open.clear();
    open.extend(instance.facilities().map(|i| start.is_open(i)));
    let initial_cost = start.cost(instance).value();
    cache.resize(n);
    cache.rebuild(instance, open);
    block.clear();
    block.resize(n * kernels::SWAP_LANES, f64::INFINITY);
    let ids_of = |ids: &mut Vec<u32>, open: &[bool], want: bool| {
        ids.clear();
        ids.extend((0..m as u32).filter(|&i| open[i as usize] == want));
    };
    ids_of(open_ids, open, true);
    // The optimal reassignment may already beat the given assignment.
    let mut current = cache.best_cost.iter().fold(0.0f64, |acc, &b| acc + b)
        + opening_fold(open_ids, f_cost, NONE, NONE);
    assert!(current.is_finite(), "feasible start");
    let mut moves = 0;
    let mut converged = false;

    while moves < max_moves {
        ids_of(open_ids, open, true);
        ids_of(closed_ids, open, false);
        let ServiceCache { best_cost, best_fac, second_cost, .. } = &*cache;
        // An infeasible candidate sums to `+inf` and never beats the
        // finite limit, exactly as the rescan's `None` is skipped.
        let mut pick = Pick { limit: current - 1e-9, best: None };
        // Drops. The opening fold without `a` is exact for the drop and
        // the floor of every swap out of `a`.
        floors.clear();
        for &a in open_ids.iter() {
            let floor = opening_fold(open_ids, f_cost, a, NONE);
            floors.push(floor);
            let assign = best_cost
                .iter()
                .zip(best_fac)
                .zip(second_cost)
                .fold(0.0f64, |acc, ((&best, &fac), &second)| {
                    acc + if fac == a { second } else { best }
                });
            pick.offer(assign, floor, (a as usize, 0), || floor);
        }
        // Adds and swaps, eight closed facilities per block.
        let current_opening = opening_fold(open_ids, f_cost, NONE, NONE);
        for chunk in closed_ids.chunks(kernels::SWAP_LANES) {
            let scatter = |block: &mut [f64], clear: bool| {
                for (l, &b) in chunk.iter().enumerate() {
                    for (j, c) in instance.facility_links(FacilityId::new(b)).iter() {
                        block[j as usize * kernels::SWAP_LANES + l] =
                            if clear { f64::INFINITY } else { c };
                    }
                }
            };
            scatter(block, false);
            let adds = kernels::assign_sum_swap(best_cost, best_fac, second_cost, NONE, block);
            for (&b, &assign) in chunk.iter().zip(&adds) {
                pick.offer(assign, current_opening, (b as usize, 0), || {
                    opening_fold(open_ids, f_cost, NONE, b)
                });
            }
            for (&a, &floor) in open_ids.iter().zip(floors.iter()) {
                let swaps = kernels::assign_sum_swap(best_cost, best_fac, second_cost, a, block);
                for (&b, &assign) in chunk.iter().zip(&swaps) {
                    pick.offer(assign, floor, (a as usize, 1 + b as usize), || {
                        opening_fold(open_ids, f_cost, a, b)
                    });
                }
            }
            scatter(block, true);
        }
        let Some((cost, (a, r))) = pick.best else {
            converged = true;
            break;
        };
        let (dropped, added) = match r {
            0 if open[a] => (a as u32, NONE),
            0 => (NONE, a as u32),
            _ => (a as u32, (r - 1) as u32),
        };
        if dropped != NONE {
            open[dropped as usize] = false;
        }
        if added != NONE {
            open[added as usize] = true;
        }
        current = cost;
        moves += 1;
        cache.refresh(instance, open, dropped, added);
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
    use distfl_instance::{Cost, InstanceBuilder};
    use distfl_lp::exact;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Every facility open, each client at its cheapest link.
    fn all_open(inst: &Instance) -> Solution {
        let assignment = inst.clients().map(|j| inst.cheapest_link(j).0).collect();
        Solution::new(inst, vec![true; inst.num_facilities()], assignment).unwrap()
    }

    /// Link and opening costs from a few levels, so many clients see equal
    /// costs at several facilities; about half the client rows keep one
    /// link plus a few, so many clients have a single open link.
    fn tie_heavy(m: usize, n: usize, seed: u64) -> Instance {
        const LEVELS: [f64; 5] = [0.0, 1.0, 2.0, 2.0, 5.0];
        let mut rng = StdRng::seed_from_u64(seed);
        let level = |rng: &mut StdRng| Cost::new(LEVELS[rng.gen_range(0..LEVELS.len())]).unwrap();
        let mut b = InstanceBuilder::new();
        let facilities: Vec<_> = (0..m)
            .map(|i| b.add_facility(if i == 0 { Cost::new(2.0).unwrap() } else { level(&mut rng) }))
            .collect();
        for _ in 0..n {
            let j = b.add_client();
            let sparse = rng.gen_bool(0.5);
            let first = rng.gen_range(0..m);
            for (k, &i) in facilities.iter().enumerate() {
                if !sparse || k == first || rng.gen_bool(0.2) {
                    b.link(j, i, level(&mut rng)).unwrap();
                }
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn move_refresh_matches_a_full_rebuild() {
        // After `t` moves the scratch holds the caches as the move refresh
        // left them; a fresh rebuild over the same open set must agree.
        let mut checked = 0;
        for seed in 0..40 {
            let inst = tie_heavy(2 + (seed as usize % 19), 3 + (seed as usize * 7) % 30, seed);
            for start in [crate::greedy::solve(&inst).0, all_open(&inst)] {
                let total = optimize(&inst, &start, u32::MAX).moves;
                for cap in 1..=total {
                    let mut scratch = LsScratch::default();
                    assert_eq!(optimize_with(&inst, &start, cap, &mut scratch).moves, cap);
                    let cache = &scratch.cache;
                    let mut fresh = ServiceCache::default();
                    fresh.resize(inst.num_clients());
                    fresh.rebuild(&inst, &scratch.open);
                    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    let ctx = format!("seed {seed} move {cap}");
                    assert_eq!(bits(&cache.best_cost), bits(&fresh.best_cost), "{ctx}");
                    assert_eq!(cache.best_fac, fresh.best_fac, "{ctx}");
                    assert_eq!(bits(&cache.second_cost), bits(&fresh.second_cost), "{ctx}");
                    assert_eq!(cache.second_fac, fresh.second_fac, "{ctx}");
                    checked += 1;
                }
            }
        }
        assert!(checked >= 100, "only {checked} moves checked");
    }

    #[test]
    fn scratch_stays_linear_in_clients_and_facilities() {
        // One client and 3,000 facilities: an `m × m` candidate table
        // would hold 9,000,000 entries.
        let (m, n) = (3000, 1);
        let mut b = InstanceBuilder::new();
        let j = b.add_client();
        for i in 0..m {
            let f = b.add_facility(Cost::new(1.0 + (i % 7) as f64).unwrap());
            b.link(j, f, Cost::new(1.0 + (i % 11) as f64).unwrap()).unwrap();
        }
        let inst = b.build().unwrap();
        let mut scratch = LsScratch::default();
        let run = optimize_with(&inst, &crate::greedy::solve(&inst).0, 100, &mut scratch);
        assert_eq!(run, optimize_reference(&inst, &crate::greedy::solve(&inst).0, 100));
        let LsScratch { f_cost, open, cache, open_ids, closed_ids, floors, block } = &scratch;
        let lanes = [
            f_cost.len(),
            open.len(),
            cache.best_cost.len(),
            cache.best_fac.len(),
            cache.second_cost.len(),
            cache.second_fac.len(),
            open_ids.len(),
            closed_ids.len(),
            floors.len(),
            block.len(),
        ];
        assert!(lanes.iter().all(|&len| len <= 8 * n + m), "lane lengths {lanes:?}");
    }

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
