//! Sequential star greedy (Hochbaum) — the `H_n`-approximation yardstick.
//!
//! Repeatedly pick the *star* (a facility plus a subset of unserved linked
//! clients) minimizing `(residual opening cost + Σ connection costs) /
//! #clients`, open the facility, and serve the star. This is the algorithm
//! whose continuous selection order the distributed PayDual compresses into
//! `O(k)` rounds; for non-metric instances its `H_n` factor is optimal (up
//! to constants) unless P = NP.
//!
//! The implementation also records the classic dual-fitting certificate:
//! client `j` served at ratio `r` gets `α_j = r`, and `α / H_n` is
//! dual-feasible — so the greedy run itself certifies a lower bound of
//! `cost / H_n` on `OPT`.
//!
//! # Lazy-evaluation heap
//!
//! [`solve_detailed`] avoids the naive per-iteration rescan of every
//! facility's star. Once a facility's star ratio is computed it is cached
//! in a min-heap keyed by `(ratio, facility id)`. Serving clients only
//! *shrinks* the unserved pool, and a star available after a removal was
//! available before it, so a facility's best ratio is monotone
//! non-decreasing while the facility stays closed — cached keys are lower
//! bounds. (Opening a facility drops its residual to zero, which *can*
//! lower its ratio; that only happens to the facility just selected, whose
//! key is recomputed and reinserted immediately.) Pop → recompute →
//! compare against the next cached key → select or reinsert therefore
//! yields exactly the naive selection sequence, including `(ratio,
//! facility)` tie-breaks; [`solve_detailed_reference`] retains the naive
//! scan and the equivalence is pinned bit-for-bit by proptests.
//!
//! # Scans that stop at the ratio minimum
//!
//! A re-evaluation prices only what can still win. The `(cost, client)`
//! sorted rows are read-only during a run: a per-row cursor skips the
//! served prefix lazily and the scan skips any later served client, so
//! nothing is compacted or copied. A scan stops before the next sorted
//! cost `c` once `c > best·(1 + 8·len·2⁻⁵²)` (`len` the row's length from
//! its cursor): past
//! that, every longer prefix averages at least `best` even after the
//! prefix chain's rounding (the bound is worked out on `star_scan`). The
//! best star averages about two clients, but the clients served since the
//! row's cursor sit among the unserved ones and are read to be skipped:
//! on the capb-shaped 100×1000 row of `bench solvers` a solve reads about
//! 114 entries per heap pop of a row of 1,000.
//!
//! `star_scan` is the crate's one star rule: GreedyBucket
//! ([`crate::bucket`]) and the executed straw-man ([`crate::seqdist`])
//! price their facilities' stars with it too. A solve adds its heap pops
//! and the entries its scans read to the `solver.greedy.heap_pops` and
//! `solver.greedy.entries_scanned` counters; outputs cannot show a scan
//! that reads past its stop, so `bench solvers --smoke` gates the second.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use distfl_instance::{ClientId, FacilityId, Instance, Solution};
use distfl_lp::DualSolution;

use crate::error::CoreError;
use crate::runner::{FlAlgorithm, Outcome};
use crate::theory::harmonic;

/// The sequential star-greedy baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StarGreedy;

impl StarGreedy {
    /// Creates the baseline.
    pub fn new() -> Self {
        StarGreedy
    }
}

/// The best star of facility `i` over currently unserved clients:
/// `(ratio, clients)` minimizing `(residual_f + Σ c)/k`, or `None` if no
/// unserved client is linked.
fn best_star(
    instance: &Instance,
    i: FacilityId,
    residual_f: f64,
    served: &[bool],
) -> Option<(f64, Vec<distfl_instance::ClientId>)> {
    let mut costs: Vec<(f64, distfl_instance::ClientId)> = instance
        .facility_links(i)
        .iter()
        .filter(|&(j, _)| !served[j as usize])
        .map(|(j, c)| (c, ClientId::new(j)))
        .collect();
    if costs.is_empty() {
        return None;
    }
    costs.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut best_ratio = f64::INFINITY;
    let mut best_k = 0;
    let mut prefix = 0.0;
    for (k, (c, _)) in costs.iter().enumerate() {
        prefix += c;
        let ratio = (residual_f + prefix) / (k + 1) as f64;
        if ratio < best_ratio {
            best_ratio = ratio;
            best_k = k + 1;
        }
    }
    let clients = costs[..best_k].iter().map(|&(_, j)| j).collect();
    Some((best_ratio, clients))
}

/// Full output of a greedy run.
#[derive(Debug, Clone, PartialEq)]
pub struct GreedyRun {
    /// The greedy solution.
    pub solution: Solution,
    /// Per-client service ratio (the dual certificate).
    pub ratios: Vec<f64>,
    /// Number of stars picked (iterations of the outer loop).
    pub iterations: u32,
}

/// Runs star greedy, returning the solution and the per-client service
/// ratios (the dual certificate).
pub fn solve(instance: &Instance) -> (Solution, Vec<f64>) {
    let run = solve_detailed(instance);
    (run.solution, run.ratios)
}

/// Heap key ordered by `(ratio, facility id)`. Ratios are finite and
/// non-negative, so `total_cmp` coincides with numeric order.
#[derive(Debug, Clone, Copy, PartialEq)]
struct StarKey {
    ratio: f64,
    fid: u32,
}

impl Eq for StarKey {}

impl Ord for StarKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.ratio.total_cmp(&other.ratio).then(self.fid.cmp(&other.fid))
    }
}

impl PartialOrd for StarKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Per-facility link rows sorted by `(cost, client id)` — the order
/// `best_star` sorts into — in SoA form: split client-id/cost lanes behind
/// shared offsets.
///
/// A run never writes the rows. Serving is monotone, so each row keeps a
/// cursor past its served prefix, advanced lazily when the row is scanned;
/// served clients past the cursor are skipped by the scan itself. The
/// unserved entries a scan visits are exactly the subsequence the
/// reference's filter-then-sort produces, so prefix sums — and therefore
/// ratios — stay bit-identical to it, and warm solves run straight from
/// their cached rows.
#[derive(Default)]
pub(crate) struct SortedStars {
    pub(crate) offsets: Vec<u32>,
    pub(crate) ids: Vec<u32>,
    pub(crate) costs: Vec<f64>,
}

impl SortedStars {
    pub(crate) fn build(instance: &Instance) -> Self {
        let mut stars = SortedStars::default();
        stars.rebuild(instance, &mut Vec::new());
        stars
    }

    /// Re-sorts every row of `instance` into `self`, reusing its buffers
    /// and the caller's per-row sort scratch. Ids are unique within a row,
    /// so the unstable sort on `(cost, id)` gives the one sorted order.
    pub(crate) fn rebuild(&mut self, instance: &Instance, scratch: &mut Vec<(f64, u32)>) {
        let SortedStars { offsets, ids, costs } = self;
        offsets.clear();
        offsets.reserve(instance.num_facilities() + 1);
        ids.clear();
        ids.reserve(instance.num_links());
        costs.clear();
        costs.reserve(instance.num_links());
        offsets.push(0u32);
        for i in instance.facilities() {
            scratch.clear();
            scratch.extend(instance.facility_links(i).iter().map(|(j, c)| (c, j)));
            scratch.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            ids.extend(scratch.iter().map(|&(_, j)| j));
            costs.extend(scratch.iter().map(|&(c, _)| c));
            offsets.push(ids.len() as u32);
        }
    }

    /// The full row of facility `i` as `(ids, costs)` lanes.
    pub(crate) fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        (&self.ids[lo..hi], &self.costs[lo..hi])
    }

    /// The rest of facility `i`'s row from its first unserved entry, after
    /// moving the row's `cursor` past the served prefix.
    fn live(&self, i: usize, cursor: &mut u32, served: &[bool]) -> (&[u32], &[f64]) {
        let hi = self.offsets[i + 1] as usize;
        let mut lo = *cursor as usize;
        while lo < hi && served[self.ids[lo] as usize] {
            lo += 1;
        }
        *cursor = lo as u32;
        (&self.ids[lo..hi], &self.costs[lo..hi])
    }
}

/// The best star of one `(cost, client id)`-sorted row over the entries
/// whose client `served` leaves out: the least ratio `(residual +
/// prefix_k) / k` over prefixes of the unserved entries, the first `k`
/// attaining it (`(+inf, 0)` when none is unserved), and the number of
/// entries the scan read, the one that stopped it included. The prefix
/// chain and the strict-`<` updates are the reference's. The one star rule
/// of the crate: the greedy, GreedyBucket and the straw-man in `seqdist`
/// all price stars here.
///
/// **The stop rule.** The scan stops before the next unserved cost `c`
/// once `c > best·(1 + 8·len·2⁻⁵²)`, `len` the slice's length. In real
/// arithmetic `c ≥ best` already suffices: every later cost is at least
/// `c`, so every longer prefix averages at least `best`. The prefix chain
/// is rounded, though. With `u = 2⁻⁵³` and `best` found at prefix `k`,
/// `residual + p̂_k` is at least `k·best·(1 − 2u)` (`p̂` the computed
/// prefix), and the computed ratio of a longer prefix `t` is within a
/// relative `(t − k + 2)·u` of the real `(residual + p̂_k + c_{k+1} + … +
/// c_t) / t`. Once `c` exceeds `best` by a relative `5·len·u`, that real
/// value clears `best` by more than the rounding, so no later computed
/// ratio falls below `best` and the strict `<` never fires again. The
/// factor `8·len·2⁻⁵² = 16·len·u` covers that and the rounding of the
/// threshold itself; costs are zero or in `[2⁻²⁵⁶, 2²⁵⁶]`, so no sum
/// underflows to a subnormal or overflows. A cost equal to `best` is still
/// scanned: stopping there changes tie-heavy runs whose costs are inexact
/// binary fractions (the sweep in `tests/solver_equivalence.rs` pins
/// this).
#[inline]
pub(crate) fn star_scan(
    ids: &[u32],
    costs: &[f64],
    residual: f64,
    served: impl Fn(u32) -> bool,
) -> (f64, usize, usize) {
    let slack = 1.0 + (8 * costs.len()) as f64 * f64::EPSILON;
    let (mut best, mut stop, mut best_k) = (f64::INFINITY, f64::INFINITY, 0usize);
    let (mut prefix, mut k, mut visited) = (0.0f64, 0usize, 0usize);
    for (&j, &c) in ids.iter().zip(costs) {
        visited += 1;
        if served(j) {
            continue;
        }
        if c > stop {
            break;
        }
        prefix += c;
        k += 1;
        let ratio = (residual + prefix) / k as f64;
        if ratio < best {
            (best, best_k) = (ratio, k);
            stop = best * slack;
        }
    }
    (best, best_k, visited)
}

/// A star row for [`star_scan`] over one facility's link costs: the link
/// positions sorted by `(cost, position)`, and the costs in that order.
/// Positions in an id-sorted link table order like the client ids, so the
/// row has the `(cost, client id)` order the reference sorts into.
pub(crate) fn star_row(costs: &[f64]) -> (Vec<u32>, Vec<f64>) {
    let mut row: Vec<(u32, f64)> = (0..).zip(costs.iter().copied()).collect();
    row.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    row.into_iter().unzip()
}

/// Refills `seeds` with the per-facility iteration-0 star ratios of
/// `stars` — the exact values the heap is seeded with.
pub(crate) fn seed_ratios(instance: &Instance, stars: &SortedStars, seeds: &mut Vec<f64>) {
    seeds.clear();
    seeds.extend(instance.facilities().map(|i| {
        let (ids, costs) = stars.row(i.index());
        seed_ratio(ids, costs, instance.opening_cost(i).value())
    }));
}

/// The iteration-0 star ratio of one sorted row: the scan with nothing
/// served. `NaN` marks a facility with no linked clients (nothing to
/// seed); [`star_scan`] never returns `NaN` on validated costs, so the
/// sentinel is unambiguous.
pub(crate) fn seed_ratio(ids: &[u32], costs: &[f64], opening: f64) -> f64 {
    if costs.is_empty() {
        f64::NAN
    } else {
        star_scan(ids, costs, opening, |_| false).0
    }
}

/// Reusable greedy run state; `run_greedy` resets it per call, so warm
/// solves allocate nothing.
#[derive(Default)]
pub(crate) struct GreedyScratch {
    served: Vec<bool>,
    opened: Vec<bool>,
    assignment: Vec<FacilityId>,
    /// Per facility, the absolute lane index its row's served prefix ends
    /// at.
    cursor: Vec<u32>,
    heap: BinaryHeap<std::cmp::Reverse<StarKey>>,
}

/// The lazy-evaluation heap run over prepared rows and iteration-0 seeds.
///
/// `stars` must hold the `(cost, client id)`-sorted rows of `instance`,
/// and `seeds[i]` the exact iteration-0 ratio of facility `i` (`NaN` for
/// empty rows). Both the cold path and the warm caches funnel into this
/// loop, so their outputs are identical by construction: the heap's pop
/// order is a pure function of its *content* (keys are totally ordered and
/// per-facility unique), never of push order.
///
/// Reports its heap pops and the entries its scans read to the
/// `solver.greedy.heap_pops` and `solver.greedy.entries_scanned` counters.
pub(crate) fn run_greedy(
    instance: &Instance,
    stars: &SortedStars,
    seeds: &[f64],
    scratch: &mut GreedyScratch,
) -> GreedyRun {
    let n = instance.num_clients();
    let m = instance.num_facilities();
    let GreedyScratch { served, opened, assignment, cursor, heap } = scratch;
    served.clear();
    served.resize(n, false);
    opened.clear();
    opened.resize(m, false);
    assignment.clear();
    assignment.resize(n, FacilityId::new(0));
    cursor.clear();
    cursor.extend_from_slice(&stars.offsets[..m]);
    let mut ratios = vec![0.0f64; n];
    let mut remaining = n;
    let mut iterations = 0u32;
    let (mut pops, mut scanned) = (0u64, 0u64);

    heap.clear();
    for (i, &seed) in seeds.iter().enumerate() {
        if !seed.is_nan() {
            heap.push(std::cmp::Reverse(StarKey { ratio: seed, fid: i as u32 }));
        }
    }

    while remaining > 0 {
        let std::cmp::Reverse(key) =
            heap.pop().expect("instance invariant: every client is linked, so a star exists");
        pops += 1;
        let i = FacilityId::new(key.fid);
        let residual = if opened[i.index()] { 0.0 } else { instance.opening_cost(i).value() };
        let (ids, costs) = stars.live(i.index(), &mut cursor[i.index()], served);
        if ids.is_empty() {
            // Every linked client is served; this facility is permanently
            // out of stars (serving never un-serves).
            continue;
        }
        let (ratio, k, visited) = star_scan(ids, costs, residual, |j| served[j as usize]);
        scanned += visited as u64;
        let fresh = StarKey { ratio, fid: key.fid };
        // Cached keys are lower bounds on true keys, so beating the best
        // cached key proves global minimality (ids are unique, so the
        // lexicographic comparison is never an exact tie across facilities).
        if heap.peek().is_some_and(|std::cmp::Reverse(top)| *top < fresh) {
            heap.push(std::cmp::Reverse(fresh));
            continue;
        }
        iterations += 1;
        opened[i.index()] = true;
        // The star is the first `k` unserved entries of the live row.
        let mut left = k;
        for &jraw in ids {
            let j = jraw as usize;
            if served[j] {
                continue;
            }
            served[j] = true;
            assignment[j] = i;
            ratios[j] = ratio;
            left -= 1;
            if left == 0 {
                break;
            }
        }
        remaining -= k;
        // The winner's residual just dropped to zero; recompute eagerly so
        // its (possibly lower) new ratio re-enters the heap.
        let (ids, costs) = stars.live(i.index(), &mut cursor[i.index()], served);
        if !ids.is_empty() {
            let (ratio, _, visited) = star_scan(ids, costs, 0.0, |j| served[j as usize]);
            scanned += visited as u64;
            heap.push(std::cmp::Reverse(StarKey { ratio, fid: key.fid }));
        }
    }

    let solution = Solution::from_assignment(instance, assignment.clone())
        .expect("greedy assigns over existing links");
    distfl_obs::counter("solver.greedy.iterations").add(iterations as u64);
    distfl_obs::counter("solver.greedy.heap_pops").add(pops);
    distfl_obs::counter("solver.greedy.entries_scanned").add(scanned);
    GreedyRun { solution, ratios, iterations }
}

/// Runs star greedy with full diagnostics (lazy-evaluation heap).
pub fn solve_detailed(instance: &Instance) -> GreedyRun {
    let _span = distfl_obs::span("solver", "greedy");
    let stars = SortedStars::build(instance);
    let mut seeds = Vec::new();
    seed_ratios(instance, &stars, &mut seeds);
    run_greedy(instance, &stars, &seeds, &mut GreedyScratch::default())
}

/// Runs star greedy with full diagnostics by the naive per-iteration
/// rescan. Retained as the reference implementation: `bench solvers`
/// measures [`solve_detailed`] against it and the solver-equivalence
/// proptests pin bit-identical output.
pub fn solve_detailed_reference(instance: &Instance) -> GreedyRun {
    let n = instance.num_clients();
    let m = instance.num_facilities();
    let mut served = vec![false; n];
    let mut opened = vec![false; m];
    let mut assignment = vec![FacilityId::new(0); n];
    let mut ratios = vec![0.0f64; n];
    let mut remaining = n;
    let mut iterations = 0u32;

    while remaining > 0 {
        iterations += 1;
        let mut best: Option<(f64, FacilityId, Vec<distfl_instance::ClientId>)> = None;
        for i in instance.facilities() {
            let residual = if opened[i.index()] { 0.0 } else { instance.opening_cost(i).value() };
            if let Some((ratio, clients)) = best_star(instance, i, residual, &served) {
                let better = match &best {
                    None => true,
                    Some((r, bi, _)) => ratio < *r || (ratio == *r && i < *bi),
                };
                if better {
                    best = Some((ratio, i, clients));
                }
            }
        }
        let (ratio, i, clients) =
            best.expect("instance invariant: every client is linked, so a star exists");
        opened[i.index()] = true;
        for j in clients {
            served[j.index()] = true;
            assignment[j.index()] = i;
            ratios[j.index()] = ratio;
            remaining -= 1;
        }
    }

    let solution = Solution::from_assignment(instance, assignment)
        .expect("greedy assigns over existing links");
    GreedyRun { solution, ratios, iterations }
}

impl FlAlgorithm for StarGreedy {
    fn name(&self) -> String {
        "greedy".to_owned()
    }

    fn run(&self, instance: &Instance, _seed: u64) -> Result<Outcome, CoreError> {
        let (solution, ratios) = solve(instance);
        // Dual-fitting certificate: ratios scaled by H_n are feasible.
        let h = harmonic(instance.num_clients());
        let alpha: Vec<f64> = ratios.iter().map(|r| r / h).collect();
        Ok(Outcome {
            solution,
            transcript: None,
            dual: Some(DualSolution::new(alpha)),
            modeled_rounds: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distfl_instance::generators::{AdversarialGreedy, InstanceGenerator, UniformRandom};
    use distfl_instance::{Cost, InstanceBuilder};
    use distfl_lp::exact;

    #[test]
    fn serves_everyone_feasibly() {
        for seed in 0..5 {
            let inst = UniformRandom::new(7, 25).unwrap().generate(seed).unwrap();
            let (sol, ratios) = solve(&inst);
            sol.check_feasible(&inst).unwrap();
            assert!(ratios.iter().all(|r| *r > 0.0));
        }
    }

    #[test]
    fn picks_the_obvious_shared_facility() {
        // One cheap facility serving everyone cheaply vs expensive singles.
        let mut b = InstanceBuilder::new();
        let hub = b.add_facility(Cost::new(2.0).unwrap());
        let solo = b.add_facility(Cost::new(100.0).unwrap());
        for _ in 0..4 {
            let j = b.add_client();
            b.link(j, hub, Cost::new(1.0).unwrap()).unwrap();
            b.link(j, solo, Cost::new(1.0).unwrap()).unwrap();
        }
        let inst = b.build().unwrap();
        let (sol, _) = solve(&inst);
        assert!(sol.is_open(hub));
        assert!(!sol.is_open(solo));
        assert_eq!(sol.cost(&inst).value(), 6.0);
    }

    #[test]
    fn is_fooled_by_the_adversarial_family() {
        let gen = AdversarialGreedy::new(16).unwrap();
        let inst = gen.generate(0).unwrap();
        let (sol, _) = solve(&inst);
        let cost = sol.cost(&inst).value();
        // Greedy should pay (close to) the H_n-inflated decoy cost.
        assert!(
            (cost - gen.greedy_cost()).abs() < 1e-6,
            "greedy paid {cost}, decoy trap is {}",
            gen.greedy_cost()
        );
        assert!(cost / gen.optimal_cost() > 2.0);
    }

    #[test]
    fn within_h_n_of_optimum_on_random_instances() {
        for seed in 0..8 {
            let inst = UniformRandom::new(6, 15).unwrap().generate(seed).unwrap();
            let (sol, _) = solve(&inst);
            let opt = exact::solve(&inst).unwrap().cost.value();
            let bound = harmonic(15) * opt;
            assert!(
                sol.cost(&inst).value() <= bound + 1e-9,
                "seed {seed}: greedy {} above H_n * OPT = {bound}",
                sol.cost(&inst).value()
            );
        }
    }

    #[test]
    fn dual_certificate_is_valid() {
        for seed in 0..5 {
            let inst = UniformRandom::new(6, 18).unwrap().generate(seed).unwrap();
            let outcome = StarGreedy::new().run(&inst, 0).unwrap();
            let dual = outcome.dual.unwrap();
            let opt = exact::solve(&inst).unwrap().cost.value();
            let lb = dual.lower_bound(&inst, distfl_lp::TOLERANCE);
            assert!(lb <= opt + 1e-6, "seed {seed}: certificate {lb} above OPT {opt}");
        }
    }

    #[test]
    fn reopened_facility_pays_opening_once() {
        // Facility serves one client at ratio r1, later picked again with
        // residual 0. Construct: hub f=10, c=1 for client A, c=100 for
        // client B; decoy f=1,c=1 for B only... simpler: just check that
        // total cost accounts each opening once on a crafted instance.
        let mut b = InstanceBuilder::new();
        let f = b.add_facility(Cost::new(10.0).unwrap());
        let a = b.add_client();
        let c = b.add_client();
        b.link(a, f, Cost::new(1.0).unwrap()).unwrap();
        b.link(c, f, Cost::new(50.0).unwrap()).unwrap();
        let inst = b.build().unwrap();
        let (sol, _) = solve(&inst);
        assert_eq!(sol.cost(&inst).value(), 10.0 + 1.0 + 50.0);
    }
}
