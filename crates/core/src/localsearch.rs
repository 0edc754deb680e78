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
//! # Gain tables and an exact shortlist
//!
//! [`optimize`] keeps, per client, the best and second-best open
//! facility over the *currently* open set (cost and id, `(cost, id)`
//! order), as dense `f64`/`u32` lanes, and prices a round from them in
//! `O(links + k(m−k))` with the gain/loss/extra tables of Resende &
//! Werneck ("A fast swap-based local search procedure for location
//! problems", J. Heuristics 2007), `k` the open facilities:
//!
//! * **One client pass** gives `A`, the current assignment sum, and per
//!   open `a`: `loss(a)`, the sum of `second − best` over the clients
//!   whose best facility is `a`, and `need(a)`, the clients whose only
//!   open link is `a` (counted, not priced: dropping `a` is infeasible
//!   while `need(a) > 0`).
//! * **One pass over each closed `b`'s link row** gives `gain(b)`, the sum
//!   of `best − c` over the clients `b` serves more cheaply, and, keyed by
//!   each client's best facility `a`, the swap correction `extra(a, b)`
//!   and how many of `need(a)`'s clients `b` links. A drop then costs
//!   about `A + loss(a)`, an add `A − gain(b)` and a swap `A + loss(a) −
//!   gain(b) + extra(a, b)`, each plus its opening part; these are exact
//!   in real arithmetic, so only rounding separates them from the
//!   reference's folds.
//! * **An exact shortlist.** Each estimate carries a margin that bounds
//!   its distance from the exact fold (the bound is worked out on
//!   `optimize_with`). A second pass re-derives the estimates, never
//!   storing a `k(m−k)` table, and folds exactly only the candidates
//!   whose estimate less its margin is at most the least estimate plus
//!   its margin. The exact fold is the reference's: each client's
//!   cheapest remaining link summed in ascending client order, then the
//!   opening part over the ascending open list.
//! * **Select among the shortlist.** The round keeps its cheapest
//!   candidate and that candidate's rank in the reference's enumeration
//!   order, so the order candidates are folded in does not matter, and a
//!   candidate is folded only if its floor still beats the pick so far.
//! * **Refresh by the move.** An accepted move inserts the opened
//!   facility into the caches of its clients and rescans only the clients
//!   whose best or second-best facility closed, instead of every link.
//!
//! The per-client minimum of a set of `f64`s is the same value no matter
//! how it is computed, and every folded candidate sums those minima in the
//! same (ascending client, then ascending facility) order as the full
//! rescan, and the winner is always folded, so every move — and hence the
//! selection sequence — is bit-identical to [`optimize_reference`]. On
//! average fewer than one candidate besides the winner comes within the
//! margin, so a round costs about `O(links + k(m−k) + n)`, with `O(n + m)`
//! scratch. A solve adds its priced rounds and exact folds to the
//! `solver.localsearch.rounds` and `solver.localsearch.exact_folds`
//! counters; outputs cannot show a shortlist that folds too much, so
//! `bench solvers --smoke` gates the folds per round.

use distfl_instance::{ClientId, FacilityId, Instance, Solution};

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
    /// Exact folds run so far.
    folds: u64,
}

impl Pick {
    fn beats(&self, cost: f64, rank: (usize, usize)) -> bool {
        cost < self.limit && self.best.is_none_or(|(c, r)| cost < c || (cost == c && rank < r))
    }

    /// Offers the candidate whose exact cost is `exact()`, at least
    /// `floor`. Winning is monotone in the cost, so a candidate that loses
    /// at `floor` loses at its exact cost and the fold is skipped.
    fn offer(&mut self, floor: f64, rank: (usize, usize), exact: impl FnOnce() -> f64) {
        if self.beats(floor, rank) {
            self.folds += 1;
            let cost = exact();
            if self.beats(cost, rank) {
                self.best = Some((cost, rank));
            }
        }
    }
}

/// The per-facility gain tables of one round, indexed by facility id.
/// `loss` and `need` are filled by one client pass; `extra` and `cover`
/// hold one closed facility's row at a time and are zero between rows.
#[derive(Default)]
struct GainTables {
    /// For open `a`: the sum of `second − best` over the clients whose best
    /// facility is `a` and that have a second open link.
    loss: Vec<f64>,
    /// For open `a`: how many clients have `a` as their only open link.
    need: Vec<u32>,
    /// For open `a`, while closed `b`'s row is scanned: the correction
    /// `extra(a, b)` of the swap `a → b` (see [`Round::scan_row`]).
    extra: Vec<f64>,
    /// For open `a`, while closed `b`'s row is scanned: how many of the
    /// clients counted in `need(a)` `b` links.
    cover: Vec<u32>,
    /// For closed `b`: the least floor of its add and swaps in the first
    /// pass.
    low: Vec<f64>,
}

/// One candidate's approximate cost and the bound on its distance from the
/// exact fold's value: the exact cost lies in `approx ± margin`.
#[derive(Clone, Copy)]
struct Estimate {
    approx: f64,
    margin: f64,
}

impl Estimate {
    fn floor(self) -> f64 {
        self.approx - self.margin
    }

    fn ceil(self) -> f64 {
        self.approx + self.margin
    }
}

/// What one closed facility's row scan yields besides the `extra` and
/// `cover` lanes: `gain(b)` and the link mass `b` offers clients with a
/// single open link, which bounds the positive part of every `extra(a,
/// b)`.
struct RowGain {
    gain: f64,
    single: f64,
}

/// The round's constants: the service caches, the current assignment sum
/// `A` (any order) and opening fold `F`, and the margin factor.
struct Round<'a> {
    instance: &'a Instance,
    cache: &'a ServiceCache,
    f_cost: &'a [f64],
    open_ids: &'a [u32],
    assign: f64,
    opening: f64,
    /// `8·(n + m + 8)·2⁻⁵³`: the relative margin (see [`optimize_with`]).
    eps: f64,
}

impl Round<'_> {
    /// Drop `a`: `A + loss(a)`, or `None` when some client has no other
    /// open link.
    fn drop(&self, t: &GainTables, a: u32) -> Option<Estimate> {
        let (a, fa) = (a as usize, self.f_cost[a as usize]);
        (t.need[a] == 0).then(|| {
            let approx = (self.assign + t.loss[a]) + (self.opening - fa);
            let magnitude = self.assign + 2.0 * t.loss[a] + self.opening + fa;
            Estimate { approx, margin: self.eps * magnitude }
        })
    }

    /// Add `b`: `A − gain(b)`.
    fn add(&self, row: &RowGain, b: u32) -> Estimate {
        let fb = self.f_cost[b as usize];
        let approx = (self.assign - row.gain) + (self.opening + fb);
        let magnitude = self.assign + row.gain + self.opening + fb;
        Estimate { approx, margin: self.eps * magnitude }
    }

    /// Swap `a → b`: `A + loss(a) − gain(b) + extra(a, b)`, or `None` when
    /// `b` misses a client whose only open link is `a`.
    fn swap(&self, t: &GainTables, row: &RowGain, a: u32, b: u32) -> Option<Estimate> {
        let (a, fa, fb) = (a as usize, self.f_cost[a as usize], self.f_cost[b as usize]);
        (t.cover[a] == t.need[a]).then(|| {
            let approx =
                (((self.assign + t.loss[a]) - row.gain) + t.extra[a]) + ((self.opening - fa) + fb);
            let magnitude =
                self.assign + row.gain + 2.0 * t.loss[a] + row.single + self.opening + fa + fb;
            Estimate { approx, margin: self.eps * magnitude }
        })
    }

    /// One pass over closed `b`'s link row: `gain(b)` sums `best − c` over
    /// the clients `b` serves more cheaply, and each client adds its
    /// swap correction to `extra(a, b)`, `a` its best facility. A client
    /// with a second open link gets `min(second, c)` where the sum assumed
    /// `second − max(0, best − c)`, so it adds `−(second − max(c, best))`
    /// when `c < second`. A client whose only open link is `a` gets `c`
    /// where the sum assumed `min(best, c)`, so it adds `max(0, c − best)`
    /// and counts toward `cover(a)`.
    fn scan_row(&self, t: &mut GainTables, b: u32) -> RowGain {
        let ServiceCache { best_cost, best_fac, second_cost, second_fac } = self.cache;
        let (mut gain, mut single) = (0.0f64, 0.0f64);
        for (j, c) in self.instance.facility_links(FacilityId::new(b)).iter() {
            let j = j as usize;
            let best = best_cost[j];
            if c < best {
                gain += best - c;
            }
            let a = best_fac[j] as usize;
            if second_fac[j] == NONE {
                t.cover[a] += 1;
                if c > best {
                    t.extra[a] += c - best;
                }
                single += c;
            } else if c < second_cost[j] {
                t.extra[a] -= second_cost[j] - c.max(best);
            }
        }
        RowGain { gain, single }
    }

    /// The reference's value of the candidate that closes `a` and opens
    /// `b` ([`NONE`] for neither): the ascending-client fold of each
    /// client's cheapest remaining link, then the opening fold. `b`'s row
    /// is id-sorted, so one cursor walks it beside the clients.
    fn exact(&self, a: u32, b: u32) -> f64 {
        let ServiceCache { best_cost, best_fac, second_cost, .. } = self.cache;
        let base = |j: usize| if best_fac[j] == a { second_cost[j] } else { best_cost[j] };
        let mut assign = 0.0f64;
        let mut next = 0usize;
        if b != NONE {
            for (j, c) in self.instance.facility_links(FacilityId::new(b)).iter() {
                let j = j as usize;
                assign = (next..j).fold(assign, |acc, k| acc + base(k));
                let v = base(j);
                assign += if c < v { c } else { v };
                next = j + 1;
            }
        }
        assign = (next..best_cost.len()).fold(assign, |acc, k| acc + base(k));
        assign + opening_fold(self.open_ids, self.f_cost, a, b)
    }
}

/// Reusable buffers for [`optimize_with`]: the cost/open lanes, the
/// per-client service caches, the round's open and closed id lists, and
/// the per-facility gain tables. Every lane is refilled on entry or
/// rewritten each round before it is read (`extra` and `cover` are
/// zeroed on entry and after every row), so values left over from an
/// earlier run — even of a different instance — are never observed. No
/// lane grows past `max(n, m)` entries.
#[derive(Default)]
pub(crate) struct LsScratch {
    f_cost: Vec<f64>,
    open: Vec<bool>,
    cache: ServiceCache,
    open_ids: Vec<u32>,
    closed_ids: Vec<u32>,
    tables: GainTables,
}

/// Runs best-improvement local search from `start`, with an iteration cap.
///
/// Prices candidates from the per-client `ServiceCache` and the round's
/// gain tables; produces the exact move sequence and costs of
/// [`optimize_reference`].
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
///
/// Each round prices every candidate twice. The first pass estimates each
/// one from the gain tables and takes `bound`, the least `approx +
/// margin`; the second re-derives the estimates and folds exactly only the
/// candidates whose `approx − margin` is at most `bound` (and beats the
/// pick so far), since the winner's exact cost is at most every
/// candidate's `approx + margin`. **The margin** is `8·(n + m + 8)·u·M`
/// with `u = 2⁻⁵³` and `M` the sum of the magnitudes the estimate is built
/// from (`A`, `gain(b)`, twice `loss(a)`, `b`'s single-link mass, `F` and
/// both opening costs), which bounds every partial sum of both the
/// estimate and the exact fold. Each is a recursive sum of at most
/// `n + m + 4` rounded terms, so each is within `(n + m + 4)·u·M` (to
/// first order) of the real sum they share; the factor 8 covers both, their
/// second-order terms and the rounding of the margin and of `approx ±
/// margin`. Costs are zero or in `[2⁻²⁵⁶, 2²⁵⁶]`, so no sum overflows.
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
    let LsScratch { f_cost, open, cache, open_ids, closed_ids, tables } = scratch;
    f_cost.clear();
    f_cost.extend(instance.facilities().map(|i| instance.opening_cost(i).value()));
    open.clear();
    open.extend(instance.facilities().map(|i| start.is_open(i)));
    let initial_cost = start.cost(instance).value();
    cache.resize(n);
    cache.rebuild(instance, open);
    for lane in [&mut tables.extra, &mut tables.low] {
        lane.clear();
        lane.resize(m, 0.0);
    }
    tables.cover.clear();
    tables.cover.resize(m, 0);
    let ids_of = |ids: &mut Vec<u32>, open: &[bool], want: bool| {
        ids.clear();
        ids.extend((0..m as u32).filter(|&i| open[i as usize] == want));
    };
    ids_of(open_ids, open, true);
    // The optimal reassignment may already beat the given assignment.
    let mut current = cache.best_cost.iter().fold(0.0f64, |acc, &b| acc + b)
        + opening_fold(open_ids, f_cost, NONE, NONE);
    assert!(current.is_finite(), "feasible start");
    let eps = (n + m + 8) as f64 * 4.0 * f64::EPSILON;
    let mut moves = 0;
    let mut converged = false;
    let (mut rounds, mut exact_folds) = (0u64, 0u64);

    while moves < max_moves {
        rounds += 1;
        ids_of(open_ids, open, true);
        ids_of(closed_ids, open, false);
        // The client pass: `A`, `loss` and `need`.
        tables.loss.clear();
        tables.loss.resize(m, 0.0);
        tables.need.clear();
        tables.need.resize(m, 0);
        let mut assign = 0.0f64;
        for j in 0..n {
            let (best, a) = (cache.best_cost[j], cache.best_fac[j] as usize);
            assign += best;
            if cache.second_fac[j] == NONE {
                tables.need[a] += 1;
            } else {
                tables.loss[a] += cache.second_cost[j] - best;
            }
        }
        let round = Round {
            instance,
            cache,
            f_cost,
            open_ids,
            assign,
            opening: opening_fold(open_ids, f_cost, NONE, NONE),
            eps,
        };
        // Zeroes the row lanes after each closed facility's candidates.
        let clear_row = |t: &mut GainTables| {
            for &a in open_ids.iter() {
                t.extra[a as usize] = 0.0;
                t.cover[a as usize] = 0;
            }
        };

        // First pass: the least `approx + margin` of every candidate.
        let mut bound = f64::INFINITY;
        for &a in open_ids.iter() {
            if let Some(e) = round.drop(tables, a) {
                bound = bound.min(e.ceil());
            }
        }
        for &b in closed_ids.iter() {
            let row = round.scan_row(tables, b);
            let add = round.add(&row, b);
            let (mut ceil, mut low) = (add.ceil(), add.floor());
            for &a in open_ids.iter() {
                if let Some(e) = round.swap(tables, &row, a, b) {
                    ceil = ceil.min(e.ceil());
                    low = low.min(e.floor());
                }
            }
            clear_row(tables);
            bound = bound.min(ceil);
            tables.low[b as usize] = low;
        }

        // Second pass: exact folds for the candidates that can still win.
        // An infeasible candidate has no estimate, exactly as the rescan's
        // `None` is skipped.
        let mut pick = Pick { limit: current - 1e-9, best: None, folds: 0 };
        for &a in open_ids.iter() {
            if let Some(e) = round.drop(tables, a).filter(|e| e.floor() <= bound) {
                pick.offer(e.floor(), (a as usize, 0), || round.exact(a, NONE));
            }
        }
        for &b in closed_ids.iter() {
            let low = tables.low[b as usize];
            if low > bound || low >= pick.limit {
                continue;
            }
            let row = round.scan_row(tables, b);
            let add = round.add(&row, b);
            if add.floor() <= bound {
                pick.offer(add.floor(), (b as usize, 0), || round.exact(NONE, b));
            }
            for &a in open_ids.iter() {
                if let Some(e) = round.swap(tables, &row, a, b).filter(|e| e.floor() <= bound) {
                    pick.offer(e.floor(), (a as usize, 1 + b as usize), || round.exact(a, b));
                }
            }
            clear_row(tables);
        }
        exact_folds += pick.folds;
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
    distfl_obs::counter("solver.localsearch.rounds").add(rounds);
    distfl_obs::counter("solver.localsearch.exact_folds").add(exact_folds);
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
        let LsScratch { f_cost, open, cache, open_ids, closed_ids, tables } = &scratch;
        let GainTables { loss, need, extra, cover, low } = tables;
        let lanes = [
            f_cost.len(),
            open.len(),
            cache.best_cost.len(),
            cache.best_fac.len(),
            cache.second_cost.len(),
            cache.second_fac.len(),
            open_ids.len(),
            closed_ids.len(),
            loss.len(),
            need.len(),
            extra.len(),
            cover.len(),
            low.len(),
        ];
        assert!(lanes.iter().all(|&len| len <= n + m), "lane lengths {lanes:?}");
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
