//! Warm-started delta solving: caches that survive [`Instance::apply_delta`]
//! and make the re-solve after a small mutation much cheaper than a cold
//! run — while staying **bit-identical** to one.
//!
//! # Warm data structures, not warm decisions
//!
//! The cache never reuses *solutions* across epochs. It reuses the
//! expensive instance-derived precomputations whose content is a pure
//! function of the instance, and replays each solver's decision loop in
//! full:
//!
//! * **Greedy** — the per-facility `(cost, client id)`-sorted star rows
//!   ([`crate::greedy`]'s `SortedStars`, whose construction sort dominates
//!   a cold solve) plus the exact iteration-0 heap seed ratio of every
//!   facility. The run loop consumes the rows destructively, so each warm
//!   solve memcpys the pristine structure into a working copy — a lane
//!   copy, not a re-sort. The heap's pop order depends only on its
//!   *content* (keys are totally ordered and per-facility unique), so
//!   seeding it from cached values reproduces the cold run exactly.
//! * **Jain–Vazirani** — the per-client cost-sorted adjacency the
//!   event-driven ascent reads through its tightness pointers, plus the
//!   opening lane. The ascent itself re-runs with reused scratch buffers
//!   (its per-facility tight lists are rebuilt by every solve).
//! * **Local search** — no instance-derived precompute to keep; the warm
//!   entry point reuses one scratch arena (service caches, open and closed
//!   id lists, the `n × 8` pricing block) across solves, and starts from
//!   the warm greedy run exactly as the cold
//!   [`crate::SolverKind::LocalSearch`] dispatch starts from a cold greedy
//!   run.
//!
//! # Catching up with a delta
//!
//! A new cache holds no lanes: both families start stale, and each builds
//! its lanes on its first solve. After [`Instance::apply_delta`],
//! [`WarmCache::apply_delta`] does no lane work either. It records, per
//! structure family, what the next solve that reads the family's lanes
//! must do first, so a session pinned to one solver never pays for the
//! other family's upkeep:
//!
//! * **A reprice-only delta under the drift threshold is staged** (at most
//!   10% of the link lanes touched, [`DeltaReport::drift`]). Every row
//!   keeps its length and every id keeps its row, so `apply_delta` just
//!   records the touched `(facility, client, old cost)` triples for each
//!   live family; the next greedy/local-search solve drains them into the
//!   star rows and seeds, the next JV solve into the ascent lanes. Repeated
//!   reprices of one link collapse into a single repair against the
//!   instance's current cost. The repair is in place: a staged link rotates
//!   a `(cost, id)` subrange to its new sorted position, and a large group
//!   in one star row merges the row in one snapshot pass instead. Both
//!   produce exactly what a full re-sort would, because every row's keys
//!   are unique.
//! * **Any other delta marks both families stale**: a structural one
//!   (added or removed clients renumber the id space) or a reprice-only one
//!   past the threshold. A stale family re-sorts its lanes from the
//!   instance, in place, on its next solve — a per-row comparison sort into
//!   the buffers it already owns — so only the family solved next pays.
//!
//! The threshold also bounds staging: a family whose queue passes
//! 10% of `num_links` triples (it is not being solved) drops the queue and
//! goes stale, since replaying that many repairs would cost more than the
//! re-sort. Results are identical on every path, only the work differs
//! (the equivalence proptests pin each path).

use distfl_instance::{ClientId, DeltaReport, FacilityId, Instance, Solution};
use distfl_lp::DualSolution;

use crate::greedy::{self, GreedyRun};
use crate::jv::{self, DualAscent};
use crate::localsearch::{self, LocalSearchRun};

/// Largest fraction of the link lanes a reprice-only delta may touch
/// ([`DeltaReport::drift`]) and still be staged for in-place repair; past
/// it, `apply_delta` marks both families for a re-sort. It also caps each
/// family's staged queue at `DRIFT_THRESHOLD × num_links` entries.
/// Break-even on the bench shapes sits near 10% of links touched: past
/// that, the in-place rotations move more bytes than the per-row
/// comparison sort of a re-sort, which still skips the instance rebuild the
/// cold path pays. The solve outputs are identical either way.
const DRIFT_THRESHOLD: f64 = 0.1;

/// Session-lifetime solver caches for one mutating instance.
///
/// The cache must be kept in lockstep with its instance: after every
/// successful [`Instance::apply_delta`], call [`WarmCache::apply_delta`]
/// with the returned report before the next solve. The solve entry points
/// assert the cheap shape invariants (client/facility/link counts) and
/// the equivalence suite pins the content invariant: every warm solve is
/// bit-identical to a cold solve of the same instance.
///
/// ```
/// use distfl_core::warm::WarmCache;
/// use distfl_instance::generators::{InstanceGenerator, UniformRandom};
/// use distfl_instance::{ClientId, Cost, DeltaBatch, FacilityId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut inst = UniformRandom::new(5, 20)?.generate(7)?;
/// let mut warm = WarmCache::new();
/// let cold = distfl_core::greedy::solve_detailed(&inst);
/// assert_eq!(warm.solve_greedy(&inst), cold);
///
/// let mut batch = DeltaBatch::new();
/// batch.reprice(ClientId::new(0), FacilityId::new(0), Cost::new(3.25)?);
/// let report = inst.apply_delta(&batch)?;
/// warm.apply_delta(&inst, &report);
/// assert_eq!(warm.solve_greedy(&inst), distfl_core::greedy::solve_detailed(&inst));
/// # Ok(())
/// # }
/// ```
#[derive(Default)]
pub struct WarmCache {
    rebuilds: u64,
    patches: u64,
    // Greedy: pristine sorted star rows + exact iteration-0 seeds, and a
    // working copy the run loop may destroy.
    stars_pristine: greedy::SortedStars,
    stars_working: greedy::SortedStars,
    seeds: Vec<f64>,
    greedy_scratch: greedy::GreedyScratch,
    // Jain–Vazirani: read-only ascent lanes + reusable mutable state.
    jv_lanes: jv::JvLanes,
    jv_scratch: jv::JvScratch,
    // Local search: one scratch arena across solves.
    ls_scratch: localsearch::LsScratch,
    // Deferred reprice repairs, per structure family: `(facility, client,
    // old cost)` triples staged by `apply_delta` and drained by the next
    // solve that actually reads the family's lanes. The old cost is the
    // repriced entry's current sort key inside the family's lanes, so a
    // drain can binary-search its position instead of scanning for it.
    pending_greedy: Vec<(u32, u32, f64)>,
    pending_jv: Vec<(u32, u32, f64)>,
    // A family is live once a solve has sorted its lanes from the
    // instance; a stale (not live) family re-sorts on its next drain.
    live_greedy: bool,
    live_jv: bool,
    // Drain and re-sort scratch: the greedy merge's row mask and sorted
    // insertions, and one `(cost, id)` row buffer shared by the re-sort's
    // per-row sort and the merge's row snapshot.
    merge_mask: Vec<bool>,
    inserts: Vec<(f64, u32)>,
    row_scratch: Vec<(f64, u32)>,
}

impl std::fmt::Debug for WarmCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WarmCache")
            .field("rebuilds", &self.rebuilds)
            .field("patches", &self.patches)
            .finish_non_exhaustive()
    }
}

impl WarmCache {
    /// An empty cache: both families start stale and build their lanes
    /// from the instance on their first solve.
    pub fn new() -> Self {
        WarmCache::default()
    }

    /// How many `apply_delta` calls marked both families for a re-sort:
    /// every structural delta, and every reprice-only delta past the
    /// drift threshold.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// How many `apply_delta` calls staged a reprice-only delta for
    /// in-place repair.
    pub fn patches(&self) -> u64 {
        self.patches
    }

    /// Brings the caches in sync with `instance` after a successful
    /// [`Instance::apply_delta`] that returned `report`.
    ///
    /// `instance` must be the **post-mutation** instance. Touches no lane:
    /// a reprice-only delta under the drift threshold is staged per family,
    /// any other marks both families stale, and each family repairs (or
    /// re-sorts) its lanes on the next solve that reads them.
    pub fn apply_delta(&mut self, instance: &Instance, report: &DeltaReport) {
        if report.is_structural() || report.drift(instance) > DRIFT_THRESHOLD {
            self.rebuilds += 1;
            self.live_greedy = false;
            self.live_jv = false;
            self.pending_greedy.clear();
            self.pending_jv.clear();
            return;
        }
        self.patches += 1;
        for (&(j, i), &old) in report.repriced.iter().zip(&report.repriced_old) {
            if self.live_greedy {
                self.pending_greedy.push((i.raw(), j.raw(), old));
            }
            if self.live_jv {
                self.pending_jv.push((i.raw(), j.raw(), old));
            }
        }
        // Only a family's own solve drains its queue, so a family the
        // session never solves would stage forever. Past the drift bound
        // the repairs cost more than the re-sort: go stale instead.
        let bound = DRIFT_THRESHOLD * instance.num_links() as f64;
        if self.pending_greedy.len() as f64 > bound {
            self.live_greedy = false;
            self.pending_greedy.clear();
        }
        if self.pending_jv.len() as f64 > bound {
            self.live_jv = false;
            self.pending_jv.clear();
        }
    }

    /// Warm star greedy: drains this family's staged reprices, lane-copies
    /// the pristine rows, and replays the lazy-heap loop from the cached
    /// seeds. Bit-identical to [`greedy::solve_detailed`].
    pub fn solve_greedy(&mut self, instance: &Instance) -> GreedyRun {
        let _span = distfl_obs::span("solver", "greedy.warm");
        self.drain_greedy(instance);
        assert_eq!(self.seeds.len(), instance.num_facilities(), "warm cache out of sync");
        assert_eq!(self.stars_pristine.ids.len(), instance.num_links(), "warm cache out of sync");
        self.stars_working.copy_from(&self.stars_pristine);
        greedy::run_greedy(instance, &mut self.stars_working, &self.seeds, &mut self.greedy_scratch)
    }

    /// Warm local search: polishes the warm greedy run, reusing the scratch
    /// arena. Bit-identical to `localsearch::optimize(instance,
    /// &greedy::solve(instance).0, max_moves)` — the cold
    /// [`crate::SolverKind::LocalSearch`] pipeline.
    pub fn solve_local_search(&mut self, instance: &Instance, max_moves: u32) -> LocalSearchRun {
        let start = self.solve_greedy(instance);
        localsearch::optimize_with(instance, &start.solution, max_moves, &mut self.ls_scratch)
    }

    /// Warm Jain–Vazirani phase 1. Bit-identical to [`jv::dual_ascent`].
    pub fn dual_ascent(&mut self, instance: &Instance) -> DualAscent {
        self.drain_jv(instance);
        assert_eq!(self.jv_lanes.offs.len(), instance.num_clients() + 1, "warm cache out of sync");
        assert_eq!(self.jv_lanes.sorted.len(), instance.num_links(), "warm cache out of sync");
        jv::dual_ascent_with(instance, &self.jv_lanes, &mut self.jv_scratch)
    }

    /// Warm full Jain–Vazirani. Bit-identical to [`jv::solve`].
    pub fn solve_jv(&mut self, instance: &Instance) -> (Solution, DualSolution) {
        self.drain_jv(instance);
        assert_eq!(self.jv_lanes.offs.len(), instance.num_clients() + 1, "warm cache out of sync");
        assert_eq!(self.jv_lanes.sorted.len(), instance.num_links(), "warm cache out of sync");
        jv::solve_with(instance, &self.jv_lanes, &mut self.jv_scratch)
    }

    /// Brings the greedy family up to date: a stale family re-sorts its
    /// star rows and seeds in place; otherwise the staged reprices are
    /// repaired in place. A reprice keeps every row's length and every
    /// id's row, so the big sorted star lanes are *repaired* instead of
    /// rewritten. A small group of staged links per facility resolves
    /// move by move: the staged old cost pins the entry's current sorted
    /// position by binary search (the row stays fully sorted between
    /// moves, and every not-yet-moved entry still holds its staged old
    /// key), and a subrange rotation carries it to its new position —
    /// `O(Δ · deg)` contiguous moves, no scan. A large group merges the
    /// whole row in one pass instead, which is cheaper once rotations
    /// would move more bytes than a row rewrite. Seeds recompute only for
    /// drained facilities; every other cached value is untouched bytes,
    /// bit-identity for free. Repeats of a pair keep the **first** staged
    /// old cost (the one matching the lanes) and repair straight to the
    /// instance's current cost — the intermediate values were never
    /// observable.
    fn drain_greedy(&mut self, instance: &Instance) {
        if !self.live_greedy {
            self.live_greedy = true;
            self.pending_greedy.clear();
            self.stars_pristine.rebuild(instance, &mut self.row_scratch);
            greedy::seed_ratios(instance, &self.stars_pristine, &mut self.seeds);
            return;
        }
        if self.pending_greedy.is_empty() {
            return;
        }
        let mut moves = std::mem::take(&mut self.pending_greedy);
        // Stable by pair, then keep the first (earliest) staging of each
        // pair: its old cost is the entry's actual current sort key.
        moves.sort_by_key(|&(i, j, _)| (i, j));
        moves.dedup_by_key(|&mut (i, j, _)| (i, j));
        let mask = &mut self.merge_mask;
        mask.clear();
        mask.resize(instance.num_clients(), false);
        let inserts = &mut self.inserts;
        let snapshot = &mut self.row_scratch;
        let mut s = 0usize;
        while s < moves.len() {
            let i = moves[s].0 as usize;
            let e = s + moves[s..].iter().take_while(|mv| mv.0 as usize == i).count();
            let group = &moves[s..e];
            s = e;

            let fl = instance.facility_links(FacilityId::new(i as u32));
            let lo = self.stars_pristine.offsets[i] as usize;
            let hi = self.stars_pristine.offsets[i + 1] as usize;
            let ids = &mut self.stars_pristine.ids[lo..hi];
            let costs = &mut self.stars_pristine.costs[lo..hi];

            if group.len() <= ROTATE_MAX_GROUP {
                for &(_, jr, old_c) in group {
                    let c = fl.costs[fl.ids.binary_search(&jr).expect("staged link is in its row")];
                    let p = soa_lower_bound(costs, ids, old_c, jr);
                    debug_assert!(
                        ids[p] == jr && costs[p] == old_c,
                        "staged old cost pins the entry"
                    );
                    let q = slide_to(soa_lower_bound(costs, ids, c, jr), p);
                    shift(ids, p, q);
                    shift(costs, p, q);
                    ids[q] = jr;
                    costs[q] = c;
                }
            } else {
                // Several: a snapshot-and-merge pass re-emits the row,
                // detecting stale entries inline with an O(1) client-id
                // mask lookup. Each element moves once, and the result is
                // exactly what a full re-sort would produce because all
                // `(cost, id)` keys are unique.
                inserts.clear();
                for &(_, jr, _) in group {
                    mask[jr as usize] = true;
                    let c = fl.costs[fl.ids.binary_search(&jr).expect("staged link is in its row")];
                    inserts.push((c, jr));
                }
                inserts.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                snapshot.clear();
                snapshot.extend(costs.iter().copied().zip(ids.iter().copied()));

                let (mut w, mut dropped, mut u) = (0usize, 0usize, 0usize);
                for &(sc, sj) in snapshot.iter() {
                    if mask[sj as usize] {
                        dropped += 1;
                        continue;
                    }
                    while u < inserts.len() {
                        let (ic, ij) = inserts[u];
                        if ic.total_cmp(&sc).then(ij.cmp(&sj)).is_lt() {
                            ids[w] = ij;
                            costs[w] = ic;
                            w += 1;
                            u += 1;
                        } else {
                            break;
                        }
                    }
                    ids[w] = sj;
                    costs[w] = sc;
                    w += 1;
                }
                debug_assert_eq!(dropped, group.len(), "every staged link is in its row");
                for &(ic, ij) in &inserts[u..] {
                    ids[w] = ij;
                    costs[w] = ic;
                    w += 1;
                }
                debug_assert_eq!(w, ids.len(), "reprice repair preserves row length");
                for &(_, jr, _) in group {
                    mask[jr as usize] = false;
                }
            }

            // This row's cost lane changed; recompute its heap seed.
            self.seeds[i] = greedy::seed_ratio(
                &self.stars_pristine.costs[lo..hi],
                instance.opening_cost(FacilityId::new(i as u32)).value(),
            );
        }
        moves.clear();
        self.pending_greedy = moves;
    }

    /// Brings the JV family up to date: a stale family re-sorts its ascent
    /// lanes in place; otherwise each staged link rotates to its new sorted
    /// position in its client's row, as in [`WarmCache::drain_greedy`]. A
    /// client row holds at most one link per facility, so it is short and
    /// rotation is the whole repair, however many of its links are staged.
    fn drain_jv(&mut self, instance: &Instance) {
        if !self.live_jv {
            self.live_jv = true;
            self.pending_jv.clear();
            self.jv_lanes.rebuild(instance);
            return;
        }
        if self.pending_jv.is_empty() {
            return;
        }
        let mut moves = std::mem::take(&mut self.pending_jv);
        // Stable by pair (client-major), then keep the first staging of
        // each pair: its old cost is the entry's actual current sort key.
        moves.sort_by_key(|&(i, j, _)| (j, i));
        moves.dedup_by_key(|&mut (i, j, _)| (j, i));
        for &(ir, jr, old_c) in &moves {
            let cl = instance.client_links(ClientId::new(jr));
            let c = cl.costs[cl.ids.binary_search(&ir).expect("staged link is in its row")];
            let lo = self.jv_lanes.offs[jr as usize] as usize;
            let hi = self.jv_lanes.offs[jr as usize + 1] as usize;
            let row = &mut self.jv_lanes.sorted[lo..hi];
            let p = row.partition_point(|&(ec, ef)| ec.total_cmp(&old_c).then(ef.cmp(&ir)).is_lt());
            debug_assert!(row[p] == (old_c, ir), "staged old cost pins the entry");
            let q = slide_to(
                row.partition_point(|&(ec, ef)| ec.total_cmp(&c).then(ef.cmp(&ir)).is_lt()),
                p,
            );
            shift(row, p, q);
            row[q] = (c, ir);
        }
        moves.clear();
        self.pending_jv = moves;
    }
}

/// Largest per-row group the greedy drain repairs by successive
/// rotations; bigger groups fall back to a whole-row snapshot-and-merge. A
/// rotation moves on average a third of the row per staged link while a
/// merge moves the whole row once (plus a branchy per-element pass), so
/// the crossover is near a dozen links regardless of row length.
const ROTATE_MAX_GROUP: usize = 12;

/// Lower bound of `(c, j)` under the row order (`cost` by `total_cmp`,
/// then id) over SoA lanes: the index of the first entry not less than
/// the key. Keys are unique per row (ids are), so this is the exact
/// position a full re-sort would give the entry.
fn soa_lower_bound(costs: &[f64], ids: &[u32], c: f64, j: u32) -> usize {
    let (mut lo, mut hi) = (0usize, costs.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if costs[mid].total_cmp(&c).then(ids[mid].cmp(&j)).is_lt() {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Destination index for an entry moving from `p` to lower bound `q`
/// computed on the row *with* the old entry still in place: removing
/// index `p` first would shift positions above it down by one.
fn slide_to(q: usize, p: usize) -> usize {
    if q > p {
        q - 1
    } else {
        q
    }
}

/// Moves the entry at `p` to index `q` of `lane`, shifting the entries
/// between them by one toward `p`.
fn shift<T>(lane: &mut [T], p: usize, q: usize) {
    if q >= p {
        lane[p..=q].rotate_left(1);
    } else {
        lane[q..=p].rotate_right(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distfl_instance::generators::{Euclidean, InstanceGenerator};
    use distfl_instance::{Cost, DeltaBatch};

    /// One churn step of a session: remove client 0, add a client linked
    /// to every facility, and reprice `(client, facility, cost)` triples
    /// (pre-batch ids). The client count stays the same.
    fn churn_step(inst: &Instance, reprice: &[(u32, u32, f64)]) -> DeltaBatch {
        let mut batch = DeltaBatch::new();
        batch.remove_client(ClientId::new(0));
        let fresh = batch.add_client();
        for i in inst.facilities() {
            batch.link(fresh, i, Cost::new(10.0 + f64::from(i.raw())).unwrap()).unwrap();
        }
        for &(j, i, c) in reprice {
            batch.reprice(ClientId::new(j), FacilityId::new(i), Cost::new(c).unwrap());
        }
        batch
    }

    #[test]
    fn jv_rows_reprice_after_a_drift_fallback_and_a_jv_only_refresh() {
        // Three structural deltas (d2 drift-sized as well), the last two
        // each followed by a JV-only solve while greedy stays stale. Every
        // JV row must come back sorted by its current costs: a client row
        // left in an old order (client 20's, repriced in d3) makes the
        // ascent wait for an event that never comes.
        use std::sync::mpsc::{self, RecvTimeoutError};
        let (tx, rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            let mut inst = Euclidean::new(5, 40).unwrap().generate(3).unwrap();
            let mut warm = WarmCache::new();
            let drift: Vec<(u32, u32, f64)> =
                (1..30).flat_map(|j| (0..5).map(move |i| (j, i, 1.0 + f64::from(j + i)))).collect();
            let steps = [vec![(6, 0, 0.01)], drift, vec![(20, 2, 0.001), (20, 3, 99.0)]];
            for (step, reprice) in steps.iter().enumerate() {
                let report = inst.apply_delta(&churn_step(&inst, reprice)).unwrap();
                warm.apply_delta(&inst, &report);
                if step >= 1 {
                    let (sol, dual) = warm.solve_jv(&inst);
                    let (cold_sol, cold_dual) = jv::solve(&inst);
                    assert_eq!(sol, cold_sol, "step {step}");
                    assert_eq!(dual.alpha(), cold_dual.alpha(), "step {step}");
                }
            }
            assert_eq!(warm.rebuilds(), 3, "every structural delta marks the families stale");
            let _ = tx.send(());
        });
        match rx.recv_timeout(std::time::Duration::from_secs(20)) {
            Ok(()) => handle.join().unwrap(),
            Err(RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(handle.join().expect_err("the sender was dropped"))
            }
            Err(RecvTimeoutError::Timeout) => panic!("warm JV solve did not terminate"),
        }
    }

    #[test]
    fn a_family_that_is_never_solved_keeps_a_bounded_reprice_queue() {
        // A session that solved JV once and then streams reprice-only
        // deltas with greedy solves: each delta stages its links for both
        // live families, but only greedy drains. The JV queue must stay
        // within the drift bound instead of growing by every repriced
        // link, and the JV lanes must still come back exact when JV is
        // finally solved again.
        let mut inst = Euclidean::new(10, 100).unwrap().generate(5).unwrap();
        let mut warm = WarmCache::new();
        assert_eq!(warm.solve_jv(&inst), jv::solve(&inst));
        let bound = DRIFT_THRESHOLD * inst.num_links() as f64;
        let steps = 200u32;
        for step in 0..steps {
            let mut batch = DeltaBatch::new();
            for k in 0..10u32 {
                let j = (step * 10 + k) % inst.num_clients() as u32;
                let row = inst.client_links(ClientId::new(j));
                let i = row.ids[(step + k) as usize % row.len()];
                let c = 1.0 + f64::from((step * 31 + k * 17) % 97);
                batch.reprice(ClientId::new(j), FacilityId::new(i), Cost::new(c).unwrap());
            }
            let report = inst.apply_delta(&batch).unwrap();
            warm.apply_delta(&inst, &report);
            assert!(
                warm.pending_jv.len() as f64 <= bound,
                "step {step}: {} staged JV repairs, bound {bound}",
                warm.pending_jv.len()
            );
            let run = warm.solve_greedy(&inst);
            assert_eq!(run.solution, greedy::solve_detailed(&inst).solution, "step {step}");
        }
        assert_eq!(warm.patches(), u64::from(steps), "every delta is staged");
        let (sol, dual) = warm.solve_jv(&inst);
        let (cold_sol, cold_dual) = jv::solve(&inst);
        assert_eq!(sol, cold_sol);
        assert_eq!(dual.alpha(), cold_dual.alpha());
    }
}
