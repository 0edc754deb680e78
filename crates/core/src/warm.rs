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
//!   facility. The run loop only reads the rows (a per-row cursor skips
//!   served clients), so a warm solve runs straight from the cache. The
//!   heap's pop order depends only on its *content* (keys are totally
//!   ordered and per-facility unique), so seeding it from cached values
//!   reproduces the cold run exactly.
//! * **Jain–Vazirani** — the per-client cost-sorted adjacency the
//!   event-driven ascent reads through its tightness pointers, plus the
//!   opening lane. The ascent itself re-runs with reused scratch buffers
//!   (its per-facility tight lists are rebuilt by every solve).
//! * **Local search** — no instance-derived precompute to keep; the warm
//!   entry point reuses one scratch arena (service caches, open and closed
//!   id lists, the per-facility gain tables) across solves, and starts from
//!   the warm greedy run exactly as the cold
//!   [`crate::SolverKind::LocalSearch`] dispatch starts from a cold greedy
//!   run.
//!
//! # Catching up with a delta
//!
//! A new cache holds no lanes: both families start stale, and each builds
//! its lanes on its first solve. After [`Instance::apply_delta`],
//! [`WarmCache::apply_delta`] does no lane work either. It stages, per
//! live structure family, what the next solve that reads the family's
//! lanes must fold in first, so a session pinned to one solver never pays
//! for the other family's upkeep:
//!
//! * **Reprices** are staged as `(facility, client, old cost)` triples.
//!   The old cost is the entry's sort key inside the lanes, so a drain
//!   binary-searches its position. Repeated reprices of one link collapse
//!   into a single repair against the instance's current cost.
//! * **Removed and added clients** are staged as a map from each lane
//!   client id (the id space the lanes were sorted in) to its current id.
//!   A removed client maps to none and survivors shift down, so the map
//!   stays monotone; the clients added since the sort hold the tail of the
//!   current id space. Each structural delta renames the staged triples
//!   into current ids and drops those of removed clients.
//!
//! A drain then repairs the lanes in place of a re-sort. After reprices
//! alone, a staged link rotates a `(cost, id)` subrange to its new sorted
//! position, and a large group in one star row merges the row in one
//! snapshot pass instead. After a structural change, the star rows are
//! rewritten in one merge pass (survivors renamed through the map, staged
//! and added links merged in), and the JV client rows are compacted in
//! place, rotated, and extended by the added clients' sorted rows. Every
//! path produces exactly what a full re-sort would, because every row's
//! keys are unique and renaming keeps the survivors' order.
//!
//! **The drift threshold bounds staging.** A delta that touches more than
//! 10% of the link lanes ([`DeltaReport::drift`]) marks both families
//! stale, and so does a run of deltas once the links changed since a
//! family's lanes were sorted pass 10% of `num_links`: past it, repairing
//! costs more than re-sorting. A stale family stages nothing and re-sorts
//! its lanes from the instance, in place, on its next solve — a per-row
//! comparison sort into the buffers it already owns. Results are identical
//! on every path, only the work differs (the equivalence proptests pin
//! each path).

use distfl_instance::{ClientId, DeltaReport, FacilityId, Instance, Solution};
use distfl_lp::DualSolution;

use crate::greedy::{self, GreedyRun};
use crate::jv::{self, DualAscent};
use crate::localsearch::{self, LocalSearchRun};

/// Largest fraction of the link lanes that may change, in one delta or
/// since a family's lanes were last sorted ([`DeltaReport::drift`]), while
/// the family still repairs its lanes instead of re-sorting them.
/// Break-even on the bench shapes sits near 10% of links touched: past
/// that, the in-place rotations move more bytes than the per-row
/// comparison sort of a re-sort, which still skips the instance rebuild the
/// cold path pays. The solve outputs are identical either way.
const DRIFT_THRESHOLD: f64 = 0.1;

/// A staged map entry for a lane client that a delta removed.
const GONE: u32 = u32::MAX;

/// What one structure family's next drain must fold into its lanes:
/// everything [`WarmCache::apply_delta`] staged since the lanes were last
/// sorted or repaired.
#[derive(Default)]
struct Staged {
    /// Whether the family's lanes were sorted from the instance and every
    /// delta since is staged here. A stale family re-sorts on its next
    /// drain.
    live: bool,
    /// Link-lane entries changed since the lanes were sorted or repaired.
    links_changed: usize,
    /// Lane client id -> current client id, or [`GONE`]. Empty until a
    /// structural delta is staged.
    remap: Vec<u32>,
    /// While `remap` is in use, how many lane clients survive: the clients
    /// added since the sort hold the current ids `kept..`.
    kept: u32,
    /// `(facility, client, old cost)` reprices of lane clients, in current
    /// client ids.
    moves: Vec<(u32, u32, f64)>,
}

impl Staged {
    /// How many reprice triples are staged.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.moves.len()
    }

    /// Whether a drain must rename clients (a structural delta is staged).
    fn is_structural(&self) -> bool {
        !self.remap.is_empty()
    }

    /// Forgets everything staged: the lanes match the instance.
    fn clear(&mut self) {
        self.links_changed = 0;
        self.remap.clear();
        self.moves.clear();
    }

    fn go_stale(&mut self) {
        self.live = false;
        self.clear();
    }

    /// Folds one delta into a live family's staged state, or marks the
    /// family stale once its composed drift passes the threshold.
    fn stage(&mut self, instance: &Instance, report: &DeltaReport) {
        if !self.live {
            return;
        }
        self.links_changed += report.links_changed;
        if self.links_changed as f64 > DRIFT_THRESHOLD * instance.num_links() as f64 {
            self.go_stale();
            return;
        }
        if report.is_structural() {
            let removed = &report.removed;
            if self.remap.is_empty() {
                let lane_clients = (instance.num_clients() + removed.len() - report.added) as u32;
                self.remap.extend(0..lane_clients);
                self.kept = lane_clients;
            }
            // A survivor's new id is its old one less the removed ids
            // below it. The map is ascending past its `GONE` entries, so
            // one cursor walks `removed` for the whole pass.
            let mut below = 0;
            for id in self.remap.iter_mut().filter(|id| **id != GONE) {
                while below < removed.len() && removed[below].raw() < *id {
                    below += 1;
                }
                *id = match removed.get(below) {
                    Some(r) if r.raw() == *id => GONE,
                    _ => *id - below as u32,
                };
            }
            let kept = self.kept;
            self.kept -= removed.partition_point(|r| r.raw() < kept) as u32;
            self.moves.retain_mut(|(_, j, _)| {
                let below = removed.partition_point(|r| r.raw() < *j);
                if removed.get(below).is_some_and(|r| r.raw() == *j) {
                    return false;
                }
                *j -= below as u32;
                true
            });
        }
        // Clients added since the sort are not in the lanes: a drain reads
        // their links, current costs included, from the instance.
        let added_from = if self.is_structural() { self.kept } else { u32::MAX };
        for (&(j, i), &old) in report.repriced.iter().zip(&report.repriced_old) {
            if j.raw() < added_from {
                self.moves.push((i.raw(), j.raw(), old));
            }
        }
    }
}

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
    // Greedy: sorted star rows (read-only during a run) + exact
    // iteration-0 seeds, and the structural drain's merge buffer.
    stars_pristine: greedy::SortedStars,
    stars_working: greedy::SortedStars,
    seeds: Vec<f64>,
    greedy_scratch: greedy::GreedyScratch,
    // Jain–Vazirani: read-only ascent lanes + reusable mutable state.
    jv_lanes: jv::JvLanes,
    jv_scratch: jv::JvScratch,
    // Local search: one scratch arena across solves.
    ls_scratch: localsearch::LsScratch,
    // What each family's next drain must fold in.
    pending_greedy: Staged,
    pending_jv: Staged,
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

    /// How many `apply_delta` calls drifted past the threshold and marked
    /// both families for a re-sort.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// How many `apply_delta` calls stayed under the drift threshold and
    /// were staged, reprice-only or structural, for each live family's
    /// next drain to repair in place. (A family whose staged drift passes
    /// the threshold over several such calls goes stale all the same.)
    pub fn patches(&self) -> u64 {
        self.patches
    }

    /// Brings the caches in sync with `instance` after a successful
    /// [`Instance::apply_delta`] that returned `report`.
    ///
    /// `instance` must be the **post-mutation** instance. Touches no lane:
    /// a delta under the drift threshold is staged per live family (its
    /// reprices, and its removed and added clients as an id map), one past
    /// it marks both families stale, and each family repairs (or re-sorts)
    /// its lanes on the next solve that reads them.
    pub fn apply_delta(&mut self, instance: &Instance, report: &DeltaReport) {
        if report.drift(instance) > DRIFT_THRESHOLD {
            self.rebuilds += 1;
            self.pending_greedy.go_stale();
            self.pending_jv.go_stale();
            return;
        }
        self.patches += 1;
        self.pending_greedy.stage(instance, report);
        self.pending_jv.stage(instance, report);
    }

    /// Warm star greedy: drains this family's staged changes and replays
    /// the lazy-heap loop over the cached rows, which it only reads, from
    /// the cached seeds. Bit-identical to [`greedy::solve_detailed`].
    pub fn solve_greedy(&mut self, instance: &Instance) -> GreedyRun {
        let _span = distfl_obs::span("solver", "greedy.warm");
        self.drain_greedy(instance);
        assert_eq!(self.seeds.len(), instance.num_facilities(), "warm cache out of sync");
        assert_eq!(self.stars_pristine.ids.len(), instance.num_links(), "warm cache out of sync");
        greedy::run_greedy(instance, &self.stars_pristine, &self.seeds, &mut self.greedy_scratch)
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
    /// star rows and seeds in place; otherwise the staged changes are
    /// repaired. Staged reprices are folded in per facility (repeats of a
    /// pair keep the **first** staged old cost, the one matching the
    /// lanes, and repair straight to the instance's current cost — the
    /// intermediate values were never observable). After reprices alone,
    /// every row keeps its length and every id its row, so the star lanes
    /// are repaired in place; after a structural change every row is
    /// rewritten in one merge pass ([`WarmCache::merge_stars`]). Seeds
    /// recompute only for rows that changed; every other cached value is
    /// untouched bytes, bit-identity for free.
    fn drain_greedy(&mut self, instance: &Instance) {
        if !self.pending_greedy.live {
            self.pending_greedy.live = true;
            self.pending_greedy.clear();
            self.stars_pristine.rebuild(instance, &mut self.row_scratch);
            greedy::seed_ratios(instance, &self.stars_pristine, &mut self.seeds);
            return;
        }
        let mut moves = std::mem::take(&mut self.pending_greedy.moves);
        // Stable by pair, then keep the first (earliest) staging of each
        // pair: its old cost is the entry's actual current sort key.
        moves.sort_by_key(|&(i, j, _)| (i, j));
        moves.dedup_by_key(|&mut (i, j, _)| (i, j));
        if self.pending_greedy.is_structural() {
            self.merge_stars(instance, &moves);
        } else {
            self.repair_stars_in_place(instance, &moves);
        }
        self.pending_greedy.moves = moves;
        self.pending_greedy.clear();
    }

    /// The reprice-only greedy repair. A small group of staged links per
    /// facility resolves move by move: the staged old cost pins the
    /// entry's current sorted position by binary search (the row stays
    /// fully sorted between moves, and every not-yet-moved entry still
    /// holds its staged old key), and a subrange rotation carries it to its
    /// new position — `O(Δ · deg)` contiguous moves, no scan. A large group
    /// merges the whole row in one snapshot pass instead, which is cheaper
    /// once rotations would move more bytes than a row rewrite.
    fn repair_stars_in_place(&mut self, instance: &Instance, moves: &[(u32, u32, f64)]) {
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
                    let c = link_cost(fl.ids, fl.costs, jr);
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
                // dropping stale entries inline with an O(1) client-id
                // mask lookup. Each element moves once.
                stage_inserts(group, fl.ids, fl.costs, u32::MAX, mask, inserts);
                snapshot.clear();
                snapshot.extend(costs.iter().copied().zip(ids.iter().copied()));
                let kept = snapshot.iter().copied().filter(|&(_, j)| !mask[j as usize]);
                merge_row(kept, inserts, ids, costs);
                for &(_, jr, _) in group {
                    mask[jr as usize] = false;
                }
            }

            // This row's cost lane changed; recompute its heap seed.
            self.seeds[i] = greedy::seed_ratio(
                &self.stars_pristine.ids[lo..hi],
                &self.stars_pristine.costs[lo..hi],
                instance.opening_cost(FacilityId::new(i as u32)).value(),
            );
        }
    }

    /// The structural greedy repair: rewrites every star row into
    /// `stars_working` in one merge pass and swaps it in as the pristine
    /// rows. Each row drops the entries of removed clients and of staged
    /// links, renames the survivors through the staged map (which keeps
    /// their `(cost, id)` order, since it is monotone), and merges in the
    /// staged links at their current cost plus the links of the clients
    /// added since the sort.
    fn merge_stars(&mut self, instance: &Instance, moves: &[(u32, u32, f64)]) {
        let Staged { remap, kept, .. } = &self.pending_greedy;
        let mask = &mut self.merge_mask;
        mask.clear();
        mask.resize(instance.num_clients(), false);
        let inserts = &mut self.inserts;
        let src = &self.stars_pristine;
        let out = &mut self.stars_working;
        out.offsets.clear();
        out.offsets.push(0);
        out.ids.resize(instance.num_links(), 0);
        out.costs.resize(instance.num_links(), 0.0);
        let mut s = 0usize;
        for f in instance.facilities() {
            let i = f.index();
            let e = s + moves[s..].iter().take_while(|mv| mv.0 as usize == i).count();
            let group = &moves[s..e];
            s = e;

            let fl = instance.facility_links(f);
            stage_inserts(group, fl.ids, fl.costs, *kept, mask, inserts);
            let (ids, costs) = src.row(i);
            let kept_entries = costs.iter().zip(ids).filter_map(|(&c, &k)| {
                let j = remap[k as usize];
                (j != GONE && !mask[j as usize]).then_some((c, j))
            });
            let lo = out.offsets[i] as usize;
            let hi = lo + fl.len();
            merge_row(kept_entries, inserts, &mut out.ids[lo..hi], &mut out.costs[lo..hi]);
            out.offsets.push(hi as u32);
            for &(_, jr, _) in group {
                mask[jr as usize] = false;
            }
            // A row that lost and gained nothing kept its cost lane.
            if !inserts.is_empty() || costs.len() != fl.len() {
                self.seeds[i] = greedy::seed_ratio(
                    &out.ids[lo..hi],
                    &out.costs[lo..hi],
                    instance.opening_cost(f).value(),
                );
            }
        }
        std::mem::swap(&mut self.stars_pristine, &mut self.stars_working);
    }

    /// Brings the JV family up to date: a stale family re-sorts its ascent
    /// lanes in place. Otherwise a structural change first compacts the
    /// survivors' rows in place (a row's content never changes with its
    /// client's id, because facility ids never move); then each staged
    /// link rotates to its new sorted position in its client's row, as in
    /// [`WarmCache::repair_stars_in_place`] (a client row holds at most one
    /// link per facility, so it is short and rotation is the whole repair,
    /// however many of its links are staged); last, the clients added
    /// since the sort append their rows, sorted from the instance.
    fn drain_jv(&mut self, instance: &Instance) {
        if !self.pending_jv.live {
            self.pending_jv.live = true;
            self.pending_jv.clear();
            self.jv_lanes.rebuild(instance);
            return;
        }
        let structural = self.pending_jv.is_structural();
        if structural {
            let remap = &self.pending_jv.remap;
            self.jv_lanes.retain_rows(|k| remap[k] != GONE);
        }
        let mut moves = std::mem::take(&mut self.pending_jv.moves);
        // Stable by pair (client-major), then keep the first staging of
        // each pair: its old cost is the entry's actual current sort key.
        moves.sort_by_key(|&(i, j, _)| (j, i));
        moves.dedup_by_key(|&mut (i, j, _)| (j, i));
        for &(ir, jr, old_c) in &moves {
            let cl = instance.client_links(ClientId::new(jr));
            let c = link_cost(cl.ids, cl.costs, ir);
            let lo = self.jv_lanes.offs[jr as usize] as usize;
            let hi = self.jv_lanes.offs[jr as usize + 1] as usize;
            let row = &mut self.jv_lanes.sorted[lo..hi];
            let p = row.partition_point(|e| by_key(e, &(old_c, ir)).is_lt());
            debug_assert!(row[p] == (old_c, ir), "staged old cost pins the entry");
            let q = slide_to(row.partition_point(|e| by_key(e, &(c, ir)).is_lt()), p);
            shift(row, p, q);
            row[q] = (c, ir);
        }
        if structural {
            self.jv_lanes.append_rows(instance, self.pending_jv.kept);
        }
        self.pending_jv.moves = moves;
        self.pending_jv.clear();
    }
}

/// The row order of every sorted lane: cost by `total_cmp`, then id. Ids
/// are unique within a row, so it is total on a row's entries.
fn by_key(a: &(f64, u32), b: &(f64, u32)) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// The cost of the link to `id` in an instance row's id-sorted lanes.
fn link_cost(ids: &[u32], costs: &[f64], id: u32) -> f64 {
    costs[ids.binary_search(&id).expect("staged link is in its row")]
}

/// Fills `inserts` with what one star row gains, in row order: the staged
/// links at their current cost (masking their clients, whose entries the
/// row drops) and the links of clients `added_from..`, which are the tail
/// of the instance's facility row (`ids`/`costs`, sorted by client id).
fn stage_inserts(
    group: &[(u32, u32, f64)],
    ids: &[u32],
    costs: &[f64],
    added_from: u32,
    mask: &mut [bool],
    inserts: &mut Vec<(f64, u32)>,
) {
    inserts.clear();
    for &(_, jr, _) in group {
        mask[jr as usize] = true;
        inserts.push((link_cost(ids, costs, jr), jr));
    }
    let tail = ids.partition_point(|&j| j < added_from);
    inserts.extend(costs[tail..].iter().copied().zip(ids[tail..].iter().copied()));
    inserts.sort_unstable_by(by_key);
}

/// Writes the merge of two `(cost, id)`-sorted runs, `kept` and `inserts`,
/// into `ids`/`costs`, which must be exactly as long as both together.
/// Each element moves once, and the result is exactly what a full re-sort
/// would produce because all keys are unique.
fn merge_row(
    kept: impl Iterator<Item = (f64, u32)>,
    inserts: &[(f64, u32)],
    ids: &mut [u32],
    costs: &mut [f64],
) {
    let (mut w, mut u) = (0usize, 0usize);
    for entry in kept {
        while u < inserts.len() && by_key(&inserts[u], &entry).is_lt() {
            (costs[w], ids[w]) = inserts[u];
            w += 1;
            u += 1;
        }
        (costs[w], ids[w]) = entry;
        w += 1;
    }
    for &(c, j) in &inserts[u..] {
        (costs[w], ids[w]) = (c, j);
        w += 1;
    }
    debug_assert_eq!(w, ids.len(), "a repaired row holds exactly its links");
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
    use distfl_instance::generators::{Euclidean, InstanceGenerator, UniformRandom};
    use distfl_instance::{Cost, DeltaBatch};

    /// A batch that removes `remove`, adds `add` clients linked to every
    /// facility `i` at cost `10 + i` (so added clients tie one another),
    /// and reprices `(client, facility, cost)` triples; pre-batch ids.
    fn delta(
        inst: &Instance,
        remove: &[u32],
        add: usize,
        reprice: &[(u32, u32, f64)],
    ) -> DeltaBatch {
        let mut batch = DeltaBatch::new();
        for &j in remove {
            batch.remove_client(ClientId::new(j));
        }
        for _ in 0..add {
            let fresh = batch.add_client();
            for i in inst.facilities() {
                batch.link(fresh, i, Cost::new(10.0 + f64::from(i.raw())).unwrap()).unwrap();
            }
        }
        for &(j, i, c) in reprice {
            batch.reprice(ClientId::new(j), FacilityId::new(i), Cost::new(c).unwrap());
        }
        batch
    }

    /// One churn step of a session: remove client 0, add a client linked
    /// to every facility, and reprice `(client, facility, cost)` triples
    /// (pre-batch ids). The client count stays the same.
    fn churn_step(inst: &Instance, reprice: &[(u32, u32, f64)]) -> DeltaBatch {
        delta(inst, &[0], 1, reprice)
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Asserts that every lane of `warm` equals a fresh sort of `inst`.
    fn assert_lanes_match_a_fresh_sort(warm: &WarmCache, inst: &Instance, what: &str) {
        let stars = greedy::SortedStars::build(inst);
        assert_eq!(warm.stars_pristine.offsets, stars.offsets, "{what}");
        assert_eq!(warm.stars_pristine.ids, stars.ids, "{what}");
        assert_eq!(bits(&warm.stars_pristine.costs), bits(&stars.costs), "{what}");
        let mut seeds = Vec::new();
        greedy::seed_ratios(inst, &stars, &mut seeds);
        assert_eq!(bits(&warm.seeds), bits(&seeds), "{what}");
        let lanes = jv::JvLanes::build(inst);
        let entries = |sorted: &[(f64, u32)]| -> Vec<(u64, u32)> {
            sorted.iter().map(|&(c, i)| (c.to_bits(), i)).collect()
        };
        assert_eq!(warm.jv_lanes.offs, lanes.offs, "{what}");
        assert_eq!(entries(&warm.jv_lanes.sorted), entries(&lanes.sorted), "{what}");
        assert_eq!(bits(&warm.jv_lanes.f_cost), bits(&lanes.f_cost), "{what}");
    }

    #[test]
    fn repaired_lanes_equal_a_fresh_sort_after_composed_churn() {
        // Both families live, then three structural deltas with no solve
        // in between: removals of client 0, of the highest lane id, and of
        // a client the previous delta added; three adds in one batch; a
        // reprice of an added client's link; and reprices onto costs that
        // tie kept entries (a neighbour's cost, an added client's cost).
        // Each drain must leave lanes and seeds exactly as a fresh sort.
        let instances = [
            Euclidean::new(6, 160).unwrap().generate(1).unwrap(),
            Euclidean::new(5, 150).unwrap().generate(2).unwrap(),
            UniformRandom::new(6, 160).unwrap().generate(3).unwrap(),
        ];
        for (case, mut inst) in instances.into_iter().enumerate() {
            let mut warm = WarmCache::new();
            warm.solve_greedy(&inst);
            warm.solve_jv(&inst);
            for round in 0..3 {
                let what = format!("case {case}, round {round}");
                let n = inst.num_clients() as u32;
                let tie = inst.connection_cost(ClientId::new(6), FacilityId::new(1)).unwrap();
                let steps = [
                    delta(&inst, &[0, n - 1], 3, &[(5, 1, tie.value())]),
                    // After the first step: n + 1 clients, the last three
                    // added.
                    delta(&inst, &[n], 0, &[(n - 1, 2, 1.5), (7, 0, 10.0)]),
                    // After the second: n clients, the last two added.
                    delta(&inst, &[n / 2], 1, &[(n - 2, 3, 12.0), (9, 3, 13.0)]),
                ];
                for batch in &steps {
                    let report = inst.apply_delta(batch).unwrap();
                    warm.apply_delta(&inst, &report);
                }
                for family in [&warm.pending_greedy, &warm.pending_jv] {
                    assert!(family.live && family.is_structural(), "{what}: repair is staged");
                }
                let run = warm.solve_greedy(&inst);
                assert_eq!(run, greedy::solve_detailed(&inst), "{what}");
                assert_eq!(warm.solve_jv(&inst), jv::solve(&inst), "{what}");
                assert_lanes_match_a_fresh_sort(&warm, &inst, &what);
            }
            assert_eq!((warm.rebuilds(), warm.patches()), (0, 9), "case {case}");
        }
    }

    #[test]
    fn a_warm_greedy_solve_leaves_the_star_rows_untouched() {
        // The run loop reads the cached rows through per-row cursors; after
        // each drain, a solve must leave every lane and seed as it found
        // them, so the next solve starts from the same rows.
        let mut inst = Euclidean::new(8, 120).unwrap().generate(4).unwrap();
        let mut warm = WarmCache::new();
        for step in 0..4u32 {
            warm.drain_greedy(&inst);
            let snapshot = |w: &WarmCache| {
                let stars = &w.stars_pristine;
                (stars.offsets.clone(), stars.ids.clone(), bits(&stars.costs), bits(&w.seeds))
            };
            let before = snapshot(&warm);
            for _ in 0..2 {
                assert_eq!(warm.solve_greedy(&inst), greedy::solve_detailed(&inst), "step {step}");
                assert!(snapshot(&warm) == before, "step {step}: a solve wrote the star rows");
            }
            let reprice = [(3 + step, step % 8, 0.5 + f64::from(step))];
            let report = inst.apply_delta(&churn_step(&inst, &reprice)).unwrap();
            warm.apply_delta(&inst, &report);
        }
    }

    #[test]
    fn jv_rows_reprice_after_a_drift_fallback_and_a_jv_only_refresh() {
        // Three structural deltas (d2 drift-sized as well), the last two
        // each followed by a JV-only solve while greedy stays stale. Every
        // JV row must come back sorted by its current costs: a client row
        // left in an old order (client 20's, repriced in d3 and renamed by
        // d3's removal of client 0) makes the ascent wait for an event that
        // never comes.
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
            // Only the drift-sized d2 marks the families stale; d1 and d3
            // are staged, and d3's JV solve repairs the rows in place.
            assert_eq!((warm.rebuilds(), warm.patches()), (1, 2));
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
