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
//!   entry point reuses one scratch arena (service caches, candidate
//!   pricing columns) across solves, and starts from the warm greedy run
//!   exactly as the cold [`crate::SolverKind::LocalSearch`] dispatch
//!   starts from a cold greedy run.
//!
//! # Patching across a delta
//!
//! After [`Instance::apply_delta`], [`WarmCache::apply_delta`] brings the
//! caches in sync from the [`DeltaReport`] instead of rebuilding — along
//! two paths, split by [`DeltaReport::is_structural`]:
//!
//! * **Reprice-only deltas are staged, not applied.** Every row keeps its
//!   length and every id keeps its row, so `apply_delta` just records the
//!   touched `(facility, client)` pairs per structure family; the next
//!   greedy/local-search solve drains the greedy stars and seeds, the
//!   next JV solve drains the ascent lanes. A session pinned to one
//!   solver never pays the other family's upkeep, and repeated reprices
//!   of one link collapse into a single repair against the instance's
//!   current cost. The repair itself is in-place: one staged link per
//!   row rotates a `(cost, id)` subrange to its new sorted position; a
//!   batch per row does one snapshot-and-merge pass. Both produce exactly
//!   what a full re-sort would, because every row's keys are unique.
//! * **Structural deltas flush eagerly.** Surviving star-row entries keep
//!   their `(cost, client id)` order under the report's remap because the
//!   remap is **monotone**, so each facility row is one linear merge of
//!   its filtered survivors with the (small, sorted) added/repriced
//!   entries; greedy seeds recompute only for touched rows; JV client
//!   rows re-extract and re-sort only when dirty, surviving rows copy
//!   verbatim. Any still-staged reprices fold (remapped) into the
//!   repriced set first, so nothing is lost across the flush.
//!
//! When the batch touches more than [`WarmConfig::drift_threshold`] of the
//! link lanes, patching stops paying for itself and the cache falls back
//! to a rebuild — itself deferred per family (a stale family re-sorts
//! from the instance on its next drain). Results are identical either
//! way, only the work differs (the equivalence proptests pin both paths).

use distfl_instance::{ClientId, DeltaReport, FacilityId, Instance, Solution};
use distfl_lp::DualSolution;

use crate::greedy::{self, GreedyRun};
use crate::jv::{self, DualAscent};
use crate::localsearch::{self, LocalSearchRun};

/// Tuning knobs for [`WarmCache`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WarmConfig {
    /// Maximum fraction of link lanes a delta may touch
    /// ([`DeltaReport::drift`]) before `apply_delta` rebuilds the caches
    /// from scratch instead of patching. `0.0` always rebuilds, `1.0`
    /// effectively always patches; either way the solve outputs are
    /// identical.
    pub drift_threshold: f64,
}

impl Default for WarmConfig {
    fn default() -> Self {
        // Break-even on the bench shapes sits near 10% of links touched:
        // past that, the in-place rotations move more bytes than a fresh
        // counting-sort build, and the rebuild fallback (which still skips
        // the instance rebuild the cold path pays) wins.
        WarmConfig { drift_threshold: 0.1 }
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
/// let mut warm = WarmCache::new(&inst);
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
pub struct WarmCache {
    config: WarmConfig,
    rebuilds: u64,
    patches: u64,
    // Greedy: pristine sorted star rows + exact iteration-0 seeds, a
    // working copy the run loop may destroy, and a spare for patching.
    stars_pristine: greedy::SortedStars,
    stars_working: greedy::SortedStars,
    stars_spare: greedy::SortedStars,
    seeds: Vec<f64>,
    seeds_spare: Vec<f64>,
    greedy_scratch: greedy::GreedyScratch,
    // Jain–Vazirani: read-only ascent lanes + reusable mutable state.
    jv_lanes: jv::JvLanes,
    jv_spare_offs: Vec<u32>,
    jv_spare_sorted: Vec<(f64, u32)>,
    jv_scratch: jv::JvScratch,
    // Local search: one scratch arena across solves.
    ls_scratch: localsearch::LsScratch,
    // Deferred reprice repairs, per structure family: `(facility, client,
    // old cost)` triples staged by `apply_delta` and drained by the next
    // solve that actually reads the family's lanes. A session that only
    // runs greedy never pays for JV lane maintenance, and vice versa. The
    // old cost is the repriced entry's current sort key inside the
    // family's lanes, so a drain can binary-search its position instead
    // of scanning for it.
    pending_greedy: Vec<(u32, u32, f64)>,
    pending_jv: Vec<(u32, u32, f64)>,
    // The drift fallback is deferred the same way: a stale family
    // re-sorts itself from the instance on its next drain instead of
    // both families rebuilding eagerly inside `apply_delta`.
    stale_greedy: bool,
    stale_jv: bool,
    // Patch-pass scratch.
    extras: Vec<(u32, f64, u32)>,
    repriced_any: Vec<bool>,
    old_of: Vec<u32>,
    union_repriced: Vec<(ClientId, FacilityId)>,
    inserts: Vec<(f64, u32)>,
}

impl std::fmt::Debug for WarmCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WarmCache")
            .field("config", &self.config)
            .field("rebuilds", &self.rebuilds)
            .field("patches", &self.patches)
            .finish_non_exhaustive()
    }
}

impl WarmCache {
    /// Builds the caches for `instance` with the default config.
    pub fn new(instance: &Instance) -> Self {
        WarmCache::with_config(instance, WarmConfig::default())
    }

    /// Builds the caches for `instance` with an explicit config.
    pub fn with_config(instance: &Instance, config: WarmConfig) -> Self {
        let stars_pristine = greedy::SortedStars::build(instance);
        let seeds = greedy::seed_ratios(instance, &stars_pristine);
        WarmCache {
            config,
            rebuilds: 0,
            patches: 0,
            stars_pristine,
            stars_working: greedy::SortedStars::empty(),
            stars_spare: greedy::SortedStars::empty(),
            seeds,
            seeds_spare: Vec::new(),
            greedy_scratch: greedy::GreedyScratch::default(),
            jv_lanes: jv::JvLanes::build(instance),
            jv_spare_offs: Vec::new(),
            jv_spare_sorted: Vec::new(),
            jv_scratch: jv::JvScratch::default(),
            ls_scratch: localsearch::LsScratch::default(),
            pending_greedy: Vec::new(),
            pending_jv: Vec::new(),
            stale_greedy: false,
            stale_jv: false,
            extras: Vec::new(),
            repriced_any: Vec::new(),
            old_of: Vec::new(),
            union_repriced: Vec::new(),
            inserts: Vec::new(),
        }
    }

    /// How many `apply_delta` calls fell back to a full rebuild.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// How many `apply_delta` calls took the incremental patch path.
    pub fn patches(&self) -> u64 {
        self.patches
    }

    /// Brings the caches in sync with `instance` after a successful
    /// [`Instance::apply_delta`] that returned `report`.
    ///
    /// `instance` must be the **post-mutation** instance. Patches
    /// incrementally below the drift threshold, rebuilds above it. A
    /// reprice-only delta is merely *staged* here, and the drift fallback
    /// merely marks each family stale — a family's lanes repair (or
    /// re-sort) themselves lazily on the next solve that reads them, so a
    /// session pinned to one solver never pays for the others' upkeep.
    pub fn apply_delta(&mut self, instance: &Instance, report: &DeltaReport) {
        if report.drift(instance) > self.config.drift_threshold {
            // Past the threshold, patching stops paying for itself. Like
            // the reprices, the fallback is deferred per family: a
            // greedy-pinned session never re-sorts the JV ascent lanes.
            self.rebuilds += 1;
            self.stale_greedy = true;
            self.stale_jv = true;
            self.pending_greedy.clear();
            self.pending_jv.clear();
            return;
        }
        self.patches += 1;
        if !report.is_structural() {
            for (&(j, i), &old) in report.repriced.iter().zip(&report.repriced_old) {
                if !self.stale_greedy {
                    self.pending_greedy.push((i.raw(), j.raw(), old));
                }
                if !self.stale_jv {
                    self.pending_jv.push((i.raw(), j.raw(), old));
                }
            }
            return;
        }
        // Structural: fold any deferred reprices (remapped to post-delta
        // ids; removed clients drop out) into the repriced set and flush
        // the live families eagerly; a stale family keeps deferring — its
        // drain re-sorts from the final instance anyway. A spurious union
        // entry is harmless — the merge re-reads the link's current cost
        // from the instance — so one union serves both families.
        let mut union = std::mem::take(&mut self.union_repriced);
        union.clear();
        union.extend_from_slice(&report.repriced);
        for &(ir, jr, _) in self.pending_greedy.iter().chain(self.pending_jv.iter()) {
            if let Some(nj) = report.remap[jr as usize] {
                union.push((nj, FacilityId::new(ir)));
            }
        }
        union.sort_unstable();
        union.dedup();
        self.pending_greedy.clear();
        self.pending_jv.clear();
        // One repriced-client mask per structural delta, built before
        // either family patches: a stale family skips its patch, so no
        // patch may rely on another to have filled it.
        let repriced_any = &mut self.repriced_any;
        repriced_any.clear();
        repriced_any.resize(instance.num_clients(), false);
        for &(j, _) in &union {
            repriced_any[j.index()] = true;
        }
        if !self.stale_greedy {
            self.patch_greedy(instance, report, &union);
        }
        if !self.stale_jv {
            self.patch_jv(instance, report);
        }
        self.union_repriced = union;
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

    /// Drains the greedy family's staged reprice repairs. A reprice
    /// keeps every row's length and every id's row, so the big sorted
    /// star lanes are *repaired* in place instead of rewritten. A small
    /// group of staged links per facility resolves move by move: the
    /// staged old cost pins the entry's current sorted position by
    /// binary search (the row stays fully sorted between moves, and
    /// every not-yet-moved entry still holds its staged old key), and a
    /// subrange rotation carries it to its new position — `O(Δ · deg)`
    /// contiguous moves, no scan. A large group merges the whole row in
    /// one pass instead, which is cheaper once rotations would move
    /// more bytes than a row rewrite. Seeds recompute only for drained
    /// facilities; every other cached value is untouched bytes,
    /// bit-identity for free. Repeats of a pair keep the **first**
    /// staged old cost (the one matching the lanes) and repair straight
    /// to the instance's current cost — the intermediate values were
    /// never observable.
    fn drain_greedy(&mut self, instance: &Instance) {
        if self.stale_greedy {
            // Deferred drift fallback: re-sort this family, leave the
            // other alone.
            self.stale_greedy = false;
            self.pending_greedy.clear();
            self.stars_pristine = greedy::SortedStars::build(instance);
            self.seeds = greedy::seed_ratios(instance, &self.stars_pristine);
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
        let mask = &mut self.repriced_any;
        mask.clear();
        mask.resize(instance.num_clients(), false);
        let inserts = &mut self.inserts;
        let scratch_ids = &mut self.stars_spare.ids;
        let scratch_costs = &mut self.stars_spare.costs;
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
                    if q >= p {
                        ids[p..=q].rotate_left(1);
                        costs[p..=q].rotate_left(1);
                    } else {
                        ids[q..=p].rotate_right(1);
                        costs[q..=p].rotate_right(1);
                    }
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
                scratch_ids.clear();
                scratch_ids.extend_from_slice(ids);
                scratch_costs.clear();
                scratch_costs.extend_from_slice(costs);

                let (mut w, mut dropped, mut u) = (0usize, 0usize, 0usize);
                for t in 0..scratch_ids.len() {
                    let sj = scratch_ids[t];
                    if mask[sj as usize] {
                        dropped += 1;
                        continue;
                    }
                    let sc = scratch_costs[t];
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
            let costs = &self.stars_pristine.costs[lo..hi];
            self.seeds[i] = if costs.is_empty() {
                f64::NAN
            } else {
                distfl_instance::kernels::fused_ratio_accumulate(
                    costs,
                    instance.opening_cost(FacilityId::new(i as u32)).value(),
                )
                .0
            };
        }
        moves.clear();
        self.pending_greedy = moves;
    }

    /// Drains the JV family's staged reprices: repairs each touched
    /// client's cost-sorted ascent row by rotation (one link) or
    /// snapshot-and-merge (several), mirroring [`WarmCache::drain_greedy`].
    fn drain_jv(&mut self, instance: &Instance) {
        if self.stale_jv {
            // Deferred drift fallback: re-sort this family, leave the
            // other alone.
            self.stale_jv = false;
            self.pending_jv.clear();
            self.jv_lanes = jv::JvLanes::build(instance);
            return;
        }
        if self.pending_jv.is_empty() {
            return;
        }
        let mut moves = std::mem::take(&mut self.pending_jv);
        // Group by client row (stable, keeping the first staging of each
        // pair — its old cost is the entry's actual current sort key);
        // facility order within a group gives the membership scan a
        // sorted needle list.
        moves.sort_by_key(|&(i, j, _)| (j, i));
        moves.dedup_by_key(|&mut (i, j, _)| (j, i));

        let drops = &mut self.old_of;
        let inserts = &mut self.inserts;
        let scratch = &mut self.jv_spare_sorted;
        let mut s = 0usize;
        while s < moves.len() {
            let jr = moves[s].1;
            let e = s + moves[s..].iter().take_while(|mv| mv.1 == jr).count();
            let group = &moves[s..e];
            s = e;

            let cl = instance.client_links(ClientId::new(jr));
            let lo = self.jv_lanes.offs[jr as usize] as usize;
            let hi = self.jv_lanes.offs[jr as usize + 1] as usize;
            let row = &mut self.jv_lanes.sorted[lo..hi];

            if group.len() <= ROTATE_MAX_GROUP {
                for &(ir, _, old_c) in group {
                    let c = cl.costs[cl.ids.binary_search(&ir).expect("staged link is in its row")];
                    let p = row.partition_point(|&(ec, ef)| {
                        ec.total_cmp(&old_c).then(ef.cmp(&ir)).is_lt()
                    });
                    debug_assert!(row[p] == (old_c, ir), "staged old cost pins the entry");
                    let q = slide_to(
                        row.partition_point(|&(ec, ef)| ec.total_cmp(&c).then(ef.cmp(&ir)).is_lt()),
                        p,
                    );
                    if q >= p {
                        row[p..=q].rotate_left(1);
                    } else {
                        row[q..=p].rotate_right(1);
                    }
                    row[q] = (c, ir);
                }
            } else {
                drops.clear();
                for (t, &(_, f)) in row.iter().enumerate() {
                    if group.binary_search_by(|mv| mv.0.cmp(&f)).is_ok() {
                        drops.push(t as u32);
                    }
                }
                debug_assert_eq!(drops.len(), group.len(), "every staged link is in its row");
                inserts.clear();
                for &(ir, _, _) in group {
                    let c = cl.costs[cl.ids.binary_search(&ir).expect("staged link is in its row")];
                    inserts.push((c, ir));
                }
                inserts.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                scratch.clear();
                scratch.extend_from_slice(row);

                let (mut w, mut d, mut u) = (0usize, 0usize, 0usize);
                for (t, &(sc, sf)) in scratch.iter().enumerate() {
                    if d < drops.len() && drops[d] as usize == t {
                        d += 1;
                        continue;
                    }
                    while u < inserts.len() {
                        let (ic, fi) = inserts[u];
                        if ic.total_cmp(&sc).then(fi.cmp(&sf)).is_lt() {
                            row[w] = (ic, fi);
                            w += 1;
                            u += 1;
                        } else {
                            break;
                        }
                    }
                    row[w] = (sc, sf);
                    w += 1;
                }
                for &ins in &inserts[u..] {
                    row[w] = ins;
                    w += 1;
                }
                debug_assert_eq!(w, row.len(), "reprice repair preserves row length");
            }
        }
        moves.clear();
        self.pending_jv = moves;
    }

    /// Patches the greedy star rows and heap seeds. One linear merge per
    /// facility row: filtered-and-remapped survivors (already in
    /// `(cost, id)` order because the remap is monotone) merged with the
    /// sorted added/repriced entries.
    fn patch_greedy(
        &mut self,
        instance: &Instance,
        report: &DeltaReport,
        repriced: &[(ClientId, FacilityId)],
    ) {
        let m = instance.num_facilities();
        let repriced_any = &self.repriced_any;
        // Entries entering the rows: every link of an added client and the
        // new value of every repriced link, keyed for a per-facility
        // `(cost, client id)`-ordered merge.
        let extras = &mut self.extras;
        extras.clear();
        for j in report.added.clone() {
            for (i, c) in instance.client_links(distfl_instance::ClientId::new(j)).iter() {
                extras.push((i, c, j));
            }
        }
        for &(j, i) in repriced {
            let c = instance
                .connection_cost(j, i)
                .expect("repriced pairs exist in the post-state")
                .value();
            extras.push((i.raw(), c, j.raw()));
        }
        extras.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)).then(a.2.cmp(&b.2)));

        let spare = &mut self.stars_spare;
        spare.offsets.clear();
        spare.offsets.push(0);
        spare.ids.clear();
        spare.costs.clear();
        let seeds_spare = &mut self.seeds_spare;
        seeds_spare.clear();

        let mut ex = 0usize;
        for i in 0..m {
            let (old_ids, old_costs) = self.stars_pristine.row(i);
            let ex_end = ex + extras[ex..].iter().take_while(|&&(f, _, _)| f == i as u32).count();
            let row_extras = &extras[ex..ex_end];
            ex = ex_end;

            let row_start = spare.ids.len();
            // Next surviving (cost, new id) entry of the old row, skipping
            // removed clients and pairs superseded by a reprice.
            let mut k = 0usize;
            let next_survivor = |k: &mut usize| -> Option<(f64, u32)> {
                while *k < old_ids.len() {
                    let (oj, c) = (old_ids[*k], old_costs[*k]);
                    *k += 1;
                    if let Some(nj) = report.remap[oj as usize] {
                        let superseded = repriced_any[nj.index()]
                            && repriced
                                .binary_search(&(nj, distfl_instance::FacilityId::new(i as u32)))
                                .is_ok();
                        if !superseded {
                            return Some((c, nj.raw()));
                        }
                    }
                }
                None
            };
            let mut surv = next_survivor(&mut k);
            let mut survivors_kept = 0usize;
            let mut b = 0usize;
            loop {
                let take_survivor = match (surv, row_extras.get(b)) {
                    (Some((c, j)), Some(&(_, ec, ej))) => c.total_cmp(&ec).then(j.cmp(&ej)).is_lt(),
                    (Some(_), None) => true,
                    (None, Some(_)) => false,
                    (None, None) => break,
                };
                if take_survivor {
                    let (c, j) = surv.expect("checked above");
                    spare.ids.push(j);
                    spare.costs.push(c);
                    survivors_kept += 1;
                    surv = next_survivor(&mut k);
                } else {
                    let (_, c, j) = row_extras[b];
                    spare.ids.push(j);
                    spare.costs.push(c);
                    b += 1;
                }
            }
            spare.offsets.push(spare.ids.len() as u32);

            // Seeds: untouched rows keep bit-identical cached values;
            // touched rows recompute from the new cost lane.
            let row_changed = survivors_kept != old_ids.len() || !row_extras.is_empty();
            if row_changed {
                let costs = &spare.costs[row_start..];
                seeds_spare.push(if costs.is_empty() {
                    f64::NAN
                } else {
                    distfl_instance::kernels::fused_ratio_accumulate(
                        costs,
                        instance.opening_cost(distfl_instance::FacilityId::new(i as u32)).value(),
                    )
                    .0
                });
            } else {
                seeds_spare.push(self.seeds[i]);
            }
        }
        spare.live_end.clear();
        spare.live_end.extend_from_slice(&spare.offsets[1..]);

        std::mem::swap(&mut self.stars_pristine, &mut self.stars_spare);
        std::mem::swap(&mut self.seeds, &mut self.seeds_spare);
    }

    /// Patches the JV ascent lanes: dirty client rows (added clients and
    /// those marked in the repriced-client mask `apply_delta` builds) are
    /// re-extracted and re-sorted, and surviving rows copy verbatim.
    fn patch_jv(&mut self, instance: &Instance, report: &DeltaReport) {
        let n = instance.num_clients();
        let repriced_any = &self.repriced_any;
        let old_of = &mut self.old_of;
        old_of.clear();
        old_of.resize(n, u32::MAX);
        for (old, maybe_new) in report.remap.iter().enumerate() {
            if let Some(new) = maybe_new {
                old_of[new.index()] = old as u32;
            }
        }

        let offs = &mut self.jv_spare_offs;
        offs.clear();
        offs.push(0);
        let sorted = &mut self.jv_spare_sorted;
        sorted.clear();
        for j in instance.clients() {
            let dirty = report.added.contains(&j.raw()) || repriced_any[j.index()];
            if dirty {
                let s = sorted.len();
                sorted.extend(instance.client_links(j).iter().map(|(i, c)| (c, i)));
                sorted[s..].sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            } else {
                let old = old_of[j.index()] as usize;
                let lo = self.jv_lanes.offs[old] as usize;
                let hi = self.jv_lanes.offs[old + 1] as usize;
                sorted.extend_from_slice(&self.jv_lanes.sorted[lo..hi]);
            }
            offs.push(sorted.len() as u32);
        }
        std::mem::swap(&mut self.jv_lanes.offs, offs);
        std::mem::swap(&mut self.jv_lanes.sorted, sorted);
    }
}

/// Largest per-row group a drain repairs by successive rotations; bigger
/// groups fall back to a whole-row snapshot-and-merge. A rotation moves
/// on average a third of the row per staged link while a merge moves the
/// whole row once (plus a branchy per-element pass), so the crossover is
/// near a dozen links regardless of row length.
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
        // The drift fallback (d2) marks both families stale and the JV
        // solve refreshes only JV. The next structural delta (d3) keeps
        // the client count and skips the stale greedy patch, so the JV
        // patch must not read a repriced-client mask left by d1: client
        // 20 would keep its old cost-sorted row while the facility rows
        // refresh, and the ascent would never end.
        use std::sync::mpsc::{self, RecvTimeoutError};
        let (tx, rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            let mut inst = Euclidean::new(5, 40).unwrap().generate(3).unwrap();
            let mut warm = WarmCache::new(&inst);
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
            assert_eq!(warm.rebuilds(), 1, "d2 takes the drift fallback");
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
}
