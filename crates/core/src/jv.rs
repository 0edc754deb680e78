//! Jain–Vazirani primal–dual 3-approximation (metric baseline).
//!
//! Phase 1 is a continuous dual ascent, simulated exactly with a discrete
//! event loop: all unconnected clients raise `α_j` at unit rate; a client
//! tight with a facility (`α_j ≥ c_ij`) contributes `α_j − c_ij` toward its
//! opening cost; a fully-paid facility opens *temporarily* and absorbs its
//! tight clients (and any client that becomes tight with it later). Phase 2
//! prunes: temporarily-open facilities conflict when a common client
//! contributes positively to both; a greedy (by opening time) maximal
//! independent set of the conflict graph is opened permanently, and clients
//! connect to the nearest permanently open facility — at most `3·α_j` away
//! in a metric, giving the 3-approximation.
//!
//! In [`solve`], one ascent event costs `O(m + log n + rate)` rather than
//! a sweep over every client and facility row (a client-event heap and
//! per-facility lists of tight clients), and the pruning is `O(links)`: it
//! marks claimed clients instead of testing facility pairs.
//! [`dual_ascent_reference`] and [`solve_reference`] keep the direct
//! rescanning versions, which the fast paths match bit for bit.
//!
//! PayDual is the CONGEST-compressed cousin of phase 1; this sequential
//! implementation is both a quality baseline on metric inputs and a source
//! of *feasible* dual solutions (its `α/3` is always dual-feasible up to
//! the contributor sets, and the raw `α` is scaled by the measured
//! feasibility factor before being used as a bound).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use distfl_instance::{kernels, ClientId, FacilityId, Instance, Solution};
use distfl_lp::DualSolution;

use crate::error::CoreError;
use crate::runner::{FlAlgorithm, Outcome};

/// The Jain–Vazirani baseline.
///
/// Requires a complete metric instance for its guarantee; the metricity
/// check can be skipped with [`JainVazirani::unchecked`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JainVazirani {
    /// Additive tolerance for the metricity check (`f64::INFINITY` skips
    /// it).
    pub tolerance: f64,
}

impl JainVazirani {
    /// A baseline with the default metricity tolerance (`1e-6`).
    pub fn new() -> Self {
        JainVazirani { tolerance: 1e-6 }
    }

    /// Skips the (quadratic) metricity validation.
    pub fn unchecked() -> Self {
        JainVazirani { tolerance: f64::INFINITY }
    }
}

impl Default for JainVazirani {
    fn default() -> Self {
        JainVazirani::new()
    }
}

/// Result of the exact phase-1 dual ascent.
#[derive(Debug, Clone)]
pub struct DualAscent {
    /// Final dual value per client (its connection time).
    pub alpha: Vec<f64>,
    /// Temporarily open facilities in opening order.
    pub temp_open: Vec<FacilityId>,
}

/// The exact payment toward a facility at `t` and the number of clients
/// paying it: `paid0` (frozen from connected clients) plus `t − c` for
/// each tight cost of an active client, summed in the order given. The
/// reference passes its filtered facility row and the event-driven ascent
/// its tight list; both run in ascending client id over the same terms,
/// so the two ascents perform identical operations in identical order.
fn exact_payment(tight: impl Iterator<Item = f64>, t: f64, paid0: f64) -> (f64, u32) {
    let mut paid = paid0;
    let mut rate = 0u32;
    for c in tight {
        paid += t - c;
        rate += 1;
    }
    (paid, rate)
}

/// The exact facility event threshold: the time at which a facility with
/// opening cost `f` becomes fully paid (`t` itself if it already is), or
/// `None` if no active client is paying toward it.
fn exact_facility_event(
    tight: impl Iterator<Item = f64>,
    f: f64,
    t: f64,
    paid0: f64,
) -> Option<f64> {
    let (paid, rate) = exact_payment(tight, t, paid0);
    if paid >= f {
        Some(t)
    } else if rate > 0 {
        Some(t + (f - paid) / f64::from(rate))
    } else {
        None
    }
}

/// Whether a facility is fully paid at `t`: its exact payment reaches `f`
/// (up to 1e-12), or the gap left is too small to move time at all —
/// `t + gap / rate` rounds back to `t` once `t` is large, so waiting for
/// the payment would stall the ascent forever.
fn fully_paid(tight: impl Iterator<Item = f64>, f: f64, t: f64, paid0: f64) -> bool {
    let (paid, rate) = exact_payment(tight, t, paid0);
    paid >= f - 1e-12 || (rate > 0 && t + (f - paid) / f64::from(rate) <= t)
}

/// Instance-derived read-only lanes for the event-driven ascent: the
/// per-client cost-sorted adjacency and the opening-cost lane. Sorting the
/// client rows is most of the ascent's setup cost; the warm-start cache
/// keeps them across reprices (repaired in place, row by row) and re-sorts
/// them in place once they go stale (after a structural delta).
#[derive(Default)]
pub(crate) struct JvLanes {
    /// Per-client row offsets into `sorted` (`n + 1` entries).
    pub(crate) offs: Vec<u32>,
    /// Per-client links as `(cost, facility)` sorted by `(cost, id)`.
    pub(crate) sorted: Vec<(f64, u32)>,
    /// Opening costs as a dense lane.
    pub(crate) f_cost: Vec<f64>,
}

impl JvLanes {
    pub(crate) fn build(instance: &Instance) -> Self {
        let mut lanes = JvLanes::default();
        lanes.rebuild(instance);
        lanes
    }

    /// Re-sorts every client row of `instance` into `self`, reusing its
    /// buffers. Facility ids are unique within a row, so the unstable sort
    /// on `(cost, id)` gives the one sorted order.
    pub(crate) fn rebuild(&mut self, instance: &Instance) {
        let JvLanes { offs, sorted, f_cost } = self;
        offs.clear();
        offs.reserve(instance.num_clients() + 1);
        sorted.clear();
        sorted.reserve(instance.num_links());
        offs.push(0u32);
        for j in instance.clients() {
            let s = sorted.len();
            sorted.extend(instance.client_links(j).iter().map(|(i, c)| (c, i)));
            sorted[s..].sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            offs.push(sorted.len() as u32);
        }
        f_cost.clear();
        f_cost.extend(instance.facilities().map(|i| instance.opening_cost(i).value()));
    }
}

/// Per-facility lists of the active clients tight with each facility, in
/// ascending client id: exactly the terms the reference's row scan sums
/// (`!connected[j] && c <= t` over a facility row, which is sorted by
/// client id), in the same order. Facility `i` owns a segment of `rows` as
/// long as its degree, of which the first `len[i]` entries are live. A
/// facility's list stops being maintained once it opens, because nothing
/// reads it after that.
#[derive(Default)]
struct TightLists {
    start: Vec<u32>,
    len: Vec<u32>,
    rows: Vec<(u32, f64)>,
}

impl TightLists {
    fn reset(&mut self, instance: &Instance) {
        self.start.clear();
        let mut at = 0u32;
        for i in instance.facilities() {
            self.start.push(at);
            at += instance.facility_links(i).len() as u32;
        }
        self.len.clear();
        self.len.resize(instance.num_facilities(), 0);
        // Entries past a segment's live length are never read, so whatever
        // an earlier solve left there can stay.
        self.rows.resize(instance.num_links(), (0, 0.0));
    }

    fn list(&self, i: usize) -> &[(u32, f64)] {
        let lo = self.start[i] as usize;
        &self.rows[lo..lo + self.len[i] as usize]
    }

    fn costs(&self, i: usize) -> impl Iterator<Item = f64> + '_ {
        self.list(i).iter().map(|&(_, c)| c)
    }

    /// Adds client `j`, tight at cost `c`, to facility `i`'s list. A
    /// client joins a list at most once, so the segment has room.
    fn insert(&mut self, i: usize, j: u32, c: f64) {
        let lo = self.start[i] as usize;
        let hi = lo + self.len[i] as usize;
        let at = lo + self.rows[lo..hi].partition_point(|&(k, _)| k < j);
        self.rows.copy_within(at..hi, at + 1);
        self.rows[at] = (j, c);
        self.len[i] += 1;
    }

    fn remove(&mut self, i: usize, j: u32) {
        let lo = self.start[i] as usize;
        let hi = lo + self.len[i] as usize;
        let at = lo + self.rows[lo..hi].partition_point(|&(k, _)| k < j);
        debug_assert_eq!(self.rows[at].0, j, "a retiring client is on the list");
        self.rows.copy_within(at + 1..hi, at);
        self.len[i] -= 1;
    }
}

/// Reusable mutable state for [`dual_ascent_with`]; reset on entry, so a
/// warm solve allocates only the returned `alpha`/`temp_open`.
#[derive(Default)]
pub(crate) struct JvScratch {
    connected: Vec<bool>,
    open: Vec<bool>,
    frozen: Vec<f64>,
    ptr: Vec<u32>,
    rate: Vec<i64>,
    sum_c: Vec<f64>,
    thr: Vec<f64>,
    tight: TightLists,
    events: BinaryHeap<Reverse<(u64, u32)>>,
    due: Vec<u32>,
    candidates: Vec<usize>,
    newly_open: Vec<usize>,
}

/// Runs the exact continuous dual ascent (phase 1), event-driven.
///
/// Produces bit-identical duals and opening order to
/// [`dual_ascent_reference`] while avoiding its per-event scans over every
/// link. One event costs `O(m + log n + rate)`:
///
/// * Each client keeps its links sorted by cost behind a pointer, and a
///   min-heap keys every active client by the cost at its pointer (costs
///   are non-negative with `-0.0` normalised, so `to_bits` orders them).
///   The next tightness event is the heap's top; clients connected since
///   they were keyed drop out lazily.
/// * Each facility keeps an incrementally-maintained *linear form* of its
///   payment (`frozen + rate·t − Σc` over active tight links) whose O(1)
///   threshold estimate agrees with the exact sum up to floating-point
///   noise; the handful of facilities within a generous margin of the
///   minimum estimate are re-evaluated exactly, over the facility's list
///   of active tight clients (`TightLists`) rather than its whole row.
///
/// Two order invariants make every exact value the reference's: clients
/// due at an event advance in ascending id, so the `rate`/`sum_c` updates
/// land in the order of a full client sweep; and each tight list holds the
/// terms the reference's row scan sums, in the row's (client id) order.
/// So the event time that wins — and every `α_j`, `frozen` update, and
/// opening decision — is the exact value the reference computes.
pub fn dual_ascent(instance: &Instance) -> DualAscent {
    let lanes = JvLanes::build(instance);
    dual_ascent_with(instance, &lanes, &mut JvScratch::default())
}

/// [`dual_ascent`] over prebuilt lanes and caller-owned scratch — the
/// warm-start entry point. `lanes` must describe `instance` exactly.
pub(crate) fn dual_ascent_with(
    instance: &Instance,
    lanes: &JvLanes,
    scratch: &mut JvScratch,
) -> DualAscent {
    let _span = distfl_obs::span("solver", "jv.dual_ascent");
    let n = instance.num_clients();
    let m = instance.num_facilities();
    let mut alpha = vec![0.0f64; n];
    let connected = &mut scratch.connected;
    connected.clear();
    connected.resize(n, false);
    let open = &mut scratch.open;
    open.clear();
    open.resize(m, false);
    let frozen = &mut scratch.frozen; // payment frozen from connected clients
    frozen.clear();
    frozen.resize(m, 0.0);
    let mut temp_open = Vec::new();
    let mut active = n;
    let mut t = 0.0f64;

    // Per-client links sorted by cost, behind a tightness pointer: links
    // before `ptr` have become tight (cost <= t) and are registered in the
    // facility linear forms below. Kept interleaved: the consumers are
    // random-offset per-client gathers that want cost and id on the same
    // cache line, not contiguous lane scans.
    let offs = &lanes.offs;
    let sorted = &lanes.sorted;
    let ptr = &mut scratch.ptr;
    ptr.clear();
    ptr.extend_from_slice(&offs[..n]);
    // Client events: every active client with a link left to become tight,
    // keyed by that link's cost.
    let events = &mut scratch.events;
    events.clear();
    let due = &mut scratch.due;

    // Facility linear forms: payment ≈ frozen + rate·t − sum_c over active
    // tight links. `rate` is an exact count; `sum_c` is approximate and
    // only ever used for shortlisting. The tight lists hold the same links
    // for the exact sums.
    let rate = &mut scratch.rate;
    rate.clear();
    rate.resize(m, 0i64);
    let sum_c = &mut scratch.sum_c;
    sum_c.clear();
    sum_c.resize(m, 0.0);
    let tight = &mut scratch.tight;
    tight.reset(instance);
    let f_cost = &lanes.f_cost;

    let candidates = &mut scratch.candidates;
    candidates.clear();
    let newly_open = &mut scratch.newly_open;
    let thr = &mut scratch.thr;
    thr.clear();
    thr.resize(m, f64::INFINITY);

    // Advance one client's pointer past links that became tight at time t,
    // registering them with their facility's linear form and tight list
    // (links tight with an already-open facility make the client a connect
    // candidate), then key the client by its next link.
    let advance = |j: usize,
                   t: f64,
                   ptr: &mut [u32],
                   rate: &mut [i64],
                   sum_c: &mut [f64],
                   tight: &mut TightLists,
                   open: &[bool],
                   candidates: &mut Vec<usize>,
                   events: &mut BinaryHeap<Reverse<(u64, u32)>>| {
        let end = offs[j + 1];
        while ptr[j] < end {
            let (c, i) = sorted[ptr[j] as usize];
            if c > t {
                events.push(Reverse((c.to_bits(), j as u32)));
                break;
            }
            let i = i as usize;
            if open[i] {
                candidates.push(j);
            } else {
                rate[i] += 1;
                sum_c[i] += c;
                tight.insert(i, j as u32, c);
            }
            ptr[j] += 1;
        }
    };

    // Register links that are tight at t = 0 (zero-cost links).
    for j in 0..n {
        advance(j, t, ptr, rate, sum_c, tight, open, candidates, events);
    }

    while active > 0 {
        // Next event: either a client becomes tight with a facility, or a
        // facility becomes fully paid. Client events are exact constants
        // at the top of the heap; facility events are shortlisted by
        // linear form, then computed with the reference's exact sum.
        let mut next = f64::INFINITY;
        while let Some(&Reverse((key, j))) = events.peek() {
            if !connected[j as usize] {
                next = f64::from_bits(key);
                break;
            }
            events.pop();
        }
        // Linear-form event estimates, gathered into a dense lane so the
        // minimum is one [`kernels::min_argmin`] pass (retired or
        // contributor-free facilities sit at `+inf` and never win).
        for i in 0..m {
            thr[i] = if open[i] {
                f64::INFINITY
            } else {
                let paid_lin = frozen[i] + rate[i] as f64 * t - sum_c[i];
                if paid_lin >= f_cost[i] {
                    t
                } else if rate[i] > 0 {
                    t + (f_cost[i] - paid_lin) / rate[i] as f64
                } else {
                    f64::INFINITY
                }
            };
        }
        let min_lin = kernels::min_argmin(thr).map_or(f64::INFINITY, |(_, v)| v);
        if min_lin.is_finite() {
            // The linear forms track the exact sums up to ~1e-12 relative
            // error; a 1e-6-relative margin is orders of magnitude wider,
            // so the facility holding the exact minimum is shortlisted.
            let margin = 1e-6 * (1.0 + min_lin.abs() + t.abs());
            for i in 0..m {
                if open[i] {
                    continue;
                }
                let paid_lin = frozen[i] + rate[i] as f64 * t - sum_c[i];
                let thr_lin = if paid_lin >= f_cost[i] - margin {
                    t
                } else if rate[i] > 0 {
                    t + (f_cost[i] - paid_lin) / rate[i] as f64
                } else {
                    continue;
                };
                if thr_lin <= min_lin + margin {
                    if let Some(ev) = exact_facility_event(tight.costs(i), f_cost[i], t, frozen[i])
                    {
                        next = next.min(ev);
                    }
                }
            }
        }
        debug_assert!(next.is_finite(), "ascent must always have a next event");
        t = next.max(t);

        // Register links that became tight at the new t: every client
        // keyed at or below t advances, in ascending id. Previously untight
        // links have cost >= t, so they contribute exactly 0 payment right
        // now — the linear forms stay in sync whether registered before or
        // after the open pass.
        due.clear();
        while let Some(&Reverse((key, j))) = events.peek() {
            if f64::from_bits(key) > t {
                break;
            }
            events.pop();
            if !connected[j as usize] {
                due.push(j);
            }
        }
        due.sort_unstable();
        for &j in due.iter() {
            advance(j as usize, t, ptr, rate, sum_c, tight, open, candidates, events);
        }

        // Open every facility that is fully paid at time t: shortlist by
        // linear form, confirm with the reference's exact sum (ascending
        // id, preserving the reference's opening order).
        newly_open.clear();
        for i in 0..m {
            if open[i] {
                continue;
            }
            let paid_lin = frozen[i] + rate[i] as f64 * t - sum_c[i];
            let margin = 1e-6 * (1.0 + f_cost[i].abs() + paid_lin.abs() + rate[i] as f64 * t.abs());
            // Deliberately nested rather than `&&`-collapsed: the
            // collapsed form measures ~13% slower on the whole ascent
            // (`bench kernels` capb row, 44.5ms vs 39.3ms) — the nested
            // shape keeps the rarely-taken exact sum out of the hot
            // shortlist branch's layout.
            #[allow(clippy::collapsible_if)]
            if paid_lin >= f_cost[i] - margin {
                if fully_paid(tight.costs(i), f_cost[i], t, frozen[i]) {
                    open[i] = true;
                    temp_open.push(FacilityId::new(i as u32));
                    newly_open.push(i);
                }
            }
        }
        // A newly-opened facility's tight active clients connect now; its
        // linear form and tight list are retired.
        for &i in newly_open.iter() {
            candidates.extend(tight.list(i).iter().map(|&(j, _)| j as usize));
        }

        // Connect candidate clients tight with an open facility, in
        // ascending order, with exactly the reference's per-client checks
        // and freeze updates. Candidates are complete: a link tight with an
        // open facility was flagged either when the pointer passed it
        // (facility already open) or when its facility opened (link already
        // tight) — there is no third way.
        candidates.sort_unstable();
        candidates.dedup();
        for jx in std::mem::take(candidates) {
            if connected[jx] {
                continue;
            }
            let j = ClientId::new(jx as u32);
            let tight_open =
                instance.client_links(j).iter().any(|(i, c)| open[i as usize] && c <= t);
            if tight_open {
                connected[jx] = true;
                alpha[jx] = t;
                active -= 1;
                // Freeze this client's contributions into *all* facilities
                // it is paying (they stop growing).
                for (i, c) in instance.client_links(j).iter() {
                    if !open[i as usize] && c < t {
                        frozen[i as usize] += t - c;
                    }
                }
                // Retire the client's tight links from the linear forms
                // and tight lists.
                for p in offs[jx]..ptr[jx] {
                    let (c, i) = sorted[p as usize];
                    let i = i as usize;
                    if !open[i] {
                        rate[i] -= 1;
                        sum_c[i] -= c;
                        tight.remove(i, jx as u32);
                        debug_assert!(rate[i] >= 0, "rate bookkeeping went negative");
                    }
                }
            }
        }
    }

    DualAscent { alpha, temp_open }
}

/// Runs the exact continuous dual ascent (phase 1) by rescanning every
/// link each round. Retained as the reference implementation:
/// `bench solvers` measures [`dual_ascent`] against it and the
/// equivalence tests pin bit-identical duals.
pub fn dual_ascent_reference(instance: &Instance) -> DualAscent {
    let n = instance.num_clients();
    let m = instance.num_facilities();
    let mut alpha = vec![0.0f64; n];
    let mut connected = vec![false; n];
    let mut open = vec![false; m];
    let mut frozen = vec![0.0f64; m]; // payment frozen from connected clients
    let mut temp_open = Vec::new();
    let mut active = n;
    let mut t = 0.0f64;

    while active > 0 {
        // Next event: either a client becomes tight with a facility, or a
        // facility becomes fully paid.
        let mut next = f64::INFINITY;
        for j in instance.clients() {
            if connected[j.index()] {
                continue;
            }
            for (i, c) in instance.client_links(j).iter() {
                if c > t {
                    next = next.min(c);
                } else if open[i as usize] {
                    // Already tight with an open facility: immediate event.
                    next = t;
                }
            }
        }
        for i in instance.facilities() {
            if open[i.index()] {
                continue;
            }
            let f = instance.opening_cost(i).value();
            let row = instance.facility_links(i).iter();
            let tight = row.filter(|&(j, c)| !connected[j as usize] && c <= t).map(|(_, c)| c);
            if let Some(ev) = exact_facility_event(tight, f, t, frozen[i.index()]) {
                next = next.min(ev);
            }
        }
        debug_assert!(next.is_finite(), "ascent must always have a next event");
        t = next.max(t);

        // Open every facility that is fully paid at time t.
        for i in instance.facilities() {
            if open[i.index()] {
                continue;
            }
            let f = instance.opening_cost(i).value();
            let row = instance.facility_links(i).iter();
            let tight = row.filter(|&(j, c)| !connected[j as usize] && c <= t).map(|(_, c)| c);
            if fully_paid(tight, f, t, frozen[i.index()]) {
                open[i.index()] = true;
                temp_open.push(i);
            }
        }
        // Connect every active client tight with an open facility.
        for j in instance.clients() {
            if connected[j.index()] {
                continue;
            }
            let tight_open =
                instance.client_links(j).iter().any(|(i, c)| open[i as usize] && c <= t);
            if tight_open {
                connected[j.index()] = true;
                alpha[j.index()] = t;
                active -= 1;
                // Freeze this client's contributions into *all* facilities
                // it is paying (they stop growing).
                for (i, c) in instance.client_links(j).iter() {
                    if !open[i as usize] && c < t {
                        frozen[i as usize] += t - c;
                    }
                }
            }
        }
    }

    DualAscent { alpha, temp_open }
}

/// Runs the full Jain–Vazirani algorithm.
pub fn solve(instance: &Instance) -> (Solution, DualSolution) {
    let ascent = dual_ascent(instance);
    prune_and_connect(instance, ascent)
}

/// [`solve`] over a prebuilt warm cache: phase 1 through
/// [`dual_ascent_with`], then the shared phase-2 pruning.
pub(crate) fn solve_with(
    instance: &Instance,
    lanes: &JvLanes,
    scratch: &mut JvScratch,
) -> (Solution, DualSolution) {
    let ascent = dual_ascent_with(instance, lanes, scratch);
    prune_and_connect(instance, ascent)
}

/// Runs the full Jain–Vazirani algorithm through the retained references
/// ([`dual_ascent_reference`], then the pairwise phase-2 pruning).
/// [`solve`] matches it bit for bit.
pub fn solve_reference(instance: &Instance) -> (Solution, DualSolution) {
    let ascent = dual_ascent_reference(instance);
    prune_and_connect_reference(instance, ascent)
}

/// Phase 2: greedy maximal-independent-set pruning of the temporarily
/// open facilities and nearest-open connection, in `O(links)`. Pure in
/// `(instance, ascent)`, so cold and warm solves share it verbatim.
///
/// Client `j` contributes to facility `i` when `α_j > c_ij` (the standard
/// simplification of `β_ij > 0`), and two temporarily open facilities
/// conflict when some client contributes to both. So a facility conflicts
/// with the facilities chosen before it exactly when one of its
/// contributors is already `claimed` by a chosen facility — the same
/// decision [`prune_and_connect_reference`] reaches pair by pair.
fn prune_and_connect(instance: &Instance, ascent: DualAscent) -> (Solution, DualSolution) {
    let alpha = &ascent.alpha;
    let mut claimed = vec![false; instance.num_clients()];
    let mut is_chosen = vec![false; instance.num_facilities()];

    // Greedy maximal independent set in opening order.
    for &i in &ascent.temp_open {
        let links = instance.facility_links(i);
        let contributors = || links.iter().filter(|&(j, c)| alpha[j as usize] > c + 1e-12);
        if !contributors().any(|(j, _)| claimed[j as usize]) {
            is_chosen[i.index()] = true;
            for (j, _) in contributors() {
                claimed[j as usize] = true;
            }
        }
    }
    debug_assert!(is_chosen.contains(&true), "at least one facility opens");

    // Connect each client to the nearest chosen facility it is linked to;
    // sparse instances fall back to the cheapest bundle.
    let assignment: Vec<FacilityId> = instance
        .clients()
        .map(|j| {
            // First-win strict `<` over the id-sorted row = the
            // `(cost, facility id)`-lexicographic minimum.
            let mut best: Option<(u32, f64)> = None;
            for (i, c) in instance.client_links(j).iter() {
                if is_chosen[i as usize] && best.is_none_or(|(_, bc)| c < bc) {
                    best = Some((i, c));
                }
            }
            best.map(|(i, _)| FacilityId::new(i)).unwrap_or_else(|| cheapest_bundle(instance, j))
        })
        .collect();
    let solution =
        Solution::from_assignment(instance, assignment).expect("assignment uses existing links");
    (solution, DualSolution::new(ascent.alpha))
}

/// The facility minimising `c_ij + f_i` over client `j`'s links, ties to
/// the lowest id: where a client with no chosen facility in its row
/// connects.
fn cheapest_bundle(instance: &Instance, j: ClientId) -> FacilityId {
    instance
        .client_links(j)
        .iter()
        .map(|(i, c)| {
            let i = FacilityId::new(i);
            (i, c + instance.opening_cost(i).value())
        })
        .min_by(|(fa, ca), (fb, cb)| ca.total_cmp(cb).then(fa.cmp(fb)))
        .map(|(i, _)| i)
        .expect("instance invariant: every client has a link")
}

/// Phase 2 by testing every temporarily open facility against every chosen
/// one. Retained as the reference [`prune_and_connect`] matches.
fn prune_and_connect_reference(
    instance: &Instance,
    ascent: DualAscent,
) -> (Solution, DualSolution) {
    let alpha = &ascent.alpha;

    // Contributor sets: beta_ij > 0 iff alpha_j > c_ij (standard
    // simplification).
    let contributes = |j: ClientId, i: FacilityId| -> bool {
        instance.connection_cost(j, i).is_some_and(|c| alpha[j.index()] > c.value() + 1e-12)
    };

    // Greedy maximal independent set in opening order.
    let mut chosen: Vec<FacilityId> = Vec::new();
    for &i in &ascent.temp_open {
        let conflicts = chosen.iter().any(|&i2| {
            instance.facility_links(i).iter().any(|(j, _)| {
                let j = ClientId::new(j);
                contributes(j, i) && contributes(j, i2)
            })
        });
        if !conflicts {
            chosen.push(i);
        }
    }
    debug_assert!(!chosen.is_empty(), "at least one facility opens");

    // Connect each client to the nearest chosen facility it is linked to;
    // sparse instances fall back to the cheapest bundle.
    let assignment: Vec<FacilityId> = instance
        .clients()
        .map(|j| {
            // First-win strict `<` over the id-sorted row = the
            // `(cost, facility id)`-lexicographic minimum.
            let mut best: Option<(u32, f64)> = None;
            for (i, c) in instance.client_links(j).iter() {
                if chosen.contains(&FacilityId::new(i)) && best.is_none_or(|(_, bc)| c < bc) {
                    best = Some((i, c));
                }
            }
            best.map(|(i, _)| FacilityId::new(i)).unwrap_or_else(|| cheapest_bundle(instance, j))
        })
        .collect();
    let solution =
        Solution::from_assignment(instance, assignment).expect("assignment uses existing links");
    (solution, DualSolution::new(ascent.alpha))
}

impl FlAlgorithm for JainVazirani {
    fn name(&self) -> String {
        "jain-vazirani".to_owned()
    }

    fn run(&self, instance: &Instance, _seed: u64) -> Result<Outcome, CoreError> {
        if self.tolerance.is_finite() {
            let defect = distfl_instance::metric::metricity_defect(instance);
            if defect > self.tolerance {
                return Err(CoreError::RequiresMetric { defect });
            }
        }
        let (solution, dual) = solve(instance);
        Ok(Outcome { solution, transcript: None, dual: Some(dual), modeled_rounds: None })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distfl_instance::generators::{Clustered, Euclidean, InstanceGenerator, UniformRandom};
    use distfl_instance::{Cost, InstanceBuilder};
    use distfl_lp::exact;

    #[test]
    fn single_facility_duals_split_the_opening_cost() {
        // Two clients at cost 1 of a facility with f = 4: both reach
        // tightness at t=1, pay jointly, facility opens at t = 3.
        let mut b = InstanceBuilder::new();
        let f = b.add_facility(Cost::new(4.0).unwrap());
        let c0 = b.add_client();
        let c1 = b.add_client();
        b.link(c0, f, Cost::new(1.0).unwrap()).unwrap();
        b.link(c1, f, Cost::new(1.0).unwrap()).unwrap();
        let inst = b.build().unwrap();
        let ascent = dual_ascent(&inst);
        assert!((ascent.alpha[0] - 3.0).abs() < 1e-9, "alpha {:?}", ascent.alpha);
        assert!((ascent.alpha[1] - 3.0).abs() < 1e-9);
        assert_eq!(ascent.temp_open, vec![f]);
    }

    #[test]
    fn asymmetric_tightness_times() {
        // f = 3; clients at costs 1 and 2. Client 0 tight at 1, client 1 at
        // 2. Payment: (t-1) for t in [1,2], then (t-1)+(t-2); full at
        // 2t - 3 = 3 -> t = 3.
        let mut b = InstanceBuilder::new();
        let f = b.add_facility(Cost::new(3.0).unwrap());
        let c0 = b.add_client();
        let c1 = b.add_client();
        b.link(c0, f, Cost::new(1.0).unwrap()).unwrap();
        b.link(c1, f, Cost::new(2.0).unwrap()).unwrap();
        let inst = b.build().unwrap();
        let ascent = dual_ascent(&inst);
        assert!((ascent.alpha[0] - 3.0).abs() < 1e-9);
        assert!((ascent.alpha[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn late_client_connects_at_tightness() {
        // Facility opens early from a cheap client; an expensive client
        // connects exactly when it becomes tight.
        let mut b = InstanceBuilder::new();
        let f = b.add_facility(Cost::new(1.0).unwrap());
        let c0 = b.add_client();
        let c1 = b.add_client();
        b.link(c0, f, Cost::new(1.0).unwrap()).unwrap();
        b.link(c1, f, Cost::new(10.0).unwrap()).unwrap();
        let inst = b.build().unwrap();
        let ascent = dual_ascent(&inst);
        assert!((ascent.alpha[0] - 2.0).abs() < 1e-9, "alpha {:?}", ascent.alpha);
        assert!((ascent.alpha[1] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn within_three_opt_on_metric_instances() {
        for seed in 0..6 {
            let inst = Euclidean::new(7, 20).unwrap().generate(seed).unwrap();
            let (sol, _) = solve(&inst);
            sol.check_feasible(&inst).unwrap();
            let opt = exact::solve(&inst).unwrap().cost.value();
            let ratio = sol.cost(&inst).value() / opt;
            assert!(ratio <= 3.0 + 1e-9, "seed {seed}: JV ratio {ratio}");
        }
        for seed in 0..4 {
            let inst = Clustered::new(3, 6, 18).unwrap().generate(seed).unwrap();
            let (sol, _) = solve(&inst);
            let opt = exact::solve(&inst).unwrap().cost.value();
            let ratio = sol.cost(&inst).value() / opt;
            assert!(ratio <= 3.0 + 1e-9, "clustered seed {seed}: JV ratio {ratio}");
        }
    }

    #[test]
    fn dual_is_a_valid_lower_bound_source() {
        for seed in 0..5 {
            let inst = Euclidean::new(6, 15).unwrap().generate(seed).unwrap();
            let (_, dual) = solve(&inst);
            let lb = dual.lower_bound(&inst, distfl_lp::TOLERANCE);
            let opt = exact::solve(&inst).unwrap().cost.value();
            assert!(lb <= opt + 1e-6, "seed {seed}: {lb} > OPT {opt}");
            assert!(lb > 0.0);
        }
    }

    #[test]
    fn event_driven_ascent_matches_reference_bitwise() {
        for seed in 0..8 {
            let inst = UniformRandom::new(10, 40).unwrap().generate(seed).unwrap();
            let fast = dual_ascent(&inst);
            let slow = dual_ascent_reference(&inst);
            assert_eq!(fast.alpha, slow.alpha, "uniform seed {seed}");
            assert_eq!(fast.temp_open, slow.temp_open, "uniform seed {seed}");
        }
        for seed in 0..6 {
            let inst = Clustered::new(4, 8, 30).unwrap().generate(seed).unwrap();
            let fast = dual_ascent(&inst);
            let slow = dual_ascent_reference(&inst);
            assert_eq!(fast.alpha, slow.alpha, "clustered seed {seed}");
            assert_eq!(fast.temp_open, slow.temp_open, "clustered seed {seed}");
        }
        for seed in 0..6 {
            let inst = Euclidean::new(9, 25).unwrap().generate(seed).unwrap();
            let fast = dual_ascent(&inst);
            let slow = dual_ascent_reference(&inst);
            assert_eq!(fast.alpha, slow.alpha, "euclidean seed {seed}");
            assert_eq!(fast.temp_open, slow.temp_open, "euclidean seed {seed}");
        }
    }

    /// Runs both ascents on `inst` in a thread and fails (instead of
    /// hanging the suite) if they do not finish within the deadline.
    fn ascents_within_deadline(inst: Instance) -> (DualAscent, DualAscent) {
        use std::sync::mpsc::RecvTimeoutError;
        let (tx, rx) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || {
            let _ = tx.send((dual_ascent(&inst), dual_ascent_reference(&inst)));
        });
        match rx.recv_timeout(std::time::Duration::from_secs(20)) {
            Ok(ascents) => ascents,
            // A panicking ascent drops the sender: surface its panic.
            Err(RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(handle.join().expect_err("the sender was dropped"))
            }
            Err(RecvTimeoutError::Timeout) => panic!("dual ascent did not terminate"),
        }
    }

    #[test]
    fn ascent_terminates_when_the_last_payment_gap_is_below_an_ulp_of_t() {
        // The client becomes tight at t = 2^53, where the remaining gap of
        // 1 cannot advance time: 2^53 + 1 rounds back to 2^53.
        let mut b = InstanceBuilder::new();
        let f = b.add_facility(Cost::new(1.0).unwrap());
        let c = b.add_client();
        b.link(c, f, Cost::new(9_007_199_254_740_992.0).unwrap()).unwrap();
        let (fast, slow) = ascents_within_deadline(b.build().unwrap());
        assert_eq!(fast.alpha, vec![9_007_199_254_740_992.0]);
        assert_eq!(fast.temp_open, vec![f]);
        assert_eq!((fast.alpha, fast.temp_open), (slow.alpha, slow.temp_open));
    }

    #[test]
    fn ascent_terminates_on_large_ordinary_costs() {
        // Costs from 2.1e3 to 2.2e5: with several clients paying, the
        // ascent reaches the same stall well below 2^53.
        let base = UniformRandom::new(3, 10).unwrap().generate(0).unwrap();
        let inst = distfl_instance::transform::scale_costs(&base, 1e3).unwrap();
        let (fast, slow) = ascents_within_deadline(inst.clone());
        assert_eq!(fast.alpha, slow.alpha);
        assert_eq!(fast.temp_open, slow.temp_open);
        let (solution, _) = prune_and_connect(&inst, fast);
        solution.check_feasible(&inst).unwrap();
    }

    #[test]
    fn rejects_non_metric_inputs() {
        let inst = UniformRandom::new(5, 12).unwrap().generate(0).unwrap();
        let err = JainVazirani::new().run(&inst, 0).unwrap_err();
        assert!(matches!(err, CoreError::RequiresMetric { .. }));
        let out = JainVazirani::unchecked().run(&inst, 0).unwrap();
        out.solution.check_feasible(&inst).unwrap();
    }
}
