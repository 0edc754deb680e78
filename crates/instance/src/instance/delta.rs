//! Incremental instance mutation: [`DeltaBatch`] and
//! [`Instance::apply_delta`].
//!
//! Production facility location is not one-shot — clients churn and link
//! costs drift — so the instance supports *in-place* mutation over the SoA
//! CSR layout instead of a full rebuild per change:
//!
//! * **Reprice** a link: the CSR shape is untouched, so both cost lanes are
//!   patched in place (one binary search per direction, `O(log deg)`).
//! * **Add / remove clients**: a *single* compaction pass per batch
//!   rewrites the client-major lanes contiguously (removed rows are
//!   skipped, survivors keep their relative order, added rows append at
//!   the tail) and the facility-major lanes are regenerated by the
//!   builder's counting sort — no comparison sort anywhere. The id and
//!   cost lanes therefore stay dense and contiguous, exactly what the
//!   chunked [`crate::kernels`] require.
//!
//! The lanes and offsets are the instance's whole state (derived values
//! such as [`Instance::cheapest_link`] are computed when read), so there
//! is no cache to refresh. A batch of `Δ` mutations costs `O(Δ log deg)`
//! when it is reprice-only and one `O(|E|)` compaction pass (shared by
//! every structural mutation in the batch) otherwise — never one pass per
//! mutation. `apply_delta` is atomic: the batch is validated up front
//! against the pre-state and the instance is only mutated once every
//! check has passed.
//!
//! Removing client `j` shifts every client id above `j` down by one (dense
//! ids are a load-bearing invariant for the solvers and the CSR itself),
//! and added clients take the tail of the id space in staging order. The
//! returned [`DeltaReport`] names the removed clients (pre-batch ids), says
//! how many arrived, and lists the repriced links (in post-batch ids).
//! That is enough to rename any id: a survivor's new id is its old id less
//! the number of removed ids below it. The warm-start caches in
//! `distfl-core` repair their sorted lanes that way instead of re-sorting
//! them.

use crate::cost::{self, Cost};
use crate::error::InstanceError;

use super::{build_facility_lanes, ClientId, FacilityId, Instance};

/// A client staged for insertion by a [`DeltaBatch`], addressed by its
/// batch-local index until the batch is applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingClient(usize);

/// A batch of instance mutations: client additions, client removals, and
/// link reprices, applied atomically by [`Instance::apply_delta`].
///
/// All [`ClientId`]s named by the batch refer to the **pre-batch** id
/// space. Within one batch the three mutation kinds must not contradict
/// each other: removing the same client twice, repricing a link of a
/// removed client, or repricing the same link twice is rejected.
///
/// ```
/// use distfl_instance::{Cost, DeltaBatch, InstanceBuilder};
///
/// # fn main() -> Result<(), distfl_instance::InstanceError> {
/// let mut b = InstanceBuilder::new();
/// let f = b.add_facility(Cost::new(3.0)?);
/// let c0 = b.add_client();
/// let c1 = b.add_client();
/// b.link(c0, f, Cost::new(1.0)?)?;
/// b.link(c1, f, Cost::new(2.0)?)?;
/// let mut inst = b.build()?;
///
/// let mut delta = DeltaBatch::new();
/// delta.remove_client(c0);
/// delta.reprice(c1, f, Cost::new(5.0)?);
/// let fresh = delta.add_client();
/// delta.link(fresh, f, Cost::new(0.5)?)?;
/// let report = inst.apply_delta(&delta)?;
///
/// assert_eq!((report.removed, report.added), (vec![c0], 1));
/// assert_eq!(inst.num_clients(), 2);
/// // c1 shifted down to id 0; the added client took the tail id 1.
/// assert_eq!(inst.connection_cost(c0, f), Some(Cost::new(5.0)?));
/// assert_eq!(inst.connection_cost(c1, f), Some(Cost::new(0.5)?));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct DeltaBatch {
    /// Per pending client: `(facility, cost)` links sorted by facility id.
    added: Vec<Vec<(u32, f64)>>,
    /// Pre-batch ids of removed clients, in push order.
    removed: Vec<u32>,
    /// `(client, facility, new cost)` reprices, pre-batch ids, push order.
    repriced: Vec<(u32, u32, f64)>,
}

impl DeltaBatch {
    /// An empty batch.
    pub fn new() -> Self {
        DeltaBatch::default()
    }

    /// Whether the batch contains no mutations.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty() && self.repriced.is_empty()
    }

    /// Number of staged mutations (each added client, removal, and reprice
    /// counts as one).
    pub fn len(&self) -> usize {
        self.added.len() + self.removed.len() + self.repriced.len()
    }

    /// Stages a new client; link it with [`DeltaBatch::link`]. Added
    /// clients take the tail of the post-batch id space, in staging order.
    pub fn add_client(&mut self) -> PendingClient {
        self.added.push(Vec::new());
        PendingClient(self.added.len() - 1)
    }

    /// Declares a link from a staged client to facility `i` at `cost`.
    ///
    /// # Errors
    ///
    /// Returns [`InstanceError::DuplicateLink`] (with the batch-local
    /// pending index as the client) if the staged client already links `i`,
    /// or [`InstanceError::ClientOutOfRange`] if the handle is stale.
    pub fn link(
        &mut self,
        client: PendingClient,
        i: FacilityId,
        cost: Cost,
    ) -> Result<(), InstanceError> {
        let num = self.added.len();
        let Some(links) = self.added.get_mut(client.0) else {
            return Err(InstanceError::ClientOutOfRange { client: client.0, num_clients: num });
        };
        match links.binary_search_by_key(&i.raw(), |&(f, _)| f) {
            Ok(_) => Err(InstanceError::DuplicateLink { client: client.0, facility: i.index() }),
            Err(pos) => {
                links.insert(pos, (i.raw(), cost.value()));
                Ok(())
            }
        }
    }

    /// Stages the removal of client `j` (pre-batch id).
    pub fn remove_client(&mut self, j: ClientId) {
        self.removed.push(j.raw());
    }

    /// Stages repricing the existing link `(j, i)` to `cost` (pre-batch
    /// ids).
    pub fn reprice(&mut self, j: ClientId, i: FacilityId, cost: Cost) {
        self.repriced.push((j.raw(), i.raw(), cost.value()));
    }
}

/// What [`Instance::apply_delta`] did: which clients left (**pre-batch**
/// ids), how many arrived, and which links were repriced (**post-batch**
/// ids).
///
/// Together these rename any client: a survivor's post-batch id is its
/// pre-batch id less the number of [`DeltaReport::removed`] ids below it,
/// and added clients hold the tail. Warm-start caches use that to carry
/// their sorted lanes across a structural batch instead of re-sorting them.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaReport {
    /// Number of clients added. They hold the last `added` ids of the
    /// post-batch id space, in staging order.
    pub added: usize,
    /// The removed clients' **pre-batch** ids, ascending.
    pub removed: Vec<ClientId>,
    /// Repriced links as `(client, facility)` pairs in **new** ids, sorted
    /// lexicographically.
    pub repriced: Vec<(ClientId, FacilityId)>,
    /// The link cost each entry of [`DeltaReport::repriced`] held
    /// **before** the batch, index-aligned with it. Warm-start caches use
    /// these to binary-search a repriced entry's position inside their
    /// cost-sorted lanes instead of scanning for it.
    pub repriced_old: Vec<f64>,
    /// Total link-lane entries dropped, inserted, or repriced — the
    /// numerator of the drift metric warm-start caches use to decide
    /// between repairing a reprice in place and re-sorting.
    pub links_changed: usize,
}

impl DeltaReport {
    /// Whether the batch changed the id space (added or removed clients)
    /// rather than only repricing in place.
    pub fn is_structural(&self) -> bool {
        !self.removed.is_empty() || self.added > 0
    }

    /// Fraction of `instance`'s (post-mutation) link lanes touched by the
    /// batch. Warm-start caches re-sort instead of repairing above a
    /// threshold.
    pub fn drift(&self, instance: &Instance) -> f64 {
        self.links_changed as f64 / instance.num_links().max(1) as f64
    }
}

impl Instance {
    /// Applies a batch of mutations in place, returning a [`DeltaReport`]
    /// naming the clients that left, how many arrived, and which links were
    /// repriced.
    ///
    /// The mutated instance is **indistinguishable from a from-scratch
    /// build** of the post-state (same lanes, `==` under `PartialEq`); only
    /// the work to get there differs. Reprice-only batches are
    /// `O(Δ log deg)` in-place lane patches; batches that add or remove
    /// clients run one shared compaction + counting-sort pass.
    ///
    /// # Errors
    ///
    /// The batch is validated against the pre-state before any mutation;
    /// on error the instance is unchanged. Rejected batches include
    /// out-of-range ids, reprices of absent links
    /// ([`InstanceError::MissingLink`]), contradictory mutations
    /// ([`InstanceError::ConflictingMutation`]), staged clients with no
    /// links ([`InstanceError::UnreachableClient`]), positive costs outside
    /// [`crate::MIN_POSITIVE_COST`]`..=`[`crate::MAX_COST`]
    /// ([`InstanceError::CostOutOfRange`]), removing every client
    /// ([`InstanceError::NoClients`]), and batches that would leave every
    /// coefficient zero ([`InstanceError::AllZeroCosts`]).
    pub fn apply_delta(&mut self, batch: &DeltaBatch) -> Result<DeltaReport, InstanceError> {
        let n = self.num_clients();
        let m = self.num_facilities();

        // ---- Validation (read-only; the instance is untouched until every
        // check has passed). ----
        let mut removed_sorted = batch.removed.clone();
        removed_sorted.sort_unstable();
        if removed_sorted.windows(2).any(|w| w[0] == w[1]) {
            return Err(InstanceError::ConflictingMutation {
                reason: "client removed twice".into(),
            });
        }
        if let Some(&j) = removed_sorted.iter().find(|&&j| j as usize >= n) {
            return Err(InstanceError::ClientOutOfRange { client: j as usize, num_clients: n });
        }
        if removed_sorted.len() == n && batch.added.is_empty() {
            return Err(InstanceError::NoClients);
        }
        let mut repriced_sorted = batch.repriced.clone();
        repriced_sorted.sort_unstable_by_key(|&(j, i, _)| (j, i));
        if repriced_sorted.windows(2).any(|w| (w[0].0, w[0].1) == (w[1].0, w[1].1)) {
            return Err(InstanceError::ConflictingMutation {
                reason: "link repriced twice".into(),
            });
        }
        for &(j, i, c) in &repriced_sorted {
            cost::check_range(c)?;
            if j as usize >= n {
                return Err(InstanceError::ClientOutOfRange { client: j as usize, num_clients: n });
            }
            if i as usize >= m {
                return Err(InstanceError::FacilityOutOfRange {
                    facility: i as usize,
                    num_facilities: m,
                });
            }
            if removed_sorted.binary_search(&j).is_ok() {
                return Err(InstanceError::ConflictingMutation {
                    reason: format!("client {j} both removed and repriced"),
                });
            }
            if self.client_links(ClientId::new(j)).ids.binary_search(&i).is_err() {
                return Err(InstanceError::MissingLink {
                    client: j as usize,
                    facility: i as usize,
                });
            }
        }
        for (k, links) in batch.added.iter().enumerate() {
            if links.is_empty() {
                // Report the id the client would have received.
                return Err(InstanceError::UnreachableClient {
                    client: n - removed_sorted.len() + k,
                });
            }
            if let Some(&(i, _)) = links.iter().find(|&&(i, _)| i as usize >= m) {
                return Err(InstanceError::FacilityOutOfRange {
                    facility: i as usize,
                    num_facilities: m,
                });
            }
            for &(_, c) in links {
                cost::check_range(c)?;
            }
        }
        self.check_any_positive_after(batch, &removed_sorted, &repriced_sorted)?;

        // ---- Apply. ----
        let report = if batch.removed.is_empty() && batch.added.is_empty() {
            let repriced_old = self.apply_reprices_in_place(&repriced_sorted);
            DeltaReport {
                added: 0,
                removed: Vec::new(),
                repriced: repriced_sorted
                    .iter()
                    .map(|&(j, i, _)| (ClientId::new(j), FacilityId::new(i)))
                    .collect(),
                repriced_old,
                links_changed: repriced_sorted.len(),
            }
        } else {
            self.compact_with(batch, &removed_sorted, &repriced_sorted)
        };
        debug_assert_eq!(self.client_offsets.len(), self.num_clients() + 1);
        Ok(report)
    }

    /// Pre-validates that at least one coefficient stays positive after the
    /// batch (openings are immutable, so a positive opening settles it).
    fn check_any_positive_after(
        &self,
        batch: &DeltaBatch,
        removed_sorted: &[u32],
        repriced_sorted: &[(u32, u32, f64)],
    ) -> Result<(), InstanceError> {
        if self.opening.iter().any(|c| !c.is_zero()) {
            return Ok(());
        }
        if batch.added.iter().flatten().any(|&(_, c)| c > 0.0) {
            return Ok(());
        }
        for j in 0..self.num_clients() as u32 {
            if removed_sorted.binary_search(&j).is_ok() {
                continue;
            }
            let row = self.client_links(ClientId::new(j));
            for (k, &i) in row.ids.iter().enumerate() {
                let cost =
                    match repriced_sorted.binary_search_by_key(&(j, i), |&(rj, ri, _)| (rj, ri)) {
                        Ok(pos) => repriced_sorted[pos].2,
                        Err(_) => row.costs[k],
                    };
                if cost > 0.0 {
                    return Ok(());
                }
            }
        }
        Err(InstanceError::AllZeroCosts)
    }

    /// Reprice-only fast path: the CSR shape is untouched, so patch both
    /// cost lanes in place. Returns the costs the repriced links held
    /// before the batch, index-aligned with `repriced_sorted`.
    fn apply_reprices_in_place(&mut self, repriced_sorted: &[(u32, u32, f64)]) -> Vec<f64> {
        let mut old_costs = Vec::with_capacity(repriced_sorted.len());
        for &(j, i, c) in repriced_sorted {
            let lo = self.client_offsets[j as usize] as usize;
            let hi = self.client_offsets[j as usize + 1] as usize;
            let pos =
                self.client_link_ids[lo..hi].binary_search(&i).expect("validated: link exists");
            old_costs.push(self.client_link_costs[lo + pos]);
            self.client_link_costs[lo + pos] = c;
            let flo = self.facility_offsets[i as usize] as usize;
            let fhi = self.facility_offsets[i as usize + 1] as usize;
            let fpos = self.facility_link_ids[flo..fhi]
                .binary_search(&j)
                .expect("lanes are transposes of each other");
            self.facility_link_costs[flo + fpos] = c;
        }
        old_costs
    }

    /// Structural path: one compaction pass rewrites the client-major lanes
    /// (skipping removed rows, applying reprices on the way through, and
    /// appending added rows) and the counting sort regenerates the
    /// facility-major side.
    fn compact_with(
        &mut self,
        batch: &DeltaBatch,
        removed_sorted: &[u32],
        repriced_sorted: &[(u32, u32, f64)],
    ) -> DeltaReport {
        let n = self.num_clients();
        let m = self.num_facilities();
        let dropped: usize = removed_sorted
            .iter()
            .map(|&j| {
                (self.client_offsets[j as usize + 1] - self.client_offsets[j as usize]) as usize
            })
            .sum();
        let inserted: usize = batch.added.iter().map(Vec::len).sum();
        let new_links = self.num_links() - dropped + inserted;

        // Survivors stream through in order (reprices applied mid-copy), so
        // a survivor's new id is its output row index; added rows append at
        // the tail.
        let mut client_offsets =
            Vec::with_capacity(n - removed_sorted.len() + batch.added.len() + 1);
        let mut client_link_ids = Vec::with_capacity(new_links);
        let mut client_link_costs = Vec::with_capacity(new_links);
        let mut repriced_new: Vec<(ClientId, FacilityId)> =
            Vec::with_capacity(repriced_sorted.len());
        let mut repriced_old: Vec<f64> = Vec::with_capacity(repriced_sorted.len());
        client_offsets.push(0u32);
        let mut rp = 0usize; // cursor into repriced_sorted (sorted by (j, i))
        for j in 0..n as u32 {
            // Reprices of removed clients were rejected, so skipping a
            // removed row skips no cursor entry.
            if removed_sorted.binary_search(&j).is_ok() {
                continue;
            }
            let new_j = ClientId::new(client_offsets.len() as u32 - 1);
            let lo = self.client_offsets[j as usize] as usize;
            let hi = self.client_offsets[j as usize + 1] as usize;
            let row_start = client_link_ids.len();
            client_link_ids.extend_from_slice(&self.client_link_ids[lo..hi]);
            client_link_costs.extend_from_slice(&self.client_link_costs[lo..hi]);
            while rp < repriced_sorted.len() && repriced_sorted[rp].0 == j {
                let (_, i, c) = repriced_sorted[rp];
                let pos =
                    self.client_link_ids[lo..hi].binary_search(&i).expect("validated: link exists");
                repriced_old.push(client_link_costs[row_start + pos]);
                client_link_costs[row_start + pos] = c;
                repriced_new.push((new_j, FacilityId::new(i)));
                rp += 1;
            }
            client_offsets.push(client_link_ids.len() as u32);
        }
        for links in &batch.added {
            client_link_ids.extend(links.iter().map(|&(i, _)| i));
            client_link_costs.extend(links.iter().map(|&(_, c)| c));
            client_offsets.push(client_link_ids.len() as u32);
        }

        let (facility_offsets, facility_link_ids, facility_link_costs) =
            build_facility_lanes(m, &client_offsets, &client_link_ids, &client_link_costs);

        self.client_offsets = client_offsets;
        self.client_link_ids = client_link_ids;
        self.client_link_costs = client_link_costs;
        self.facility_offsets = facility_offsets;
        self.facility_link_ids = facility_link_ids;
        self.facility_link_costs = facility_link_costs;

        DeltaReport {
            added: batch.added.len(),
            removed: removed_sorted.iter().map(|&j| ClientId::new(j)).collect(),
            repriced: repriced_new,
            repriced_old,
            links_changed: dropped + inserted + repriced_sorted.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::cost;
    use crate::instance::InstanceBuilder;

    /// 2 facilities, 3 clients, sparse — the same shape `instance.rs` pins.
    fn small() -> Instance {
        let mut b = InstanceBuilder::new();
        let f0 = b.add_facility(cost(10.0));
        let f1 = b.add_facility(cost(4.0));
        let c0 = b.add_client();
        let c1 = b.add_client();
        let c2 = b.add_client();
        b.link(c0, f0, cost(1.0)).unwrap();
        b.link(c0, f1, cost(2.0)).unwrap();
        b.link(c1, f1, cost(3.0)).unwrap();
        b.link(c2, f0, cost(0.5)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn reprice_patches_lanes_in_place_and_matches_rebuild() {
        let mut inst = small();
        let mut d = DeltaBatch::new();
        d.reprice(ClientId::new(0), FacilityId::new(1), cost(0.25));
        let report = inst.apply_delta(&d).unwrap();
        assert!(!report.is_structural());
        assert_eq!(report.links_changed, 1);
        assert_eq!(report.repriced, vec![(ClientId::new(0), FacilityId::new(1))]);
        // New cheapest for c0 is now f1.
        assert_eq!(inst.cheapest_link(ClientId::new(0)), (FacilityId::new(1), cost(0.25)));
        // Structural equality with a from-scratch build of the post-state.
        let mut b = InstanceBuilder::new();
        let f0 = b.add_facility(cost(10.0));
        let f1 = b.add_facility(cost(4.0));
        let c0 = b.add_client();
        let c1 = b.add_client();
        let c2 = b.add_client();
        b.link(c0, f0, cost(1.0)).unwrap();
        b.link(c0, f1, cost(0.25)).unwrap();
        b.link(c1, f1, cost(3.0)).unwrap();
        b.link(c2, f0, cost(0.5)).unwrap();
        assert_eq!(inst, b.build().unwrap());
    }

    #[test]
    fn remove_add_compacts_and_matches_rebuild() {
        let mut inst = small();
        let mut d = DeltaBatch::new();
        d.remove_client(ClientId::new(1));
        let p = d.add_client();
        d.link(p, FacilityId::new(0), cost(7.0)).unwrap();
        d.link(p, FacilityId::new(1), cost(6.0)).unwrap();
        let report = inst.apply_delta(&d).unwrap();
        assert!(report.is_structural());
        assert_eq!(report.added, 1);
        assert_eq!(report.removed, vec![ClientId::new(1)]);
        assert_eq!(report.links_changed, 1 + 2); // dropped c1's 1 link, added 2
                                                 // From-scratch: c0, c2 (shifted), new client.
        let mut b = InstanceBuilder::new();
        let f0 = b.add_facility(cost(10.0));
        let f1 = b.add_facility(cost(4.0));
        let c0 = b.add_client();
        let c1 = b.add_client();
        let c2 = b.add_client();
        b.link(c0, f0, cost(1.0)).unwrap();
        b.link(c0, f1, cost(2.0)).unwrap();
        b.link(c1, f0, cost(0.5)).unwrap();
        b.link(c2, f0, cost(7.0)).unwrap();
        b.link(c2, f1, cost(6.0)).unwrap();
        assert_eq!(inst, b.build().unwrap());
    }

    #[test]
    fn mixed_batch_applies_reprices_through_the_compaction() {
        let mut inst = small();
        let mut d = DeltaBatch::new();
        d.remove_client(ClientId::new(0));
        d.reprice(ClientId::new(2), FacilityId::new(0), cost(9.0));
        let report = inst.apply_delta(&d).unwrap();
        // c2 shifted down to id 1 and its reprice is reported in new ids.
        assert_eq!(report.repriced, vec![(ClientId::new(1), FacilityId::new(0))]);
        assert_eq!(inst.cheapest_link(ClientId::new(1)), (FacilityId::new(0), cost(9.0)));
        assert_eq!(inst.num_clients(), 2);
        assert_eq!(inst.num_links(), 2);
    }

    #[test]
    fn report_names_removed_clients_in_ascending_pre_batch_ids() {
        let mut inst = small();
        let mut d = DeltaBatch::new();
        d.remove_client(ClientId::new(2));
        d.remove_client(ClientId::new(0));
        let report = inst.apply_delta(&d).unwrap();
        assert_eq!(report.removed, vec![ClientId::new(0), ClientId::new(2)]);
        assert_eq!(report.links_changed, 2 + 1);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut inst = small();
        let before = inst.clone();
        let d = DeltaBatch::new();
        assert!(d.is_empty());
        let report = inst.apply_delta(&d).unwrap();
        assert_eq!(inst, before);
        assert_eq!(report.links_changed, 0);
        assert!(!report.is_structural());
        assert_eq!(report.drift(&inst), 0.0);
    }

    #[test]
    fn batch_validation_rejects_bad_mutations() {
        let mut inst = small();
        let before = inst.clone();

        let mut d = DeltaBatch::new();
        d.reprice(ClientId::new(1), FacilityId::new(0), cost(1.0));
        assert!(matches!(inst.apply_delta(&d), Err(InstanceError::MissingLink { .. })));

        let mut d = DeltaBatch::new();
        d.remove_client(ClientId::new(1));
        d.remove_client(ClientId::new(1));
        assert!(matches!(inst.apply_delta(&d), Err(InstanceError::ConflictingMutation { .. })));

        let mut d = DeltaBatch::new();
        d.remove_client(ClientId::new(1));
        d.reprice(ClientId::new(1), FacilityId::new(1), cost(1.0));
        assert!(matches!(inst.apply_delta(&d), Err(InstanceError::ConflictingMutation { .. })));

        let mut d = DeltaBatch::new();
        d.reprice(ClientId::new(0), FacilityId::new(1), cost(1.0));
        d.reprice(ClientId::new(0), FacilityId::new(1), cost(2.0));
        assert!(matches!(inst.apply_delta(&d), Err(InstanceError::ConflictingMutation { .. })));

        let mut d = DeltaBatch::new();
        d.remove_client(ClientId::new(7));
        assert!(matches!(inst.apply_delta(&d), Err(InstanceError::ClientOutOfRange { .. })));

        let mut d = DeltaBatch::new();
        d.add_client();
        assert!(matches!(inst.apply_delta(&d), Err(InstanceError::UnreachableClient { .. })));

        let mut d = DeltaBatch::new();
        let p = d.add_client();
        d.link(p, FacilityId::new(9), cost(1.0)).unwrap();
        assert!(matches!(inst.apply_delta(&d), Err(InstanceError::FacilityOutOfRange { .. })));

        let mut d = DeltaBatch::new();
        for j in 0..3 {
            d.remove_client(ClientId::new(j));
        }
        assert!(matches!(inst.apply_delta(&d), Err(InstanceError::NoClients)));

        // Every rejected batch left the instance untouched.
        assert_eq!(inst, before);
    }

    #[test]
    fn pending_client_link_validation() {
        let mut d = DeltaBatch::new();
        let p = d.add_client();
        d.link(p, FacilityId::new(0), cost(1.0)).unwrap();
        assert!(matches!(
            d.link(p, FacilityId::new(0), cost(2.0)),
            Err(InstanceError::DuplicateLink { .. })
        ));
        assert!(matches!(
            d.link(PendingClient(5), FacilityId::new(0), cost(1.0)),
            Err(InstanceError::ClientOutOfRange { .. })
        ));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn out_of_range_costs_are_rejected_before_mutation() {
        let mut inst = small();
        let before = inst.clone();
        let mut d = DeltaBatch::new();
        d.reprice(ClientId::new(0), FacilityId::new(1), cost(1e308));
        assert_eq!(inst.apply_delta(&d), Err(InstanceError::CostOutOfRange { value: 1e308 }));
        let mut d = DeltaBatch::new();
        let p = d.add_client();
        d.link(p, FacilityId::new(0), cost(5e-324)).unwrap();
        assert_eq!(inst.apply_delta(&d), Err(InstanceError::CostOutOfRange { value: 5e-324 }));
        assert_eq!(inst, before);
        let mut d = DeltaBatch::new();
        d.reprice(ClientId::new(0), FacilityId::new(1), cost(crate::MAX_COST));
        inst.apply_delta(&d).unwrap();
    }

    #[test]
    fn all_zero_batches_are_rejected_before_mutation() {
        // Zero openings; the single positive coefficient is a link cost.
        let mut b = InstanceBuilder::new();
        let f = b.add_facility(Cost::ZERO);
        let c0 = b.add_client();
        let c1 = b.add_client();
        b.link(c0, f, cost(1.0)).unwrap();
        b.link(c1, f, Cost::ZERO).unwrap();
        let mut inst = b.build().unwrap();
        let before = inst.clone();

        // Repricing the only positive link to zero must be rejected...
        let mut d = DeltaBatch::new();
        d.reprice(c0, f, Cost::ZERO);
        assert!(matches!(inst.apply_delta(&d), Err(InstanceError::AllZeroCosts)));
        // ...as must removing its client...
        let mut d = DeltaBatch::new();
        d.remove_client(c0);
        assert!(matches!(inst.apply_delta(&d), Err(InstanceError::AllZeroCosts)));
        assert_eq!(inst, before);
        // ...but pairing the removal with a positive added link is fine.
        let mut d = DeltaBatch::new();
        d.remove_client(c0);
        let p = d.add_client();
        d.link(p, f, cost(2.0)).unwrap();
        inst.apply_delta(&d).unwrap();
        assert_eq!(inst.num_clients(), 2);
    }
}
