//! The uncapacitated facility-location instance type.

pub mod delta;

use std::fmt;

use crate::cost::{self, Cost};
use crate::error::InstanceError;

/// Identifier of a facility within an [`Instance`] (dense index `0..m`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FacilityId(u32);

impl FacilityId {
    /// Creates a facility id from its dense index.
    #[inline]
    pub const fn new(index: u32) -> Self {
        FacilityId(index)
    }

    /// The dense index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw `u32`.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for FacilityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FacilityId({})", self.0)
    }
}

impl fmt::Display for FacilityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Identifier of a client within an [`Instance`] (dense index `0..n`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientId(u32);

impl ClientId {
    /// Creates a client id from its dense index.
    #[inline]
    pub const fn new(index: u32) -> Self {
        ClientId(index)
    }

    /// The dense index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw `u32`.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ClientId({})", self.0)
    }
}

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// One CSR adjacency row in structure-of-arrays form: the opposite-side
/// ids and the link costs as two parallel contiguous slices.
///
/// `ids[k]` and `costs[k]` describe the same link; both slices always have
/// equal length, and `ids` is sorted ascending (the CSR row invariant).
/// Splitting the lanes lets cost-only scans — which is what every solver
/// hot path does — run over pure `f64` memory without dragging ids
/// through cache. Every cost was validated by [`Cost::new`] at
/// construction, so the lane is finite, non-negative, and free of `NaN`
/// and `-0.0`; wrap values back up with [`Cost::from_validated`] when a
/// typed cost is needed.
#[derive(Clone, Copy, Debug)]
pub struct LinkSlice<'a> {
    /// Opposite-side dense ids, sorted ascending.
    pub ids: &'a [u32],
    /// Link costs, parallel to `ids`.
    pub costs: &'a [f64],
}

impl<'a> LinkSlice<'a> {
    /// Number of links in the row.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the row is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The `k`-th link as an `(id, cost)` pair.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[inline]
    pub fn get(&self, k: usize) -> (u32, f64) {
        (self.ids[k], self.costs[k])
    }

    /// Iterates over the row as `(id, cost)` pairs.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + 'a {
        self.ids.iter().copied().zip(self.costs.iter().copied())
    }
}

impl<'a> IntoIterator for LinkSlice<'a> {
    type Item = (u32, f64);
    type IntoIter = std::iter::Zip<
        std::iter::Copied<std::slice::Iter<'a, u32>>,
        std::iter::Copied<std::slice::Iter<'a, f64>>,
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.ids.iter().copied().zip(self.costs.iter().copied())
    }
}

/// An uncapacitated facility-location instance.
///
/// Stores `m` facility opening costs and a sparse bipartite link structure:
/// client `j` may connect to facility `i` at cost `c_ij` only if the link
/// `(j, i)` exists. Links double as the communication edges of the CONGEST
/// network the distributed algorithms run on.
///
/// Invariants (enforced at construction):
///
/// * at least one facility and one client,
/// * every client has at least one link (otherwise no feasible solution),
/// * no duplicate links,
/// * at least one strictly positive coefficient.
///
/// Build instances with [`InstanceBuilder`], [`Instance::from_dense`], a
/// generator from [`crate::generators`], or parse one with
/// [`crate::textio`].
///
/// # Storage
///
/// The link structure is stored in CSR (compressed sparse row) form with a
/// structure-of-arrays split: per direction, one contiguous `u32` id lane
/// and one contiguous `f64` cost lane behind a shared u32 offset table.
/// [`Instance::client_links`]/[`Instance::facility_links`] hand out a row
/// as a [`LinkSlice`] pair of parallel slices, so cost-only inner loops
/// (star-ratio scans, repricing sweeps, cheapest-link scans) touch pure
/// `f64` memory. The lanes and
/// offsets are the whole state: derived values such as
/// [`Instance::cheapest_link`] and [`Instance::max_degree`] are computed
/// from them when read, so no mutation path has a cache to keep in sync.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    opening: Vec<Cost>,
    /// CSR offsets into the client-major lanes, length `n + 1`.
    client_offsets: Vec<u32>,
    /// Client-major facility-id lane, sorted by facility id within each
    /// client row.
    client_link_ids: Vec<u32>,
    /// Client-major cost lane, parallel to `client_link_ids`.
    client_link_costs: Vec<f64>,
    /// CSR offsets into the facility-major lanes, length `m + 1`.
    facility_offsets: Vec<u32>,
    /// Facility-major client-id lane, sorted by client id within each
    /// facility row.
    facility_link_ids: Vec<u32>,
    /// Facility-major cost lane, parallel to `facility_link_ids`.
    facility_link_costs: Vec<f64>,
}

impl Instance {
    /// Builds a complete-bipartite (dense) instance from an opening-cost
    /// vector and a `[client][facility]` connection-cost matrix.
    ///
    /// # Errors
    ///
    /// Returns an [`InstanceError`] if the matrix is ragged, any dimension
    /// is empty, or all coefficients are zero.
    pub fn from_dense(opening: Vec<Cost>, costs: Vec<Vec<Cost>>) -> Result<Self, InstanceError> {
        let mut builder = InstanceBuilder::new();
        let fids: Vec<FacilityId> = opening.into_iter().map(|f| builder.add_facility(f)).collect();
        if fids.is_empty() {
            return Err(InstanceError::NoFacilities);
        }
        for row in costs {
            if row.len() != fids.len() {
                return Err(InstanceError::FacilityOutOfRange {
                    facility: row.len().max(fids.len()) - 1,
                    num_facilities: fids.len(),
                });
            }
            let c = builder.add_client();
            for (i, cost) in row.into_iter().enumerate() {
                builder.link(c, fids[i], cost)?;
            }
        }
        builder.build()
    }

    /// Number of facilities `m`.
    #[inline]
    pub fn num_facilities(&self) -> usize {
        self.opening.len()
    }

    /// Number of clients `n`.
    #[inline]
    pub fn num_clients(&self) -> usize {
        self.client_offsets.len() - 1
    }

    /// Total number of links `|E|`.
    #[inline]
    pub fn num_links(&self) -> usize {
        self.client_link_ids.len()
    }

    /// Whether every client/facility pair is linked.
    pub fn is_complete(&self) -> bool {
        self.num_links() == self.num_facilities() * self.num_clients()
    }

    /// The opening cost of facility `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn opening_cost(&self, i: FacilityId) -> Cost {
        self.opening[i.index()]
    }

    /// The connection cost of the link `(j, i)`, or `None` if absent.
    pub fn connection_cost(&self, j: ClientId, i: FacilityId) -> Option<Cost> {
        let links = self.client_links(j);
        links.ids.binary_search(&i.raw()).ok().map(|pos| Cost::from_validated(links.costs[pos]))
    }

    /// The links of client `j` as parallel facility-id/cost lanes, sorted
    /// by facility id.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    #[inline]
    pub fn client_links(&self, j: ClientId) -> LinkSlice<'_> {
        let lo = self.client_offsets[j.index()] as usize;
        let hi = self.client_offsets[j.index() + 1] as usize;
        LinkSlice { ids: &self.client_link_ids[lo..hi], costs: &self.client_link_costs[lo..hi] }
    }

    /// The links of facility `i` as parallel client-id/cost lanes, sorted
    /// by client id.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn facility_links(&self, i: FacilityId) -> LinkSlice<'_> {
        let lo = self.facility_offsets[i.index()] as usize;
        let hi = self.facility_offsets[i.index() + 1] as usize;
        LinkSlice { ids: &self.facility_link_ids[lo..hi], costs: &self.facility_link_costs[lo..hi] }
    }

    /// The cheapest link of client `j` (ties broken by lowest facility id),
    /// one `O(deg)` scan of the client's cost lane. Rows are sorted by
    /// facility id and costs are `-0.0`-free, so the first lane minimum
    /// `min_argmin` finds is the `(cost, facility id)` lexicographic
    /// minimum.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range (every in-range client has a link by
    /// the instance invariant).
    pub fn cheapest_link(&self, j: ClientId) -> (FacilityId, Cost) {
        let links = self.client_links(j);
        let (k, c) = min_argmin(links.costs).expect("every client is linked");
        (FacilityId::new(links.ids[k]), Cost::from_validated(c))
    }

    /// Iterates over all facility ids.
    pub fn facilities(&self) -> impl Iterator<Item = FacilityId> + '_ {
        (0..self.num_facilities() as u32).map(FacilityId::new)
    }

    /// Iterates over all client ids.
    pub fn clients(&self) -> impl Iterator<Item = ClientId> + '_ {
        (0..self.num_clients() as u32).map(ClientId::new)
    }

    /// Sum of all opening costs.
    pub fn total_opening_cost(&self) -> Cost {
        self.opening.iter().copied().sum()
    }

    /// Iterates over every coefficient of the instance (all opening costs,
    /// then all connection costs).
    pub fn coefficients(&self) -> impl Iterator<Item = Cost> + '_ {
        self.opening
            .iter()
            .copied()
            .chain(self.client_link_costs.iter().map(|&c| Cost::from_validated(c)))
    }

    /// Maximum number of links at any single client or facility (the degree
    /// bound of the CONGEST communication graph): one pass over the two
    /// offset tables, `O(n + m)`.
    pub fn max_degree(&self) -> usize {
        self.client_offsets
            .windows(2)
            .chain(self.facility_offsets.windows(2))
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .expect("instances have clients")
    }
}

/// Incremental constructor for [`Instance`].
///
/// ```
/// use distfl_instance::{Cost, InstanceBuilder};
///
/// # fn main() -> Result<(), distfl_instance::InstanceError> {
/// let mut b = InstanceBuilder::new();
/// let f0 = b.add_facility(Cost::new(10.0)?);
/// let f1 = b.add_facility(Cost::new(3.0)?);
/// let c0 = b.add_client();
/// b.link(c0, f0, Cost::new(1.0)?)?;
/// b.link(c0, f1, Cost::new(5.0)?)?;
/// let inst = b.build()?;
/// assert_eq!(inst.num_links(), 2);
/// assert_eq!(inst.cheapest_link(c0).0, f0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct InstanceBuilder {
    opening: Vec<Cost>,
    client_links: Vec<Vec<(FacilityId, Cost)>>,
}

impl InstanceBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        InstanceBuilder::default()
    }

    /// Adds a facility with the given opening cost, returning its id.
    pub fn add_facility(&mut self, opening: Cost) -> FacilityId {
        self.opening.push(opening);
        FacilityId::new((self.opening.len() - 1) as u32)
    }

    /// Adds a client, returning its id.
    pub fn add_client(&mut self) -> ClientId {
        self.client_links.push(Vec::new());
        ClientId::new((self.client_links.len() - 1) as u32)
    }

    /// Declares that client `j` may connect to facility `i` at `cost`.
    ///
    /// # Errors
    ///
    /// Returns an [`InstanceError`] if either id is out of range or the
    /// link already exists.
    pub fn link(&mut self, j: ClientId, i: FacilityId, cost: Cost) -> Result<(), InstanceError> {
        if i.index() >= self.opening.len() {
            return Err(InstanceError::FacilityOutOfRange {
                facility: i.index(),
                num_facilities: self.opening.len(),
            });
        }
        let Some(links) = self.client_links.get_mut(j.index()) else {
            return Err(InstanceError::ClientOutOfRange {
                client: j.index(),
                num_clients: self.client_links.len(),
            });
        };
        match links.binary_search_by_key(&i, |(f, _)| *f) {
            Ok(_) => Err(InstanceError::DuplicateLink { client: j.index(), facility: i.index() }),
            Err(pos) => {
                links.insert(pos, (i, cost));
                Ok(())
            }
        }
    }

    /// Finalizes the instance, validating all invariants (the rules of
    /// [`RowBuilder::build`], which this feeds its sorted rows to).
    ///
    /// # Errors
    ///
    /// Returns an [`InstanceError`] if there are no facilities, no clients,
    /// an unreachable client, a positive cost outside
    /// [`crate::MIN_POSITIVE_COST`]`..=`[`crate::MAX_COST`]
    /// ([`InstanceError::CostOutOfRange`]), or all coefficients are zero.
    pub fn build(self) -> Result<Instance, InstanceError> {
        let num_links = self.client_links.iter().map(Vec::len).sum();
        let mut rows = RowBuilder::with_capacity(self.opening, num_links);
        for links in &self.client_links {
            rows.add_client();
            for &(i, c) in links {
                rows.link(i, c)?;
            }
        }
        rows.build()
    }
}

/// Builds an [`Instance`] one client row at a time, appending each link
/// straight to the client-major lanes: no per-client list, no sorted
/// insertion. The decoders of the wire and file formats use it, since
/// their rows arrive in client order; [`InstanceBuilder`] feeds it too, so
/// the validation rules and the facility-major transpose exist once.
///
/// A duplicate link is found by a per-facility stamp, at the link that
/// repeats a facility within its row. A row whose facilities arrive out
/// of order is sorted when the next row starts; rows that arrive in
/// ascending order, as OR-Library rows always do, are never sorted.
///
/// ```
/// use distfl_instance::{Cost, FacilityId, RowBuilder};
///
/// # fn main() -> Result<(), distfl_instance::InstanceError> {
/// let mut rows = RowBuilder::new(vec![Cost::new(10.0)?, Cost::new(3.0)?]);
/// rows.add_client();
/// rows.link(FacilityId::new(1), Cost::new(5.0)?)?;
/// rows.link(FacilityId::new(0), Cost::new(1.0)?)?;
/// let inst = rows.build()?;
/// assert_eq!(inst.client_links(distfl_instance::ClientId::new(0)).ids, &[0, 1]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RowBuilder {
    opening: Vec<Cost>,
    /// Where each started row begins in the lanes (the open row is the
    /// last; [`RowBuilder::build`] appends the end offset).
    client_offsets: Vec<u32>,
    client_link_ids: Vec<u32>,
    client_link_costs: Vec<f64>,
    /// Per facility, one more than the last client that linked it.
    stamp: Vec<u32>,
    /// Whether the open row's facility ids have arrived in ascending order.
    row_sorted: bool,
}

impl RowBuilder {
    /// A builder over the given facilities' opening costs, with no client.
    pub fn new(opening: Vec<Cost>) -> RowBuilder {
        RowBuilder::with_capacity(opening, 0)
    }

    /// Like [`RowBuilder::new`], with room reserved for `links` links.
    pub fn with_capacity(opening: Vec<Cost>, links: usize) -> RowBuilder {
        RowBuilder {
            stamp: vec![0; opening.len()],
            opening,
            client_offsets: Vec::new(),
            client_link_ids: Vec::with_capacity(links),
            client_link_costs: Vec::with_capacity(links),
            row_sorted: true,
        }
    }

    /// Starts the next client's row, returning its id.
    pub fn add_client(&mut self) -> ClientId {
        self.close_row();
        self.client_offsets.push(self.client_link_ids.len() as u32);
        ClientId::new((self.client_offsets.len() - 1) as u32)
    }

    /// Links the newest client to facility `i` at `cost`.
    ///
    /// # Errors
    ///
    /// Returns an [`InstanceError`] if `i` is out of range, no client has
    /// been added, or the newest client already links `i`.
    #[inline]
    pub fn link(&mut self, i: FacilityId, cost: Cost) -> Result<(), InstanceError> {
        let Some(&row_start) = self.client_offsets.last() else {
            return Err(InstanceError::ClientOutOfRange { client: 0, num_clients: 0 });
        };
        let Some(stamp) = self.stamp.get_mut(i.index()) else {
            return Err(InstanceError::FacilityOutOfRange {
                facility: i.index(),
                num_facilities: self.opening.len(),
            });
        };
        let rows = self.client_offsets.len() as u32;
        if *stamp == rows {
            return Err(InstanceError::DuplicateLink {
                client: rows as usize - 1,
                facility: i.index(),
            });
        }
        *stamp = rows;
        if self.client_link_ids.len() > row_start as usize
            && self.client_link_ids.last().is_some_and(|&last| last > i.raw())
        {
            self.row_sorted = false;
        }
        self.client_link_ids.push(i.raw());
        self.client_link_costs.push(cost.value());
        Ok(())
    }

    /// Sorts the open row by facility id if its links arrived out of order.
    fn close_row(&mut self) {
        if self.row_sorted {
            return;
        }
        self.row_sorted = true;
        let lo = *self.client_offsets.last().expect("only a started row is unsorted") as usize;
        let mut row: Vec<(u32, f64)> = self.client_link_ids[lo..]
            .iter()
            .copied()
            .zip(self.client_link_costs[lo..].iter().copied())
            .collect();
        row.sort_unstable_by_key(|&(i, _)| i);
        for (k, (i, c)) in row.into_iter().enumerate() {
            self.client_link_ids[lo + k] = i;
            self.client_link_costs[lo + k] = c;
        }
    }

    /// Finalizes the instance, validating all invariants.
    ///
    /// # Errors
    ///
    /// Returns an [`InstanceError`] if there are no facilities, no clients,
    /// an unreachable client (the first, by id), a positive cost outside
    /// [`crate::MIN_POSITIVE_COST`]`..=`[`crate::MAX_COST`]
    /// ([`InstanceError::CostOutOfRange`], the first in opening-cost then
    /// client-major order), or all coefficients are zero.
    pub fn build(mut self) -> Result<Instance, InstanceError> {
        if self.opening.is_empty() {
            return Err(InstanceError::NoFacilities);
        }
        if self.client_offsets.is_empty() {
            return Err(InstanceError::NoClients);
        }
        self.close_row();
        self.client_offsets.push(self.client_link_ids.len() as u32);
        if let Some(j) = self.client_offsets.windows(2).position(|w| w[0] == w[1]) {
            return Err(InstanceError::UnreachableClient { client: j });
        }
        let opening = self.opening.iter().map(|c| c.value());
        for cost in opening.clone().chain(self.client_link_costs.iter().copied()) {
            cost::check_range(cost)?;
        }
        if opening.chain(self.client_link_costs.iter().copied()).all(|c| c == 0.0) {
            return Err(InstanceError::AllZeroCosts);
        }
        let mut instance = Instance {
            opening: self.opening,
            client_offsets: self.client_offsets,
            client_link_ids: self.client_link_ids,
            client_link_costs: self.client_link_costs,
            facility_offsets: Vec::new(),
            facility_link_ids: Vec::new(),
            facility_link_costs: Vec::new(),
        };
        instance.build_facility_lanes();
        Ok(instance)
    }
}

impl Instance {
    /// Refills the facility-major CSR lanes from the client-major ones via
    /// counting sort, in the lanes' own buffers: degree histogram, prefix
    /// sums, then a fill pass that advances each facility's start offset as
    /// its cursor, after which the offsets shift up by one. Clients are
    /// visited in increasing order, so each facility's range comes out
    /// sorted by client id. [`RowBuilder::build`] fills its empty lanes
    /// with it; a structural delta compacts them in place instead.
    fn build_facility_lanes(&mut self) {
        let m = self.opening.len();
        let num_links = self.client_link_ids.len();
        let offsets = &mut self.facility_offsets;
        offsets.clear();
        offsets.resize(m + 1, 0);
        for &i in &self.client_link_ids {
            offsets[i as usize + 1] += 1;
        }
        for i in 1..=m {
            offsets[i] += offsets[i - 1];
        }
        // Zero the lanes first: the fill below writes them in one
        // interleaved run per facility, more than a hardware prefetcher
        // follows, and a sequential pass brings them into cache. On a
        // 2-vCPU Xeon VM a cold-cache 50x500 `apply_delta` took about
        // 190 µs without this pass and 155 µs with it. The fill overwrites
        // every slot.
        self.facility_link_ids.clear();
        self.facility_link_ids.resize(num_links, 0);
        self.facility_link_costs.clear();
        self.facility_link_costs.resize(num_links, 0.0);
        for j in 0..self.client_offsets.len() - 1 {
            let lo = self.client_offsets[j] as usize;
            let hi = self.client_offsets[j + 1] as usize;
            for k in lo..hi {
                let i = self.client_link_ids[k] as usize;
                let slot = offsets[i] as usize;
                self.facility_link_ids[slot] = j as u32;
                self.facility_link_costs[slot] = self.client_link_costs[k];
                offsets[i] += 1;
            }
        }
        // Each cursor stopped at its facility's end, the next one's start.
        offsets.copy_within(0..m, 1);
        offsets[0] = 0;
        debug_assert!((0..m).all(|i| {
            self.facility_link_ids[offsets[i] as usize..offsets[i + 1] as usize]
                .windows(2)
                .all(|w| w[0] < w[1])
        }));
    }
}

/// First minimum of a cost lane: `(index, value)`, `None` when empty.
///
/// A plain strict-`<` scan, so ties break to the **lowest index**. Cost
/// lanes are NaN-free, non-negative and free of `-0.0` ([`Cost::new`]
/// normalizes it), where `<` and `total_cmp` order alike; `+inf`,
/// subnormals and huge magnitudes are ordinary values. Outside that
/// contract a leading NaN is an unbeatable incumbent and any later NaN is
/// invisible to the scan (pinned by a property test).
fn min_argmin(costs: &[f64]) -> Option<(usize, f64)> {
    let (&first, rest) = costs.split_first()?;
    let mut best = first;
    let mut best_at = 0usize;
    for (k, &c) in rest.iter().enumerate() {
        if c < best {
            best = c;
            best_at = k + 1;
        }
    }
    Some((best_at, best))
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::cost::cost;

    fn small() -> Instance {
        // 2 facilities, 3 clients, sparse.
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
    fn accessors() {
        let inst = small();
        assert_eq!(inst.num_facilities(), 2);
        assert_eq!(inst.num_clients(), 3);
        assert_eq!(inst.num_links(), 4);
        assert!(!inst.is_complete());
        assert_eq!(inst.opening_cost(FacilityId::new(1)), cost(4.0));
        assert_eq!(inst.connection_cost(ClientId::new(0), FacilityId::new(1)), Some(cost(2.0)));
        assert_eq!(inst.connection_cost(ClientId::new(1), FacilityId::new(0)), None);
        assert_eq!(inst.cheapest_link(ClientId::new(0)), (FacilityId::new(0), cost(1.0)));
        assert_eq!(inst.total_opening_cost(), cost(14.0));
        assert_eq!(inst.max_degree(), 2);
        assert_eq!(inst.coefficients().count(), 2 + 4);
    }

    #[test]
    fn link_slices_are_parallel_lanes() {
        let inst = small();
        let links = inst.client_links(ClientId::new(0));
        assert_eq!(links.len(), 2);
        assert!(!links.is_empty());
        assert_eq!(links.ids, &[0, 1]);
        assert_eq!(links.costs, &[1.0, 2.0]);
        assert_eq!(links.get(1), (1, 2.0));
        let pairs: Vec<(u32, f64)> = links.iter().collect();
        assert_eq!(pairs, vec![(0, 1.0), (1, 2.0)]);
        let via_into: Vec<(u32, f64)> = links.into_iter().collect();
        assert_eq!(via_into, pairs);
    }

    #[test]
    fn facility_links_are_the_transpose() {
        let inst = small();
        let links = inst.facility_links(FacilityId::new(0));
        assert_eq!(links.ids, &[0, 2]);
        assert_eq!(links.costs, &[1.0, 0.5]);
        let links = inst.facility_links(FacilityId::new(1));
        assert_eq!(links.ids, &[0, 1]);
        assert_eq!(links.costs, &[2.0, 3.0]);
    }

    #[test]
    fn from_dense_builds_complete_instance() {
        let inst = Instance::from_dense(
            vec![cost(5.0), cost(6.0)],
            vec![vec![cost(1.0), cost(2.0)], vec![cost(3.0), cost(4.0)]],
        )
        .unwrap();
        assert!(inst.is_complete());
        assert_eq!(inst.num_links(), 4);
        assert_eq!(inst.connection_cost(ClientId::new(1), FacilityId::new(0)), Some(cost(3.0)));
    }

    #[test]
    fn from_dense_rejects_ragged_matrix() {
        let out = Instance::from_dense(
            vec![cost(5.0), cost(6.0)],
            vec![vec![cost(1.0)], vec![cost(3.0), cost(4.0)]],
        );
        assert!(out.is_err());
    }

    #[test]
    fn builder_rejects_invalid_links() {
        let mut b = InstanceBuilder::new();
        let f = b.add_facility(cost(1.0));
        let c = b.add_client();
        assert!(matches!(
            b.link(c, FacilityId::new(9), cost(1.0)),
            Err(InstanceError::FacilityOutOfRange { .. })
        ));
        assert!(matches!(
            b.link(ClientId::new(9), f, cost(1.0)),
            Err(InstanceError::ClientOutOfRange { .. })
        ));
        b.link(c, f, cost(1.0)).unwrap();
        assert!(matches!(b.link(c, f, cost(2.0)), Err(InstanceError::DuplicateLink { .. })));
    }

    #[test]
    fn build_validates_invariants() {
        assert!(matches!(InstanceBuilder::new().build(), Err(InstanceError::NoFacilities)));

        let mut b = InstanceBuilder::new();
        b.add_facility(cost(1.0));
        assert!(matches!(b.build(), Err(InstanceError::NoClients)));

        let mut b = InstanceBuilder::new();
        b.add_facility(cost(1.0));
        b.add_client();
        assert!(matches!(b.build(), Err(InstanceError::UnreachableClient { client: 0 })));

        let mut b = InstanceBuilder::new();
        let f = b.add_facility(Cost::ZERO);
        let c = b.add_client();
        b.link(c, f, Cost::ZERO).unwrap();
        assert!(matches!(b.build(), Err(InstanceError::AllZeroCosts)));
    }

    #[test]
    fn build_rejects_positive_costs_outside_the_range() {
        let one_by_one = |opening: f64, link: f64| {
            let mut b = InstanceBuilder::new();
            let f = b.add_facility(cost(opening));
            let c = b.add_client();
            b.link(c, f, cost(link)).unwrap();
            b.build()
        };
        let below = f64::from_bits(crate::MIN_POSITIVE_COST.to_bits() - 1);
        let above = f64::from_bits(crate::MAX_COST.to_bits() + 1);
        for bad in [5e-324, below, above, 1e308] {
            let out_of_range = Err(InstanceError::CostOutOfRange { value: bad });
            assert_eq!(one_by_one(bad, 1.0), out_of_range);
            assert_eq!(one_by_one(1.0, bad), out_of_range);
        }
        for good in [0.0, crate::MIN_POSITIVE_COST, 1.0, crate::MAX_COST] {
            one_by_one(good, 1.0).unwrap();
            one_by_one(1.0, good).unwrap();
        }
        assert_eq!(crate::MIN_POSITIVE_COST, 2f64.powi(-256));
        assert_eq!(crate::MAX_COST, 2f64.powi(256));
    }

    #[test]
    fn csr_layout_is_consistent() {
        let inst = small();
        // Offsets cover the flat lanes exactly, both lanes stay parallel,
        // and per-row id lanes stay sorted by the opposite-side id.
        let total: usize = inst.clients().map(|j| inst.client_links(j).len()).sum();
        assert_eq!(total, inst.num_links());
        let total: usize = inst.facilities().map(|i| inst.facility_links(i).len()).sum();
        assert_eq!(total, inst.num_links());
        for j in inst.clients() {
            let links = inst.client_links(j);
            assert_eq!(links.ids.len(), links.costs.len());
            assert!(links.ids.windows(2).all(|w| w[0] < w[1]));
            // The lane-scan cheapest link matches a typed lexicographic scan.
            let scan = links
                .iter()
                .map(|(i, c)| (FacilityId::new(i), Cost::from_validated(c)))
                .min_by(|(fa, ca), (fb, cb)| ca.cmp(cb).then(fa.cmp(fb)))
                .unwrap();
            assert_eq!(inst.cheapest_link(j), scan);
        }
        for i in inst.facilities() {
            let links = inst.facility_links(i);
            assert_eq!(links.ids.len(), links.costs.len());
            assert!(links.ids.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn builder_and_from_dense_agree_on_precomputed_fields() {
        // The same dense instance built through the incremental builder
        // and through `from_dense` must agree on the whole CSR, and so on
        // the values derived from it: `cheapest_link` (including its
        // lowest-facility-id tie-break; both clients tie two facilities at
        // the minimum) and `max_degree`.
        let opening = vec![cost(5.0), cost(6.0), cost(7.0)];
        let rows =
            vec![vec![cost(2.0), cost(1.0), cost(1.0)], vec![cost(3.0), cost(3.0), cost(4.0)]];
        let dense = Instance::from_dense(opening.clone(), rows.clone()).unwrap();
        let mut b = InstanceBuilder::new();
        let fids: Vec<FacilityId> = opening.into_iter().map(|f| b.add_facility(f)).collect();
        // Link in reverse facility order to exercise the builder's sorted
        // insertion rather than append order.
        for row in rows {
            let c = b.add_client();
            for (i, cost) in row.into_iter().enumerate().rev() {
                b.link(c, fids[i], cost).unwrap();
            }
        }
        let built = b.build().unwrap();
        assert_eq!(built, dense);
        for j in built.clients() {
            assert_eq!(built.cheapest_link(j), dense.cheapest_link(j));
        }
        assert_eq!(built.cheapest_link(ClientId::new(0)), (FacilityId::new(1), cost(1.0)));
        assert_eq!(built.cheapest_link(ClientId::new(1)), (FacilityId::new(0), cost(3.0)));
        assert_eq!(built.max_degree(), dense.max_degree());
        assert_eq!(built.max_degree(), 3);
    }

    #[test]
    fn id_display_and_iterators() {
        let inst = small();
        assert_eq!(FacilityId::new(1).to_string(), "f1");
        assert_eq!(ClientId::new(2).to_string(), "c2");
        assert_eq!(inst.facilities().count(), 2);
        assert_eq!(inst.clients().count(), 3);
    }

    #[test]
    fn min_argmin_first_index_tie_break() {
        // The minimum appears three times; the first occurrence wins at
        // every offset.
        for pad in 0..10 {
            let mut costs = vec![5.0; pad];
            costs.extend([2.0, 7.0, 2.0, 9.0, 2.0]);
            assert_eq!(min_argmin(&costs), Some((pad, 2.0)), "pad {pad}");
        }
        let all_equal = vec![3.25; 17];
        assert_eq!(min_argmin(&all_equal), Some((0, 3.25)));
    }

    #[test]
    fn min_argmin_handles_infinities_and_extremes() {
        assert_eq!(min_argmin(&[]), None);
        let all_inf = vec![f64::INFINITY; 11];
        assert_eq!(min_argmin(&all_inf), Some((0, f64::INFINITY)));
        let mixed = [f64::INFINITY, 1e308, f64::MIN_POSITIVE, 5e-324, 0.0, f64::INFINITY, 1.0, 2.0];
        assert_eq!(min_argmin(&mixed), Some((4, 0.0)));
    }

    /// NaN-aware model of the [`min_argmin`] scan: a NaN candidate never
    /// wins a strict `<`, so the result is the first-occurrence argmin
    /// over the non-NaN entries — `None` when there are none.
    fn nan_filtered_min(costs: &[f64]) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (k, &c) in costs.iter().enumerate() {
            if c.is_nan() {
                continue;
            }
            if best.is_none_or(|(_, b)| c < b) {
                best = Some((k, c));
            }
        }
        best
    }

    /// A lane mixing ordinary non-negative costs with NaNs and +inf
    /// (tags 0 and 1 of a six-way draw, so about a third of the entries
    /// are non-finite).
    fn nan_lane() -> impl Strategy<Value = Vec<f64>> {
        prop::collection::vec((0u32..6, 0u32..4000), 1..48).prop_map(|items| {
            items
                .into_iter()
                .map(|(tag, v)| match tag {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    _ => f64::from(v) * 0.375,
                })
                .collect()
        })
    }

    /// An all-equal lane of one value — exact zero, the smallest
    /// subnormal, near-overflow, `+inf`, or a regular draw — so every index
    /// ties and the scan must pick the *first* one.
    fn equal_lane() -> impl Strategy<Value = Vec<f64>> {
        (0u8..4, 0.0f64..1e3, 1usize..18).prop_map(|(sel, v, len)| {
            let value = match sel {
                0 => 0.0,
                1 => 5e-324,
                2 => 1e300,
                3 => f64::INFINITY,
                _ => v,
            };
            vec![value; len]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn min_argmin_nan_semantics(costs in nan_lane()) {
            let got = min_argmin(&costs).unwrap();
            if costs[0].is_nan() {
                // A leading NaN is the unbeatable incumbent.
                prop_assert_eq!(got.0, 0);
                prop_assert!(got.1.is_nan());
            } else {
                // Otherwise NaNs are invisible to the scan.
                let model = nan_filtered_min(&costs).unwrap();
                prop_assert_eq!(got.0, model.0);
                prop_assert_eq!(got.1.to_bits(), model.1.to_bits());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn min_argmin_breaks_ties_at_the_first_index(lane in equal_lane()) {
            let (k, v) = min_argmin(&lane).unwrap();
            prop_assert_eq!(k, 0);
            prop_assert_eq!(v.to_bits(), lane[0].to_bits());
        }
    }
}
