//! The uncapacitated facility-location instance type.

pub mod delta;

use std::fmt;

use crate::cost::{self, Cost};
use crate::error::InstanceError;
use crate::kernels;

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
/// through cache, and makes the rows directly consumable by the chunked
/// [`crate::kernels`]. Every cost was validated by [`Cost::new`] at
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
/// (star-ratio scans, repricing sweeps, linear-form passes) touch pure
/// `f64` memory and autovectorize via [`crate::kernels`]. The lanes and
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
    /// [`kernels::min_argmin`] finds is the `(cost, facility id)`
    /// lexicographic minimum.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range (every in-range client has a link by
    /// the instance invariant).
    pub fn cheapest_link(&self, j: ClientId) -> (FacilityId, Cost) {
        let links = self.client_links(j);
        let (k, c) = kernels::min_argmin(links.costs).expect("every client is linked");
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

    /// Finalizes the instance, validating all invariants.
    ///
    /// # Errors
    ///
    /// Returns an [`InstanceError`] if there are no facilities, no clients,
    /// an unreachable client, a positive cost outside
    /// [`crate::MIN_POSITIVE_COST`]`..=`[`crate::MAX_COST`]
    /// ([`InstanceError::CostOutOfRange`]), or all coefficients are zero.
    pub fn build(self) -> Result<Instance, InstanceError> {
        if self.opening.is_empty() {
            return Err(InstanceError::NoFacilities);
        }
        if self.client_links.is_empty() {
            return Err(InstanceError::NoClients);
        }
        if let Some(j) = self.client_links.iter().position(Vec::is_empty) {
            return Err(InstanceError::UnreachableClient { client: j });
        }
        for cost in self.opening.iter().chain(self.client_links.iter().flatten().map(|(_, c)| c)) {
            cost::check_range(cost.value())?;
        }
        let any_positive = self.opening.iter().any(|c| !c.is_zero())
            || self.client_links.iter().flatten().any(|(_, c)| !c.is_zero());
        if !any_positive {
            return Err(InstanceError::AllZeroCosts);
        }
        let m = self.opening.len();
        let n = self.client_links.len();
        let num_links: usize = self.client_links.iter().map(Vec::len).sum();

        // Client-major CSR: flatten the per-client lists (already sorted by
        // facility id) into the split id/cost lanes.
        let mut client_offsets = Vec::with_capacity(n + 1);
        let mut client_link_ids = Vec::with_capacity(num_links);
        let mut client_link_costs = Vec::with_capacity(num_links);
        client_offsets.push(0u32);
        for links in &self.client_links {
            for &(i, c) in links {
                client_link_ids.push(i.raw());
                client_link_costs.push(c.value());
            }
            client_offsets.push(client_link_ids.len() as u32);
        }

        let (facility_offsets, facility_link_ids, facility_link_costs) =
            build_facility_lanes(m, &client_offsets, &client_link_ids, &client_link_costs);

        Ok(Instance {
            opening: self.opening,
            client_offsets,
            client_link_ids,
            client_link_costs,
            facility_offsets,
            facility_link_ids,
            facility_link_costs,
        })
    }
}

/// Regenerates the facility-major CSR lanes from the client-major ones via
/// counting sort: degree histogram, prefix sums, then a fill pass. Clients
/// are visited in increasing order, so each facility's range comes out
/// sorted by client id. Shared by [`InstanceBuilder::build`] and the delta
/// compaction path.
fn build_facility_lanes(
    m: usize,
    client_offsets: &[u32],
    client_link_ids: &[u32],
    client_link_costs: &[f64],
) -> (Vec<u32>, Vec<u32>, Vec<f64>) {
    let num_links = client_link_ids.len();
    let mut facility_offsets = vec![0u32; m + 1];
    for &i in client_link_ids {
        facility_offsets[i as usize + 1] += 1;
    }
    for i in 1..=m {
        facility_offsets[i] += facility_offsets[i - 1];
    }
    let mut facility_link_ids = vec![0u32; num_links];
    let mut facility_link_costs = vec![0.0f64; num_links];
    let mut cursor: Vec<u32> = facility_offsets[..m].to_vec();
    for j in 0..client_offsets.len() - 1 {
        let lo = client_offsets[j] as usize;
        let hi = client_offsets[j + 1] as usize;
        for k in lo..hi {
            let i = client_link_ids[k] as usize;
            let slot = cursor[i] as usize;
            facility_link_ids[slot] = j as u32;
            facility_link_costs[slot] = client_link_costs[k];
            cursor[i] = slot as u32 + 1;
        }
    }
    debug_assert!((0..m).all(|i| {
        facility_link_ids[facility_offsets[i] as usize..facility_offsets[i + 1] as usize]
            .windows(2)
            .all(|w| w[0] < w[1])
    }));
    (facility_offsets, facility_link_ids, facility_link_costs)
}

#[cfg(test)]
mod tests {
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
}
