//! Mapping between facility-location instances and CONGEST networks, and
//! the scaffolding every protocol on them shares.
//!
//! Facility `i` becomes node `i`, client `j` becomes node `m + j`, and the
//! communication edges are exactly the instance's links — the model of the
//! PODC 2005 paper, where a client can only talk to (and connect to)
//! facilities it has a link with. Every protocol (PayDual, MetricBall,
//! GreedyBucket, DistRound and the straw-man in `seqdist`) writes a
//! facility and a client state machine, joins them in one [`Node`], reads
//! its link tables from [`facility_link_table`] and [`client_link_table`],
//! and runs through [`execute`] on either executor.

use distfl_congest::{
    CongestConfig, CongestError, Network, NodeId, NodeLogic, SimConfig, SimReport, Simulator,
    StepCtx, Topology, Transcript,
};
use distfl_instance::{ClientId, FacilityId, Instance};

use crate::error::CoreError;

/// The role a CONGEST node plays in the bipartite facility-location
/// network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The node simulates a facility.
    Facility(FacilityId),
    /// The node simulates a client.
    Client(ClientId),
}

/// The CONGEST node simulating facility `i`.
#[inline]
pub fn facility_node(i: FacilityId) -> NodeId {
    NodeId::new(i.raw())
}

/// The CONGEST node simulating client `j` in an instance with
/// `num_facilities` facilities.
#[inline]
pub fn client_node(num_facilities: usize, j: ClientId) -> NodeId {
    NodeId::new(num_facilities as u32 + j.raw())
}

/// The role of a CONGEST node in an instance with `num_facilities`
/// facilities.
#[inline]
pub fn node_role(num_facilities: usize, node: NodeId) -> Role {
    if node.index() < num_facilities {
        Role::Facility(FacilityId::new(node.raw()))
    } else {
        Role::Client(ClientId::new(node.raw() - num_facilities as u32))
    }
}

/// One node of a facility-location protocol: its facility state machine
/// `F` or its client state machine `C`. Each role is a [`NodeLogic`] over
/// the protocol's one message type; this enum is the dispatch between them.
#[derive(Debug, Clone)]
pub enum Node<F, C> {
    /// Facility role.
    Facility(F),
    /// Client role.
    Client(C),
}

impl<F: NodeLogic, C: NodeLogic<Msg = F::Msg>> NodeLogic for Node<F, C> {
    type Msg = F::Msg;

    fn step(&mut self, ctx: &mut StepCtx<'_, F::Msg>) {
        match self {
            Node::Facility(f) => f.step(ctx),
            Node::Client(c) => c.step(ctx),
        }
    }

    fn is_done(&self) -> bool {
        match self {
            Node::Facility(f) => f.is_done(),
            Node::Client(c) => c.is_done(),
        }
    }
}

/// The client states of a node vector built facilities first, in client
/// order.
pub(crate) fn clients<F, C>(nodes: &[Node<F, C>]) -> impl ExactSizeIterator<Item = &C> {
    let first = nodes.partition_point(|node| matches!(node, Node::Facility(_)));
    nodes[first..].iter().map(|node| match node {
        Node::Client(c) => c,
        Node::Facility(_) => unreachable!("facilities come first"),
    })
}

/// Facility `i`'s link table: `(client node, cost)` in ascending node id,
/// the order [`LinkCursor`] walks.
pub(crate) fn facility_link_table(instance: &Instance, i: FacilityId) -> Vec<(NodeId, f64)> {
    let m = instance.num_facilities();
    instance.facility_links(i).iter().map(|(j, c)| (client_node(m, ClientId::new(j)), c)).collect()
}

/// Client `j`'s link table: `(facility node, cost)` in ascending node id.
pub(crate) fn client_link_table(instance: &Instance, j: ClientId) -> Vec<(NodeId, f64)> {
    instance.client_links(j).iter().map(|(i, c)| (facility_node(FacilityId::new(i)), c)).collect()
}

/// The opening costs a client heard announced, aligned with its link
/// table: the fallback of the GreedyBucket and DistRound clients, which
/// force-open their cheapest `(c + f)` bundle when the randomized rounds
/// left them unserved.
#[derive(Debug, Clone, Default)]
pub(crate) struct Announced(Vec<f64>);

impl Announced {
    /// Records the announcements `opening` reads out of `inbox`. A facility
    /// whose announcement was lost (fault injection) stays at `+inf`.
    pub(crate) fn record<M: Copy>(
        &mut self,
        links: &[(NodeId, f64)],
        inbox: &[(NodeId, M)],
        opening: impl Fn(M) -> Option<f64>,
    ) {
        self.0 = vec![f64::INFINITY; links.len()];
        let mut cursor = LinkCursor::default();
        for &(src, msg) in inbox {
            if let Some(f) = opening(msg) {
                if let Some(idx) = cursor.seek(links, src) {
                    self.0[idx] = f;
                }
            }
        }
    }

    /// The link index of the cheapest bundle and its cost, ties to the
    /// lowest index. An unheard facility prices at `f64::MAX`, so it is
    /// chosen only when no announcement arrived at all.
    pub(crate) fn cheapest_bundle(&self, links: &[(NodeId, f64)]) -> (usize, f64) {
        links
            .iter()
            .zip(&self.0)
            .map(|(&(_, c), &f)| if f.is_finite() { c + f } else { f64::MAX })
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
            .expect("instance invariant: every client has a link")
    }
}

/// Builds the bipartite communication topology of an instance: one edge per
/// link.
///
/// The CSR rows come straight from the instance's id lanes in one pass:
/// facility `i`'s row is its facility-major client ids shifted past the
/// facilities, client `j`'s row is its client-major facility ids. Both
/// lanes are ascending within a row, so nothing is sorted;
/// [`Topology::from_sorted_rows`] only checks them.
///
/// # Errors
///
/// Propagates topology construction errors (cannot occur for a valid
/// instance; kept in the signature for honesty).
pub fn topology_of(instance: &Instance) -> Result<Topology, CongestError> {
    let m = instance.num_facilities() as u32;
    let mut offsets = Vec::with_capacity(instance.num_facilities() + instance.num_clients() + 1);
    let mut adjacency = Vec::with_capacity(2 * instance.num_links());
    offsets.push(0);
    for i in instance.facilities() {
        adjacency.extend(instance.facility_links(i).ids.iter().map(|&j| NodeId::new(m + j)));
        offsets.push(adjacency.len() as u32);
    }
    for j in instance.clients() {
        adjacency.extend(instance.client_links(j).ids.iter().map(|&i| NodeId::new(i)));
        offsets.push(adjacency.len() as u32);
    }
    Topology::from_sorted_rows(offsets, adjacency)
}

/// A forward cursor over a node's id-sorted link table.
///
/// The engine hands a node its inbox sorted by sender (it delivers in
/// ascending source order, under either executor), so successive senders
/// only move forward through the table. The cursor walks it alongside the
/// inbox instead of searching it once per message. Start a fresh cursor
/// for every pass over an inbox.
#[derive(Default)]
pub(crate) struct LinkCursor {
    next: usize,
}

impl LinkCursor {
    /// The index of `src` in `links`, or `None` when `src` is not a link.
    /// Successive calls must pass the same table and non-decreasing
    /// senders; they then land where `binary_search_by_key` would.
    #[inline]
    pub(crate) fn seek<T>(&mut self, links: &[(NodeId, T)], src: NodeId) -> Option<usize> {
        while links.get(self.next).is_some_and(|(id, _)| *id < src) {
            self.next += 1;
        }
        let found = links.get(self.next).is_some_and(|(id, _)| *id == src).then_some(self.next);
        debug_assert_eq!(
            found,
            links.binary_search_by_key(&src, |(id, _)| *id).ok(),
            "senders must arrive in ascending order"
        );
        found
    }
}

/// The executor a distributed protocol runs on.
#[derive(Debug)]
pub(crate) enum Executor {
    /// The lock-step round engine.
    LockStep(CongestConfig),
    /// The lock-step engine, timed by the simulator's clock.
    Simulated(SimConfig),
}

/// What one [`execute`] call returns: the harvest of the final node
/// states, plus the run's measurements.
#[derive(Debug)]
pub(crate) struct Execution<T> {
    pub(crate) harvest: T,
    pub(crate) transcript: Transcript,
    /// The simulator's virtual-clock report; default on the lock-step
    /// engine.
    pub(crate) report: SimReport,
}

/// Runs `nodes` over `topology` on `executor` until every node is done,
/// failing past `max_rounds` rounds, then reads the result out of the
/// final node states with `harvest` while the executor still holds them.
/// The one place a distributed kind builds a [`Network`] or a
/// [`Simulator`].
pub(crate) fn execute<L: NodeLogic, T>(
    topology: Topology,
    nodes: Vec<L>,
    seed: u64,
    executor: Executor,
    max_rounds: u32,
    harvest: impl FnOnce(&[L]) -> Result<T, CoreError>,
) -> Result<Execution<T>, CoreError> {
    match executor {
        Executor::LockStep(config) => {
            let mut net = Network::with_config(topology, nodes, seed, config)?;
            net.run(max_rounds)?;
            Ok(Execution {
                harvest: harvest(net.nodes())?,
                transcript: net.into_transcript(),
                report: SimReport::default(),
            })
        }
        Executor::Simulated(config) => {
            let mut sim = Simulator::new(topology, nodes, seed, config)?;
            sim.run(max_rounds)?;
            let report = sim.report().clone();
            let harvest = harvest(sim.nodes())?;
            let (_, transcript) = sim.into_parts();
            Ok(Execution { harvest, transcript, report })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distfl_instance::generators::{
        AdversarialGreedy, CdnTrace, Clustered, Euclidean, GridNetwork, InstanceGenerator,
        LineCity, Metricized, PowerLaw, UniformRandom,
    };
    use proptest::prelude::*;

    /// An instance from any of the nine generator families; `GridNetwork`
    /// with a one- to three-hop radius, so its rows are sparse.
    fn any_family() -> impl Strategy<Value = Instance> {
        (0u8..9, 1usize..9, 1usize..30, 1usize..4, 0u64..1000).prop_map(
            |(family, m, n, radius, seed)| match family {
                0 => UniformRandom::new(m, n).unwrap().generate(seed).unwrap(),
                1 => Euclidean::new(m, n).unwrap().generate(seed).unwrap(),
                2 => Clustered::new(m % 3 + 1, m.max(3), n).unwrap().generate(seed).unwrap(),
                3 => PowerLaw::new(m, n, 64.0).unwrap().generate(seed).unwrap(),
                4 => {
                    let side = 2 + m % 5;
                    let grid = GridNetwork::with_radius(side, side, m.min(side * side), n, radius);
                    grid.unwrap().generate(seed).unwrap()
                }
                5 => LineCity::new(m, n).unwrap().generate(seed).unwrap(),
                6 => CdnTrace::new(m, n).unwrap().generate(seed).unwrap(),
                7 => AdversarialGreedy::new(n).unwrap().generate(seed).unwrap(),
                _ => Metricized::new(UniformRandom::new(m, n).unwrap()).generate(seed).unwrap(),
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The lane-built topology is the one the generic edge-list
        /// constructor makes from the instance's links.
        #[test]
        fn topology_of_matches_the_edge_list_build(inst in any_family()) {
            let pairs = inst
                .clients()
                .flat_map(|j| inst.client_links(j).ids.iter().map(move |&i| (i as usize, j.index())))
                .collect::<Vec<_>>();
            let expected =
                Topology::bipartite(inst.num_facilities(), inst.num_clients(), pairs).unwrap();
            prop_assert_eq!(topology_of(&inst).unwrap(), expected);
        }
    }

    #[test]
    fn node_mapping_round_trips() {
        let m = 5;
        let f = FacilityId::new(3);
        let c = ClientId::new(7);
        assert_eq!(facility_node(f), NodeId::new(3));
        assert_eq!(client_node(m, c), NodeId::new(12));
        assert_eq!(node_role(m, NodeId::new(3)), Role::Facility(f));
        assert_eq!(node_role(m, NodeId::new(12)), Role::Client(c));
    }

    #[test]
    fn link_cursor_lands_where_a_search_would() {
        let links: Vec<(NodeId, f64)> =
            [2, 5, 7, 11].iter().map(|&id| (NodeId::new(id), f64::from(id))).collect();
        let mut cursor = LinkCursor::default();
        // Ascending senders, with non-links before, between and after the
        // table, and a repeated sender: `seek` takes non-decreasing
        // senders, though an inbox holds at most one message per sender.
        let senders = [0, 2, 3, 5, 5, 8, 11, 12];
        let got: Vec<Option<usize>> =
            senders.iter().map(|&s| cursor.seek(&links, NodeId::new(s))).collect();
        assert_eq!(got, [None, Some(0), None, Some(1), Some(1), None, Some(3), None]);
        assert_eq!(LinkCursor::default().seek(&[] as &[(NodeId, f64)], NodeId::new(0)), None);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "senders must arrive in ascending order")]
    fn link_cursor_rejects_descending_senders_in_debug_builds() {
        let links = [(NodeId::new(2), ()), (NodeId::new(5), ())];
        let mut cursor = LinkCursor::default();
        cursor.seek(&links, NodeId::new(5));
        cursor.seek(&links, NodeId::new(2));
    }

    #[test]
    fn dense_instance_maps_to_complete_bipartite() {
        let inst = UniformRandom::new(4, 6).unwrap().generate(1).unwrap();
        let topo = topology_of(&inst).unwrap();
        assert_eq!(topo.num_nodes(), 10);
        assert_eq!(topo.num_edges(), 24);
        assert!(topo.are_neighbors(NodeId::new(0), NodeId::new(4)));
        assert!(!topo.are_neighbors(NodeId::new(0), NodeId::new(1)));
    }

    #[test]
    fn sparse_instance_maps_to_sparse_topology() {
        let inst = GridNetwork::with_radius(8, 8, 6, 20, 2).unwrap().generate(2).unwrap();
        let topo = topology_of(&inst).unwrap();
        assert_eq!(topo.num_edges(), inst.num_links());
        // Every link is an edge.
        for j in inst.clients() {
            for &i in inst.client_links(j).ids {
                assert!(topo.are_neighbors(facility_node(FacilityId::new(i)), client_node(6, j)));
            }
        }
    }
}
