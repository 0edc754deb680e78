//! Mapping between facility-location instances and CONGEST networks.
//!
//! Facility `i` becomes node `i`, client `j` becomes node `m + j`, and the
//! communication edges are exactly the instance's links — the model of the
//! PODC 2005 paper, where a client can only talk to (and connect to)
//! facilities it has a link with. [`execute`] runs node logics over such a
//! topology on either executor.

use distfl_congest::{
    CongestConfig, CongestError, FaultVerdict, Network, NodeId, NodeLogic, SimConfig, SimReport,
    Simulator, Topology, Transcript,
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

/// Builds the bipartite communication topology of an instance: one edge per
/// link.
///
/// # Errors
///
/// Propagates topology construction errors (cannot occur for a valid
/// instance; kept in the signature for honesty).
pub fn topology_of(instance: &Instance) -> Result<Topology, CongestError> {
    let m = instance.num_facilities();
    let pairs = instance
        .clients()
        .flat_map(|j| {
            instance
                .client_links(j)
                .ids
                .iter()
                .map(move |&i| (i as usize, j.index()))
                .collect::<Vec<_>>()
        })
        .collect::<Vec<_>>();
    Topology::bipartite(m, instance.num_clients(), pairs)
}

/// The executor a distributed protocol runs on.
#[derive(Debug)]
pub(crate) enum Executor {
    /// The lock-step round engine.
    LockStep(CongestConfig),
    /// The discrete-event simulator.
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
    /// The simulator's fault verdicts; empty on the lock-step engine.
    pub(crate) verdicts: Vec<FaultVerdict>,
    /// The simulator's encoded accusations; empty on the lock-step engine.
    pub(crate) accusations: Vec<f64>,
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
                verdicts: Vec::new(),
                accusations: Vec::new(),
            })
        }
        Executor::Simulated(config) => {
            let mut sim = Simulator::new(topology, nodes, seed, config)?;
            sim.run(max_rounds)?;
            let report = sim.report().clone();
            let verdicts = sim.verdicts();
            let accusations = sim.accusations();
            let harvest = harvest(sim.nodes())?;
            let (_, transcript) = sim.into_parts();
            Ok(Execution { harvest, transcript, report, verdicts, accusations })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distfl_instance::generators::{GridNetwork, InstanceGenerator, UniformRandom};

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
