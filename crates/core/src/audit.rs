//! Distributed solution auditing.
//!
//! After a distributed run, each node holds only its *local* slice of the
//! solution (a facility knows whether it is open; a client knows its
//! assignment). A real deployment wants global answers — "what does this
//! placement cost?", "is anyone unserved?" — without collecting the whole
//! state at an operator. These audits compute them in `O(D)` rounds with
//! the BFS convergecast sum of [`distfl_congest::bfs`]:
//!
//! * [`distributed_cost`] — the total solution cost,
//! * [`distributed_open_count`] — how many facilities are open.
//!
//! They also serve as end-to-end cross-checks of the aggregation
//! substrate: their results must match the offline evaluation exactly.

use distfl_congest::bfs::aggregate;
use distfl_congest::{NodeId, Transcript};
use distfl_instance::{Instance, Solution};

use crate::error::CoreError;
use crate::model::topology_of;

/// Per-node local values for an audit: facility nodes first, then clients.
fn local_values<F, C>(instance: &Instance, facility: F, client: C) -> Vec<f64>
where
    F: Fn(distfl_instance::FacilityId) -> f64,
    C: Fn(distfl_instance::ClientId) -> f64,
{
    instance.facilities().map(facility).chain(instance.clients().map(client)).collect()
}

/// Sums the per-node `values` over the instance's communication graph.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParams`] if the communication graph is
/// disconnected (tree aggregation needs a connected graph), and
/// propagates simulation errors.
fn run_audit(instance: &Instance, values: Vec<f64>) -> Result<(f64, Transcript), CoreError> {
    let topology = topology_of(instance)?;
    if !topology.is_connected() {
        return Err(CoreError::InvalidParams {
            reason: "audits need a connected communication graph".to_owned(),
        });
    }
    aggregate(&topology, NodeId::new(0), &values).map_err(CoreError::from)
}

/// Computes the total cost of `solution` distributively (`O(D)` rounds).
/// Every node contributes only local knowledge: open facilities their
/// opening cost, clients their assigned connection cost.
///
/// # Errors
///
/// See [`distributed_cost`]'s module docs; also fails if `solution` is
/// infeasible for `instance`.
pub fn distributed_cost(
    instance: &Instance,
    solution: &Solution,
) -> Result<(f64, Transcript), CoreError> {
    solution.check_feasible(instance)?;
    let values = local_values(
        instance,
        |i| if solution.is_open(i) { instance.opening_cost(i).value() } else { 0.0 },
        |j| {
            instance
                .connection_cost(j, solution.assigned(j))
                .expect("feasible solution uses existing links")
                .value()
        },
    );
    run_audit(instance, values)
}

/// Counts open facilities distributively.
///
/// # Errors
///
/// Same conditions as [`distributed_cost`].
pub fn distributed_open_count(
    instance: &Instance,
    solution: &Solution,
) -> Result<(f64, Transcript), CoreError> {
    solution.check_feasible(instance)?;
    let values = local_values(instance, |i| if solution.is_open(i) { 1.0 } else { 0.0 }, |_| 0.0);
    run_audit(instance, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy;
    use crate::paydual::{PayDual, PayDualParams};
    use crate::runner::FlAlgorithm;
    use distfl_instance::generators::{GridNetwork, InstanceGenerator, UniformRandom};

    #[test]
    fn audited_cost_matches_offline_evaluation() {
        for seed in 0..4 {
            let inst = UniformRandom::new(6, 20).unwrap().generate(seed).unwrap();
            let (solution, _) = greedy::solve(&inst);
            let (cost, t) = distributed_cost(&inst, &solution).unwrap();
            assert!((cost - solution.cost(&inst).value()).abs() < 1e-9, "seed {seed}");
            assert!(t.congest_compliant(72));
        }
    }

    #[test]
    fn audit_matches_after_a_distributed_run() {
        let inst = UniformRandom::new(8, 30).unwrap().generate(5).unwrap();
        let out = PayDual::new(PayDualParams::with_phases(8)).run(&inst, 1).unwrap();
        let (cost, _) = distributed_cost(&inst, &out.solution).unwrap();
        assert!((cost - out.solution.cost(&inst).value()).abs() < 1e-9);
        let (open, _) = distributed_open_count(&inst, &out.solution).unwrap();
        assert_eq!(open as usize, out.solution.num_open());
    }

    #[test]
    fn audits_cost_diameter_not_size_rounds() {
        let small = UniformRandom::new(4, 10).unwrap().generate(1).unwrap();
        let large = UniformRandom::new(12, 200).unwrap().generate(1).unwrap();
        let run = |inst: &Instance| {
            let (s, _) = greedy::solve(inst);
            distributed_cost(inst, &s).unwrap().1.num_rounds()
        };
        // Dense bipartite graphs have diameter <= 3 regardless of size, so
        // the audits' round counts stay within a small constant band.
        let a = run(&small);
        let b = run(&large);
        assert!(a <= 12 && b <= 12, "audit rounds grew: {a} vs {b}");
    }

    #[test]
    fn disconnected_graphs_are_rejected() {
        let inst = GridNetwork::with_radius(12, 12, 6, 20, 1).unwrap().generate(3).unwrap();
        let topo = topology_of(&inst).unwrap();
        let (solution, _) = greedy::solve(&inst);
        let outcome = distributed_cost(&inst, &solution);
        if topo.is_connected() {
            assert!(outcome.is_ok());
        } else {
            assert!(matches!(outcome, Err(CoreError::InvalidParams { .. })));
        }
    }

    #[test]
    fn infeasible_solutions_are_rejected_up_front() {
        // Shape mismatch: a solution for a 4-facility instance audited
        // against a 3-facility one.
        let inst = UniformRandom::new(3, 6).unwrap().generate(0).unwrap();
        let other = UniformRandom::new(4, 6).unwrap().generate(0).unwrap();
        let (solution, _) = greedy::solve(&other);
        assert!(distributed_cost(&inst, &solution).is_err());
        // Client-count mismatch is also caught.
        let fewer = UniformRandom::new(3, 4).unwrap().generate(0).unwrap();
        let (short, _) = greedy::solve(&fewer);
        assert!(distributed_cost(&inst, &short).is_err());
    }
}
