//! **MetricBall** — a distributed ball-growing metric UFL solver in the
//! style of Briest et al. (arXiv 1105.1248) and the Mettu–Plaxton radius
//! technique, built on the same [`distfl_congest::NodeLogic`] machinery as
//! [`crate::paydual`] so it runs unmodified on the lock-step engine *and*
//! the discrete-event simulator.
//!
//! # Protocol
//!
//! One CONGEST node per facility and per client. Parameterized by the
//! number of *phases* `s ≥ 1`; total rounds are `3s + 3` regardless of the
//! input. Every facility knows its Mettu–Plaxton radius `r_i` (the `r`
//! solving `Σ_j max(0, r − c_ij) = f_i`, computed locally from its links)
//! and the globally-known geometric radius schedule `R_0 < … < R_{s−1}`
//! spanning the instance's cost floor to twice its largest coefficient.
//! Phase `p` runs three rounds:
//!
//! 1. **Bid** — every unopened facility with `r_i ≤ R_p` draws a uniform
//!    priority and broadcasts it.
//! 2. **Deny** — each client denies bidders that a *near-open* facility
//!    already serves (`best_open_cost_j + c_ij ≤ 2·R_p`: opening inside an
//!    opened ball's blocking zone would double-pay), and among the
//!    remaining bidders inside its phase ball (`c_ij ≤ R_p`) elects the
//!    highest-priority one, denying the rest — the sampling step that
//!    keeps simultaneously-opened facilities well separated.
//! 3. **Resolve** — a bidder receiving zero denies opens and announces it.
//!
//! A three-round coverage tail follows the phases: clients reached by no
//! opened ball *demand* their cheapest link, demanded facilities open, and
//! every client connects to its cheapest known-open facility. Denied
//! facilities keep no state and simply retry in later (larger-radius)
//! phases.
//!
//! # Guarantees
//!
//! *Termination and rounds.* The schedule is fixed: `3s + 3` rounds,
//! independent of the input, and the coverage tail guarantees every client
//! connects — the harvest never fails on a fault-free run.
//!
//! *Cost.* On **metric** instances the ball discipline gives the
//! constant-factor regime of the cited papers: an opened facility's ball
//! is paid for by the clients inside it (its radius covers them by the
//! Mettu–Plaxton charging argument), the near-open blocking rule keeps
//! concurrently open facilities `2·R_p` apart so balls are disjoint, and
//! the per-ball random election breaks the remaining ties. More phases →
//! finer radius ladder → tighter charging. On non-metric instances the
//! output is still feasible, but the charging argument (and any factor
//! guarantee) evaporates — which is exactly what the
//! [`crate::SolverKind::Auto`] classifier routes on.
//!
//! The sequential reference [`solve_reference`] replays the protocol
//! phase-for-phase — including the per-facility priority draws, via
//! [`distfl_congest::NodeRng::derive`] with the engine's own
//! `(seed, node, round)` triple — so the distributed run is proptested
//! **bitwise equal** to it (`portfolio_equivalence.rs`).
//!
//! ```
//! use distfl_core::metricball::{MetricBall, MetricBallParams};
//! use distfl_core::FlAlgorithm;
//! use distfl_instance::generators::{Euclidean, InstanceGenerator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let instance = Euclidean::new(6, 24)?.generate(3)?;
//! let outcome = MetricBall::new(MetricBallParams::with_phases(4)).run(&instance, 7)?;
//! outcome.solution.check_feasible(&instance)?;
//! assert_eq!(outcome.transcript.unwrap().num_rounds(), 3 * 4 + 3);
//! # Ok(())
//! # }
//! ```

pub mod node;

use distfl_congest::{CongestConfig, NodeRng, SimConfig};
use distfl_instance::{FacilityId, Instance, Solution};

use crate::error::CoreError;
use crate::model::{execute, facility_node, node_role, topology_of, Executor, Role};
use crate::mp;
use crate::paydual::SimulatedRun;
use crate::runner::{FlAlgorithm, Outcome};

pub use node::{MetricBallMsg, MetricBallNode, MAX_MESSAGE_BITS};

use node::{better_bid, build_nodes, first_phase, radius_schedule};

/// Tuning parameters for [`MetricBall`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricBallParams {
    /// Number of ball-growing phases `s ≥ 1`. More phases → a finer
    /// radius ladder → tighter charging (and `3s + 3` rounds).
    pub phases: u32,
    /// Worker threads for the engine (`None` = serial; results are
    /// identical).
    pub threads: Option<usize>,
}

impl MetricBallParams {
    /// Parameters with the given phase count and serial execution.
    pub fn with_phases(phases: u32) -> Self {
        MetricBallParams { phases, threads: None }
    }
}

impl Default for MetricBallParams {
    /// Six phases — one radius rung per factor-≈2 of spread on typical
    /// instances.
    fn default() -> Self {
        MetricBallParams::with_phases(6)
    }
}

/// The distributed ball-growing algorithm (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MetricBall {
    params: MetricBallParams,
}

impl MetricBall {
    /// Creates the algorithm with explicit parameters.
    pub fn new(params: MetricBallParams) -> Self {
        MetricBall { params }
    }

    /// The configured parameters.
    pub fn params(&self) -> MetricBallParams {
        self.params
    }

    /// Runs the protocol on the discrete-event simulator: same node logic,
    /// same transcript (bit-identical in a loss-free configuration,
    /// whatever the latency model) as [`FlAlgorithm::run`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`FlAlgorithm::run`]; additionally fails with
    /// [`distfl_congest::CongestError::ProtocolIncomplete`] when a crash
    /// schedule kills a client before the coverage round.
    pub fn run_simulated(
        &self,
        instance: &Instance,
        seed: u64,
        sim: SimConfig,
    ) -> Result<SimulatedRun, CoreError> {
        let _span = distfl_obs::span_arg("solver", "metricball.sim", u64::from(self.params.phases));
        self.run_on(instance, seed, Executor::Simulated(sim))
    }

    /// The one body behind [`FlAlgorithm::run`] and
    /// [`MetricBall::run_simulated`]: runs the protocol on `executor` and
    /// harvests the solution.
    pub(crate) fn run_on(
        &self,
        instance: &Instance,
        seed: u64,
        executor: Executor,
    ) -> Result<SimulatedRun, CoreError> {
        check_phases(self.params.phases)?;
        let topology = topology_of(instance)?;
        let nodes = build_nodes(instance, self.params.phases);
        let rounds = crate::theory::metricball_rounds(self.params.phases);
        let run = execute(topology, nodes, seed, executor, rounds, |nodes| {
            Ok((harvest(instance, nodes)?, None))
        })?;
        Ok(SimulatedRun::new(run))
    }
}

fn check_phases(phases: u32) -> Result<(), CoreError> {
    if phases == 0 {
        Err(CoreError::InvalidParams { reason: "metricball needs at least one phase".to_owned() })
    } else {
        Ok(())
    }
}

/// Extracts the solution from final node states.
fn harvest(instance: &Instance, nodes: &[MetricBallNode]) -> Result<Solution, CoreError> {
    let m = instance.num_facilities();
    let mut assignment = vec![FacilityId::new(0); instance.num_clients()];
    for (index, node) in nodes.iter().enumerate() {
        match (node_role(m, distfl_congest::NodeId::new(index as u32)), node) {
            (Role::Client(j), MetricBallNode::Client(c)) => {
                let facility = c.connected_facility().ok_or(CoreError::Congest(
                    distfl_congest::CongestError::ProtocolIncomplete {
                        what: "client holds no connection after the coverage round",
                    },
                ))?;
                assignment[j.index()] = facility;
            }
            (Role::Facility(_), MetricBallNode::Facility(_)) => {}
            _ => unreachable!("node role/state mismatch"),
        }
    }
    Ok(Solution::from_assignment(instance, assignment)?)
}

impl FlAlgorithm for MetricBall {
    fn name(&self) -> String {
        format!("metricball(s={})", self.params.phases)
    }

    fn run(&self, instance: &Instance, seed: u64) -> Result<Outcome, CoreError> {
        let _span = distfl_obs::span_arg("solver", "metricball", u64::from(self.params.phases));
        let config = CongestConfig { threads: self.params.threads, ..CongestConfig::default() };
        Ok(self.run_on(instance, seed, Executor::LockStep(config))?.outcome)
    }
}

/// The retained naive reference: replays the protocol phase-for-phase as
/// straight sequential loops — including each bidder's priority draw, via
/// the engine's own `(seed, node, round)` RNG derivation — and must agree
/// **bitwise** with the distributed run (the PR-2 treatment; proptested in
/// `portfolio_equivalence.rs`).
///
/// # Errors
///
/// Returns [`CoreError::InvalidParams`] when `phases == 0`.
pub fn solve_reference(instance: &Instance, phases: u32, seed: u64) -> Result<Solution, CoreError> {
    check_phases(phases)?;
    let m = instance.num_facilities();
    let n = instance.num_clients();
    let r_lo = distfl_instance::spread::positive_floor(instance).value();
    let r_cap = 2.0 * distfl_instance::spread::max_coefficient(instance).value();
    let schedule = radius_schedule(r_lo, r_cap, phases);
    let first: Vec<u32> =
        instance.facilities().map(|i| first_phase(mp::radius(instance, i), &schedule)).collect();

    let mut open = vec![false; m];
    let mut best_open_cost = vec![f64::INFINITY; n];
    for p in 0..phases {
        let radius = schedule[p as usize];
        let block = 2.0 * radius;
        // The phase's bidders and their priorities — the first (and only)
        // draw of each bidder's bid-round RNG stream, exactly what the
        // engine hands the facility node in round `3p`.
        let prio: Vec<Option<f64>> = (0..m)
            .map(|i| {
                (!open[i] && first[i] <= p).then(|| {
                    let node = facility_node(FacilityId::new(i as u32));
                    NodeRng::derive(seed, node.raw(), 3 * p).next_f64()
                })
            })
            .collect();
        // Each client's elected ball winner (highest priority, ties to
        // the lower node id), skipping blocked and out-of-ball bidders.
        let mut elected: Vec<Option<(f64, distfl_congest::NodeId)>> = vec![None; n];
        for (i, pr) in prio.iter().enumerate() {
            let Some(pr) = *pr else { continue };
            let node = facility_node(FacilityId::new(i as u32));
            for (j, c) in instance.facility_links(FacilityId::new(i as u32)).iter() {
                let j = j as usize;
                if best_open_cost[j] + c <= block || c > radius {
                    continue;
                }
                if better_bid(pr, node, elected[j]) {
                    elected[j] = Some((pr, node));
                }
            }
        }
        // A bidder opens iff no linked client denies it.
        let mut newly = Vec::new();
        for (i, pr) in prio.iter().enumerate() {
            if pr.is_none() {
                continue;
            }
            let node = facility_node(FacilityId::new(i as u32));
            let denied = instance.facility_links(FacilityId::new(i as u32)).iter().any(|(j, c)| {
                let j = j as usize;
                let blocked = best_open_cost[j] + c <= block;
                let in_ball = c <= radius;
                let is_elected = elected[j].is_some_and(|(_, id)| id == node);
                blocked || (in_ball && !is_elected)
            });
            if !denied {
                newly.push(i);
            }
        }
        // Open announcements only land *after* every deny decision of the
        // phase (message timing), so the open set updates last.
        for i in newly {
            open[i] = true;
            for (j, c) in instance.facility_links(FacilityId::new(i as u32)).iter() {
                let j = j as usize;
                if c < best_open_cost[j] {
                    best_open_cost[j] = c;
                }
            }
        }
    }
    // Coverage tail: every unreached client demands its cheapest link (all
    // demands are simultaneous — decided against the pre-demand open set).
    let mut demanded = Vec::new();
    for j in instance.clients() {
        if best_open_cost[j.index()].is_finite() {
            continue;
        }
        let links = instance.client_links(j);
        let mut best = 0;
        for (idx, &c) in links.costs.iter().enumerate().skip(1) {
            if c < links.costs[best] {
                best = idx;
            }
        }
        demanded.push(links.ids[best] as usize);
    }
    for i in demanded {
        open[i] = true;
    }
    // Final connect: cheapest open link, ties to the lowest id.
    let mut assignment = Vec::with_capacity(n);
    for j in instance.clients() {
        let links = instance.client_links(j);
        let mut best: Option<usize> = None;
        for (idx, (&id, &c)) in links.ids.iter().zip(links.costs.iter()).enumerate() {
            if open[id as usize] && best.is_none_or(|b| c < links.costs[b]) {
                best = Some(idx);
            }
        }
        let best = best.expect("the coverage tail opens a link for every client");
        assignment.push(FacilityId::new(links.ids[best]));
    }
    Ok(Solution::from_assignment(instance, assignment)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use distfl_instance::generators::{
        Clustered, Euclidean, GridNetwork, InstanceGenerator, Metricized, UniformRandom,
    };
    use distfl_lp::exact;

    fn run(instance: &Instance, phases: u32) -> Outcome {
        MetricBall::new(MetricBallParams::with_phases(phases)).run(instance, 7).unwrap()
    }

    #[test]
    fn terminates_and_is_feasible_across_families() {
        let instances: Vec<Instance> = vec![
            Euclidean::new(5, 15).unwrap().generate(2).unwrap(),
            Clustered::new(3, 6, 18).unwrap().generate(3).unwrap(),
            GridNetwork::new(8, 8, 5, 20).unwrap().generate(4).unwrap(),
            // Feasibility must hold on non-metric inputs too (only the
            // factor guarantee needs metricity).
            UniformRandom::new(6, 20).unwrap().generate(1).unwrap(),
        ];
        for (idx, inst) in instances.iter().enumerate() {
            for phases in [1, 4, 10] {
                let out = run(inst, phases);
                out.solution
                    .check_feasible(inst)
                    .unwrap_or_else(|e| panic!("instance {idx} phases {phases}: infeasible: {e}"));
            }
        }
    }

    #[test]
    fn round_count_is_input_independent() {
        let small = Euclidean::new(4, 10).unwrap().generate(0).unwrap();
        let large = Euclidean::new(12, 200).unwrap().generate(0).unwrap();
        let phases = 5;
        let a = run(&small, phases).transcript.unwrap().num_rounds();
        let b = run(&large, phases).transcript.unwrap().num_rounds();
        assert_eq!(a, b);
        assert_eq!(a, crate::theory::metricball_rounds(phases));
    }

    #[test]
    fn congest_discipline_holds() {
        let inst = Euclidean::new(8, 40).unwrap().generate(3).unwrap();
        let out = run(&inst, 6);
        let t = out.transcript.unwrap();
        assert!(t.congest_compliant(MAX_MESSAGE_BITS));
    }

    #[test]
    fn reference_matches_the_distributed_run() {
        for seed in 0..8 {
            let inst = Euclidean::new(6, 25).unwrap().generate(seed).unwrap();
            for phases in [1, 3, 8] {
                let distributed = MetricBall::new(MetricBallParams::with_phases(phases))
                    .run(&inst, seed)
                    .unwrap();
                let reference = solve_reference(&inst, phases, seed).unwrap();
                assert_eq!(
                    distributed.solution, reference,
                    "seed {seed} phases {phases}: reference diverged"
                );
            }
        }
    }

    #[test]
    fn ratio_is_moderate_on_metric_instances() {
        for seed in 0..5 {
            let inst = Euclidean::new(8, 30).unwrap().generate(seed).unwrap();
            let out = run(&inst, 8);
            let opt = exact::solve(&inst).unwrap().cost.value();
            let ratio = out.solution.cost(&inst).value() / opt;
            assert!(ratio < 5.0, "seed {seed}: ratio {ratio} unexpectedly large");
        }
    }

    #[test]
    fn metric_closures_are_solved_well_too() {
        let inst = Metricized::new(UniformRandom::new(6, 24).unwrap()).generate(11).unwrap();
        let out = run(&inst, 8);
        out.solution.check_feasible(&inst).unwrap();
        let opt = exact::solve(&inst).unwrap().cost.value();
        let ratio = out.solution.cost(&inst).value() / opt;
        assert!(ratio < 6.0, "ratio {ratio} unexpectedly large");
    }

    #[test]
    fn deterministic_given_seed() {
        let inst = Clustered::new(3, 8, 30).unwrap().generate(6).unwrap();
        let algo = MetricBall::new(MetricBallParams::with_phases(6));
        let a = algo.run(&inst, 5).unwrap();
        let b = algo.run(&inst, 5).unwrap();
        assert_eq!(a.solution, b.solution);
        assert_eq!(a.transcript, b.transcript);
    }

    #[test]
    fn parallel_execution_matches_serial() {
        let inst = Euclidean::new(10, 60).unwrap().generate(8).unwrap();
        let serial = MetricBall::new(MetricBallParams::with_phases(6)).run(&inst, 3).unwrap();
        let parallel = MetricBall::new(MetricBallParams {
            threads: Some(4),
            ..MetricBallParams::with_phases(6)
        })
        .run(&inst, 3)
        .unwrap();
        assert_eq!(serial.solution, parallel.solution);
        assert_eq!(serial.transcript, parallel.transcript);
    }

    #[test]
    fn simulated_run_matches_the_lockstep_engine() {
        use distfl_congest::LatencyModel;
        let inst = Euclidean::new(8, 30).unwrap().generate(5).unwrap();
        let algo = MetricBall::new(MetricBallParams::with_phases(6));
        let lockstep = algo.run(&inst, 9).unwrap();
        for latency in [
            LatencyModel::Constant(25_000),
            LatencyModel::Uniform { lo: 100, hi: 800_000 },
            LatencyModel::LogNormal { median_nanos: 40_000.0, sigma: 1.2 },
        ] {
            let config = SimConfig { latency, latency_seed: 17, ..SimConfig::default() };
            let simulated = algo.run_simulated(&inst, 9, config).unwrap();
            assert_eq!(lockstep.solution, simulated.outcome.solution, "{latency:?}");
            assert_eq!(lockstep.transcript, simulated.outcome.transcript, "{latency:?}");
            assert!(simulated.verdicts.iter().all(|v| !v.is_faulty()), "{latency:?}");
        }
    }

    #[test]
    fn zero_phases_is_rejected() {
        let inst = Euclidean::new(2, 2).unwrap().generate(0).unwrap();
        let err = MetricBall::new(MetricBallParams::with_phases(0)).run(&inst, 0).unwrap_err();
        assert!(matches!(err, CoreError::InvalidParams { .. }));
        assert!(matches!(
            solve_reference(&inst, 0, 0).unwrap_err(),
            CoreError::InvalidParams { .. }
        ));
    }

    #[test]
    fn name_includes_parameters() {
        assert_eq!(MetricBall::new(MetricBallParams::with_phases(6)).name(), "metricball(s=6)");
    }
}
