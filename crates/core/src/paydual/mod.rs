//! **PayDual** — the reconstructed Moscibroda–Wattenhofer distributed
//! dual-ascent algorithm.
//!
//! # Protocol
//!
//! One CONGEST node per facility and per client, communicating over the
//! instance's links. Parameterized by the number of *phases* `s` (the
//! paper's round knob `k`); total rounds are `3(s+1) + 2` regardless of the
//! input, so the algorithm is *local* in the paper's sense.
//!
//! * **Bootstrap (round 0).** Every facility announces its opening cost to
//!   its neighbors.
//! * **Client initialization (round 1).** Client `j` computes its
//!   *self-pay target* `t_j = min_i (c_ij + f_i)` — the dual value at which
//!   it can open a facility single-handedly — its starting dual
//!   `α_j = min_i c_ij` (floored at `t_j / N` when zero-cost links exist,
//!   `N` the known network-size bound), and its per-phase raise factor
//!   `γ_j = (2·t_j / α_j)^{1/s}`. Then each phase runs three rounds:
//!   1. **Offer** — active clients send `α_j` to all linked facilities.
//!   2. **Open** — facility `i` computes
//!      `pay_i = frozen_i + Σ_offers max(0, α_j − c_ij)`; once
//!      `pay_i ≥ f_i` it (permanently) opens and announces `OPEN`.
//!   3. **Connect** — an active client hearing an open facility with
//!      `α_j ≥ c_ij` connects to the one with maximum slack `α_j − c_ij`
//!      (ties to the lowest id), freezing its contribution there; otherwise
//!      it raises `α_j ← γ_j·α_j` (capped at `2·t_j`).
//! * **Harvest.** Facilities that attracted no connections close; every
//!   client keeps the facility it connected to.
//!
//! # Guarantees (see also [`crate::theory`])
//!
//! *Termination.* After `s` raises `α_j = 2t_j ≥ t_j`, so the offer pays
//! the argmin facility of `t_j` fully; it opens and `j` connects. Hence
//! every client is connected within `s+1` offer phases — `O(s)` rounds
//! total, **independent of the input size**.
//!
//! *Cost (dual fitting).* Every client's connection cost is at most its
//! final `α_j` (it connects only with non-negative slack), and every kept
//! facility is fully paid by frozen contributions of distinct clients, so
//! `cost ≤ Σ_j α_j · (1 + overpay)` where the overpay factor collects (a)
//! the geometric overshoot — at most `γ = B^{1/s}` past the exact event
//! point, the paper's `(mρ)^{1/√k}` knob — and (b) simultaneous parallel
//! openings, the greedy-style `O(log(m+n))` term. Scaling the final duals
//! by the measured [`distfl_lp::DualSolution::feasibility_factor`] yields
//! the certified lower bound the experiments divide by, so all reported
//! ratios are sound regardless of the reconstruction's constants.

pub mod node;

use distfl_congest::{CongestConfig, FaultVerdict, SimConfig, SimReport};
use distfl_instance::{FacilityId, Instance, Solution};
use distfl_lp::DualSolution;

use crate::error::CoreError;
use crate::model::{execute, node_role, topology_of, Execution, Executor, Role};
use crate::runner::{FlAlgorithm, Outcome};

pub use node::{PayDualMsg, PayDualNode};

use node::build_nodes;

/// How a client chooses among eligible open facilities in a connect round
/// (an ablated design choice; see experiment E8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConnectRule {
    /// Connect to the facility with maximum slack `α_j − c_ij` — the
    /// facility this client is paying the most (the default; keeps the
    /// dual-fitting accounting tight).
    #[default]
    MaxSlack,
    /// Connect to the cheapest eligible facility — myopic cost-greedy.
    CheapestEligible,
}

/// Tuning parameters for [`PayDual`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PayDualParams {
    /// Number of dual-raising phases `s ≥ 1`. More phases → more rounds →
    /// smaller per-phase factor `γ = B^{1/s}` → better approximation.
    pub phases: u32,
    /// Worker threads for the simulator (`None` = serial; results are
    /// identical).
    pub threads: Option<usize>,
    /// Optional deterministic message-drop plan. The algorithm's
    /// guarantees assume a fault-free network; with faults the output is
    /// still feasible (clients recover locally) but quality degrades.
    pub fault: Option<distfl_congest::FaultPlan>,
    /// Connect-round tie-breaking rule (ablation knob).
    pub connect_rule: ConnectRule,
    /// Whether to apply the final local polish (each client re-connects to
    /// its cheapest kept-open facility; never increases cost). Ablation
    /// knob; on by default.
    pub polish: bool,
}

impl PayDualParams {
    /// Parameters with the given phase count and serial execution.
    pub fn with_phases(phases: u32) -> Self {
        PayDualParams {
            phases,
            threads: None,
            fault: None,
            connect_rule: ConnectRule::default(),
            polish: true,
        }
    }
}

impl Default for PayDualParams {
    /// Eight phases — a mid-range point of the trade-off.
    fn default() -> Self {
        PayDualParams::with_phases(8)
    }
}

/// The distributed dual-ascent algorithm (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PayDual {
    params: PayDualParams,
}

/// Result of [`PayDual::run_simulated`]: the usual [`Outcome`] plus the
/// discrete-event simulator's virtual-clock report and the
/// fault-attribution data the audit layer consumes.
#[derive(Debug, Clone)]
pub struct SimulatedRun {
    /// The algorithm outcome (solution, transcript, dual certificate).
    pub outcome: Outcome,
    /// Virtual-time measurements of the simulated execution.
    pub report: SimReport,
    /// Per-node fault verdicts from the run's global observations
    /// (send-side counters plus the crash schedule).
    pub verdicts: Vec<FaultVerdict>,
    /// Per-node *locally observed* accusations, encoded for the `Max`
    /// convergecast of [`crate::audit::distributed_fault_audit`].
    pub accusations: Vec<f64>,
}

impl SimulatedRun {
    /// Packs an execution whose harvest is a solution and, optionally, its
    /// dual certificate.
    pub(crate) fn new(run: Execution<(Solution, Option<DualSolution>)>) -> Self {
        let (solution, dual) = run.harvest;
        SimulatedRun {
            outcome: Outcome {
                solution,
                transcript: Some(run.transcript),
                dual,
                modeled_rounds: None,
            },
            report: run.report,
            verdicts: run.verdicts,
            accusations: run.accusations,
        }
    }
}

impl PayDual {
    /// Creates the algorithm with explicit parameters.
    pub fn new(params: PayDualParams) -> Self {
        PayDual { params }
    }

    /// The configured parameters.
    pub fn params(&self) -> PayDualParams {
        self.params
    }

    /// Runs the algorithm on the discrete-event simulator instead of the
    /// lock-step engine: same protocol, same transcript (bit-identical in
    /// a loss-free configuration, whatever the latency model), but over
    /// asynchronous links with per-edge latency, bandwidth, partitions,
    /// lossy nodes, and crash schedules from `sim`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FlAlgorithm::run`]; additionally fails with
    /// [`distfl_congest::CongestError::ProtocolIncomplete`] when a crash
    /// schedule kills a client before it learns any facility to fall back
    /// to.
    pub fn run_simulated(
        &self,
        instance: &Instance,
        seed: u64,
        sim: SimConfig,
    ) -> Result<SimulatedRun, CoreError> {
        let _span = distfl_obs::span_arg("solver", "paydual.sim", u64::from(self.params.phases));
        self.run_on(instance, seed, Executor::Simulated(sim))
    }

    /// The one body behind [`FlAlgorithm::run`] and
    /// [`PayDual::run_simulated`]: runs the protocol on `executor` and
    /// harvests the solution and dual certificate.
    fn run_on(
        &self,
        instance: &Instance,
        seed: u64,
        executor: Executor,
    ) -> Result<SimulatedRun, CoreError> {
        if self.params.phases == 0 {
            return Err(CoreError::InvalidParams {
                reason: "paydual needs at least one phase".to_owned(),
            });
        }
        let topology = topology_of(instance)?;
        let nodes = build_nodes(instance, self.params.phases, self.params.connect_rule);
        let rounds = crate::theory::paydual_rounds(self.params.phases);
        let polish = self.params.polish;
        let run = execute(topology, nodes, seed, executor, rounds, |nodes| {
            harvest(instance, nodes, polish).map(|(solution, dual)| (solution, Some(dual)))
        })?;
        Ok(SimulatedRun::new(run))
    }
}

/// Extracts the distributed solution and dual certificate from final node
/// states.
fn harvest(
    instance: &Instance,
    nodes: &[PayDualNode],
    polish: bool,
) -> Result<(Solution, DualSolution), CoreError> {
    let m = instance.num_facilities();
    let mut assignment = vec![FacilityId::new(0); instance.num_clients()];
    let mut alpha = vec![0.0f64; instance.num_clients()];
    for (index, node) in nodes.iter().enumerate() {
        match (node_role(m, distfl_congest::NodeId::new(index as u32)), node) {
            (Role::Client(j), PayDualNode::Client(c)) => {
                // In the fault-free model every client is connected; under
                // fault injection recover via the local fallback. Only a
                // client crashed before bootstrap has neither.
                let facility = c.connected_facility().or_else(|| c.fallback_facility()).ok_or(
                    CoreError::Congest(distfl_congest::CongestError::ProtocolIncomplete {
                        what: "client holds neither a connection nor a fallback facility",
                    }),
                )?;
                assignment[j.index()] = facility;
                alpha[j.index()] = c.alpha();
            }
            (Role::Facility(_), PayDualNode::Facility(_)) => {}
            _ => unreachable!("node role/state mismatch"),
        }
    }
    let solution = Solution::from_assignment(instance, assignment)?;
    // Final local polish (free in the model: one more exchange of the
    // already-broadcast OPEN sets): connect each client to its cheapest
    // kept-open facility.
    let solution = if polish { solution.reassign_greedily(instance) } else { solution };
    Ok((solution, DualSolution::new(alpha)))
}

impl FlAlgorithm for PayDual {
    fn name(&self) -> String {
        format!("paydual(s={})", self.params.phases)
    }

    fn run(&self, instance: &Instance, seed: u64) -> Result<Outcome, CoreError> {
        let _span = distfl_obs::span_arg("solver", "paydual", u64::from(self.params.phases));
        let config = CongestConfig {
            threads: self.params.threads,
            fault: self.params.fault,
            ..CongestConfig::default()
        };
        Ok(self.run_on(instance, seed, Executor::LockStep(config))?.outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distfl_instance::generators::{
        AdversarialGreedy, Clustered, Euclidean, GridNetwork, InstanceGenerator, PowerLaw,
        UniformRandom,
    };
    use distfl_instance::{Cost, InstanceBuilder};
    use distfl_lp::{bounds, exact};

    fn run(instance: &Instance, phases: u32) -> Outcome {
        PayDual::new(PayDualParams::with_phases(phases)).run(instance, 7).unwrap()
    }

    #[test]
    fn terminates_and_is_feasible_across_families() {
        let instances: Vec<Instance> = vec![
            UniformRandom::new(6, 20).unwrap().generate(1).unwrap(),
            Euclidean::new(5, 15).unwrap().generate(2).unwrap(),
            Clustered::new(3, 6, 18).unwrap().generate(3).unwrap(),
            GridNetwork::new(8, 8, 5, 20).unwrap().generate(4).unwrap(),
            PowerLaw::new(5, 15, 1e4).unwrap().generate(5).unwrap(),
            AdversarialGreedy::new(12).unwrap().generate(0).unwrap(),
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
        let small = UniformRandom::new(4, 10).unwrap().generate(0).unwrap();
        let large = UniformRandom::new(12, 200).unwrap().generate(0).unwrap();
        let phases = 5;
        let a = run(&small, phases).transcript.unwrap().num_rounds();
        let b = run(&large, phases).transcript.unwrap().num_rounds();
        assert_eq!(a, b);
        assert_eq!(a, crate::theory::paydual_rounds(phases));
    }

    #[test]
    fn congest_discipline_holds() {
        let inst = UniformRandom::new(8, 40).unwrap().generate(3).unwrap();
        let out = run(&inst, 6);
        let t = out.transcript.unwrap();
        assert!(t.congest_compliant(node::MAX_MESSAGE_BITS));
    }

    #[test]
    fn single_client_opens_cheapest_bundle() {
        // One client, two facilities: (f=10, c=1) vs (f=2, c=5).
        // Self-pay targets: 11 vs 7 -> the dual sweep should open the
        // second (cheaper bundle) facility.
        let mut b = InstanceBuilder::new();
        let f0 = b.add_facility(Cost::new(10.0).unwrap());
        let f1 = b.add_facility(Cost::new(2.0).unwrap());
        let c = b.add_client();
        b.link(c, f0, Cost::new(1.0).unwrap()).unwrap();
        b.link(c, f1, Cost::new(5.0).unwrap()).unwrap();
        let inst = b.build().unwrap();
        let out = run(&inst, 12);
        assert!(out.solution.is_open(f1), "expected cheaper bundle facility");
        assert!(!out.solution.is_open(f0));
    }

    #[test]
    fn free_facility_is_used_immediately() {
        let mut b = InstanceBuilder::new();
        let free = b.add_facility(Cost::ZERO);
        let paid = b.add_facility(Cost::new(100.0).unwrap());
        for _ in 0..5 {
            let j = b.add_client();
            b.link(j, free, Cost::new(1.0).unwrap()).unwrap();
            b.link(j, paid, Cost::new(1.0).unwrap()).unwrap();
        }
        let inst = b.build().unwrap();
        let out = run(&inst, 3);
        assert!(out.solution.is_open(free));
        assert!(!out.solution.is_open(paid));
        assert_eq!(out.solution.cost(&inst).value(), 5.0);
    }

    #[test]
    fn zero_cost_links_are_handled() {
        // Clients at cost 0 of a facility with positive opening cost.
        let mut b = InstanceBuilder::new();
        let f = b.add_facility(Cost::new(6.0).unwrap());
        for _ in 0..3 {
            let j = b.add_client();
            b.link(j, f, Cost::ZERO).unwrap();
        }
        let inst = b.build().unwrap();
        let out = run(&inst, 8);
        out.solution.check_feasible(&inst).unwrap();
        assert_eq!(out.solution.cost(&inst).value(), 6.0);
    }

    #[test]
    fn more_phases_do_not_hurt_much_and_eventually_help() {
        // On the adversarial-for-greedy family the coarse single-phase run
        // overshoots; with many phases the ratio must come down to the
        // greedy regime or better.
        let inst = PowerLaw::new(12, 60, 1e5).unwrap().generate(9).unwrap();
        let opt = exact::solve(&inst).unwrap().cost.value();
        let coarse = run(&inst, 1).solution.cost(&inst).value() / opt;
        let fine = run(&inst, 24).solution.cost(&inst).value() / opt;
        assert!(fine <= coarse * 1.10 + 1e-9, "fine ({fine}) much worse than coarse ({coarse})");
    }

    #[test]
    fn ratio_is_moderate_with_enough_phases() {
        for seed in 0..5 {
            let inst = UniformRandom::new(8, 30).unwrap().generate(seed).unwrap();
            let out = run(&inst, 16);
            let opt = exact::solve(&inst).unwrap().cost.value();
            let ratio = out.solution.cost(&inst).value() / opt;
            assert!(ratio < 4.0, "seed {seed}: ratio {ratio} unexpectedly large");
        }
    }

    #[test]
    fn produced_dual_certifies_a_useful_lower_bound() {
        let inst = UniformRandom::new(7, 25).unwrap().generate(11).unwrap();
        let out = run(&inst, 10);
        let dual = out.dual.unwrap();
        let lb = dual.lower_bound(&inst, distfl_lp::TOLERANCE);
        let opt = exact::solve(&inst).unwrap().cost.value();
        assert!(lb <= opt + 1e-6, "dual LB {lb} must not exceed OPT {opt}");
        assert!(lb > bounds::trivial_lower_bound(&inst) * 0.2, "dual LB uselessly small");
    }

    #[test]
    fn deterministic_given_seed() {
        let inst = Clustered::new(3, 8, 30).unwrap().generate(6).unwrap();
        let algo = PayDual::new(PayDualParams::with_phases(6));
        let a = algo.run(&inst, 5).unwrap();
        let b = algo.run(&inst, 5).unwrap();
        assert_eq!(a.solution, b.solution);
        assert_eq!(a.transcript, b.transcript);
    }

    #[test]
    fn parallel_execution_matches_serial() {
        let inst = UniformRandom::new(10, 60).unwrap().generate(8).unwrap();
        let serial = PayDual::new(PayDualParams::with_phases(6)).run(&inst, 3).unwrap();
        let parallel =
            PayDual::new(PayDualParams { threads: Some(4), ..PayDualParams::with_phases(6) })
                .run(&inst, 3)
                .unwrap();
        assert_eq!(serial.solution, parallel.solution);
        assert_eq!(serial.transcript, parallel.transcript);
    }

    #[test]
    fn zero_phases_is_rejected() {
        let inst = UniformRandom::new(2, 2).unwrap().generate(0).unwrap();
        let err = PayDual::new(PayDualParams::with_phases(0)).run(&inst, 0).unwrap_err();
        assert!(matches!(err, CoreError::InvalidParams { .. }));
    }

    #[test]
    fn name_includes_parameters() {
        assert_eq!(PayDual::new(PayDualParams::with_phases(6)).name(), "paydual(s=6)");
    }

    #[test]
    fn simulated_run_matches_the_lockstep_engine() {
        use distfl_congest::LatencyModel;
        let inst = UniformRandom::new(8, 30).unwrap().generate(5).unwrap();
        let algo = PayDual::new(PayDualParams::with_phases(6));
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
            assert!(simulated.report.virtual_nanos > 0);
        }
    }

    #[test]
    fn simulated_run_with_losses_stays_feasible_and_attributes_them() {
        let inst = UniformRandom::new(6, 24).unwrap().generate(4).unwrap();
        let culprit = distfl_congest::NodeId::new(2); // a facility node
        let config = SimConfig { lossy_nodes: vec![(culprit, 0.7)], ..SimConfig::default() };
        let run =
            PayDual::new(PayDualParams::with_phases(10)).run_simulated(&inst, 3, config).unwrap();
        run.outcome.solution.check_feasible(&inst).unwrap();
        assert!(
            matches!(
                run.verdicts[culprit.index()],
                distfl_congest::FaultVerdict::DroppedAboveThreshold { .. }
            ),
            "got {:?}",
            run.verdicts[culprit.index()]
        );
    }

    #[test]
    fn client_crashed_before_bootstrap_is_a_clean_error() {
        let inst = UniformRandom::new(4, 8).unwrap().generate(2).unwrap();
        let first_client = distfl_congest::NodeId::new(inst.num_facilities() as u32);
        let config = SimConfig { crashes: vec![(first_client, 0)], ..SimConfig::default() };
        let err = PayDual::new(PayDualParams::with_phases(4))
            .run_simulated(&inst, 1, config)
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::Congest(distfl_congest::CongestError::ProtocolIncomplete { .. })
        ));
    }
}
