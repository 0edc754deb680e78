//! **Outliers** — the robust metric UFL variant: drop a budgeted fraction
//! of the most expensive clients, solve the core with
//! [`crate::metricball`], then reattach.
//!
//! In robust facility location (the Inamdar–Pai–Pemmaraju framing) a few
//! far-away clients can dominate the whole objective and drag facilities
//! toward them; the robust objective is allowed to ignore up to a
//! `drop_fraction` of clients. This reconstruction uses the simplest
//! deterministic budget rule: rank clients by their *cheapest* connection
//! cost (how expensive they are to serve at all), drop the top
//! `⌊fraction·n⌋` (never all of them), run the MetricBall protocol on the
//! surviving core, and reattach the dropped clients afterwards — each to
//! its cheapest *core-open* linked facility, or, when no linked facility
//! opened, to its cheapest link (which then opens). The returned
//! [`Solution`] therefore stays feasible for the **full** instance; use
//! [`robust_cost`] for the objective that ignores the dropped clients'
//! connection costs.
//!
//! The outlier selection and the reattachment are shared, deterministic
//! sequential code; the fast/reference split is the core solve — the
//! distributed protocol vs [`crate::metricball::solve_reference`] — so
//! [`Outliers::run`] is proptested **bitwise equal** to
//! [`solve_reference`] (the PR-2 treatment; `portfolio_equivalence.rs`).
//!
//! ```
//! use distfl_core::outliers::{Outliers, OutliersParams};
//! use distfl_core::FlAlgorithm;
//! use distfl_instance::generators::{Euclidean, InstanceGenerator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let instance = Euclidean::new(6, 30)?.generate(4)?;
//! let algo = Outliers::new(OutliersParams::new(0.1, 4)?);
//! let outcome = algo.run(&instance, 7)?;
//! outcome.solution.check_feasible(&instance)?;
//! # Ok(())
//! # }
//! ```

use distfl_congest::{CongestConfig, SimConfig};
use distfl_instance::{ClientId, Cost, FacilityId, Instance, RowBuilder, Solution};

use crate::error::CoreError;
use crate::metricball::{self, MetricBall, MetricBallParams};
use crate::model::Executor;
use crate::paydual::SimulatedRun;
use crate::runner::{FlAlgorithm, Outcome};

/// Tuning parameters for [`Outliers`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutliersParams {
    /// Fraction of clients the robust objective may drop, in `[0, 1)`.
    pub drop_fraction: f64,
    /// MetricBall phase count for the core solve.
    pub phases: u32,
}

impl OutliersParams {
    /// Validated parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParams`] unless
    /// `0 ≤ drop_fraction < 1` and `phases ≥ 1`.
    pub fn new(drop_fraction: f64, phases: u32) -> Result<Self, CoreError> {
        if !(0.0..1.0).contains(&drop_fraction) {
            return Err(CoreError::InvalidParams {
                reason: format!("drop fraction must be in [0, 1), got {drop_fraction}"),
            });
        }
        if phases == 0 {
            return Err(CoreError::InvalidParams {
                reason: "outliers needs at least one phase".to_owned(),
            });
        }
        Ok(OutliersParams { drop_fraction, phases })
    }
}

impl Default for OutliersParams {
    /// Drop up to 10% of clients, six core phases.
    fn default() -> Self {
        OutliersParams { drop_fraction: 0.1, phases: 6 }
    }
}

/// The robust/outliers algorithm (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Outliers {
    params: OutliersParams,
}

impl Outliers {
    /// Creates the algorithm with explicit parameters.
    pub fn new(params: OutliersParams) -> Self {
        Outliers { params }
    }

    /// The configured parameters.
    pub fn params(&self) -> OutliersParams {
        self.params
    }

    /// Runs the core solve on the simulator, which times the lock-step run
    /// (same selection and reattachment around it).
    ///
    /// # Errors
    ///
    /// Same conditions as [`FlAlgorithm::run`] plus the simulator's.
    pub fn run_simulated(
        &self,
        instance: &Instance,
        seed: u64,
        sim: SimConfig,
    ) -> Result<SimulatedRun, CoreError> {
        let _span = distfl_obs::span_arg("solver", "outliers.sim", u64::from(self.params.phases));
        self.run_on(instance, seed, Executor::Simulated(sim))
    }

    /// The one body behind [`FlAlgorithm::run`] and
    /// [`Outliers::run_simulated`]: selects the outliers, solves the core
    /// with MetricBall on `executor`, and reattaches.
    fn run_on(
        &self,
        instance: &Instance,
        seed: u64,
        executor: Executor,
    ) -> Result<SimulatedRun, CoreError> {
        OutliersParams::new(self.params.drop_fraction, self.params.phases)?;
        let dropped = select_outliers(instance, self.params.drop_fraction);
        let core = MetricBall::new(MetricBallParams::with_phases(self.params.phases));
        if dropped.is_empty() {
            return core.run_on(instance, seed, executor);
        }
        let (core_instance, survivors) = build_core(instance, &dropped)?;
        let mut run = core.run_on(&core_instance, seed, executor)?;
        run.outcome.solution = reattach(instance, &dropped, &survivors, &run.outcome.solution)?;
        Ok(run)
    }
}

impl FlAlgorithm for Outliers {
    fn name(&self) -> String {
        format!("outliers(s={},drop={})", self.params.phases, self.params.drop_fraction)
    }

    fn run(&self, instance: &Instance, seed: u64) -> Result<Outcome, CoreError> {
        let _span = distfl_obs::span_arg("solver", "outliers", u64::from(self.params.phases));
        Ok(self.run_on(instance, seed, Executor::LockStep(CongestConfig::default()))?.outcome)
    }
}

/// The retained naive reference: identical selection and reattachment, but
/// the core is solved by the sequential
/// [`crate::metricball::solve_reference`] — must agree **bitwise** with
/// [`Outliers::run`].
///
/// # Errors
///
/// Returns [`CoreError::InvalidParams`] on an invalid `params`.
pub fn solve_reference(
    instance: &Instance,
    params: OutliersParams,
    seed: u64,
) -> Result<Solution, CoreError> {
    OutliersParams::new(params.drop_fraction, params.phases)?;
    let dropped = select_outliers(instance, params.drop_fraction);
    if dropped.is_empty() {
        return metricball::solve_reference(instance, params.phases, seed);
    }
    let (core_instance, survivors) = build_core(instance, &dropped)?;
    let core_solution = metricball::solve_reference(&core_instance, params.phases, seed)?;
    reattach(instance, &dropped, &survivors, &core_solution)
}

/// The deterministic drop set: the `⌊fraction·n⌋` clients (never all `n`)
/// most expensive to serve at all, ranked by cheapest-link cost with ties
/// to the higher client id — a fixed total order, so the same instance
/// always drops the same clients. Returned in ascending id order.
pub fn select_outliers(instance: &Instance, drop_fraction: f64) -> Vec<ClientId> {
    let n = instance.num_clients();
    let budget = ((drop_fraction * n as f64).floor() as usize).min(n - 1);
    if budget == 0 {
        return Vec::new();
    }
    let mut order: Vec<(f64, u32)> =
        instance.clients().map(|j| (instance.cheapest_link(j).1.value(), j.raw())).collect();
    order.sort_by(|a, b| b.0.total_cmp(&a.0).then(b.1.cmp(&a.1)));
    let mut dropped: Vec<ClientId> =
        order[..budget].iter().map(|&(_, j)| ClientId::new(j)).collect();
    dropped.sort();
    dropped
}

/// The robust objective: opening costs of the open facilities plus the
/// connection costs of every client *not* in `dropped`.
pub fn robust_cost(instance: &Instance, solution: &Solution, dropped: &[ClientId]) -> f64 {
    let mut ignored = vec![false; instance.num_clients()];
    for &j in dropped {
        ignored[j.index()] = true;
    }
    let opening: f64 = solution.open_facilities().map(|i| instance.opening_cost(i).value()).sum();
    let connection: f64 = instance
        .clients()
        .filter(|j| !ignored[j.index()])
        .map(|j| {
            instance
                .connection_cost(j, solution.assigned(j))
                .expect("assignments use existing links")
                .value()
        })
        .sum();
    opening + connection
}

/// Builds the core instance: all facilities, surviving clients in original
/// id order, links copied. Returns it with the survivor id mapping.
///
/// Each surviving row is already ascending, so it goes straight into the
/// client-major lanes of a [`RowBuilder`], sized to the kept links.
fn build_core(
    instance: &Instance,
    dropped: &[ClientId],
) -> Result<(Instance, Vec<ClientId>), CoreError> {
    let mut is_dropped = vec![false; instance.num_clients()];
    for &j in dropped {
        is_dropped[j.index()] = true;
    }
    let opening = instance.facilities().map(|i| instance.opening_cost(i)).collect();
    let dropped_links: usize = dropped.iter().map(|&j| instance.client_links(j).len()).sum();
    let mut rows = RowBuilder::with_capacity(opening, instance.num_links() - dropped_links);
    let mut survivors = Vec::with_capacity(instance.num_clients() - dropped.len());
    for j in instance.clients() {
        if is_dropped[j.index()] {
            continue;
        }
        rows.add_client();
        for (i, cost) in instance.client_links(j).iter() {
            rows.link(FacilityId::new(i), Cost::from_validated(cost))?;
        }
        survivors.push(j);
    }
    Ok((rows.build()?, survivors))
}

/// Maps the core solution back to the full instance and reattaches the
/// dropped clients — each to its cheapest core-open linked facility (ties
/// to the lowest id), or to its cheapest link when none opened. All
/// reattachments are simultaneous: decided against the core open set, so
/// the result is independent of processing order.
fn reattach(
    instance: &Instance,
    dropped: &[ClientId],
    survivors: &[ClientId],
    core_solution: &Solution,
) -> Result<Solution, CoreError> {
    let mut assignment = vec![FacilityId::new(0); instance.num_clients()];
    for (k, &j) in survivors.iter().enumerate() {
        assignment[j.index()] = core_solution.assigned(ClientId::new(k as u32));
    }
    for &j in dropped {
        let links = instance.client_links(j);
        let mut open_best: Option<usize> = None;
        let mut any_best = 0;
        for (idx, (&id, &c)) in links.ids.iter().zip(links.costs.iter()).enumerate() {
            if c < links.costs[any_best] {
                any_best = idx;
            }
            if core_solution.is_open(FacilityId::new(id))
                && open_best.is_none_or(|b| c < links.costs[b])
            {
                open_best = Some(idx);
            }
        }
        assignment[j.index()] = FacilityId::new(links.ids[open_best.unwrap_or(any_best)]);
    }
    Ok(Solution::from_assignment(instance, assignment)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use distfl_instance::generators::{Clustered, Euclidean, InstanceGenerator, UniformRandom};

    fn algo(drop: f64, phases: u32) -> Outliers {
        Outliers::new(OutliersParams::new(drop, phases).unwrap())
    }

    #[test]
    fn zero_budget_delegates_to_metricball() {
        let inst = Euclidean::new(5, 9).unwrap().generate(2).unwrap();
        // 0.1 * 9 rounds down to zero dropped clients.
        let robust = algo(0.1, 4).run(&inst, 3).unwrap();
        let plain = MetricBall::new(MetricBallParams::with_phases(4)).run(&inst, 3).unwrap();
        assert_eq!(robust.solution, plain.solution);
        assert_eq!(robust.transcript, plain.transcript);
        assert!(select_outliers(&inst, 0.1).is_empty());
    }

    #[test]
    fn selection_is_the_most_expensive_clients() {
        let inst = Euclidean::new(5, 40).unwrap().generate(7).unwrap();
        let dropped = select_outliers(&inst, 0.2);
        assert_eq!(dropped.len(), 8);
        let cutoff =
            dropped.iter().map(|&j| inst.cheapest_link(j).1.value()).fold(f64::INFINITY, f64::min);
        for j in inst.clients() {
            if !dropped.contains(&j) {
                assert!(
                    inst.cheapest_link(j).1.value() <= cutoff,
                    "kept client {j} more expensive than a dropped one"
                );
            }
        }
        // Never drops everyone.
        let one = UniformRandom::new(3, 1).unwrap().generate(0).unwrap();
        assert!(select_outliers(&one, 0.99).is_empty());
    }

    #[test]
    fn full_solution_stays_feasible() {
        for seed in 0..5 {
            let inst = Clustered::new(3, 6, 25).unwrap().generate(seed).unwrap();
            let out = algo(0.2, 5).run(&inst, seed).unwrap();
            out.solution.check_feasible(&inst).unwrap();
        }
    }

    #[test]
    fn reference_matches_the_distributed_run() {
        for seed in 0..8 {
            let inst = Euclidean::new(6, 30).unwrap().generate(seed).unwrap();
            let params = OutliersParams::new(0.15, 4).unwrap();
            let fast = Outliers::new(params).run(&inst, seed).unwrap();
            let reference = solve_reference(&inst, params, seed).unwrap();
            assert_eq!(fast.solution, reference, "seed {seed}: reference diverged");
        }
    }

    #[test]
    fn robust_cost_never_exceeds_full_cost() {
        let inst = Euclidean::new(6, 30).unwrap().generate(1).unwrap();
        let out = algo(0.2, 5).run(&inst, 1).unwrap();
        let dropped = select_outliers(&inst, 0.2);
        let robust = robust_cost(&inst, &out.solution, &dropped);
        let full = out.solution.cost(&inst).value();
        assert!(robust <= full, "robust {robust} > full {full}");
        assert_eq!(robust_cost(&inst, &out.solution, &[]), full);
    }

    #[test]
    fn dropping_outliers_cannot_hurt_the_robust_objective_much() {
        // A clustered instance with the far-flung tail dropped should have
        // a robust cost no worse than serving everyone with MetricBall.
        let inst = Clustered::new(3, 6, 40).unwrap().generate(9).unwrap();
        let dropped = select_outliers(&inst, 0.15);
        let robust = algo(0.15, 6).run(&inst, 2).unwrap();
        let plain = MetricBall::new(MetricBallParams::with_phases(6)).run(&inst, 2).unwrap();
        let robust_obj = robust_cost(&inst, &robust.solution, &dropped);
        let plain_obj = robust_cost(&inst, &plain.solution, &dropped);
        assert!(
            robust_obj <= plain_obj * 1.5 + 1e-9,
            "robust {robust_obj} much worse than plain {plain_obj}"
        );
    }

    #[test]
    fn invalid_params_are_rejected() {
        assert!(OutliersParams::new(1.0, 4).is_err());
        assert!(OutliersParams::new(-0.1, 4).is_err());
        assert!(OutliersParams::new(0.5, 0).is_err());
        assert!(OutliersParams::new(0.0, 1).is_ok());
    }

    #[test]
    fn name_includes_parameters() {
        assert_eq!(algo(0.25, 6).name(), "outliers(s=6,drop=0.25)");
    }

    #[test]
    fn simulated_run_matches_the_lockstep_engine() {
        let inst = Euclidean::new(7, 30).unwrap().generate(3).unwrap();
        let a = algo(0.2, 5);
        let lockstep = a.run(&inst, 11).unwrap();
        let sim = a.run_simulated(&inst, 11, SimConfig::default()).unwrap();
        assert_eq!(lockstep.solution, sim.outcome.solution);
        assert_eq!(lockstep.transcript, sim.outcome.transcript);
    }
}
