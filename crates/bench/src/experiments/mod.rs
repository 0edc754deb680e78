//! The experiment implementations (one module per claim; see crate docs).

pub mod e10_faults;
pub mod e1_tradeoff;
pub mod e2_locality;
pub mod e3_rho;
pub mod e4_comparison;
pub mod e5_rounding;
pub mod e6_congestion;
pub mod e7_bucket_ablation;
pub mod e8_paydual_ablation;
pub mod e9_benchmark;
pub mod figures;

use distfl_core::greedy::StarGreedy;
use distfl_core::FlAlgorithm;
use distfl_instance::Instance;
use distfl_lp::bounds;

/// The facility-count limit below which experiments use the exact optimum
/// as the ratio denominator.
pub const EXACT_LIMIT: usize = 22;

/// The best certified lower bound available for an experiment instance:
/// exact optimum for small facility counts, otherwise the better of the
/// trivial bound and the greedy run's dual-fitting certificate.
pub fn lower_bound_for(instance: &Instance) -> f64 {
    let greedy_dual = StarGreedy::new()
        .run(instance, 0)
        .expect("greedy cannot fail")
        .dual
        .expect("greedy emits a dual certificate");
    bounds::certified_lower_bound(instance, &[&greedy_dual], EXACT_LIMIT).value
}

/// One experiment: its module name (which is also its first table's id)
/// and its entry point, which takes the quick-mode flag.
pub type Experiment = (&'static str, fn(bool) -> Vec<crate::Table>);

/// Every experiment, in run (and hence table, CSV and figure) order.
pub const EXPERIMENTS: &[Experiment] = &[
    ("e1_tradeoff", e1_tradeoff::run),
    ("e2_locality", e2_locality::run),
    ("e3_rho", e3_rho::run),
    ("e4_comparison", e4_comparison::run),
    ("e5_rounding", e5_rounding::run),
    ("e6_congestion", e6_congestion::run),
    ("e7_bucket_ablation", e7_bucket_ablation::run),
    ("e8_paydual_ablation", e8_paydual_ablation::run),
    ("e9_benchmark", e9_benchmark::run),
    ("e10_faults", e10_faults::run),
];

/// The short id of an experiment name: everything before the first `_`
/// (`e10` for `e10_faults`).
fn short_id(name: &str) -> &str {
    name.split_once('_').map_or(name, |(id, _)| id)
}

/// The experiments `exp_all --only <id>` runs: those whose short id is
/// exactly `id`, so `e1` selects `e1_tradeoff` and never `e10_faults`.
///
/// # Errors
///
/// An id that selects nothing; the message lists the valid ids.
pub fn select(id: &str) -> Result<Vec<Experiment>, String> {
    let chosen: Vec<Experiment> =
        EXPERIMENTS.iter().copied().filter(|(name, _)| short_id(name) == id).collect();
    if chosen.is_empty() {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| short_id(name)).collect();
        return Err(format!("unknown experiment '{id}'; valid ids: {}", ids.join(", ")));
    }
    Ok(chosen)
}

/// Runs `experiments` and returns their tables in order.
///
/// The experiments are independent, so they fan out as tasks on the
/// shared [`crate::sweep_pool`]; results come back in index order, which
/// keeps the table sequence (and thus every CSV and figure) identical to
/// a serial run.
pub fn run(experiments: &[Experiment], quick: bool) -> Vec<crate::Table> {
    let pool = crate::sweep_pool();
    pool.map_indexed(experiments.len(), |i| {
        let (name, run) = experiments[i];
        let _span = distfl_obs::span("exp", name);
        run(quick)
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Runs every experiment (`exp_all` without `--only`).
pub fn run_all(quick: bool) -> Vec<crate::Table> {
    run(EXPERIMENTS, quick)
}

#[cfg(test)]
mod tests {
    use super::*;
    use distfl_instance::generators::{InstanceGenerator, UniformRandom};

    #[test]
    fn lower_bound_is_positive_and_conservative() {
        let inst = UniformRandom::new(6, 15).unwrap().generate(0).unwrap();
        let lb = lower_bound_for(&inst);
        let opt = distfl_lp::exact::solve(&inst).unwrap().cost.value();
        assert!(lb > 0.0);
        assert!((lb - opt).abs() < 1e-9, "small instances use the exact bound");
    }

    fn selected(id: &str) -> Result<Vec<&'static str>, String> {
        select(id).map(|exps| exps.into_iter().map(|(name, _)| name).collect())
    }

    #[test]
    fn only_selects_the_experiment_with_that_exact_id() {
        assert_eq!(selected("e1").unwrap(), ["e1_tradeoff"]);
        assert_eq!(selected("e10").unwrap(), ["e10_faults"]);
        for (name, _) in EXPERIMENTS {
            assert_eq!(selected(short_id(name)).unwrap(), [*name]);
        }
        let err = select("e11").unwrap_err();
        assert!(err.contains("'e11'"), "{err}");
        assert!(err.contains("e1, e2, e3, e4, e5, e6, e7, e8, e9, e10"), "{err}");
        assert!(select("e1_tradeoff").is_err(), "only the short id selects");
        assert!(select("").is_err());
    }

    #[test]
    fn lower_bound_falls_back_beyond_the_exact_limit() {
        let inst = UniformRandom::new(30, 40).unwrap().generate(0).unwrap();
        let lb = lower_bound_for(&inst);
        assert!(lb > 0.0);
    }
}
