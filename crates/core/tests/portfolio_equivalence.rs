//! Property tests pinning the metric solver portfolio, bit for bit.
//!
//! The distributed MetricBall protocol and the robust outliers pipeline
//! both retain sequential reference implementations that replay the
//! protocol's randomness (`NodeRng::derive` per facility per phase)
//! without a simulator. These properties enforce *exact* equivalence —
//! identical `Solution` values, not approximate agreement — across metric
//! and non-metric generator families, every phase count, and random
//! seeds; plus the routing contract the serve layer's `auto` kind rests
//! on: the classifier must send every metric-generator instance to the
//! metric specialist, and `auto`'s answer must equal its route's.
//!
//! The distributed kinds with a simulated entry point (MetricBall,
//! Outliers, PayDual) must also give the same solution and transcript on
//! the simulator, under a drawn latency stream, as on the
//! lock-step engine, in exactly the paper's round count (`theory::*`).

use proptest::prelude::*;

use distfl_congest::{LatencyModel, SimConfig};
use distfl_core::outliers::OutliersParams;
use distfl_core::{metricball, outliers, theory, SolverKind};
use distfl_instance::generators::{
    Clustered, Euclidean, GridNetwork, InstanceGenerator, Metricized, PowerLaw, UniformRandom,
};
use distfl_instance::Instance;

/// An instance from any family — metric or not; the references must
/// match everywhere, not only where the approximation guarantee holds.
fn any_instance() -> impl Strategy<Value = Instance> {
    (0u8..4, 1usize..8, 1usize..24, 0u64..1000).prop_map(|(family, m, n, seed)| match family {
        0 => UniformRandom::new(m, n).unwrap().generate(seed).unwrap(),
        1 => Euclidean::new(m, n).unwrap().generate(seed).unwrap(),
        2 => {
            let clusters = m % 3 + 1;
            Clustered::new(clusters, m.max(clusters), n).unwrap().generate(seed).unwrap()
        }
        _ => Metricized::new(PowerLaw::new(m, n, 1e3).unwrap()).generate(seed).unwrap(),
    })
}

/// A simulator configuration whose wide uniform latency lets
/// `latency_seed` reorder every arrival.
fn reordering(latency_seed: u64) -> SimConfig {
    SimConfig {
        latency: LatencyModel::Uniform { lo: 1, hi: 500_000 },
        latency_seed,
        ..SimConfig::default()
    }
}

/// An instance from a family whose costs are metric by construction.
fn metric_instance() -> impl Strategy<Value = Instance> {
    (0u8..4, 2usize..8, 2usize..24, 0u64..1000).prop_map(|(family, m, n, seed)| match family {
        0 => Euclidean::new(m, n).unwrap().generate(seed).unwrap(),
        1 => {
            let clusters = m % 3 + 1;
            Clustered::new(clusters, m.max(clusters), n).unwrap().generate(seed).unwrap()
        }
        2 => {
            let side = 2 + (m % 5);
            GridNetwork::new(side, side, m.min(side * side), n).unwrap().generate(seed).unwrap()
        }
        _ => Metricized::new(UniformRandom::new(m, n).unwrap()).generate(seed).unwrap(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn metricball_matches_its_reference_bitwise(
        inst in any_instance(),
        phases in 1u32..9,
        seed in any::<u64>(),
        latency_seed in any::<u64>(),
    ) {
        use distfl_core::metricball::{MetricBall, MetricBallParams};
        use distfl_core::FlAlgorithm;
        let algo = MetricBall::new(MetricBallParams::with_phases(phases));
        let fast = algo.run(&inst, seed).unwrap();
        let reference = metricball::solve_reference(&inst, phases, seed).unwrap();
        prop_assert_eq!(&fast.solution, &reference);
        let simulated = algo.run_simulated(&inst, seed, reordering(latency_seed)).unwrap();
        prop_assert_eq!(&simulated.outcome.solution, &fast.solution);
        prop_assert_eq!(&simulated.outcome.transcript, &fast.transcript);
        let rounds = fast.transcript.as_ref().unwrap().num_rounds();
        prop_assert_eq!(rounds, theory::metricball_rounds(phases));
    }

    #[test]
    fn outliers_matches_its_reference_bitwise(
        inst in any_instance(),
        phases in 1u32..7,
        drop_pct in 0u32..50,
        seed in any::<u64>(),
        latency_seed in any::<u64>(),
    ) {
        use distfl_core::outliers::Outliers;
        use distfl_core::FlAlgorithm;
        let params = OutliersParams::new(f64::from(drop_pct) / 100.0, phases).unwrap();
        let algo = Outliers::new(params);
        let fast = algo.run(&inst, seed).unwrap();
        let reference = outliers::solve_reference(&inst, params, seed).unwrap();
        prop_assert_eq!(&fast.solution, &reference);
        let simulated = algo.run_simulated(&inst, seed, reordering(latency_seed)).unwrap();
        prop_assert_eq!(&simulated.outcome.solution, &fast.solution);
        prop_assert_eq!(&simulated.outcome.transcript, &fast.transcript);
        let rounds = fast.transcript.as_ref().unwrap().num_rounds();
        prop_assert_eq!(rounds, theory::metricball_rounds(phases));
    }

    #[test]
    fn paydual_runs_identically_on_both_executors(
        inst in any_instance(),
        phases in 1u32..9,
        seed in any::<u64>(),
        latency_seed in any::<u64>(),
    ) {
        use distfl_core::paydual::{PayDual, PayDualParams};
        use distfl_core::FlAlgorithm;
        let algo = PayDual::new(PayDualParams::with_phases(phases));
        let lockstep = algo.run(&inst, seed).unwrap();
        let simulated = algo.run_simulated(&inst, seed, reordering(latency_seed)).unwrap();
        prop_assert_eq!(&simulated.outcome.solution, &lockstep.solution);
        prop_assert_eq!(&simulated.outcome.transcript, &lockstep.transcript);
        let rounds = lockstep.transcript.as_ref().unwrap().num_rounds();
        prop_assert_eq!(rounds, theory::paydual_rounds(phases));
    }

    #[test]
    fn auto_routes_metric_generators_to_metricball(inst in metric_instance()) {
        // The acceptance contract of the classifier: an instance from a
        // metric generator family is never routed away from the metric
        // specialist.
        prop_assert_eq!(SolverKind::Auto.resolve(&inst), SolverKind::MetricBall);
    }

    #[test]
    fn auto_equals_its_route(inst in any_instance(), seed in any::<u64>()) {
        let routed = SolverKind::Auto.resolve(&inst);
        prop_assert!(routed != SolverKind::Auto);
        let auto = SolverKind::Auto.solve(&inst, seed).unwrap();
        let direct = routed.solve(&inst, seed).unwrap();
        prop_assert_eq!(&auto.solution, &direct.solution);
    }
}
