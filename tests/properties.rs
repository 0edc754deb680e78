//! Property-based tests over randomly structured instances.
//!
//! The strategy builds arbitrary *valid* sparse instances (every client
//! linked, at least one positive coefficient) and checks the core
//! invariants of every layer against them.

use proptest::prelude::*;

use distfl::core::theory;
use distfl::instance::textio;
use distfl::prelude::*;

/// A raw recipe for an instance the strategy can shrink over.
#[derive(Debug, Clone)]
struct Recipe {
    opening: Vec<u32>,
    /// Per client: (first facility link, extra link mask, base cost).
    clients: Vec<(usize, u8, u32)>,
}

fn recipe_strategy() -> impl Strategy<Value = Recipe> {
    let opening = prop::collection::vec(0u32..500, 1..8);
    let clients = prop::collection::vec((0usize..64, any::<u8>(), 1u32..400), 1..20);
    (opening, clients).prop_map(|(opening, clients)| Recipe { opening, clients })
}

/// Deterministically materializes a recipe into a valid instance.
fn build(recipe: &Recipe) -> Instance {
    let m = recipe.opening.len();
    let mut b = InstanceBuilder::new();
    let fids: Vec<_> =
        recipe.opening.iter().map(|&f| b.add_facility(Cost::new(f64::from(f)).unwrap())).collect();
    for (ci, &(first, mask, base)) in recipe.clients.iter().enumerate() {
        let c = b.add_client();
        // Guaranteed link.
        let anchor = first % m;
        b.link(c, fids[anchor], Cost::new(f64::from(base)).unwrap()).unwrap();
        // Extra links from the mask bits.
        for (bit, &fid) in fids.iter().enumerate().take(8usize.min(m)) {
            if mask & (1 << bit) != 0 && bit != anchor {
                let cost = f64::from(base % (100 + bit as u32 + ci as u32) + 1);
                b.link(c, fid, Cost::new(cost).unwrap()).unwrap();
            }
        }
    }
    // The builder may reject the all-zero corner; nudge one opening cost.
    match b.clone().build() {
        Ok(inst) => inst,
        Err(_) => {
            let mut b2 = InstanceBuilder::new();
            let mut fids = Vec::new();
            for (i, &f) in recipe.opening.iter().enumerate() {
                let v = if i == 0 { f64::from(f) + 1.0 } else { f64::from(f) };
                fids.push(b2.add_facility(Cost::new(v).unwrap()));
            }
            for &(first, _, base) in &recipe.clients {
                let c = b2.add_client();
                b2.link(c, fids[first % m], Cost::new(f64::from(base)).unwrap()).unwrap();
            }
            b2.build().unwrap()
        }
    }
}

/// An instance from any of the nine generator families, kept to at most 8
/// facilities and 30 clients so the exact optimum stays cheap.
fn generated_instance() -> impl Strategy<Value = Instance> {
    use distfl::instance::generators::{
        AdversarialGreedy, CdnTrace, Clustered, Euclidean, GridNetwork, InstanceGenerator,
        LineCity, Metricized, PowerLaw, UniformRandom,
    };
    (0u8..9, 1usize..=8, 1usize..=30, any::<u64>()).prop_map(|(family, m, n, seed)| {
        let clusters = m % 3 + 1;
        match family {
            0 => UniformRandom::new(m, n).unwrap().generate(seed),
            1 => Euclidean::new(m, n).unwrap().generate(seed),
            2 => Clustered::new(clusters, m.max(clusters), n).unwrap().generate(seed),
            3 => GridNetwork::new(3, 3, m, n).unwrap().generate(seed),
            4 => PowerLaw::new(m, n, 1e3).unwrap().generate(seed),
            // `k` decoys plus the hub: `k + 1` facilities, `k` clients.
            5 => AdversarialGreedy::new(m.clamp(1, 7)).unwrap().generate(seed),
            6 => CdnTrace::new(m, n).unwrap().generate(seed),
            7 => LineCity::new(m, n).unwrap().generate(seed),
            _ => Metricized::new(UniformRandom::new(m, n).unwrap()).generate(seed),
        }
        .unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn paydual_stays_within_its_approximation_bound(
        inst in generated_instance(),
        phases in 1u32..=16,
        seed in any::<u64>(),
    ) {
        let opt = exact::solve(&inst).unwrap().cost.value();
        let out = PayDual::new(PayDualParams::with_phases(phases)).run(&inst, seed).unwrap();
        let cost = out.solution.cost(&inst).value();
        let bound = theory::paydual_bound(&inst, phases);
        prop_assert!(
            cost <= bound * opt,
            "PayDual cost {} above bound {} x OPT {}", cost, bound, opt
        );
    }

    #[test]
    fn paydual_is_feasible_and_respects_its_round_formula(
        recipe in recipe_strategy(),
        phases in 1u32..12,
        seed in 0u64..1000,
    ) {
        let inst = build(&recipe);
        let out = PayDual::new(PayDualParams::with_phases(phases)).run(&inst, seed).unwrap();
        out.solution.check_feasible(&inst).unwrap();
        let t = out.transcript.unwrap();
        prop_assert_eq!(t.num_rounds(), theory::paydual_rounds(phases));
        prop_assert!(t.congest_compliant(72));
    }

    #[test]
    fn exact_is_a_true_lower_bound_for_all_algorithms(
        recipe in recipe_strategy(),
        seed in 0u64..1000,
    ) {
        let inst = build(&recipe);
        let opt = exact::solve(&inst).unwrap().cost.value();
        let paydual =
            PayDual::new(PayDualParams::with_phases(6)).run(&inst, seed).unwrap();
        prop_assert!(paydual.solution.cost(&inst).value() >= opt - 1e-6);
        let (greedy, _) = distfl::core::greedy::solve(&inst);
        prop_assert!(greedy.cost(&inst).value() >= opt - 1e-6);
    }

    #[test]
    fn greedy_stays_within_harmonic_of_optimum(recipe in recipe_strategy()) {
        let inst = build(&recipe);
        let opt = exact::solve(&inst).unwrap().cost.value();
        let (greedy, _) = distfl::core::greedy::solve(&inst);
        let h = theory::harmonic(inst.num_clients());
        prop_assert!(
            greedy.cost(&inst).value() <= h * opt + 1e-6,
            "greedy {} vs H_n * OPT {}", greedy.cost(&inst).value(), h * opt
        );
    }

    #[test]
    fn duals_certify_bounds_below_the_optimum(
        recipe in recipe_strategy(),
        seed in 0u64..1000,
    ) {
        let inst = build(&recipe);
        let opt = exact::solve(&inst).unwrap().cost.value();
        let out = PayDual::new(PayDualParams::with_phases(8)).run(&inst, seed).unwrap();
        let lb = out.dual.unwrap().lower_bound(&inst, distfl::lp::TOLERANCE);
        prop_assert!(lb <= opt + 1e-6, "dual LB {} above OPT {}", lb, opt);
    }

    #[test]
    fn text_format_round_trips(recipe in recipe_strategy()) {
        let inst = build(&recipe);
        let text = textio::to_string(&inst);
        let parsed = textio::from_str(&text).unwrap();
        prop_assert_eq!(inst, parsed);
    }

    #[test]
    fn greedy_reassignment_never_increases_cost(
        recipe in recipe_strategy(),
        seed in 0u64..1000,
    ) {
        let inst = build(&recipe);
        let out = GreedyBucket::new(BucketParams::new(3, 2)).run(&inst, seed).unwrap();
        let improved = out.solution.reassign_greedily(&inst);
        prop_assert!(improved.cost(&inst) <= out.solution.cost(&inst));
    }

    #[test]
    fn trivial_lower_bound_is_sound(recipe in recipe_strategy()) {
        let inst = build(&recipe);
        let opt = exact::solve(&inst).unwrap().cost.value();
        prop_assert!(bounds::trivial_lower_bound(&inst) <= opt + 1e-9);
    }

    #[test]
    fn distributed_rounding_always_feasible(
        recipe in recipe_strategy(),
        width in 1usize..5,
        trials in 0u32..8,
        seed in 0u64..1000,
    ) {
        let inst = build(&recipe);
        let frac = distfl::core::fraclp::spread_fractional(&inst, width);
        frac.check_feasible(&inst, 1e-9).unwrap();
        let params = DistRoundParams { boost: 2.0, trials, fault: None };
        let out = distributed_round(&inst, &frac, params, seed).unwrap();
        out.solution.check_feasible(&inst).unwrap();
    }
}
