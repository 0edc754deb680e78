//! Property tests pinning the incremental solver hot paths to their naive
//! reference implementations, bit for bit.
//!
//! The lazy-heap greedy, the gain-table local search, and the
//! event-driven Jain–Vazirani dual ascent all claim *exact* equivalence
//! with the retained reference code — not approximate agreement. These
//! properties enforce that claim across the uniform-random, clustered, and
//! line generator families: solutions, dual ratios, iteration and move
//! counts, and costs must all compare equal as raw values. Jain–Vazirani
//! also runs on tie-heavy sparse instances, where many events fall on the
//! same instant, and its full solve (pruning included) is pinned too.
//! Local search runs on those as well, where equal-cost candidates must
//! break ties as the reference does, and on instances with up to 30
//! facilities; it starts either from the greedy solution or from every
//! facility open, which makes descents long.
//!
//! Deterministic sweeps sit at the edges of the fast paths' exactness
//! arguments: tie-heavy instances whose costs are inexact binary fractions
//! (so equal-looking sums differ in their last bits), where greedy's star
//! scan must not stop at a cost equal to the best ratio and local search
//! must fold every candidate within rounding error of the best exactly;
//! and seven families at five cost scales, where the Jain–Vazirani ascent
//! must shortlist and open every facility its rounding margins promise,
//! under a deadline, because a margin that is too tight can stall it.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use distfl_core::{greedy, jv, localsearch};
use distfl_instance::generators::{
    Clustered, Euclidean, GridNetwork, InstanceGenerator, LineCity, PowerLaw, UniformRandom,
};
use distfl_instance::{transform, Cost, Instance, InstanceBuilder, Solution};

/// One instance from any of the three generator families.
fn any_instance() -> impl Strategy<Value = Instance> {
    (0u8..3, 1usize..10, 1usize..30, 0u64..1000).prop_map(|(family, m, n, seed)| match family {
        0 => UniformRandom::new(m, n).unwrap().generate(seed).unwrap(),
        1 => {
            let clusters = m % 3 + 1;
            Clustered::new(clusters, m.max(clusters), n).unwrap().generate(seed).unwrap()
        }
        _ => LineCity::new(m, n).unwrap().generate(seed).unwrap(),
    })
}

/// A builder-made instance whose link and opening costs come from a few
/// levels (zero and repeats included), with about 40% of client rows
/// sparse. Clients become tight and facilities fill up at the same
/// instants, so the ascent meets many simultaneous events.
fn tie_heavy_instance() -> impl Strategy<Value = Instance> {
    (1usize..10, 1usize..30, 0u64..1000).prop_map(|(m, n, seed)| tie_heavy(m, n, seed))
}

fn tie_heavy(m: usize, n: usize, seed: u64) -> Instance {
    const LEVELS: [f64; 5] = [0.0, 1.0, 2.0, 2.0, 5.0];
    let mut rng = StdRng::seed_from_u64(seed);
    let level = |rng: &mut StdRng| Cost::new(LEVELS[rng.gen_range(0..LEVELS.len())]).unwrap();
    let mut b = InstanceBuilder::new();
    // One positive opening cost keeps the instance off the all-zero
    // rejection.
    let facilities: Vec<_> = (0..m)
        .map(|i| b.add_facility(if i == 0 { Cost::new(2.0).unwrap() } else { level(&mut rng) }))
        .collect();
    for _ in 0..n {
        let j = b.add_client();
        let sparse = rng.gen_bool(0.4);
        let first = rng.gen_range(0..m);
        for (k, &i) in facilities.iter().enumerate() {
            if !sparse || k == first || rng.gen_bool(0.3) {
                b.link(j, i, level(&mut rng)).unwrap();
            }
        }
    }
    b.build().unwrap()
}

/// The Jain–Vazirani inputs: every generator family plus the tie-heavy one.
fn jv_instance() -> impl Strategy<Value = Instance> {
    prop_oneof![any_instance(), tie_heavy_instance()]
}

/// Tie-heavy instances with up to 30 facilities, so that local search
/// prices two or more blocks of closed facilities and a partial tail,
/// and equal-cost candidates from different blocks must still break
/// ties in the reference's order.
fn wide_instance() -> impl Strategy<Value = Instance> {
    (9usize..31, 1usize..30, 0u64..1000).prop_map(|(m, n, seed)| tie_heavy(m, n, seed))
}

/// The local-search inputs: every generator family, the tie-heavy one,
/// and the wide one.
fn ls_instance() -> impl Strategy<Value = Instance> {
    prop_oneof![any_instance(), tie_heavy_instance(), wide_instance()]
}

/// A feasible local-search start: the greedy solution, or every facility
/// open (each client at its cheapest link), which makes descents long.
fn ls_start(inst: &Instance, all_open: bool) -> Solution {
    if all_open {
        let assignment = inst.clients().map(|j| inst.cheapest_link(j).0).collect();
        Solution::new(inst, vec![true; inst.num_facilities()], assignment).unwrap()
    } else {
        greedy::solve(inst).0
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn lazy_greedy_matches_reference_bitwise(inst in any_instance()) {
        let fast = greedy::solve_detailed(&inst);
        let slow = greedy::solve_detailed_reference(&inst);
        prop_assert_eq!(&fast.solution, &slow.solution);
        prop_assert_eq!(&fast.ratios, &slow.ratios);
        prop_assert_eq!(fast.iterations, slow.iterations);
    }

    #[test]
    fn cached_local_search_matches_reference_bitwise(
        inst in ls_instance(),
        all_open in any::<bool>(),
    ) {
        let start = ls_start(&inst, all_open);
        let fast = localsearch::optimize(&inst, &start, 100);
        let slow = localsearch::optimize_reference(&inst, &start, 100);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn cached_local_search_matches_reference_under_move_caps(
        inst in ls_instance(),
        all_open in any::<bool>(),
        cap in 0u32..5,
    ) {
        let start = ls_start(&inst, all_open);
        let fast = localsearch::optimize(&inst, &start, cap);
        let slow = localsearch::optimize_reference(&inst, &start, cap);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn event_driven_dual_ascent_matches_reference_bitwise(
        inst in jv_instance(),
        scale in 0usize..4,
    ) {
        // Scaled-up costs push the ascent's clock to where a payment gap
        // no longer moves it; both ascents must still open the facility.
        let inst = transform::scale_costs(&inst, [1.0, 1e2, 1e3, 1e6][scale]).unwrap();
        let fast = jv::dual_ascent(&inst);
        let slow = jv::dual_ascent_reference(&inst);
        prop_assert_eq!(bits(&fast.alpha), bits(&slow.alpha));
        prop_assert_eq!(fast.temp_open, slow.temp_open);
    }

    #[test]
    fn jv_solve_matches_reference_bitwise(inst in jv_instance(), scale in 0usize..4) {
        let inst = transform::scale_costs(&inst, [1.0, 1e2, 1e3, 1e6][scale]).unwrap();
        let (fast, fast_dual) = jv::solve(&inst);
        let (slow, slow_dual) = jv::solve_reference(&inst);
        prop_assert_eq!(fast, slow);
        prop_assert_eq!(bits(fast_dual.alpha()), bits(slow_dual.alpha()));
    }
}

/// A tie-heavy instance whose costs are inexact binary fractions: every
/// link and opening cost is one of the levels {0, 0.1, 0.2, 0.3, 0.7}
/// times `scale`, and about half the client rows are sparse (one link plus
/// a few), so many clients have a single open link.
fn inexact_tie_heavy(m: usize, n: usize, scale: f64, seed: u64) -> Instance {
    const LEVELS: [f64; 5] = [0.0, 0.1, 0.2, 0.3, 0.7];
    let mut rng = StdRng::seed_from_u64(seed);
    let level =
        |rng: &mut StdRng| Cost::new(LEVELS[rng.gen_range(0..LEVELS.len())] * scale).unwrap();
    let mut b = InstanceBuilder::new();
    let facilities: Vec<_> = (0..m)
        .map(|i| {
            b.add_facility(if i == 0 { Cost::new(0.3 * scale).unwrap() } else { level(&mut rng) })
        })
        .collect();
    for _ in 0..n {
        let j = b.add_client();
        let sparse = rng.gen_bool(0.5);
        let first = rng.gen_range(0..m);
        for (k, &i) in facilities.iter().enumerate() {
            if !sparse || k == first || rng.gen_bool(0.2) {
                b.link(j, i, level(&mut rng)).unwrap();
            }
        }
    }
    b.build().unwrap()
}

/// The deterministic sweep both tests below walk: 3,200 instances, 1 to
/// 12 facilities and 1 to 30 clients, each scale in {1e-3, 1, 3, 1e3}.
fn inexact_sweep() -> impl Iterator<Item = (u64, Instance)> {
    (0..3200u64).map(|seed| {
        let m = 1 + (seed as usize * 7) % 12;
        let n = 1 + (seed as usize * 13) % 30;
        let scale = [1e-3, 1.0, 3.0, 1e3][seed as usize % 4];
        (seed, inexact_tie_heavy(m, n, scale, seed))
    })
}

#[test]
fn greedy_matches_reference_on_the_inexact_tie_sweep() {
    for (seed, inst) in inexact_sweep() {
        let fast = greedy::solve_detailed(&inst);
        let slow = greedy::solve_detailed_reference(&inst);
        assert_eq!(fast.solution, slow.solution, "seed {seed}");
        assert_eq!(bits(&fast.ratios), bits(&slow.ratios), "seed {seed}");
        assert_eq!(fast.iterations, slow.iterations, "seed {seed}");
    }
}

#[test]
fn local_search_matches_reference_on_the_inexact_tie_sweep() {
    for (seed, inst) in inexact_sweep() {
        for all_open in [false, true] {
            let start = ls_start(&inst, all_open);
            let fast = localsearch::optimize(&inst, &start, 100);
            let slow = localsearch::optimize_reference(&inst, &start, 100);
            assert_eq!(fast, slow, "seed {seed}, all open {all_open}");
            assert_eq!(fast.final_cost.to_bits(), slow.final_cost.to_bits(), "seed {seed}");
        }
    }
}

/// The Jain–Vazirani sweep: 7,000 instances, one per seed, cycling through
/// seven families (uniform, Euclidean, clustered, line, power-law, grid,
/// and the tie-heavy one, whose levels include zero opening costs) with
/// 1 to 12 facilities and 1 to 30 clients, every cost scaled by one of
/// 1e-3, 1, 3, 1e3 and 1e6.
fn jv_sweep() -> impl Iterator<Item = (u64, Instance)> {
    (0..7000u64).map(|seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = rng.gen_range(1..=12);
        let n = rng.gen_range(1..=30);
        let inst = match seed % 7 {
            0 => UniformRandom::new(m, n).unwrap().generate(seed).unwrap(),
            1 => Euclidean::new(m, n).unwrap().generate(seed).unwrap(),
            2 => {
                let clusters = m % 3 + 1;
                Clustered::new(clusters, m.max(clusters), n).unwrap().generate(seed).unwrap()
            }
            3 => LineCity::new(m, n).unwrap().generate(seed).unwrap(),
            4 => PowerLaw::new(m, n, 100.0).unwrap().generate(seed).unwrap(),
            5 => GridNetwork::new(4, 4, m, n).unwrap().generate(seed).unwrap(),
            _ => tie_heavy(m, n, seed),
        };
        let scale = [1e-3, 1.0, 3.0, 1e3, 1e6][(seed / 7 % 5) as usize];
        (seed, transform::scale_costs(&inst, scale).unwrap())
    })
}

#[test]
fn dual_ascent_matches_reference_on_the_family_sweep() {
    // One thread walks the sweep and the test waits for it under a
    // deadline, so an ascent that stalls fails instead of hanging.
    let (tx, rx) = mpsc::channel();
    let walker = std::thread::spawn(move || {
        for (seed, inst) in jv_sweep() {
            let fast = jv::dual_ascent(&inst);
            let slow = jv::dual_ascent_reference(&inst);
            assert_eq!(bits(&fast.alpha), bits(&slow.alpha), "seed {seed}");
            assert_eq!(fast.temp_open, slow.temp_open, "seed {seed}");
        }
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(120)) {
        Ok(()) => walker.join().expect("the walker sent its result, so it did not panic"),
        // A failed assertion drops the sender: surface its panic.
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(walker.join().expect_err("the sender was dropped"))
        }
        Err(RecvTimeoutError::Timeout) => panic!("the dual ascent stalled on the sweep"),
    }
}
