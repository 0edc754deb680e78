//! Property tests pinning the incremental solver hot paths to their naive
//! reference implementations, bit for bit.
//!
//! The lazy-heap greedy, the cached-assignment local search, and the
//! event-driven Jain–Vazirani dual ascent all claim *exact* equivalence
//! with the retained reference code — not approximate agreement. These
//! properties enforce that claim across the uniform-random, clustered, and
//! line generator families: solutions, dual ratios, iteration and move
//! counts, and costs must all compare equal as raw values. Jain–Vazirani
//! also runs on tie-heavy sparse instances, where many events fall on the
//! same instant, and its full solve (pruning included) is pinned too.
//! Local search runs on those as well, where equal-cost candidates must
//! break ties as the reference does, and on instances with up to 30
//! facilities, so that several eight-facility pricing blocks and a
//! partial tail block run; it starts either from the greedy solution or
//! from every facility open, which makes descents long.
//!
//! The chunked scan kernels those hot paths are built on are pinned here
//! too, directly against their scalar reference twins, over lanes that mix
//! regular values with the awkward shapes: empty, short (1..=9, so every
//! chunk remainder path runs), subnormal, huge, and infinite, and pricing
//! blocks with 1..=8 live columns. The scalar
//! `min_argmin` is pinned on all-equal lanes, where its tie-break must
//! pick the first index.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use distfl_core::{greedy, jv, localsearch};
use distfl_instance::generators::{Clustered, InstanceGenerator, LineCity, UniformRandom};
use distfl_instance::{kernels, transform, Cost, Instance, InstanceBuilder, Solution};

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

/// Resolves a weighted element selector into one extreme-magnitude value:
/// exact zero, the smallest subnormal, near-overflow, `+inf`, or the
/// regular draw. The result respects the kernel input contract
/// (non-negative, NaN-free, no `-0.0`).
fn salted(sel: u8, regular: f64) -> f64 {
    match sel {
        0 => 0.0,
        1 => 5e-324,
        2 => 1e300,
        3 => f64::INFINITY,
        _ => regular,
    }
}

/// A cost lane salted with the extreme magnitudes. Half the draws are
/// truncated short (0..=9) so every chunk-remainder path runs; the rest
/// keep up to 40 elements to cover the chunked bodies.
fn cost_lane() -> impl Strategy<Value = Vec<f64>> {
    (prop::collection::vec((0u8..10, 0.0f64..1e3), 0..41), 0u8..2, 0usize..10).prop_map(
        |(raw, short, cap)| {
            let mut lane: Vec<f64> = raw.into_iter().map(|(sel, v)| salted(sel, v)).collect();
            if short == 1 {
                lane.truncate(cap);
            }
            lane
        },
    )
}

/// An all-equal lane: every index ties, so the scan must pick the
/// *first* one.
fn equal_lane() -> impl Strategy<Value = Vec<f64>> {
    (0u8..4, 0.0f64..1e3, 1usize..18).prop_map(|(sel, v, len)| vec![salted(sel, v); len])
}

/// Parallel best/second/facility lanes as the local-search cache holds
/// them, a client-major pricing block with 1..=8 live columns (the rest
/// `+inf`, as in a partial tail block), and a drop id that may or may not
/// occur in the facility lane (6 never does: it prices the adds).
type CacheLanes = (Vec<f64>, Vec<f64>, Vec<u32>, Vec<f64>, u32);

fn cache_lanes() -> impl Strategy<Value = CacheLanes> {
    (
        prop::collection::vec(
            (
                (3u8..10, 0.0f64..1e3),
                (3u8..10, 0.0f64..1e3),
                0u32..6,
                prop::collection::vec((0u8..10, 0.0f64..1e3), kernels::SWAP_LANES),
            ),
            0..25,
        ),
        1usize..=kernels::SWAP_LANES,
        0u32..7,
    )
        .prop_map(|(rows, live, drop)| {
            let (mut best, mut second, mut fac, mut block) =
                (Vec::new(), Vec::new(), Vec::new(), Vec::new());
            for ((bs, bv), (ss, sv), f, links) in rows {
                best.push(salted(bs, bv));
                second.push(salted(ss, sv));
                fac.push(f);
                block.extend(links.into_iter().enumerate().map(|(l, (sel, v))| {
                    if l < live {
                        salted(sel, v)
                    } else {
                        f64::INFINITY
                    }
                }));
            }
            (best, second, fac, block, drop)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn kernel_min_argmin_breaks_ties_at_the_first_index(lane in equal_lane()) {
        let (k, v) = kernels::min_argmin(&lane).unwrap();
        prop_assert_eq!(k, 0);
        prop_assert_eq!(v.to_bits(), lane[0].to_bits());
    }

    #[test]
    fn kernel_fused_ratio_accumulate_matches_reference(
        lane in cost_lane(),
        residual in (0u8..2, 0.0f64..1e3),
    ) {
        let residual = if residual.0 == 0 { 0.0 } else { residual.1 };
        // Greedy feeds (cost, client)-sorted rows; the prefix chain is
        // order-sensitive, so match that shape.
        let mut lane = lane;
        lane.sort_by(f64::total_cmp);
        let (fr, fk) = kernels::fused_ratio_accumulate(&lane, residual);
        let (sr, sk) = kernels::fused_ratio_accumulate_reference(&lane, residual);
        prop_assert_eq!((fr.to_bits(), fk), (sr.to_bits(), sk));
    }

    #[test]
    fn kernel_retain_unmarked_matches_reference(
        lane in cost_lane(),
        seed in any::<u64>(),
    ) {
        let ids: Vec<u32> = (0..lane.len() as u32).collect();
        let marked: Vec<bool> = (0..lane.len()).map(|k| (seed >> (k % 64)) & 1 == 1).collect();
        let (ref_ids, ref_costs) = kernels::retain_unmarked_reference(&ids, &lane, &marked);
        let mut ids = ids;
        let mut costs = lane;
        let live = kernels::retain_unmarked(&mut ids, &mut costs, &marked);
        prop_assert_eq!(&ids[..live], &ref_ids[..]);
        let live_bits: Vec<u64> = costs[..live].iter().map(|c| c.to_bits()).collect();
        let ref_bits: Vec<u64> = ref_costs.iter().map(|c| c.to_bits()).collect();
        prop_assert_eq!(live_bits, ref_bits);
    }

    #[test]
    fn kernel_assign_sums_match_reference(lanes in cache_lanes()) {
        let (best, second, fac, block, drop) = lanes;
        prop_assert_eq!(
            kernels::assign_sum_swap(&best, &fac, &second, drop, &block).map(f64::to_bits),
            kernels::assign_sum_swap_reference(&best, &fac, &second, drop, &block)
                .map(f64::to_bits)
        );
    }
}
