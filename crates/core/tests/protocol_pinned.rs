//! GreedyBucket's, DistRound's and the straw-man's outputs pinned bit for
//! bit.
//!
//! No sequential reference replays these protocols round for round, and
//! the experiment CSVs are only compared between runs of one build, so a
//! change that moves one proposal, one coin flip or one float sum would go
//! unseen between commits. This test pins, for each run on a fixed list,
//! the open set, the bits of the solution's cost, the round count and a
//! fingerprint of the assignment, every round's
//! [`RoundStats`](distfl_congest::RoundStats) and the bits of the dual
//! values (GreedyBucket) or the fallback count (DistRound).
//!
//! The list covers GreedyBucket on four families at 20×200 (seeds 1–3)
//! under three `(outer, inner)` nestings, on a sparse `GridNetwork` and
//! with message loss; DistRound at three trial counts over two fractional
//! points on two instances, and with message loss; and the straw-man on
//! three instances.

use distfl_congest::{FaultPlan, Transcript};
use distfl_core::bucket::{BucketParams, GreedyBucket};
use distfl_core::fraclp::spread_fractional;
use distfl_core::round::{distributed_round, DistRoundParams};
use distfl_core::seqdist;
use distfl_core::FlAlgorithm;
use distfl_instance::generators::{
    Clustered, Euclidean, GridNetwork, InstanceGenerator, PowerLaw, UniformRandom,
};
use distfl_instance::{Instance, Solution};

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// One pinned run: its name, open facilities, cost bits, rounds and
/// fingerprint.
type Pin = (String, Vec<u32>, u64, u32, u64);

fn pin(
    name: String,
    instance: &Instance,
    solution: &Solution,
    transcript: &Transcript,
    dual: &[f64],
) -> Pin {
    let mut h = Fnv::new();
    for j in instance.clients() {
        h.word(u64::from(solution.assigned(j).raw()));
    }
    for r in transcript.rounds() {
        for w in [
            u64::from(r.round),
            r.messages,
            r.dropped,
            r.bits,
            r.max_message_bits,
            r.max_messages_per_edge,
        ] {
            h.word(w);
        }
    }
    for a in dual {
        h.word(a.to_bits());
    }
    let open = solution.open_facilities().map(|i| i.raw()).collect();
    (name, open, solution.cost(instance).value().to_bits(), transcript.num_rounds(), h.0)
}

fn families(seed: u64) -> [(&'static str, Instance); 4] {
    [
        ("euclidean", Euclidean::new(20, 200).unwrap().generate(seed).unwrap()),
        ("uniform", UniformRandom::new(20, 200).unwrap().generate(seed).unwrap()),
        ("clustered", Clustered::new(4, 20, 200).unwrap().generate(seed).unwrap()),
        ("powerlaw", PowerLaw::new(20, 200, 64.0).unwrap().generate(seed).unwrap()),
    ]
}

fn bucket(name: String, instance: &Instance, params: BucketParams, seed: u64) -> Pin {
    let out = GreedyBucket::new(params).run(instance, seed).unwrap();
    let transcript = out.transcript.expect("bucket reports rounds");
    let dual = out.dual.expect("bucket reports duals");
    pin(name, instance, &out.solution, &transcript, dual.alpha())
}

fn bucket_runs() -> Vec<Pin> {
    let mut out = Vec::new();
    for seed in 1..=3u64 {
        for (family, inst) in families(seed) {
            for (outer, inner) in [(1, 1), (3, 2), (6, 4)] {
                let name = format!("{family}/seed{seed}/{outer}x{inner}");
                out.push(bucket(name, &inst, BucketParams::new(outer, inner), seed));
            }
        }
    }
    let grid = GridNetwork::with_radius(10, 10, 12, 80, 2).unwrap().generate(4).unwrap();
    assert!(!grid.is_complete(), "the grid instance should be sparse");
    out.push(bucket("grid/6x4".to_owned(), &grid, BucketParams::default(), 4));
    let uniform = UniformRandom::new(20, 200).unwrap().generate(1).unwrap();
    let lossy = BucketParams {
        fault: Some(FaultPlan::drop_with_probability(0.3, 5)),
        ..BucketParams::default()
    };
    out.push(bucket("lossy/6x4".to_owned(), &uniform, lossy, 1));
    out
}

fn round_runs() -> Vec<Pin> {
    let mut out = Vec::new();
    let instances = [
        ("uniform", UniformRandom::new(20, 200).unwrap().generate(1).unwrap()),
        ("grid", GridNetwork::with_radius(10, 10, 12, 80, 2).unwrap().generate(4).unwrap()),
    ];
    for (family, inst) in &instances {
        for spread in [2, 4] {
            let frac = spread_fractional(inst, spread);
            for trials in [0, 2, 6] {
                let params = DistRoundParams { boost: 2.0, trials, fault: None };
                let run = distributed_round(inst, &frac, params, 3).unwrap();
                let name = format!("{family}/spread{spread}/trials{trials}");
                let fallback = [run.fallback_clients as f64];
                out.push(pin(name, inst, &run.solution, &run.transcript, &fallback));
            }
        }
    }
    let inst = &instances[0].1;
    let frac = spread_fractional(inst, 3);
    let params = DistRoundParams {
        fault: Some(FaultPlan::drop_with_probability(0.3, 5)),
        ..DistRoundParams::for_instance(inst)
    };
    let run = distributed_round(inst, &frac, params, 8).unwrap();
    let fallback = [run.fallback_clients as f64];
    out.push(pin("lossy".to_owned(), inst, &run.solution, &run.transcript, &fallback));
    out
}

fn straw_man_runs() -> Vec<Pin> {
    let instances = [
        ("uniform", UniformRandom::new(8, 40).unwrap().generate(1).unwrap()),
        ("clustered", Clustered::new(3, 10, 60).unwrap().generate(2).unwrap()),
        ("grid", GridNetwork::new(8, 8, 6, 30).unwrap().generate(3).unwrap()),
    ];
    instances
        .iter()
        .map(|(family, inst)| {
            let (solution, transcript) = seqdist::run_protocol(inst).unwrap();
            pin((*family).to_owned(), inst, &solution, &transcript, &[])
        })
        .collect()
}

fn check(got: Vec<Pin>, pinned: &[(&str, &[u32], u64, u32, u64)]) {
    let got: Vec<(&str, &[u32], u64, u32, u64)> =
        got.iter().map(|(n, o, c, r, f)| (n.as_str(), o.as_slice(), *c, *r, *f)).collect();
    assert_eq!(got, pinned);
}

#[test]
fn greedy_bucket_outputs_match_their_pins() {
    // A change meant to keep GreedyBucket bit-identical reproduces these;
    // one that changes it on purpose re-records them.
    check(
        bucket_runs(),
        &[
            (
                "euclidean/seed1/1x1",
                &[0, 1, 3, 4, 5, 6, 8, 10, 11, 12, 13, 15, 16, 18, 19],
                0x40ae_4260_3e75_f557,
                7,
                0x289b_28cd_bac1_02c3,
            ),
            (
                "euclidean/seed1/3x2",
                &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19],
                0x40b0_2524_d7e0_8a45,
                17,
                0xb9e6_44f8_417d_bc8d,
            ),
            (
                "euclidean/seed1/6x4",
                &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19],
                0x40b0_2524_d7e0_8a45,
                53,
                0x1445_bb89_1036_1df4,
            ),
            (
                "uniform/seed1/1x1",
                &[0, 1, 2, 3, 4, 6, 8, 9, 10, 11, 12, 13, 14, 16, 18],
                0x40b4_e06d_fe73_fa2c,
                7,
                0x21cc_63b1_65ca_9160,
            ),
            (
                "uniform/seed1/3x2",
                &[1, 2, 4, 5, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 19],
                0x40b3_15ed_de9b_b4dc,
                17,
                0xfe30_bc5b_9bd6_cc7b,
            ),
            (
                "uniform/seed1/6x4",
                &[2, 3, 6, 7, 9, 12, 13, 14, 15, 16, 17, 18, 19],
                0x40b3_0588_b118_06dc,
                53,
                0x6957_5496_502f_7aa7,
            ),
            (
                "clustered/seed1/1x1",
                &[0, 1, 3, 4, 5, 6, 9, 10, 11, 12, 13, 14, 16, 18, 19],
                0x4097_973f_ab08_5439,
                7,
                0xc0d5_b316_8031_ae07,
            ),
            (
                "clustered/seed1/3x2",
                &[0, 1, 2, 3, 4, 5, 7, 8, 9, 10, 12, 13, 14, 15, 16, 17, 18, 19],
                0x4097_dc2c_98dc_3701,
                17,
                0xd42d_4fe5_0f20_339d,
            ),
            (
                "clustered/seed1/6x4",
                &[0, 2, 3, 6, 7, 8, 9, 12, 13, 14, 16, 17, 18, 19],
                0x4096_75b7_25c5_373c,
                53,
                0x24d9_1708_da0e_9ce8,
            ),
            (
                "powerlaw/seed1/1x1",
                &[0, 1, 2, 3, 4, 6, 8, 9, 10, 11, 12, 13, 14, 15, 16, 18],
                0x4080_5729_3876_0ea1,
                7,
                0x87b1_ad7d_67b7_e468,
            ),
            (
                "powerlaw/seed1/3x2",
                &[1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19],
                0x407d_82b5_0ca5_ca22,
                17,
                0x1e8d_5132_c63f_3e71,
            ),
            (
                "powerlaw/seed1/6x4",
                &[2, 3, 5, 6, 7, 8, 9, 12, 13, 14, 15, 16, 17, 18, 19],
                0x407d_718f_0a69_cc42,
                53,
                0xb6ea_8f04_27cf_5174,
            ),
            (
                "euclidean/seed2/1x1",
                &[1, 3, 4, 6, 7, 8, 10, 11, 12, 14, 16, 17, 19],
                0x40ad_63b2_bb1f_7f4e,
                7,
                0xcc04_7538_f591_c7b7,
            ),
            (
                "euclidean/seed2/3x2",
                &[0, 1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19],
                0x40ac_313e_1c86_864b,
                17,
                0x8462_167b_24b2_3f38,
            ),
            (
                "euclidean/seed2/6x4",
                &[0, 1, 3, 4, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19],
                0x40ac_81ef_1140_bf3e,
                53,
                0xdf61_0d6b_36a0_ff28,
            ),
            (
                "uniform/seed2/1x1",
                &[1, 2, 3, 4, 6, 7, 10, 11, 12, 14, 15, 16, 17, 18, 19],
                0x40b5_ec7c_73ab_1644,
                7,
                0x7fbd_0616_8cb7_0657,
            ),
            (
                "uniform/seed2/3x2",
                &[0, 1, 3, 4, 5, 6, 7, 8, 10, 11, 13, 14, 15, 17, 19],
                0x40b7_1e9f_0499_110c,
                17,
                0x001d_1bdf_dbcb_45ee,
            ),
            (
                "uniform/seed2/6x4",
                &[2, 3, 4, 6, 7, 8, 10, 11, 12, 14, 17, 19],
                0x40b3_890c_b515_bfd8,
                53,
                0xb5a9_1e0c_4c3a_b88b,
            ),
            (
                "clustered/seed2/1x1",
                &[0, 1, 2, 3, 4, 6, 7, 9, 10, 11, 12, 14, 15, 16, 17, 18],
                0x4098_3ec4_782b_84ec,
                7,
                0x47f3_a254_0d2c_4ada,
            ),
            (
                "clustered/seed2/3x2",
                &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17],
                0x4099_593a_0c5a_504e,
                17,
                0x243f_2b07_a62a_01bc,
            ),
            (
                "clustered/seed2/6x4",
                &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 18],
                0x4098_6182_45c6_c8b6,
                53,
                0xc936_c352_87f3_a570,
            ),
            (
                "powerlaw/seed2/1x1",
                &[1, 2, 3, 4, 6, 7, 8, 10, 11, 12, 14, 15, 16, 17, 18, 19],
                0x407c_67ae_0f8d_f238,
                7,
                0xdb0b_6070_1bf7_cb45,
            ),
            (
                "powerlaw/seed2/3x2",
                &[0, 1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14, 15, 17, 19],
                0x4080_b786_3a5c_c8ca,
                17,
                0xde72_045b_8909_4ec8,
            ),
            (
                "powerlaw/seed2/6x4",
                &[1, 2, 3, 4, 6, 7, 8, 9, 10, 11, 12, 14, 16, 17, 19],
                0x407e_4731_f852_250f,
                53,
                0x8034_0ca9_a727_ded2,
            ),
            (
                "euclidean/seed3/1x1",
                &[2, 4, 5, 6, 7, 8, 10, 11, 12, 13, 17, 18, 19],
                0x40ac_6376_99a9_ce84,
                7,
                0xd095_8071_3053_aca3,
            ),
            (
                "euclidean/seed3/3x2",
                &[2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19],
                0x40ac_d10a_9921_f0d2,
                17,
                0x9b2a_b241_3cf8_e15c,
            ),
            (
                "euclidean/seed3/6x4",
                &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15, 16, 17, 18, 19],
                0x40ab_95dc_eea5_7303,
                53,
                0xceba_2587_f84a_226c,
            ),
            (
                "uniform/seed3/1x1",
                &[0, 2, 4, 5, 6, 8, 9, 10, 11, 12, 14, 17, 19],
                0x40b1_f8eb_1c6b_55d0,
                7,
                0xbd38_7da9_b8dd_9ff0,
            ),
            (
                "uniform/seed3/3x2",
                &[2, 3, 5, 6, 7, 9, 10, 12, 13, 14, 15, 16, 17, 18, 19],
                0x40b4_e7bd_021a_83d4,
                17,
                0x48ea_cbef_3bf0_f789,
            ),
            (
                "uniform/seed3/6x4",
                &[0, 1, 4, 5, 7, 9, 10, 11, 12, 13, 14, 16, 18, 19],
                0x40b1_e495_dd6d_1481,
                53,
                0x31ce_c321_1106_55e5,
            ),
            (
                "clustered/seed3/1x1",
                &[0, 1, 2, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 15, 17, 19],
                0x4097_5b94_14f8_a5c6,
                7,
                0x5560_575f_0fc1_572c,
            ),
            (
                "clustered/seed3/3x2",
                &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19],
                0x4098_ce9c_7291_ed0c,
                17,
                0x919e_0e5b_07d2_d1bb,
            ),
            (
                "clustered/seed3/6x4",
                &[0, 1, 2, 4, 5, 6, 7, 9, 10, 11, 12, 13, 14, 16, 17, 19],
                0x4096_bd3a_1626_3782,
                53,
                0xc82c_bd16_c75d_f5dd,
            ),
            (
                "powerlaw/seed3/1x1",
                &[0, 2, 4, 5, 6, 8, 9, 10, 11, 12, 14, 16, 17, 19],
                0x4079_5af1_04d9_54a8,
                7,
                0xa17f_ca2a_2455_5c63,
            ),
            (
                "powerlaw/seed3/3x2",
                &[2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19],
                0x407d_6d16_6230_514e,
                17,
                0x86cd_b666_5523_f585,
            ),
            (
                "powerlaw/seed3/6x4",
                &[0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 19],
                0x407a_92ab_d02c_b98c,
                53,
                0xc36e_0b23_8419_7261,
            ),
            (
                "grid/6x4",
                &[0, 1, 3, 5, 6, 7, 8, 9, 10, 11],
                0x4077_6c8d_f53b_7320,
                53,
                0x3711_7cb6_4f00_9c8a,
            ),
            (
                "lossy/6x4",
                &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19],
                0x40b9_2b0e_ee92_5f50,
                53,
                0xdd58_bcb8_4733_7ae0,
            ),
        ],
    );
}

#[test]
fn distributed_rounding_outputs_match_their_pins() {
    check(
        round_runs(),
        &[
            (
                "uniform/spread2/trials0",
                &[2, 8, 9, 12, 14, 15],
                0x40b0_5db2_f697_9260,
                5,
                0x2531_315e_908a_6529,
            ),
            (
                "uniform/spread2/trials2",
                &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19],
                0x40b9_2b0e_ee92_5f50,
                9,
                0xfb2f_5fb8_a04d_42e5,
            ),
            (
                "uniform/spread2/trials6",
                &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19],
                0x40b9_2b0e_ee92_5f50,
                17,
                0xab51_2d96_b860_5a5d,
            ),
            (
                "uniform/spread4/trials0",
                &[2, 8, 9, 12, 14, 15],
                0x40b0_5db2_f697_9260,
                5,
                0x2531_315e_908a_6529,
            ),
            (
                "uniform/spread4/trials2",
                &[1, 2, 3, 4, 5, 6, 7, 10, 11, 12, 14, 15, 16, 17, 19],
                0x40b5_5df3_0e5b_bb54,
                9,
                0x6af6_381f_3819_3729,
            ),
            (
                "uniform/spread4/trials6",
                &[1, 2, 3, 4, 5, 6, 7, 10, 11, 12, 14, 15, 16, 17, 19],
                0x40b5_5df3_0e5b_bb54,
                17,
                0xc6e4_0bbe_d4c3_9871,
            ),
            (
                "grid/spread2/trials0",
                &[0, 1, 3, 5, 6, 7, 8, 9, 10, 11],
                0x4077_cc8d_f53b_7320,
                5,
                0xd6bd_0a42_4f96_469e,
            ),
            (
                "grid/spread2/trials2",
                &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
                0x407a_a32f_567b_a960,
                9,
                0x13ab_348a_aa68_e606,
            ),
            (
                "grid/spread2/trials6",
                &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
                0x407a_a32f_567b_a960,
                17,
                0x1d9d_567a_aacc_815e,
            ),
            (
                "grid/spread4/trials0",
                &[0, 1, 3, 5, 6, 7, 8, 9, 10, 11],
                0x4077_cc8d_f53b_7320,
                5,
                0xd6bd_0a42_4f96_469e,
            ),
            (
                "grid/spread4/trials2",
                &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
                0x407a_a32f_567b_a960,
                9,
                0x13ab_348a_aa68_e606,
            ),
            (
                "grid/spread4/trials6",
                &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
                0x407a_a32f_567b_a960,
                17,
                0x1d9d_567a_aacc_815e,
            ),
            (
                "lossy",
                &[1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18],
                0x40b7_b616_5311_c2a0,
                25,
                0x6165_c8df_b611_70df,
            ),
        ],
    );
}

#[test]
fn straw_man_outputs_match_their_pins() {
    check(
        straw_man_runs(),
        &[
            ("uniform", &[2, 4], 0x4097_33ec_11a9_f4d4, 146, 0x821a_0d1b_1760_7e1e),
            ("clustered", &[0, 1, 8], 0x4080_1241_f789_e311, 164, 0xbe0e_a0d3_8a17_2469),
            ("grid", &[0, 1, 2, 5], 0x4061_b5e8_ade8_23e7, 89, 0x3549_0bd9_e18d_6c1b),
        ],
    );
}
