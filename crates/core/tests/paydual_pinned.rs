//! PayDual's outputs pinned bit for bit.
//!
//! MetricBall and Outliers are checked against sequential reference twins
//! (`portfolio_equivalence`); PayDual has none. This test pins instead a
//! fingerprint of each run on a fixed list: the solution's assignment,
//! every round's [`RoundStats`](distfl_congest::RoundStats), the bits of
//! the dual values and, for the simulated run, the virtual-clock report.
//! A change to the topology, the engine or the node logic that alters one
//! message, one float sum or one tie-break moves a fingerprint.
//!
//! The list covers the four solver-mix families at 20×200 (seeds 1–3), a
//! sparse `GridNetwork`, a lossy run and one simulated run.

use distfl_congest::{FaultPlan, LatencyModel, SimConfig};
use distfl_core::paydual::{PayDual, PayDualParams};
use distfl_core::{FlAlgorithm, Outcome};
use distfl_instance::generators::{
    Clustered, Euclidean, GridNetwork, InstanceGenerator, PowerLaw, UniformRandom,
};
use distfl_instance::Instance;

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

fn fingerprint(instance: &Instance, outcome: &Outcome) -> Fnv {
    let mut h = Fnv::new();
    for j in instance.clients() {
        h.word(u64::from(outcome.solution.assigned(j).raw()));
    }
    for r in outcome.transcript.as_ref().expect("paydual reports rounds").rounds() {
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
    for a in outcome.dual.as_ref().expect("paydual reports duals").alpha() {
        h.word(a.to_bits());
    }
    h
}

/// The pinned runs as `(name, fingerprint)`, in a fixed order.
fn runs() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let plain = PayDual::new(PayDualParams::default());
    for seed in 1..=3u64 {
        let families: [(&str, Instance); 4] = [
            ("euclidean", Euclidean::new(20, 200).unwrap().generate(seed).unwrap()),
            ("uniform", UniformRandom::new(20, 200).unwrap().generate(seed).unwrap()),
            ("clustered", Clustered::new(4, 20, 200).unwrap().generate(seed).unwrap()),
            ("powerlaw", PowerLaw::new(20, 200, 64.0).unwrap().generate(seed).unwrap()),
        ];
        for (name, inst) in families {
            let outcome = plain.run(&inst, seed).unwrap();
            out.push((format!("{name}/seed{seed}"), fingerprint(&inst, &outcome).0));
        }
    }

    let grid = GridNetwork::with_radius(10, 10, 12, 80, 2).unwrap().generate(4).unwrap();
    assert!(!grid.is_complete(), "the grid instance should be sparse");
    let outcome = plain.run(&grid, 4).unwrap();
    out.push(("grid".to_owned(), fingerprint(&grid, &outcome).0));

    let uniform = UniformRandom::new(20, 200).unwrap().generate(1).unwrap();
    let lossy = PayDual::new(PayDualParams {
        fault: Some(FaultPlan::drop_with_probability(0.3, 5)),
        ..PayDualParams::default()
    });
    let outcome = lossy.run(&uniform, 1).unwrap();
    out.push(("lossy".to_owned(), fingerprint(&uniform, &outcome).0));

    let euclid = Euclidean::new(20, 200).unwrap().generate(2).unwrap();
    let sim = SimConfig {
        latency: LatencyModel::Uniform { lo: 1, hi: 50_000 },
        latency_seed: 9,
        ..SimConfig::default()
    };
    let run = plain.run_simulated(&euclid, 2, sim).unwrap();
    let mut h = fingerprint(&euclid, &run.outcome);
    let report = &run.report;
    for w in [
        report.virtual_nanos,
        report.events_processed,
        report.protocol_envelopes,
        report.pulse_envelopes,
    ] {
        h.word(w);
    }
    for &(start, end) in &report.round_spans {
        h.word(start);
        h.word(end);
    }
    out.push(("simulated".to_owned(), h.0));
    out
}

#[test]
fn paydual_outputs_match_their_pinned_fingerprints() {
    // A change meant to keep PayDual bit-identical reproduces these; one
    // that changes PayDual on purpose re-records them.
    let pinned: &[(&str, u64)] = &[
        ("euclidean/seed1", 0xfc8b_de1e_d9f5_9855),
        ("uniform/seed1", 0x80a5_ecf4_647e_2033),
        ("clustered/seed1", 0xf4f3_dcb5_386f_5698),
        ("powerlaw/seed1", 0xa35d_0cd4_b749_c04f),
        ("euclidean/seed2", 0x1a3b_fbd4_e6fa_7682),
        ("uniform/seed2", 0xc54e_c8e3_8a85_8f1a),
        ("clustered/seed2", 0x1ddf_41f9_144d_a484),
        ("powerlaw/seed2", 0xa4f3_deeb_8dd6_9c68),
        ("euclidean/seed3", 0xf7f3_8559_0faa_eb93),
        ("uniform/seed3", 0x2876_9f3c_38bc_93d2),
        ("clustered/seed3", 0xb0a9_e694_4ab9_1b87),
        ("powerlaw/seed3", 0x9b12_f297_82fa_0679),
        ("grid", 0xc1b2_abe8_3b36_76dd),
        ("lossy", 0xb1b1_4a27_8f36_4f05),
        ("simulated", 0xb4d4_4d10_0912_5ee9),
    ];
    let got = runs();
    let got: Vec<(&str, u64)> = got.iter().map(|(n, f)| (n.as_str(), *f)).collect();
    assert_eq!(got, pinned);
}
