//! `bench sim`: the CONGEST simulator's wall-clock-vs-k curve
//! (BENCH_9.json).
//!
//! The paper's guarantee is `O(k)` *rounds* for a `k√ρ`-approximation;
//! rounds only translate into time once they cost real, heterogeneous
//! latency. This suite runs PayDual at a sweep of phase counts `k`
//! through [`distfl_core::paydual::PayDual::run_simulated`] under three
//! latency families — constant, uniform (heavy reordering), and
//! lognormal (heavy tail) — and records the simulated makespan next to
//! the round count, so the trade-off "more phases, better cost, linearly
//! more virtual time" is measured, not modeled. Every timed row first
//! asserts the simulator's transcript is **bit-identical** to the
//! lock-step engine's for the same seed: a makespan reported here is the
//! makespan of the *same* execution the rest of the workspace measures.
//!
//! Every field of the document is deterministic (virtual time, rounds,
//! envelope counts, cost; no host times), so CI regenerates BENCH_9.json
//! and compares it byte for byte. `--smoke` skips the sweep and records
//! no document: it runs only the CI gate — engine-vs-sim transcript
//! equivalence across the three latency families and bit-identical replay
//! of the clock (same `SimReport` and transcript twice). `--quick`
//! shrinks the sweep for a fast local run.

use std::time::Instant;

use distfl_congest::{LatencyModel, SimConfig};
use distfl_core::paydual::{PayDual, PayDualParams, SimulatedRun};
use distfl_core::FlAlgorithm;
use distfl_instance::generators::{InstanceGenerator, UniformRandom};
use distfl_instance::Instance;
use distfl_obs::JsonWriter;

use crate::{Mode, Report};

/// The benchmark's latency families: one of each supported shape, all
/// with a ~50 µs center so makespans are comparable across rows.
fn latency_models() -> [(&'static str, LatencyModel); 3] {
    [
        ("constant_50us", LatencyModel::Constant(50_000)),
        ("uniform_10_200us", LatencyModel::Uniform { lo: 10_000, hi: 200_000 }),
        ("lognormal_med50us_s1", LatencyModel::LogNormal { median_nanos: 50_000.0, sigma: 1.0 }),
    ]
}

/// One simulated PayDual run at phase count `k`, checked bit-identical
/// against the lock-step engine before anything is reported.
fn simulate(inst: &Instance, k: u32, model: LatencyModel, seed: u64) -> SimulatedRun {
    let algo = PayDual::new(PayDualParams::with_phases(k));
    let config = SimConfig { latency: model, latency_seed: seed ^ 0xBE9C, ..SimConfig::default() };
    let sim = algo.run_simulated(inst, seed, config).expect("simulated run");
    let lockstep = algo.run(inst, seed).expect("lock-step run");
    assert_eq!(
        sim.outcome.transcript, lockstep.transcript,
        "simulator transcript diverged from the engine at k={k}"
    );
    assert_eq!(
        sim.outcome.solution, lockstep.solution,
        "simulator solution diverged from the engine at k={k}"
    );
    sim
}

// ---- Smoke gate -------------------------------------------------------

/// The CI gate: transcript equivalence across all three latency families
/// (the assertions inside [`simulate`]), plus a deterministic clock — an
/// identical configuration replayed from scratch must reproduce the same
/// virtual timeline, not just the same transcript.
fn smoke() -> bool {
    let mut ok = true;
    let inst = UniformRandom::new(8, 40).unwrap().generate(9).unwrap();

    for (name, model) in latency_models() {
        let outcome = std::panic::catch_unwind(|| simulate(&inst, 6, model, 3));
        match outcome {
            Err(_) => {
                eprintln!("smoke FAILED: engine/sim divergence under {name}");
                ok = false;
            }
            Ok(first) => {
                let replay = simulate(&inst, 6, model, 3);
                if replay.report != first.report {
                    eprintln!("smoke FAILED: virtual timeline not deterministic under {name}");
                    ok = false;
                }
            }
        }
    }
    if ok {
        eprintln!("bench sim smoke: transcripts bit-identical to the engine, replay deterministic");
    }
    ok
}

pub(crate) fn run(mode: Mode) -> Report {
    if mode == Mode::Smoke {
        return Report { document: None, passed: smoke() };
    }

    let inst = UniformRandom::new(30, 150).unwrap().generate(9).unwrap();
    let ks: &[u32] = if mode.quick() { &[1, 4, 16] } else { &[1, 2, 4, 8, 16, 32] };

    let mut w = JsonWriter::object();
    w.key("bench").string("sim_wall_clock_vs_k");
    w.key("instance").string("uniform_30x150");
    w.key("method").string(
        "PayDual at phase count k run on the lock-step engine, each step timed by the \
         alpha-synchronizer's clock over per-edge latency draws (compute 1 us per step); each \
         row's transcript and solution are asserted bit-identical to the engine's own run \
         before its virtual makespan is reported",
    );
    w.key("latency_models").begin_array();
    for (name, model) in latency_models() {
        w.begin_object();
        w.key("latency").string(name);
        w.key("rows").begin_array();
        for &k in ks {
            let start = Instant::now();
            let run = simulate(&inst, k, model, 9);
            let host_ms = start.elapsed().as_secs_f64() * 1e3;
            let rounds = run
                .outcome
                .transcript
                .as_ref()
                .expect("simulated runs produce transcripts")
                .num_rounds();
            let virtual_ms = run.report.virtual_nanos as f64 / 1e6;
            let cost = run.outcome.solution.cost(&inst).value();
            eprintln!(
                "{name:<22} k {k:>3}  rounds {rounds:>4}  virtual {virtual_ms:>10.3} ms  \
                 cost {cost:>10.2}  host {host_ms:>7.1} ms",
            );
            w.begin_object();
            w.key("k").number_u64(u64::from(k));
            w.key("rounds").number_u64(u64::from(rounds));
            w.key("modeled_rounds");
            match run.outcome.modeled_rounds {
                Some(r) => w.number_u64(u64::from(r)),
                None => w.null(),
            };
            w.key("virtual_ms").number(virtual_ms);
            w.key("cost").number(cost);
            w.key("protocol_envelopes").number_u64(run.report.protocol_envelopes);
            w.key("pulse_envelopes").number_u64(run.report.pulse_envelopes);
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    Report { document: Some(w.finish()), passed: true }
}
