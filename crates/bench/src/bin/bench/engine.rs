//! `bench engine`: the CONGEST round pipeline (BENCH_1.json).
//!
//! Measures rounds/sec, messages/sec, and peak per-round heap allocations
//! for a flood workload on three topology families (line, grid, dense
//! bipartite) across thread counts {1, 2, 4, 8}, for both the current
//! engine and a faithful replica of the seed engine's round pipeline
//! (fresh outbox `Vec` per node per round, unconditional per-outbox sort,
//! linear crash scan, transcript clone at the end).

use std::time::Instant;

use distfl_congest::{CongestConfig, Network, NodeId, NodeLogic, RoundStats, StepCtx, Topology};
use distfl_obs::JsonWriter;

use crate::{count_allocs, Mode, Report};

/// Floods a counter to every neighbor for a fixed number of rounds.
struct Flood {
    rounds: u32,
    done: bool,
}

impl NodeLogic for Flood {
    type Msg = u64;
    fn step(&mut self, ctx: &mut StepCtx<'_, u64>) {
        if ctx.round() < self.rounds {
            ctx.broadcast(u64::from(ctx.round()));
        } else {
            self.done = true;
        }
    }
    fn is_done(&self) -> bool {
        self.done
    }
}

/// One engine measurement: throughput plus allocation profile.
#[derive(Clone, Copy)]
struct Measurement {
    rounds_per_sec: f64,
    messages_per_sec: f64,
    /// Max allocations observed in any single round (includes warm-up).
    peak_round_allocs: u64,
    /// Max allocations in any round after the second (pools warmed).
    steady_round_allocs: u64,
}

/// Drives the current engine round by round, tracking per-round allocs.
fn measure_engine(topo: &Topology, threads: Option<usize>, rounds: u32) -> Measurement {
    let n = topo.num_nodes();
    let nodes: Vec<Flood> = (0..n).map(|_| Flood { rounds, done: false }).collect();
    let config = CongestConfig { threads, ..CongestConfig::default() };
    let mut net = Network::with_config(topo.clone(), nodes, 7, config).expect("network");
    let mut peak = 0u64;
    let mut steady = 0u64;
    let start = Instant::now();
    let mut executed = 0u32;
    while !net.all_done() {
        let (stepped, delta) = count_allocs(|| net.step());
        stepped.expect("flood never violates the model");
        peak = peak.max(delta);
        if executed >= 2 {
            steady = steady.max(delta);
        }
        executed += 1;
        assert!(executed <= rounds + 2, "flood failed to terminate");
    }
    let elapsed = start.elapsed().as_secs_f64();
    let messages = net.transcript().total_messages();
    Measurement {
        rounds_per_sec: f64::from(executed) / elapsed,
        messages_per_sec: messages as f64 / elapsed,
        peak_round_allocs: peak,
        steady_round_allocs: steady,
    }
}

/// A faithful replica of the seed engine's round pipeline, kept here as
/// the comparison baseline: per-node `Vec::new()` outboxes every round,
/// unconditional sort of every outbox, a linear crash-schedule scan per
/// node per round, per-round spawn of scoped worker threads for stepping,
/// and a transcript clone at the end.
mod seed_replica {
    use super::{count_allocs, Instant, Measurement, NodeId, RoundStats, Topology};

    struct Flood {
        rounds: u32,
        done: bool,
    }

    struct StepOutcome {
        outbox: Vec<(NodeId, u64)>,
    }

    fn step_one(topo: &Topology, node: &mut Flood, index: usize, round: u32) -> StepOutcome {
        // Seed shape: a fresh outbox Vec per node per round.
        let mut outbox: Vec<(NodeId, u64)> = Vec::new();
        let id = NodeId::new(index as u32);
        if round < node.rounds {
            for &nb in topo.neighbors(id) {
                outbox.push((nb, u64::from(round)));
            }
        } else {
            node.done = true;
        }
        StepOutcome { outbox }
    }

    pub(super) fn measure(topo: &Topology, threads: Option<usize>, rounds: u32) -> Measurement {
        let n = topo.num_nodes();
        let mut nodes: Vec<Flood> = (0..n).map(|_| Flood { rounds, done: false }).collect();
        let mut inboxes: Vec<Vec<(NodeId, u64)>> = (0..n).map(|_| Vec::new()).collect();
        let crashes: Vec<(NodeId, u32)> = Vec::new();
        let mut transcript: Vec<RoundStats> = Vec::new();
        let threads = threads.unwrap_or(1).max(1);

        let mut peak = 0u64;
        let mut steady = 0u64;
        let mut executed = 0u32;
        let start = Instant::now();
        loop {
            // Seed's all_done: linear crash scan per node per round.
            let round = executed;
            let all_done = nodes.iter().enumerate().all(|(i, l)| {
                l.done || crashes.iter().any(|&(id, r)| id.index() == i && r <= round)
            });
            if all_done {
                break;
            }
            assert!(executed <= rounds + 2, "replica failed to terminate");
            let ((), delta) = count_allocs(|| {
                // Step stage: fresh outcome vec each round; threaded
                // exactly like the seed (scoped spawn per chunk, every
                // round).
                let mut outcomes: Vec<StepOutcome> = Vec::with_capacity(n);
                if threads <= 1 || n < 2 * threads {
                    for (index, node) in nodes.iter_mut().enumerate() {
                        outcomes.push(step_one(topo, node, index, round));
                    }
                } else {
                    outcomes.extend((0..n).map(|_| StepOutcome { outbox: Vec::new() }));
                    let chunk = n.div_ceil(threads);
                    std::thread::scope(|scope| {
                        for (chunk_index, (node_chunk, out_chunk)) in
                            nodes.chunks_mut(chunk).zip(outcomes.chunks_mut(chunk)).enumerate()
                        {
                            let base = chunk_index * chunk;
                            scope.spawn(move || {
                                for (offset, node) in node_chunk.iter_mut().enumerate() {
                                    out_chunk[offset] = step_one(topo, node, base + offset, round);
                                }
                            });
                        }
                    });
                }

                // Delivery: seed shape — reuse inbox buffers, move each
                // outbox out, sort it unconditionally.
                for ib in &mut inboxes {
                    ib.clear();
                }
                let mut stats = RoundStats { round, ..RoundStats::default() };
                for (src_index, outcome) in outcomes.into_iter().enumerate() {
                    let src = NodeId::new(src_index as u32);
                    let mut sorted = outcome.outbox;
                    sorted.sort_by_key(|(dst, _)| *dst);
                    let mut run_dst: Option<NodeId> = None;
                    let mut run_len: u64 = 0;
                    for (dst, msg) in sorted {
                        if run_dst == Some(dst) {
                            run_len += 1;
                        } else {
                            run_dst = Some(dst);
                            run_len = 1;
                        }
                        stats.max_messages_per_edge = stats.max_messages_per_edge.max(run_len);
                        let bits = 64;
                        stats.messages += 1;
                        stats.bits += bits;
                        stats.max_message_bits = stats.max_message_bits.max(bits);
                        inboxes[dst.index()].push((src, msg));
                    }
                }
                transcript.push(stats);
            });
            peak = peak.max(delta);
            if executed >= 2 {
                steady = steady.max(delta);
            }
            executed += 1;
        }
        // Seed's run() returned `self.transcript.clone()`.
        let cloned = transcript.clone();
        let elapsed = start.elapsed().as_secs_f64();
        let messages: u64 = cloned.iter().map(|s| s.messages).sum();
        Measurement {
            rounds_per_sec: f64::from(executed) / elapsed,
            messages_per_sec: messages as f64 / elapsed,
            peak_round_allocs: peak,
            steady_round_allocs: steady,
        }
    }
}

/// The fastest of `reps` measurements, with the fewest allocations any
/// of them saw.
fn best(reps: usize, mut f: impl FnMut() -> Measurement) -> Measurement {
    let mut out = f();
    for _ in 1..reps {
        let m = f();
        if m.rounds_per_sec > out.rounds_per_sec {
            out = Measurement {
                rounds_per_sec: m.rounds_per_sec,
                messages_per_sec: m.messages_per_sec,
                ..out
            };
        }
        out.peak_round_allocs = out.peak_round_allocs.min(m.peak_round_allocs);
        out.steady_round_allocs = out.steady_round_allocs.min(m.steady_round_allocs);
    }
    out
}

fn write_measurement(w: &mut JsonWriter, m: &Measurement) {
    w.begin_object();
    w.key("rounds_per_sec").number(m.rounds_per_sec);
    w.key("messages_per_sec").number(m.messages_per_sec);
    w.key("peak_round_allocs").number_u64(m.peak_round_allocs);
    w.key("steady_round_allocs").number_u64(m.steady_round_allocs);
    w.end_object();
}

pub(crate) fn run(mode: Mode) -> Report {
    let quick = mode.quick();
    let (reps, rounds) = if quick { (1usize, 5u32) } else { (3usize, 20u32) };
    let topologies: Vec<(&str, Topology)> = if quick {
        vec![
            ("line_200", Topology::grid(1, 200).unwrap()),
            ("grid_10x20", Topology::grid(10, 20).unwrap()),
            ("dense_bipartite_60x400", Topology::complete_bipartite(60, 400).unwrap()),
        ]
    } else {
        vec![
            ("line_4000", Topology::grid(1, 4000).unwrap()),
            ("grid_50x80", Topology::grid(50, 80).unwrap()),
            ("dense_bipartite_60x400", Topology::complete_bipartite(60, 400).unwrap()),
        ]
    };

    let mut w = JsonWriter::object();
    w.key("bench").string("engine_round_pipeline");
    w.key("mode").string(mode.name());
    w.key("workload").string("flood (broadcast to all neighbors every round)");
    w.key("baseline").string(
        "seed engine replica: per-round outbox allocation, unconditional sort, transcript clone",
    );
    w.key("results").begin_array();
    for (name, topo) in &topologies {
        for &threads in &[1usize, 2, 4, 8] {
            let opt = (threads > 1).then_some(threads);
            let engine = best(reps, || measure_engine(topo, opt, rounds));
            let baseline = best(reps, || seed_replica::measure(topo, opt, rounds));
            let speedup = engine.rounds_per_sec / baseline.rounds_per_sec;
            eprintln!(
                "{name:<24} threads={threads} engine={:>10.0} r/s baseline={:>10.0} r/s \
                 speedup={speedup:.2}x steady_allocs={} vs {}",
                engine.rounds_per_sec,
                baseline.rounds_per_sec,
                engine.steady_round_allocs,
                baseline.steady_round_allocs,
            );
            w.begin_object();
            w.key("topology").string(name);
            w.key("nodes").number_u64(topo.num_nodes() as u64);
            w.key("edges").number_u64(topo.num_edges() as u64);
            w.key("rounds").number_u64(u64::from(rounds));
            w.key("threads").number_u64(threads as u64);
            w.key("engine");
            write_measurement(&mut w, &engine);
            w.key("baseline");
            write_measurement(&mut w, &baseline);
            w.key("speedup").number(speedup);
            w.end_object();
        }
    }
    w.end_array();
    Report { document: Some(w.finish()), passed: true }
}
