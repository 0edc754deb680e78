//! Property-based equivalence tests between the discrete-event simulator
//! and the lock-step engine.
//!
//! The α-synchronizer's contract is that virtual time is *invisible* to the
//! protocol: whatever latency distribution, bandwidth cap, partition
//! schedule, fault plan, or crash schedule the simulator runs under, the
//! inbox slices, RNG streams, transcripts, and final node states (each
//! node's `(round, sender, payload)` delivery log included) must be
//! bit-identical to a lock-step [`Network`] run with the
//! same master seed. These tests pin that contract over random topologies.

use proptest::prelude::*;

use distfl_congest::{
    decode_accusation, CongestConfig, FaultPlan, LatencyModel, Network, NodeId, NodeLogic,
    PartitionWindow, SimConfig, Simulator, StepCtx, Topology, Transcript,
};

/// A recipe for a random simple graph: node count plus an edge list.
#[derive(Debug, Clone)]
struct GraphRecipe {
    n: usize,
    edges: Vec<(usize, usize)>,
}

fn graph_strategy() -> impl Strategy<Value = GraphRecipe> {
    (3usize..12, prop::collection::vec((0usize..12, 0usize..12), 0..30)).prop_map(|(n, raw)| {
        let mut edges: Vec<(usize, usize)> = raw
            .into_iter()
            .map(|(a, b)| (a % n, b % n))
            .filter(|(a, b)| a != b)
            .map(|(a, b)| (a.min(b), a.max(b)))
            .collect();
        edges.sort_unstable();
        edges.dedup();
        GraphRecipe { n, edges }
    })
}

fn build(recipe: &GraphRecipe) -> Topology {
    Topology::from_edges(
        recipe.n,
        recipe.edges.iter().map(|&(a, b)| (NodeId::new(a as u32), NodeId::new(b as u32))),
    )
    .expect("recipe produces simple graphs")
}

/// One of each latency family, parameterised by the proptest inputs so the
/// sweep covers degenerate (zero-latency), wide-uniform (maximal
/// reordering), and heavy-tailed shapes.
fn latency_strategy() -> impl Strategy<Value = LatencyModel> {
    prop_oneof![
        (0u64..200_000).prop_map(LatencyModel::Constant),
        (0u64..50_000, 1u64..500_000)
            .prop_map(|(lo, span)| LatencyModel::Uniform { lo, hi: lo + span }),
        (1.0f64..100_000.0, 0.05f64..2.0)
            .prop_map(|(median_nanos, sigma)| LatencyModel::LogNormal { median_nanos, sigma }),
    ]
}

fn partition_strategy() -> impl Strategy<Value = Vec<PartitionWindow>> {
    prop::collection::vec((0u64..400_000, 1u64..400_000, 0u32..12), 0..3).prop_map(|raw| {
        raw.into_iter()
            .map(|(start, span, boundary)| PartitionWindow {
                start_nanos: start,
                end_nanos: start + span,
                boundary,
            })
            .collect()
    })
}

/// Records every delivery as `(round, sender, payload)` and carries an
/// evolving state word, so any inbox-order or drop divergence between the
/// two executions cascades loudly into the fingerprint.
struct Scribe {
    rounds: u32,
    state: u64,
    log: Vec<(u32, u32, u64)>,
    done: bool,
}

impl Scribe {
    fn new(rounds: u32) -> Self {
        Scribe { rounds, state: 0, log: Vec::new(), done: false }
    }
}

impl NodeLogic for Scribe {
    type Msg = u64;
    fn step(&mut self, ctx: &mut StepCtx<'_, u64>) {
        for &(src, msg) in ctx.inbox() {
            self.log.push((ctx.round(), src.raw(), msg));
            self.state = self.state.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(msg);
        }
        // Mix in the per-round node RNG so the test also pins the RNG
        // stream equivalence, not just inbox contents.
        self.state ^= ctx.rng().below(1 << 30);
        if ctx.round() < self.rounds {
            let payload =
                (u64::from(ctx.id().raw()) << 32) | u64::from(ctx.round()) ^ (self.state & 0xffff);
            ctx.broadcast(payload);
        } else {
            self.done = true;
        }
    }
    fn is_done(&self) -> bool {
        self.done
    }
}

/// Full externally observable run state: transcript, plus each node's
/// final state word, delivery log, and done flag. The logs pin every
/// delivery; with the transcript's per-round drop counts they pin every
/// drop too.
type RunFingerprint = (Transcript, Vec<(u64, Vec<(u32, u32, u64)>, bool)>);

const MASTER_SEED: u64 = 11;

fn engine_fingerprint(
    recipe: &GraphRecipe,
    fault: Option<FaultPlan>,
    crashes: &[(NodeId, u32)],
    rounds: u32,
) -> RunFingerprint {
    let nodes: Vec<Scribe> = (0..recipe.n).map(|_| Scribe::new(rounds)).collect();
    let config = CongestConfig { fault, crashes: crashes.to_vec(), ..CongestConfig::default() };
    let mut net = Network::with_config(build(recipe), nodes, MASTER_SEED, config).unwrap();
    net.run(rounds + 2).unwrap();
    let (nodes, transcript) = net.into_parts();
    let states = nodes.into_iter().map(|s| (s.state, s.log, s.done)).collect();
    (transcript, states)
}

fn sim_fingerprint(recipe: &GraphRecipe, config: SimConfig, rounds: u32) -> RunFingerprint {
    let nodes: Vec<Scribe> = (0..recipe.n).map(|_| Scribe::new(rounds)).collect();
    let mut sim = Simulator::new(build(recipe), nodes, MASTER_SEED, config).unwrap();
    sim.run(rounds + 2).unwrap();
    let (nodes, transcript) = sim.into_parts();
    let states = nodes.into_iter().map(|s| (s.state, s.log, s.done)).collect();
    (transcript, states)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The tentpole property: across random topologies, latency
    /// distributions (hence message reorderings), bandwidth caps,
    /// partition schedules, message-drop fault plans, and crash-stop
    /// schedules, the simulator's transcript and every node's final state
    /// and delivery log must be bit-identical to the lock-step engine's.
    #[test]
    fn sim_matches_lockstep(
        recipe in graph_strategy(),
        latency in latency_strategy(),
        latency_seed in 0u64..1000,
        compute_nanos in 0u64..100_000,
        bandwidth in prop::option::of(1u64..500),
        partitions in partition_strategy(),
        drop_p in 0.0f64..1.0,
        fault_seed in 0u64..1000,
        crash_raw in prop::collection::vec((0usize..12, 0u32..6), 0..4),
        rounds in 1u32..6,
    ) {
        let crashes: Vec<(NodeId, u32)> = crash_raw
            .iter()
            .map(|&(node, round)| (NodeId::new((node % recipe.n) as u32), round))
            .collect();
        let fault = Some(FaultPlan::drop_with_probability(drop_p, fault_seed));
        let reference = engine_fingerprint(&recipe, fault, &crashes, rounds);
        let config = SimConfig {
            latency,
            latency_seed,
            compute_nanos,
            bandwidth_bits_per_us: bandwidth,
            partitions,
            fault,
            crashes,
            ..SimConfig::default()
        };
        let simulated = sim_fingerprint(&recipe, config, rounds);
        prop_assert_eq!(&reference.0, &simulated.0, "transcript diverged");
        prop_assert_eq!(&reference.1, &simulated.1, "node state diverged");
    }

    /// Virtual time is deterministic too: two simulator runs with the same
    /// configuration agree on the full [`distfl_congest::SimReport`], not
    /// just the transcript — the event heap's `(time, seq)` ordering
    /// leaves no room for platform- or iteration-order dependence.
    #[test]
    fn sim_replay_is_bit_identical(
        recipe in graph_strategy(),
        latency in latency_strategy(),
        latency_seed in 0u64..1000,
        rounds in 1u32..5,
    ) {
        let run = || {
            let nodes: Vec<Scribe> = (0..recipe.n).map(|_| Scribe::new(rounds)).collect();
            let config = SimConfig { latency, latency_seed, ..SimConfig::default() };
            let mut sim = Simulator::new(build(&recipe), nodes, MASTER_SEED, config).unwrap();
            sim.run(rounds + 2).unwrap();
            let report = sim.report().clone();
            let (nodes, transcript) = sim.into_parts();
            let states: Vec<(u64, bool)> =
                nodes.into_iter().map(|s| (s.state, s.done)).collect();
            (report, transcript, states)
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.0, b.0, "SimReport diverged between replays");
        prop_assert_eq!(a.1, b.1);
        prop_assert_eq!(a.2, b.2);
    }

    /// Clean runs (no faults, no losses, no crashes) never produce a
    /// faulty verdict, whatever the timing model does to delivery order.
    #[test]
    fn clean_runs_yield_honest_verdicts(
        recipe in graph_strategy(),
        latency in latency_strategy(),
        latency_seed in 0u64..1000,
        rounds in 1u32..5,
    ) {
        let nodes: Vec<Scribe> = (0..recipe.n).map(|_| Scribe::new(rounds)).collect();
        let config = SimConfig { latency, latency_seed, ..SimConfig::default() };
        let mut sim = Simulator::new(build(&recipe), nodes, MASTER_SEED, config).unwrap();
        sim.run(rounds + 2).unwrap();
        prop_assert!(sim.verdicts().iter().all(|v| !v.is_faulty()));
        let benign = sim
            .accusations()
            .iter()
            .all(|&a| decode_accusation(a).is_none_or(|(_, severity)| severity == 0));
        prop_assert!(benign, "clean run produced a non-zero-severity accusation");
    }
}
