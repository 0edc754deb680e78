//! Property-based tests of the CONGEST engine over random topologies.

use proptest::prelude::*;

use distfl_congest::bfs::aggregate;
use distfl_congest::{
    CongestConfig, CongestError, FaultPlan, Network, NodeId, NodeLogic, StepCtx, Topology,
    Transcript, WorkerPool,
};

/// A recipe for a random simple graph: node count plus an edge mask.
#[derive(Debug, Clone)]
struct GraphRecipe {
    n: usize,
    edges: Vec<(usize, usize)>,
}

fn graph_strategy(connected: bool) -> impl Strategy<Value = GraphRecipe> {
    (3usize..12, prop::collection::vec((0usize..12, 0usize..12), 0..30)).prop_map(
        move |(n, raw)| {
            let mut edges: Vec<(usize, usize)> = raw
                .into_iter()
                .map(|(a, b)| (a % n, b % n))
                .filter(|(a, b)| a != b)
                .map(|(a, b)| (a.min(b), a.max(b)))
                .collect();
            if connected {
                // Add a spanning path so the graph is connected.
                for i in 0..n - 1 {
                    edges.push((i, i + 1));
                }
            }
            edges.sort_unstable();
            edges.dedup();
            GraphRecipe { n, edges }
        },
    )
}

/// Like [`graph_strategy`] but with more nodes (16..40), so every chunk
/// of a round stepped on 8 lanes holds several nodes.
fn big_graph_strategy() -> impl Strategy<Value = GraphRecipe> {
    (16usize..40, prop::collection::vec((0usize..40, 0usize..40), 0..140)).prop_map(|(n, raw)| {
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

/// Broadcasts its id for a fixed number of rounds; records everything.
struct Chatter {
    rounds: u32,
    sent: u64,
    heard: Vec<u32>,
    done: bool,
}

impl Chatter {
    fn new(rounds: u32) -> Self {
        Chatter { rounds, sent: 0, heard: Vec::new(), done: false }
    }
}

impl NodeLogic for Chatter {
    type Msg = u32;
    fn step(&mut self, ctx: &mut StepCtx<'_, u32>) {
        self.heard.extend(ctx.inbox().iter().map(|(_, m)| *m));
        if ctx.round() < self.rounds {
            ctx.broadcast(ctx.id().raw());
            self.sent += ctx.degree() as u64;
        } else {
            self.done = true;
        }
    }
    fn is_done(&self) -> bool {
        self.done
    }
}

/// Records every delivery as `(round, sender, payload)` and carries a
/// per-node evolving state word, so serial-vs-parallel comparisons cover
/// inbox contents *and* final node state bit-for-bit.
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
        if ctx.round() < self.rounds {
            // Payload depends on id, round, and accumulated state so any
            // reordering or drop divergence cascades loudly.
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

/// Full engine state observable from outside after a run.
type RunFingerprint = (Transcript, Vec<(u64, Vec<(u32, u32, u64)>, bool)>);

fn fingerprint_with(recipe: &GraphRecipe, config: CongestConfig, rounds: u32) -> RunFingerprint {
    let nodes: Vec<Scribe> = (0..recipe.n).map(|_| Scribe::new(rounds)).collect();
    let mut net = Network::with_config(build(recipe), nodes, 11, config).unwrap();
    net.run(rounds + 2).unwrap();
    let (nodes, transcript) = net.into_parts();
    let states = nodes.into_iter().map(|s| (s.state, s.log, s.done)).collect();
    (transcript, states)
}

fn fingerprint(
    recipe: &GraphRecipe,
    threads: Option<usize>,
    fault: Option<FaultPlan>,
    crashes: &[(NodeId, u32)],
    rounds: u32,
) -> RunFingerprint {
    let config =
        CongestConfig { threads, fault, crashes: crashes.to_vec(), ..CongestConfig::default() };
    fingerprint_with(recipe, config, rounds)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Across every thread count the engine supports, random topologies,
    /// message-drop fault plans, and crash-stop schedules must yield
    /// bit-identical transcripts, per-round inbox logs, and final node
    /// states.
    #[test]
    fn sharded_delivery_matches_serial_exactly(
        recipe in graph_strategy(false),
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
        let serial = fingerprint(&recipe, None, fault, &crashes, rounds);
        for threads in [1usize, 2, 4, 8] {
            // Capped at the global pool's parallelism.
            let parallel = fingerprint(&recipe, Some(threads), fault, &crashes, rounds);
            prop_assert_eq!(
                &serial.0, &parallel.0, "transcript diverged at {} threads", threads
            );
            prop_assert_eq!(
                &serial.1, &parallel.1, "node state diverged at {} threads", threads
            );
        }
    }

    /// Pool-backed execution (explicit pools of 1/2/4/8 workers; every
    /// round on 2 or more lanes steps on the pool) must be bit-identical
    /// to serial stepping — transcripts, per-round inbox logs, and final
    /// node states — under message-drop faults and crash-stop schedules.
    /// Independent of the host's core count: the pools spawn real OS
    /// threads regardless.
    #[test]
    fn pool_backed_execution_matches_fused_serial(
        recipe in big_graph_strategy(),
        drop_p in 0.0f64..1.0,
        fault_seed in 0u64..1000,
        crash_raw in prop::collection::vec((0usize..40, 0u32..6), 0..4),
        rounds in 1u32..6,
    ) {
        let crashes: Vec<(NodeId, u32)> = crash_raw
            .iter()
            .map(|&(node, round)| (NodeId::new((node % recipe.n) as u32), round))
            .collect();
        let fault = Some(FaultPlan::drop_with_probability(drop_p, fault_seed));
        let serial = fingerprint(&recipe, None, fault, &crashes, rounds);
        for workers in [1usize, 2, 4, 8] {
            let config = CongestConfig {
                threads: Some(workers),
                pool: Some(WorkerPool::shared(workers)),
                fault,
                crashes: crashes.clone(),
            };
            let pooled = fingerprint_with(&recipe, config, rounds);
            prop_assert_eq!(
                &serial.0, &pooled.0, "transcript diverged at {} pool workers", workers
            );
            prop_assert_eq!(
                &serial.1, &pooled.1, "node state diverged at {} pool workers", workers
            );
        }
    }

    #[test]
    fn messages_are_conserved(recipe in graph_strategy(false), rounds in 1u32..5) {
        let topo = build(&recipe);
        let nodes: Vec<Chatter> = (0..recipe.n).map(|_| Chatter::new(rounds)).collect();
        let mut net = Network::new(topo, nodes, 1).unwrap();
        net.run(rounds + 2).unwrap();
        let sent: u64 = net.nodes().iter().map(|c| c.sent).sum();
        let heard: u64 = net.nodes().iter().map(|c| c.heard.len() as u64).sum();
        let t = net.transcript();
        prop_assert_eq!(t.total_messages(), sent);
        prop_assert_eq!(heard, sent, "every sent message is delivered exactly once");
        prop_assert_eq!(t.total_dropped(), 0);
    }

    #[test]
    fn parallel_execution_is_identical(recipe in graph_strategy(false), threads in 2usize..6) {
        let topo = build(&recipe);
        let run = |threads: Option<usize>| {
            let nodes: Vec<Chatter> = (0..recipe.n).map(|_| Chatter::new(3)).collect();
            let config = CongestConfig { threads, ..CongestConfig::default() };
            let mut net = Network::with_config(build(&recipe), nodes, 7, config).unwrap();
            net.run(10).unwrap();
            let heard: Vec<Vec<u32>> =
                net.nodes().iter().map(|c| c.heard.clone()).collect();
            (net.into_transcript(), heard)
        };
        let _ = topo;
        let (ts, hs) = run(None);
        let (tp, hp) = run(Some(threads));
        prop_assert_eq!(ts, tp);
        prop_assert_eq!(hs, hp);
    }

    #[test]
    fn drops_scale_with_probability(recipe in graph_strategy(false), seed in 0u64..100) {
        let topo = build(&recipe);
        if topo.num_edges() == 0 {
            return Ok(());
        }
        let run_dropped = |p: f64| {
            let nodes: Vec<Chatter> = (0..recipe.n).map(|_| Chatter::new(4)).collect();
            let config = CongestConfig {
                fault: Some(FaultPlan::drop_with_probability(p, seed)),
                ..CongestConfig::default()
            };
            let mut net = Network::with_config(build(&recipe), nodes, 1, config).unwrap();
            net.run(10).unwrap().total_dropped()
        };
        prop_assert_eq!(run_dropped(0.0), 0);
        let all = run_dropped(1.0);
        let half = run_dropped(0.5);
        prop_assert!(half <= all);
        let sent = 4 * 2 * topo.num_edges() as u64;
        prop_assert_eq!(all, sent, "p=1 drops everything that was sent");
    }

    #[test]
    fn inboxes_are_sorted_by_sender(recipe in graph_strategy(false)) {
        struct Check { ok: bool, done: bool }
        impl NodeLogic for Check {
            type Msg = u32;
            fn step(&mut self, ctx: &mut StepCtx<'_, u32>) {
                if ctx.round() == 0 {
                    ctx.broadcast(0);
                } else {
                    self.ok = ctx.inbox().windows(2).all(|w| w[0].0 <= w[1].0);
                    self.done = true;
                }
            }
            fn is_done(&self) -> bool {
                self.done
            }
        }
        let topo = build(&recipe);
        let nodes: Vec<Check> = (0..recipe.n).map(|_| Check { ok: false, done: false }).collect();
        let mut net = Network::new(topo, nodes, 0).unwrap();
        net.run(5).unwrap();
        prop_assert!(net.nodes().iter().all(|c| c.ok));
    }

    #[test]
    fn tree_aggregation_is_exact_on_random_connected_graphs(
        recipe in graph_strategy(true),
        root in 0usize..12,
        values in prop::collection::vec(0.0f64..100.0, 12),
    ) {
        let topo = build(&recipe);
        let root = NodeId::new((root % recipe.n) as u32);
        let vals = &values[..recipe.n];
        let (sum, t) = aggregate(&topo, root, vals).unwrap();
        prop_assert!((sum - vals.iter().sum::<f64>()).abs() < 1e-9);
        prop_assert!(t.congest_compliant(72));
    }

    #[test]
    fn connectivity_check_agrees_with_aggregation(recipe in graph_strategy(false)) {
        let topo = build(&recipe);
        let vals = vec![1.0; recipe.n];
        let outcome = aggregate(&topo, NodeId::new(0), &vals);
        if topo.is_connected() {
            let (sum, _) = outcome.unwrap();
            prop_assert_eq!(sum, recipe.n as f64);
        } else {
            let is_round_limit = matches!(outcome, Err(CongestError::RoundLimit { .. }));
            prop_assert!(is_round_limit, "disconnected graph should hit the round limit");
        }
    }
}
