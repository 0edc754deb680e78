//! BFS spanning trees and tree aggregation (convergecast / broadcast).
//!
//! The classic `O(D)`-round building blocks of distributed computing:
//!
//! 1. **Tree construction** — the root floods a `Grow` wave; every node
//!    adopts the first sender as its parent (ties to the lowest id, so the
//!    tree is the canonical BFS tree).
//! 2. **Convergecast** — leaves start an upward wave of partial sums of
//!    the local values; each internal node adds its children's reports to
//!    its own value and forwards once all children reported.
//! 3. **Broadcast** — the root floods the sum back down.
//!
//! The solution audits of `distfl-core::audit` (a cost and an open-count
//! sum) run on these primitives;
//! the executed straw-man (`distfl-core::seqdist`) builds the same tree
//! with its own messages, since it convergecasts a pair per picked star.
//! The protocol is also a good stress test of the engine: variable-length
//! phases, node-specific termination, and message causality.

use crate::engine::{Network, StepCtx};
use crate::error::CongestError;
use crate::message::Payload;
use crate::metrics::Transcript;
use crate::node::{NodeId, NodeLogic};
use crate::topology::Topology;

/// Messages of the aggregation protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BfsMsg {
    /// Downward tree-construction wave.
    Grow,
    /// "You are my parent" — adoption confirmation; a `Grow` received
    /// from a neighbor instead serves as the rejection (the sender joined
    /// through someone else).
    Child,
    /// Upward partial sum.
    Up(f64),
    /// Downward final sum.
    Down(f64),
}

impl Payload for BfsMsg {
    fn size_bits(&self) -> u64 {
        match self {
            BfsMsg::Up(_) | BfsMsg::Down(_) => 72,
            _ => 8,
        }
    }

    /// Canonical wire encoding: one tag byte, plus the big-endian partial
    /// sum for `Up`/`Down` — exactly the [`BfsMsg::size_bits`]
    /// budget. Used by the wire-format test to keep the declared sizes
    /// honest.
    fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(9);
        match self {
            BfsMsg::Grow => b.push(0),
            BfsMsg::Child => b.push(1),
            BfsMsg::Up(v) => {
                b.push(2);
                b.extend_from_slice(&v.to_be_bytes());
            }
            BfsMsg::Down(v) => {
                b.push(3);
                b.extend_from_slice(&v.to_be_bytes());
            }
        }
        b
    }
}

/// Per-node state of the aggregation protocol.
#[derive(Debug, Clone)]
pub struct BfsNode {
    is_root: bool,
    parent: Option<NodeId>,
    /// Confirmed children.
    children: Vec<NodeId>,
    /// Neighbors that have answered the adoption question.
    answered: usize,
    /// Number of answers expected (degree, minus one for non-roots).
    answered_target: usize,
    /// Own value plus the partial sums the children reported so far.
    partial: f64,
    reported_children: usize,
    sent_up: bool,
    result: Option<f64>,
    joined_round: Option<u32>,
    done: bool,
}

impl BfsNode {
    /// Creates the state for one node.
    pub fn new(is_root: bool, value: f64) -> Self {
        BfsNode {
            is_root,
            parent: None,
            children: Vec::new(),
            answered: 0,
            answered_target: usize::MAX,
            partial: value,
            reported_children: 0,
            sent_up: false,
            result: None,
            joined_round: None,
            done: false,
        }
    }

    /// The sum, once known (after the downward wave).
    pub fn result(&self) -> Option<f64> {
        self.result
    }

    /// This node's BFS parent (None for the root or unreached nodes).
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    /// This node's BFS depth wave round (0 for the root).
    pub fn joined_round(&self) -> Option<u32> {
        self.joined_round
    }

    /// Whether all children have reported and the upward value can go out.
    fn ready_to_report(&self) -> bool {
        !self.sent_up
            && self.answered == self.answered_target
            && self.reported_children == self.children.len()
    }
}

impl NodeLogic for BfsNode {
    type Msg = BfsMsg;

    fn step(&mut self, ctx: &mut StepCtx<'_, BfsMsg>) {
        let r = ctx.round();
        // Phase A: join the tree.
        if self.joined_round.is_none() {
            if self.is_root {
                self.joined_round = Some(r);
                self.answered_target = ctx.degree();
                ctx.broadcast(BfsMsg::Grow);
                return;
            }
            let grow_from: Option<NodeId> = ctx
                .inbox()
                .iter()
                .filter(|(_, m)| matches!(m, BfsMsg::Grow))
                .map(|&(src, _)| src)
                .min();
            if let Some(parent) = grow_from {
                self.joined_round = Some(r);
                self.parent = Some(parent);
                self.answered_target = ctx.degree() - 1;
                // Simultaneous Grow senders other than the chosen parent
                // already have parents of their own: they count as answers.
                self.answered += ctx
                    .inbox()
                    .iter()
                    .filter(|(src, m)| matches!(m, BfsMsg::Grow) && *src != parent)
                    .count();
                for &nb in ctx.neighbors() {
                    let msg = if nb == parent { BfsMsg::Child } else { BfsMsg::Grow };
                    ctx.send(nb, msg).expect("neighbors are valid targets");
                }
            }
            // Nodes that joined this round still need to process answers in
            // later rounds; fall through is fine.
        } else {
            // Phase B: collect adoption answers, child reports, results.
            for &(src, msg) in ctx.inbox() {
                match msg {
                    BfsMsg::Child => {
                        self.children.push(src);
                        self.answered += 1;
                    }
                    // A Grow from a neighbor that already has another
                    // parent counts as "not my child".
                    BfsMsg::Grow => {
                        self.answered += 1;
                    }
                    BfsMsg::Up(v) => {
                        self.partial += v;
                        self.reported_children += 1;
                    }
                    BfsMsg::Down(v) => {
                        if self.result.is_none() {
                            self.result = Some(v);
                            for &child in &self.children {
                                ctx.send(child, BfsMsg::Down(v)).expect("children are neighbors");
                            }
                            self.done = true;
                        }
                    }
                }
            }
            if self.ready_to_report() {
                self.sent_up = true;
                if self.is_root {
                    let v = self.partial;
                    self.result = Some(v);
                    for &child in &self.children {
                        ctx.send(child, BfsMsg::Down(v)).expect("children are neighbors");
                    }
                    self.done = true;
                } else if let Some(parent) = self.parent {
                    ctx.send(parent, BfsMsg::Up(self.partial)).expect("parent is a neighbor");
                }
            }
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

/// Runs the full aggregate protocol on `topology`: builds a BFS tree from
/// `root`, convergecasts the sum of `values`, and broadcasts it to every
/// node. Returns the sum and the transcript.
///
/// # Errors
///
/// Returns a [`CongestError`] if the topology and value vector disagree,
/// the graph is disconnected (round limit), or the simulation fails.
pub fn aggregate(
    topology: &Topology,
    root: NodeId,
    values: &[f64],
) -> Result<(f64, Transcript), CongestError> {
    if values.len() != topology.num_nodes() {
        return Err(CongestError::NodeCountMismatch {
            topology: topology.num_nodes(),
            logics: values.len(),
        });
    }
    let nodes: Vec<BfsNode> = (0..topology.num_nodes())
        .map(|i| BfsNode::new(NodeId::new(i as u32) == root, values[i]))
        .collect();
    let mut net = Network::new(topology.clone(), nodes, 0)?;
    // 4 * n rounds is a generous bound; disconnected graphs hit it.
    let limit = 4 * topology.num_nodes() as u32 + 8;
    net.run(limit)?;
    // On a fault-free network the root always learns the aggregate before
    // terminating, but a missing result is recoverable (the transcript is
    // still coherent), so it is reported as an error rather than a panic.
    let result = net.nodes()[root.index()]
        .result()
        .ok_or(CongestError::ProtocolIncomplete { what: "bfs aggregate root result" })?;
    Ok((result, net.into_transcript()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn values(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i * i % 17) as f64 + 0.5).collect()
    }

    #[test]
    fn wire_encoding_fits_the_declared_budget_and_is_distinct() {
        let msgs = [BfsMsg::Grow, BfsMsg::Child, BfsMsg::Up(1.5), BfsMsg::Down(1.5)];
        let mut encodings = Vec::new();
        for m in msgs {
            let enc = m.encode();
            assert!(
                (enc.len() as u64) * 8 <= m.size_bits(),
                "{m:?} encodes to {} bits but declares {}",
                enc.len() * 8,
                m.size_bits()
            );
            encodings.push(enc);
        }
        // Same aggregate value, different tags: encodings must differ.
        assert_eq!(encodings.iter().collect::<std::collections::HashSet<_>>().len(), 4);
        // The aggregate round-trips through the big-endian bytes.
        let enc = BfsMsg::Up(42.25).encode();
        assert_eq!(f64::from_be_bytes(enc[1..9].try_into().unwrap()), 42.25);
    }

    #[test]
    fn sum_on_a_ring() {
        let topo = Topology::ring(9).unwrap();
        let vals = values(9);
        let (got, t) = aggregate(&topo, NodeId::new(0), &vals).unwrap();
        assert!((got - vals.iter().sum::<f64>()).abs() < 1e-9);
        assert!(t.congest_compliant(72));
    }

    #[test]
    fn every_node_learns_the_result() {
        let topo = Topology::complete_bipartite(4, 7).unwrap();
        let vals = values(11);
        let nodes: Vec<BfsNode> = (0..11).map(|i| BfsNode::new(i == 2, vals[i])).collect();
        let mut net = Network::new(topo, nodes, 0).unwrap();
        net.run(100).unwrap();
        let expected: f64 = vals.iter().sum();
        for (i, node) in net.nodes().iter().enumerate() {
            let got = node.result().unwrap_or_else(|| panic!("node {i} missing result"));
            assert!((got - expected).abs() < 1e-9, "node {i}");
        }
    }

    #[test]
    fn rounds_scale_with_diameter_not_size() {
        // Ring of n: diameter n/2. Complete bipartite: diameter 2.
        let ring = Topology::ring(40).unwrap();
        let (_, t_ring) = aggregate(&ring, NodeId::new(0), &values(40)).unwrap();
        let dense = Topology::complete_bipartite(20, 20).unwrap();
        let (_, t_dense) = aggregate(&dense, NodeId::new(0), &values(40)).unwrap();
        assert!(
            t_dense.num_rounds() * 3 < t_ring.num_rounds(),
            "dense {} vs ring {}",
            t_dense.num_rounds(),
            t_ring.num_rounds()
        );
    }

    #[test]
    fn bfs_parents_form_a_tree_toward_the_root() {
        let topo = Topology::grid(4, 4).unwrap();
        let nodes: Vec<BfsNode> = (0..16).map(|i| BfsNode::new(i == 0, 1.0)).collect();
        let mut net = Network::new(topo.clone(), nodes, 0).unwrap();
        net.run(100).unwrap();
        for (i, node) in net.nodes().iter().enumerate() {
            if i == 0 {
                assert_eq!(node.parent(), None);
            } else {
                let p = node.parent().expect("connected graph: everyone joins");
                assert!(topo.are_neighbors(NodeId::new(i as u32), p));
                // Parent joined strictly earlier.
                assert!(
                    net.nodes()[p.index()].joined_round().unwrap() < node.joined_round().unwrap()
                );
            }
        }
    }

    #[test]
    fn rejects_mismatched_values() {
        let topo = Topology::ring(5).unwrap();
        let out = aggregate(&topo, NodeId::new(0), &[1.0, 2.0]);
        assert!(matches!(out, Err(CongestError::NodeCountMismatch { .. })));
    }
}
