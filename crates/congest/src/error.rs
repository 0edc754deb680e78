//! Error types for the simulator.

use std::fmt;

use crate::node::NodeId;

/// Errors produced while building topologies or running a [`crate::Network`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CongestError {
    /// A node id referenced a node outside the network.
    NodeOutOfRange {
        /// Offending id.
        id: NodeId,
        /// Number of nodes in the network.
        num_nodes: usize,
    },
    /// An edge was declared twice (topologies are simple graphs).
    DuplicateEdge {
        /// One endpoint.
        a: NodeId,
        /// Other endpoint.
        b: NodeId,
    },
    /// A self-loop was declared (topologies are simple graphs).
    SelfLoop {
        /// The node.
        id: NodeId,
    },
    /// A node tried to send a message to a non-neighbor.
    NotNeighbor {
        /// Sender.
        from: NodeId,
        /// Intended (non-adjacent) recipient.
        to: NodeId,
    },
    /// A node sent more than one message over the same edge in one round,
    /// which breaks the CONGEST discipline. Both executors fail the round
    /// with it.
    EdgeCongestion {
        /// Sender.
        from: NodeId,
        /// Recipient.
        to: NodeId,
        /// Round in which the violation occurred.
        round: u32,
    },
    /// `run` hit its round limit before every node reported done.
    RoundLimit {
        /// The limit that was exceeded.
        limit: u32,
        /// How many nodes were still not done.
        pending: usize,
    },
    /// The number of node-logic instances did not match the topology size.
    NodeCountMismatch {
        /// Nodes in the topology.
        topology: usize,
        /// Node-logic instances supplied.
        logics: usize,
    },
    /// A topology constructor was given parameters that make no graph
    /// (for example a ring on fewer than three nodes).
    InvalidTopology {
        /// Human-readable reason.
        reason: String,
    },
    /// A protocol run terminated without producing the result it exists to
    /// compute (for example an aggregate whose root never learned the
    /// value — reachable under message drops or crash-stop schedules).
    ProtocolIncomplete {
        /// Which protocol result was missing.
        what: &'static str,
    },
}

impl fmt::Display for CongestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CongestError::NodeOutOfRange { id, num_nodes } => {
                write!(f, "node id {id} out of range for network of {num_nodes} nodes")
            }
            CongestError::DuplicateEdge { a, b } => {
                write!(f, "duplicate edge between {a} and {b}")
            }
            CongestError::SelfLoop { id } => write!(f, "self-loop at node {id}"),
            CongestError::NotNeighbor { from, to } => {
                write!(f, "node {from} attempted to send to non-neighbor {to}")
            }
            CongestError::EdgeCongestion { from, to, round } => {
                write!(
                    f,
                    "more than one message from {from} to {to} in round {round} (CONGEST violation)"
                )
            }
            CongestError::RoundLimit { limit, pending } => {
                write!(f, "round limit {limit} reached with {pending} nodes still active")
            }
            CongestError::NodeCountMismatch { topology, logics } => {
                write!(
                    f,
                    "topology has {topology} nodes but {logics} node-logic instances were supplied"
                )
            }
            CongestError::InvalidTopology { reason } => {
                write!(f, "invalid topology: {reason}")
            }
            CongestError::ProtocolIncomplete { what } => {
                write!(f, "protocol terminated without its result: {what}")
            }
        }
    }
}

impl std::error::Error for CongestError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase_start() {
        let errs: Vec<CongestError> = vec![
            CongestError::NodeOutOfRange { id: NodeId::new(3), num_nodes: 2 },
            CongestError::DuplicateEdge { a: NodeId::new(0), b: NodeId::new(1) },
            CongestError::SelfLoop { id: NodeId::new(0) },
            CongestError::NotNeighbor { from: NodeId::new(0), to: NodeId::new(1) },
            CongestError::EdgeCongestion { from: NodeId::new(0), to: NodeId::new(1), round: 7 },
            CongestError::RoundLimit { limit: 10, pending: 4 },
            CongestError::NodeCountMismatch { topology: 5, logics: 4 },
            CongestError::InvalidTopology { reason: "empty".into() },
            CongestError::ProtocolIncomplete { what: "bfs aggregate" },
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(!s.ends_with('.'), "no trailing punctuation: {s}");
        }
    }

    #[test]
    fn error_trait_object_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CongestError>();
    }
}
