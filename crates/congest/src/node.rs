//! Node identity and the per-node protocol logic trait.

use std::fmt;

use crate::engine::StepCtx;
use crate::message::Payload;

/// Identifier of a node in a [`crate::Network`].
///
/// Ids are dense indices `0..N`; they double as the `O(log N)`-bit unique
/// identifiers the CONGEST model hands to nodes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from its dense index.
    #[inline]
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// The dense index of this node.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw `u32` value.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NodeId({})", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// Protocol logic executed by one node.
///
/// The engine drives every node once per round via [`NodeLogic::step`]. A
/// node reads its inbox (messages sent to it in the *previous* round),
/// updates local state, and queues outgoing messages through the
/// [`StepCtx`]. When every node reports [`NodeLogic::is_done`], the run
/// stops.
///
/// Implementations must be deterministic given the inbox contents and the
/// context's [`crate::NodeRng`]; the engine guarantees the inbox is sorted
/// by sender id so serial and parallel execution agree bit-for-bit.
pub trait NodeLogic: Send {
    /// Message type exchanged by this protocol.
    type Msg: Payload;

    /// Executes one synchronous round.
    fn step(&mut self, ctx: &mut StepCtx<'_, Self::Msg>);

    /// Whether this node has terminated. Once `true`, [`NodeLogic::step`] is
    /// no longer invoked and the node sends nothing.
    fn is_done(&self) -> bool;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let id = NodeId::new(17);
        assert_eq!(id.index(), 17);
        assert_eq!(id.raw(), 17);
        assert_eq!(NodeId::from(17u32), id);
        assert_eq!(format!("{id}"), "n17");
        assert_eq!(format!("{id:?}"), "NodeId(17)");
    }

    #[test]
    fn node_id_ordering_matches_index() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert_eq!(NodeId::new(5), NodeId::new(5));
    }
}
