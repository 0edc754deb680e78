//! The α-synchronizer of the event-driven reference simulator
//! (`reference.rs`): per-node round bookkeeping that lets lock-step
//! [`NodeLogic`](crate::NodeLogic) protocols run over an asynchronous
//! message substrate **unmodified**. Test-only, like the reference.
//!
//! ## Protocol
//!
//! Every time a node finishes its local step of round `r`, it emits exactly
//! one [`Envelope`] per incident edge: the protocol messages addressed to
//! that neighbor in round `r`, or an empty *pulse* when there are none.
//! Envelopes are round-tagged, so links need not be FIFO — a late round-3
//! envelope overtaken by a round-4 one is buffered under its own round and
//! consumed in order. A node may step round `r + 1` once it holds the
//! round-`r` envelope of every neighbor that can still send one:
//!
//! * a neighbor whose round-`d` envelope carried the *final* flag (its
//!   logic reported done during round `d`) is silent from round `d + 1` on;
//! * a crashed neighbor is silent from its crash round on — the simulator
//!   plays the role of a perfect failure detector, which is sound in this
//!   setting because crash schedules are part of the (deterministic)
//!   configuration, exactly like the lock-step engine's
//!   [`CongestConfig::crashes`](crate::CongestConfig::crashes).
//!
//! Dropped payloads still occupy their envelope: fault injection removes
//! the protocol *message*, not the link-layer framing, so a lossy edge
//! never deadlocks the synchronizer.
//!
//! ## Equivalence
//!
//! Because a node's round-`r` inbox is reassembled from the round-`r`
//! envelopes in ascending neighbor order (and each envelope preserves the
//! sender's outbox order), the inbox slice handed to `NodeLogic::step` is
//! byte-for-byte the one the lock-step engine would have produced; the
//! node RNG stream is derived from the same `(master seed, node, round)`
//! triple. Local computation is therefore bit-identical, and with it the
//! whole [`Transcript`](crate::Transcript). Since the inboxes are the
//! engine's, the synchronizer decides only *when* each step runs, which is
//! what lets [`Simulator`](crate::Simulator) run the engine itself and
//! keep only the timing.

use crate::message::Payload;
use crate::node::NodeId;

/// Everything one directed edge carries for one round: the payloads (often
/// none — then the envelope is a pure synchronizer pulse) and whether the
/// sender's logic completed during this round.
#[derive(Debug, Clone)]
pub(crate) struct Envelope<M> {
    /// Sending node.
    pub src: NodeId,
    /// Round the sender executed when emitting this envelope.
    pub round: u32,
    /// Protocol messages for the receiver that survived fault injection,
    /// in the sender's outbox order.
    pub payloads: Vec<M>,
    /// The sender reported done during this round: no envelope with a
    /// higher round will ever leave it.
    pub final_round: bool,
}

/// Envelopes buffered for one future round, one slot per neighbor (indexed
/// by the neighbor's position in the node's sorted neighbor list).
#[derive(Debug)]
struct RoundBuf<M> {
    slots: Vec<Option<Envelope<M>>>,
}

impl<M> RoundBuf<M> {
    fn new(degree: usize) -> Self {
        RoundBuf { slots: (0..degree).map(|_| None).collect() }
    }
}

/// Per-node synchronizer state: which round the node steps next, which
/// neighbors have gone silent, and the per-round envelope buffers.
#[derive(Debug)]
pub(crate) struct SyncState<M> {
    /// The next round this node's logic executes.
    pub next_round: u32,
    /// Whether a `Step` event for `next_round` is already on the queue.
    pub step_scheduled: bool,
    /// The logic reported done (checked after each step, and once at
    /// bootstrap, mirroring the engine's pre-step `is_done` gate).
    pub done: bool,
    /// First round from which each neighbor sends nothing, `u32::MAX`
    /// while the neighbor is live. Set by crash schedules (failure
    /// detector) and by final envelopes.
    silent_from: Vec<u32>,
    /// Buffered envelopes keyed by round. Entries are created on first
    /// arrival and consumed (removed) when the node steps past the round.
    bufs: std::collections::BTreeMap<u32, RoundBuf<M>>,
}

impl<M: Payload> SyncState<M> {
    pub fn new(degree: usize) -> Self {
        SyncState {
            next_round: 0,
            step_scheduled: false,
            done: false,
            silent_from: vec![u32::MAX; degree],
            bufs: std::collections::BTreeMap::new(),
        }
    }

    /// Marks a neighbor silent from `round` on (keeps the earliest bound).
    pub fn silence(&mut self, neighbor_index: usize, round: u32) {
        let slot = &mut self.silent_from[neighbor_index];
        *slot = (*slot).min(round);
    }

    /// Buffers an arrived envelope under its round tag; a final envelope
    /// silences its sender from the next round on. `degree` is this
    /// node's degree (buffer width).
    pub fn receive(&mut self, neighbor_index: usize, degree: usize, env: Envelope<M>) {
        if env.final_round {
            self.silence(neighbor_index, env.round + 1);
        }
        let buf = self.bufs.entry(env.round).or_insert_with(|| RoundBuf::new(degree));
        debug_assert!(buf.slots[neighbor_index].is_none(), "one envelope per edge per round");
        buf.slots[neighbor_index] = Some(env);
    }

    /// Whether the node can execute `self.next_round`: every neighbor has
    /// either delivered its envelope for the *previous* round or gone
    /// silent before it. Round 0 has no dependencies.
    pub fn ready(&self) -> bool {
        let round = self.next_round;
        if round == 0 {
            return true;
        }
        let need = round - 1;
        let buf = self.bufs.get(&need);
        self.silent_from
            .iter()
            .enumerate()
            .all(|(j, &silent)| need >= silent || buf.is_some_and(|b| b.slots[j].is_some()))
    }

    /// Removes and returns the envelopes feeding the inbox of `round`
    /// (i.e. the buffered round `round - 1` envelopes), discarding any
    /// older buffered rounds. Slots of silent neighbors are `None`.
    pub fn take_inbox_envelopes(&mut self, round: u32) -> Vec<Option<Envelope<M>>> {
        if round == 0 {
            return Vec::new();
        }
        let need = round - 1;
        while let Some((&r, _)) = self.bufs.first_key_value() {
            if r < need {
                self.bufs.pop_first();
            } else {
                break;
            }
        }
        match self.bufs.remove(&need) {
            Some(buf) => buf.slots,
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The envelope neighbor `src` sends in `round`, carrying `payloads`.
    fn env(src: u32, round: u32, payloads: Vec<u64>, final_round: bool) -> Envelope<u64> {
        Envelope { src: NodeId::new(src), round, payloads, final_round }
    }

    /// The senders of a taken inbox, slot by slot (`None` for an empty
    /// slot).
    fn senders(slots: &[Option<Envelope<u64>>]) -> Vec<Option<u32>> {
        slots.iter().map(|slot| slot.as_ref().map(|e| e.src.raw())).collect()
    }

    #[test]
    fn an_early_envelope_waits_under_its_own_round() {
        let mut state = SyncState::new(2);
        state.next_round = 3;
        // Neighbor 0's round-3 envelope overtakes the round-2 envelopes.
        state.receive(0, 2, env(10, 3, vec![30], false));
        assert!(!state.ready(), "round 3 needs the round-2 envelopes, not round 3's");
        state.receive(1, 2, env(11, 2, vec![21], false));
        assert!(!state.ready(), "neighbor 0's round-2 envelope is still missing");
        state.receive(0, 2, env(10, 2, vec![20], false));
        assert!(state.ready());
        let inbox = state.take_inbox_envelopes(3);
        assert_eq!(senders(&inbox), [Some(10), Some(11)]);
        let payloads: Vec<Vec<u64>> = inbox.into_iter().flatten().map(|e| e.payloads).collect();
        assert_eq!(payloads, [vec![20], vec![21]]);

        state.next_round = 4;
        assert!(!state.ready(), "neighbor 1's round-3 envelope is still missing");
        state.receive(1, 2, env(11, 3, vec![31], false));
        assert!(state.ready());
        let payloads: Vec<Vec<u64>> =
            state.take_inbox_envelopes(4).into_iter().flatten().map(|e| e.payloads).collect();
        assert_eq!(payloads, [vec![30], vec![31]], "the early envelope feeds round 4");
    }

    #[test]
    fn a_final_envelope_silences_its_sender_from_the_next_round() {
        let mut state = SyncState::new(2);
        for round in 0..2 {
            state.receive(0, 2, env(10, round, vec![], round == 1));
            state.receive(1, 2, env(11, round, vec![], false));
        }
        state.next_round = 2;
        assert!(state.ready(), "both round-1 envelopes are in");
        state.take_inbox_envelopes(2);
        state.next_round = 3;
        assert!(!state.ready(), "neighbor 1 is live and its round-2 envelope is missing");
        state.receive(1, 2, env(11, 2, vec![], false));
        assert!(state.ready(), "neighbor 0 sent its final envelope in round 1");
        assert_eq!(senders(&state.take_inbox_envelopes(3)), [None, Some(11)]);
    }

    #[test]
    fn a_crashed_neighbor_is_silent_from_its_crash_round() {
        let mut state = SyncState::new(2);
        state.silence(1, 2);
        state.silence(1, 5);
        // Before the crash round the neighbor is still waited for.
        state.receive(0, 2, env(10, 1, vec![], false));
        state.next_round = 2;
        assert!(!state.ready(), "neighbor 1 still sends in round 1");
        state.receive(1, 2, env(11, 1, vec![], false));
        assert!(state.ready());
        state.take_inbox_envelopes(2);
        // From round 2 on it is not, and the later bound did not move it.
        state.receive(0, 2, env(10, 2, vec![], false));
        state.next_round = 3;
        assert!(state.ready(), "neighbor 1 crashed at round 2");
        assert_eq!(senders(&state.take_inbox_envelopes(3)), [Some(10), None]);
    }

    #[test]
    fn taking_an_inbox_drops_older_rounds_and_keeps_neighbor_order() {
        let mut state = SyncState::new(3);
        state.receive(1, 3, env(11, 0, vec![1], false));
        // Round 2 arrives out of neighbor order; neighbor 1 sends nothing.
        state.receive(2, 3, env(12, 2, vec![5, 6], false));
        state.receive(0, 3, env(10, 2, vec![4], false));
        state.receive(1, 3, env(11, 3, vec![7], false));
        assert!(state.take_inbox_envelopes(0).is_empty(), "round 0 has no inbox");
        let inbox = state.take_inbox_envelopes(3);
        assert_eq!(senders(&inbox), [Some(10), None, Some(12)]);
        assert_eq!(inbox[2].as_ref().map(|e| e.payloads.clone()), Some(vec![5, 6]));
        assert_eq!(state.bufs.keys().copied().collect::<Vec<_>>(), [3], "round 0 was discarded");
        assert!(state.take_inbox_envelopes(1).is_empty(), "round 0's envelopes are gone");
        assert_eq!(senders(&state.take_inbox_envelopes(4)), [None, Some(11), None]);
    }
}
