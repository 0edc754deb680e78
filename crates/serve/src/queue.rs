//! The bounded admission queue between the reactor and one shard's
//! batching scheduler.
//!
//! The reactor admits each pipelined burst of requests with one
//! [`Admission::push_group`] under one lock (non-blocking: a full queue is
//! an immediate typed error back to the client, never a hang), and the
//! shard's scheduler thread `pop_batch`es (blocking). Closing the queue
//! stops admission while letting the scheduler drain what was already
//! admitted — the mechanism behind graceful shutdown.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// The queue holds `capacity` items; the client should retry later.
    Full,
    /// The queue was closed for admission (server draining).
    Closed,
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer single-consumer queue with a close switch.
pub struct Admission<T> {
    state: Mutex<State<T>>,
    nonempty: Condvar,
    capacity: usize,
}

fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Queue state is a plain VecDeque + flag, coherent at every step.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<T> Admission<T> {
    /// An open queue admitting at most `capacity` (≥ 1) queued items.
    pub fn new(capacity: usize) -> Self {
        Admission {
            state: Mutex::new(State { items: VecDeque::new(), closed: false }),
            nonempty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued (racy by nature; for metrics and tests).
    pub fn depth(&self) -> usize {
        relock(&self.state).items.len()
    }

    /// Admits every item of `group` that fits under **one** lock
    /// acquisition (the pipelined fast path: a burst of requests already
    /// sitting on a socket becomes one queue transaction, not one per
    /// request), returning the refused items with their reasons, in
    /// order, so the caller can answer the client without re-parsing.
    /// Never blocks. The consumer is notified once when anything was
    /// admitted.
    pub fn push_group(&self, group: Vec<T>) -> Vec<(T, AdmitError)> {
        let mut rejected = Vec::new();
        let mut admitted = false;
        {
            let mut state = relock(&self.state);
            for item in group {
                if state.closed {
                    rejected.push((item, AdmitError::Closed));
                } else if state.items.len() >= self.capacity {
                    rejected.push((item, AdmitError::Full));
                } else {
                    state.items.push_back(item);
                    admitted = true;
                }
            }
        }
        if admitted {
            self.nonempty.notify_one();
        }
        rejected
    }

    /// Closes the queue for admission and wakes the consumer. Items
    /// already queued remain poppable (drain semantics).
    pub fn close(&self) {
        relock(&self.state).closed = true;
        self.nonempty.notify_all();
    }

    /// Blocks until at least one item is available (or the queue is
    /// closed and empty), then removes and returns up to `max` items in
    /// admission order. An empty result means: closed and fully drained.
    pub fn pop_batch(&self, max: usize) -> Vec<T> {
        let mut state = relock(&self.state);
        while state.items.is_empty() && !state.closed {
            state = self.nonempty.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
        let take = state.items.len().min(max.max(1));
        state.items.drain(..take).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Admits a group of one item, which must fit.
    fn admit<T>(q: &Admission<T>, item: T) {
        assert!(q.push_group(vec![item]).is_empty(), "item refused");
    }

    #[test]
    fn push_refuses_when_full_and_returns_the_item() {
        let q = Admission::new(2);
        admit(&q, 1);
        admit(&q, 2);
        assert_eq!(q.depth(), 2);
        assert_eq!(q.push_group(vec![3]), vec![(3, AdmitError::Full)]);
        // Popping frees capacity again.
        assert_eq!(q.pop_batch(10), vec![1, 2]);
        admit(&q, 3);
    }

    #[test]
    fn close_refuses_new_items_but_drains_queued_ones() {
        let q = Admission::new(4);
        admit(&q, "a");
        q.close();
        assert_eq!(q.push_group(vec!["b"]), vec![("b", AdmitError::Closed)]);
        assert_eq!(q.pop_batch(10), vec!["a"]);
        assert!(q.pop_batch(10).is_empty(), "closed + drained pops empty");
    }

    #[test]
    fn push_group_admits_what_fits_and_returns_the_rest() {
        let q = Admission::new(3);
        admit(&q, 0);
        let rejected = q.push_group(vec![1, 2, 3, 4]);
        assert_eq!(rejected, vec![(3, AdmitError::Full), (4, AdmitError::Full)]);
        assert_eq!(q.pop_batch(10), vec![0, 1, 2]);
        q.close();
        let rejected = q.push_group(vec![9]);
        assert_eq!(rejected, vec![(9, AdmitError::Closed)]);
    }

    #[test]
    fn pop_batch_respects_max_and_order() {
        let q = Admission::new(10);
        for i in 0..7 {
            admit(&q, i);
        }
        assert_eq!(q.pop_batch(3), vec![0, 1, 2]);
        assert_eq!(q.pop_batch(3), vec![3, 4, 5]);
        assert_eq!(q.pop_batch(3), vec![6]);
    }

    #[test]
    fn pop_batch_blocks_until_a_push_arrives() {
        let q = Arc::new(Admission::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_batch(8))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        admit(&q, 42);
        assert_eq!(consumer.join().unwrap(), vec![42]);
    }

    #[test]
    fn close_unblocks_a_waiting_consumer() {
        let q: Arc<Admission<u32>> = Arc::new(Admission::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_batch(8))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert!(consumer.join().unwrap().is_empty());
    }
}
