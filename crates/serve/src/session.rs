//! Session-pinned instances: the server-side half of the warm-start
//! delta path.
//!
//! A `create` verb pins an [`Instance`] plus its [`WarmCache`] under a
//! client-chosen name; `mutate` applies a [`distfl_instance::DeltaBatch`]
//! and keeps the warm structures in sync; a session `solve` dispatches
//! through [`distfl_core::SolverKind::solve_warm`], which is
//! bit-identical to a cold solve of the same instance — so pinning is
//! purely a performance choice, never a semantic one.
//!
//! The cache is one name → session map guarded by one mutex: the map lock
//! covers only name resolution (cheap), while each session holds its
//! state behind its own `Arc<Mutex<_>>` so a long solve on one session
//! never blocks lookups or work on another. Capacity is LRU-bounded:
//! creating a new session at capacity evicts the least-recently-touched
//! one (clients observe that as `unknown_session` on their next verb — the
//! same response an explicit `drop` would produce). On shutdown the server
//! drains every admitted request first, then [`SessionCache::clear`]s the
//! map, so no in-flight session job ever observes a vanishing session.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

use distfl_core::warm::WarmCache;
use distfl_instance::Instance;

/// One pinned session: the current instance, the warm solver structures
/// kept in sync with it, and a mutation epoch.
#[derive(Debug)]
pub struct SessionState {
    /// The session's current instance.
    pub instance: Instance,
    /// Warm solver structures tracking `instance` delta-for-delta.
    pub warm: WarmCache,
    /// Mutation epoch: 0 at create, +1 per applied delta.
    pub epoch: u64,
}

impl SessionState {
    /// Pins `instance` at epoch 0 with an empty warm cache, whose solver
    /// families build their lanes on their first solve.
    pub fn new(instance: Instance) -> Self {
        SessionState { instance, warm: WarmCache::new(), epoch: 0 }
    }
}

/// A shared handle to one session's state. Same-session requests in a
/// batch are serialized by the scheduler; the mutex covers the remaining
/// cross-shard races (two connections naming the same session).
pub type SessionHandle = Arc<Mutex<SessionState>>;

struct Slot {
    /// Logical LRU timestamp (clock tick of the last touch).
    last_used: u64,
    state: SessionHandle,
}

struct Sessions {
    by_name: HashMap<String, Slot>,
    clock: u64,
}

impl Sessions {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }
}

/// The LRU-bounded map of pinned sessions, shared by every shard.
pub struct SessionCache {
    sessions: Mutex<Sessions>,
    capacity: usize,
}

impl SessionCache {
    /// An empty cache holding at most `capacity` sessions (minimum 1).
    pub fn new(capacity: usize) -> Self {
        SessionCache {
            sessions: Mutex::new(Sessions { by_name: HashMap::new(), clock: 0 }),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Sessions> {
        self.sessions.lock().expect("a thread panicked while holding the session map")
    }

    /// The configured session limit.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many sessions are currently pinned.
    pub fn len(&self) -> usize {
        self.lock().by_name.len()
    }

    /// Whether no session is pinned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pins `instance` under `name`, replacing any previous instance held
    /// there. Returns the session handle and whether an existing session
    /// was replaced. At capacity, creating a *new* name evicts the
    /// least-recently-touched session first.
    pub fn create(&self, name: &str, instance: Instance) -> (SessionHandle, bool) {
        let state: SessionHandle = Arc::new(Mutex::new(SessionState::new(instance)));
        let mut sessions = self.lock();
        let slot = Slot { last_used: sessions.tick(), state: Arc::clone(&state) };
        if let Some(existing) = sessions.by_name.get_mut(name) {
            *existing = slot;
            return (state, true);
        }
        if sessions.by_name.len() >= self.capacity {
            // Ticks are unique, so this drops exactly the LRU session.
            let oldest = sessions.by_name.values().map(|s| s.last_used).min();
            sessions.by_name.retain(|_, s| Some(s.last_used) != oldest);
        }
        sessions.by_name.insert(name.to_owned(), slot);
        (state, false)
    }

    /// Resolves `name` to its session handle, bumping its LRU position.
    pub fn get(&self, name: &str) -> Option<SessionHandle> {
        let mut sessions = self.lock();
        let now = sessions.tick();
        let slot = sessions.by_name.get_mut(name)?;
        slot.last_used = now;
        Some(Arc::clone(&slot.state))
    }

    /// Releases the session under `name`; returns whether it existed.
    pub fn drop_session(&self, name: &str) -> bool {
        self.lock().by_name.remove(name).is_some()
    }

    /// Releases every session — the shutdown drain's final step, called
    /// after all scheduler threads have joined so no in-flight job holds
    /// a handle.
    pub fn clear(&self) {
        self.lock().by_name.clear();
    }
}

impl std::fmt::Debug for SessionCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionCache")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distfl_instance::generators::{InstanceGenerator, UniformRandom};

    fn instance(seed: u64) -> Instance {
        UniformRandom::new(3, 8).unwrap().generate(seed).unwrap()
    }

    #[test]
    fn create_get_drop_round_trip() {
        let cache = SessionCache::new(4);
        assert!(cache.is_empty());
        let (handle, replaced) = cache.create("a", instance(1));
        assert!(!replaced);
        assert_eq!(cache.len(), 1);
        let again = cache.get("a").unwrap();
        assert!(Arc::ptr_eq(&handle, &again));
        assert_eq!(again.lock().unwrap().epoch, 0);
        assert!(cache.get("b").is_none());
        assert!(cache.drop_session("a"));
        assert!(!cache.drop_session("a"), "second drop reports missing");
        assert!(cache.is_empty());
    }

    #[test]
    fn create_replaces_in_place() {
        let cache = SessionCache::new(4);
        let (first, _) = cache.create("a", instance(1));
        let (second, replaced) = cache.create("a", instance(2));
        assert!(replaced);
        assert!(!Arc::ptr_eq(&first, &second), "replacement builds fresh state");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_eviction_prefers_the_coldest_session() {
        let cache = SessionCache::new(2);
        cache.create("a", instance(1));
        cache.create("b", instance(2));
        // Touch "a" so "b" is the LRU victim.
        cache.get("a").unwrap();
        cache.create("c", instance(3));
        assert_eq!(cache.len(), 2);
        assert!(cache.get("a").is_some());
        assert!(cache.get("b").is_none(), "LRU session evicted");
        assert!(cache.get("c").is_some());
    }

    #[test]
    fn clear_releases_everything() {
        let cache = SessionCache::new(4);
        cache.create("a", instance(1));
        cache.create("b", instance(2));
        cache.clear();
        assert!(cache.is_empty());
        assert!(cache.get("a").is_none());
    }
}
