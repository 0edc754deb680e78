//! **distfl-obs** — the workspace observability substrate.
//!
//! Every layer of the pipeline (CONGEST engine rounds and stages, solver
//! phases, experiment sweeps) can record *spans* — named intervals with a
//! start timestamp and a duration — and bump *metrics* (cumulative
//! counters, last-value gauges). A run's recording can then be exported as
//! Chrome `trace_event` JSON (loadable in `chrome://tracing` or Perfetto)
//! or as a flat CSV.
//!
//! Design constraints, in order:
//!
//! 1. **Near-zero cost when disabled.** Tracing is off unless the
//!    `DISTFL_TRACE` environment variable (or [`set_enabled`]) turns it
//!    on. Every recording entry point is gated on a single relaxed atomic
//!    load; disabled spans carry no timestamps and disabled counters do
//!    not touch their cells, so the instrumented hot paths stay within
//!    noise of the uninstrumented build.
//! 2. **Never perturb determinism.** Recording only *observes*: it never
//!    feeds back into algorithm state, RNG draws, or message schedules, so
//!    transcripts and experiment CSVs are byte-identical with tracing on
//!    or off (timestamps live only in the trace artifacts).
//! 3. **No cross-thread contention on the hot path.** Events land in a
//!    per-thread ring buffer registered with a global list; the owning
//!    thread takes an uncontended lock per event, and other threads touch
//!    that lock only when a [`snapshot`] drains the buffers. A full ring
//!    overwrites its oldest events and counts them in
//!    [`Snapshot::dropped_events`].
//!
//! The span hierarchy used across the workspace (outer to inner):
//! `run → experiment → trial → phase → round → stage`, with category
//! labels `exp`, `solver`, and `engine` on the events.
//!
//! ```
//! distfl_obs::set_enabled(true);
//! {
//!     let _span = distfl_obs::span_arg("exp", "trial", 3);
//!     distfl_obs::counter("engine.rounds").add(17);
//! }
//! let snap = distfl_obs::snapshot();
//! assert_eq!(snap.events[0].name, "trial");
//! assert!(snap.chrome_json().contains("\"traceEvents\""));
//! distfl_obs::set_enabled(false);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod decimal;
mod export;
mod json;
mod metrics;
mod reader;

pub use decimal::Decimal;
pub use export::{validate_json, Snapshot};
pub use json::JsonWriter;
pub use metrics::{counter, gauge, metrics_reset, Counter, Gauge, MetricValue};
pub use reader::{Cursor, Json};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Global on/off switch. Relaxed loads are sufficient: the flag is a pure
/// sampling decision and never synchronizes data.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Returns whether tracing is currently enabled.
///
/// Instrumentation sites that record more than one event (or do any work
/// to prepare one) should check this once and skip the whole block.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns tracing on or off programmatically.
///
/// Enabling pins the trace epoch (the zero point of all span timestamps)
/// if it is not pinned yet.
pub fn set_enabled(on: bool) {
    if on {
        let _ = epoch();
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Enables tracing if the `DISTFL_TRACE` environment variable is set to
/// anything other than `""` or `"0"`. Returns the resulting state.
pub fn init_from_env() -> bool {
    if matches!(std::env::var("DISTFL_TRACE"), Ok(v) if !v.is_empty() && v != "0") {
        set_enabled(true);
    }
    enabled()
}

/// The instant all trace timestamps are measured from.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch; 0 for instants predating it.
fn nanos_at(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Buffers hold plain event data; a panic mid-push cannot leave them in
    // a state worse than a missing event, so poisoning is recoverable.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One recorded interval. Timestamps and durations are **nanoseconds** —
/// every recording path (RAII spans, [`complete`], [`complete_at`]) stores
/// the same unit, and the exporters convert to Chrome's microseconds
/// exactly once at render time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event name (the Chrome `name` field), e.g. `"round"`.
    pub name: &'static str,
    /// Category grouping related events (the Chrome `cat` field), e.g.
    /// `"engine"`.
    pub cat: &'static str,
    /// Start timestamp in ns since the trace epoch (the first
    /// [`set_enabled`] call), or since simulation start for events recorded
    /// with [`complete_at`].
    pub ts_nanos: u64,
    /// Duration in ns.
    pub dur_nanos: u64,
    /// Logical id of the recording thread (dense, allocated in
    /// registration order — not the OS thread id).
    pub tid: u64,
    /// Optional numeric argument (round number, trial index, ...).
    pub arg: Option<u64>,
}

/// Per-thread event storage: a fixed-capacity ring that overwrites its
/// oldest events once full.
struct Ring {
    events: Vec<TraceEvent>,
    capacity: usize,
    /// Next overwrite position once `events` reached capacity.
    next: usize,
    overwritten: u64,
}

impl Ring {
    fn push(&mut self, ev: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(ev);
        } else if self.capacity > 0 {
            self.events[self.next] = ev;
            self.next = (self.next + 1) % self.capacity;
            self.overwritten += 1;
        } else {
            self.overwritten += 1;
        }
    }

    /// Removes and returns all events, oldest first.
    fn drain(&mut self) -> (Vec<TraceEvent>, u64) {
        let mut out = std::mem::take(&mut self.events);
        out.rotate_left(self.next);
        let dropped = self.overwritten;
        self.next = 0;
        self.overwritten = 0;
        (out, dropped)
    }
}

struct ThreadBuf {
    tid: u64,
    ring: Mutex<Ring>,
}

fn registry() -> &'static Mutex<Vec<Arc<ThreadBuf>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadBuf>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Per-thread ring capacity, in events.
const BUFFER_CAPACITY: usize = 1 << 18;

thread_local! {
    static LOCAL: Arc<ThreadBuf> = {
        static NEXT_TID: AtomicU64 = AtomicU64::new(1);
        let buf = Arc::new(ThreadBuf {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            ring: Mutex::new(Ring {
                events: Vec::new(),
                capacity: BUFFER_CAPACITY,
                next: 0,
                overwritten: 0,
            }),
        });
        lock(registry()).push(Arc::clone(&buf));
        buf
    };
}

fn push_event(mut ev: TraceEvent) {
    LOCAL.with(|buf| {
        ev.tid = buf.tid;
        lock(&buf.ring).push(ev);
    });
}

/// RAII guard recording a complete span from construction to drop.
///
/// A `None` payload (tracing disabled at construction) makes the guard a
/// true no-op: no clock reads, no buffer access.
#[must_use = "a span records its interval when dropped"]
pub struct Span {
    live: Option<(Instant, &'static str, &'static str, Option<u64>)>,
}

impl Span {
    /// A guard that records nothing; useful for conditional instrumentation.
    pub fn disabled() -> Self {
        Span { live: None }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((start, cat, name, arg)) = self.live.take() {
            let dur = start.elapsed().as_nanos() as u64;
            push_event(TraceEvent {
                name,
                cat,
                ts_nanos: nanos_at(start),
                dur_nanos: dur,
                tid: 0,
                arg,
            });
        }
    }
}

/// Opens a span; the interval ends when the returned guard drops.
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> Span {
    if enabled() {
        Span { live: Some((Instant::now(), cat, name, None)) }
    } else {
        Span::disabled()
    }
}

/// Opens a span carrying a numeric argument (round, trial, phase index).
#[inline]
pub fn span_arg(cat: &'static str, name: &'static str, arg: u64) -> Span {
    if enabled() {
        Span { live: Some((Instant::now(), cat, name, Some(arg))) }
    } else {
        Span::disabled()
    }
}

/// Records an already-measured interval, for call sites that timestamp
/// their stages themselves (e.g. the engine's stage timings). `nanos` is
/// the duration in nanoseconds, stored without conversion.
#[inline]
pub fn complete(
    cat: &'static str,
    name: &'static str,
    start: Instant,
    nanos: u64,
    arg: Option<u64>,
) {
    if !enabled() {
        return;
    }
    push_event(TraceEvent { name, cat, ts_nanos: nanos_at(start), dur_nanos: nanos, tid: 0, arg });
}

/// Records an interval on a caller-supplied clock: both the start
/// timestamp and the duration are given in nanoseconds, with no wall-clock
/// `Instant` involved. This is how simulated timelines (the CONGEST
/// simulator's clock) land on the trace — `ts_nanos` is nanoseconds of
/// *virtual* time since simulation start, and the exporter renders it on
/// the same microsecond axis as everything else.
#[inline]
pub fn complete_at(
    cat: &'static str,
    name: &'static str,
    ts_nanos: u64,
    dur_nanos: u64,
    arg: Option<u64>,
) {
    if !enabled() {
        return;
    }
    push_event(TraceEvent { name, cat, ts_nanos, dur_nanos, tid: 0, arg });
}

/// Drains every thread's ring buffer and snapshots the metrics registry.
///
/// Events are returned oldest-first (stable across threads by timestamp).
/// Draining resets the buffers but leaves metric values in place; use
/// [`metrics_reset`] to also zero those.
pub fn snapshot() -> Snapshot {
    let bufs: Vec<Arc<ThreadBuf>> = lock(registry()).clone();
    let mut events = Vec::new();
    let mut dropped = 0;
    for buf in bufs {
        let (mut evs, d) = lock(&buf.ring).drain();
        events.append(&mut evs);
        dropped += d;
    }
    events.sort_by_key(|e| (e.ts_nanos, e.tid, std::cmp::Reverse(e.dur_nanos)));
    Snapshot { events, metrics: metrics::read_all(), dropped }
}

/// Serializes tests that touch the process-wide obs globals (the enabled
/// flag, thread buffers, metric cells). Test-only.
#[cfg(test)]
pub(crate) fn test_serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    lock(&GATE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_serial as serial;

    #[test]
    fn disabled_records_nothing() {
        let _g = serial();
        set_enabled(false);
        {
            let _s = span("t", "quiet");
            counter("t.quiet").add(7);
        }
        let snap = snapshot();
        assert!(snap.events.iter().all(|e| e.name != "quiet"));
        // The handle lookup registers the name, but the disabled add must
        // not have landed.
        assert_eq!(counter("t.quiet").get(), 0);
    }

    #[test]
    fn span_guard_records_a_complete_event() {
        let _g = serial();
        set_enabled(true);
        {
            let _s = span_arg("t", "guarded", 42);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        set_enabled(false);
        let snap = snapshot();
        let ev = snap.events.iter().find(|e| e.name == "guarded").expect("event recorded");
        assert_eq!(ev.cat, "t");
        assert_eq!(ev.arg, Some(42));
        assert!(ev.dur_nanos >= 1_000_000, "slept 2ms, recorded {}ns", ev.dur_nanos);
        assert!(ev.tid > 0);
    }

    #[test]
    fn complete_uses_caller_measurements() {
        let _g = serial();
        set_enabled(true);
        complete("t", "measured", Instant::now(), 5_000_000, Some(3));
        set_enabled(false);
        let snap = snapshot();
        let ev = snap.events.iter().find(|e| e.name == "measured").expect("event recorded");
        // The caller handed over nanoseconds; the event stores them as-is.
        assert_eq!(ev.dur_nanos, 5_000_000);
        assert_eq!(ev.arg, Some(3));
    }

    #[test]
    fn complete_at_records_virtual_time_verbatim() {
        let _g = serial();
        set_enabled(true);
        complete_at("sim", "virtual", 42_000, 7_500, Some(9));
        set_enabled(false);
        let snap = snapshot();
        let ev = snap.events.iter().find(|e| e.name == "virtual").expect("event recorded");
        assert_eq!(ev.ts_nanos, 42_000);
        assert_eq!(ev.dur_nanos, 7_500);
        assert_eq!(ev.arg, Some(9));
        assert!(ev.tid > 0, "simulated events still carry the recording thread id");
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut ring = Ring { events: Vec::new(), capacity: 3, next: 0, overwritten: 0 };
        let ev = |i: u64| TraceEvent {
            name: "e",
            cat: "t",
            ts_nanos: i,
            dur_nanos: 0,
            tid: 1,
            arg: None,
        };
        for i in 0..5 {
            ring.push(ev(i));
        }
        let (events, dropped) = ring.drain();
        assert_eq!(dropped, 2);
        assert_eq!(events.iter().map(|e| e.ts_nanos).collect::<Vec<_>>(), vec![2, 3, 4]);
        // Drained rings restart empty.
        let (events, dropped) = ring.drain();
        assert!(events.is_empty());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn snapshot_merges_threads_in_timestamp_order() {
        let _g = serial();
        set_enabled(true);
        let handles: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let _s = span_arg("t", "worker", i);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        set_enabled(false);
        let snap = snapshot();
        let workers: Vec<_> = snap.events.iter().filter(|e| e.name == "worker").collect();
        assert_eq!(workers.len(), 4);
        assert!(snap.events.windows(2).all(|w| w[0].ts_nanos <= w[1].ts_nanos));
    }
}
