//! Zero-dependency telemetry for the semimatch workspace.
//!
//! Four pieces, none of which pull in external crates (the workspace
//! vendor policy applies to observability too — no `tracing`, no
//! `metrics`):
//!
//! * [`catalog`] — every metric the workspace emits, declared once with
//!   its name, kind and help text. The writers below take a declaration
//!   of their own kind, never a string.
//! * [`Registry`] — named [`Counter`]s, [`Gauge`]s and log2-bucketed
//!   [`Histogram`]s behind plain atomics, safe to update from rayon
//!   workers (see [`registry`]).
//! * [`span!`] — RAII span timers that feed per-span duration histograms
//!   and, optionally, a bounded [`TraceRing`] exportable as Chrome
//!   `trace_event` JSON (see [`trace`]).
//! * [`Collecting`] — the recorder. The process-global slot is empty by
//!   default; instrumented code guards every telemetry statement behind
//!   [`enabled()`] (one relaxed atomic load), so the default build pays a
//!   branch and nothing else. [`install`]ing a recorder (what `--metrics`
//!   / `--trace-out` do) turns the same statements into registry updates.
//!
//! Instrumentation contract: telemetry must never change results. The
//! recorder has no channel back into solver state, and every call site is
//! gated on [`enabled()`]; `tests/obs_properties.rs` checks that solutions
//! are bit-identical with and without a collecting recorder installed.
//!
//! Emission names a declaration (`counter_add(&catalog::HK_SEMI_SOLVES,
//! 1)`), and a family member fills its placeholder
//! (`catalog::DAEMON_TENANT_ID_GAP.at(3)`). A string, a declaration of
//! another kind, or an unfilled family does not compile:
//!
//! ```compile_fail,E0308
//! semimatch_obs::counter_add("hk_semi.solves", 1);
//! ```
//!
//! ```compile_fail,E0308
//! semimatch_obs::gauge_set(&semimatch_obs::catalog::HK_SEMI_SOLVES, 1);
//! ```
//!
//! ```compile_fail,E0308
//! semimatch_obs::gauge_set(&semimatch_obs::catalog::DAEMON_TENANT_ID_GAP, 0);
//! ```

pub mod catalog;
pub mod registry;
pub mod trace;

pub use registry::{Counter, Gauge, Histogram, Metric, MetricValue, Registry};
pub use trace::{TraceEvent, TraceRing, DEFAULT_TRACE_CAPACITY};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

use catalog::Decl;

/// The recorder: aggregates into a [`Registry`] and (optionally) appends
/// closed spans to a [`TraceRing`].
#[derive(Debug)]
pub struct Collecting {
    registry: Registry,
    ring: Option<TraceRing>,
    epoch: Instant,
}

impl Collecting {
    /// Metrics only, no trace ring.
    pub fn new() -> Self {
        Collecting { registry: Registry::new(), ring: None, epoch: Instant::now() }
    }

    /// Metrics plus a trace ring bounded at `capacity` events.
    pub fn with_trace(capacity: usize) -> Self {
        Collecting {
            registry: Registry::new(),
            ring: Some(TraceRing::new(capacity)),
            epoch: Instant::now(),
        }
    }

    /// The backing registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The trace ring, when one was requested.
    pub fn ring(&self) -> Option<&TraceRing> {
        self.ring.as_ref()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    fn span_close(&self, name: &'static str, start_ns: u64, dur_ns: u64, tid: u64) {
        self.registry.observe(&catalog::SPAN_NAME.at(name), dur_ns);
        if let Some(ring) = &self.ring {
            ring.push(TraceEvent { name, start_ns, dur_ns, tid });
        }
    }
}

impl Default for Collecting {
    fn default() -> Self {
        Collecting::new()
    }
}

// ---------------------------------------------------------------------------
// Process-global recorder
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: RwLock<Option<Arc<Collecting>>> = RwLock::new(None);

/// Cheap hot-path check: is a recorder installed? One relaxed atomic
/// load — this is the entire cost of instrumentation while the slot is
/// empty.
#[inline]
pub fn enabled() -> bool {
    // ordering: Relaxed — a hint flag; installers flip it under the RwLock
    // and a stale read merely skips (or no-ops) one event.
    ENABLED.load(Ordering::Relaxed)
}

/// Installs `recorder` as the process-global sink, returning the previous
/// one (if any).
pub fn install(recorder: Arc<Collecting>) -> Option<Arc<Collecting>> {
    let mut slot = RECORDER.write().unwrap();
    ENABLED.store(true, Ordering::Relaxed); // ordering: hint; RwLock orders
    slot.replace(recorder)
}

/// Empties the global slot (telemetry off again) and returns the recorder
/// it held.
pub fn uninstall() -> Option<Arc<Collecting>> {
    let mut slot = RECORDER.write().unwrap();
    ENABLED.store(false, Ordering::Relaxed); // ordering: hint; RwLock orders
    slot.take()
}

/// The installed recorder, if any: for writers that resolve their metric
/// handles once. Such a writer keeps this `Arc` next to its handles and
/// resolves again when a later call returns a recorder that is not
/// [`Arc::ptr_eq`] to it. Holding the `Arc`, not a pointer, keeps the old
/// recorder alive, so its address cannot be reused by a successor.
pub fn recorder() -> Option<Arc<Collecting>> {
    RECORDER.read().expect("a recorder call panicked holding the slot").clone()
}

fn with_recorder(f: impl FnOnce(&Collecting)) {
    if let Some(r) = RECORDER.read().unwrap().as_deref() {
        f(r);
    }
}

/// Adds `delta` to the global counter `metric` (no-op when disabled).
#[inline]
pub fn counter_add(metric: &Decl<Counter>, delta: u64) {
    if enabled() {
        with_recorder(|r| r.registry.counter_add(metric, delta));
    }
}

/// Overwrites the global gauge `metric` (no-op when disabled).
#[inline]
pub fn gauge_set(metric: &Decl<Gauge>, value: i64) {
    if enabled() {
        with_recorder(|r| r.registry.gauge_set(metric, value));
    }
}

/// Records one observation for the global histogram `metric` (no-op when
/// disabled).
#[inline]
pub fn observe(metric: &Decl<Histogram>, value: u64) {
    if enabled() {
        with_recorder(|r| r.registry.observe(metric, value));
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    // ordering: Relaxed — a unique-id ticket; only atomicity matters, no
    // cross-thread data is published through it.
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn current_tid() -> u64 {
    TID.with(|t| *t)
}

/// RAII span timer. Create via [`span!`]; on drop it records its duration
/// into the histogram `span.<name>` ([`catalog::SPAN_NAME`]) and appends
/// to the trace ring when one is configured. Inert (a single branch at
/// construction, nothing at drop) while no recorder is installed.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start_ns: Option<u64>,
}

impl Span {
    /// Opens the span `name`, reading the clock only when [`enabled()`].
    pub fn enter(name: &'static str) -> Span {
        if !enabled() {
            return Span { name, start_ns: None };
        }
        let mut start = None;
        with_recorder(|r| start = Some(r.now_ns()));
        Span { name, start_ns: start }
    }

    /// The span's name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start_ns) = self.start_ns {
            with_recorder(|r| {
                let dur_ns = r.now_ns().saturating_sub(start_ns);
                r.span_close(self.name, start_ns, dur_ns, current_tid());
            });
        }
    }
}

/// Opens an RAII [`Span`] named by its dot-separated argument:
/// `let _s = obs::span!("dinic.phase");`. Bind it — an unnamed temporary
/// drops immediately and times nothing.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::Span::enter($name)
    };
}

#[cfg(test)]
mod tests {
    use super::catalog::{DAEMON_PUMP_NS, DAEMON_TENANTS, HK_SEMI_SOLVES};
    use super::*;
    use std::sync::Mutex;

    // The recorder slot is process-global; serialize the tests that touch
    // it so the harness's parallel threads cannot interleave installs.
    static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn noop_by_default_and_free_fns_are_inert() {
        let _guard = GLOBAL_LOCK.lock().unwrap();
        uninstall();
        assert!(!enabled());
        counter_add(&HK_SEMI_SOLVES, 1);
        gauge_set(&DAEMON_TENANTS, 1);
        observe(&DAEMON_PUMP_NS, 1);
        let c = Arc::new(Collecting::new());
        install(c.clone());
        assert!(enabled());
        assert!(c.registry().snapshot().is_empty(), "pre-install events must be dropped");
        uninstall();
    }

    #[test]
    fn collecting_routes_all_event_kinds() {
        let _guard = GLOBAL_LOCK.lock().unwrap();
        let c = Arc::new(Collecting::with_trace(16));
        install(c.clone());
        assert!(enabled());
        counter_add(&HK_SEMI_SOLVES, 2);
        counter_add(&HK_SEMI_SOLVES, 3);
        gauge_set(&DAEMON_TENANTS, -4);
        observe(&DAEMON_PUMP_NS, 100);
        {
            let _outer = span!("t.outer");
            let _inner = span!("t.inner");
        }
        uninstall();
        counter_add(&HK_SEMI_SOLVES, 99); // after uninstall: dropped
        assert_eq!(c.registry().counter("hk_semi.solves").get(), 5);
        assert_eq!(c.registry().gauge("daemon.tenants").get(), -4);
        assert_eq!(c.registry().histogram("daemon.pump_ns").count(), 1);
        assert_eq!(c.registry().histogram("span.t.outer").count(), 1);
        assert_eq!(c.registry().histogram("span.t.inner").count(), 1);
        let events = c.ring().unwrap().events();
        assert_eq!(events.len(), 2);
        // Inner drops first and nests inside outer on the same thread.
        let (inner, outer) = (&events[0], &events[1]);
        assert_eq!(inner.name, "t.inner");
        assert_eq!(outer.name, "t.outer");
        assert_eq!(inner.tid, outer.tid);
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
    }

    #[test]
    fn install_returns_previous_recorder() {
        let _guard = GLOBAL_LOCK.lock().unwrap();
        uninstall();
        let a = Arc::new(Collecting::new());
        assert!(install(a.clone()).is_none());
        let prev = install(Arc::new(Collecting::new())).expect("first recorder handed back");
        assert!(Arc::ptr_eq(&prev, &a));
        assert!(uninstall().is_some());
        assert!(!enabled(), "an empty slot leaves the fast-path flag down");
    }
}
