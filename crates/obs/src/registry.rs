//! The metric store: named counters, gauges and log2-bucketed histograms
//! behind plain atomics.
//!
//! Registration takes a write lock once per metric name; every subsequent
//! update is a read-locked map probe plus one relaxed atomic RMW, so the
//! registry is safe (and cheap) to hammer from rayon workers. Callers on a
//! genuinely hot path should resolve the [`Arc`] handle once
//! ([`Registry::resolve_counter`] and its siblings) and update it
//! directly, or accumulate plain locals and flush a single delta per
//! phase. The instrumented solvers and the serving engine in this
//! workspace do the latter: the engine keeps its counts in
//! `serve::Counters`, which `semimatch replay` publishes once per run.
//! The daemon does the former: it resolves its per-tenant, fleet,
//! counter and pump handles once against the installed recorder
//! ([`crate::recorder`]) and resolves again only when a new recorder is
//! installed or its tenant set changes.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::catalog::Decl;

/// Monotone event count.
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// Adds `delta` to the counter.
    pub fn add(&self, delta: u64) {
        // ordering: Relaxed — a monotone telemetry count; it synchronizes
        // nothing and renderers tolerate an in-flight lag.
        self.v.fetch_add(delta, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed) // ordering: telemetry read; lag is fine
    }
}

/// Last-write-wins instantaneous value (may go up or down).
#[derive(Debug, Default)]
pub struct Gauge {
    v: AtomicI64,
}

impl Gauge {
    /// Overwrites the gauge.
    pub fn set(&self, value: i64) {
        self.v.store(value, Ordering::Relaxed); // ordering: telemetry write; last-write-wins
    }

    /// Adjusts the gauge by `delta`.
    pub fn add(&self, delta: i64) {
        // ordering: Relaxed — telemetry adjustment; synchronizes nothing.
        self.v.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.v.load(Ordering::Relaxed) // ordering: telemetry read; lag is fine
    }
}

/// Number of log2 buckets: bucket 0 holds the value 0, bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i)`, and bucket 64 tops out at
/// `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Log2-bucketed histogram over `u64` observations (durations in
/// nanoseconds, batch sizes, level counts, …).
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Index of the log2 bucket that `value` falls into.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (its `le` label).
pub fn bucket_le(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, value: u64) {
        // ordering: Relaxed — the three words are telemetry; a renderer may
        // see a count/sum/bucket triple mid-update and that is accepted
        // (documented: snapshots are not atomic across fields).
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed); // ordering: telemetry
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed); // ordering: telemetry
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed) // ordering: telemetry read; lag is fine
    }

    /// Sum of all observations (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed) // ordering: telemetry read; lag is fine
    }

    /// The non-empty buckets as `(inclusive upper bound, count)` pairs in
    /// increasing bound order.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        (0..HISTOGRAM_BUCKETS)
            .filter_map(|i| {
                let c = self.buckets[i].load(Ordering::Relaxed); // ordering: telemetry read
                (c > 0).then(|| (bucket_le(i), c))
            })
            .collect()
    }
}

/// A registered metric handle.
#[derive(Debug, Clone)]
pub enum Metric {
    /// Monotone counter.
    Counter(Arc<Counter>),
    /// Instantaneous gauge.
    Gauge(Arc<Gauge>),
    /// Log2 histogram.
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// Point-in-time value of one metric, detached from the atomics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram count, sum and non-empty `(le, count)` buckets.
    Histogram {
        /// Number of observations.
        count: u64,
        /// Sum of observations.
        sum: u64,
        /// Non-empty `(inclusive upper bound, count)` buckets.
        buckets: Vec<(u64, u64)>,
    },
}

/// Named metric store. Metric names are dot-separated lowercase paths
/// (`"cost_scaling.probes"`, `"span.hk_semi.solve"`); the writers take
/// their [`catalog`](crate::catalog) declaration, the resolvers any name.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: RwLock<BTreeMap<String, Metric>>,
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        if let Some(m) = self.metrics.read().unwrap().get(name) {
            return m.clone();
        }
        let mut map = self.metrics.write().unwrap();
        map.entry(name.to_owned()).or_insert_with(make).clone()
    }

    /// Resolves (registering on first use) the counter `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.get_or_insert(name, || Metric::Counter(Arc::new(Counter::default()))) {
            Metric::Counter(c) => c,
            m => panic!("metric {name:?} is a {}, not a counter", m.kind()),
        }
    }

    /// Resolves (registering on first use) the gauge `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.get_or_insert(name, || Metric::Gauge(Arc::new(Gauge::default()))) {
            Metric::Gauge(g) => g,
            m => panic!("metric {name:?} is a {}, not a gauge", m.kind()),
        }
    }

    /// Resolves (registering on first use) the histogram `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        match self.get_or_insert(name, || Metric::Histogram(Arc::new(Histogram::default()))) {
            Metric::Histogram(h) => h,
            m => panic!("metric {name:?} is a {}, not a histogram", m.kind()),
        }
    }

    /// Resolves (registering on first use) the declared counter, for a
    /// writer that keeps the handle and updates it many times.
    pub fn resolve_counter(&self, metric: &Decl<Counter>) -> Arc<Counter> {
        self.counter(&metric.name)
    }

    /// Resolves (registering on first use) the declared gauge.
    pub fn resolve_gauge(&self, metric: &Decl<Gauge>) -> Arc<Gauge> {
        self.gauge(&metric.name)
    }

    /// Resolves (registering on first use) the declared histogram.
    pub fn resolve_histogram(&self, metric: &Decl<Histogram>) -> Arc<Histogram> {
        self.histogram(&metric.name)
    }

    /// One-shot counter bump (resolve + add).
    pub fn counter_add(&self, metric: &Decl<Counter>, delta: u64) {
        self.resolve_counter(metric).add(delta);
    }

    /// One-shot gauge overwrite.
    pub fn gauge_set(&self, metric: &Decl<Gauge>, value: i64) {
        self.resolve_gauge(metric).set(value);
    }

    /// One-shot histogram observation.
    pub fn observe(&self, metric: &Decl<Histogram>, value: u64) {
        self.resolve_histogram(metric).observe(value);
    }

    /// Detached point-in-time snapshot of every metric, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, MetricValue)> {
        self.metrics
            .read()
            .unwrap()
            .iter()
            .map(|(name, m)| {
                let v = match m {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram {
                        count: h.count(),
                        sum: h.sum(),
                        buckets: h.buckets(),
                    },
                };
                (name.clone(), v)
            })
            .collect()
    }

    /// Human-oriented dump: one `name kind value` line per metric, sorted.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in self.snapshot() {
            match v {
                MetricValue::Counter(c) => {
                    let _ = writeln!(out, "{name} counter {c}");
                }
                MetricValue::Gauge(g) => {
                    let _ = writeln!(out, "{name} gauge {g}");
                }
                MetricValue::Histogram { count, sum, buckets } => {
                    let mean = if count == 0 { 0.0 } else { sum as f64 / count as f64 };
                    let _ = write!(out, "{name} histogram count={count} sum={sum} mean={mean:.1}");
                    for (le, c) in buckets {
                        let _ = write!(out, " le{le}={c}");
                    }
                    let _ = writeln!(out);
                }
            }
        }
        out
    }

    /// Machine-oriented dump: a JSON object mapping each metric name to
    /// `{"type": ..., "value": ...}` for counters and gauges, and
    /// `{"type": "histogram", "count": ..., "sum": ..., "buckets":
    /// {"<le>": <count>, ...}}` for histograms. Keys are sorted, so the
    /// output is stable.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        let snap = self.snapshot();
        for (i, (name, v)) in snap.iter().enumerate() {
            let _ = write!(out, "  {}: ", json_string(name));
            match v {
                MetricValue::Counter(c) => {
                    let _ = write!(out, "{{\"type\": \"counter\", \"value\": {c}}}");
                }
                MetricValue::Gauge(g) => {
                    let _ = write!(out, "{{\"type\": \"gauge\", \"value\": {g}}}");
                }
                MetricValue::Histogram { count, sum, buckets } => {
                    let _ = write!(
                        out,
                        "{{\"type\": \"histogram\", \"count\": {count}, \"sum\": {sum}, \"buckets\": {{"
                    );
                    for (j, (le, c)) in buckets.iter().enumerate() {
                        let sep = if j == 0 { "" } else { ", " };
                        let _ = write!(out, "{sep}\"{le}\": {c}");
                    }
                    let _ = write!(out, "}}}}");
                }
            }
            let _ = writeln!(out, "{}", if i + 1 == snap.len() { "" } else { "," });
        }
        out.push('}');
        out
    }
}

/// Escapes `s` as a JSON string literal (quotes included).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_le(0), 0);
        assert_eq!(bucket_le(1), 1);
        assert_eq!(bucket_le(2), 3);
        assert_eq!(bucket_le(64), u64::MAX);
        // Every value lands in the bucket whose label bounds it.
        for v in [0u64, 1, 2, 5, 100, 1 << 40, u64::MAX] {
            assert!(v <= bucket_le(bucket_index(v)));
        }
    }

    #[test]
    fn register_once_update_many() {
        let r = Registry::new();
        let c1 = r.counter("x.count");
        let c2 = r.counter("x.count");
        c1.add(3);
        c2.inc();
        assert_eq!(r.counter("x.count").get(), 4);
        r.gauge("x.level").set(-7);
        assert_eq!(r.gauge("x.level").get(), -7);
        r.histogram("x.lat").observe(5);
        r.histogram("x.lat").observe(0);
        let h = r.histogram("x.lat");
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 5);
        assert_eq!(h.buckets(), vec![(0, 1), (7, 1)]);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_clash_panics() {
        let r = Registry::new();
        r.counter("dup");
        r.gauge("dup");
    }

    #[test]
    fn render_json_is_sorted_and_escaped() {
        let r = Registry::new();
        r.counter("b.count").add(2);
        r.gauge("a.gauge").set(5);
        r.histogram("c.hist").observe(9);
        let json = r.render_json();
        let a = json.find("a.gauge").unwrap();
        let b = json.find("b.count").unwrap();
        let c = json.find("c.hist").unwrap();
        assert!(a < b && b < c, "{json}");
        assert!(json.contains("{\"type\": \"counter\", \"value\": 2}"));
        assert!(json.contains("{\"type\": \"gauge\", \"value\": 5}"));
        assert!(json.contains("\"buckets\": {\"15\": 1}"));
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
