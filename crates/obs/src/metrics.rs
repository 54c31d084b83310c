//! The metrics registry: counters, gauges, and log-scale histograms.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`-shared
//! atomics: the registry lock is taken only when a handle is created
//! or a snapshot is rendered, never on the observation path. All
//! updates use relaxed ordering — metrics are monotone statistics,
//! not synchronization.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A free-standing counter (not in any registry).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value.
#[derive(Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A free-standing gauge (not in any registry).
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Set the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Increment by `n` (e.g. an in-flight request starting).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Decrement by `n`, saturating at 0.
    #[inline]
    pub fn sub(&self, n: u64) {
        // fetch_update loops only under contention; saturation keeps a
        // double-decrement bug from wrapping to u64::MAX in a dashboard.
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket `i` holds values whose
/// bit-length is `i`, i.e. the ranges `{0}`, `[1,1]`, `[2,3]`,
/// `[4,7]`, ... — fixed log₂-scale buckets covering all of `u64`.
pub const NUM_BUCKETS: usize = 65;

struct HistogramInner {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// A fixed-bucket log-scale histogram (e.g. of latencies in ns).
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramInner {
            buckets: [(); NUM_BUCKETS].map(|()| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }
}

/// Bucket index for a value: its bit length (0 for 0).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the last).
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// A free-standing histogram (not in any registry).
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.0.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Record a [`std::time::Duration`] in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Start a timer that records its elapsed nanoseconds into this
    /// histogram when dropped — the idiomatic way to time a scope:
    ///
    /// ```
    /// let h = mct_obs::histogram("server.latency.query");
    /// {
    ///     let _t = h.start_timer();
    ///     // ... handle the request ...
    /// } // recorded here
    /// assert_eq!(h.count(), 1);
    /// ```
    pub fn start_timer(&self) -> HistogramTimer {
        HistogramTimer {
            histogram: self.clone(),
            started: std::time::Instant::now(),
        }
    }

    /// A point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.0.buckets[i].load(Ordering::Relaxed)),
            count: self.0.count.load(Ordering::Relaxed),
            sum: self.0.sum.load(Ordering::Relaxed),
        }
    }
}

/// RAII guard from [`Histogram::start_timer`]: records the elapsed
/// time (in nanoseconds) into its histogram on drop.
pub struct HistogramTimer {
    histogram: Histogram,
    started: std::time::Instant,
}

impl HistogramTimer {
    /// Stop early and return the recorded duration.
    pub fn stop(self) -> std::time::Duration {
        let elapsed = self.started.elapsed();
        self.histogram.record_duration(elapsed);
        std::mem::forget(self);
        elapsed
    }
}

impl Drop for HistogramTimer {
    fn drop(&mut self) {
        self.histogram.record_duration(self.started.elapsed());
    }
}

/// A frozen histogram: mergeable, queryable, renderable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`bucket_upper_bound`]).
    pub buckets: [u64; NUM_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; NUM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Fold another snapshot into this one (bucket-wise addition).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Observations accumulated since `earlier` (bucket-wise
    /// saturating subtraction) — the windowing primitive behind the
    /// [`crate::timeseries`] sampler: histograms are never reset, so a
    /// per-interval distribution is the difference of two lifetime
    /// snapshots.
    pub fn delta_since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut out = self.clone();
        for (b, e) in out.buckets.iter_mut().zip(&earlier.buckets) {
            *b = b.saturating_sub(*e);
        }
        out.count = out.count.saturating_sub(earlier.count);
        out.sum = out.sum.saturating_sub(earlier.sum);
        out
    }

    /// Upper bound of the bucket containing the `q`-quantile
    /// (`0.0 ..= 1.0`); 0 when empty.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_bound(i);
            }
        }
        u64::MAX
    }
}

enum Slot {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A named collection of metrics. Usually used through [`global`].
#[derive(Default)]
pub struct Registry {
    slots: Mutex<BTreeMap<String, Slot>>,
}

impl Registry {
    /// An empty registry (tests; the engine uses [`global`]).
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name`, created on first use. Panics if the
    /// name is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut slots = self.slots.lock().expect("metrics registry poisoned");
        match slots
            .entry(name.to_string())
            .or_insert_with(|| Slot::Counter(Counter::new()))
        {
            Slot::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut slots = self.slots.lock().expect("metrics registry poisoned");
        match slots
            .entry(name.to_string())
            .or_insert_with(|| Slot::Gauge(Gauge::new()))
        {
            Slot::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut slots = self.slots.lock().expect("metrics registry poisoned");
        match slots
            .entry(name.to_string())
            .or_insert_with(|| Slot::Histogram(Histogram::new()))
        {
            Slot::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let slots = self.slots.lock().expect("metrics registry poisoned");
        let mut snap = RegistrySnapshot::default();
        for (name, slot) in slots.iter() {
            match slot {
                Slot::Counter(c) => {
                    snap.counters.insert(name.clone(), c.get());
                }
                Slot::Gauge(g) => {
                    snap.gauges.insert(name.clone(), g.get());
                }
                Slot::Histogram(h) => {
                    snap.histograms.insert(name.clone(), h.snapshot());
                }
            }
        }
        snap
    }
}

/// A frozen copy of a [`Registry`], ready to render or diff.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RegistrySnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl RegistrySnapshot {
    /// Counter deltas since `earlier` (gauges/histograms keep the
    /// newer value). Lets per-query consumers coexist with lifetime
    /// totals: nobody ever resets the registry.
    pub fn delta_since(&self, earlier: &RegistrySnapshot) -> RegistrySnapshot {
        let mut out = self.clone();
        for (name, v) in out.counters.iter_mut() {
            *v = v.saturating_sub(earlier.counters.get(name).copied().unwrap_or(0));
        }
        out
    }

    /// Like [`RegistrySnapshot::delta_since`], but histograms are also
    /// differenced bucket-wise (gauges keep the newer absolute value).
    /// This is the per-interval view the time-series sampler stores:
    /// "what happened during this window", including the latency
    /// distribution of just this window's requests.
    pub fn window_delta(&self, earlier: &RegistrySnapshot) -> RegistrySnapshot {
        let mut out = self.delta_since(earlier);
        for (name, h) in out.histograms.iter_mut() {
            if let Some(e) = earlier.histograms.get(name) {
                *h = h.delta_since(e);
            }
        }
        out
    }

    /// Render as a JSON object:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        append_map(&mut out, &self.counters, |out, v| {
            let _ = write!(out, "{v}");
        });
        out.push_str("},\n  \"gauges\": {");
        append_map(&mut out, &self.gauges, |out, v| {
            let _ = write!(out, "{v}");
        });
        out.push_str("},\n  \"histograms\": {");
        append_map(&mut out, &self.histograms, |out, h| {
            let _ = write!(out, "{{\"count\": {}, \"sum\": {}, \"buckets\": [", h.count, h.sum);
            let mut first = true;
            for (i, &n) in h.buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                if !first {
                    out.push_str(", ");
                }
                first = false;
                let _ = write!(out, "{{\"le\": {}, \"n\": {}}}", bucket_upper_bound(i), n);
            }
            out.push_str("]}");
        });
        out.push_str("}\n}\n");
        out
    }

    /// Render in the Prometheus text exposition format. Dots and
    /// dashes in metric names become underscores.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE {n} counter\n{n} {v}");
        }
        for (name, v) in &self.gauges {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE {n} gauge\n{n} {v}");
        }
        for (name, h) in &self.histograms {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE {n} histogram");
            // Summary-style quantile lines alongside the buckets, so a
            // scraper gets p50/p95/p99 without re-deriving them from
            // the cumulative bucket counts (upper bounds of the
            // log2 bucket holding each quantile).
            for q in [0.5, 0.95, 0.99] {
                let _ = writeln!(
                    out,
                    "{n}{{quantile=\"{q}\"}} {}",
                    h.quantile_upper_bound(q)
                );
            }
            let mut cum = 0u64;
            for (i, &cnt) in h.buckets.iter().enumerate() {
                if cnt == 0 {
                    continue;
                }
                cum += cnt;
                let _ = writeln!(out, "{n}_bucket{{le=\"{}\"}} {cum}", bucket_upper_bound(i));
            }
            let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{n}_sum {}\n{n}_count {}", h.sum, h.count);
        }
        out
    }
}

fn append_map<V>(
    out: &mut String,
    map: &BTreeMap<String, V>,
    mut render: impl FnMut(&mut String, &V),
) {
    let mut first = true;
    for (name, v) in map {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n    ");
        crate::json::escape_into(out, name);
        out.push_str(": ");
        render(out, v);
    }
    if !first {
        out.push_str("\n  ");
    }
}

fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// The process-wide registry every engine component reports into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn counter_and_gauge_basics() {
        let r = Registry::new();
        let c = r.counter("a.b");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(r.counter("a.b").get(), 5, "same handle by name");
        let g = r.gauge("g");
        g.set(17);
        g.set(3);
        assert_eq!(g.get(), 3);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn histogram_bucketing_boundaries() {
        // Bucket i = values with bit length i: {0}, [1,1], [2,3], [4,7]...
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(10), 1023);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        // Every value lands in the bucket whose range contains it.
        for v in [0u64, 1, 2, 3, 7, 8, 1000, 123_456_789] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper_bound(i));
            if i > 0 {
                assert!(v > bucket_upper_bound(i - 1), "{v} above bucket {i}'s floor");
            }
        }
    }

    #[test]
    fn histogram_record_and_stats() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 100, 100_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 100_106);
        assert_eq!(s.buckets[bucket_index(2)], 2, "2 and 3 share a bucket");
        assert!((s.mean() - 20_021.2).abs() < 1e-9);
        assert!(s.quantile_upper_bound(0.5) >= 3);
        assert!(s.quantile_upper_bound(1.0) >= 100_000);
        assert_eq!(HistogramSnapshot::default().quantile_upper_bound(0.5), 0);
    }

    #[test]
    fn histogram_merge_adds_bucketwise() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in 0..50u64 {
            a.record(v);
            b.record(v * 1000);
        }
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count, 100);
        assert_eq!(m.sum, a.snapshot().sum + b.snapshot().sum);
        for i in 0..NUM_BUCKETS {
            assert_eq!(m.buckets[i], a.snapshot().buckets[i] + b.snapshot().buckets[i]);
        }
        // Merging an empty snapshot is the identity.
        let before = m.clone();
        m.merge(&HistogramSnapshot::default());
        assert_eq!(m, before);
    }

    #[test]
    fn histogram_timer_records_on_drop_and_stop() {
        let h = Histogram::new();
        {
            let _t = h.start_timer();
        }
        assert_eq!(h.count(), 1, "drop records");
        let t = h.start_timer();
        let d = t.stop();
        assert_eq!(h.count(), 2, "stop records exactly once");
        assert!(h.snapshot().sum >= d.as_nanos() as u64 / 2);
    }

    #[test]
    fn snapshot_delta_isolates_a_query() {
        let r = Registry::new();
        r.counter("hits").add(100);
        let mark = r.snapshot();
        r.counter("hits").add(7);
        r.counter("fresh").add(2);
        let d = r.snapshot().delta_since(&mark);
        assert_eq!(d.counters["hits"], 7);
        assert_eq!(d.counters["fresh"], 2);
    }

    #[test]
    fn json_rendering_is_wellformed() {
        let r = Registry::new();
        r.counter("storage.pool.hits").add(3);
        r.gauge("pool.capacity").set(8);
        r.histogram("lat.ns").record(150);
        r.histogram("lat.ns").record(7);
        let json = r.snapshot().to_json();
        Json::parse(&json).unwrap_or_else(|e| panic!("{e}: {json}"));
        assert!(json.contains("\"storage.pool.hits\": 3"), "{json}");
        assert!(json.contains("\"count\": 2"), "{json}");
        // Empty registry renders as empty (still valid) objects.
        Json::parse(&Registry::new().snapshot().to_json()).unwrap();
    }

    #[test]
    fn prometheus_rendering() {
        let r = Registry::new();
        r.counter("storage.pool.hits").add(3);
        r.histogram("lat.ns").record(5);
        let text = r.snapshot().to_prometheus();
        assert!(text.contains("# TYPE storage_pool_hits counter"), "{text}");
        assert!(text.contains("storage_pool_hits 3"), "{text}");
        assert!(text.contains("lat_ns_bucket{le=\"7\"} 1"), "{text}");
        assert!(text.contains("lat_ns_count 1"), "{text}");
    }

    #[test]
    fn prometheus_histograms_export_quantile_lines() {
        let r = Registry::new();
        let h = r.histogram("lat.ns");
        // 100 observations: 90 around 1000ns, 10 around 1M ns, so the
        // p50 and p99 land in different buckets.
        for _ in 0..90 {
            h.record(1000);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        let text = r.snapshot().to_prometheus();
        let q50 = bucket_upper_bound(bucket_index(1000));
        let q99 = bucket_upper_bound(bucket_index(1_000_000));
        assert!(
            text.contains(&format!("lat_ns{{quantile=\"0.5\"}} {q50}")),
            "{text}"
        );
        assert!(
            text.contains(&format!("lat_ns{{quantile=\"0.99\"}} {q99}")),
            "{text}"
        );
        assert!(text.contains("lat_ns{quantile=\"0.95\"}"), "{text}");
        // Every histogram gets all three lines, right under its TYPE.
        let type_pos = text.find("# TYPE lat_ns histogram").unwrap();
        let q_pos = text.find("lat_ns{quantile=\"0.5\"}").unwrap();
        let bucket_pos = text.find("lat_ns_bucket").unwrap();
        assert!(type_pos < q_pos && q_pos < bucket_pos, "{text}");
    }

    #[test]
    fn histogram_delta_since_subtracts_bucketwise() {
        let h = Histogram::new();
        for v in [1u64, 10, 100] {
            h.record(v);
        }
        let mark = h.snapshot();
        for v in [1u64, 1000, 1000] {
            h.record(v);
        }
        let d = h.snapshot().delta_since(&mark);
        assert_eq!(d.count, 3);
        assert_eq!(d.sum, 2001);
        assert_eq!(d.buckets[bucket_index(1)], 1);
        assert_eq!(d.buckets[bucket_index(1000)], 2);
        assert_eq!(d.buckets[bucket_index(10)], 0, "pre-mark values cancel");
        // Self-delta is empty.
        let s = h.snapshot();
        assert_eq!(s.delta_since(&s).count, 0);
    }

    #[test]
    fn window_delta_differs_counters_and_histograms_keeps_gauges() {
        let r = Registry::new();
        r.counter("reqs").add(10);
        r.gauge("inflight").set(3);
        r.histogram("lat").record(100);
        let mark = r.snapshot();
        r.counter("reqs").add(5);
        r.gauge("inflight").set(7);
        r.histogram("lat").record(200_000);
        let w = r.snapshot().window_delta(&mark);
        assert_eq!(w.counters["reqs"], 5);
        assert_eq!(w.gauges["inflight"], 7, "gauges stay absolute");
        assert_eq!(w.histograms["lat"].count, 1, "only the window's observation");
        assert!(w.histograms["lat"].quantile_upper_bound(0.5) >= 200_000);
    }

    #[test]
    fn global_registry_is_shared() {
        let c = global().counter("obs.test.global");
        let before = c.get();
        global().counter("obs.test.global").inc();
        assert_eq!(c.get(), before + 1);
    }
}
