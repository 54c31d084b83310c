//! # mct-obs — in-tree observability
//!
//! A zero-dependency metrics and tracing substrate shared by every
//! layer of the engine. Two halves:
//!
//! * [`metrics`] — a process-global registry of named [`Counter`]s,
//!   [`Gauge`]s, and log-scale [`Histogram`]s. Handles are cheap
//!   `Arc<AtomicU64>` clones, so hot paths pay one relaxed atomic
//!   increment per observation and never touch the registry lock.
//!   Snapshots render as JSON ([`RegistrySnapshot::to_json`]) or
//!   Prometheus text ([`RegistrySnapshot::to_prometheus`]).
//! * [`trace`] — a structured-span facade: [`trace::span`] returns a
//!   guard that reports enter/exit (with nesting depth and elapsed
//!   time) to a pluggable [`trace::Subscriber`]. With no subscriber
//!   installed a span is a single relaxed atomic load — cheap enough
//!   to leave in every operator. [`trace::RingSubscriber`] captures
//!   the last N events in a ring buffer for post-hoc inspection.
//!   Threads can be tagged with the request they work for
//!   ([`trace::request_scope`]), and the tag follows work into the
//!   morsel executor's worker threads.
//! * [`timeseries`] — a [`Sampler`] thread turning the registry into a
//!   bounded ring of per-interval window deltas (counters, histogram
//!   buckets), the substrate behind `mctd`'s `/stats` endpoint and the
//!   `mcttop` dashboard.
//! * [`json`] — the one JSON module: a reader for the observability
//!   bodies and the string escaper every JSON writer uses.
//!
//! Metric names use dotted lowercase paths (`storage.pool.hits`,
//! `wal.fsyncs`, `query.crosstree.output_rows`); the Prometheus
//! renderer rewrites the separators. The full name inventory lives in
//! DESIGN.md's Observability section.

pub mod json;
pub mod metrics;
pub mod timeseries;
pub mod trace;

pub use metrics::{
    global, Counter, Gauge, Histogram, HistogramSnapshot, HistogramTimer, Registry,
    RegistrySnapshot,
};
pub use timeseries::{unix_ms, Sample, Sampler, SamplerHandle};
pub use trace::{set_subscriber, span, RingSubscriber, Span, Subscriber, TraceEvent};

/// Global-registry shortcut: the counter named `name`.
pub fn counter(name: &str) -> Counter {
    global().counter(name)
}

/// Global-registry shortcut: the gauge named `name`.
pub fn gauge(name: &str) -> Gauge {
    global().gauge(name)
}

/// Global-registry shortcut: the histogram named `name`.
pub fn histogram(name: &str) -> Histogram {
    global().histogram(name)
}
