//! Closed-loop load generation against a running `mctd`.
//!
//! `connections` client threads each issue `requests_per_conn`
//! requests back to back (closed loop: a client never has more than
//! one request in flight), cycling round-robin through a fixed query
//! mix. Client-side latency goes into an [`mct_obs`] log-scale
//! histogram per thread; the snapshots merge into one distribution the
//! report reads p50/p95/p99 from. Plan-cache effectiveness comes from
//! scraping `/metrics` before and after the run and differencing the
//! `server.plan_cache.*` counters.

use mct_obs::{Histogram, HistogramSnapshot};
use std::io;
use std::time::{Duration, Instant};

use crate::client::Client;

/// What to run.
#[derive(Clone, Debug)]
pub struct LoadSpec {
    /// Concurrent client threads (each = one closed loop).
    pub connections: usize,
    /// Requests each thread issues.
    pub requests_per_conn: usize,
    /// Query texts, issued round-robin (`queries[i % len]`).
    pub queries: Vec<String>,
    /// Issue an update every `n`th request per thread (0 = never);
    /// uses [`LoadSpec::update_text`].
    pub update_every: usize,
    /// Update statement for the mixed workload.
    pub update_text: Option<String>,
    /// Additional read-only endpoints (replicas). Reads fan out
    /// round-robin across the primary plus these; updates always go to
    /// the primary passed to [`run`].
    pub read_endpoints: Vec<(String, u16)>,
}

impl LoadSpec {
    /// A read-only spec over `queries`.
    pub fn reads(connections: usize, requests_per_conn: usize, queries: Vec<String>) -> LoadSpec {
        LoadSpec {
            connections,
            requests_per_conn,
            queries,
            update_every: 0,
            update_text: None,
            read_endpoints: Vec::new(),
        }
    }

    /// The same spec with reads fanned across `replicas` too.
    pub fn with_read_endpoints(mut self, replicas: Vec<(String, u16)>) -> LoadSpec {
        self.read_endpoints = replicas;
        self
    }
}

/// What happened.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Client threads used.
    pub connections: usize,
    /// Requests issued.
    pub requests: u64,
    /// Transport failures plus non-2xx responses.
    pub errors: u64,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// Merged client-side latency distribution (nanoseconds).
    pub latency: HistogramSnapshot,
    /// `server.plan_cache.hits` delta over the run.
    pub cache_hits: u64,
    /// `server.plan_cache.misses` delta over the run.
    pub cache_misses: u64,
    /// Requests routed to each endpoint (`host:port`, count), primary
    /// first. One entry unless the spec had `read_endpoints`.
    pub per_endpoint: Vec<(String, u64)>,
}

impl LoadReport {
    /// Requests per second over the run.
    pub fn throughput_rps(&self) -> f64 {
        if self.elapsed.as_secs_f64() > 0.0 {
            self.requests as f64 / self.elapsed.as_secs_f64()
        } else {
            0.0
        }
    }

    /// Latency quantile upper bound in microseconds.
    pub fn quantile_us(&self, q: f64) -> u64 {
        self.latency.quantile_upper_bound(q) / 1_000
    }

    /// Cache hit ratio over the run (0 when nothing was looked up).
    pub fn cache_hit_ratio(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// A multi-line client-side latency summary for one phase
    /// (`--latency-summary` in `loadgen`): the full quantile ladder
    /// from the merged per-thread histograms.
    pub fn latency_summary(&self, label: &str) -> String {
        format!(
            "{label:<8} n={:<6} p50={}us p90={}us p95={}us p99={}us max={}us",
            self.latency.count,
            self.quantile_us(0.50),
            self.quantile_us(0.90),
            self.quantile_us(0.95),
            self.quantile_us(0.99),
            self.quantile_us(1.0),
        )
    }

    /// One human-readable summary line.
    pub fn render(&self) -> String {
        format!(
            "conns={:<3} reqs={:<6} errs={:<3} {:>8.1} req/s  p50={}us p95={}us p99={}us  cache {}/{} ({:.0}% hit)",
            self.connections,
            self.requests,
            self.errors,
            self.throughput_rps(),
            self.quantile_us(0.50),
            self.quantile_us(0.95),
            self.quantile_us(0.99),
            self.cache_hits,
            self.cache_hits + self.cache_misses,
            100.0 * self.cache_hit_ratio(),
        )
    }

    /// Per-endpoint request shares (`None` for a single-endpoint run).
    pub fn render_endpoints(&self) -> Option<String> {
        if self.per_endpoint.len() < 2 {
            return None;
        }
        let shares: Vec<String> = self
            .per_endpoint
            .iter()
            .map(|(ep, n)| format!("{ep}={n}"))
            .collect();
        Some(format!("endpoints: {}", shares.join(" ")))
    }
}

/// Planner-covered query mixes for the built-in databases, which
/// `bench --bin loadgen` drives.
pub fn builtin_mix(db: &str) -> Vec<String> {
    let texts: &[&str] = match db {
        "tpcw" => &[
            "document(\"tpcw\")/{cust}descendant::order",
            "document(\"tpcw\")/{cust}descendant::customer",
            "document(\"tpcw\")/{auth}descendant::item[{auth}child::cost > 10000]",
            "document(\"tpcw\")/{cust}descendant::orderline",
        ],
        "sigmod" => &[
            "document(\"sigmod\")/{date}descendant::article",
            "document(\"sigmod\")/{date}descendant::issue",
            "document(\"sigmod\")/{editor}descendant::article",
        ],
        _ => &[
            "document(\"m\")/{red}descendant::movie",
            "document(\"m\")/{red}descendant::movie/{red}child::name",
            "document(\"m\")/{green}descendant::movie-award",
        ],
    };
    texts.iter().map(|t| t.to_string()).collect()
}

/// Value of a counter/gauge line in a Prometheus text exposition.
/// `metric` is the dotted registry name (`server.plan_cache.hits`).
pub fn prom_value(text: &str, metric: &str) -> Option<u64> {
    let flat: String = metric
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    text.lines().find_map(|l| {
        let rest = l.strip_prefix(&flat)?;
        let rest = rest.strip_prefix(' ')?;
        rest.trim().parse().ok()
    })
}

fn scrape_cache_counters(client: &Client) -> (u64, u64) {
    match client.metrics() {
        Ok(reply) => {
            let text = reply.body_str();
            (
                prom_value(&text, "server.plan_cache.hits").unwrap_or(0),
                prom_value(&text, "server.plan_cache.misses").unwrap_or(0),
            )
        }
        Err(_) => (0, 0),
    }
}

/// Run the closed loop. Returns after every thread finishes.
///
/// `host:port` is the primary: it takes every update and its share of
/// the reads. When the spec has `read_endpoints`, reads round-robin
/// over the primary plus those (a replicated deployment's read
/// scaling), each thread starting at a different offset.
pub fn run(host: &str, port: u16, spec: &LoadSpec) -> io::Result<LoadReport> {
    if spec.queries.is_empty() {
        return Err(io::Error::other("load spec has no queries"));
    }
    let mut endpoints = vec![(host.to_string(), port)];
    endpoints.extend(spec.read_endpoints.iter().cloned());
    let endpoints = &endpoints;
    let probe = Client::new(host, port);
    let (hits_before, misses_before) = scrape_cache_counters(&probe);

    let started = Instant::now();
    let mut merged = HistogramSnapshot::default();
    let mut requests = 0u64;
    let mut errors = 0u64;
    let mut per_endpoint = vec![0u64; endpoints.len()];
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(spec.connections.max(1));
        for t in 0..spec.connections.max(1) {
            handles.push(scope.spawn(move || {
                let clients: Vec<Client> = endpoints
                    .iter()
                    .map(|(h, p)| Client::new(h, *p))
                    .collect();
                let lat = Histogram::new();
                let mut reqs = 0u64;
                let mut errs = 0u64;
                let mut routed = vec![0u64; clients.len()];
                for i in 0..spec.requests_per_conn {
                    let is_update = spec.update_every > 0
                        && spec.update_text.is_some()
                        && (i + 1) % spec.update_every == 0;
                    // Updates are pinned to the primary (endpoint 0);
                    // reads fan out, offset by thread id so threads
                    // don't hit the same endpoint in lockstep.
                    let ep = if is_update { 0 } else { (t + i) % clients.len() };
                    let at = Instant::now();
                    let outcome = if is_update {
                        clients[ep].update(spec.update_text.as_deref().unwrap_or(""))
                    } else {
                        let q = &spec.queries[(t + i) % spec.queries.len()];
                        clients[ep].query(q)
                    };
                    lat.record_duration(at.elapsed());
                    reqs += 1;
                    routed[ep] += 1;
                    match outcome {
                        Ok(reply) if reply.is_ok() => {}
                        _ => errs += 1,
                    }
                }
                (lat.snapshot(), reqs, errs, routed)
            }));
        }
        for h in handles {
            if let Ok((snap, reqs, errs, routed)) = h.join() {
                merged.merge(&snap);
                requests += reqs;
                errors += errs;
                for (total, n) in per_endpoint.iter_mut().zip(routed) {
                    *total += n;
                }
            }
        }
    });
    let elapsed = started.elapsed();

    let (hits_after, misses_after) = scrape_cache_counters(&probe);
    Ok(LoadReport {
        connections: spec.connections.max(1),
        requests,
        errors,
        elapsed,
        latency: merged,
        cache_hits: hits_after.saturating_sub(hits_before),
        cache_misses: misses_after.saturating_sub(misses_before),
        per_endpoint: endpoints
            .iter()
            .zip(per_endpoint)
            .map(|((h, p), n)| (format!("{h}:{p}"), n))
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prom_value_finds_flat_counter_lines() {
        let text = "# TYPE server_plan_cache_hits counter\nserver_plan_cache_hits 42\n\
                    server_plan_cache_misses 7\nserver_inflight 0\n";
        assert_eq!(prom_value(text, "server.plan_cache.hits"), Some(42));
        assert_eq!(prom_value(text, "server.plan_cache.misses"), Some(7));
        assert_eq!(prom_value(text, "server.inflight"), Some(0));
        assert_eq!(prom_value(text, "absent.metric"), None);
    }

    #[test]
    fn report_math_is_sane() {
        let mut latency = HistogramSnapshot::default();
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(1_000_000); // 1ms
        }
        latency.merge(&h.snapshot());
        let r = LoadReport {
            connections: 4,
            requests: 100,
            errors: 0,
            elapsed: Duration::from_secs(2),
            latency,
            cache_hits: 75,
            cache_misses: 25,
            per_endpoint: vec![
                ("127.0.0.1:1".to_string(), 60),
                ("127.0.0.1:2".to_string(), 40),
            ],
        };
        assert!((r.throughput_rps() - 50.0).abs() < 1e-9);
        assert!((r.cache_hit_ratio() - 0.75).abs() < 1e-9);
        assert!(r.quantile_us(0.5) >= 1_000);
        assert!(r.render().contains("req/s"));
        assert_eq!(
            r.render_endpoints().unwrap(),
            "endpoints: 127.0.0.1:1=60 127.0.0.1:2=40"
        );
        let solo = LoadReport {
            per_endpoint: vec![("127.0.0.1:1".to_string(), 100)],
            ..r.clone()
        };
        assert!(solo.render_endpoints().is_none());
        let summary = r.latency_summary("warm");
        assert!(summary.starts_with("warm"));
        assert!(summary.contains("n=100"));
        assert!(summary.contains("p90="));
        assert!(summary.contains("max="));
    }
}
