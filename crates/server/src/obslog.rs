//! Per-request observability sinks: the structured **request log**
//! (one JSON line per handled request) and the bounded **slow-query
//! log** (full EXPLAIN ANALYZE trees for requests over a latency
//! threshold, served back at `GET /slow`).
//!
//! ## Request log
//!
//! `mctd --log-json <path|stderr>` opens a [`RequestLog`]. Each request
//! is described by a [`RequestRecord`]; the JSON line is formatted
//! *outside* the writer lock, so the serialized section is one
//! buffered `write_all`. Flushes are rate-limited to once per
//! [`FLUSH_INTERVAL`]: at low traffic every line reaches the file
//! immediately (tail-friendly), at high rates the flush syscall
//! amortizes over hundreds of lines instead of taxing every request.
//! Lines are self-contained JSON objects — `grep`/`jq`-friendly, no
//! framing.
//!
//! ## Slow-query log
//!
//! A [`SlowLog`] keeps the most recent `capacity` requests whose
//! latency crossed `threshold` (0 = capture everything, which the
//! verify smoke uses), each with its query text and the per-operator
//! analyze tree the execution already produced — slow queries are
//! captured from the run that was slow, never re-executed. Query text
//! and plan trees are truncated to fixed caps so the ring's memory is
//! bounded regardless of input.

use crate::json::escape_into;
use std::collections::VecDeque;
use std::fs::OpenOptions;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Longest query text retained in a slow-log entry (bytes).
const SLOW_QUERY_CAP: usize = 512;
/// Longest analyze tree retained in a slow-log entry (bytes).
const SLOW_PLAN_CAP: usize = 8192;
/// Minimum time between request-log flushes; lines buffered in
/// between still land when `BufWriter`'s buffer fills or on drop.
const FLUSH_INTERVAL: Duration = Duration::from_millis(250);

/// How a request was executed, for the `exec` field of the log line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecKind {
    /// Compiled [`PathPlan`](mct_query::plan::PathPlan) under the read lock.
    Plan,
    /// Tree-walking interpreter over a shared borrow, under the read
    /// lock.
    Interp,
    /// Tree-walking interpreter with exclusive access, under the write
    /// lock: a query calling `createColor`.
    CreateColor,
    /// No query execution (e.g. `/metrics`, `/healthz`, parse errors).
    None,
}

impl ExecKind {
    fn as_str(self) -> &'static str {
        match self {
            ExecKind::Plan => "plan",
            ExecKind::Interp => "interp",
            ExecKind::CreateColor => "interp_exclusive",
            ExecKind::None => "-",
        }
    }
}

/// Everything one request-log line carries. Built by the router as the
/// request flows through; rendered by [`RequestRecord::to_json_line`].
#[derive(Clone, Debug)]
pub struct RequestRecord {
    /// Wall-clock timestamp (ms since the epoch) when the request finished.
    pub ts_ms: u64,
    /// Server-assigned request id (also echoed as `X-Request-Id`).
    pub id: u64,
    /// HTTP method.
    pub method: String,
    /// Request path (no query string).
    pub endpoint: String,
    /// Response status code.
    pub status: u16,
    /// FNV-1a hash of the query text (0 when there is no query body).
    pub query_hash: u64,
    /// Plan-cache outcome, when the request consulted the cache.
    pub cache_hit: Option<bool>,
    /// Result rows (or tuples applied, for updates).
    pub rows: u64,
    /// End-to-end handler latency.
    pub latency: Duration,
    /// Buffer-pool hits attributable to this request (approximate
    /// under concurrency — global-counter delta).
    pub pool_hits: u64,
    /// Buffer-pool misses attributable to this request (same caveat).
    pub pool_misses: u64,
    /// Which executor ran the request.
    pub exec: ExecKind,
}

impl RequestRecord {
    /// A fresh record with everything zeroed except identity fields.
    pub fn new(id: u64, method: &str, endpoint: &str) -> RequestRecord {
        RequestRecord {
            ts_ms: 0,
            id,
            method: method.to_string(),
            endpoint: endpoint.to_string(),
            status: 0,
            query_hash: 0,
            cache_hit: None,
            rows: 0,
            latency: Duration::ZERO,
            pool_hits: 0,
            pool_misses: 0,
            exec: ExecKind::None,
        }
    }

    /// "ok" for 2xx, "error" otherwise — a pre-digested field so log
    /// pipelines don't need status-class logic.
    pub fn outcome(&self) -> &'static str {
        if (200..300).contains(&self.status) {
            "ok"
        } else {
            "error"
        }
    }

    /// The record as one newline-terminated JSON object.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"ts_ms\":");
        out.push_str(&self.ts_ms.to_string());
        out.push_str(",\"id\":");
        out.push_str(&self.id.to_string());
        out.push_str(",\"method\":");
        escape_into(&mut out, &self.method);
        out.push_str(",\"endpoint\":");
        escape_into(&mut out, &self.endpoint);
        out.push_str(",\"status\":");
        out.push_str(&self.status.to_string());
        out.push_str(",\"query_hash\":");
        escape_into(&mut out, &format!("{:016x}", self.query_hash));
        out.push_str(",\"cache\":");
        match self.cache_hit {
            Some(true) => out.push_str("\"hit\""),
            Some(false) => out.push_str("\"miss\""),
            None => out.push_str("\"-\""),
        }
        out.push_str(",\"rows\":");
        out.push_str(&self.rows.to_string());
        out.push_str(",\"latency_us\":");
        out.push_str(&(self.latency.as_micros() as u64).to_string());
        out.push_str(",\"pool_hits\":");
        out.push_str(&self.pool_hits.to_string());
        out.push_str(",\"pool_misses\":");
        out.push_str(&self.pool_misses.to_string());
        out.push_str(",\"exec\":\"");
        out.push_str(self.exec.as_str());
        out.push_str("\",\"outcome\":\"");
        out.push_str(self.outcome());
        out.push_str("\"}\n");
        out
    }
}

/// The structured request log: a buffered writer behind a mutex, plus
/// a dropped-line counter for write failures (the log must never take
/// the serving path down with it).
pub struct RequestLog {
    sink: Mutex<Sink>,
    errors: mct_obs::Counter,
}

/// The locked half of a [`RequestLog`]: the buffered writer plus the
/// flush rate limiter.
struct Sink {
    writer: BufWriter<Box<dyn Write + Send>>,
    last_flush: Instant,
}

impl RequestLog {
    fn with_sink(sink: Box<dyn Write + Send>) -> RequestLog {
        RequestLog {
            sink: Mutex::new(Sink {
                writer: BufWriter::new(sink),
                // Backdated so the very first line flushes through.
                last_flush: Instant::now() - FLUSH_INTERVAL,
            }),
            errors: mct_obs::counter("server.reqlog.write_errors"),
        }
    }

    /// Log to standard error.
    pub fn stderr() -> RequestLog {
        RequestLog::with_sink(Box::new(std::io::stderr()))
    }

    /// Log to `path`, appending (created if missing).
    pub fn file(path: &Path) -> std::io::Result<RequestLog> {
        let f = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(RequestLog::with_sink(Box::new(f)))
    }

    /// Open from the `--log-json` flag value: the literal `stderr`, or
    /// a file path.
    pub fn open(target: &str) -> std::io::Result<RequestLog> {
        if target == "stderr" {
            Ok(RequestLog::stderr())
        } else {
            RequestLog::file(Path::new(target))
        }
    }

    /// Write one record. The line is rendered before the lock is
    /// taken; flushes happen at most once per [`FLUSH_INTERVAL`];
    /// failures bump `server.reqlog.write_errors` and are otherwise
    /// swallowed.
    pub fn write(&self, rec: &RequestRecord) {
        let line = rec.to_json_line();
        let mut sink = self.sink.lock().unwrap_or_else(|e| e.into_inner());
        let mut outcome = sink.writer.write_all(line.as_bytes());
        if outcome.is_ok() && sink.last_flush.elapsed() >= FLUSH_INTERVAL {
            outcome = sink.writer.flush();
            sink.last_flush = Instant::now();
        }
        if outcome.is_err() {
            self.errors.inc();
        }
    }

    /// Flush buffered lines through to the sink — called on server
    /// drain so the file is complete when `shutdown()` returns.
    pub fn flush(&self) {
        let mut sink = self.sink.lock().unwrap_or_else(|e| e.into_inner());
        if sink.writer.flush().is_err() {
            self.errors.inc();
        }
        sink.last_flush = Instant::now();
    }
}

impl Drop for RequestLog {
    /// Non-drain exits — a panic unwinding past the server, an early
    /// error return in `mctd` startup — must not silently lose up to
    /// [`FLUSH_INTERVAL`]'s worth of buffered lines. `BufWriter`'s own
    /// drop would flush too, but swallows failures; going through
    /// [`RequestLog::flush`] counts them like every other write path.
    fn drop(&mut self) {
        self.flush();
    }
}

/// One captured slow request.
#[derive(Clone, Debug)]
pub struct SlowEntry {
    /// The request-log fields of the slow request.
    pub record: RequestRecord,
    /// Query text (truncated to [`SLOW_QUERY_CAP`]).
    pub query: String,
    /// Rendered per-operator analyze tree, when the planner ran the
    /// request (truncated to [`SLOW_PLAN_CAP`]); empty for
    /// interpreter-path queries and updates.
    pub analyze: String,
}

/// Bounded ring of the most recent slow requests.
pub struct SlowLog {
    threshold: Duration,
    entries: Mutex<VecDeque<SlowEntry>>,
    capacity: usize,
    /// This log's own capture count (the `server.slowlog.captured`
    /// metric is process-global and so useless per-instance).
    captured: std::sync::atomic::AtomicU64,
    captured_metric: mct_obs::Counter,
}

/// Truncate `s` to at most `cap` bytes on a char boundary, appending a
/// marker when anything was dropped.
fn truncate_to(s: &str, cap: usize) -> String {
    if s.len() <= cap {
        return s.to_string();
    }
    let mut end = cap;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}… [truncated {} bytes]", &s[..end], s.len() - end)
}

impl SlowLog {
    /// A slow log capturing requests at or over `threshold` (zero
    /// captures every query), keeping the newest `capacity` entries.
    pub fn new(threshold: Duration, capacity: usize) -> SlowLog {
        SlowLog {
            threshold,
            entries: Mutex::new(VecDeque::with_capacity(capacity.max(1))),
            capacity: capacity.max(1),
            captured: std::sync::atomic::AtomicU64::new(0),
            captured_metric: mct_obs::counter("server.slowlog.captured"),
        }
    }

    /// The capture threshold.
    pub fn threshold(&self) -> Duration {
        self.threshold
    }

    /// Should a request with this latency be captured?
    pub fn qualifies(&self, latency: Duration) -> bool {
        latency >= self.threshold
    }

    /// Capture one slow request (evicting the oldest entry at
    /// capacity). The caller has already checked [`qualifies`](Self::qualifies).
    pub fn capture(&self, record: RequestRecord, query: &str, analyze: &str) {
        let entry = SlowEntry {
            record,
            query: truncate_to(query, SLOW_QUERY_CAP),
            analyze: truncate_to(analyze, SLOW_PLAN_CAP),
        };
        let mut q = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if q.len() == self.capacity {
            q.pop_front();
        }
        q.push_back(entry);
        self.captured
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.captured_metric.inc();
    }

    /// Entries captured so far (monotone, not bounded by capacity).
    pub fn captured_total(&self) -> u64 {
        self.captured.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The `GET /slow` body: a JSON object with the threshold, totals,
    /// and the retained entries newest-first.
    pub fn to_json(&self) -> String {
        let q = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::with_capacity(1024);
        out.push_str("{\"threshold_ms\":");
        out.push_str(&(self.threshold.as_millis() as u64).to_string());
        out.push_str(",\"captured_total\":");
        out.push_str(&self.captured_total().to_string());
        out.push_str(",\"capacity\":");
        out.push_str(&self.capacity.to_string());
        out.push_str(",\"entries\":[");
        for (i, e) in q.iter().rev().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"ts_ms\":");
            out.push_str(&e.record.ts_ms.to_string());
            out.push_str(",\"id\":");
            out.push_str(&e.record.id.to_string());
            out.push_str(",\"endpoint\":");
            escape_into(&mut out, &e.record.endpoint);
            out.push_str(",\"status\":");
            out.push_str(&e.record.status.to_string());
            out.push_str(",\"latency_us\":");
            out.push_str(&(e.record.latency.as_micros() as u64).to_string());
            out.push_str(",\"rows\":");
            out.push_str(&e.record.rows.to_string());
            out.push_str(",\"cache\":");
            match e.record.cache_hit {
                Some(true) => out.push_str("\"hit\""),
                Some(false) => out.push_str("\"miss\""),
                None => out.push_str("\"-\""),
            }
            out.push_str(",\"exec\":\"");
            out.push_str(e.record.exec.as_str());
            out.push_str("\",\"query\":");
            escape_into(&mut out, &e.query);
            out.push_str(",\"analyze\":");
            escape_into(&mut out, &e.analyze);
            out.push('}');
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn rec(id: u64, latency_ms: u64, status: u16) -> RequestRecord {
        let mut r = RequestRecord::new(id, "POST", "/query");
        r.latency = Duration::from_millis(latency_ms);
        r.status = status;
        r.ts_ms = 1_700_000_000_000 + id;
        r.rows = id * 2;
        r.exec = ExecKind::Plan;
        r
    }

    #[test]
    fn request_record_renders_one_parseable_json_line() {
        let mut r = rec(7, 3, 200);
        r.query_hash = 0xdead_beef;
        r.cache_hit = Some(true);
        r.pool_hits = 11;
        let line = r.to_json_line();
        assert!(line.ends_with('}') || line.ends_with("}\n"));
        let v = Json::parse(line.trim()).unwrap();
        assert_eq!(v.get("id").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("endpoint").unwrap().as_str(), Some("/query"));
        assert_eq!(v.get("cache").unwrap().as_str(), Some("hit"));
        assert_eq!(v.get("query_hash").unwrap().as_str(), Some("00000000deadbeef"));
        assert_eq!(v.get("latency_us").unwrap().as_u64(), Some(3000));
        assert_eq!(v.get("pool_hits").unwrap().as_u64(), Some(11));
        assert_eq!(v.get("outcome").unwrap().as_str(), Some("ok"));
        assert_eq!(rec(1, 0, 404).outcome(), "error");
    }

    #[test]
    fn request_log_writes_lines_to_a_file() {
        let dir = std::env::temp_dir().join(format!("mct-obslog-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("req.jsonl");
        let _ = std::fs::remove_file(&path);
        let log = RequestLog::file(&path).unwrap();
        log.write(&rec(1, 1, 200));
        log.write(&rec(2, 2, 500));
        // The first line flushes through immediately; the second sits
        // in the buffer until the rate-limited flush interval elapses
        // or the drain-path flush runs, as here.
        log.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for l in &lines {
            Json::parse(l).unwrap();
        }
        assert_eq!(
            Json::parse(lines[1]).unwrap().get("outcome").unwrap().as_str(),
            Some("error")
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn dropping_the_log_flushes_buffered_lines() {
        let dir = std::env::temp_dir().join(format!("mct-obslog-drop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("req.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let log = RequestLog::file(&path).unwrap();
            log.write(&rec(1, 1, 200));
            // Within FLUSH_INTERVAL of the first write, this line stays
            // in the BufWriter: nothing has flushed it yet.
            log.write(&rec(2, 2, 200));
            // No explicit flush: the log simply goes out of scope.
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "drop must flush the buffered tail");
        assert_eq!(
            Json::parse(lines[1]).unwrap().get("id").unwrap().as_u64(),
            Some(2)
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn slow_log_thresholds_and_evicts_oldest() {
        let slow = SlowLog::new(Duration::from_millis(10), 2);
        assert!(!slow.qualifies(Duration::from_millis(9)));
        assert!(slow.qualifies(Duration::from_millis(10)));
        for id in 0..4 {
            slow.capture(rec(id, 50, 200), &format!("q{id}"), "plan tree");
        }
        assert_eq!(slow.captured_total(), 4);
        let v = Json::parse(slow.to_json().trim()).unwrap();
        assert_eq!(v.get("captured_total").unwrap().as_u64(), Some(4));
        let entries = v.get("entries").unwrap().as_array().unwrap();
        // Newest first, capacity 2: ids 3 then 2.
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].get("id").unwrap().as_u64(), Some(3));
        assert_eq!(entries[1].get("id").unwrap().as_u64(), Some(2));
        assert_eq!(entries[0].get("query").unwrap().as_str(), Some("q3"));
    }

    #[test]
    fn zero_threshold_captures_everything() {
        let slow = SlowLog::new(Duration::ZERO, 4);
        assert!(slow.qualifies(Duration::ZERO));
    }

    #[test]
    fn slow_entries_truncate_oversized_query_and_plan() {
        let slow = SlowLog::new(Duration::ZERO, 1);
        let long_query = "q".repeat(SLOW_QUERY_CAP + 100);
        let long_plan = "p".repeat(SLOW_PLAN_CAP + 100);
        slow.capture(rec(1, 1, 200), &long_query, &long_plan);
        let v = Json::parse(slow.to_json().trim()).unwrap();
        let e = &v.get("entries").unwrap().as_array().unwrap()[0];
        let q = e.get("query").unwrap().as_str().unwrap().to_string();
        let p = e.get("analyze").unwrap().as_str().unwrap().to_string();
        assert!(q.contains("[truncated 100 bytes]"), "{}", q.len());
        assert!(p.contains("[truncated 100 bytes]"));
        assert!(q.len() < SLOW_QUERY_CAP + 64);
        assert!(p.len() < SLOW_PLAN_CAP + 64);
    }
}
