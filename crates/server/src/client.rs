//! `mct-client` — a tiny blocking HTTP client for talking to `mctd`.
//!
//! One TCP connection per request (`Connection: close`): with a
//! connection-per-worker server, short-lived connections are what
//! keeps N clients from starving a smaller worker pool. Responses are
//! read to EOF and parsed leniently — this is a test/ops helper, not a
//! general HTTP client.
//!
//! ## Retries
//!
//! With [`Client::with_retries`], transient rejections are retried
//! with capped exponential backoff plus jitter:
//!
//! * a refused/failed **connect** (no request byte ever left) — always
//!   safe to retry, for any endpoint;
//! * a **`503`** response — the server rejected the request before
//!   executing it (admission control or drain), so a retry cannot
//!   double-apply; a `Retry-After` header, when present, overrides the
//!   computed backoff;
//! * an I/O error **after bytes were sent** — retried only for
//!   idempotent requests. `POST /update` is never resent once a single
//!   byte has gone out: the outcome is unknown and a retry could apply
//!   the update twice.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// A parsed response.
#[derive(Debug)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Headers, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes.
    pub body: Vec<u8>,
}

impl Reply {
    /// Body as (lossy) UTF-8.
    pub fn body_str(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Is the status 2xx?
    pub fn is_ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// Client for one `mctd` endpoint.
#[derive(Clone, Debug)]
pub struct Client {
    host: String,
    port: u16,
    timeout: Duration,
    retries: u32,
    backoff_base: Duration,
    backoff_cap: Duration,
}

/// Why one attempt failed — splits the I/O error by whether any
/// request byte reached the wire, which decides retry safety for
/// non-idempotent requests.
enum AttemptError {
    /// Connect (or resolve) failed: nothing was sent.
    BeforeSend(io::Error),
    /// The failure happened after at least one request byte went out.
    AfterSend(io::Error),
}

impl Client {
    /// A client for `host:port` with a 30 s I/O timeout and no
    /// retries.
    pub fn new(host: &str, port: u16) -> Client {
        Client {
            host: host.to_string(),
            port,
            timeout: Duration::from_secs(30),
            retries: 0,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(5),
        }
    }

    /// Override the connect/read/write timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Client {
        self.timeout = timeout;
        self
    }

    /// Retry transient failures up to `retries` extra attempts (see
    /// the module docs for what qualifies).
    pub fn with_retries(mut self, retries: u32) -> Client {
        self.retries = retries;
        self
    }

    /// Override the backoff schedule (base doubles per attempt, capped).
    pub fn with_backoff(mut self, base: Duration, cap: Duration) -> Client {
        self.backoff_base = base;
        self.backoff_cap = cap;
        self
    }

    /// Backoff before retry number `attempt` (1-based): exponential
    /// from the base, capped, with multiplicative jitter in
    /// [50%, 100%] so synchronized clients fan out.
    fn backoff(&self, attempt: u32) -> Duration {
        let exp = self
            .backoff_base
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.backoff_cap);
        // Cheap jitter without a rand dependency: sub-microsecond
        // clock bits are effectively uncorrelated across clients.
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0);
        let frac = 0.5 + 0.5 * f64::from(nanos % 1000) / 1000.0;
        exp.mul_f64(frac)
    }

    /// Issue one request, retrying transient failures per the policy.
    pub fn request(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
        extra_headers: &[(&str, &str)],
    ) -> io::Result<Reply> {
        // `POST /update` must never be resent once a byte is out.
        let idempotent = !path.starts_with("/update");
        let mut attempt = 0u32;
        loop {
            let outcome = self.request_once(method, path, body, extra_headers);
            let can_retry = attempt < self.retries;
            attempt += 1;
            match outcome {
                Ok(reply) if reply.status == 503 && can_retry => {
                    let wait = reply
                        .header("retry-after")
                        .and_then(|v| v.parse::<u64>().ok())
                        .map(Duration::from_secs)
                        .map(|d| d.min(self.backoff_cap))
                        .unwrap_or_else(|| self.backoff(attempt));
                    std::thread::sleep(wait);
                }
                Ok(reply) => return Ok(reply),
                Err(AttemptError::BeforeSend(e)) if can_retry && transient(&e) => {
                    std::thread::sleep(self.backoff(attempt));
                }
                Err(AttemptError::AfterSend(e)) if can_retry && idempotent && transient(&e) => {
                    std::thread::sleep(self.backoff(attempt));
                }
                Err(AttemptError::BeforeSend(e)) | Err(AttemptError::AfterSend(e)) => {
                    return Err(e)
                }
            }
        }
    }

    /// One attempt: connect, send, read to EOF.
    fn request_once(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
        extra_headers: &[(&str, &str)],
    ) -> Result<Reply, AttemptError> {
        let pre = |e: io::Error| AttemptError::BeforeSend(e);
        let addr = (self.host.as_str(), self.port)
            .to_socket_addrs()
            .map_err(pre)?
            .next()
            .ok_or_else(|| pre(io::Error::other("no address resolved")))?;
        let mut stream = TcpStream::connect_timeout(&addr, self.timeout).map_err(pre)?;
        stream.set_read_timeout(Some(self.timeout)).map_err(pre)?;
        stream.set_write_timeout(Some(self.timeout)).map_err(pre)?;
        let _ = stream.set_nodelay(true);

        let body = body.unwrap_or("");
        let mut req = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}:{}\r\nConnection: close\r\nContent-Length: {}\r\n",
            self.host,
            self.port,
            body.len()
        );
        for (k, v) in extra_headers {
            req.push_str(&format!("{k}: {v}\r\n"));
        }
        req.push_str("\r\n");
        // From the first write on, a failure may have reached the
        // server: everything below is an after-send error.
        let post = AttemptError::AfterSend;
        stream.write_all(req.as_bytes()).map_err(post)?;
        stream.write_all(body.as_bytes()).map_err(post)?;
        stream.flush().map_err(post)?;

        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).map_err(post)?;
        parse_reply(&raw).map_err(post)
    }

    /// `POST /query`, XML response.
    pub fn query(&self, text: &str) -> io::Result<Reply> {
        self.request("POST", "/query", Some(text), &[])
    }

    /// `POST /query?format=json`.
    pub fn query_json(&self, text: &str) -> io::Result<Reply> {
        self.request("POST", "/query?format=json", Some(text), &[])
    }

    /// `POST /query` with an explicit per-request deadline.
    pub fn query_with_deadline(&self, text: &str, deadline_ms: u64) -> io::Result<Reply> {
        let ms = deadline_ms.to_string();
        self.request("POST", "/query", Some(text), &[("X-Deadline-Ms", &ms)])
    }

    /// `POST /update`.
    pub fn update(&self, text: &str) -> io::Result<Reply> {
        self.request("POST", "/update", Some(text), &[])
    }

    /// `GET /metrics` (Prometheus text).
    pub fn metrics(&self) -> io::Result<Reply> {
        self.request("GET", "/metrics", None, &[])
    }

    /// `GET /check` — run the server-side deep consistency checker.
    pub fn check(&self) -> io::Result<Reply> {
        self.request("GET", "/check", None, &[])
    }

    /// `GET /healthz`.
    pub fn healthz(&self) -> io::Result<Reply> {
        self.request("GET", "/healthz", None, &[])
    }

    /// `GET /stats?window=N` — the last `window` sampler ticks as a
    /// JSON time series.
    pub fn stats(&self, window: usize) -> io::Result<Reply> {
        self.request("GET", &format!("/stats?window={window}"), None, &[])
    }

    /// `GET /slow` — captured slow queries with their analyze trees.
    pub fn slow(&self) -> io::Result<Reply> {
        self.request("GET", "/slow", None, &[])
    }
}

/// Client for a replicated deployment: one primary plus any number of
/// read replicas, addressed as a single pool.
///
/// * **Reads** round-robin across every endpoint; an endpoint that
///   fails transiently is skipped and the next one tried, so a dead
///   replica costs one connect attempt, not the request.
/// * **Updates** go to the last known primary. A `421 Misdirected
///   Request` (a replica refusing a write) is followed once to the
///   address in its `X-Primary` header — safe, because `421` means the
///   update was never executed — and the learned primary sticks for
///   subsequent updates. Updates rotate endpoints only on a *refused
///   connect* (no byte ever left), never after bytes went out: an
///   ambiguous outcome must not be re-applied elsewhere.
pub struct MultiClient {
    clients: Vec<Client>,
    next: AtomicUsize,
    primary: Mutex<Option<Client>>,
}

/// Split `"host:port"`.
fn split_endpoint(s: &str) -> io::Result<(String, u16)> {
    let (host, port) = s
        .rsplit_once(':')
        .ok_or_else(|| io::Error::other(format!("endpoint '{s}' is not host:port")))?;
    let port = port
        .parse()
        .map_err(|_| io::Error::other(format!("endpoint '{s}' has a bad port")))?;
    Ok((host.to_string(), port))
}

impl MultiClient {
    /// A pool over pre-configured per-endpoint clients (their timeout
    /// and retry settings carry over). The first endpoint is the
    /// initial primary guess for updates.
    pub fn new(clients: Vec<Client>) -> MultiClient {
        assert!(!clients.is_empty(), "MultiClient needs at least one endpoint");
        MultiClient {
            clients,
            next: AtomicUsize::new(0),
            primary: Mutex::new(None),
        }
    }

    /// A pool from a comma-separated `host:port,host:port,…` list.
    pub fn parse(list: &str) -> io::Result<MultiClient> {
        let mut clients = Vec::new();
        for part in list.split(',').filter(|p| !p.trim().is_empty()) {
            let (host, port) = split_endpoint(part.trim())?;
            clients.push(Client::new(&host, port));
        }
        if clients.is_empty() {
            return Err(io::Error::other("empty endpoint list"));
        }
        Ok(MultiClient::new(clients))
    }

    /// Reconfigure every endpoint client (timeouts, retries, …).
    pub fn map_clients(mut self, f: impl Fn(Client) -> Client) -> MultiClient {
        self.clients = self.clients.into_iter().map(&f).collect();
        self
    }

    /// Number of endpoints in the pool.
    pub fn endpoints(&self) -> usize {
        self.clients.len()
    }

    /// Round-robin a read across the pool, skipping endpoints that
    /// fail transiently.
    fn read(&self, f: impl Fn(&Client) -> io::Result<Reply>) -> io::Result<Reply> {
        let n = self.clients.len();
        let start = self.next.fetch_add(1, Ordering::Relaxed);
        let mut last = None;
        for k in 0..n {
            match f(&self.clients[(start + k) % n]) {
                Ok(reply) => return Ok(reply),
                Err(e) if transient(&e) => last = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or_else(|| io::Error::other("no endpoint answered")))
    }

    /// `POST /query` on the next endpoint (round-robin).
    pub fn query(&self, text: &str) -> io::Result<Reply> {
        self.read(|c| c.query(text))
    }

    /// `POST /query?format=json` on the next endpoint.
    pub fn query_json(&self, text: &str) -> io::Result<Reply> {
        self.read(|c| c.query_json(text))
    }

    /// `GET /healthz` on the next endpoint.
    pub fn healthz(&self) -> io::Result<Reply> {
        self.read(|c| c.healthz())
    }

    fn learned_primary(&self) -> Option<Client> {
        self.primary
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn learn_primary(&self, c: Client) {
        *self.primary.lock().unwrap_or_else(PoisonError::into_inner) = Some(c);
    }

    /// `POST /update`, routed to the primary: tries the last known
    /// primary first, follows one `421` misdirect per candidate, and
    /// rotates past refused connects only.
    pub fn update(&self, text: &str) -> io::Result<Reply> {
        let mut candidates = Vec::new();
        if let Some(p) = self.learned_primary() {
            candidates.push(p);
        }
        let n = self.clients.len();
        let start = self.next.fetch_add(1, Ordering::Relaxed);
        for k in 0..n {
            candidates.push(self.clients[(start + k) % n].clone());
        }
        let mut last = None;
        for c in candidates {
            match c.update(text) {
                Ok(reply) if reply.status == 421 => {
                    let Some(addr) = reply.header("x-primary") else {
                        return Ok(reply);
                    };
                    let (host, port) = split_endpoint(addr)?;
                    let p = Client {
                        host,
                        port,
                        ..c.clone()
                    };
                    self.learn_primary(p.clone());
                    // Resending is safe: 421 means never executed.
                    match p.update(text) {
                        Ok(reply) => return Ok(reply),
                        Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => last = Some(e),
                        Err(e) => return Err(e),
                    }
                }
                Ok(reply) => {
                    if reply.is_ok() {
                        self.learn_primary(c);
                    }
                    return Ok(reply);
                }
                // Refused connect = no byte left this machine; any
                // other failure is ambiguous and must surface.
                Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => last = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or_else(|| io::Error::other("no endpoint answered")))
    }
}

/// Is this I/O error worth another attempt?
fn transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::TimedOut
            | io::ErrorKind::WouldBlock
    )
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

/// Parse a full `Connection: close` response capture.
fn parse_reply(raw: &[u8]) -> io::Result<Reply> {
    let header_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| {
            // The peer closed before a whole header arrived.
            let what = "no header/body separator in response";
            io::Error::new(io::ErrorKind::UnexpectedEof, what)
        })?;
    let head = std::str::from_utf8(&raw[..header_end])
        .map_err(|_| io::Error::other("non-UTF-8 response head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::other("unparseable status line"))?;
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    Ok(Reply {
        status,
        headers,
        body: raw[header_end + 4..].to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    #[test]
    fn parses_a_closed_connection_capture() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 3\r\n\r\nok\n";
        let r = parse_reply(raw).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.header("content-type"), Some("text/plain"));
        assert_eq!(r.body_str(), "ok\n");
        assert!(r.is_ok());
    }

    #[test]
    fn prom_value_finds_flat_counter_lines() {
        let text = "# TYPE server_plan_cache_hits counter\nserver_plan_cache_hits 42\n\
                    server_plan_cache_misses 7\nserver_inflight 0\n";
        assert_eq!(prom_value(text, "server.plan_cache.hits"), Some(42));
        assert_eq!(prom_value(text, "server.plan_cache.misses"), Some(7));
        assert_eq!(prom_value(text, "server.inflight"), Some(0));
        assert_eq!(prom_value(text, "absent.metric"), None);
    }

    /// What the scripted server does with the n-th connection.
    #[derive(Clone, Copy)]
    enum Script {
        /// Read the request, answer 503 with `Retry-After: 0`.
        Busy,
        /// Read the request, answer 200.
        Ok,
        /// Read a little, then slam the connection shut (no response).
        Hangup,
        /// Read the request, answer `421` with `X-Primary:
        /// 127.0.0.1:<port>` — a replica refusing a write.
        Misdirect(u16),
    }

    /// A fake `mctd` following a per-connection script; returns
    /// (port, accept counter). Exits after the script runs out.
    fn scripted_server(script: Vec<Script>) -> (u16, Arc<AtomicU32>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let accepts = Arc::new(AtomicU32::new(0));
        let counter = Arc::clone(&accepts);
        std::thread::spawn(move || {
            for step in script {
                let (mut sock, _) = match listener.accept() {
                    Ok(c) => c,
                    Err(_) => return,
                };
                counter.fetch_add(1, Ordering::SeqCst);
                let mut buf = [0u8; 1024];
                let _ = sock.read(&mut buf);
                let response = match step {
                    Script::Busy => {
                        "HTTP/1.1 503 Busy\r\nRetry-After: 0\r\nContent-Length: 5\r\n\r\nbusy\n"
                            .to_string()
                    }
                    Script::Ok => "HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nok\n".to_string(),
                    Script::Hangup => {
                        // Close without a response: the client sees an
                        // empty capture and classifies it transient.
                        drop(sock);
                        continue;
                    }
                    Script::Misdirect(primary_port) => format!(
                        "HTTP/1.1 421 Misdirected Request\r\n\
                         X-Primary: 127.0.0.1:{primary_port}\r\n\
                         Content-Length: 9\r\n\r\nreadonly\n"
                    ),
                };
                let _ = sock.write_all(response.as_bytes());
                // Half-close, then drain what is left of the request
                // until the client hangs up: closing with unread bytes
                // would reset the connection under the reply.
                let _ = sock.shutdown(std::net::Shutdown::Write);
                let _ = io::copy(&mut sock, &mut io::sink());
            }
        });
        (port, accepts)
    }

    fn fast(port: u16, retries: u32) -> Client {
        Client::new("127.0.0.1", port)
            .with_timeout(Duration::from_secs(5))
            .with_retries(retries)
            .with_backoff(Duration::from_millis(1), Duration::from_millis(20))
    }

    #[test]
    fn retries_past_503_honoring_retry_after() {
        let (port, accepts) = scripted_server(vec![Script::Busy, Script::Busy, Script::Ok]);
        let r = fast(port, 3).query("q").unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(accepts.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn no_retries_means_the_503_surfaces() {
        let (port, accepts) = scripted_server(vec![Script::Busy, Script::Ok]);
        let r = fast(port, 0).query("q").unwrap();
        assert_eq!(r.status, 503);
        assert_eq!(accepts.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn query_is_retried_after_a_midstream_hangup() {
        let (port, accepts) = scripted_server(vec![Script::Hangup, Script::Ok]);
        let r = fast(port, 2).query("q").unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(accepts.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn update_is_never_resent_after_bytes_went_out() {
        let (port, accepts) = scripted_server(vec![Script::Hangup, Script::Ok]);
        let err = fast(port, 5).update("u").unwrap_err();
        // One connection only: the retry budget must not be spent on a
        // non-idempotent request with an unknown outcome.
        assert_eq!(accepts.load(Ordering::SeqCst), 1, "update was resent: {err}");
    }

    /// A client of an endpoint that refuses connections, and the
    /// listener that keeps it dead. Binding and dropping a port is not
    /// enough: a test running in parallel can be handed the freed port
    /// and would then answer. The listener holds the port on 127.0.0.1
    /// for the test's lifetime, and the client dials that port on
    /// 127.0.0.2 — also loopback on Linux, where nothing listens.
    fn dead_endpoint(retries: u32) -> (TcpListener, Client) {
        let reserved = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = reserved.local_addr().unwrap().port();
        let client = Client {
            host: "127.0.0.2".to_string(),
            ..fast(port, retries)
        };
        (reserved, client)
    }

    #[test]
    fn multi_client_round_robins_reads_across_endpoints() {
        let (p1, a1) = scripted_server(vec![Script::Ok, Script::Ok]);
        let (p2, a2) = scripted_server(vec![Script::Ok, Script::Ok]);
        let mc = MultiClient::new(vec![fast(p1, 0), fast(p2, 0)]);
        for _ in 0..4 {
            assert_eq!(mc.query("q").unwrap().status, 200);
        }
        assert_eq!(a1.load(Ordering::SeqCst), 2, "endpoint 1 share");
        assert_eq!(a2.load(Ordering::SeqCst), 2, "endpoint 2 share");
    }

    #[test]
    fn multi_client_skips_a_dead_endpoint_and_rotates() {
        let (alive, accepts) = scripted_server(vec![Script::Ok, Script::Ok, Script::Ok]);
        let (_reserved, dead) = dead_endpoint(0);
        let mc = MultiClient::new(vec![dead, fast(alive, 0)]);
        for _ in 0..3 {
            assert_eq!(mc.query("q").unwrap().status, 200);
        }
        assert_eq!(accepts.load(Ordering::SeqCst), 3, "all reads landed alive");
    }

    #[test]
    fn multi_client_follows_421_to_the_primary_and_sticks() {
        let (primary, pa) = scripted_server(vec![Script::Ok, Script::Ok]);
        let (replica, ra) = scripted_server(vec![Script::Misdirect(primary)]);
        let mc = MultiClient::new(vec![fast(replica, 0)]);
        // First update bounces off the replica, follows X-Primary.
        assert_eq!(mc.update("u").unwrap().status, 200);
        assert_eq!(ra.load(Ordering::SeqCst), 1);
        assert_eq!(pa.load(Ordering::SeqCst), 1);
        // Second update goes straight to the learned primary.
        assert_eq!(mc.update("u").unwrap().status, 200);
        assert_eq!(pa.load(Ordering::SeqCst), 2);
        assert_eq!(ra.load(Ordering::SeqCst), 1, "replica was not retried");
    }

    #[test]
    fn multi_client_update_does_not_rotate_after_bytes_went_out() {
        // The hangup happens mid-request: the outcome is unknown, so
        // the second (healthy) endpoint must never see the update.
        let (broken, _) = scripted_server(vec![Script::Hangup]);
        let (healthy, accepts) = scripted_server(vec![Script::Ok]);
        let mc = MultiClient::new(vec![fast(broken, 0), fast(healthy, 0)]);
        // Fix the rotation so the broken endpoint is hit first.
        mc.update("u").unwrap_err();
        assert_eq!(
            accepts.load(Ordering::SeqCst),
            0,
            "ambiguous update was re-applied on another endpoint"
        );
    }

    #[test]
    fn connect_refused_exhausts_retries_then_errors() {
        let (_reserved, dead) = dead_endpoint(2);
        let t0 = std::time::Instant::now();
        let err = dead.update("u").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
        // Two backoffs happened (1-2ms each at the test schedule).
        assert!(t0.elapsed() >= Duration::from_millis(2));
    }
}
