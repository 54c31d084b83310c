//! # mct-server — `mctd`, a multi-threaded MCXQuery network server
//!
//! Takes the engine the paper evaluates single-process and puts it
//! behind a socket: one shared [`StoredDb`](mct_core::StoredDb) served
//! over a minimal std-only HTTP/1.1 subset. No external crates — the
//! protocol layer, thread pool, and client are all in-tree, matching
//! the repo's zero-dependency rule.
//!
//! * [`http`] — bounded request parsing and response serialization
//!   (hostile input costs bounded memory and a 4xx, never a panic).
//! * [`server`] — acceptor → bounded queue (backpressure: `503` +
//!   `Retry-After`) → worker pool → shared `RwLock<StoredDb>`;
//!   per-request deadlines via [`CancelToken`](mct_query::CancelToken)
//!   checked at morsel boundaries (`408`); graceful drain that
//!   finishes every accepted request.
//! * [`cache`] — sharded LRU prepared-statement cache keyed by query
//!   text, stamped with the store generation so any update invalidates
//!   stale plans.
//! * [`render`] — one `Row` shape for planner and interpreter results,
//!   rendered as XML or JSON; shared with tests so "server response ≡
//!   direct execution" is a byte comparison.
//! * [`client`] — `mct-client`, a tiny blocking HTTP helper, and
//!   [`prom_value`] for reading one line of `GET /metrics`.
//! * [`obslog`] — structured JSON request log (`--log-json`) and the
//!   bounded slow-query capture ring behind `GET /slow`.
//! * [`stats`] — windowed time-series derivation for `GET /stats`
//!   (qps, error rate, latency quantiles, pool hit ratio per sampler
//!   interval), fed by the [`mct_obs::Sampler`] ring.
//! * [`json`] — `mct_obs::json`, re-exported: the JSON reader `mcttop`
//!   and the tests use to consume the observability endpoints, and the
//!   escaper behind every JSON body.
//!
//! Replication (`mct-repl`) plugs in beside the server: `mctd
//! --repl-listen` streams the WAL to replicas, `mctd --replica-of`
//! serves the read surface from a replicated store and answers
//! `POST /update` with `421` + `X-Primary`; [`client::MultiClient`]
//! (CLI: `mct-client --endpoints`) round-robins reads across a pool
//! and follows the misdirect for updates. See DESIGN.md §16.
//!
//! Endpoints: `POST /query` (body = MCXQuery; `?format=json` for JSON
//! rows), `POST /update`, `GET /metrics` (Prometheus), `GET /healthz`
//! (JSON status + uptime), `GET /stats?window=N` (time series),
//! `GET /slow` (captured slow queries with analyze trees). Every
//! response carries an `X-Request-Id` header matching the request-log
//! line. See DESIGN.md §12 (serving) and §14 (request observability).

pub mod cache;
pub mod client;
pub mod http;
pub mod obslog;
pub mod render;
pub mod server;
pub mod stats;

pub use cache::{PlanCache, Prepared};
pub use client::{prom_value, Client, MultiClient, Reply};
pub use http::{Request, Response};
pub use mct_obs::json;
pub use json::Json;
pub use obslog::{ExecKind, RequestLog, RequestRecord, SlowLog};
pub use render::{render_json, render_xml, rows_from_items, rows_from_tuples, Row};
pub use server::{serve, serve_shared, AppState, ObsState, ServerConfig, ServerHandle, ServerMetrics};
