//! `mctbench` — the repository's benchmark: four named workloads,
//! end-to-end and per-layer metrics, one JSON result. See `README.md`.

pub mod engine;
pub mod mix;
pub mod probes;
pub mod recorder;
pub mod report;
pub mod trace;
pub mod workloads;
