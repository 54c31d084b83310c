//! All four workloads at a twentieth of the scale, two seeds, both
//! modes: every metric `BENCHMARK.json` declares comes out by name,
//! finite, with its unit; every gate holds; and the same seed writes
//! the same number of WAL bytes.
//!
//! One test function: the workloads read process-global counters and
//! must not overlap.

use mct_server::Json;
use mctbench::report::{run_workload, END_TO_END, PER_LAYER, WORKLOADS};
use mctbench::workloads::{Config, DurableUpdate, Workload};
use std::path::PathBuf;
use std::time::Instant;

const SCALE: f64 = 0.05;

fn config(seed: u64) -> Config {
    Config {
        seed,
        scale: SCALE,
        scratch: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke"),
    }
}

/// `(name, unit)` pairs of one section of `BENCHMARK.json`.
fn declared(decl: &Json, section: &str) -> Vec<(String, String)> {
    decl.get(section)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn wal_bytes_of_20_updates(seed: u64) -> u64 {
    let mut w = DurableUpdate::setup(&config(seed)).expect("durable set-up");
    let appended = mct_obs::counter("wal.bytes_appended");
    let before = appended.get();
    let seg = w.run_updates(20, false);
    let bytes = appended.get() - before;
    assert_eq!(seg.failed, 0, "{:?}", seg.notes);
    assert_eq!(w.verify(), Vec::<String>::new());
    w.teardown();
    bytes
}

#[test]
fn every_declared_metric_comes_out_of_every_workload() {
    let started = Instant::now();
    let decl = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let decl = Json::parse(&decl).expect("BENCHMARK.json parses");

    // The program's tables and the declaration are one list.
    let pairs = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared(&decl, "end_to_end"), pairs(&END_TO_END));
    assert_eq!(declared(&decl, "per_layer"), pairs(&PER_LAYER));
    let names: Vec<String> = decl
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect();
    assert_eq!(names, WORKLOADS);

    for workload in WORKLOADS {
        for (seed, trace) in [(1, false), (2, false), (1, true), (2, true)] {
            let section = if trace { "per_layer" } else { "end_to_end" };
            let out = run_workload(workload, &config(seed), 0.4, trace)
                .unwrap_or_else(|e| panic!("{workload} seed {seed} trace {trace}: {e}"));
            assert!(
                out.correct,
                "{workload} seed {seed} trace {trace}:\n{}",
                out.report
            );
            assert_eq!(out.failed, 0);
            assert!(out.attempted >= 1);
            // The line the driver reads carries every declared metric.
            let line = Json::parse(&out.result_line()).expect("result line is JSON");
            let metrics = line.get("metrics").expect("metrics object");
            let want = declared(&decl, section);
            for (name, unit) in &want {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload}: no {name}"));
                let value = m.get("value").and_then(Json::as_f64).unwrap();
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(unit.as_str()),
                    "{name}"
                );
            }
            assert_eq!(
                out.metrics.len(),
                want.len(),
                "{workload}: undeclared metrics in the line"
            );
            if !trace {
                // End-to-end metrics are never zero.
                assert!(
                    out.metrics.iter().all(|m| m.1 > 0.0),
                    "{workload}: {:?}",
                    out.metrics
                );
                continue;
            }
            let value = |name: &str| out.metrics.iter().find(|m| m.0 == name).unwrap().1;
            assert_eq!(
                value("query.planner_coverage"),
                8.0 / 24.0,
                "the 8 path statements plan"
            );
            // Predicted-no-change cells.
            let in_process = matches!(workload, "engine.read" | "durable.update");
            assert_eq!(value("server.requests") == 0.0, in_process, "{workload}");
            let reads_only = matches!(workload, "engine.read" | "served.read");
            assert_eq!(
                value("storage.wal_bytes_per_commit") == 0.0,
                reads_only,
                "{workload}"
            );
            if reads_only {
                assert_eq!(
                    value("storage.pool_hit_ratio"),
                    1.0,
                    "{workload}: data fits the pool"
                );
            }
            let trace_file = config(seed).scratch.join(format!("trace-{workload}.json"));
            let spans = std::fs::read_to_string(&trace_file).expect("trace file written");
            assert!(
                Json::parse(&spans).is_ok(),
                "{} is not JSON",
                trace_file.display()
            );
        }
    }

    // The seed is the only source of randomness.
    let (a, b, c) = (
        wal_bytes_of_20_updates(7),
        wal_bytes_of_20_updates(7),
        wal_bytes_of_20_updates(8),
    );
    assert_eq!(a, b, "same seed, other WAL byte count");
    assert_ne!(a, c, "other seed, same WAL byte count");

    let _ = std::fs::remove_dir_all(config(0).scratch);
    // The budget is for the optimized build the benchmark always runs as.
    assert!(
        cfg!(debug_assertions) || started.elapsed().as_secs() < 30,
        "smoke test took {:?}",
        started.elapsed()
    );
}
