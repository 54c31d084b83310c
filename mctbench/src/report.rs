//! From segments to named metrics: the result line the driver reads,
//! the trace file, and the `--repeat` / `--compare` summaries.

use crate::probes::Probes;
use crate::recorder::{median, quartiles, Samples};
use crate::workloads::{
    Config, DurableUpdate, EngineRead, Sample, Segment, ServedMixed, ServedRead, SetupParts,
    Workload,
};
use mct_obs::RegistrySnapshot;
use mct_server::Json;
use std::fmt::Write as _;

/// Workload names, in the order `--all` runs them.
pub const WORKLOADS: [&str; 4] = [
    "engine.read",
    "served.read",
    "durable.update",
    "served.mixed",
];

/// End-to-end metrics (`--trace 0`), as `BENCHMARK.json` declares them
/// and in the order `run` fills them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_s", "1/s"),
    ("setup_s", "s"),
];

/// Per-layer metrics (`--trace 1`), as `BENCHMARK.json` declares them.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("workloads.generate_s", "s"),
    ("workloads.build_tree_s", "s"),
    ("core.store_build_s", "s"),
    ("core.store_build_us_per_element", "us"),
    ("core.begin_txn_ms", "ms"),
    ("core.commit_txn_ms", "ms"),
    ("core.snapshot_bytes", "bytes"),
    ("core.crosstree_us", "us"),
    ("core.crosstree_direct_us", "us"),
    ("storage.pool_hit_ratio", "ratio"),
    ("storage.pool_misses_per_op", "count"),
    ("storage.evictions_per_op", "count"),
    ("storage.writebacks_per_op", "count"),
    ("storage.index_probes_per_op", "count"),
    ("storage.heap_reads_per_op", "count"),
    ("storage.pages_per_probe", "count"),
    ("storage.wal_bytes_per_commit", "bytes"),
    ("storage.fsyncs_per_commit", "count"),
    ("storage.wal_commit_probe_ms", "ms"),
    ("storage.checkpoints", "count"),
    ("storage.checkpoint_stall_share", "share"),
    ("query.parse_us", "us"),
    ("query.plan_us", "us"),
    ("query.exec_ms", "ms"),
    ("query.interp_ms", "ms"),
    ("query.handplan_ms", "ms"),
    ("query.planner_coverage", "ratio"),
    ("query.crosstree_rows_per_op", "count"),
    ("server.handle_ms", "ms"),
    ("server.render_ms", "ms"),
    ("server.socket_http_ms", "ms"),
    ("server.plan_cache_hit_ratio", "ratio"),
    ("server.requests", "count"),
    ("server.rejected", "count"),
    ("repl.apply_lag_per_update", "ratio"),
    ("xml.parse_mb_s", "MB/s"),
    ("serialize.emit_ms", "ms"),
    ("serialize.reconstruct_ms", "ms"),
    ("unaccounted_share", "share"),
    ("trace_overhead_share", "share"),
];

/// The traced run fails when the parts of its ops leave more than this
/// share of their time unexplained.
pub const MAX_UNACCOUNTED: f64 = 0.10;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// The timed part is cut into this many equal slices of time and every
/// end-to-end number is computed per slice …
const SLICES: usize = 10;

/// … and the one reported is the third best of the ten. Whatever else
/// runs on the machine only ever makes a slice slower, for seconds at a
/// time here (a median over slices still moved 10 % between runs of one
/// commit; the third best moves 2–6 %). Everything the program does
/// itself at least a few times a second — checkpoints, updates beside
/// reads — is in every slice and so in this one.
const QUIET_RANK: usize = 3;

/// Share of `--seconds` each of the traced run's two timed parts gets.
const TRACED_PART: f64 = 0.4;

/// What one run found.
pub struct Outcome {
    /// No op failed and every gate held.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed or answered wrongly, plus gate violations.
    pub failed: u64,
    /// The declared metrics: `(name, value, unit)`.
    pub metrics: Probes,
    /// Human-readable lines: class latencies, gates, extras.
    pub report: String,
}

impl Outcome {
    /// The one-line JSON object the driver reads.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Run `workload` once: untraced it sets up [`SETUPS`] times and
/// measures on the last; traced it sets up once.
pub fn run_workload(
    workload: &str,
    cfg: &Config,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, String> {
    let run = match workload {
        "engine.read" => run::<EngineRead>,
        "served.read" => run::<ServedRead>,
        "durable.update" => run::<DurableUpdate>,
        "served.mixed" => run::<ServedMixed>,
        other => return Err(format!("unknown workload {other:?}; one of {WORKLOADS:?}")),
    };
    run(workload, cfg, seconds, trace)
}

fn run<W: Workload>(
    name: &str,
    cfg: &Config,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, String> {
    if trace {
        return run_traced::<W>(name, cfg, seconds);
    }
    let mut setup_s = Vec::new();
    let mut w = None;
    for _ in 0..SETUPS {
        if let Some(old) = w.take() {
            W::teardown(old);
        }
        let t = std::time::Instant::now();
        w = Some(W::setup(cfg)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut w = w.expect("set up at least once");
    let seg = w.run(seconds, false);
    let gates = w.verify();
    let extras = w.extras();
    w.teardown();

    let (p50, p90, ops_s) = sliced(&seg);
    let metrics = END_TO_END
        .iter()
        .zip([p50, p90, ops_s, median(&setup_s)])
        .map(|(&(name, unit), value)| (name.to_string(), value, unit))
        .collect();
    let mut report = format!(
        "{name} seed {} scale {} — {:.2} s timed\n",
        cfg.seed, cfg.scale, seg.elapsed_s
    );
    let _ = writeln!(report, "  set-ups: {setup_s:.3?} s");
    describe(&mut report, &seg, &gates, &extras);
    finish(metrics, &[&seg], gates, report)
}

fn run_traced<W: Workload>(name: &str, cfg: &Config, seconds: f64) -> Result<Outcome, String> {
    let mut w = W::setup(cfg)?;
    // Counters are read around the untraced part: the traced part runs
    // every seventh served request four times and would count each.
    let before = mct_obs::global().snapshot();
    let plain = w.run(seconds * TRACED_PART, false);
    let counters = mct_obs::global().snapshot().delta_since(&before);
    let traced = w.run(seconds * TRACED_PART, true);
    let mut gates = w.verify();
    let mut probes = Probes::new();
    let probed = w.probe(cfg, &mut probes);
    let extras = w.extras();
    let parts = w.setup_parts();
    w.teardown();
    probed?;

    let mut values = probes;
    values.extend(extras.iter().cloned());
    setup_metrics(&parts, &mut values);
    counter_metrics(&counters, &plain, &mut values);
    // The whole is the handler where a server ran the op (its stages
    // were recorded under `server.handle`), else the op itself. The
    // median op speaks for the run, signed: whole and stages of a
    // served op are separate executions that differ by several percent
    // either way with four busy threads on two cores, and only what
    // does not cancel is unexplained.
    let unaccounted = traced.tracer.as_ref().map_or(0.0, |tr| {
        let served = tr.residual_shares("server.handle");
        median(&if served.is_empty() {
            tr.residual_shares("op")
        } else {
            served
        })
        .abs()
    });
    values.push(("unaccounted_share".to_string(), unaccounted, "share"));
    let p50 =
        |seg: &Segment| Samples::new(seg.samples.iter().map(|s| s.ns).collect()).quantile_ms(0.5);
    let overhead = match (p50(&plain), p50(&traced)) {
        (Some(a), Some(b)) if a > 0.0 => (b - a) / a,
        _ => 0.0,
    };
    values.push(("trace_overhead_share".to_string(), overhead, "share"));

    if unaccounted > MAX_UNACCOUNTED {
        gates.push(format!(
            "unaccounted_share {unaccounted:.3} above {MAX_UNACCOUNTED}"
        ));
    }
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = values.iter().find(|(n, _, _)| n == name).map(|v| v.1);
            value
                .map(|v| (name.to_string(), v, unit))
                .ok_or_else(|| format!("per-layer metric {name} was not measured"))
        })
        .collect::<Result<Probes, String>>()?;

    let mut report = format!(
        "{name} seed {} scale {} — traced: {:.2} s plain + {:.2} s with spans\n",
        cfg.seed, cfg.scale, plain.elapsed_s, traced.elapsed_s
    );
    describe(&mut report, &plain, &gates, &extras);
    let tracer = traced.tracer.as_ref();
    if let Some(tr) = tracer {
        let _ = writeln!(
            report,
            "  spans: {} (name: count, total ms, self ms)",
            tr.spans().len()
        );
        for (span, (n, total, own)) in tr.self_times() {
            let _ = writeln!(
                report,
                "    {span}: {n}, {:.3}, {:.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
    }
    // Everything measured, declared or not, goes to the trace file.
    let path = cfg.scratch.join(format!("trace-{name}.json"));
    let written = std::fs::create_dir_all(&cfg.scratch)
        .and_then(|()| std::fs::write(&path, trace_json(name, cfg, &values, &counters, &traced)));
    match written {
        Ok(()) => {
            let _ = writeln!(report, "  trace written to {}", path.display());
        }
        Err(e) => return Err(format!("writing {}: {e}", path.display())),
    }
    finish(metrics, &[&plain, &traced], gates, report)
}

/// The `QUIET_RANK`-th best over the time slices of (p50 ms, p90 ms,
/// ops per second).
fn sliced(seg: &Segment) -> (f64, f64, f64) {
    let width_ns = seg.elapsed_s * 1e9 / SLICES as f64;
    let mut slices = vec![Vec::new(); SLICES];
    for s in &seg.samples {
        let k = (s.done_ns as f64 / width_ns) as usize;
        slices[k.min(SLICES - 1)].push(s.ns);
    }
    let slices: Vec<Samples> = slices.into_iter().map(Samples::new).collect();
    // `best` orders a slice's value so that better comes first.
    let quiet =
        |value: &dyn Fn(&Samples) -> f64, best: fn(&f64, &f64) -> std::cmp::Ordering| -> f64 {
            let mut values: Vec<f64> = slices.iter().map(value).collect();
            values.sort_by(best);
            values[QUIET_RANK - 1]
        };
    let latency = |q: f64| move |s: &Samples| s.quantile_ms(q).unwrap_or(f64::INFINITY);
    (
        quiet(&latency(0.50), f64::total_cmp),
        quiet(&latency(0.90), f64::total_cmp),
        quiet(&|s| s.len() as f64 / (width_ns / 1e9), |a, b| {
            b.total_cmp(a)
        }),
    )
}

fn finish(
    metrics: Probes,
    segs: &[&Segment],
    gates: Vec<String>,
    report: String,
) -> Result<Outcome, String> {
    if let Some((name, v, _)) = metrics.iter().find(|m| !m.1.is_finite()) {
        return Err(format!("metric {name} is not a number: {v}"));
    }
    let attempted: u64 = segs.iter().map(|s| s.samples.len() as u64).sum();
    let failed: u64 = segs.iter().map(|s| s.failed).sum::<u64>() + gates.len() as u64;
    Ok(Outcome {
        correct: failed == 0,
        attempted: attempted.max(1),
        failed,
        metrics,
        report,
    })
}

fn class_samples(seg: &Segment, keep: impl Fn(&Sample) -> bool) -> Samples {
    Samples::new(
        seg.samples
            .iter()
            .filter(|s| keep(s))
            .map(|s| s.ns)
            .collect(),
    )
}

/// Latencies by class and endpoint, failures, gates and extras.
fn describe(out: &mut String, seg: &Segment, gates: &[String], extras: &Probes) {
    let mut line = |label: &str, s: Samples| {
        if !s.is_empty() {
            let _ = writeln!(out, "  {}", s.summary(label));
        }
    };
    line("ops", class_samples(seg, |_| true));
    line("reads", class_samples(seg, |s| !s.update));
    line("updates", class_samples(seg, |s| s.update));
    if seg.samples.iter().any(|s| s.endpoint == 1) {
        line(
            "reads@primary",
            class_samples(seg, |s| !s.update && s.endpoint == 0),
        );
        line(
            "reads@replica",
            class_samples(seg, |s| !s.update && s.endpoint == 1),
        );
    }
    line("update lateness", Samples::new(seg.late_ns.clone()));
    line("replica apply lag", Samples::new(seg.apply_lag_ns.clone()));
    for (name, value, unit) in extras {
        let _ = writeln!(out, "  {name} = {value} {unit}");
    }
    let _ = writeln!(out, "  failed ops: {} of {}", seg.failed, seg.samples.len());
    for note in seg.notes.iter().chain(gates) {
        let _ = writeln!(out, "  FAILED: {note}");
    }
}

fn setup_metrics(parts: &SetupParts, out: &mut Probes) {
    out.push(("workloads.generate_s".to_string(), parts.generate_s, "s"));
    out.push((
        "workloads.build_tree_s".to_string(),
        parts.build_tree_s,
        "s",
    ));
    out.push(("core.store_build_s".to_string(), parts.store_build_s, "s"));
    out.push((
        "core.store_build_us_per_element".to_string(),
        parts.store_build_s * 1e6 / parts.elements.max(1) as f64,
        "us",
    ));
}

/// Ratios measured where the work happens: registry counter deltas over
/// the untraced part, per op or per commit.
fn counter_metrics(delta: &RegistrySnapshot, seg: &Segment, out: &mut Probes) {
    let c = |name: &str| delta.counters.get(name).copied().unwrap_or(0) as f64;
    let ratio = |num: f64, den: f64| {
        if den > 0.0 && num > 0.0 {
            num / den
        } else {
            0.0
        }
    };
    let ops = seg.samples.len() as f64;
    let (hits, misses) = (c("storage.pool.hits"), c("storage.pool.misses"));
    let probes = c("storage.index.tag.probes") + c("storage.index.content.probes");
    let commits = c("wal.commits");
    let mut push =
        |name: &str, value: f64, unit: &'static str| out.push((name.to_string(), value, unit));
    push(
        "storage.pool_hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    );
    push("storage.pool_misses_per_op", ratio(misses, ops), "count");
    push(
        "storage.evictions_per_op",
        ratio(c("storage.pool.evictions"), ops),
        "count",
    );
    push(
        "storage.writebacks_per_op",
        ratio(c("storage.pool.writebacks"), ops),
        "count",
    );
    push("storage.index_probes_per_op", ratio(probes, ops), "count");
    push(
        "storage.heap_reads_per_op",
        ratio(c("storage.heap.reads"), ops),
        "count",
    );
    push(
        "storage.pages_per_probe",
        ratio(hits + misses, probes),
        "count",
    );
    push(
        "storage.wal_bytes_per_commit",
        ratio(c("wal.bytes_appended"), commits),
        "bytes",
    );
    push(
        "storage.fsyncs_per_commit",
        ratio(c("wal.fsyncs"), commits),
        "count",
    );
    push("storage.checkpoints", c("wal.checkpoints"), "count");
    push(
        "query.crosstree_rows_per_op",
        ratio(c("query.crosstree.output_rows"), ops),
        "count",
    );
    let (cache_hits, cache_misses) = (c("server.plan_cache.hits"), c("server.plan_cache.misses"));
    push(
        "server.plan_cache_hit_ratio",
        ratio(cache_hits, cache_hits + cache_misses),
        "ratio",
    );
    push("server.requests", c("server.requests"), "count");
    push("server.rejected", c("server.rejected"), "count");

    // A checkpoint rides on the commit that crosses the threshold: what
    // those ops took beyond the median of the others is the stall.
    let quiet: Vec<f64> = seg
        .samples
        .iter()
        .filter(|s| s.update && !s.checkpoint)
        .map(|s| s.ns as f64)
        .collect();
    let base = median(&quiet);
    let stall_ns: f64 = seg
        .samples
        .iter()
        .filter(|s| s.update && s.checkpoint)
        .map(|s| (s.ns as f64 - base).max(0.0))
        .sum();
    push(
        "storage.checkpoint_stall_share",
        ratio(stall_ns / 1e9, seg.elapsed_s),
        "share",
    );
    let lag: Vec<f64> = seg.apply_lag_ns.iter().map(|&v| v as f64).collect();
    let updates: Vec<f64> = seg
        .samples
        .iter()
        .filter(|s| s.update)
        .map(|s| s.ns as f64)
        .collect();
    push(
        "repl.apply_lag_per_update",
        ratio(median(&lag), median(&updates)),
        "ratio",
    );
}

fn trace_json(
    name: &str,
    cfg: &Config,
    values: &Probes,
    counters: &RegistrySnapshot,
    traced: &Segment,
) -> String {
    let mut out = format!(
        "{{\"workload\":\"{name}\",\"seed\":{},\"scale\":{},\n\"metrics\":{{",
        cfg.seed, cfg.scale
    );
    for (i, (metric, value, unit)) in values.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n\"{metric}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        );
    }
    out.push_str("\n},\n\"counter_deltas\":{");
    for (i, (counter, v)) in counters
        .counters
        .iter()
        .filter(|(_, v)| **v > 0)
        .enumerate()
    {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\n\"{counter}\":{v}");
    }
    out.push_str("\n},\n\"self_times_ns\":{");
    let self_times = traced
        .tracer
        .as_ref()
        .map(|t| t.self_times())
        .unwrap_or_default();
    for (i, (span, (n, total, own))) in self_times.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n\"{span}\":{{\"spans\":{n},\"total\":{total},\"self\":{own}}}"
        );
    }
    out.push_str("\n},\n\"spans\":");
    out.push_str(
        &traced
            .tracer
            .as_ref()
            .map_or("[]".to_string(), |t| t.spans_json()),
    );
    out.push_str("\n}\n");
    out
}

// ---------------------------------------------------------- repeat / compare

/// `--repeat`: fold K result lines of one workload into per-metric
/// median, quartiles and values — the file `--compare` reads.
pub fn summarize(workload: &str, lines: &[String]) -> Result<String, String> {
    let mut by_metric: Vec<(String, String, Vec<f64>)> = Vec::new();
    for line in lines {
        let json = Json::parse(line).map_err(|e| format!("result line: {e}"))?;
        let Some(Json::Obj(metrics)) = json.get("metrics") else {
            return Err("result line without metrics".to_string());
        };
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or("metric without value")?;
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            match by_metric.iter_mut().find(|(n, _, _)| n == name) {
                Some(slot) => slot.2.push(value),
                None => by_metric.push((name.clone(), unit, vec![value])),
            }
        }
    }
    let mut out = format!(
        "{{\"workload\":\"{workload}\",\"runs\":{},\"metrics\":{{",
        lines.len()
    );
    for (i, (name, unit, values)) in by_metric.iter().enumerate() {
        let (q1, q3) = quartiles(values).unwrap_or((values[0], values[0]));
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n\"{name}\":{{\"unit\":\"{unit}\",\"median\":{},\"q1\":{q1},\"q3\":{q3},\"values\":{values:?}}}",
            median(values)
        );
    }
    out.push_str("\n}}");
    Ok(out)
}

/// `--compare A B`: one row per (metric, workload) with both medians,
/// the bound from `BENCHMARK.json`, and `ok`, `regressed` or
/// `unresolved` (the spread of A's own runs is wider than the bound).
/// Returns the table and whether any row regressed.
pub fn compare(benchmark_json: &str, a: &str, b: &str) -> Result<(String, bool), String> {
    let decl = Json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut table = format!(
        "{:<16} {:<12} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict\n",
        "workload", "metric", "A median", "B median", "change", "bound", "spread"
    );
    let mut regressed = false;
    // Each file holds one summary object per line, one per workload.
    for line_a in a.lines().filter(|l| !l.trim().is_empty()) {
        let sa = Json::parse(line_a).map_err(|e| format!("A: {e}"))?;
        let workload = sa
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("A: summary without workload")?;
        let sb = b
            .lines()
            .filter_map(|l| Json::parse(l).ok())
            .find(|s| s.get("workload").and_then(Json::as_str) == Some(workload))
            .ok_or_else(|| format!("B has no summary of {workload}"))?;
        for m in decl
            .get("end_to_end")
            .and_then(Json::as_array)
            .unwrap_or(&[])
        {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("");
            let (name, lower) = (field("name"), field("better") == "lower");
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let stat = |s: &Json, k: &str| s.get("metrics")?.get(name)?.get(k)?.as_f64();
            let (Some(ma), Some(mb)) = (stat(&sa, "median"), stat(&sb, "median")) else {
                continue;
            };
            let spread = match (stat(&sa, "q1"), stat(&sa, "q3")) {
                (Some(q1), Some(q3)) if ma != 0.0 => (q3 - q1).abs() / ma.abs(),
                _ => 0.0,
            };
            let worse = if lower {
                (mb - ma) / ma
            } else {
                (ma - mb) / ma
            };
            let verdict = if spread > bound {
                "unresolved"
            } else if worse > bound {
                regressed = true;
                "regressed"
            } else {
                "ok"
            };
            let _ = writeln!(
                table,
                "{workload:<16} {name:<12} {ma:>14.4} {mb:>14.4} {:>+7.1}% {:>6.1}% {:>6.1}%  {verdict}",
                (mb - ma) / ma * 100.0,
                bound * 100.0,
                spread * 100.0
            );
        }
    }
    Ok((table, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    const DECL: &str = r#"{"end_to_end": [
        {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "ops_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#;

    fn line(p50: f64, ops: f64) -> String {
        Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![
                ("op_p50_ms".to_string(), p50, "ms"),
                ("ops_s".to_string(), ops, "1/s"),
            ],
            report: String::new(),
        }
        .result_line()
    }

    #[test]
    fn result_line_is_the_contract_shape() {
        let json = Json::parse(&line(1.25, 800.0)).unwrap();
        assert_eq!(json.get("attempted").and_then(Json::as_u64), Some(10));
        assert_eq!(json.get("failed").and_then(Json::as_u64), Some(0));
        let m = json.get("metrics").unwrap().get("op_p50_ms").unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("ms"));
    }

    #[test]
    fn compare_flags_regressions_and_wide_spreads() {
        let steady = |p50: f64, ops: f64| -> String {
            let lines: Vec<String> = (0..5)
                .map(|i| line(p50 + 0.001 * f64::from(i), ops))
                .collect();
            summarize("engine.read", &lines).unwrap().replace('\n', "")
        };
        let a = steady(1.0, 1000.0);
        let (table, regressed) = compare(DECL, &a, &steady(1.05, 1000.0)).unwrap();
        assert!(!regressed, "{table}");
        assert_eq!(table.matches(" ok").count(), 2, "{table}");
        // 30 % slower and 20 % less throughput: both rows regress.
        let (table, regressed) = compare(DECL, &a, &steady(1.3, 800.0)).unwrap();
        assert!(regressed);
        assert_eq!(table.matches("regressed").count(), 2, "{table}");
        // A's own runs spread by more than the bound: unresolved.
        let noisy: Vec<String> = [1.0, 1.3, 0.7, 1.4, 0.6]
            .iter()
            .map(|&v| line(v, 1000.0))
            .collect();
        let noisy = summarize("engine.read", &noisy).unwrap().replace('\n', "");
        let (table, regressed) = compare(DECL, &noisy, &steady(2.0, 1000.0)).unwrap();
        assert!(!regressed);
        assert!(table.contains("unresolved"), "{table}");
    }

    #[test]
    fn every_declared_name_is_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.0)
            .collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
