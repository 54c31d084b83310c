//! Regenerates the timings of **Table 2: Query Processing Time**.
//!
//! Runs all 21 read queries and 6 updates on all three designs, warm
//! cache, using the paper's five-run/middle-three protocol. Deep's
//! `*D` rows (no duplicate elimination) appear for the queries where
//! deep produces duplicates. Updates run on freshly rebuilt stores
//! (timed run only), and report the number of elements updated — the
//! deep rows show the update-anomaly blow-up.
//!
//! ```text
//! cargo run --release -p mct-bench --bin table2 -- [--scale X] [--seed N] [--sweep] [--cold] [--metrics-json]
//! ```
//!
//! `--sweep` additionally runs the §7.2 scaling experiment (linear for
//! structural plans, quadratic for the nested-loop inequality join);
//! `--metrics-json` dumps the metrics registry after the tables. The
//! page accesses behind these times, and the paper's shape over them,
//! are the root test `tests/paper_shape.rs`.

use mct_bench::{ms, time_once, time_paper_protocol, Fixtures};
use mct_workloads::{all_queries, run_read, run_update, QueryKind, SchemaKind};
use std::time::Duration;

struct Args {
    scale: f64,
    seed: Option<u64>,
    sweep: bool,
    cold: bool,
    metrics_json: bool,
}

fn usage(why: &str) -> ! {
    eprintln!("table2: {why}");
    eprintln!("usage: table2 [--scale X] [--seed N] [--sweep] [--cold] [--metrics-json]");
    std::process::exit(2)
}

/// The value after `flag`, parsed; a missing or malformed one is a
/// usage error.
fn value<T: std::str::FromStr>(it: &mut impl Iterator<Item = String>, flag: &str) -> T {
    it.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
}

/// Parse argv; an unknown argument is a usage error (exit 2).
fn parse_args() -> Args {
    let mut a = Args {
        scale: 0.3,
        seed: None,
        sweep: false,
        cold: false,
        metrics_json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--scale" => a.scale = value(&mut it, "--scale"),
            "--seed" => a.seed = Some(value(&mut it, "--seed")),
            "--sweep" => a.sweep = true,
            "--cold" => a.cold = true,
            "--metrics-json" => a.metrics_json = true,
            other => usage(&format!("unknown argument {other}")),
        }
    }
    a
}

fn main() {
    let Args {
        scale,
        seed,
        sweep,
        cold,
        metrics_json,
    } = parse_args();
    eprintln!("building fixtures at scale {scale}...");
    let mut fx = Fixtures::build_seeded(scale, seed);
    let queries = all_queries(&fx.params);

    println!(
        "\nTable 2: Query Processing Time in Milliseconds (scale {scale}, {} cache)",
        if cold { "cold" } else { "warm" }
    );
    println!("{}", "=".repeat(100));
    println!(
        "{:<7} {:>9} {:>12} {:>12} {:>12}   {:>6} {:>5}  Description",
        "Query", "Results", "MCT (ms)", "Shallow (ms)", "Deep (ms)", "Colors", "Trees"
    );

    for wq in &queries {
        match wq.kind {
            QueryKind::Read => {
                let mut times: [Option<Duration>; 3] = [None, None, None];
                let mut results = 0usize;
                for (i, schema) in SchemaKind::ALL.iter().enumerate() {
                    let p = fx.params.clone();
                    let db = fx.db(wq.dataset, *schema);
                    if cold {
                        // Cold: flush before every timed run.
                        let (d, out) = time_paper_protocol(|| {
                            db.flush_cache().expect("flush");
                            run_read(db, wq.id, *schema, &p, true).expect("plan")
                        });
                        times[i] = Some(d);
                        results = out.results;
                    } else {
                        // Warm: one untimed priming run.
                        let _ = run_read(db, wq.id, *schema, &p, true).expect("plan");
                        let (d, out) = time_paper_protocol(|| {
                            run_read(db, wq.id, *schema, &p, true).expect("plan")
                        });
                        times[i] = Some(d);
                        results = out.results;
                    }
                }
                println!(
                    "{:<7} {:>9} {:>12} {:>12} {:>12}   {:>6} {:>5}  {}",
                    wq.id,
                    results,
                    ms(times[0].unwrap()),
                    ms(times[1].unwrap()),
                    ms(times[2].unwrap()),
                    wq.colors,
                    wq.trees,
                    wq.description
                );
                if wq.deep_dups {
                    // The *D row: deep without duplicate elimination.
                    let p = fx.params.clone();
                    let db = fx.db(wq.dataset, SchemaKind::Deep);
                    let _ = run_read(db, wq.id, SchemaKind::Deep, &p, false).expect("plan");
                    let (d, out) = time_paper_protocol(|| {
                        run_read(db, wq.id, SchemaKind::Deep, &p, false).expect("plan")
                    });
                    println!(
                        "{:<7} {:>9} {:>12} {:>12} {:>12}   {:>6} {:>5}  (deep, no dup-elim)",
                        format!("{}D", wq.id),
                        out.results,
                        "",
                        "",
                        ms(d),
                        "",
                        ""
                    );
                }
            }
            QueryKind::Update => {
                let mut times: [Option<Duration>; 3] = [None, None, None];
                let mut updated = [0usize; 3];
                for (i, schema) in SchemaKind::ALL.iter().enumerate() {
                    // Fresh store per update so repeated measurements and
                    // earlier updates do not interfere.
                    let mut db = fx.rebuild(wq.dataset, *schema);
                    let (d, out) = time_once(|| run_update(&mut db, wq, *schema).expect("update"));
                    times[i] = Some(d);
                    updated[i] = out.updated;
                }
                println!(
                    "{:<7} {:>9} {:>12} {:>12} {:>12}   {:>6} {:>5}  {} [elements: mct={} shallow={} deep={}]",
                    wq.id,
                    updated[0],
                    ms(times[0].unwrap()),
                    ms(times[1].unwrap()),
                    ms(times[2].unwrap()),
                    wq.colors,
                    wq.trees,
                    wq.description,
                    updated[0],
                    updated[1],
                    updated[2]
                );
            }
        }
    }

    println!();
    println!("The paper's shape over page accesses is asserted by `tests/paper_shape.rs`;");
    println!("these times are this host's and are checked by nothing.");

    if sweep {
        scaling_sweep(seed);
    }
    if metrics_json {
        println!("\n-- metrics --");
        print!("{}", mct_obs::global().snapshot().to_json());
    }
}

/// The §7.2 scaling note: most queries scale linearly with data size;
/// the inequality value join (nested loops) is quadratic.
fn scaling_sweep(seed: Option<u64>) {
    use mct_query::{ast::CmpOp, ops::{index_scan, nl_join_cmp}};
    println!("\nScaling sweep (§7.2): linear structural plan vs quadratic inequality join");
    println!(
        "{:<8} {:>12} {:>14} {:>16}",
        "scale", "orderlines", "TQ13 (ms)", "ineq-join (ms)"
    );
    for scale in [0.05, 0.1, 0.2, 0.4] {
        let mut fx = Fixtures::build_seeded(scale, seed);
        let p = fx.params.clone();
        let db = fx.db(mct_workloads::Dataset::Tpcw, SchemaKind::Mct);
        let lines = db.postings_named(db.db.color("cust").unwrap(), "orderline")
            .expect("postings")
            .len();
        let _ = run_read(db, "TQ13", SchemaKind::Mct, &p, true).unwrap();
        let (linear, _) =
            time_paper_protocol(|| run_read(db, "TQ13", SchemaKind::Mct, &p, true).unwrap());
        // Inequality self-join of order totals: totals > totals.
        let cust = db.db.color("cust").unwrap();
        let (quad, _) = time_paper_protocol(|| {
            let totals = index_scan(db, cust, "total").unwrap();
            nl_join_cmp(db, &totals, 0, &totals.clone(), 0, CmpOp::Gt)
                .unwrap()
                .len()
        });
        println!(
            "{:<8} {:>12} {:>14} {:>16}",
            scale,
            lines,
            ms(linear),
            ms(quad)
        );
    }
    println!("(expect the last column to grow ~4x per scale doubling, the others ~2x)");
}
