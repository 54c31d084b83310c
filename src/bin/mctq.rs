//! `mctq` — a command-line MCXQuery shell over the built-in databases.
//!
//! ```text
//! mctq --db movies "document(\"m\")/{red}descendant::movie/{red}child::name"
//! mctq --db tpcw --scale 0.1 --explain "document(\"t\")/{auth}descendant::item[{auth}child::cost > 15000]"
//! mctq --db movies --update "for $m in ... update $m { ... }"
//! echo 'QUERY' | mctq --db sigmod        # read the query from stdin
//! ```
//!
//! Flags:
//! * `--db movies|tpcw|sigmod` — which built-in database to load
//!   (default `movies`, the paper's Figure 2).
//! * `--scale X` — generator scale for tpcw/sigmod (default 0.05).
//! * `--explain` — show the physical plan when the planner covers the
//!   query, or why it does not.
//! * `--analyze` — EXPLAIN ANALYZE: print the plan tree annotated with
//!   per-operator actual rows, elapsed time, and buffer-pool hit/miss
//!   deltas (plannable bare paths only).
//! * `--threads N` — run planner pipelines with N worker threads via
//!   the morsel-driven parallel executor; output is identical to
//!   `--threads 1` (default 1).
//! * `--metrics-json` / `--metrics-prom` — after the query, dump the
//!   global metrics registry as JSON / Prometheus text to stdout.
//! * `--update` — treat the input as an update statement.
//!
//! A query runs as `mctd` runs it: a bare path the planner covers runs
//! on the planner, anything else in the interpreter.
//!
//! Exit codes distinguish failure classes for scripting:
//! * `0` — success.
//! * `2` — usage error (bad flags, unknown database, missing query).
//! * `3` — the query/update text failed to parse.
//! * `4` — the planner rejected the query (an unknown color, or
//!   `--analyze` on an expression outside the plannable fragment).
//! * `5` — I/O or execution failure (store build, storage layer,
//!   runtime evaluation).

use colorful_xml::core::StoredDb;
use colorful_xml::query::plan::plan_path;
use colorful_xml::query::{
    eval, execute_update_with, parse_query, parse_update, EvalContext, Expr, Item, PlanError,
};
use colorful_xml::workloads::{movies, SigmodConfig, SigmodData, TpcwConfig, TpcwData};
use std::io::Read;

/// Exit codes (see the module docs).
const EXIT_USAGE: i32 = 2;
const EXIT_PARSE: i32 = 3;
const EXIT_PLAN: i32 = 4;
const EXIT_EXEC: i32 = 5;

/// Print a usage-class error and exit with [`EXIT_USAGE`].
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(EXIT_USAGE);
}

struct Opts {
    db: String,
    scale: f64,
    explain: bool,
    analyze: bool,
    threads: usize,
    metrics_json: bool,
    metrics_prom: bool,
    update: bool,
    query: Option<String>,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        db: "movies".into(),
        scale: 0.05,
        explain: false,
        analyze: false,
        threads: 1,
        metrics_json: false,
        metrics_prom: false,
        update: false,
        query: None,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--db" => opts.db = it.next().unwrap_or_else(|| usage_error("--db needs a value")),
            "--scale" => {
                opts.scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage_error("--scale needs a number"))
            }
            "--explain" => opts.explain = true,
            "--analyze" => opts.analyze = true,
            "--threads" => {
                opts.threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage_error("--threads needs a positive integer"))
            }
            "--metrics-json" => opts.metrics_json = true,
            "--metrics-prom" => opts.metrics_prom = true,
            "--update" => opts.update = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: mctq [--db movies|tpcw|sigmod] [--scale X] [--explain] \
                     [--analyze] [--threads N] [--metrics-json] [--metrics-prom] \
                     [--update] [QUERY]"
                );
                std::process::exit(0);
            }
            flag if flag.starts_with("--") => usage_error(&format!("unknown flag {flag}")),
            q => opts.query = Some(q.to_string()),
        }
    }
    opts
}

/// Dump the global metrics registry in the requested formats.
fn dump_metrics(opts: &Opts) {
    let snap = colorful_xml::obs::global().snapshot();
    if opts.metrics_json {
        print!("{}", snap.to_json());
    }
    if opts.metrics_prom {
        print!("{}", snap.to_prometheus());
    }
}

fn load(db: &str, scale: f64) -> StoredDb {
    const POOL: usize = 128 * 1024 * 1024;
    match db {
        "movies" => StoredDb::build(movies::build().db, POOL).unwrap_or_else(build_failed),
        "tpcw" => {
            let data = TpcwData::generate(&TpcwConfig {
                scale,
                ..Default::default()
            });
            StoredDb::build(data.build_mct(), POOL).unwrap_or_else(build_failed)
        }
        "sigmod" => {
            let data = SigmodData::generate(&SigmodConfig {
                scale,
                ..Default::default()
            });
            StoredDb::build(data.build_mct(), POOL).unwrap_or_else(build_failed)
        }
        other => {
            eprintln!("unknown --db {other} (movies | tpcw | sigmod)");
            std::process::exit(EXIT_USAGE);
        }
    }
}

/// Storage failed while materializing the built-in database.
fn build_failed(e: mct_storage::StorageError) -> StoredDb {
    eprintln!("building the store failed: {e}");
    std::process::exit(EXIT_EXEC);
}

fn main() {
    let opts = parse_opts();
    let text = match &opts.query {
        Some(q) => q.clone(),
        None => {
            let mut buf = String::new();
            if let Err(e) = std::io::stdin().read_to_string(&mut buf) {
                eprintln!("reading stdin failed: {e}");
                std::process::exit(EXIT_EXEC);
            }
            buf
        }
    };
    let text = text.trim();
    if text.is_empty() {
        eprintln!("no query given (argument or stdin)");
        std::process::exit(EXIT_USAGE);
    }

    eprintln!("loading {} database...", opts.db);
    let mut stored = load(&opts.db, opts.scale);
    eprintln!(
        "  colors: {:?}",
        stored
            .db
            .palette
            .iter()
            .map(|(_, n)| n.to_string())
            .collect::<Vec<_>>()
    );

    if opts.update {
        let stmt = parse_update(text).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(EXIT_PARSE);
        });
        let out = execute_update_with(&mut stored, &stmt, None).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(EXIT_EXEC);
        });
        println!(
            "updated: {} binding tuple(s), {} element(s)",
            out.tuples, out.elements
        );
        dump_metrics(&opts);
        return;
    }

    let expr = parse_query(text).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(EXIT_PARSE);
    });

    let plan = match &expr {
        Expr::Path(p) => plan_path(&stored, p, true),
        _ => Err(PlanError::Unsupported("not a bare path".into())),
    };
    match plan {
        Ok(plan) => {
            if opts.explain {
                eprintln!("-- physical plan --");
                eprint!("{}", plan.explain(&stored));
                eprintln!("-------------------");
            }
            let out = if opts.analyze {
                plan.execute_shared_analyze(&stored, opts.threads, None)
                    .map(|(out, report)| {
                        println!("-- EXPLAIN ANALYZE --");
                        print!("{}", report.render());
                        println!("---------------------");
                        out
                    })
            } else {
                plan.execute_shared(&stored, opts.threads, None)
            };
            let out = out.unwrap_or_else(|e| {
                eprintln!("plan execution failed: {e}");
                std::process::exit(EXIT_EXEC);
            });
            println!("{} result(s) via planner:", out.len());
            for t in out.iter().take(50) {
                print_node(&stored, t[0].node);
            }
            if out.len() > 50 {
                println!("... ({} more)", out.len() - 50);
            }
            dump_metrics(&opts);
            return;
        }
        Err(PlanError::Unsupported(why)) => {
            if opts.analyze {
                eprintln!("--analyze requires a plannable bare path: {why}");
                std::process::exit(EXIT_PLAN);
            }
            if opts.explain {
                eprintln!("(not covered by the planner, running in the interpreter: {why})");
            }
        }
        Err(e) => {
            eprintln!("plan error: {e}");
            std::process::exit(EXIT_PLAN);
        }
    }

    let mut ctx = EvalContext::new(&mut stored);
    let out = eval(&mut ctx, &expr).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(EXIT_EXEC);
    });
    println!("{} item(s):", out.len());
    for item in out.iter().take(50) {
        match item {
            Item::Node(n, _) => print_node(&ctx.stored, *n),
            Item::Built(b) => print_element(&b.name, b.content.as_deref().unwrap_or(""), &[]),
            Item::Str(s) => println!("  \"{s}\""),
            Item::Num(n) => println!("  {n}"),
            Item::Bool(b) => println!("  {b}"),
        }
    }
    if out.len() > 50 {
        println!("... ({} more)", out.len() - 50);
    }
    dump_metrics(&opts);
}

fn print_node(s: &StoredDb, n: colorful_xml::core::McNodeId) {
    let colors: Vec<&str> = s
        .db
        .colors(n)
        .iter()
        .map(|c| s.db.palette.name(c))
        .collect();
    print_element(
        s.db.name_str(n).unwrap_or("?"),
        s.db.content(n).unwrap_or(""),
        &colors,
    );
}

fn print_element(name: &str, content: &str, colors: &[&str]) {
    if content.is_empty() {
        println!("  <{name}> {colors:?}");
    } else {
        println!("  <{name}> {content:?} {colors:?}");
    }
}
