//! Full experiment report: ablations A1 (cross-tree join variants)
//! and A2 (optimal vs naive serialization), plus a compact summary of
//! the headline Table-2 comparisons.
//!
//! ```text
//! cargo run --release -p mct-bench --bin report [-- --scale 0.2]
//! ```

use mct_bench::{secs, time_paper_protocol, Fixtures};
use mct_core::{cross_tree_join, cross_tree_join_direct};
use mct_serialize::{compare_sizes, emit_exchange, opt_serialize, reconstruct, MctSchema};
use mct_workloads::{run_read, SchemaKind};

fn main() {
    let (scale, _, _) = mct_bench::parse_args();
    let seed = mct_bench::parse_seed();
    eprintln!("building fixtures at scale {scale}...");
    let mut fx = Fixtures::build_seeded(scale, seed);

    // ---- Ablation A1: cross-tree join — link-probe vs direct ------------
    println!("\nAblation A1: cross-tree join (color transition) cost");
    println!("{}", "-".repeat(70));
    {
        let db = fx.db(mct_workloads::Dataset::Tpcw, SchemaKind::Mct);
        let cust = db.db.color("cust").unwrap();
        let auth = db.db.color("auth").unwrap();
        let lines = db.postings_named(cust, "orderline").expect("postings");
        let (probe_t, probe_n) =
            time_paper_protocol(|| cross_tree_join(db, &lines, auth).expect("join").len());
        let (direct_t, direct_n) =
            time_paper_protocol(|| cross_tree_join_direct(db, &lines, auth).len());
        assert_eq!(probe_n, direct_n);
        println!(
            "  input {} orderlines -> {} crossings: link-probe {} s, direct {} s (speedup {:.1}x)",
            lines.len(),
            probe_n,
            secs(probe_t),
            secs(direct_t),
            probe_t.as_secs_f64() / direct_t.as_secs_f64().max(1e-9)
        );
        println!("  (the paper: \"a more sophisticated implementation could bring down the");
        println!("   cost of a color crossing substantially\" — quantified here)");
    }

    // ---- Parallel scaling: morsel-driven cross-tree join ----------------
    println!("\nParallel scaling: morsel-driven cross-tree join (1/2/4/8 threads)");
    println!("{}", "-".repeat(70));
    {
        let db = fx.db(mct_workloads::Dataset::Tpcw, SchemaKind::Mct);
        let cust = db.db.color("cust").unwrap();
        let auth = db.db.color("auth").unwrap();
        let db = &*db;
        let lines = db.postings_named(cust, "orderline").expect("postings");
        let tuples: Vec<mct_query::Tuple> = lines.iter().map(|r| vec![*r]).collect();
        let mut base = None;
        for threads in [1usize, 2, 4, 8] {
            let (t, n) = time_paper_protocol(|| {
                mct_query::ops::cross_tree_op(db, tuples.clone(), 0, auth, threads, None)
                    .expect("join")
                    .len()
            });
            let base_t = *base.get_or_insert(t);
            println!(
                "  {threads} thread(s): {} s for {} crossings (speedup {:.2}x vs 1 thread)",
                secs(t),
                n,
                base_t.as_secs_f64() / t.as_secs_f64().max(1e-9)
            );
        }
        println!("  (output is byte-identical across thread counts; speedups depend on");
        println!("   available cores — see `cargo bench --bench scaling` for the curve)");
    }

    // ---- Ablation A2: optimal vs naive serialization --------------------
    println!("\nAblation A2: cost-based serialization (§5) vs naive per-color duplication");
    println!("{}", "-".repeat(70));
    {
        let (schema, stats) = MctSchema::figure8();
        let scheme = opt_serialize(&schema, &stats);
        let db = fx.db(mct_workloads::Dataset::Sigmod, SchemaKind::Mct);
        let (opt, naive) = compare_sizes(&db.db, &scheme);
        println!(
            "  SIGMOD-Record MCT: optimal {} bytes / {} elements / {} pointers / {} color tokens",
            opt.bytes, opt.elements, opt.pointer_attrs, opt.color_tokens
        );
        println!(
            "                     naive   {} bytes / {} elements",
            naive.bytes, naive.elements
        );
        println!(
            "  savings: {:.1}% bytes, {:.1}% elements",
            100.0 * (1.0 - opt.bytes as f64 / naive.bytes as f64),
            100.0 * (1.0 - opt.elements as f64 / naive.elements as f64)
        );
        // Round-trip sanity.
        let doc = emit_exchange(&db.db, &scheme);
        let back = reconstruct(&doc).expect("reconstruct");
        assert_eq!(db.db.counts(), back.counts(), "round-trip must be lossless");
        assert_eq!(db.db.structural_count(), back.structural_count());
        println!("  round-trip: lossless (counts and structural records match)");
    }

    // ---- Headline summary ------------------------------------------------
    println!("\nHeadline Table-2 comparisons (warm cache)");
    println!("{}", "-".repeat(70));
    for (id, note) in [
        ("TQ9", "big structural join vs shallow value join"),
        ("TQ11", "small driver: MCT/deep structural vs shallow join"),
        ("TQ7", "duplicate-heavy: deep pays for replication"),
    ] {
        let p = fx.params.clone();
        let mut row = Vec::new();
        for schema in SchemaKind::ALL {
            let db = fx.db(mct_workloads::Dataset::Tpcw, schema);
            let _ = run_read(db, id, schema, &p, true).unwrap();
            let (d, _) = time_paper_protocol(|| run_read(db, id, schema, &p, true).unwrap());
            row.push(secs(d));
        }
        println!(
            "  {:<5} MCT {} / shallow {} / deep {}   ({note})",
            id, row[0], row[1], row[2]
        );
    }
    // ---- Serving: closed-loop load against the embedded mctd core -------
    println!("\nServing: closed-loop load vs connection count (embedded mctd core)");
    println!("{}", "-".repeat(70));
    {
        use mct_server::load::{builtin_mix, run, LoadSpec};
        use mct_server::{serve, ServerConfig};

        let stored = fx.rebuild(mct_workloads::Dataset::Tpcw, SchemaKind::Mct);
        let handle = serve(
            stored,
            ServerConfig {
                workers: 4,
                ..ServerConfig::default()
            },
        )
        .expect("embedded server");
        let port = handle.port();
        let queries = builtin_mix("tpcw");
        let spec = |connections: usize| LoadSpec::reads(connections, 25, queries.clone());

        // Same point twice: the first run plans every query (cache
        // misses, cold buffer pool), the rerun serves from the plan
        // cache — the warm line should show hits > 0 and a lower p50.
        let cold = run("127.0.0.1", port, &spec(1)).expect("cold run");
        println!("  cold: {}", cold.render());
        let warm = run("127.0.0.1", port, &spec(1)).expect("warm run");
        println!("  warm: {}", warm.render());

        for connections in [1usize, 2, 4, 8] {
            let report = run("127.0.0.1", port, &spec(connections)).expect("sweep");
            println!("  {}", report.render());
        }
        handle.shutdown();
        println!("  (closed loop: each connection keeps exactly one request in flight;");
        println!("   p50/p95/p99 are client-side, cache ratio scraped from /metrics)");
    }

    // ---- Read scaling: primary alone vs primary + two replicas ----------
    println!("\nRead scaling: WAL-shipping replication (primary vs primary + 2 replicas)");
    println!("{}", "-".repeat(70));
    {
        use mct_repl::{start_primary, start_replica, PrimaryCfg, ReplicaCfg};
        use mct_server::load::{builtin_mix, run, LoadSpec};
        use mct_server::{serve_shared, ServerConfig};
        use mct_storage::{BufferPool, MemDisk, Wal};
        use std::net::TcpListener;
        use std::sync::{Arc, RwLock};
        use std::time::Duration;

        const POOL: usize = 128 * 1024 * 1024;
        // Replication ships the WAL, so the primary's store needs one.
        let mut pool = BufferPool::new(MemDisk::new(), POOL);
        pool.attach_wal(Wal::create(Box::new(MemDisk::new())).expect("wal"));
        let logical = mct_workloads::TpcwData::generate(&mct_workloads::TpcwConfig {
            scale,
            seed: seed.unwrap_or(mct_workloads::TpcwConfig::default().seed),
        })
        .build_mct();
        let mut stored = mct_core::StoredDb::build_on(pool, logical).expect("build");
        stored.sync().expect("baseline sync");

        let db = Arc::new(RwLock::new(stored));
        let primary_http = serve_shared(
            Arc::clone(&db),
            ServerConfig {
                workers: 4,
                repl_primary: true,
                ..ServerConfig::default()
            },
        )
        .expect("primary http");
        let listener = TcpListener::bind("127.0.0.1:0").expect("repl listener");
        let repl_addr = listener.local_addr().unwrap().to_string();
        let primary = start_primary(
            listener,
            Arc::clone(&db),
            PrimaryCfg {
                advertise_http: primary_http.addr().to_string(),
                poll_interval: Duration::from_millis(10),
                ..PrimaryCfg::default()
            },
        )
        .expect("primary repl");

        let mut replicas = Vec::new();
        let mut replica_eps = Vec::new();
        for i in 0..2 {
            let r = start_replica(ReplicaCfg {
                primary: repl_addr.clone(),
                replica_id: format!("report-r{i}"),
                pool_bytes: POOL,
                ..ReplicaCfg::default()
            })
            .expect("replica bootstraps");
            let http = serve_shared(
                r.db(),
                ServerConfig {
                    workers: 4,
                    primary_http: Some(r.primary_http()),
                    ..ServerConfig::default()
                },
            )
            .expect("replica http");
            replica_eps.push(("127.0.0.1".to_string(), http.port()));
            replicas.push((r, http));
        }

        let queries = builtin_mix("tpcw");
        let spec = LoadSpec::reads(8, 25, queries.clone());
        // Warm the primary's plan cache so both rows compare the same
        // steady state, then: all reads on the primary vs fanned out.
        run("127.0.0.1", primary_http.port(), &spec).expect("warmup");
        let solo = run("127.0.0.1", primary_http.port(), &spec).expect("solo run");
        println!("  primary only : {}", solo.render());
        let fanned = run(
            "127.0.0.1",
            primary_http.port(),
            &spec.clone().with_read_endpoints(replica_eps),
        )
        .expect("fanned run");
        println!("  + 2 replicas : {}", fanned.render());
        if let Some(shares) = fanned.render_endpoints() {
            println!("    {shares}");
        }
        println!(
            "  read-scaling : {:.2}x throughput with reads fanned across 3 nodes",
            fanned.throughput_rps() / solo.throughput_rps().max(1e-9)
        );

        for (r, http) in replicas {
            http.shutdown();
            r.shutdown();
        }
        primary_http.shutdown();
        primary.shutdown();
        println!("  (all three serving cores share this process, so the x-factor is a");
        println!("   routing demonstration, not an isolated-hardware measurement)");
    }

    println!("\nRun `table1`, `table2`, `fig11`, `fig12` for the full reproductions.");
    mct_bench::maybe_dump_metrics_json();
}
