//! EXPLAIN ANALYZE integration tests against the TPC-W MCT database:
//! the per-operator actuals must agree with the real result
//! cardinality, a warm re-run must hit only the buffer pool, and the
//! ANALYZE tree must share the EXPLAIN renderer's shape.

use colorful_xml::core::StoredDb;
use colorful_xml::query::plan::{plan_path, AnalyzeReport, PathPlan};
use colorful_xml::query::Expr;
use colorful_xml::query::{parse_query, Tuple};
use colorful_xml::workloads::{TpcwConfig, TpcwData};

fn stored() -> StoredDb {
    let data = TpcwData::generate(&TpcwConfig {
        scale: 0.05,
        seed: 31,
    });
    StoredDb::build(data.build_mct(), 64 * 1024 * 1024).unwrap()
}

/// The plan for `text`.
fn planned(s: &StoredDb, text: &str) -> PathPlan {
    let Expr::Path(p) = parse_query(text).unwrap() else {
        panic!("not a path: {text}")
    };
    let plan = plan_path(s, &p, true).unwrap_or_else(|e| panic!("{text}: {e}"));
    plan
}

/// A TPC-W twig: items of shipped orders' orderlines, crossing from
/// the customer hierarchy into the author hierarchy — exercises the
/// content-index entry, chain join, cross-tree join, and dup-elim.
const TWIG: &str = r#"document("t")/{cust}descendant::order[{cust}child::status = "SHIPPED"]/{cust}child::orderline/{auth}parent::item"#;

#[test]
fn analyze_row_counts_match_actual_cardinality() {
    let s = stored();
    let plan = planned(&s, TWIG);
    let expected: Vec<Tuple> = plan.execute_shared(&s, 1, None).unwrap();
    assert!(!expected.is_empty(), "query should match something");
    for threads in [1, 2, 4] {
        let (tuples, report) = plan.execute_shared_analyze(&s, threads, None).unwrap();
        assert_eq!(tuples, expected, "ANALYZE changed the result at {threads} threads");
        assert_cardinalities(&report, tuples.len() as u64);
    }
}

/// The report's row counts agree with a result of `rows` tuples.
fn assert_cardinalities(report: &AnalyzeReport, rows: u64) {
    assert_eq!(report.rows, rows);
    assert!(report.stages.len() >= 3, "chain, cross-tree, ..., dup-elim");
    // The last stage's output IS the result cardinality, and rows flow
    // stage to stage: each stage's input is the previous one's output.
    assert_eq!(report.stages.last().unwrap().rows_out, rows);
    for w in report.stages.windows(2) {
        assert_eq!(w[0].rows_out, w[1].rows_in, "pipeline rows must chain");
    }
    // Totals cover the stages.
    let stage_rows: u64 = report.stages.last().unwrap().rows_out;
    assert_eq!(stage_rows, report.rows);
    assert!(report.total >= report.stages.iter().map(|st| st.elapsed).sum());
}

#[test]
fn analyze_warm_rerun_has_zero_buffer_misses() {
    let s = stored();
    let plan = planned(&s, TWIG);
    // Cold-ish first run primes the pool (the pool is large enough to
    // hold the working set).
    let _ = plan.execute_shared_analyze(&s, 1, None).unwrap();
    let (_, warm) = plan.execute_shared_analyze(&s, 1, None).unwrap();
    assert_eq!(warm.pool.misses, 0, "warm re-run must hit the pool only");
    for st in &warm.stages {
        assert_eq!(st.pool.misses, 0, "warm stage missed: {}", st.label);
    }
    assert!(warm.pool.hits > 0, "the probes still touch pages");
}

#[test]
fn analyze_render_shares_the_explain_tree_shape() {
    let s = stored();
    let plan = planned(&s, TWIG);
    let explain = plan.explain(&s);
    let (_, report) = plan.execute_shared_analyze(&s, 1, None).unwrap();
    let rendered = report.render();
    // Same stage lines in the same positions with the same stable
    // indentation; ANALYZE only appends per-stage annotations and a
    // totals footer.
    let explain_lines: Vec<&str> = explain.lines().collect();
    let analyze_lines: Vec<&str> = rendered.lines().collect();
    assert_eq!(analyze_lines.len(), explain_lines.len() + 1, "footer only");
    for (e, a) in explain_lines.iter().zip(&analyze_lines) {
        assert!(
            a.starts_with(e),
            "ANALYZE line must extend the EXPLAIN line:\n  {e}\n  {a}"
        );
        assert!(a.contains("rows") && a.contains("pages"), "{a}");
    }
    assert!(analyze_lines.last().unwrap().starts_with("total:"), "{rendered}");
    // The shared renderer keeps the documented indentation scheme.
    assert!(explain_lines[1].starts_with("└─ "), "{explain}");
    assert!(explain_lines[2].starts_with("   └─ "), "{explain}");
}
