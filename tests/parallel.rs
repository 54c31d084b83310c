//! Parallel execution equivalence: every plannable query must produce
//! byte-identical tuples whether executed sequentially or through the
//! morsel-driven executor at any thread count, on both the TPC-W and
//! movie databases. This is the end-to-end guarantee the per-operator
//! unit tests in `mct-query` build up to.

use colorful_xml::core::StoredDb;
use colorful_xml::query::plan::{plan_path, PathPlan};
use colorful_xml::query::Expr;
use colorful_xml::query::{parse_query, Tuple};
use colorful_xml::workloads::{movies, TpcwConfig, TpcwData};

fn tpcw() -> StoredDb {
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

/// Sequential vs 2/4/8-thread execution of `text` on `s`, plus the
/// ANALYZE variant; all must agree tuple-for-tuple.
fn assert_parallel_identical(s: &mut StoredDb, text: &str) {
    let plan = planned(s, text);
    let expected: Vec<Tuple> = plan.execute_shared(s, 1, None).unwrap();
    for threads in [2, 4, 8] {
        let got = plan.execute_shared(s, threads, None).unwrap();
        assert_eq!(got, expected, "{text} diverged at {threads} threads");
    }
    let (got, report) = plan.execute_shared_analyze(s, 4, None).unwrap();
    assert_eq!(got, expected, "{text} ANALYZE diverged at 4 threads");
    assert_eq!(report.rows, expected.len() as u64);
}

#[test]
fn tpcw_queries_are_thread_count_invariant() {
    let mut s = tpcw();
    for text in [
        // The analyze.rs twig: chain + predicate + cross-tree + parent.
        r#"document("t")/{cust}descendant::order[{cust}child::status = "SHIPPED"]/{cust}child::orderline/{auth}parent::item"#,
        // Long single-color chain (posting gather + holistic join).
        r#"document("t")/{cust}descendant::customer/{cust}descendant::orderline"#,
        // Numeric predicate on the author hierarchy.
        r#"document("t")/{auth}descendant::item[{auth}child::cost > 100]"#,
        // Plain cross-tree hop.
        r#"document("t")/{cust}descendant::orderline/{auth}parent::item"#,
    ] {
        assert_parallel_identical(&mut s, text);
    }
}

#[test]
fn movie_queries_are_thread_count_invariant() {
    let mut s = StoredDb::build(movies::build().db, 64 * 1024 * 1024).unwrap();
    for text in [
        r#"document("m")/{red}descendant::movie/{red}child::name"#,
        r#"document("m")/{red}descendant::movie/{green}child::votes"#,
        r#"document("m")/{green}descendant::movie[{green}child::votes > 8]/{red}child::name"#,
    ] {
        assert_parallel_identical(&mut s, text);
    }
}
