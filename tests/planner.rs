//! Integration tests for the heuristic planner against the TPC-W MCT
//! database: the planner's physical pipelines must agree with the
//! specification-level interpreter on realistic colored paths.

use colorful_xml::core::StoredDb;
use colorful_xml::query::plan::plan_path;
use colorful_xml::query::{eval, parse_query, EvalContext, Expr, Item};
use colorful_xml::workloads::{TpcwConfig, TpcwData};

fn stored() -> StoredDb {
    let data = TpcwData::generate(&TpcwConfig {
        scale: 0.05,
        seed: 31,
    });
    StoredDb::build(data.build_mct(), 64 * 1024 * 1024).unwrap()
}

fn via_planner(s: &StoredDb, text: &str) -> Vec<u32> {
    let Expr::Path(p) = parse_query(text).unwrap() else {
        panic!("not a path: {text}")
    };
    let plan = plan_path(s, &p, true).unwrap_or_else(|e| panic!("{text}: {e}"));
    let out = plan.execute_shared(s, 1, None).unwrap();
    let mut v: Vec<u32> = out.iter().map(|t| t[0].node.0).collect();
    v.sort_unstable();
    v
}

fn via_interpreter(s: &mut StoredDb, text: &str) -> Vec<u32> {
    let e = parse_query(text).unwrap();
    let mut ctx = EvalContext::new(s);
    let out = eval(&mut ctx, &e).unwrap();
    let mut v: Vec<u32> = out
        .iter()
        .filter_map(|i| match i {
            Item::Node(n, _) => Some(n.0),
            _ => None,
        })
        .collect();
    v.sort_unstable();
    v.dedup();
    v
}

#[test]
fn planner_agrees_with_interpreter_on_tpcw_paths() {
    let mut s = stored();
    let queries = [
        // Single-color chains.
        r#"document("t")/{cust}descendant::customer/{cust}child::order"#,
        r#"document("t")/{cust}descendant::order/{cust}child::orderline"#,
        r#"document("t")/{auth}descendant::author/{auth}child::item/{auth}child::orderline"#,
        // With predicates.
        r#"document("t")/{auth}descendant::item[{auth}child::cost > 15000]"#,
        r#"document("t")/{ship}descendant::address[{ship}child::city = "Springfield"]/{ship}child::order"#,
        r#"document("t")/{cust}descendant::order[{cust}child::status = "SHIPPED"]/{cust}child::orderline"#,
        // Color transitions mid-path (TQ3-shaped, TQ10-shaped).
        r#"document("t")/{cust}descendant::customer/{cust}descendant::orderline/{auth}parent::item"#,
        r#"document("t")/{ship}descendant::address[{ship}child::city = "Springfield"]/{ship}descendant::orderline/{auth}parent::item/{auth}parent::author"#,
        // Transition then continue downward in the new color.
        r#"document("t")/{cust}descendant::orderline/{auth}parent::item/{auth}child::title"#,
    ];
    for q in queries {
        let a = via_planner(&s, q);
        let b = via_interpreter(&mut s, q);
        assert_eq!(a, b, "planner disagrees on: {q}");
        assert!(!a.is_empty(), "query should match something: {q}");
    }
}

#[test]
fn planner_explain_shows_physical_choices() {
    let s = stored();
    let Expr::Path(p) = parse_query(
        r#"document("t")/{ship}descendant::address[{ship}child::city = "Springfield"]/{ship}descendant::orderline/{auth}parent::item"#,
    )
    .unwrap() else {
        panic!()
    };
    let plan = plan_path(&s, &p, true).unwrap();
    let text = plan.explain(&s);
    assert!(text.contains("holistic chain join"), "{text}");
    assert!(text.contains("cross-tree join -> {auth}"), "{text}");
    assert!(text.contains("duplicate elimination"), "{text}");
}

#[test]
fn planner_uses_content_index_entry_for_point_queries() {
    let mut s = stored();
    let data_uname = {
        // Pick a uname that exists.
        let hits = s.postings_named(s.db.color("cust").unwrap(), "uname").unwrap();
        s.fetch_content(hits[0].node).unwrap().unwrap()
    };
    let q = format!(
        r#"document("t")/{{cust}}descendant::customer[{{cust}}child::uname = "{data_uname}"]"#
    );
    let Expr::Path(p) = parse_query(&q).unwrap() else {
        panic!()
    };
    let plan = plan_path(&s, &p, true).unwrap();
    assert!(
        plan.explain(&s).contains("content-index entry"),
        "{}",
        plan.explain(&s)
    );
    let out = plan.execute_shared(&s, 1, None).unwrap();
    assert_eq!(out.len(), 1);
    assert_eq!(via_planner(&s, &q), via_interpreter(&mut s, &q));
}
