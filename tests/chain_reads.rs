//! How much of the tag index a planned chain reads, counted by
//! `storage.index.tag.entries` (postings returned by tag-index scans).
//! The counter is process-wide, so this binary holds one test.

use colorful_xml::core::StoredDb;
use colorful_xml::obs;
use colorful_xml::query::plan::plan_path;
use colorful_xml::query::{parse_query, Expr};
use colorful_xml::workloads::{TpcwConfig, TpcwData};

/// A customer found through the content index, then its `name`: the
/// `name` list is read only inside that one customer's region, not the
/// whole posting list of its color.
#[test]
fn a_point_chain_reads_only_the_postings_it_can_reach() {
    let data = TpcwData::generate(&TpcwConfig { scale: 0.5, seed: 1 });
    let s = StoredDb::build(data.build_mct(), 64 * 1024 * 1024).unwrap();
    let cust = s.db.color("cust").unwrap();
    let all_names = s.postings_named(cust, "name").unwrap().len();
    let uname = &data.customers[data.customers.len() / 2].uname;
    let text = format!(
        r#"document("tpcw")/{{cust}}descendant::customer[{{cust}}child::uname = "{uname}"]/{{cust}}child::name"#
    );
    let Expr::Path(p) = parse_query(&text).unwrap() else {
        panic!("not a path")
    };
    let plan = plan_path(&s, &p, true).unwrap();
    let entries = obs::counter("storage.index.tag.entries");
    let before = entries.get();
    let out = plan.execute_shared(&s, 1, None).unwrap();
    let read = entries.get() - before;
    assert_eq!(out.len(), 1, "{text}");
    assert!(read <= 8, "read {read} postings of {all_names}");
    assert!(all_names > 100, "{all_names} name postings");
}
