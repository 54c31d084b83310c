//! Cross-crate integration tests: the paper's pipeline end to end.

use colorful_xml::core::{import_document, McNodeId, MctDatabase, StoredDb};
use colorful_xml::query::{
    eval, execute_update, parse_query, parse_update, plan_path, EvalContext, EvalError, Expr, Item,
};
use colorful_xml::serialize::{emit_exchange, opt_serialize, reconstruct, MctSchema};
use colorful_xml::storage::DiskManager;
use colorful_xml::workloads::{
    all_queries, movies, run_read, run_update, Params, QueryKind, SchemaKind, SigmodConfig,
    SigmodData, TpcwConfig, TpcwData,
};
use colorful_xml::xml::{parse, Dtd, FdTarget, Quantifier};

const POOL: usize = 64 * 1024 * 1024;

/// Parse XML → import as a single-colored MCT → store → query with
/// plain (color-defaulted) XQuery.
#[test]
fn xml_to_mct_to_query_pipeline() {
    let doc = parse(
        r#"<library>
             <book genre="novel"><title>Middlemarch</title><year>1871</year></book>
             <book genre="essay"><title>On Liberty</title><year>1859</year></book>
             <book genre="novel"><title>Bleak House</title><year>1853</year></book>
           </library>"#,
    )
    .unwrap();
    let mut db = MctDatabase::new();
    let black = db.add_color("black");
    import_document(&mut db, &doc, black);
    let mut stored = StoredDb::build(db, POOL).unwrap();
    let q = parse_query(r#"for $b in document("lib")//book[year < 1860] return $b/title"#).unwrap();
    let mut ctx = EvalContext::new(&mut stored)
        .with_default_color("black")
        .unwrap();
    let out = eval(&mut ctx, &q).unwrap();
    let titles: Vec<&str> = out
        .iter()
        .filter_map(|i| match i {
            Item::Node(n, _) => ctx.stored.db.content(*n),
            _ => None,
        })
        .collect();
    assert_eq!(titles, ["On Liberty", "Bleak House"]);
}

/// All 21 read queries return identical cardinalities across the
/// three designs (a different scale/seed than the unit tests use).
#[test]
fn workload_reads_agree_across_designs() {
    let t = TpcwData::generate(&TpcwConfig { scale: 0.05, seed: 99 });
    let g = SigmodData::generate(&SigmodConfig { scale: 0.08, seed: 99 });
    let p = Params::derive(&t, &g);
    let mut tp = [
        StoredDb::build(t.build_mct(), POOL).unwrap(),
        StoredDb::build(t.build_shallow(), POOL).unwrap(),
        StoredDb::build(t.build_deep(), POOL).unwrap(),
    ];
    let mut sg = [
        StoredDb::build(g.build_mct(), POOL).unwrap(),
        StoredDb::build(g.build_shallow(), POOL).unwrap(),
        StoredDb::build(g.build_deep(), POOL).unwrap(),
    ];
    for wq in all_queries(&p) {
        if wq.kind != QueryKind::Read {
            continue;
        }
        let dbs = match wq.dataset {
            colorful_xml::workloads::Dataset::Tpcw => &mut tp,
            colorful_xml::workloads::Dataset::Sigmod => &mut sg,
        };
        let counts: Vec<usize> = SchemaKind::ALL
            .iter()
            .enumerate()
            .map(|(i, s)| run_read(&mut dbs[i], wq.id, *s, &p, true).unwrap().results)
            .collect();
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "{} disagrees: {counts:?}",
            wq.id
        );
    }
}

/// The update anomaly, end to end: the same logical update touches one
/// element in MCT and many replicas in deep — and after the update the
/// MCT database stays consistent from every hierarchy.
#[test]
fn update_anomaly_and_consistency() {
    let t = TpcwData::generate(&TpcwConfig { scale: 0.05, seed: 7 });
    let g = SigmodData::generate(&SigmodConfig { scale: 0.08, seed: 7 });
    let p = Params::derive(&t, &g);
    let wq = all_queries(&p).into_iter().find(|q| q.id == "TU2").unwrap();

    let mut mct = StoredDb::build(t.build_mct(), POOL).unwrap();
    let mct_out = run_update(&mut mct, &wq, SchemaKind::Mct).unwrap();
    assert_eq!(mct_out.updated, 1, "one stored copy in MCT");

    let mut deep = StoredDb::build(t.build_deep(), POOL).unwrap();
    let deep_out = run_update(&mut deep, &wq, SchemaKind::Deep).unwrap();
    assert!(
        deep_out.updated > 1,
        "deep must fix every replica ({})",
        deep_out.updated
    );

    // Consistency after the MCT update: the new cost is visible through
    // the auth hierarchy's index.
    assert!(!mct.content_lookup("9999").unwrap().is_empty());
    mct.db.check_invariants();
}

/// TPC-W MCT database → exchange XML → reconstruct → identical trees.
#[test]
fn tpcw_exchange_roundtrip() {
    let t = TpcwData::generate(&TpcwConfig { scale: 0.03, seed: 3 });
    let db = t.build_mct();
    // A trivial scheme (no type info): instances fall back to their
    // first real color, which still round-trips.
    let scheme = colorful_xml::serialize::SerializationScheme::default();
    let doc = emit_exchange(&db, &scheme);
    let back = reconstruct(&doc).unwrap();
    back.check_invariants();
    assert_eq!(db.counts(), back.counts());
    assert_eq!(db.structural_count(), back.structural_count());
    for (c, name) in db.palette.iter() {
        let c2 = back.color(name).unwrap();
        assert_eq!(
            db.tree_size(c),
            back.tree_size(c2),
            "tree {name} size differs"
        );
    }
}

/// The movie exchange round trip with the real Figure 8 scheme.
#[test]
fn movie_exchange_roundtrip_with_figure8_scheme() {
    let m = movies::build();
    let (schema, stats) = MctSchema::figure8();
    let scheme = opt_serialize(&schema, &stats);
    let doc = emit_exchange(&m.db, &scheme);
    let back = reconstruct(&doc).unwrap();
    assert_eq!(m.db.counts(), back.counts());
    // Every colored tree is isomorphic (same XML export).
    for (c, name) in m.db.palette.iter() {
        let a = colorful_xml::xml::write_document(
            &colorful_xml::core::export_color(&m.db, c),
            &colorful_xml::xml::WriteOptions::default(),
        );
        let b = colorful_xml::xml::write_document(
            &colorful_xml::core::export_color(&back, back.color(name).unwrap()),
            &colorful_xml::xml::WriteOptions::default(),
        );
        assert_eq!(a, b, "color {name}");
    }
}

/// Definition 3.3 classifies our own designs as the paper names them:
/// the IDREF design is shallow, the replicated design is deep.
#[test]
fn definition_3_3_classifies_the_designs() {
    // Shallow-style schema: items referenced by id; id determines node.
    let shallow = Dtd::new("db")
        .element("db", &[("items", Quantifier::One), ("orderlines", Quantifier::One)], &[], false)
        .element("items", &[("item", Quantifier::Star)], &[], false)
        .element("orderlines", &[("orderline", Quantifier::Star)], &[], false)
        .element("item", &[("title", Quantifier::One)], &["id"], false)
        .element("orderline", &[], &["itemIdRef"], true)
        .element("title", &[], &[], true)
        .fd(
            vec![FdTarget::Attr(p("db/items/item"), "id".into())],
            FdTarget::Path(p("db/items/item")),
        );
    assert!(shallow.is_shallow());

    // Deep-style schema: item replicated under orderline; the item key
    // determines the title *content* but not the (replicated) node.
    let deep = Dtd::new("db")
        .element("db", &[("orderline", Quantifier::Star)], &[], false)
        .element("orderline", &[("item", Quantifier::One)], &[], false)
        .element("item", &[("title", Quantifier::One)], &["itemkey"], false)
        .element("title", &[], &[], true)
        .fd(
            vec![FdTarget::Attr(p("db/orderline/item"), "itemkey".into())],
            FdTarget::Content(p("db/orderline/item/title")),
        );
    assert!(deep.is_deep());

    fn p(s: &str) -> Vec<String> {
        s.split('/').map(str::to_string).collect()
    }
}

/// Evaluate `q`, then require a clean deep check.
fn eval_checked<D: DiskManager>(s: &mut StoredDb<D>, q: &str) -> Result<Vec<Item>, EvalError> {
    let out = eval(&mut EvalContext::new(s), &parse_query(q).unwrap());
    let rep = s.check().unwrap();
    assert!(rep.is_ok(), "after {q}: {rep}");
    out
}

/// The nodes of an interpreter result that holds only nodes.
fn nodes(items: Vec<Item>) -> Vec<McNodeId> {
    let node = |i| match i {
        Item::Node(n, _) => n,
        other => panic!("not a node: {other:?}"),
    };
    items.into_iter().map(node).collect()
}

/// Q5's restructuring into the new color `byv` (Figure 3, §4.3).
const Q5_BYV: &str = r#"createColor("byv", <byvotes> {
     for $v in distinct-values(document("mdb.xml")/{green}descendant::votes)
     order by $v
     return
       <award-byvotes> {
         for $m in document("mdb.xml")/{green}descendant::movie[{green}child::votes = $v]
         return $m
       } <votes> { $v } </votes>
       </award-byvotes>
   } </byvotes>)"#;

/// The Figure 2 database answers the movie example's statements —
/// Figure 3's Q1–Q4, the §4.2 dupl-problem error and the §4.3 update —
/// through the public facade, and each leaves the store annotated and
/// consistent.
#[test]
fn figure2_queries_end_to_end() {
    let mut s = StoredDb::build(movies::build().db, POOL).unwrap();
    let comedy = r#"document("mdb.xml")/{red}descendant::movie-genre[{red}child::name = "Comedy"]"#;
    let oscar = r#"document("mdb.xml")/{green}descendant::movie-award
        [contains({green}child::name, "Oscar")]/{green}descendant::movie"#;
    let eve = format!(r#"{comedy}/{{red}}descendant::movie[contains({{red}}child::name, "Eve")]"#);
    let q3 = format!(
        r#"for $m in {oscar}, $r in {comedy}/{{red}}descendant::movie[. = $m]/{{red}}child::movie-role,
            $r2 in document("mdb.xml")/{{blue}}descendant::actor
                [{{blue}}child::name = "Bette Davis"]/{{blue}}child::movie-role
           where $r = $r2
           return $m/{{red}}child::name"#
    );
    for q in [
        format!("for $m in {eve} return $m/{{red}}child::name"),
        format!("for $m in {eve}, $m2 in {oscar} where $m = $m2 return $m/{{red}}child::name"),
        format!(
            "{oscar}[{{green}}child::votes > 10]/{{red}}child::movie-role/{{blue}}parent::actor"
        ),
    ] {
        let found = eval_checked(&mut s, &q).unwrap().len();
        assert!(found > 0, "{q}");
    }
    let q3 = nodes(eval_checked(&mut s, &q3).unwrap());
    let names: Vec<_> = q3.iter().filter_map(|&n| s.db.content(n)).collect();
    // Bette Davis acted (as Margo and as The Keeper) in two nominated
    // comedy movies.
    assert!(names.contains(&"All About Eve"), "{names:?}");
    assert!(names.contains(&"Quiet Harbors"), "{names:?}");

    let dupl = eval_checked(
        &mut s,
        r#"for $m in document("mdb.xml")/{green}descendant::movie[{green}child::votes > 10]
           return createColor("black", <dupl-problem>
               <m1> { $m/{green}child::name } </m1>
               <m2> { $m/{green}child::name } </m2>
           </dupl-problem>)"#,
    );
    assert!(matches!(dupl, Err(EvalError::DuplicateNode(..))));
    // The refused createColor made nothing, not even its color.
    assert!(s.db.color("black").is_none());

    let upd = parse_update(
        r#"for $m in document("mdb.xml")/{green}descendant::movie
           where $m/{green}child::votes = 11
           update $m { replace value of $m/{green}child::votes with "12" }"#,
    )
    .unwrap();
    assert_eq!(execute_update(&mut s, &upd).unwrap(), 1);
    assert!(s.check().unwrap().is_ok());
}

/// Figure 3's Q5 restructures the movies into the new color `byv`
/// through the public facade and leaves the store consistent.
#[test]
fn q5_restructuring_via_facade() {
    let mut s = StoredDb::build(movies::build().db, POOL).unwrap();
    let out = nodes(eval_checked(&mut s, Q5_BYV).unwrap());
    assert_eq!(out.len(), 1);
    let byv = s.db.color("byv").unwrap();
    let green = s.db.color("green").unwrap();
    let child = |n, name| {
        s.db.children(n, green)
            .find(|&k| s.db.name_str(k) == Some(name))
    };
    // Three vote groups (7, 11, 14), ascending. Each holds its votes
    // node and the movies with those votes, each movie once and with
    // its identity kept: red + green + byv.
    let groups: Vec<_> = s.db.children(out[0], byv).collect();
    assert_eq!(groups.len(), 3);
    let (mut votes, mut grouped) = (Vec::new(), Vec::new());
    for grp in groups {
        let (v, movies): (Vec<_>, Vec<_>) =
            s.db.children(grp, byv)
                .partition(|&n| s.db.name_str(n) == Some("votes"));
        let [v] = v[..] else {
            panic!("one votes node per group")
        };
        let v = s.db.content(v).unwrap();
        for m in movies {
            assert_eq!(s.db.name_str(m), Some("movie"));
            assert_eq!(s.db.colors(m).len(), 3);
            assert_eq!(child(m, "votes").and_then(|k| s.db.content(k)), Some(v));
            grouped.push(m);
        }
        votes.push(v);
    }
    assert_eq!(votes, ["7", "11", "14"]);
    let movies = s.postings_named(green, "movie").unwrap();
    let mut all: Vec<_> = movies.into_iter().map(|r| r.node).collect();
    all.sort();
    grouped.sort();
    assert_eq!(grouped, all);
    assert_eq!(s.postings_named(byv, "award-byvotes").unwrap().len(), 3);
}

/// `createColor` over items one of which holds another attaches each
/// item once, whatever their order: the inner one under its
/// constructor, the outer one under the document node.
#[test]
fn create_color_attaches_nested_items_in_either_order() {
    let fresh = r#"let $b := <b/> return createColor("x", "#;
    let existing = r#"let $b := document("mdb.xml")/{green}descendant::movie[1]
        return createColor("x", "#;
    for (head, order) in [fresh, existing]
        .into_iter()
        .flat_map(|h| [(h, "($b, <a>{$b}</a>))"), (h, "(<a>{$b}</a>, $b))")])
    {
        let mut s = StoredDb::build(movies::build().db, POOL).unwrap();
        let q = format!("{head}{order}");
        let out = nodes(eval_checked(&mut s, &q).unwrap());
        let (b, a) = if s.db.name_str(out[0]) == Some("a") {
            (out[1], out[0])
        } else {
            (out[0], out[1])
        };
        let x = s.db.color("x").unwrap();
        let kids = |n| s.db.children(n, x).collect::<Vec<_>>();
        assert_eq!(kids(McNodeId::DOCUMENT), [a], "{q}");
        assert_eq!(kids(a), [b], "{q}");
    }
}

/// `createColor` into a new color on a durable store survives sync and
/// reopen: the reopened store verifies (in `eval_checked`), and the
/// planner answers the new color exactly as the interpreter does.
#[test]
fn create_color_survives_sync_and_reopen() {
    let dir = std::env::temp_dir().join(format!("mct-create-color-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut s = StoredDb::create(&dir, movies::build().db, POOL).unwrap();
    eval(&mut EvalContext::new(&mut s), &parse_query(Q5_BYV).unwrap()).unwrap();
    s.sync().unwrap();
    drop(s);
    let mut s = StoredDb::open(&dir, POOL).unwrap().unwrap();
    for q in [
        r#"document("mdb.xml")/{byv}descendant::movie"#,
        r#"document("mdb.xml")/{byv}child::byvotes/{byv}child::award-byvotes/{byv}child::votes"#,
        r#"document("mdb.xml")/{byv}descendant::movie/{red}child::name"#,
    ] {
        let Expr::Path(p) = parse_query(q).unwrap() else {
            unreachable!("bare paths")
        };
        let planned = plan_path(&s, &p, true).unwrap().execute_shared(&s, 1, None);
        let planned: Vec<_> = planned.unwrap().iter().map(|t| t[0].node).collect();
        assert!(!planned.is_empty(), "{q}");
        assert_eq!(planned, nodes(eval_checked(&mut s, q).unwrap()), "{q}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
