//! Hand-written physical plans for every benchmark query (§7).
//!
//! The paper: "For all the experimentation described next, we manually
//! specified the query plan, always choosing the one expected to be
//! the best." This module is those plans, one per (query, schema):
//!
//! * MCT plans use per-color index scans, structural navigation, and
//!   the [`mct_core::cross_tree_join`]-based
//!   [`mct_query::ops::cross_tree_op`] for color transitions;
//! * shallow plans use content/attribute index lookups plus hash
//!   **value joins** over the IDREF attributes;
//! * deep plans are purely structural but operate over replicated
//!   data, and apply duplicate elimination where the query demands it
//!   (skipped by the `*D` variants, exactly like the paper's Table 2).

use crate::queries::{Params, SchemaKind};
use mct_storage::DiskManager;
use mct_core::{ColorId, McNodeId, StoredDb, StructRef};
use mct_query::ast::CmpOp;
use mct_query::ops::{
    cross_tree_op, dup_elim, index_scan, select_attr_eq, select_cmp, select_contains,
    structural_join, value_join_eq, KeySpec, Rel, Tuple,
};

type R<T> = mct_storage::Result<T>;

/// Outcome of one plan execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanOutcome {
    /// Result cardinality (after dup-elim unless suppressed).
    pub results: usize,
    /// Elements updated (updates only).
    pub updated: usize,
}

/// Run a read query's plan. `dedup` = apply duplicate elimination
/// (false reproduces the `*D` rows of Table 2).
pub fn run_read<D: DiskManager>(
    s: &mut StoredDb<D>,
    id: &str,
    schema: SchemaKind,
    p: &Params,
    dedup: bool,
) -> R<PlanOutcome> {
    let n = match id {
        "TQ1" => tq1(s, schema, p)?,
        "TQ2" => tq2(s, schema, p)?,
        "TQ3" => tq3(s, schema, p)?,
        "TQ4" => tq4(s, schema, p)?,
        "TQ5" => tq5(s, schema, p)?,
        "TQ6" => tq6(s, schema, p)?,
        "TQ7" => tq7(s, schema, dedup)?,
        "TQ8" => tq8(s, schema)?,
        "TQ9" => tq9(s, schema, p)?,
        "TQ10" => tq10(s, schema, p)?,
        "TQ11" => tq11(s, schema, p)?,
        "TQ12" => tq12(s, schema, p, dedup)?,
        "TQ13" => tq13(s, schema, p)?,
        "TQ14" => tq14(s, schema, p)?,
        "TQ15" => tq15(s, schema, p)?,
        "TQ16" => tq16(s, schema, p)?,
        "SQ1" => sq1(s, schema, p)?,
        "SQ2" => sq2(s, schema, p)?,
        "SQ3" => sq3(s, schema, p)?,
        "SQ4" => sq4(s, schema, dedup)?,
        "SQ5" => sq5(s, schema, p)?,
        other => panic!("unknown read query {other}"),
    };
    Ok(PlanOutcome {
        results: n,
        updated: 0,
    })
}

/// Run an update via its (schema-specific) parsed text through the
/// two-phase update executor.
pub fn run_update<D: DiskManager>(
    s: &mut StoredDb<D>,
    wq: &crate::queries::WorkloadQuery,
    schema: SchemaKind,
) -> R<PlanOutcome> {
    let text = match schema {
        SchemaKind::Mct => &wq.mct_text,
        SchemaKind::Shallow => &wq.shallow_text,
        SchemaKind::Deep => &wq.deep_text,
    };
    let stmt = mct_query::parse_update(text)
        .unwrap_or_else(|e| panic!("{} {:?} text does not parse: {e}", wq.id, schema));
    let default = match schema {
        SchemaKind::Mct => None,
        _ => Some("black"),
    };
    let out = mct_query::execute_update_with(s, &stmt, default)
        .unwrap_or_else(|e| panic!("{} {:?} failed: {e}", wq.id, schema));
    Ok(PlanOutcome {
        results: out.tuples,
        updated: out.elements,
    })
}

// ---------------------------------------------------------------------------
// Plan building blocks
// ---------------------------------------------------------------------------

fn color<D: DiskManager>(s: &StoredDb<D>, name: &str) -> ColorId {
    s.db.color(name)
        .unwrap_or_else(|| panic!("color {name} missing"))
}

/// Single-column tuples for a node set, coded in `c`, start-sorted.
fn to_tuples<D: DiskManager>(s: &mut StoredDb<D>, nodes: Vec<McNodeId>, c: ColorId) -> Vec<Tuple> {
    let mut out: Vec<Tuple> = nodes
        .into_iter()
        .filter_map(|n| s.db.code(n, c).map(|code| vec![StructRef { node: n, code }]))
        .collect();
    out.sort_by_key(|t| t[0].code.start);
    out
}

/// Content-index lookup restricted to elements named `elem`.
fn by_content<D: DiskManager>(s: &mut StoredDb<D>, value: &str, elem: &str, c: ColorId) -> R<Vec<Tuple>> {
    let hits = s.content_lookup(value)?;
    let filtered: Vec<McNodeId> = hits
        .into_iter()
        .filter(|&n| s.db.name_str(n) == Some(elem))
        .collect();
    Ok(to_tuples(s, filtered, c))
}

/// Replace `col` with its parent in `c`; drop tuples without one.
fn parents<D: DiskManager>(s: &mut StoredDb<D>, input: Vec<Tuple>, col: usize, c: ColorId) -> Vec<Tuple> {
    let mut out = Vec::with_capacity(input.len());
    for mut t in input {
        if let Some(p) = s.db.parent(t[col].node, c) {
            if p == McNodeId::DOCUMENT {
                continue;
            }
            let code = s.db.code(p, c).expect("annotated");
            t[col] = StructRef { node: p, code };
            out.push(t);
        }
    }
    out.sort_by_key(|t| t[col].code.start);
    out
}

/// Expand each tuple once per `name`-child (in `c`) of column `col`;
/// the child is appended as a new column.
fn children_named<D: DiskManager>(s: &mut StoredDb<D>, input: Vec<Tuple>, col: usize, c: ColorId, name: &str) -> Vec<Tuple> {
    let mut out = Vec::new();
    for t in input {
        let kids: Vec<McNodeId> = s
            .db
            .children(t[col].node, c)
            .filter(|&ch| s.db.name_str(ch) == Some(name))
            .collect();
        for ch in kids {
            let code = s.db.code(ch, c).expect("annotated");
            let mut nt = t.clone();
            nt.push(StructRef { node: ch, code });
            out.push(nt);
        }
    }
    out
}

/// Expand each tuple once per `name`-descendant (in `c`) of `col`.
fn descendants_named<D: DiskManager>(
    s: &mut StoredDb<D>,
    input: Vec<Tuple>,
    col: usize,
    c: ColorId,
    name: &str,
) -> Vec<Tuple> {
    let mut out = Vec::new();
    for t in input {
        let descs: Vec<McNodeId> = s
            .db
            .descendants(t[col].node, c)
            .filter(|&d| s.db.name_str(d) == Some(name))
            .collect();
        for d in descs {
            let code = s.db.code(d, c).expect("annotated");
            let mut nt = t.clone();
            nt.push(StructRef { node: d, code });
            out.push(nt);
        }
    }
    out
}

/// Keep only the last column.
fn last_col(input: Vec<Tuple>) -> Vec<Tuple> {
    input
        .into_iter()
        .map(|t| vec![*t.last().expect("non-empty tuple")])
        .collect()
}

/// Distinct by the fetched content of the last column.
fn distinct_by_content<D: DiskManager>(s: &mut StoredDb<D>, input: Vec<Tuple>) -> R<usize> {
    let mut seen = std::collections::HashSet::new();
    for t in &input {
        let v = s.fetch_content(t.last().unwrap().node)?.unwrap_or_default();
        seen.insert(v);
    }
    Ok(seen.len())
}

// ---------------------------------------------------------------------------
// TPC-W reads
// ---------------------------------------------------------------------------

fn tq1<D: DiskManager>(s: &mut StoredDb<D>, schema: SchemaKind, p: &Params) -> R<usize> {
    let c = match schema {
        SchemaKind::Mct => color(s, "cust"),
        _ => color(s, "black"),
    };
    let unames = by_content(s, &p.uname, "uname", c)?;
    let custs = parents(s, unames, 0, c);
    let names = children_named(s, custs, 0, c, "name");
    Ok(names.len())
}

fn tq2<D: DiskManager>(s: &mut StoredDb<D>, schema: SchemaKind, p: &Params) -> R<usize> {
    let c = match schema {
        SchemaKind::Mct => color(s, "cust"),
        _ => color(s, "black"),
    };
    let totals = index_scan(s, c, "total")?;
    let hot = select_cmp(s, totals, 0, CmpOp::Gt, &p.total_hi.to_string())?;
    Ok(parents(s, hot, 0, c).len())
}

fn tq3<D: DiskManager>(s: &mut StoredDb<D>, schema: SchemaKind, p: &Params) -> R<usize> {
    match schema {
        SchemaKind::Mct => {
            let cust = color(s, "cust");
            let auth = color(s, "auth");
            let unames = by_content(s, &p.uname, "uname", cust)?;
            let custs = parents(s, unames, 0, cust);
            let orders = last_col(children_named(s, custs, 0, cust, "order"));
            let lines = last_col(children_named(s, orders, 0, cust, "orderline"));
            let lines = cross_tree_op(s, lines, 0, auth, 1, None)?;
            let items = parents(s, lines, 0, auth);
            let items = dup_elim(items, &[0]);
            distinct_by_title(s, items)
        }
        SchemaKind::Shallow => {
            let c = color(s, "black");
            let unames = by_content(s, &p.uname, "uname", c)?;
            let custs = parents(s, unames, 0, c);
            let orders = index_scan(s, c, "order")?;
            let j1 = value_join_eq(
                s, &orders, 0, &KeySpec::Attr("customerIdRef".into()),
                &custs, 0, &KeySpec::Attr("id".into()),
            )?;
            let lines = index_scan(s, c, "orderline")?;
            let j2 = value_join_eq(
                s, &lines, 0, &KeySpec::Attr("orderIdRef".into()),
                &j1, 0, &KeySpec::Attr("id".into()),
            )?;
            let items = index_scan(s, c, "item")?;
            let j3 = value_join_eq(
                s, &j2, 0, &KeySpec::Attr("itemIdRef".into()),
                &items, 0, &KeySpec::Attr("id".into()),
            )?;
            let items_only = last_col(j3);
            let items_only = dup_elim(items_only, &[0]);
            distinct_by_title(s, items_only)
        }
        SchemaKind::Deep => {
            let c = color(s, "black");
            let unames = by_content(s, &p.uname, "uname", c)?;
            let custs = parents(s, unames, 0, c);
            let items = last_col(descendants_named(s, custs, 0, c, "item"));
            distinct_by_title(s, items)
        }
    }
}

/// Count distinct item titles (TQ3's projection).
fn distinct_by_title<D: DiskManager>(s: &mut StoredDb<D>, items: Vec<Tuple>) -> R<usize> {
    let c = first_color_of(s, &items);
    let titles = match c {
        Some(c) => last_col(children_named(s, items, 0, c, "title")),
        None => return Ok(0),
    };
    distinct_by_content(s, titles)
}

fn first_color_of<D: DiskManager>(s: &StoredDb<D>, tuples: &[Tuple]) -> Option<ColorId> {
    tuples
        .first()
        .and_then(|t| s.db.colors(t[0].node).iter().next())
}

fn tq4<D: DiskManager>(s: &mut StoredDb<D>, schema: SchemaKind, p: &Params) -> R<usize> {
    let c = match schema {
        SchemaKind::Mct => color(s, "cust"),
        _ => color(s, "black"),
    };
    let qtys = index_scan(s, c, "qty")?;
    let hit = select_cmp(s, qtys, 0, CmpOp::Eq, &p.qty.to_string())?;
    Ok(parents(s, hit, 0, c).len())
}

fn tq5<D: DiskManager>(s: &mut StoredDb<D>, schema: SchemaKind, p: &Params) -> R<usize> {
    let c = match schema {
        SchemaKind::Mct => color(s, "cust"),
        _ => color(s, "black"),
    };
    let names = by_content(s, &p.cust_name, "name", c)?;
    // Restrict to customer names (name elements also occur elsewhere).
    let custs = parents(s, names, 0, c);
    let custs: Vec<Tuple> = custs
        .into_iter()
        .filter(|t| s.db.name_str(t[0].node) == Some("customer"))
        .collect();
    Ok(dup_elim(custs, &[0]).len())
}

fn tq6<D: DiskManager>(s: &mut StoredDb<D>, schema: SchemaKind, p: &Params) -> R<usize> {
    let c = match schema {
        SchemaKind::Mct => color(s, "cust"),
        _ => color(s, "black"),
    };
    let statuses = index_scan(s, c, "status")?;
    let hit = select_cmp(s, statuses, 0, CmpOp::Eq, &p.status)?;
    Ok(parents(s, hit, 0, c).len())
}

fn tq7<D: DiskManager>(s: &mut StoredDb<D>, schema: SchemaKind, dedup: bool) -> R<usize> {
    match schema {
        SchemaKind::Mct => {
            let auth = color(s, "auth");
            let authors = index_scan(s, auth, "author")?;
            let names = index_scan(s, auth, "name")?;
            let joined = structural_join(&authors, 0, &names, 0, Rel::Child);
            let names_only = last_col(joined);
            if dedup {
                distinct_by_content(s, names_only)
            } else {
                Ok(names_only.len())
            }
        }
        SchemaKind::Shallow | SchemaKind::Deep => {
            let c = color(s, "black");
            let authors = index_scan(s, c, "author")?;
            let names = index_scan(s, c, "name")?;
            let joined = structural_join(&authors, 0, &names, 0, Rel::Child);
            let names_only = last_col(joined);
            if dedup {
                distinct_by_content(s, names_only)
            } else {
                Ok(names_only.len())
            }
        }
    }
}

fn tq8<D: DiskManager>(s: &mut StoredDb<D>, schema: SchemaKind) -> R<usize> {
    let c = match schema {
        SchemaKind::Mct => color(s, "cust"),
        _ => color(s, "black"),
    };
    let orders = index_scan(s, c, "order")?;
    let _count = orders.len();
    Ok(1) // a single aggregate row
}

fn tq9<D: DiskManager>(s: &mut StoredDb<D>, schema: SchemaKind, p: &Params) -> R<usize> {
    match schema {
        SchemaKind::Mct => {
            let auth = color(s, "auth");
            let costs = index_scan(s, auth, "cost")?;
            let hot = select_cmp(s, costs, 0, CmpOp::Gt, &p.cost_hi.to_string())?;
            let items = parents(s, hot, 0, auth);
            let lines = last_col(children_named(s, items, 0, auth, "orderline"));
            Ok(lines.len())
        }
        SchemaKind::Shallow => {
            let c = color(s, "black");
            let costs = index_scan(s, c, "cost")?;
            let hot = select_cmp(s, costs, 0, CmpOp::Gt, &p.cost_hi.to_string())?;
            let items = parents(s, hot, 0, c);
            let lines = index_scan(s, c, "orderline")?;
            let j = value_join_eq(
                s, &lines, 0, &KeySpec::Attr("itemIdRef".into()),
                &items, 0, &KeySpec::Attr("id".into()),
            )?;
            Ok(j.len())
        }
        SchemaKind::Deep => {
            let c = color(s, "black");
            let costs = index_scan(s, c, "cost")?;
            let hot = select_cmp(s, costs, 0, CmpOp::Gt, &p.cost_hi.to_string())?;
            let items = parents(s, hot, 0, c);
            let lines = parents(s, items, 0, c); // item's parent is the orderline
            Ok(lines.len())
        }
    }
}

fn tq10<D: DiskManager>(s: &mut StoredDb<D>, schema: SchemaKind, p: &Params) -> R<usize> {
    match schema {
        SchemaKind::Mct => {
            let ship = color(s, "ship");
            let auth = color(s, "auth");
            let cities = by_content(s, &p.city, "city", ship)?;
            let addrs = parents(s, cities, 0, ship);
            let orders = last_col(children_named(s, addrs, 0, ship, "order"));
            let lines = last_col(children_named(s, orders, 0, ship, "orderline"));
            let lines = cross_tree_op(s, lines, 0, auth, 1, None)?;
            let items = parents(s, lines, 0, auth);
            let authors = parents(s, items, 0, auth);
            let authors = dup_elim(authors, &[0]);
            Ok(authors.len())
        }
        SchemaKind::Shallow => {
            let c = color(s, "black");
            let cities = by_content(s, &p.city, "city", c)?;
            let addrs = parents(s, cities, 0, c);
            let orders = index_scan(s, c, "order")?;
            let j1 = value_join_eq(
                s, &orders, 0, &KeySpec::Attr("shipAddrIdRef".into()),
                &addrs, 0, &KeySpec::Attr("id".into()),
            )?;
            let lines = index_scan(s, c, "orderline")?;
            let j2 = value_join_eq(
                s, &lines, 0, &KeySpec::Attr("orderIdRef".into()),
                &j1, 0, &KeySpec::Attr("id".into()),
            )?;
            let items = index_scan(s, c, "item")?;
            let j3 = value_join_eq(
                s, &j2, 0, &KeySpec::Attr("itemIdRef".into()),
                &items, 0, &KeySpec::Attr("id".into()),
            )?;
            let authors = index_scan(s, c, "author")?;
            // j3 columns: [line, order, addr, item].
            let j4 = value_join_eq(
                s, &j3, 3, &KeySpec::Attr("authorIdRef".into()),
                &authors, 0, &KeySpec::Attr("id".into()),
            )?;
            let a = last_col(j4);
            Ok(dup_elim(a, &[0]).len())
        }
        SchemaKind::Deep => {
            let c = color(s, "black");
            let cities = by_content(s, &p.city, "city", c)?;
            let addrs = parents(s, cities, 0, c);
            let ship_addrs = select_attr_eq(s, addrs, 0, "role", "shipping")?;
            let orders = parents(s, ship_addrs, 0, c);
            let lines = last_col(children_named(s, orders, 0, c, "orderline"));
            let items = last_col(children_named(s, lines, 0, c, "item"));
            let authors = last_col(children_named(s, items, 0, c, "author"));
            // Replicated authors: distinct by the authorkey attribute.
            let mut seen = std::collections::HashSet::new();
            for t in &authors {
                let attrs = s.fetch_attrs(t[0].node)?;
                if let Some((_, v)) = attrs.iter().find(|(n, _)| n == "authorkey") {
                    seen.insert(v.clone());
                }
            }
            Ok(seen.len())
        }
    }
}

fn tq11<D: DiskManager>(s: &mut StoredDb<D>, schema: SchemaKind, p: &Params) -> R<usize> {
    match schema {
        SchemaKind::Mct => {
            let auth = color(s, "auth");
            let names = by_content(s, &p.author, "name", auth)?;
            let authors = parents(s, names, 0, auth);
            let items = last_col(children_named(s, authors, 0, auth, "item"));
            let lines = last_col(children_named(s, items, 0, auth, "orderline"));
            Ok(lines.len())
        }
        SchemaKind::Shallow => {
            let c = color(s, "black");
            let names = by_content(s, &p.author, "name", c)?;
            let authors = parents(s, names, 0, c);
            let items = index_scan(s, c, "item")?;
            let j1 = value_join_eq(
                s, &items, 0, &KeySpec::Attr("authorIdRef".into()),
                &authors, 0, &KeySpec::Attr("id".into()),
            )?;
            let lines = index_scan(s, c, "orderline")?;
            let j2 = value_join_eq(
                s, &lines, 0, &KeySpec::Attr("itemIdRef".into()),
                &j1, 0, &KeySpec::Attr("id".into()),
            )?;
            Ok(j2.len())
        }
        SchemaKind::Deep => {
            let c = color(s, "black");
            let names = by_content(s, &p.author, "name", c)?;
            let authors = parents(s, names, 0, c);
            // Only the replicated authors under items qualify here.
            let items: Vec<Tuple> = parents(s, authors, 0, c)
                .into_iter()
                .filter(|t| s.db.name_str(t[0].node) == Some("item"))
                .collect();
            let lines = parents(s, items, 0, c);
            Ok(lines.len())
        }
    }
}

fn tq12<D: DiskManager>(s: &mut StoredDb<D>, schema: SchemaKind, p: &Params, dedup: bool) -> R<usize> {
    match schema {
        SchemaKind::Mct => {
            let cust = color(s, "cust");
            let ship = color(s, "ship");
            let unames = by_content(s, &p.uname, "uname", cust)?;
            let custs = parents(s, unames, 0, cust);
            let orders = last_col(children_named(s, custs, 0, cust, "order"));
            let orders = cross_tree_op(s, orders, 0, ship, 1, None)?;
            let addrs = parents(s, orders, 0, ship);
            let countries = last_col(children_named(s, addrs, 0, ship, "country"));
            if dedup {
                distinct_by_content(s, countries)
            } else {
                Ok(countries.len())
            }
        }
        SchemaKind::Shallow => {
            let c = color(s, "black");
            let unames = by_content(s, &p.uname, "uname", c)?;
            let custs = parents(s, unames, 0, c);
            let orders = index_scan(s, c, "order")?;
            let j1 = value_join_eq(
                s, &orders, 0, &KeySpec::Attr("customerIdRef".into()),
                &custs, 0, &KeySpec::Attr("id".into()),
            )?;
            let addrs = index_scan(s, c, "address")?;
            let j2 = value_join_eq(
                s, &j1, 0, &KeySpec::Attr("shipAddrIdRef".into()),
                &addrs, 0, &KeySpec::Attr("id".into()),
            )?;
            let a = last_col(j2);
            let countries = last_col(children_named(s, a, 0, c, "country"));
            if dedup {
                distinct_by_content(s, countries)
            } else {
                Ok(countries.len())
            }
        }
        SchemaKind::Deep => {
            let c = color(s, "black");
            let unames = by_content(s, &p.uname, "uname", c)?;
            let custs = parents(s, unames, 0, c);
            let orders = last_col(children_named(s, custs, 0, c, "order"));
            let addrs = last_col(children_named(s, orders, 0, c, "address"));
            let addrs = select_attr_eq(s, addrs, 0, "role", "shipping")?;
            let countries = last_col(children_named(s, addrs, 0, c, "country"));
            let names = last_col(children_named(s, countries, 0, c, "name"));
            if dedup {
                distinct_by_content(s, names)
            } else {
                Ok(names.len())
            }
        }
    }
}

fn tq13<D: DiskManager>(s: &mut StoredDb<D>, schema: SchemaKind, p: &Params) -> R<usize> {
    shipped_to_city_lines(s, schema, &p.city)
}

fn shipped_to_city_lines<D: DiskManager>(s: &mut StoredDb<D>, schema: SchemaKind, city: &str) -> R<usize> {
    match schema {
        SchemaKind::Mct => {
            let ship = color(s, "ship");
            let cities = by_content(s, city, "city", ship)?;
            let addrs = parents(s, cities, 0, ship);
            let orders = last_col(children_named(s, addrs, 0, ship, "order"));
            let lines = last_col(children_named(s, orders, 0, ship, "orderline"));
            Ok(lines.len())
        }
        SchemaKind::Shallow => {
            let c = color(s, "black");
            let cities = by_content(s, city, "city", c)?;
            let addrs = parents(s, cities, 0, c);
            let orders = index_scan(s, c, "order")?;
            let j1 = value_join_eq(
                s, &orders, 0, &KeySpec::Attr("shipAddrIdRef".into()),
                &addrs, 0, &KeySpec::Attr("id".into()),
            )?;
            let lines = index_scan(s, c, "orderline")?;
            let j2 = value_join_eq(
                s, &lines, 0, &KeySpec::Attr("orderIdRef".into()),
                &j1, 0, &KeySpec::Attr("id".into()),
            )?;
            Ok(j2.len())
        }
        SchemaKind::Deep => {
            let c = color(s, "black");
            let cities = by_content(s, city, "city", c)?;
            let addrs = parents(s, cities, 0, c);
            let addrs = select_attr_eq(s, addrs, 0, "role", "shipping")?;
            let orders = parents(s, addrs, 0, c);
            let lines = last_col(children_named(s, orders, 0, c, "orderline"));
            Ok(lines.len())
        }
    }
}

fn tq14<D: DiskManager>(s: &mut StoredDb<D>, schema: SchemaKind, p: &Params) -> R<usize> {
    match schema {
        SchemaKind::Mct => {
            let date = color(s, "date");
            let dates = by_content(s, &p.date, "date", date)?;
            let orders = last_col(children_named(s, dates, 0, date, "order"));
            let lines = last_col(children_named(s, orders, 0, date, "orderline"));
            Ok(lines.len())
        }
        SchemaKind::Shallow => {
            let c = color(s, "black");
            let dates = by_content(s, &p.date, "date", c)?;
            let orders = index_scan(s, c, "order")?;
            let j1 = value_join_eq(
                s, &orders, 0, &KeySpec::Attr("dateIdRef".into()),
                &dates, 0, &KeySpec::Attr("id".into()),
            )?;
            let lines = index_scan(s, c, "orderline")?;
            let j2 = value_join_eq(
                s, &lines, 0, &KeySpec::Attr("orderIdRef".into()),
                &j1, 0, &KeySpec::Attr("id".into()),
            )?;
            Ok(j2.len())
        }
        SchemaKind::Deep => {
            let c = color(s, "black");
            // Dates are replicated leaf children of orders.
            let dates = by_content(s, &p.date, "date", c)?;
            let orders = parents(s, dates, 0, c);
            let lines = last_col(children_named(s, orders, 0, c, "orderline"));
            Ok(lines.len())
        }
    }
}

fn tq15<D: DiskManager>(s: &mut StoredDb<D>, schema: SchemaKind, p: &Params) -> R<usize> {
    match schema {
        SchemaKind::Mct => {
            let bill = color(s, "bill");
            let countries = by_content(s, &p.country, "country", bill)?;
            let addrs = parents(s, countries, 0, bill);
            let orders = last_col(children_named(s, addrs, 0, bill, "order"));
            let lines = last_col(children_named(s, orders, 0, bill, "orderline"));
            Ok(lines.len())
        }
        SchemaKind::Shallow => {
            let c = color(s, "black");
            let countries = by_content(s, &p.country, "country", c)?;
            let addrs = parents(s, countries, 0, c);
            let orders = index_scan(s, c, "order")?;
            let j1 = value_join_eq(
                s, &orders, 0, &KeySpec::Attr("billAddrIdRef".into()),
                &addrs, 0, &KeySpec::Attr("id".into()),
            )?;
            let lines = index_scan(s, c, "orderline")?;
            let j2 = value_join_eq(
                s, &lines, 0, &KeySpec::Attr("orderIdRef".into()),
                &j1, 0, &KeySpec::Attr("id".into()),
            )?;
            Ok(j2.len())
        }
        SchemaKind::Deep => {
            let c = color(s, "black");
            // country element wraps a name leaf in deep.
            let names = by_content(s, &p.country, "name", c)?;
            let countries: Vec<Tuple> = parents(s, names, 0, c)
                .into_iter()
                .filter(|t| s.db.name_str(t[0].node) == Some("country"))
                .collect();
            let addrs = parents(s, countries, 0, c);
            let addrs = select_attr_eq(s, addrs, 0, "role", "billing")?;
            let orders = parents(s, addrs, 0, c);
            let lines = last_col(children_named(s, orders, 0, c, "orderline"));
            Ok(lines.len())
        }
    }
}

fn tq16<D: DiskManager>(s: &mut StoredDb<D>, schema: SchemaKind, p: &Params) -> R<usize> {
    match schema {
        SchemaKind::Mct => {
            let auth = color(s, "auth");
            let costs = index_scan(s, auth, "cost")?;
            let hot = select_cmp(s, costs, 0, CmpOp::Gt, &p.cost_very_hi.to_string())?;
            let items = parents(s, hot, 0, auth);
            // Group: one result row per qualifying item.
            let mut groups = 0;
            for t in items {
                let _lines = s.db.children(t[0].node, auth).count();
                groups += 1;
            }
            Ok(groups)
        }
        SchemaKind::Shallow => {
            let c = color(s, "black");
            let costs = index_scan(s, c, "cost")?;
            let hot = select_cmp(s, costs, 0, CmpOp::Gt, &p.cost_very_hi.to_string())?;
            let items = parents(s, hot, 0, c);
            let lines = index_scan(s, c, "orderline")?;
            let _joined = value_join_eq(
                s, &lines, 0, &KeySpec::Attr("itemIdRef".into()),
                &items, 0, &KeySpec::Attr("id".into()),
            )?;
            // One group per qualifying item (empty groups included).
            let mut groups = std::collections::HashSet::new();
            for t in &items {
                groups.insert(t[0].node);
            }
            Ok(groups.len())
        }
        SchemaKind::Deep => {
            let c = color(s, "black");
            // Duplicate intermediates: every qualifying item REPLICA.
            let costs = index_scan(s, c, "cost")?;
            let hot = select_cmp(s, costs, 0, CmpOp::Gt, &p.cost_very_hi.to_string())?;
            let replicas = parents(s, hot, 0, c);
            let replicas: Vec<Tuple> = replicas
                .into_iter()
                .filter(|t| s.db.name_str(t[0].node) == Some("item"))
                .collect();
            // Group by itemkey attribute (inherent dup-elim, §7.2's
            // note on TQ16: no D variant is possible).
            let mut groups = std::collections::HashSet::new();
            for t in &replicas {
                let attrs = s.fetch_attrs(t[0].node)?;
                if let Some((_, v)) = attrs.iter().find(|(n, _)| n == "itemkey") {
                    groups.insert(v.clone());
                }
            }
            Ok(groups.len())
        }
    }
}

// ---------------------------------------------------------------------------
// SIGMOD-Record reads
// ---------------------------------------------------------------------------

fn sq1<D: DiskManager>(s: &mut StoredDb<D>, schema: SchemaKind, p: &Params) -> R<usize> {
    let c = match schema {
        SchemaKind::Mct => color(s, "date"),
        _ => color(s, "black"),
    };
    let titles = by_content(s, &p.article_title, "title", c)?;
    Ok(parents(s, titles, 0, c).len())
}

fn sq2<D: DiskManager>(s: &mut StoredDb<D>, schema: SchemaKind, p: &Params) -> R<usize> {
    match schema {
        SchemaKind::Mct | SchemaKind::Deep => {
            let c = match schema {
                SchemaKind::Mct => color(s, "date"),
                _ => color(s, "black"),
            };
            let issues = index_scan(s, c, "issue")?;
            let issues = select_attr_eq(s, issues, 0, "volume", &p.volume.to_string())?;
            let issues = select_attr_eq(s, issues, 0, "number", &p.number.to_string())?;
            let articles = last_col(children_named(s, issues, 0, c, "article"));
            Ok(articles.len())
        }
        SchemaKind::Shallow => {
            let c = color(s, "black");
            let issues = index_scan(s, c, "issue")?;
            let issues = select_attr_eq(s, issues, 0, "volume", &p.volume.to_string())?;
            let issues = select_attr_eq(s, issues, 0, "number", &p.number.to_string())?;
            let articles = index_scan(s, c, "article")?;
            let j = value_join_eq(
                s, &articles, 0, &KeySpec::Attr("issueIdRef".into()),
                &issues, 0, &KeySpec::Attr("id".into()),
            )?;
            Ok(j.len())
        }
    }
}

fn sq3<D: DiskManager>(s: &mut StoredDb<D>, schema: SchemaKind, p: &Params) -> R<usize> {
    match schema {
        SchemaKind::Mct | SchemaKind::Deep => {
            let c = match schema {
                SchemaKind::Mct => color(s, "date"),
                _ => color(s, "black"),
            };
            let dates = index_scan(s, c, "date")?;
            let dates = select_contains(s, dates, 0, &p.year)?;
            let issues = last_col(children_named(s, dates, 0, c, "issue"));
            let articles = last_col(children_named(s, issues, 0, c, "article"));
            Ok(articles.len())
        }
        SchemaKind::Shallow => {
            let c = color(s, "black");
            let dates = index_scan(s, c, "date")?;
            let dates = select_contains(s, dates, 0, &p.year)?;
            let issues = last_col(children_named(s, dates, 0, c, "issue"));
            let articles = index_scan(s, c, "article")?;
            let j = value_join_eq(
                s, &articles, 0, &KeySpec::Attr("issueIdRef".into()),
                &issues, 0, &KeySpec::Attr("id".into()),
            )?;
            Ok(j.len())
        }
    }
}

fn sq4<D: DiskManager>(s: &mut StoredDb<D>, schema: SchemaKind, dedup: bool) -> R<usize> {
    let c = match schema {
        SchemaKind::Mct => color(s, "editor"),
        _ => color(s, "black"),
    };
    let topics = index_scan(s, c, "topic")?;
    if dedup {
        distinct_by_content(s, topics)
    } else {
        Ok(topics.len())
    }
}

fn sq5<D: DiskManager>(s: &mut StoredDb<D>, schema: SchemaKind, p: &Params) -> R<usize> {
    match schema {
        SchemaKind::Mct => {
            let c = color(s, "editor");
            let topics = by_content(s, &p.topic, "topic", c)?;
            let articles = last_col(children_named(s, topics, 0, c, "article"));
            Ok(articles.len())
        }
        SchemaKind::Shallow => {
            let c = color(s, "black");
            let topics = by_content(s, &p.topic, "topic", c)?;
            let articles = index_scan(s, c, "article")?;
            let j = value_join_eq(
                s, &articles, 0, &KeySpec::Attr("topicIdRef".into()),
                &topics, 0, &KeySpec::Attr("id".into()),
            )?;
            Ok(j.len())
        }
        SchemaKind::Deep => {
            let c = color(s, "black");
            // Replicated topics; one parent article per replica.
            let topics = by_content(s, &p.topic, "topic", c)?;
            let articles = parents(s, topics, 0, c);
            Ok(articles.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::{all_queries, QueryKind};
    use crate::sigmod::{SigmodConfig, SigmodData};
    use crate::tpcw::{TpcwConfig, TpcwData};
    use mct_core::MctDatabase;

    struct Fixture {
        p: Params,
        tpcw: [StoredDb; 3],
        sigmod: [StoredDb; 3],
    }

    fn build(db: MctDatabase) -> StoredDb {
        StoredDb::build(db, 64 * 1024 * 1024).unwrap()
    }

    fn fixture() -> Fixture {
        let t = TpcwData::generate(&TpcwConfig { scale: 0.03, seed: 11 });
        let g = SigmodData::generate(&SigmodConfig { scale: 0.05, seed: 11 });
        let p = Params::derive(&t, &g);
        Fixture {
            p,
            tpcw: [
                build(t.build_mct()),
                build(t.build_shallow()),
                build(t.build_deep()),
            ],
            sigmod: [
                build(g.build_mct()),
                build(g.build_shallow()),
                build(g.build_deep()),
            ],
        }
    }

    /// The central correctness property: every read query returns the
    /// SAME result cardinality on all three designs (with dup-elim on).
    #[test]
    fn all_reads_agree_across_schemas() {
        let mut f = fixture();
        for wq in all_queries(&f.p) {
            if wq.kind != QueryKind::Read {
                continue;
            }
            let dbs = match wq.dataset {
                crate::queries::Dataset::Tpcw => &mut f.tpcw,
                crate::queries::Dataset::Sigmod => &mut f.sigmod,
            };
            let mut counts = Vec::new();
            for (i, schema) in SchemaKind::ALL.iter().enumerate() {
                let out = run_read(&mut dbs[i], wq.id, *schema, &f.p, true).unwrap();
                counts.push(out.results);
            }
            assert!(
                counts[0] == counts[1] && counts[1] == counts[2],
                "{}: MCT={} shallow={} deep={}",
                wq.id,
                counts[0],
                counts[1],
                counts[2]
            );
        }
    }

    #[test]
    fn dup_variants_inflate_deep_only() {
        let mut f = fixture();
        for wq in all_queries(&f.p) {
            if wq.kind != QueryKind::Read || !wq.deep_dups {
                continue;
            }
            let dbs = match wq.dataset {
                crate::queries::Dataset::Tpcw => &mut f.tpcw,
                crate::queries::Dataset::Sigmod => &mut f.sigmod,
            };
            let with = run_read(&mut dbs[2], wq.id, SchemaKind::Deep, &f.p, true)
                .unwrap()
                .results;
            let without = run_read(&mut dbs[2], wq.id, SchemaKind::Deep, &f.p, false)
                .unwrap()
                .results;
            assert!(
                without >= with,
                "{}: D variant must not shrink ({without} < {with})",
                wq.id
            );
            if wq.id == "TQ7" || wq.id == "SQ4" {
                assert!(
                    without > with,
                    "{}: deep must actually produce duplicates",
                    wq.id
                );
            }
        }
    }

    #[test]
    fn updates_touch_more_elements_on_deep() {
        let mut f = fixture();
        for wq in all_queries(&f.p) {
            if wq.kind != QueryKind::Update || !wq.deep_dups {
                continue;
            }
            let dbs = match wq.dataset {
                crate::queries::Dataset::Tpcw => &mut f.tpcw,
                crate::queries::Dataset::Sigmod => &mut f.sigmod,
            };
            let mct = run_update(&mut dbs[0], &wq, SchemaKind::Mct).unwrap();
            let deep = run_update(&mut dbs[2], &wq, SchemaKind::Deep).unwrap();
            assert!(
                deep.updated > mct.updated,
                "{}: deep updated {} !> mct {} — the update anomaly",
                wq.id,
                deep.updated,
                mct.updated
            );
        }
    }

    #[test]
    fn nonzero_results_where_expected() {
        let mut f = fixture();
        for wq in all_queries(&f.p) {
            if wq.kind != QueryKind::Read {
                continue;
            }
            let dbs = match wq.dataset {
                crate::queries::Dataset::Tpcw => &mut f.tpcw,
                crate::queries::Dataset::Sigmod => &mut f.sigmod,
            };
            let out = run_read(&mut dbs[0], wq.id, SchemaKind::Mct, &f.p, true).unwrap();
            assert!(out.results > 0, "{} returned nothing", wq.id);
        }
    }
}
