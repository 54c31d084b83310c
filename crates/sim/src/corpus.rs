//! Self-contained repros and the regression corpus.
//!
//! A corpus entry is a pair of files sharing a stem:
//!
//! * `<name>.xml` — the document in naive-exchange form
//!   ([`emit_naive`]: one `<hierarchy>` per color, shared elements
//!   tagged `mctId`), which is self-describing — no serialization
//!   scheme needed to reload it;
//! * `<name>.mcx` — `#` comment lines recording provenance (seed,
//!   surface, divergence), then one `query:`/`update:` line per op.
//!
//! `mctfuzz` writes minimized repros here; `tests/fuzz_regression.rs`
//! replays every entry on all surfaces forever after.

use std::fs;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use mct_core::{ColorId, McNodeId, MctDatabase};
use mct_query::{parse_query, parse_update};
use mct_serialize::{emit_naive, reconstruct_naive};
use mct_xml::{parse, write_document, WriteOptions};

use crate::diff::{run_case, CaseOp, DiffConfig};

/// Repro stem for a given run seed and case index.
pub fn repro_name(seed: u64, case: u64) -> String {
    format!("fuzz-s{seed}-c{case}")
}

/// Write a `(db, ops)` repro into `dir`. Returns the two paths.
pub fn write_repro(
    dir: &Path,
    name: &str,
    db: &MctDatabase,
    ops: &[CaseOp],
    header: &str,
) -> io::Result<(PathBuf, PathBuf)> {
    fs::create_dir_all(dir)?;
    // Compact output: pretty-printing would introduce indentation text
    // nodes that `reconstruct_naive` would read back as content.
    let xml = write_document(&emit_naive(db), &WriteOptions::default());
    let xml_path = dir.join(format!("{name}.xml"));
    fs::write(&xml_path, xml)?;
    let mut mcx = String::new();
    for line in header.lines() {
        mcx.push_str("# ");
        mcx.push_str(line);
        mcx.push('\n');
    }
    for op in ops {
        mcx.push_str(op.kind());
        mcx.push_str(": ");
        mcx.push_str(&op.text());
        mcx.push('\n');
    }
    let mcx_path = dir.join(format!("{name}.mcx"));
    fs::write(&mcx_path, mcx)?;
    Ok((xml_path, mcx_path))
}

/// Parse the ops of a `.mcx` file.
pub fn load_ops(text: &str) -> Result<Vec<CaseOp>, String> {
    let mut ops = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let op = if let Some(q) = line.strip_prefix("query:") {
            CaseOp::Query(
                parse_query(q.trim()).map_err(|e| format!("line {}: {e}", lineno + 1))?,
            )
        } else if let Some(u) = line.strip_prefix("update:") {
            CaseOp::Update(
                parse_update(u.trim()).map_err(|e| format!("line {}: {e}", lineno + 1))?,
            )
        } else {
            return Err(format!(
                "line {}: expected `query:` or `update:` prefix",
                lineno + 1
            ));
        };
        ops.push(op);
    }
    Ok(ops)
}

/// Parse the document of a corpus `.xml` file.
pub fn load_doc(text: &str) -> Result<MctDatabase, String> {
    let doc = parse(text).map_err(|e| format!("xml parse: {e}"))?;
    reconstruct_naive(&doc).map_err(|e| format!("reconstruct: {e}"))
}

/// All `.mcx` entries of a corpus directory, sorted by name.
pub fn entries(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for e in fs::read_dir(dir)? {
        let p = e?.path();
        if p.extension().map(|x| x == "mcx").unwrap_or(false) {
            out.push(p);
        }
    }
    out.sort();
    Ok(out)
}

/// Replay one corpus entry (`.mcx` path; the `.xml` sits beside it)
/// under `cfg`. Errors cover I/O, parsing, divergence, and panics.
pub fn replay(mcx: &Path, cfg: &DiffConfig) -> Result<(), String> {
    let xml = mcx.with_extension("xml");
    let ops = load_ops(&fs::read_to_string(mcx).map_err(|e| format!("read {}: {e}", mcx.display()))?)?;
    let db = load_doc(&fs::read_to_string(&xml).map_err(|e| format!("read {}: {e}", xml.display()))?)?;
    match catch_unwind(AssertUnwindSafe(|| run_case(&db, &ops, cfg))) {
        Ok(Ok(())) => Ok(()),
        Ok(Err(d)) => Err(format!("divergence: {d}")),
        Err(_) => Err("panicked during replay".to_string()),
    }
}

// ---------------------------------------------------------------------------
// Hand-planted tricky cases
// ---------------------------------------------------------------------------

/// Known-tricky cases used to seed `tests/corpus/` when a fuzz run
/// finds no organic bugs (`mctfuzz --plant DIR` writes them through
/// the same corpus writer, so the files stay consistent with the
/// loader). Each targets a spot where surfaces have historically
/// diverged in systems of this shape.
pub fn planted() -> Vec<(String, MctDatabase, Vec<CaseOp>)> {
    let q = |s: &str| CaseOp::Query(parse_query(s).expect(s));
    let u = |s: &str| CaseOp::Update(parse_update(s).expect(s));
    let mut out = Vec::new();

    // 1. A node shared by two colors, reached by a reverse axis: the
    //    parent differs per color, so color bookkeeping must be exact.
    {
        let mut db = MctDatabase::new();
        let red = db.add_color("red");
        let green = db.add_color("green");
        let movies = db.new_element("movies", red);
        db.append_child(mct_core::McNodeId::DOCUMENT, movies, red);
        let awards = db.new_element("awards", green);
        db.append_child(mct_core::McNodeId::DOCUMENT, awards, green);
        let m = db.new_element("movie", red);
        db.set_content(m, "eve");
        db.append_child(movies, m, red);
        db.add_node_color(m, green);
        db.append_child(awards, m, green);
        out.push((
            "planted-shared-parent".to_string(),
            db,
            vec![
                q("document(\"d\")/{green}descendant::movie/{red}parent::*"),
                q("document(\"d\")/{red}descendant::movie/{green}parent::*"),
            ],
        ));
    }

    // 2. Interval renumbering: a multi-node fragment insert into a
    //    packed region, then a chain query over the renumbered codes.
    {
        let mut db = MctDatabase::new();
        let red = db.add_color("red");
        let root = db.new_element("order", red);
        db.append_child(mct_core::McNodeId::DOCUMENT, root, red);
        for i in 0..6 {
            let it = db.new_element("item", red);
            db.set_content(it, &i.to_string());
            db.append_child(root, it, red);
        }
        out.push((
            "planted-fragment-renumber".to_string(),
            db,
            vec![
                u("for $x in document(\"d\")/{red}child::order update $x { insert <frag><u>a</u><v/></frag> }"),
                q("document(\"d\")/{red}descendant::order/{red}child::item"),
                q("document(\"d\")/{red}descendant::u"),
            ],
        ));
    }

    // 3. NaN content under numeric comparison: `NaN` parses as f64, so
    //    it compares as a number and fails every operator but `!=`.
    {
        let mut db = MctDatabase::new();
        let red = db.add_color("red");
        let root = db.new_element("a", red);
        db.append_child(mct_core::McNodeId::DOCUMENT, root, red);
        let r1 = db.new_element("rating", red);
        db.set_content(r1, "NaN");
        db.append_child(root, r1, red);
        let r2 = db.new_element("rating", red);
        db.set_content(r2, "3.5");
        db.append_child(root, r2, red);
        out.push((
            "planted-nan-content".to_string(),
            db,
            vec![
                q("document(\"d\")/{red}child::a/{red}child::rating[{red}child::node() != 0]"),
                q("document(\"d\")/{red}descendant::rating[. > 0]"),
            ],
        ));
    }

    // 4. Positional predicate after a name test (order sensitivity).
    {
        let mut db = MctDatabase::new();
        let red = db.add_color("red");
        let root = db.new_element("b", red);
        db.append_child(mct_core::McNodeId::DOCUMENT, root, red);
        for w in ["x", "y", "z"] {
            let n = db.new_element("name", red);
            db.set_content(n, w);
            db.append_child(root, n, red);
        }
        out.push((
            "planted-positional".to_string(),
            db,
            vec![q("document(\"d\")/{red}child::b/{red}child::name[2]")],
        ));
    }

    // 5. A deep same-color chain plus a cross-color hop — the shape
    //    the holistic chain join and cross-tree operator both own.
    {
        let mut db = MctDatabase::new();
        let red = db.add_color("red");
        let green = db.add_color("green");
        let a = db.new_element("a", red);
        db.append_child(mct_core::McNodeId::DOCUMENT, a, red);
        let b = db.new_element("b", red);
        db.append_child(a, b, red);
        let c = db.new_element("item", red);
        db.append_child(b, c, red);
        let d = db.new_element("name", red);
        db.set_content(d, "alpha");
        db.append_child(c, d, red);
        let g = db.new_element("award", green);
        db.append_child(mct_core::McNodeId::DOCUMENT, g, green);
        db.add_node_color(c, green);
        db.append_child(g, c, green);
        out.push((
            "planted-deep-chain".to_string(),
            db,
            vec![
                q("document(\"d\")/{red}descendant::a/{red}descendant::b/{red}child::item/{red}child::name"),
                q("document(\"d\")/{green}child::award/{green}child::item/{red}child::name"),
            ],
        ));
    }

    // 6. Delete, then a count() predicate over what remains.
    {
        let mut db = MctDatabase::new();
        let red = db.add_color("red");
        let root = db.new_element("movies", red);
        db.append_child(mct_core::McNodeId::DOCUMENT, root, red);
        for w in ["eve", "ana", "eve"] {
            let m = db.new_element("movie", red);
            db.set_content(m, w);
            db.append_child(root, m, red);
        }
        out.push((
            "planted-delete-then-count".to_string(),
            db,
            vec![
                u("for $x in document(\"d\")/{red}descendant::movie where $x = \"eve\" update $x { delete $x }"),
                q("document(\"d\")/{red}child::movies[count({red}child::movie) = 1]/{red}child::movie"),
            ],
        ));
    }

    // 7. Value predicates on elements without content of their own:
    //    their value is their string-value, on the self axis, on a
    //    child, and through the content-index entry point alike.
    {
        let mut db = MctDatabase::new();
        let red = db.add_color("red");
        let mut parent = mct_core::McNodeId::DOCUMENT;
        for tag in ["root", "a", "b", "c"] {
            let n = db.new_element(tag, red);
            db.append_child(parent, n, red);
            parent = n;
        }
        db.set_content(parent, "7");
        out.push((
            "planted-contentless-value".to_string(),
            db,
            vec![
                q("document(\"d\")/{red}descendant::a[. > 5]"),
                q("document(\"d\")/{red}descendant::a[. = \"7\"]"),
                q("document(\"d\")/{red}descendant::a[contains(., \"7\")]"),
                q("document(\"d\")/{red}descendant::a[{red}child::b > 5]"),
                q("document(\"d\")/{red}descendant::a[{red}child::b = \"7\"]"),
                q("document(\"d\")/{red}child::root/{red}child::a[{red}child::b = \"7\"]"),
            ],
        ));
    }

    // 8. A predicate step in another color: `{green}child::b` under a
    //    red step navigates the green tree, on the filter path and
    //    where the content-index entry (which walks the chain's color)
    //    must not stand in for it.
    {
        let mut db = MctDatabase::new();
        let red = db.add_color("red");
        let green = db.add_color("green");
        let root = db.new_element("root", red);
        db.append_child(McNodeId::DOCUMENT, root, red);
        let a = db.new_element("a", red);
        db.append_child(root, a, red);
        db.add_node_color(a, green);
        db.append_child(McNodeId::DOCUMENT, a, green);
        let b = db.new_element("b", red);
        db.set_content(b, "y");
        db.append_child(a, b, red);
        for v in ["1", "x"] {
            let b = db.new_element("b", green);
            db.set_content(b, v);
            db.append_child(a, b, green);
        }
        out.push((
            "planted-predicate-color".to_string(),
            db,
            vec![
                q("document(\"d\")/{red}descendant::a[{green}child::b = \"1\"]"),
                q("document(\"d\")/{red}descendant::a[{green}child::b = \"x\"]"),
                q("document(\"d\")/{red}child::root/{red}child::a[{green}child::b = \"x\"]"),
                q("document(\"d\")/{red}descendant::a[contains({green}child::b, \"x\")]"),
                q("document(\"d\")/{red}descendant::a[{red}child::b = \"y\"]"),
            ],
        ));
    }

    // 9–12. Comparisons decide as the interpreter does: numerically
    //    when both sides are numbers, else as strings — through the
    //    content-index rewrite, the child filter, `!=` on NaN, `>` on
    //    a word, and an attribute.
    let child_b = |db: &mut MctDatabase, a, red, v: &str| {
        let b = db.new_element("b", red);
        db.set_content(b, v);
        db.append_child(a, b, red);
    };
    out.push((
        "planted-numeric-equality".to_string(),
        red_root_of_as(&["7.0", " 07", "seven"], child_b),
        vec![
            q("document(\"d\")/{red}descendant::a[{red}child::b = \"7\"]"),
            q("document(\"d\")/{red}child::root/{red}child::a[{red}child::b = \"7\"]"),
        ],
    ));
    out.push((
        "planted-nan-not-equal".to_string(),
        red_root_of_as(&["NaN", "3"], child_b),
        vec![q("document(\"d\")/{red}descendant::a[{red}child::b != 3]")],
    ));
    out.push((
        "planted-word-greater".to_string(),
        red_root_of_as(&["apple", "3"], child_b),
        vec![q("document(\"d\")/{red}descendant::a[{red}child::b > 5]")],
    ));
    out.push((
        "planted-attr-numeric".to_string(),
        red_root_of_as(&["7.0", "8"], |db, a, _, v| db.set_attr(a, "k", v)),
        vec![q("document(\"d\")/{red}descendant::a[@k = \"7\"]")],
    ));

    // 13. Same-tag elements nested in each other: a chain scans each
    //    list inside its predecessor's outermost regions, so a region
    //    nested in another is dropped and `child` must still find the
    //    inner element's children. One predicate filters a middle list.
    {
        let mut db = MctDatabase::new();
        let red = db.add_color("red");
        let root = db.new_element("root", red);
        db.append_child(McNodeId::DOCUMENT, root, red);
        let el = |db: &mut MctDatabase, parent, tag: &str, text: Option<&str>| {
            let n = db.new_element(tag, red);
            if let Some(t) = text {
                db.set_content(n, t);
            }
            db.append_child(parent, n, red);
            n
        };
        let outer = el(&mut db, root, "a", None);
        db.set_attr(outer, "x", "1");
        let inner = el(&mut db, outer, "a", None);
        el(&mut db, inner, "b", Some("1"));
        el(&mut db, inner, "c", None);
        el(&mut db, outer, "b", Some("2"));
        let deep = el(&mut db, outer, "a", None);
        let deepest = el(&mut db, deep, "a", None);
        el(&mut db, deepest, "b", Some("3"));
        let last = el(&mut db, root, "a", None);
        el(&mut db, last, "b", Some("4"));
        out.push((
            "planted-nested-regions".to_string(),
            db,
            vec![
                q("document(\"d\")/{red}descendant::a/{red}child::b"),
                q("document(\"d\")/{red}descendant::a/{red}child::a/{red}child::b"),
                q("document(\"d\")/{red}descendant::a/{red}descendant::a/{red}child::b"),
                q("document(\"d\")/{red}descendant::root/{red}descendant::a[{red}child::b = \"1\"]/{red}child::c"),
                q("document(\"d\")/{red}descendant::a[@x = \"1\"]/{red}descendant::a/{red}child::b"),
            ],
        ));
    }

    // 14. Comparisons of a child or a variable with a literal, which
    //    the interpreter tests node by node: a content-less child
    //    compares by its string-value, numeric-looking content with a
    //    string literal as a number, and a `for` variable may hold a
    //    constructed element, which has content but no color.
    {
        let mut db = MctDatabase::new();
        let red = db.add_color("red");
        let root = db.new_element("root", red);
        db.append_child(McNodeId::DOCUMENT, root, red);
        let el = |db: &mut MctDatabase, parent, tag: &str, text: Option<&str>| {
            let n = db.new_element(tag, red);
            if let Some(t) = text {
                db.set_content(n, t);
            }
            db.append_child(parent, n, red);
            n
        };
        let a = el(&mut db, root, "a", None);
        let b = el(&mut db, a, "b", None);
        el(&mut db, b, "c", Some("x"));
        el(&mut db, b, "d", Some("y"));
        for v in ["07", "7x"] {
            let a = el(&mut db, root, "a", None);
            el(&mut db, a, "b", Some(v));
        }
        let each_a = "for $a in document(\"d\")/{red}descendant::a where $a/{red}child::b";
        out.push((
            "planted-literal-compare".to_string(),
            db,
            vec![
                q(&format!("{each_a} = \"xy\" return $a")),
                q(&format!("{each_a} = \"7\" return $a")),
                q(&format!("{each_a} != \"7\" return $a")),
                q(&format!("{each_a} > \"6\" return $a")),
                q("document(\"d\")/{red}descendant::a[{red}child::b = \"07.0\"]"),
                q("for $x in (<b>07</b>, <b>x</b>) where $x = \"7\" return $x"),
                q("for $x in <a><b>xy</b></a> where $x/{red}child::b = \"xy\" return \"hit\""),
            ],
        ));
    }

    out
}

/// `root` with one `a` child per value, all red; `set` gives each `a`
/// its value.
fn red_root_of_as(
    values: &[&str],
    set: impl Fn(&mut MctDatabase, McNodeId, ColorId, &str),
) -> MctDatabase {
    let mut db = MctDatabase::new();
    let red = db.add_color("red");
    let root = db.new_element("root", red);
    db.append_child(McNodeId::DOCUMENT, root, red);
    for v in values {
        let a = db.new_element("a", red);
        db.append_child(root, a, red);
        set(&mut db, a, red, v);
    }
    db
}
