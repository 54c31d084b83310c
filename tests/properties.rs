//! Randomized property tests over the core invariants.
//!
//! Cases are generated with the in-tree seeded [`XorShiftRng`] rather
//! than an external property-testing crate, so the suite runs fully
//! offline and every case is reproducible from its printed seed.
//!
//! Every assertion goes through [`fail_with_seed!`], which reports the
//! **absolute** case seed — the exact value passed to
//! `XorShiftRng::seed_from_u64` — not the loop index. (Suites offset
//! their seed ranges so no two suites share a case seed; a failure
//! message is reproducible verbatim.)

use colorful_xml::core::{AttachError, ColorId, McNodeId, MctDatabase, StoredDb};
use colorful_xml::query::ops::{naive_structural_join, structural_join, Rel, Tuple};
use colorful_xml::query::plan::plan_path;
use colorful_xml::query::{eval, parse_query, EvalContext, Expr, Item};
use colorful_xml::serialize::{emit_exchange, reconstruct, SerializationScheme};
use colorful_xml::storage::{
    BTree, BufferPool, DiskManager, IntervalCode, MemDisk, PageId, ReplRecord, TailCursor, Wal,
    PAGE_SIZE,
};
use colorful_xml::xml::{parse, write_document, Document, NodeId, WriteOptions};
use mct_core::StructRef;
use mct_query::execute_update_with;
use mct_sim::{gen_doc, gen_update, DocSpec};
use mct_workloads::rng::XorShiftRng;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// One failure-reporting path for every generator in this suite.
///
/// * `fail_with_seed!(eq seed, a, b)` — assert `a == b`, printing both
///   sides on failure;
/// * `fail_with_seed!(ok seed, cond)` — assert a condition;
/// * `fail_with_seed!(seed, "msg {..}")` — unconditional failure.
///
/// Every form leads with `case seed N`, where `N` is the absolute seed
/// that reproduces the case via `XorShiftRng::seed_from_u64(N)`.
macro_rules! fail_with_seed {
    (eq $seed:expr, $a:expr, $b:expr $(, $($ctx:tt)+)?) => {{
        let (left, right) = (&$a, &$b);
        if left != right {
            panic!(
                "case seed {}: {} != {}\n  left: {:?}\n right: {:?}{}",
                $seed,
                stringify!($a),
                stringify!($b),
                left,
                right,
                fail_with_seed!(@ctx $($($ctx)+)?),
            );
        }
    }};
    (ok $seed:expr, $cond:expr $(, $($ctx:tt)+)?) => {{
        if !$cond {
            panic!(
                "case seed {}: assertion failed: {}{}",
                $seed,
                stringify!($cond),
                fail_with_seed!(@ctx $($($ctx)+)?),
            );
        }
    }};
    ($seed:expr, $($msg:tt)+) => {
        panic!("case seed {}: {}", $seed, format_args!($($msg)+))
    };
    (@ctx) => { String::new() };
    (@ctx $($ctx:tt)+) => { format!("\n   ctx: {}", format_args!($($ctx)+)) };
}

// ---------------------------------------------------------------------------
// XML parse/write round trip
// ---------------------------------------------------------------------------

/// Random data-centric XML document: up to 4 levels, fan-out ≤ 3,
/// names from a small alphabet, text drawn from characters that need
/// escaping as often as not.
fn gen_tree(rng: &mut XorShiftRng) -> Document {
    const NAMES: [&str; 6] = ["a", "b", "movie", "name", "item", "order"];
    const TEXT_CHARS: &[u8] = b"abcXYZ019 .&<>'\"-";
    fn gen_text(rng: &mut XorShiftRng) -> String {
        let len = rng.gen_range(0..12usize);
        (0..len)
            .map(|_| TEXT_CHARS[rng.gen_range(0..TEXT_CHARS.len())] as char)
            .collect()
    }
    fn build(doc: &mut Document, parent: NodeId, depth: u32, rng: &mut XorShiftRng) {
        let e = doc.create_element(NAMES[rng.gen_range(0..NAMES.len())]);
        doc.append_child(parent, e);
        let text = gen_text(rng);
        if !text.trim().is_empty() {
            let t = doc.create_text(&text);
            doc.append_child(e, t);
        }
        if depth > 0 {
            for _ in 0..rng.gen_range(0..4u32) {
                build(doc, e, depth - 1, rng);
            }
        }
    }
    let mut doc = Document::new();
    build(&mut doc, NodeId::DOCUMENT, 3, rng);
    doc
}

/// write(parse(write(d))) == write(d): serialization is a fixpoint
/// after one round.
#[test]
fn xml_write_parse_roundtrip() {
    for seed in 0..64u64 {
        let mut rng = XorShiftRng::seed_from_u64(seed);
        let doc = gen_tree(&mut rng);
        let once = write_document(&doc, &WriteOptions::default());
        let re = parse(&once).unwrap_or_else(|e| fail_with_seed!(seed, "reparse failed: {e:?}"));
        let twice = write_document(&re, &WriteOptions::default());
        fail_with_seed!(eq seed, once, twice);
    }
}

/// Pretty-printed output parses back to a structurally valid document
/// (modulo the whitespace the pretty printer adds between elements).
#[test]
fn xml_pretty_print_reparses() {
    for seed in 0..64u64 {
        let mut rng = XorShiftRng::seed_from_u64(seed);
        let doc = gen_tree(&mut rng);
        let pretty = write_document(&doc, &WriteOptions::pretty());
        let re = parse(&pretty).unwrap_or_else(|e| fail_with_seed!(seed, "{e:?}"));
        re.check_invariants();
    }
}

// ---------------------------------------------------------------------------
// B+-tree vs std::BTreeMap model
// ---------------------------------------------------------------------------

/// Half the keys are short, half 200–600 bytes, so a few thousand
/// entries make a tree of three levels.
fn gen_btree_key(rng: &mut XorShiftRng) -> Vec<u8> {
    let len = if rng.gen_range(0..2u8) == 0 {
        rng.gen_range(1..16usize)
    } else {
        rng.gen_range(200..600usize)
    };
    (0..len).map(|_| rng.gen_range(0..=255u32) as u8).collect()
}

/// Interleaved insert / delete / get / range scans against a
/// `BTreeMap`, on trees grown past two levels so that internal-node
/// reads are compared too. Even cases start from a bulk load of a
/// random sorted set, odd cases from an empty tree.
#[test]
fn btree_matches_model() {
    use std::ops::Bound;
    for case in 0..32u64 {
        let seed = 1000 + case;
        let mut rng = XorShiftRng::seed_from_u64(seed);
        let pool = BufferPool::new(MemDisk::new(), 256 * PAGE_SIZE);
        let mut model = std::collections::BTreeMap::new();
        let mut tree = if case % 2 == 0 {
            for _ in 0..rng.gen_range(1000..3000usize) {
                model.insert(gen_btree_key(&mut rng), rng.next_u64());
            }
            let sorted: Vec<(Vec<u8>, u64)> = model.iter().map(|(k, v)| (k.clone(), *v)).collect();
            BTree::bulk_load(&pool, &sorted).unwrap()
        } else {
            BTree::create(&pool).unwrap()
        };
        let mut seen: Vec<Vec<u8>> = model.keys().cloned().collect();
        // Half the keys an operation names are ones seen before, so
        // deletes and gets hit as often as they miss.
        let pick = |rng: &mut XorShiftRng, seen: &[Vec<u8>]| {
            if !seen.is_empty() && rng.gen_range(0..2u8) == 0 {
                seen[rng.gen_range(0..seen.len())].clone()
            } else {
                gen_btree_key(rng)
            }
        };
        for _ in 0..6000 {
            let key = pick(&mut rng, &seen);
            match rng.gen_range(0..20u8) {
                0..=9 => {
                    let val = rng.next_u64();
                    let a = tree.insert(&pool, &key, val).unwrap();
                    let b = model.insert(key.clone(), val);
                    fail_with_seed!(eq seed, a, b, "insert {key:?}");
                    seen.push(key);
                }
                10..=13 => {
                    let a = tree.delete(&pool, &key).unwrap();
                    let b = model.remove(&key);
                    fail_with_seed!(eq seed, a, b, "delete {key:?}");
                }
                14..=18 => {
                    let a = tree.get(&pool, &key).unwrap();
                    let b = model.get(&key).copied();
                    fail_with_seed!(eq seed, a, b, "get {key:?}");
                }
                _ => {
                    let other = pick(&mut rng, &seen);
                    let (lo, hi) = if key <= other {
                        (key, other)
                    } else {
                        (other, key)
                    };
                    let hi = (rng.gen_range(0..4u8) != 0).then_some(hi);
                    let upper = hi.as_deref().map_or(Bound::Unbounded, Bound::Excluded);
                    let scanned = tree.range_vec(&pool, &lo, hi.as_deref()).unwrap();
                    let expected: Vec<(Vec<u8>, u64)> = model
                        .range::<[u8], _>((Bound::Included(lo.as_slice()), upper))
                        .map(|(k, v)| (k.clone(), *v))
                        .collect();
                    fail_with_seed!(eq seed, scanned, expected, "scan [{lo:?}, {hi:?})");
                }
            }
        }
        let height = tree.height(&pool).unwrap();
        fail_with_seed!(ok seed, height >= 3, "height {height}");
        fail_with_seed!(eq seed, tree.len(), model.len() as u64);
        // Full scans agree, in order.
        let scanned = tree.range_vec(&pool, &[], None).unwrap();
        let expected: Vec<(Vec<u8>, u64)> = model.into_iter().collect();
        fail_with_seed!(eq seed, scanned, expected, "full scan");
    }
}

// ---------------------------------------------------------------------------
// Structural join vs naive oracle over random forests
// ---------------------------------------------------------------------------

/// Random forest encoded as a parent vector; node i's parent is in
/// 0..i (or none). Produces consistent interval codes.
fn gen_forest(rng: &mut XorShiftRng) -> Vec<IntervalCode> {
    let n = rng.gen_range(1..60usize);
    let mut parent = vec![usize::MAX; n];
    for (i, p) in parent.iter_mut().enumerate().skip(1) {
        // ~30% roots, otherwise parent among earlier nodes.
        if rng.gen_range(0..10u32) < 3 {
            *p = usize::MAX;
        } else {
            *p = rng.gen_range(0..i);
        }
    }
    // Assign pre-order codes: children grouped under parents.
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut roots = Vec::new();
    for (i, &p) in parent.iter().enumerate() {
        if p == usize::MAX {
            roots.push(i);
        } else {
            children[p].push(i);
        }
    }
    let mut codes = vec![
        IntervalCode {
            start: 0,
            end: 0,
            level: 0
        };
        n
    ];
    let mut counter = 0u32;
    fn assign(
        node: usize,
        level: u16,
        children: &[Vec<usize>],
        codes: &mut [IntervalCode],
        counter: &mut u32,
    ) {
        *counter += 1;
        let start = *counter;
        for &c in &children[node] {
            assign(c, level + 1, children, codes, counter);
        }
        *counter += 1;
        codes[node] = IntervalCode {
            start,
            end: *counter,
            level,
        };
    }
    for &r in &roots {
        assign(r, 1, &children, &mut codes, &mut counter);
    }
    codes
}

#[test]
fn structural_join_equals_oracle() {
    for case in 0..64u64 {
        let seed = 2000 + case;
        let mut rng = XorShiftRng::seed_from_u64(seed);
        let codes = gen_forest(&mut rng);
        // Partition nodes into "ancestor side" and "descendant side".
        let mut anc: Vec<Tuple> = Vec::new();
        let mut desc: Vec<Tuple> = Vec::new();
        for (i, &code) in codes.iter().enumerate() {
            let r = StructRef {
                node: McNodeId(i as u32),
                code,
            };
            if rng.gen_range(0..2u32) == 0 {
                anc.push(vec![r]);
            } else {
                desc.push(vec![r]);
            }
        }
        anc.sort_by_key(|t| t[0].code.start);
        desc.sort_by_key(|t| t[0].code.start);
        for rel in [Rel::Child, Rel::Descendant] {
            let fast = structural_join(&anc, 0, &desc, 0, rel);
            let slow = naive_structural_join(&anc, 0, &desc, 0, rel);
            let norm = |v: Vec<Tuple>| {
                let mut pairs: Vec<(u32, u32)> =
                    v.iter().map(|t| (t[0].node.0, t[1].node.0)).collect();
                pairs.sort_unstable();
                pairs
            };
            fail_with_seed!(eq seed, norm(fast), norm(slow), "rel {rel:?}");
        }
    }
}

// ---------------------------------------------------------------------------
// MCT exchange round trip over random multi-colored databases
// ---------------------------------------------------------------------------

/// A random 2-color MCT database: red items under a red root, a green
/// root adopting a random subset of them (plus green-only extras).
fn gen_mct(rng: &mut XorShiftRng) -> MctDatabase {
    let mut db = MctDatabase::new();
    let red = db.add_color("red");
    let green = db.add_color("green");
    let rroot = db.new_element("red-root", red);
    db.append_child(McNodeId::DOCUMENT, rroot, red);
    let groot = db.new_element("green-root", green);
    db.append_child(McNodeId::DOCUMENT, groot, green);
    let n_items = rng.gen_range(1..25usize);
    for i in 0..n_items {
        let e = db.new_element("item", red);
        if rng.gen_range(0..2u32) == 0 {
            let len = rng.gen_range(1..=8usize);
            let content: String = (0..len)
                .map(|_| (b'a' + rng.gen_range(0..26u32) as u8) as char)
                .collect();
            db.set_content(e, &content);
        }
        db.set_attr(e, "k", &i.to_string());
        db.append_child(rroot, e, red);
        if rng.gen_range(0..2u32) == 0 {
            db.add_node_color(e, green);
            db.append_child(groot, e, green);
        }
    }
    db
}

#[test]
fn exchange_roundtrip_preserves_all_trees() {
    for case in 0..48u64 {
        let seed = 3000 + case;
        let mut rng = XorShiftRng::seed_from_u64(seed);
        let db = gen_mct(&mut rng);
        let scheme = SerializationScheme::default();
        let doc = emit_exchange(&db, &scheme);
        let back =
            reconstruct(&doc).unwrap_or_else(|e| fail_with_seed!(seed, "reconstruct: {e:?}"));
        back.check_invariants();
        fail_with_seed!(eq seed, db.counts(), back.counts());
        fail_with_seed!(eq seed, db.structural_count(), back.structural_count());
        for (c, name) in db.palette.iter() {
            let c2 = back.color(name).unwrap();
            let a = write_document(
                &colorful_xml::core::export_color(&db, c),
                &WriteOptions::default(),
            );
            let b = write_document(
                &colorful_xml::core::export_color(&back, c2),
                &WriteOptions::default(),
            );
            fail_with_seed!(eq seed, a, b, "color {name}");
        }
    }
}

/// Annotation invariants hold for every generated database.
#[test]
fn interval_codes_consistent() {
    for case in 0..48u64 {
        let seed = 4000 + case;
        let mut rng = XorShiftRng::seed_from_u64(seed);
        let mut db = gen_mct(&mut rng);
        for i in 0..db.palette.len() {
            db.annotate(ColorId(i as u8));
        }
        db.check_invariants();
    }
}

// ---------------------------------------------------------------------------
// Planner vs interpreter over random multi-colored databases
// ---------------------------------------------------------------------------

/// For every generated database and a panel of colored path shapes,
/// the heuristic planner's pipeline and the interpreter agree.
#[test]
fn planner_equals_interpreter() {
    for case in 0..24u64 {
        let seed = 5000 + case;
        let mut rng = XorShiftRng::seed_from_u64(seed);
        let db = gen_mct(&mut rng);
        let mut stored = StoredDb::build(db, 8 * 1024 * 1024).unwrap();
        let queries = [
            r#"document("d")/{red}descendant::item"#,
            r#"document("d")/{red}descendant::red-root/{red}child::item"#,
            r#"document("d")/{red}child::red-root/{red}child::item"#,
            r#"document("d")/{green}descendant::item"#,
            r#"document("d")/{red}descendant::item/{green}parent::green-root"#,
        ];
        for q in queries {
            let Expr::Path(p) = parse_query(q).unwrap() else {
                unreachable!()
            };
            let plan = plan_path(&stored, &p, true).unwrap();
            let via_plan: std::collections::BTreeSet<u32> = plan
                .execute_shared(&stored, 1, None)
                .unwrap()
                .iter()
                .map(|t| t[0].node.0)
                .collect();
            let mut ctx = EvalContext::new(&mut stored);
            let e = parse_query(q).unwrap();
            let via_interp: std::collections::BTreeSet<u32> = eval(&mut ctx, &e)
                .unwrap()
                .iter()
                .filter_map(|i| match i {
                    Item::Node(n, _) => Some(n.0),
                    _ => None,
                })
                .collect();
            fail_with_seed!(eq seed, via_plan, via_interp, "query {q}");
        }
    }
}

// ---------------------------------------------------------------------------
// Named descendant steps: the tag index against the twin
// ---------------------------------------------------------------------------

/// The twin walk a named descendant step made before it read the tag
/// index: `db.descendants` of each of `nodes`, kept by name, sorted by
/// start in `c` and deduplicated.
fn twin_descendants(s: &StoredDb, c: ColorId, tag: &str, nodes: &[McNodeId]) -> Vec<McNodeId> {
    let mut out: Vec<McNodeId> = nodes
        .iter()
        .flat_map(|&n| s.db.descendants(n, c))
        .filter(|&d| s.db.name_str(d) == Some(tag))
        .collect();
    out.sort_by_key(|&d| s.db.code(d, c).unwrap().start);
    out.dedup();
    out
}

/// `StoredDb::descendants_named` — the read of the interpreter's named
/// `descendant` steps and of the planner's chains — equals the twin
/// walk, which wildcard steps keep. Stores come from mct-sim, then
/// random `attach` (of elements named like existing ones, so same-tag
/// elements nest), `detach` and `createColor` steps. Inputs are random
/// node sets holding the document node, nested same-tag elements and
/// nodes outside the step's color, called directly and, with built and
/// atomic items beside them, through a query.
#[test]
fn indexed_descendant_step_equals_the_twin_walk() {
    const TAGS: [&str; 4] = ["a", "b", "item", "name"];
    for case in 0..40u64 {
        let seed = 11_000 + case;
        let mut rng = XorShiftRng::seed_from_u64(seed);
        let doc = gen_doc(&mut rng);
        let mut s = StoredDb::build(doc.build().0, 8 << 20).unwrap();
        for step in 0..8 {
            let c = ColorId(rng.gen_range(0..s.db.palette.len()) as u8);
            match rng.gen_range(0..4u8) {
                0 | 1 => {
                    if let Some(parent) = pick(&s, &mut rng, c) {
                        let e = s.new_element(TAGS[rng.gen_range(0..TAGS.len())], None, &[]);
                        s.attach(parent, &[e], &HashMap::new(), c).unwrap();
                    }
                }
                2 => {
                    if let Some(victim) = pick(&s, &mut rng, c) {
                        s.detach(victim, c).unwrap();
                    }
                }
                _ => create_color(&mut s, &mut rng, &doc, step),
            }
        }
        fail_with_seed!(ok seed, s.check().unwrap().is_ok());
        for ci in 0..s.db.palette.len() {
            let c = ColorId(ci as u8);
            let color = s.db.palette.name(c).to_string();
            for tag in TAGS {
                let Some(sym) = s.db.names.get(tag) else {
                    continue;
                };
                for _ in 0..4 {
                    // Any nodes, in any colors; often every `tag` of
                    // `c`, which nest; sometimes the document node.
                    let mut nodes: Vec<McNodeId> = (0..rng.gen_range(0..6usize))
                        .map(|_| McNodeId(rng.gen_range(0..s.db.len()) as u32))
                        .collect();
                    if rng.gen_bool(0.5) {
                        let all = s.db.descendants(McNodeId::DOCUMENT, c);
                        nodes.extend(all.filter(|&n| s.db.name_str(n) == Some(tag)));
                    }
                    if rng.gen_bool(0.3) {
                        nodes.push(McNodeId::DOCUMENT);
                    }
                    let got: Vec<McNodeId> = s
                        .descendants_named(c, sym, nodes.iter().copied())
                        .unwrap()
                        .iter()
                        .map(|r| r.node)
                        .collect();
                    let want = twin_descendants(&s, c, tag, &nodes);
                    fail_with_seed!(eq seed, got, want, "{{{color}}}descendant::{tag} from {nodes:?}");
                }
                // Through the interpreter, from a variable that holds
                // stored nodes of another step, built and atomic items.
                let other = ColorId(rng.gen_range(0..s.db.palette.len()) as u8);
                let other = s.db.palette.name(other);
                let from = format!(
                    r#"(document("d")/{{{other}}}descendant::{}, <{tag}><{tag}/></{tag}>, "x", 1)"#,
                    TAGS[rng.gen_range(0..TAGS.len())]
                );
                let run = |s: &mut StoredDb, ret: &str| {
                    let q = format!("let $x := {from} return {ret}");
                    eval(&mut EvalContext::new(s), &parse_query(&q).unwrap()).unwrap()
                };
                let nodes: Vec<McNodeId> = run(&mut s, "$x")
                    .iter()
                    .filter_map(|i| match i {
                        Item::Node(n, _) => Some(*n),
                        _ => None,
                    })
                    .collect();
                let got = run(&mut s, &format!("$x/{{{color}}}descendant::{tag}"));
                let want: Vec<Item> = twin_descendants(&s, c, tag, &nodes)
                    .into_iter()
                    .map(|n| Item::Node(n, Some(c)))
                    .collect();
                fail_with_seed!(eq seed, got, want, "$x/{{{color}}}descendant::{tag}, $x := {from}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Catalog records: the live store, recovery and a replica agree byte for byte
// ---------------------------------------------------------------------------

/// A MemDisk the test can copy while a store owns it.
#[derive(Clone, Default)]
struct SharedDisk(Arc<Mutex<MemDisk>>);

impl SharedDisk {
    fn copy(&self) -> MemDisk {
        let mut d = self.0.lock().unwrap();
        let mut out = MemDisk::new();
        let mut buf = [0u8; PAGE_SIZE];
        for p in 0..d.num_pages() {
            d.read(PageId(p), &mut buf).unwrap();
            out.allocate().unwrap();
            out.write(PageId(p), &buf).unwrap();
        }
        out
    }
}

impl DiskManager for SharedDisk {
    fn allocate(&mut self) -> colorful_xml::storage::Result<PageId> {
        self.0.lock().unwrap().allocate()
    }
    fn read(&mut self, id: PageId, buf: &mut [u8]) -> colorful_xml::storage::Result<()> {
        self.0.lock().unwrap().read(id, buf)
    }
    fn write(&mut self, id: PageId, buf: &[u8]) -> colorful_xml::storage::Result<()> {
        self.0.lock().unwrap().write(id, buf)
    }
    fn num_pages(&self) -> u32 {
        self.0.lock().unwrap().num_pages()
    }
    fn truncate(&mut self, num_pages: u32) -> colorful_xml::storage::Result<()> {
        self.0.lock().unwrap().truncate(num_pages)
    }
}

const CATALOG_POOL: usize = 1 << 20;

/// Where two catalogs first differ, or `None` when they are equal.
fn first_difference(a: &[u8], b: &[u8]) -> Option<String> {
    (a != b).then(|| {
        let at = a.iter().zip(b).take_while(|(x, y)| x == y).count();
        format!("{} vs {} bytes, first difference at byte {at}", a.len(), b.len())
    })
}

/// Ship every committed record past `applied` to `replica` the way the
/// replication stream does: images wait for their commit, whose
/// catalog base is checked before any of them is installed.
fn ship(
    live: &StoredDb<SharedDisk>,
    replica: &mut StoredDb<MemDisk>,
    cursor: &mut TailCursor,
    applied: &mut u64,
) {
    let (records, _) = live
        .pool
        .with_wal(|w| w.read_committed_after(cursor, *applied, u64::MAX))
        .unwrap();
    let mut pending = Vec::new();
    for rec in records {
        match rec {
            ReplRecord::Image { page, image, .. } => pending.push((page, image)),
            ReplRecord::Commit {
                lsn,
                num_pages,
                catalog,
                ..
            } => {
                replica.check_catalog_base(&catalog).unwrap();
                for (page, image) in pending.drain(..) {
                    replica.apply_repl_image(page, &image).unwrap();
                }
                replica.apply_repl_commit(num_pages, &catalog).unwrap();
                *applied = lsn;
            }
        }
    }
}

/// `createColor` over the nodes of a random path, wrapped in a fresh
/// element (new nodes, new names, a new colored tree).
fn create_color<D: DiskManager>(
    s: &mut StoredDb<D>,
    rng: &mut XorShiftRng,
    doc: &DocSpec,
    k: usize,
) {
    let path = Expr::Path(mct_sim::gen::gen_abs_path(rng, doc, 2));
    let q = format!("createColor(\"k{k}\", <grp{k}> {{ {path} }} </grp{k}>)");
    let _ = eval(&mut EvalContext::new(s), &parse_query(&q).unwrap());
}

/// A random element carrying `c`, other than the document node.
fn pick<D: DiskManager>(s: &StoredDb<D>, rng: &mut XorShiftRng, c: ColorId) -> Option<McNodeId> {
    let members: Vec<McNodeId> = s.db.descendants(McNodeId::DOCUMENT, c).collect();
    (!members.is_empty()).then(|| members[rng.gen_range(0..members.len())])
}

/// Everything an update does, through the store's mutators, inside an
/// open transaction: a value replaced, an element
/// inserted (renumbering when its gap is full), an element deleted,
/// and a color created. Errors just end the batch early.
fn mutate_in_txn(s: &mut StoredDb<SharedDisk>, rng: &mut XorShiftRng, doc: &DocSpec, k: usize) {
    let batch = |s: &mut StoredDb<SharedDisk>, rng: &mut XorShiftRng| {
        let c = ColorId(rng.gen_range(0..s.db.palette.len()) as u8);
        if let Some(n) = pick(s, rng, c) {
            s.update_content(n, &format!("aborted-{k}"))?;
        }
        if let Some(parent) = pick(s, rng, c) {
            let attrs = [("k".to_string(), "ghost".to_string())];
            let e = s.new_element(&format!("ghost{k}"), Some("ghost"), &attrs);
            match s.attach(parent, &[e], &HashMap::new(), c) {
                Err(AttachError::Storage(e)) => return Err(e),
                other => other.unwrap(),
            }
        }
        if let Some(victim) = pick(s, rng, c) {
            s.detach(victim, c)?;
        }
        Ok::<(), colorful_xml::storage::StorageError>(())
    };
    let _ = batch(s, rng);
    create_color(s, rng, doc, k);
}

/// Random update, `createColor`, abort, sync and checkpoint steps on a
/// WAL-attached store: after every step its full catalog equals, byte
/// for byte, that of a store recovered from copies of its disks and
/// that of a replica fed its committed records; and an abort puts back
/// exactly the catalog the transaction began with.
#[test]
fn catalog_records_agree_across_live_recovered_and_replica() {
    for case in 0..32u64 {
        let seed = 9000 + case;
        let mut rng = XorShiftRng::seed_from_u64(seed);
        let doc = gen_doc(&mut rng);
        let (db, _) = doc.build();
        let (data, wal) = (SharedDisk::default(), SharedDisk::default());
        let mut pool = BufferPool::new(data.clone(), CATALOG_POOL);
        pool.attach_wal(Wal::create(Box::new(wal.clone())).unwrap());
        let mut live = StoredDb::build_on(pool, db).unwrap();
        live.sync().unwrap();
        let mut replica =
            StoredDb::from_snapshot(data.copy(), &live.snapshot_catalog(), CATALOG_POOL).unwrap();
        let mut cursor = TailCursor::new();
        let mut applied = live.pool.with_wal(|w| Ok(w.committed_lsn())).unwrap();
        for step in 0..12 {
            let what = match rng.gen_range(0..10u8) {
                0..=4 => {
                    let u = gen_update(&mut rng, &doc);
                    let _ = execute_update_with(&mut live, &u, None);
                    "update"
                }
                5 => {
                    create_color(&mut live, &mut rng, &doc, step);
                    live.sync().unwrap();
                    "createColor"
                }
                6 => {
                    let txn = live.begin_txn().unwrap();
                    let at_begin = live.snapshot_catalog();
                    mutate_in_txn(&mut live, &mut rng, &doc, step);
                    live.abort_txn(txn).unwrap();
                    if let Some(d) = first_difference(&live.snapshot_catalog(), &at_begin) {
                        fail_with_seed!(seed, "abort at step {step} left another catalog: {d}");
                    }
                    "abort"
                }
                7 => {
                    live.sync().unwrap();
                    "sync"
                }
                _ => {
                    if live.pool.dirty_since_commit_count() > 0 {
                        live.sync().unwrap();
                    }
                    live.checkpoint().unwrap();
                    "checkpoint"
                }
            };
            let bytes = live.snapshot_catalog();
            let recovered = StoredDb::open_with(data.copy(), Box::new(wal.copy()), CATALOG_POOL)
                .unwrap()
                .unwrap();
            if let Some(d) = first_difference(&recovered.snapshot_catalog(), &bytes) {
                fail_with_seed!(seed, "recovered store after step {step} ({what}): {d}");
            }
            ship(&live, &mut replica, &mut cursor, &mut applied);
            if let Some(d) = first_difference(&replica.snapshot_catalog(), &bytes) {
                fail_with_seed!(seed, "replica after step {step} ({what}): {d}");
            }
        }
        fail_with_seed!(ok seed, live.check().unwrap().is_ok());
        fail_with_seed!(ok seed, replica.check().unwrap().is_ok());
    }
}
