//! Seeded generation of random multi-colored stores and random
//! MCXQuery programs.
//!
//! The document generator follows the shape of the paper's running
//! examples (and the unordered-schema view of Boneva et al.): a small
//! tag alphabet shared across colors, so the same tag appears in
//! several hierarchies; explicit color overlap (one element adopted by
//! a second colored tree); contents drawn half from words and half
//! from numerics so both string and numeric predicates hit. The query
//! generator covers the tree-pattern taxonomy: color-decorated
//! child/descendant chains, reverse axes, predicates (value, numeric,
//! positional, `count`, `contains`), cross-color twigs, FLWOR, and the
//! seven update forms (delete target, delete child, single-leaf insert,
//! multi-node fragment insert, replace-value, filtered multi-action,
//! insert of an existing node).
//!
//! Everything is a pure function of the [`XorShiftRng`] passed in, so
//! a case is reproducible from its seed alone.

use mct_core::{ColorId, McNodeId, MctDatabase};
use mct_query::ast::{
    Axis, CmpOp, Constructor, ConstructorItem, Expr, FlworClause, Flwor, Literal, NodeTest,
    PathExpr, PathStart, Step, UpdateAction, UpdateStmt,
};
use mct_workloads::rng::XorShiftRng;

/// Color names used by generated documents, in palette order.
pub const COLOR_NAMES: [&str; 3] = ["red", "green", "blue"];
/// Tag alphabet, shared across colors so cross-color twigs match.
const TAGS: [&str; 8] = ["a", "b", "item", "name", "movie", "rating", "order", "note"];
/// Content vocabulary: words, numbers, and the awkward numerics:
/// `NaN` parses as `f64`, so it compares as a number and fails every
/// operator but `!=`; `7.0` and ` 07` equal `7` as numbers, not as text.
const WORDS: [&str; 12] = [
    "alpha", "beta", "gamma", "eve", "x y", "10", "7", "3.5", "-2", "NaN", "7.0", " 07",
];
const ATTR_NAMES: [&str; 3] = ["id", "k", "ref"];

/// One element of a [`DocSpec`]: where it sits in each colored tree.
#[derive(Clone, Debug)]
pub struct NodeSpec {
    /// Tag name.
    pub tag: String,
    /// Text content.
    pub content: Option<String>,
    /// Attributes.
    pub attrs: Vec<(String, String)>,
    /// `(color index, parent)` memberships; `None` parent = a root of
    /// that colored tree. Colors are distinct within one node.
    pub memberships: Vec<(usize, Option<usize>)>,
    /// Cleared by the shrinker; dead nodes (and the subtrees hanging
    /// off them) are skipped by [`DocSpec::build`].
    pub alive: bool,
}

/// A shrinkable description of a multi-colored database. Node `i` may
/// only reference parents `< i`, so any subset of live nodes still
/// builds.
#[derive(Clone, Debug)]
pub struct DocSpec {
    /// Palette, in order.
    pub colors: Vec<String>,
    /// Element specs in creation order.
    pub nodes: Vec<NodeSpec>,
}

impl DocSpec {
    /// Materialize the spec. Returns the database and the number of
    /// elements actually created (a node whose every membership points
    /// at a dead or skipped parent is itself skipped).
    pub fn build(&self) -> (MctDatabase, usize) {
        let mut db = MctDatabase::new();
        let cids: Vec<ColorId> = self.colors.iter().map(|c| db.add_color(c)).collect();
        let mut made: Vec<Option<McNodeId>> = vec![None; self.nodes.len()];
        let mut created = 0usize;
        for (i, spec) in self.nodes.iter().enumerate() {
            if !spec.alive {
                continue;
            }
            let mut node: Option<McNodeId> = None;
            for &(ci, parent) in &spec.memberships {
                let pid = match parent {
                    None => McNodeId::DOCUMENT,
                    Some(p) => match made[p] {
                        Some(pn) if has_color(&db, pn, cids[ci]) => pn,
                        _ => continue,
                    },
                };
                let n = match node {
                    None => {
                        let n = db.new_element(&spec.tag, cids[ci]);
                        node = Some(n);
                        n
                    }
                    Some(n) => {
                        if has_color(&db, n, cids[ci]) {
                            continue;
                        }
                        db.add_node_color(n, cids[ci]);
                        n
                    }
                };
                db.append_child(pid, n, cids[ci]);
            }
            if let Some(n) = node {
                created += 1;
                if let Some(c) = &spec.content {
                    db.set_content(n, c);
                }
                for (k, v) in &spec.attrs {
                    db.set_attr(n, k, v);
                }
                made[i] = Some(n);
            }
        }
        (db, created)
    }

    /// Tags of live nodes (for name tests that mostly hit).
    fn live_tags(&self) -> Vec<&str> {
        self.nodes
            .iter()
            .filter(|n| n.alive)
            .map(|n| n.tag.as_str())
            .collect()
    }
}

fn has_color(db: &MctDatabase, n: McNodeId, c: ColorId) -> bool {
    db.colors(n).iter().any(|x| x == c)
}

/// Generate a random document spec: 1–3 colors, 3–36 elements, ~35%
/// of elements adopted by a second color.
pub fn gen_doc(rng: &mut XorShiftRng) -> DocSpec {
    let ncolors = rng.gen_range(1..=3usize);
    let colors: Vec<String> = COLOR_NAMES[..ncolors].iter().map(|c| c.to_string()).collect();
    let n = rng.gen_range(3..=36usize);
    let mut nodes: Vec<NodeSpec> = Vec::with_capacity(n);
    for i in 0..n {
        let tag = TAGS[rng.gen_range(0..TAGS.len())].to_string();
        let c0 = rng.gen_range(0..ncolors);
        let mut memberships = vec![(c0, pick_parent(rng, &nodes, c0, i))];
        if ncolors > 1 && rng.gen_bool(0.35) {
            let c1 = (c0 + 1 + rng.gen_range(0..ncolors - 1)) % ncolors;
            memberships.push((c1, pick_parent(rng, &nodes, c1, i)));
        }
        let content = rng
            .gen_bool(0.55)
            .then(|| WORDS[rng.gen_range(0..WORDS.len())].to_string());
        let attrs = if rng.gen_bool(0.25) {
            let name = ATTR_NAMES[rng.gen_range(0..ATTR_NAMES.len())];
            vec![(name.to_string(), rng.gen_range(0..20u32).to_string())]
        } else {
            Vec::new()
        };
        nodes.push(NodeSpec {
            tag,
            content,
            attrs,
            memberships,
            alive: true,
        });
    }
    DocSpec { colors, nodes }
}

/// A parent for color `ci` among nodes `< i` that carry that color
/// (first membership only is enough: membership implies the color).
fn pick_parent(rng: &mut XorShiftRng, nodes: &[NodeSpec], ci: usize, _i: usize) -> Option<usize> {
    let candidates: Vec<usize> = nodes
        .iter()
        .enumerate()
        .filter(|(_, s)| s.memberships.iter().any(|&(c, _)| c == ci))
        .map(|(j, _)| j)
        .collect();
    if candidates.is_empty() || rng.gen_bool(0.18) {
        None
    } else {
        Some(candidates[rng.gen_range(0..candidates.len())])
    }
}

// ---------------------------------------------------------------------------
// Query generation
// ---------------------------------------------------------------------------

fn color(rng: &mut XorShiftRng, doc: &DocSpec) -> String {
    doc.colors[rng.gen_range(0..doc.colors.len())].clone()
}

fn tag(rng: &mut XorShiftRng, doc: &DocSpec) -> String {
    let live = doc.live_tags();
    if !live.is_empty() && rng.gen_bool(0.8) {
        live[rng.gen_range(0..live.len())].to_string()
    } else {
        TAGS[rng.gen_range(0..TAGS.len())].to_string()
    }
}

fn word(rng: &mut XorShiftRng) -> String {
    WORDS[rng.gen_range(0..WORDS.len())].to_string()
}

/// An absolute path `document("d")/step/step/...` with 1..=depth
/// color-decorated steps.
pub fn gen_abs_path(rng: &mut XorShiftRng, doc: &DocSpec, max_depth: usize) -> PathExpr {
    let depth = rng.gen_range(1..=max_depth.max(1));
    let mut steps = Vec::with_capacity(depth);
    for i in 0..depth {
        steps.push(gen_step(rng, doc, i + 1 == depth, i > 0));
    }
    PathExpr {
        start: PathStart::Document("d".to_string()),
        steps,
    }
}

/// A short relative path for predicates and FLWOR bodies.
fn gen_rel_path(rng: &mut XorShiftRng, doc: &DocSpec, var: Option<&str>) -> PathExpr {
    let step = Step {
        color: Some(color(rng, doc)),
        axis: if rng.gen_bool(0.75) {
            Axis::Child
        } else {
            Axis::Descendant
        },
        test: NodeTest::Name(tag(rng, doc)),
        predicates: Vec::new(),
    };
    PathExpr {
        start: match var {
            Some(v) => PathStart::Var(v.to_string()),
            None => PathStart::Context,
        },
        steps: vec![step],
    }
}

fn gen_step(rng: &mut XorShiftRng, doc: &DocSpec, last: bool, allow_reverse: bool) -> Step {
    let axis = match rng.gen_range(0..20u32) {
        0..=6 => Axis::Child,
        7..=12 => Axis::Descendant,
        13..=14 => Axis::DescendantOrSelf,
        15..=16 if allow_reverse => Axis::Parent,
        17 if allow_reverse => Axis::Ancestor,
        18 if last => Axis::Attribute,
        _ => Axis::Descendant,
    };
    let test = if axis == Axis::Attribute {
        NodeTest::Name(ATTR_NAMES[rng.gen_range(0..ATTR_NAMES.len())].to_string())
    } else {
        match rng.gen_range(0..10u32) {
            0..=6 => NodeTest::Name(tag(rng, doc)),
            7..=8 => NodeTest::AnyElement,
            _ => NodeTest::AnyNode,
        }
    };
    let predicates = if axis != Axis::Attribute && rng.gen_bool(0.3) {
        vec![gen_pred(rng, doc)]
    } else {
        Vec::new()
    };
    Step {
        color: Some(color(rng, doc)),
        axis,
        test,
        predicates,
    }
}

fn gen_pred(rng: &mut XorShiftRng, doc: &DocSpec) -> Expr {
    let rel = |rng: &mut XorShiftRng, doc: &DocSpec| Expr::Path(gen_rel_path(rng, doc, None));
    match rng.gen_range(0..6u8) {
        // Positional.
        0 => Expr::Lit(Literal::num(rng.gen_range(1..=3u32) as f64)),
        // String comparison against content.
        1 => Expr::Cmp(
            Box::new(rel(rng, doc)),
            if rng.gen_bool(0.7) { CmpOp::Eq } else { CmpOp::Ne },
            Box::new(Expr::Lit(Literal::str(word(rng)))),
        ),
        // Numeric comparison.
        2 => Expr::Cmp(
            Box::new(rel(rng, doc)),
            [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge]
                [rng.gen_range(0..6usize)],
            Box::new(Expr::Lit(Literal::num(rng.gen_range(0..=12u32) as f64))),
        ),
        // contains().
        3 => Expr::Call(
            "contains".to_string(),
            vec![rel(rng, doc), Expr::Lit(Literal::str("a".to_string()))],
        ),
        // count() threshold.
        4 => Expr::Cmp(
            Box::new(Expr::Call("count".to_string(), vec![rel(rng, doc)])),
            if rng.gen_bool(0.5) { CmpOp::Gt } else { CmpOp::Eq },
            Box::new(Expr::Lit(Literal::num(rng.gen_range(0..=2u32) as f64))),
        ),
        // Existence via not(empty(..)).
        _ => Expr::Call(
            "not".to_string(),
            vec![Expr::Call("empty".to_string(), vec![rel(rng, doc)])],
        ),
    }
}

fn gen_flwor(rng: &mut XorShiftRng, doc: &DocSpec) -> Expr {
    let source = gen_abs_path(rng, doc, 2);
    let mut clauses = vec![FlworClause::For("x".to_string(), Expr::Path(source))];
    if rng.gen_bool(0.3) {
        clauses.push(FlworClause::Let(
            "y".to_string(),
            Expr::Call(
                "count".to_string(),
                vec![Expr::Path(gen_rel_path(rng, doc, Some("x")))],
            ),
        ));
    }
    let where_ = rng.gen_bool(0.4).then(|| {
        Box::new(Expr::Cmp(
            Box::new(Expr::Path(gen_rel_path(rng, doc, Some("x")))),
            if rng.gen_bool(0.6) { CmpOp::Eq } else { CmpOp::Gt },
            Box::new(if rng.gen_bool(0.6) {
                Expr::Lit(Literal::str(word(rng)))
            } else {
                Expr::Lit(Literal::num(rng.gen_range(0..=9u32) as f64))
            }),
        ))
    });
    let order_by = if rng.gen_bool(0.3) {
        vec![(
            Expr::Call(
                "string".to_string(),
                vec![Expr::Path(gen_rel_path(rng, doc, Some("x")))],
            ),
            rng.gen_bool(0.7),
        )]
    } else {
        Vec::new()
    };
    let ret = Box::new(match rng.gen_range(0..6u8) {
        0 => Expr::Path(PathExpr {
            start: PathStart::Var("x".to_string()),
            steps: Vec::new(),
        }),
        1 => Expr::Path(gen_rel_path(rng, doc, Some("x"))),
        2 => Expr::Call(
            "string".to_string(),
            vec![Expr::Path(PathExpr {
                start: PathStart::Var("x".to_string()),
                steps: Vec::new(),
            })],
        ),
        3 => Expr::Call(
            "count".to_string(),
            vec![Expr::Path(gen_rel_path(rng, doc, Some("x")))],
        ),
        // Constructed and copied elements: query answers, never
        // document state.
        4 => Expr::Ctor(Constructor {
            name: "r".to_string(),
            attrs: Vec::new(),
            children: vec![ConstructorItem::Enclosed(Expr::Path(gen_rel_path(
                rng,
                doc,
                Some("x"),
            )))],
        }),
        _ => Expr::Call(
            "createCopy".to_string(),
            vec![Expr::Path(PathExpr {
                start: PathStart::Var("x".to_string()),
                steps: Vec::new(),
            })],
        ),
    });
    Expr::Flwor(Flwor {
        clauses,
        where_,
        order_by,
        ret,
    })
}

/// A random read-only query: 75% color-decorated paths, 25% FLWOR,
/// whose return may construct or copy elements. No `createColor`: a
/// read never changes the store, so every surface can evaluate it
/// repeatedly.
pub fn gen_query(rng: &mut XorShiftRng, doc: &DocSpec) -> Expr {
    if rng.gen_bool(0.25) {
        gen_flwor(rng, doc)
    } else {
        Expr::Path(gen_abs_path(rng, doc, 4))
    }
}

/// One of the seven update forms over a random binding path.
pub fn gen_update(rng: &mut XorShiftRng, doc: &DocSpec) -> UpdateStmt {
    let binding = gen_abs_path(rng, doc, 2);
    let x = || {
        Expr::Path(PathExpr {
            start: PathStart::Var("x".to_string()),
            steps: Vec::new(),
        })
    };
    let leaf = |rng: &mut XorShiftRng| {
        Expr::Ctor(Constructor {
            name: "note".to_string(),
            attrs: Vec::new(),
            children: vec![ConstructorItem::Text(word(rng).replace(' ', "-"))],
        })
    };
    let (where_, actions) = match rng.gen_range(0..7u8) {
        // 1. Delete the target itself from its colored tree.
        0 => (None, vec![UpdateAction::Delete(x())]),
        // 2. Delete a child of the target.
        1 => (
            None,
            vec![UpdateAction::Delete(Expr::Path(gen_rel_path(
                rng,
                doc,
                Some("x"),
            )))],
        ),
        // 3. Insert one leaf (gap-code pressure when targets repeat).
        2 => (None, vec![UpdateAction::Insert(leaf(rng))]),
        // 4. Insert a multi-node fragment (interval renumbering
        //    pressure: several new codes under one parent at once).
        3 => (
            None,
            vec![UpdateAction::Insert(Expr::Ctor(Constructor {
                name: "frag".to_string(),
                attrs: vec![("k".to_string(), rng.gen_range(0..9u32).to_string())],
                children: vec![
                    ConstructorItem::Element(Constructor {
                        name: "u".to_string(),
                        attrs: Vec::new(),
                        children: vec![ConstructorItem::Text(word(rng).replace(' ', "-"))],
                    }),
                    ConstructorItem::Element(Constructor {
                        name: "v".to_string(),
                        attrs: Vec::new(),
                        children: Vec::new(),
                    }),
                ],
            }))],
        ),
        // 5. Replace the target's value.
        4 => (
            None,
            vec![UpdateAction::ReplaceValue(
                x(),
                Expr::Lit(if rng.gen_bool(0.6) {
                    Literal::str(word(rng))
                } else {
                    Literal::num(rng.gen_range(0..100u32) as f64)
                }),
            )],
        ),
        // 6. Filtered multi-action.
        5 => (
            Some(Box::new(gen_pred_on_var(rng, doc))),
            vec![
                UpdateAction::ReplaceValue(x(), Expr::Lit(Literal::str(word(rng)))),
                UpdateAction::Insert(leaf(rng)),
            ],
        ),
        // 7. Insert existing nodes, located by an absolute path in
        //    another color than the target's: each gains the target's
        //    color and keeps its identity and records.
        _ => {
            let target = binding.steps.last().and_then(|s| s.color.as_ref());
            let others: Vec<&String> = doc.colors.iter().filter(|c| Some(*c) != target).collect();
            let mut path = gen_abs_path(rng, doc, 2);
            if !others.is_empty() {
                let other = others[rng.gen_range(0..others.len())];
                for step in &mut path.steps {
                    step.color = Some(other.clone());
                }
            }
            (None, vec![UpdateAction::Insert(Expr::Path(path))])
        }
    };
    UpdateStmt {
        clauses: vec![FlworClause::For("x".to_string(), Expr::Path(binding))],
        where_,
        target: "x".to_string(),
        actions,
    }
}

fn gen_pred_on_var(rng: &mut XorShiftRng, doc: &DocSpec) -> Expr {
    Expr::Cmp(
        Box::new(Expr::Path(gen_rel_path(rng, doc, Some("x")))),
        if rng.gen_bool(0.5) { CmpOp::Eq } else { CmpOp::Ne },
        Box::new(Expr::Lit(Literal::str(word(rng)))),
    )
}

// ---------------------------------------------------------------------------
// Parser token soup
// ---------------------------------------------------------------------------

/// Tokens for the lexer/parser soup: everything the MCXQuery grammar
/// knows, plus junk that must produce a typed error, never a panic.
const SOUP: [&str; 48] = [
    "document", "(", ")", "\"d\"", "/", "{", "}", "{red}", "{nope}", "child", "descendant",
    "parent", "self", "::", "*", "node()", "[", "]", "=", "!=", "<", "<=", ">", ">=", "\"",
    "'", "$", "$x", "for", "let", ":=", "in", "where", "order", "by", "return", "update",
    "delete", "insert", "replace", "value", "of", "with", "and", "contains", "1", "3.5", "é",
];

/// A random token soup for the parser-robustness invariant.
pub fn gen_soup(rng: &mut XorShiftRng) -> String {
    let n = rng.gen_range(0..=24usize);
    let mut out = String::new();
    for _ in 0..n {
        out.push_str(SOUP[rng.gen_range(0..SOUP.len())]);
        if rng.gen_bool(0.4) {
            out.push(' ');
        }
    }
    out
}
