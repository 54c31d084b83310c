//! A heuristic physical planner for MCXQuery path expressions.
//!
//! The paper evaluated with hand-picked plans and left the optimizer
//! as future work: "the query optimizer design is beyond the scope of
//! this paper" (§6.2). This module implements the natural first
//! optimizer for the MCT algebra:
//!
//! 1. **Segment** a colored path expression into maximal single-color
//!    runs of downward steps (`child` / `descendant`).
//! 2. Compile each run into index scans feeding a **holistic chain
//!    join** (PathStack). Each scan after the first reads only inside
//!    the regions of the list before it, and content/attribute
//!    predicates filter each scan's output before the next is read.
//! 3. Join consecutive runs with the **cross-tree operator** when the
//!    color changes (the paper's "evaluate a single-color query, then
//!    a cross-tree join, before evaluating the next single-color
//!    query" strategy), or with parent navigation for reverse steps.
//! 4. An equality predicate on a child of the first step prefers the
//!    **content index** over a scan+filter (index-driven entry point)
//!    when equality there is string equality: the literal is not a
//!    number and the child is in the chain's color.
//!
//! The planner handles the (large) fragment used by the paper's
//! queries: absolute paths of forward steps with `parent` reverse
//! steps, predicates comparing the context, a child or an attribute
//! to a literal, and `contains`. Predicates compare the way the
//! interpreter does, through [`CmpOp::holds`]. Anything outside the
//! fragment is reported as [`PlanError::Unsupported`] so callers can
//! fall back to the interpreter ([`crate::eval()`]).

use crate::ast::{as_number, Axis, CmpOp, Expr, NodeTest, PathExpr, PathStart, Step};
use crate::exec::{self, CancelToken};
use mct_storage::DiskManager;
use crate::ops::{self, dup_elim, Rel, Tuple};
use mct_core::{ColorId, McNodeId, StoredDb, StructRef};
use mct_storage::PoolStats;
use std::fmt;
use std::time::{Duration, Instant};

/// Chain under construction: `(color, tags, edge relations, per-tag
/// predicates, leading-`child::` root restriction)`.
type ChainAcc = (ColorId, Vec<String>, Vec<Rel>, Vec<Vec<CompiledPred>>, bool);

/// Planner failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The expression is outside the planner's fragment; use the
    /// interpreter instead.
    Unsupported(String),
    /// A color literal did not resolve.
    UnknownColor(String),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Unsupported(what) => write!(f, "planner: unsupported construct: {what}"),
            PlanError::UnknownColor(c) => write!(f, "planner: unknown color {{{c}}}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// A compiled plan: a sequence of physical operations.
#[derive(Debug)]
pub struct PathPlan {
    stages: Vec<Stage>,
}

/// One pipeline stage (kept explainable for `EXPLAIN`-style output).
#[derive(Debug)]
enum Stage {
    /// Index-driven entry: content-index lookup for `tag[pred = lit]`.
    ContentEntry {
        color: ColorId,
        tag: String,
        child_tag: String,
        value: String,
    },
    /// A single-color chain of downward steps, run holistically.
    Chain {
        color: ColorId,
        tags: Vec<String>,
        rels: Vec<Rel>,
        /// Predicates per chain position, each filtering its position's
        /// list before the join.
        preds: Vec<Vec<CompiledPred>>,
        /// The chain opens the path with a `child::` step: only roots
        /// of the colored tree may bind the first tag (`document/
        /// child::x` reaches roots, unlike `descendant::x`).
        root_only: bool,
    },
    /// Color transition on the current head column.
    CrossTree { to: ColorId },
    /// Parent navigation in a color.
    Parent { color: ColorId, tag: Option<String> },
    /// Final duplicate elimination on the head column.
    DupElim,
}

/// A child step of a predicate: the color it navigates, and its tag.
type ChildStep = (ColorId, String);

/// A predicate compiled to a physical selection. `child: None` tests
/// the element's own value.
#[derive(Debug, Clone)]
enum CompiledPred {
    Cmp { child: Option<ChildStep>, op: CmpOp, value: String },
    ContentContains { child: Option<ChildStep>, value: String },
    AttrEq { name: String, value: String },
}

/// Per-operator measurements from one EXPLAIN ANALYZE execution.
#[derive(Debug, Clone)]
pub struct StageStats {
    /// The stage's renderer label (same text EXPLAIN prints).
    pub label: String,
    /// Tuples flowing into the stage.
    pub rows_in: u64,
    /// Tuples the stage produced.
    pub rows_out: u64,
    /// Wall-clock time spent in the stage.
    pub elapsed: Duration,
    /// Buffer-pool counters accumulated during the stage.
    pub pool: PoolStats,
}

/// The result of [`PathPlan::execute_shared_analyze`]: per-stage actuals
/// plus totals, renderable as an annotated plan tree.
#[derive(Debug, Clone)]
pub struct AnalyzeReport {
    /// One entry per plan stage, in pipeline order.
    pub stages: Vec<StageStats>,
    /// Total execution wall-clock time.
    pub total: Duration,
    /// Buffer-pool counters accumulated over the whole execution.
    pub pool: PoolStats,
    /// Final result cardinality.
    pub rows: u64,
}

impl AnalyzeReport {
    /// Annotated plan tree (EXPLAIN layout plus per-stage actuals)
    /// with a totals footer.
    pub fn render(&self) -> String {
        let lines: Vec<String> = self
            .stages
            .iter()
            .map(|st| {
                format!(
                    "{}  (rows {} -> {}; {}; pages {} hit, {} miss)",
                    st.label,
                    st.rows_in,
                    st.rows_out,
                    fmt_duration(st.elapsed),
                    st.pool.hits,
                    st.pool.misses
                )
            })
            .collect();
        let mut out = render_tree(&lines);
        out.push_str(&format!(
            "total: {} rows; {}; pages {} hit, {} miss\n",
            self.rows,
            fmt_duration(self.total),
            self.pool.hits,
            self.pool.misses
        ));
        out
    }
}

/// Render pipeline-stage lines as a plan tree: the last stage is the
/// root, each earlier stage its child, one extra indent per level.
/// Shared by EXPLAIN and EXPLAIN ANALYZE so their shapes always agree
/// (and tests can assert on the stable `"   "`-per-level indentation).
fn render_tree(lines: &[String]) -> String {
    let mut out = String::new();
    for (depth, line) in lines.iter().rev().enumerate() {
        if depth > 0 {
            out.push_str(&"   ".repeat(depth - 1));
            out.push_str("└─ ");
        }
        out.push_str(line);
        out.push('\n');
    }
    out
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

impl PathPlan {
    fn stage_label<D: DiskManager>(&self, s: &StoredDb<D>, st: &Stage) -> String {
        match st {
            Stage::ContentEntry { color, tag, child_tag, value } => format!(
                "content-index entry: {tag}[{child_tag} = {value:?}] in {{{}}}",
                s.db.palette.name(*color)
            ),
            Stage::Chain { color, tags, .. } => format!(
                "holistic chain join over {:?} in {{{}}}",
                tags,
                s.db.palette.name(*color)
            ),
            Stage::CrossTree { to } => {
                format!("cross-tree join -> {{{}}}", s.db.palette.name(*to))
            }
            Stage::Parent { color, tag } => format!(
                "parent step in {{{}}}{}",
                s.db.palette.name(*color),
                tag.as_deref()
                    .map(|t| format!(" [{t}]"))
                    .unwrap_or_default()
            ),
            Stage::DupElim => "duplicate elimination".to_string(),
        }
    }

    fn labels<D: DiskManager>(&self, s: &StoredDb<D>) -> Vec<String> {
        self.stages.iter().map(|st| self.stage_label(s, st)).collect()
    }

    /// Human-readable plan description (EXPLAIN).
    pub fn explain<D: DiskManager>(&self, s: &StoredDb<D>) -> String {
        render_tree(&self.labels(s))
    }

    /// Execute the plan, returning the final single-column tuples —
    /// the one way to run a plan. Worker threads of the serving layer
    /// run cached plans this way against one `StoredDb` behind a read
    /// lock. A color that breaks the store's annotation invariant is
    /// reported as [`mct_storage::StorageError::NotAnnotated`].
    ///
    /// With `threads > 1`, Chain and CrossTree stages and predicate
    /// filters fan their inputs out over [`exec::run_morsels`] workers;
    /// the output is byte-identical at any thread count (chunk results
    /// merge in chunk order and those stages re-sort by document
    /// order). `cancel` is consulted at stage and morsel boundaries; an
    /// elapsed deadline surfaces as [`mct_storage::StorageError::Cancelled`].
    pub fn execute_shared<D: DiskManager>(
        &self,
        s: &StoredDb<D>,
        threads: usize,
        cancel: Option<&CancelToken>,
    ) -> mct_storage::Result<Vec<Tuple>> {
        self.run(s, None, threads, cancel).map(|(tuples, _)| tuples)
    }

    /// [`PathPlan::execute_shared`] with per-stage actuals (EXPLAIN
    /// ANALYZE): rows in/out, elapsed time, and buffer-pool deltas,
    /// which with `threads > 1` aggregate every worker's page traffic.
    /// This is also the serving layer's always-on EXPLAIN ANALYZE:
    /// worker threads run it under the read lock so a request that
    /// turns out slow can be captured with its full annotated plan
    /// tree without being re-executed. The per-stage instrumentation is
    /// two `Instant` reads and one pool-stats snapshot per stage; plans
    /// have a handful of stages, so the overhead is noise next to
    /// execution.
    pub fn execute_shared_analyze<D: DiskManager>(
        &self,
        s: &StoredDb<D>,
        threads: usize,
        cancel: Option<&CancelToken>,
    ) -> mct_storage::Result<(Vec<Tuple>, AnalyzeReport)> {
        let labels = self.labels(s);
        let pool_mark = s.pool.stats();
        let t0 = Instant::now();
        let (tuples, stages) = self.run(s, Some(&labels), threads, cancel)?;
        let report = AnalyzeReport {
            stages,
            total: t0.elapsed(),
            pool: s.pool.stats().delta_since(&pool_mark),
            rows: tuples.len() as u64,
        };
        Ok((tuples, report))
    }

    /// The pipeline driver: `&StoredDb` suffices, so the serving
    /// layer can run many plans concurrently under a read lock. With
    /// `labels: Some(..)`, each stage is timed and its pool delta
    /// captured; without, only the (cheap) spans and row counters run.
    fn run<D: DiskManager>(
        &self,
        s: &StoredDb<D>,
        labels: Option<&[String]>,
        threads: usize,
        cancel: Option<&CancelToken>,
    ) -> mct_storage::Result<(Vec<Tuple>, Vec<StageStats>)> {
        mct_obs::counter("query.plan.executions").inc();
        let mut collected = Vec::new();
        let mut current: Option<Vec<Tuple>> = None;
        for (i, st) in self.stages.iter().enumerate() {
            exec::check_cancel(cancel)?;
            let _span = mct_obs::trace::span(match st {
                Stage::ContentEntry { .. } => "plan.content_entry",
                Stage::Chain { .. } => "plan.chain",
                Stage::CrossTree { .. } => "plan.crosstree",
                Stage::Parent { .. } => "plan.parent",
                Stage::DupElim => "plan.dup_elim",
            });
            let rows_in = current.as_ref().map_or(0, Vec::len) as u64;
            let mark = labels.map(|_| (s.pool.stats(), Instant::now()));
            current = Some(match st {
                Stage::ContentEntry { color, tag, child_tag, value } => {
                    content_entry(s, *color, tag, child_tag, value)?
                }
                Stage::Chain { color, tags, rels, preds, root_only } => {
                    // One list per tag, each filtered by its own
                    // predicates as soon as it is read. A leading
                    // `«pipeline»` placeholder takes the incoming
                    // tuples; every later list is read only inside the
                    // regions of the list before it.
                    let mut lists: Vec<Vec<StructRef>> = Vec::with_capacity(tags.len());
                    for (pos, tag) in tags.iter().enumerate() {
                        let mut list = match lists.last() {
                            Some(prev) => match s.db.names.get(tag) {
                                Some(sym) => s.descendants_named(*color, sym, prev.iter().map(|r| r.node))?,
                                None => Vec::new(),
                            },
                            None if tag == "«pipeline»" => {
                                current.take().unwrap_or_default().into_iter().map(|t| t[0]).collect()
                            }
                            None => s.postings_named(*color, tag)?,
                        };
                        if pos == 0 && *root_only {
                            // `document/child::x`: only roots of the
                            // colored tree bind the opening tag.
                            list.retain(|r| {
                                matches!(s.db.parent(r.node, *color), None | Some(McNodeId::DOCUMENT))
                            });
                        }
                        for p in &preds[pos] {
                            list = apply_pred_par(s, list, *color, p, threads, cancel)?;
                        }
                        lists.push(list);
                    }
                    let joined = exec::holistic_chain_par(&lists, rels, threads, cancel)?;
                    ops::sort_by_col(ops::project(joined, &[tags.len() - 1]), 0)
                }
                Stage::CrossTree { to } => {
                    let cur = current.take().unwrap_or_default();
                    ops::cross_tree_op(s, cur, 0, *to, threads, cancel)?
                }
                Stage::Parent { color, tag } => {
                    let cur = current.take().unwrap_or_default();
                    let mut out = Vec::new();
                    for t in cur {
                        if let Some(p) = s.db.parent(t[0].node, *color) {
                            if p == McNodeId::DOCUMENT {
                                continue;
                            }
                            if let Some(want) = tag {
                                if s.db.name_str(p) != Some(want.as_str()) {
                                    continue;
                                }
                            }
                            if let Some(code) = s.db.code(p, *color) {
                                out.push(vec![StructRef { node: p, code }]);
                            }
                        }
                    }
                    out.sort_by_key(|t| t[0].code.start);
                    out
                }
                Stage::DupElim => dup_elim(current.take().unwrap_or_default(), &[0]),
            });
            let rows_out = current.as_ref().map_or(0, Vec::len) as u64;
            mct_obs::counter("query.plan.rows").add(rows_out);
            if let (Some(labels), Some((pool_mark, stage_t0))) = (labels, mark) {
                collected.push(StageStats {
                    label: labels[i].clone(),
                    rows_in,
                    rows_out,
                    elapsed: stage_t0.elapsed(),
                    pool: s.pool.stats().delta_since(&pool_mark),
                });
            }
        }
        Ok((current.unwrap_or_default(), collected))
    }
}

/// [`apply_pred`] over morsels: predicates test elements independently
/// and chunk outputs merge in chunk order, so the result equals the
/// sequential filter exactly.
fn apply_pred_par<D: DiskManager>(
    s: &StoredDb<D>,
    list: Vec<StructRef>,
    color: ColorId,
    p: &CompiledPred,
    threads: usize,
    cancel: Option<&CancelToken>,
) -> mct_storage::Result<Vec<StructRef>> {
    if threads <= 1 || list.len() < 2 * exec::MIN_MORSEL {
        return apply_pred(s, list, color, p);
    }
    let ranges = exec::chunk_ranges(list.len(), threads);
    let chunks = exec::run_morsels(threads, ranges.len(), |ci| {
        exec::check_cancel(cancel)?;
        apply_pred(s, list[ranges[ci].clone()].to_vec(), color, p)
    })?;
    Ok(chunks.into_iter().flatten().collect())
}

/// Keep the elements of `list` that pass one compiled predicate — a
/// pure read, safe to fan across threads. A predicate tests only its
/// own element, so filtering a chain's list before the join equals
/// filtering the joined tuples.
fn apply_pred<D: DiskManager>(
    s: &StoredDb<D>,
    list: Vec<StructRef>,
    color: ColorId,
    p: &CompiledPred,
) -> mct_storage::Result<Vec<StructRef>> {
    let mut out = Vec::new();
    for r in list {
        let keep = match p {
            CompiledPred::AttrEq { name, value } => ops::has_attr_eq(s, r.node, name, value)?,
            CompiledPred::Cmp { child, op, value } => {
                value_passes(s, r.node, color, child.as_ref(), |v| op.holds(v, value))?
            }
            CompiledPred::ContentContains { child, value } => {
                value_passes(s, r.node, color, child.as_ref(), |v| v.contains(value.as_str()))?
            }
        };
        if keep {
            out.push(r);
        }
    }
    Ok(out)
}

/// Whether element `n` passes `test` on its value in `color` (`child:
/// None`), or has a child of the child step's tag, in that step's
/// color, that does on its value there.
fn value_passes<D: DiskManager>(
    s: &StoredDb<D>,
    n: McNodeId,
    color: ColorId,
    child: Option<&ChildStep>,
    test: impl Fn(&str) -> bool,
) -> mct_storage::Result<bool> {
    let Some((cc, name)) = child else {
        return Ok(test(&value_of(s, n, color)?));
    };
    for ch in s.db.children(n, *cc) {
        if s.db.name_str(ch) == Some(name) && test(&value_of(s, ch, *cc)?) {
            return Ok(true);
        }
    }
    Ok(false)
}

/// An element's value as [`crate::eval::atomize`] takes it: its own
/// content when it has some, otherwise its string-value in `color`
/// (the content of its color-`color` subtree, in local order).
fn value_of<D: DiskManager>(
    s: &StoredDb<D>,
    n: McNodeId,
    color: ColorId,
) -> mct_storage::Result<String> {
    Ok(match s.fetch_content(n)? {
        Some(content) => content,
        None => s.db.string_value(n, color).unwrap_or_default(),
    })
}

/// `tag[child_tag = value]` through the content index: the `tag`
/// parents of the `child_tag` elements whose value is `value`, in
/// document order. A hit is an element whose own content is `value`;
/// a content-less `child_tag` ancestor of a hit matches when its
/// string-value is that same text (see [`value_of`]). One whose
/// string-value joins the content of several descendants has no index
/// entry and is not found.
fn content_entry<D: DiskManager>(
    s: &StoredDb<D>,
    color: ColorId,
    tag: &str,
    child_tag: &str,
    value: &str,
) -> mct_storage::Result<Vec<Tuple>> {
    let mut out = Vec::new();
    let Some(child_sym) = s.db.names.get(child_tag) else {
        return Ok(out);
    };
    for hit in s.content_lookup(value)? {
        for n in std::iter::once(hit).chain(s.db.ancestors(hit, color)) {
            if s.db.node(n).name != Some(child_sym) {
                continue;
            }
            if n != hit && value_of(s, n, color)? != value {
                continue;
            }
            if let Some(p) = s.db.parent(n, color) {
                if s.db.name_str(p) == Some(tag) {
                    if let Some(code) = s.db.code(p, color) {
                        out.push(vec![StructRef { node: p, code }]);
                    }
                }
            }
        }
    }
    out.sort_by_key(|t| t[0].code.start);
    out.dedup_by_key(|t| t[0].node);
    Ok(out)
}

/// Compile an absolute colored path expression into a physical plan.
pub fn plan_path<D: DiskManager>(s: &StoredDb<D>, path: &PathExpr, dedup: bool) -> Result<PathPlan, PlanError> {
    if path.start == PathStart::Context {
        return Err(PlanError::Unsupported("relative path".into()));
    }
    if let PathStart::Var(v) = &path.start {
        return Err(PlanError::Unsupported(format!("variable start ${v}")));
    }
    let mut stages: Vec<Stage> = Vec::new();
    let mut current_color: Option<ColorId> = None;
    let mut chain: Option<ChainAcc> = None;
    // Whether a prior stage's output feeds the next chain.
    let mut has_pipeline = false;

    let flush = |stages: &mut Vec<Stage>,
                 chain: &mut Option<ChainAcc>,
                 has_pipeline: &mut bool| {
        if let Some((color, tags, rels, preds, root_only)) = chain.take() {
            stages.push(Stage::Chain { color, tags, rels, preds, root_only });
            *has_pipeline = true;
        }
    };

    for step in &path.steps {
        let color = resolve_color(s, step)?;
        let tag = match &step.test {
            NodeTest::Name(n) => n.clone(),
            other => {
                return Err(PlanError::Unsupported(format!("node test {other:?}")));
            }
        };
        let preds: Vec<CompiledPred> =
            step.predicates.iter().map(|e| compile_pred(s, e)).collect::<Result<_, _>>()?;
        match step.axis {
            Axis::Child | Axis::Descendant => {
                let rel = if step.axis == Axis::Child {
                    Rel::Child
                } else {
                    Rel::Descendant
                };
                let color_changed = current_color != Some(color);
                if color_changed {
                    flush(&mut stages, &mut chain, &mut has_pipeline);
                    if current_color.is_some() {
                        stages.push(Stage::CrossTree { to: color });
                        has_pipeline = true;
                    }
                    current_color = Some(color);
                }
                match &mut chain {
                    Some((_, tags, rels, all_preds, _)) => {
                        tags.push(tag);
                        rels.push(rel);
                        all_preds.push(preds);
                    }
                    None => {
                        if has_pipeline {
                            // Continue from the previous stage's output.
                            chain = Some((
                                color,
                                vec!["«pipeline»".into(), tag],
                                vec![rel],
                                vec![Vec::new(), preds],
                                false,
                            ));
                            has_pipeline = false;
                        } else {
                            // The path-opening chain: a `child::` step
                            // here means children of the document node,
                            // i.e. only roots of the colored tree.
                            chain = Some((
                                color,
                                vec![tag],
                                Vec::new(),
                                vec![preds],
                                rel == Rel::Child,
                            ));
                        }
                    }
                }
            }
            Axis::Parent => {
                flush(&mut stages, &mut chain, &mut has_pipeline);
                if current_color != Some(color) && current_color.is_some() {
                    stages.push(Stage::CrossTree { to: color });
                }
                current_color = Some(color);
                stages.push(Stage::Parent {
                    color,
                    tag: Some(tag),
                });
                has_pipeline = true;
                if !preds.is_empty() {
                    return Err(PlanError::Unsupported("predicate on parent step".into()));
                }
            }
            other => {
                return Err(PlanError::Unsupported(format!("axis {other:?}")));
            }
        }
    }
    flush(&mut stages, &mut chain, &mut has_pipeline);
    if dedup {
        stages.push(Stage::DupElim);
    }
    // Index-entry rewrite: a leading chain whose first tag has an
    // equality predicate on a child becomes a content-index entry. The
    // index matches text exactly, so this applies only where equality
    // is string equality: a literal that is not a number, on a child
    // in the chain's own color.
    if let Some(Stage::Chain { color, tags, preds, root_only, .. }) = stages.first() {
        // A root-restricted opening (`document/child::x`) keeps the
        // index scan: the content-index entry point has no way to
        // re-impose the root constraint.
        if !tags.is_empty() && tags[0] != "«pipeline»" && !root_only {
            match preds.first().and_then(|ps| ps.first()) {
                Some(CompiledPred::Cmp { child: Some((ccolor, cname)), op: CmpOp::Eq, value })
                    if ccolor == color && as_number(value).is_none() =>
                {
                    let entry = Stage::ContentEntry {
                        color: *color,
                        tag: tags[0].clone(),
                        child_tag: cname.clone(),
                        value: value.clone(),
                    };
                    // Rebuild the chain with the pipeline placeholder
                    // and the remaining predicates of position 0.
                    if let Some(Stage::Chain { tags, preds, .. }) = stages.first_mut() {
                        tags[0] = "«pipeline»".into();
                        preds[0].remove(0);
                    }
                    stages.insert(0, entry);
                }
                _ => {}
            }
        }
    }
    Ok(PathPlan { stages })
}

fn resolve_color<D: DiskManager>(s: &StoredDb<D>, step: &Step) -> Result<ColorId, PlanError> {
    match &step.color {
        Some(name) => s
            .db
            .color(name)
            .ok_or_else(|| PlanError::UnknownColor(name.clone())),
        None => {
            // Single-color databases default to their only color.
            if s.db.palette.len() == 1 {
                Ok(ColorId(0))
            } else {
                Err(PlanError::Unsupported(
                    "step without color on a multi-colored database".into(),
                ))
            }
        }
    }
}

/// Compile one `[...]` predicate into a physical selection.
fn compile_pred<D: DiskManager>(s: &StoredDb<D>, e: &Expr) -> Result<CompiledPred, PlanError> {
    match e {
        Expr::Cmp(l, op, r) => {
            // The literal's text as the interpreter atomizes it.
            let value = match &**r {
                Expr::Lit(lit) => lit.text().to_string(),
                other => return Err(PlanError::Unsupported(format!("predicate rhs {other:?}"))),
            };
            match pred_target(s, l)? {
                (_, Some(name)) if *op == CmpOp::Eq => Ok(CompiledPred::AttrEq { name, value }),
                (_, Some(_)) => Err(PlanError::Unsupported(format!("attribute comparison {op}"))),
                (child, None) => Ok(CompiledPred::Cmp { child, op: *op, value }),
            }
        }
        Expr::Call(name, args) if name == "contains" && args.len() == 2 => {
            let (child, attr) = pred_target(s, &args[0])?;
            if attr.is_some() {
                return Err(PlanError::Unsupported("contains on attribute".into()));
            }
            match &args[1] {
                Expr::Lit(lit) if lit.is_str() => Ok(CompiledPred::ContentContains {
                    child,
                    value: lit.text().to_string(),
                }),
                other => Err(PlanError::Unsupported(format!("contains arg {other:?}"))),
            }
        }
        other => Err(PlanError::Unsupported(format!("predicate {other:?}"))),
    }
}

/// What a predicate's left side targets: `(child step, attribute)`.
/// `.` → (None, None); `{c}child::name` → (Some((c, name)), None);
/// `@attr` → (None, Some(attr)).
fn pred_target<D: DiskManager>(
    s: &StoredDb<D>,
    e: &Expr,
) -> Result<(Option<ChildStep>, Option<String>), PlanError> {
    let Expr::Path(p) = e else {
        return Err(PlanError::Unsupported(format!("predicate lhs {e:?}")));
    };
    if p.start != PathStart::Context {
        return Err(PlanError::Unsupported("non-relative predicate path".into()));
    }
    match p.steps.as_slice() {
        [] => Ok((None, None)),
        [one] => match (&one.axis, &one.test) {
            (Axis::SelfAxis, _) => Ok((None, None)),
            (Axis::Child, NodeTest::Name(n)) => {
                // An unknown color is the interpreter's to report: it
                // raises it only when some element reaches the step.
                let c = resolve_color(s, one)
                    .map_err(|e| PlanError::Unsupported(e.to_string()))?;
                Ok((Some((c, n.clone())), None))
            }
            (Axis::Attribute, NodeTest::Name(n)) => Ok((None, Some(n.clone()))),
            other => Err(PlanError::Unsupported(format!("predicate step {other:?}"))),
        },
        more => Err(PlanError::Unsupported(format!(
            "deep predicate path ({} steps)",
            more.len()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval, EvalContext, Item};
    use crate::parser::parse_query;
    use mct_core::MctDatabase;

    /// Figure-2-like database for planner vs interpreter comparison.
    fn stored() -> StoredDb {
        let mut db = MctDatabase::new();
        let red = db.add_color("red");
        let green = db.add_color("green");
        let genre = db.new_element("movie-genre", red);
        db.append_child(McNodeId::DOCUMENT, genre, red);
        let gname = db.new_element("name", red);
        db.set_content(gname, "Comedy");
        db.append_child(genre, gname, red);
        let award = db.new_element("movie-award", green);
        db.append_child(McNodeId::DOCUMENT, award, green);
        let aname = db.new_element("name", green);
        db.set_content(aname, "Oscar");
        db.append_child(award, aname, green);
        for i in 0..12 {
            let m = db.new_element("movie", red);
            db.set_attr(m, "id", &format!("m{i}"));
            db.append_child(genre, m, red);
            let name = db.new_element("name", red);
            db.set_content(name, &format!("Movie {i} {}", if i % 3 == 0 { "Eve" } else { "Day" }));
            db.append_child(m, name, red);
            if i % 2 == 0 {
                db.add_node_color(m, green);
                db.append_child(award, m, green);
                let votes = db.new_element("votes", green);
                db.set_content(votes, &(i * 2).to_string());
                db.append_child(m, votes, green);
            }
        }
        StoredDb::build(db, 16 * 1024 * 1024).unwrap()
    }

    fn exec(plan: &PathPlan, s: &StoredDb, threads: usize) -> Vec<Tuple> {
        plan.execute_shared(s, threads, None).unwrap()
    }

    fn plan_nodes(s: &mut StoredDb, text: &str) -> Vec<u32> {
        let Expr::Path(p) = parse_query(text).unwrap() else {
            panic!("not a bare path")
        };
        let plan = plan_path(s, &p, true).unwrap();
        let out = exec(&plan, s, 1);
        let mut v: Vec<u32> = out.iter().map(|t| t[0].node.0).collect();
        v.sort_unstable();
        v
    }

    fn interp_nodes(s: &mut StoredDb, text: &str) -> Vec<u32> {
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
    fn planner_matches_interpreter_single_color() {
        let mut s = stored();
        for q in [
            r#"document("m")/{red}descendant::movie"#,
            r#"document("m")/{red}descendant::movie-genre/{red}child::movie"#,
            r#"document("m")/{red}descendant::movie/{red}child::name"#,
            r#"document("m")/{red}descendant::movie[contains({red}child::name, "Eve")]"#,
            r#"document("m")/{green}descendant::movie[{green}child::votes > 8]"#,
            r#"document("m")/{red}descendant::movie[@id = "m7"]"#,
        ] {
            assert_eq!(plan_nodes(&mut s, q), interp_nodes(&mut s, q), "{q}");
        }
    }

    #[test]
    fn planner_matches_interpreter_with_crossing() {
        let mut s = stored();
        let q = r#"document("m")/{red}descendant::movie-genre/{red}descendant::movie/{green}parent::movie-award"#;
        assert_eq!(plan_nodes(&mut s, q), interp_nodes(&mut s, q));
    }

    #[test]
    fn cross_tree_stage_filters_to_target_color() {
        let mut s = stored();
        // Red movies -> green subtree scan (only even movies survive).
        let q = r#"document("m")/{red}descendant::movie/{green}child::votes"#;
        let via_plan = plan_nodes(&mut s, q);
        let via_interp = interp_nodes(&mut s, q);
        assert_eq!(via_plan, via_interp);
        assert_eq!(via_plan.len(), 6);
    }

    #[test]
    fn content_entry_rewrite_fires() {
        let s = stored();
        let Expr::Path(p) = parse_query(
            r#"document("m")/{red}descendant::movie[{red}child::name = "Movie 3 Eve"]"#,
        )
        .unwrap() else {
            panic!()
        };
        let plan = plan_path(&s, &p, true).unwrap();
        let text = plan.explain(&s);
        assert!(text.contains("content-index entry"), "{text}");
        let out = exec(&plan, &s, 1);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn content_entry_only_where_equality_is_string_equality() {
        let mut s = stored();
        for (q, entry) in [
            (r#"document("m")/{red}descendant::movie[{red}child::name = "Movie 3 Eve"]"#, true),
            (r#"document("m")/{green}descendant::movie[{green}child::votes = "8"]"#, false),
            (r#"document("m")/{green}descendant::movie[{green}child::votes = 8]"#, false),
            (r#"document("m")/{green}descendant::movie[{red}child::name = "Movie 4 Day"]"#, false),
        ] {
            let Expr::Path(p) = parse_query(q).unwrap() else { panic!("{q}") };
            let text = plan_path(&s, &p, true).unwrap().explain(&s);
            assert_eq!(text.contains("content-index entry"), entry, "{q}\n{text}");
            let want = interp_nodes(&mut s, q);
            assert_eq!(want.len(), 1, "{q}");
            assert_eq!(plan_nodes(&mut s, q), want, "{q}");
        }
    }

    #[test]
    fn contentless_elements_compare_by_string_value() {
        // root > a > b > c, only c holds text: a and b have no content
        // of their own, so their value is their red string-value, "7".
        let mut db = MctDatabase::new();
        let red = db.add_color("red");
        let mut parent = McNodeId::DOCUMENT;
        for tag in ["root", "a", "b", "c"] {
            let n = db.new_element(tag, red);
            db.append_child(parent, n, red);
            parent = n;
        }
        db.set_content(parent, "7");
        let mut s = StoredDb::build(db, 1024 * 1024).unwrap();
        for q in [
            r#"document("d")/{red}descendant::a[. > 5]"#,
            r#"document("d")/{red}descendant::a[. = "7"]"#,
            r#"document("d")/{red}descendant::a[contains(., "7")]"#,
            r#"document("d")/{red}descendant::a[{red}child::b > 5]"#,
            r#"document("d")/{red}descendant::a[{red}child::b = "7"]"#,
            r#"document("d")/{red}child::root/{red}child::a[{red}child::b = "7"]"#,
            r#"document("d")/{red}descendant::a[{red}child::b = "8"]"#,
        ] {
            let want = interp_nodes(&mut s, q);
            assert_eq!(plan_nodes(&mut s, q), want, "{q}");
            assert_eq!(want.len(), usize::from(!q.contains("\"8\"")), "{q}");
        }
    }

    #[test]
    fn explain_is_readable() {
        let s = stored();
        let Expr::Path(p) = parse_query(
            r#"document("m")/{green}descendant::movie[{green}child::votes > 8]/{red}child::name"#,
        )
        .unwrap() else {
            panic!()
        };
        let plan = plan_path(&s, &p, false).unwrap();
        let text = plan.explain(&s);
        assert!(text.contains("holistic chain join"), "{text}");
        assert!(text.contains("cross-tree join"), "{text}");
    }

    #[test]
    fn parallel_execution_is_byte_identical() {
        let s = stored();
        for q in [
            r#"document("m")/{red}descendant::movie/{red}child::name"#,
            r#"document("m")/{red}descendant::movie[contains({red}child::name, "Eve")]"#,
            r#"document("m")/{red}descendant::movie/{green}child::votes"#,
            r#"document("m")/{green}descendant::movie[{green}child::votes > 8]/{red}child::name"#,
        ] {
            let Expr::Path(p) = parse_query(q).unwrap() else { panic!("{q}") };
            let plan = plan_path(&s, &p, true).unwrap();
            let seq = exec(&plan, &s, 1);
            for threads in [2, 4] {
                let par = plan.execute_shared(&s, threads, None).unwrap();
                assert_eq!(par, seq, "{q} threads={threads}");
            }
            let (analyzed, report) = plan.execute_shared_analyze(&s, 4, None).unwrap();
            assert_eq!(analyzed, seq, "{q} analyze");
            assert_eq!(report.rows as usize, seq.len());
        }
    }

    #[test]
    fn execute_shared_analyze_matches_and_reports_stages() {
        let s = stored();
        let q = r#"document("m")/{green}descendant::movie[{green}child::votes > 8]/{red}child::name"#;
        let Expr::Path(p) = parse_query(q).unwrap() else { panic!("{q}") };
        let plan = plan_path(&s, &p, true).unwrap();
        let seq = exec(&plan, &s, 1);
        let (shared, report) = plan.execute_shared_analyze(&s, 2, None).unwrap();
        assert_eq!(shared, seq, "analyze must not change the result");
        assert_eq!(report.rows as usize, seq.len());
        assert!(!report.stages.is_empty());
        // The rendered tree is the same shape EXPLAIN prints, with
        // actuals appended per stage.
        let text = report.render();
        assert!(text.contains("holistic chain join"), "{text}");
        assert!(text.contains("rows "), "{text}");
        assert!(text.contains("total: "), "{text}");
    }

    /// A plan prepared before a change sees it: the store's mutators
    /// leave every color annotated, so the plan runs and finds the new
    /// node.
    #[test]
    fn execute_shared_sees_a_node_attached_after_planning() {
        let mut s = stored();
        let Expr::Path(p) =
            parse_query(r#"document("m")/{red}descendant::movie"#).unwrap()
        else {
            panic!()
        };
        let plan = plan_path(&s, &p, true).unwrap();
        let before = plan.execute_shared(&s, 1, None).unwrap().len();
        let red = s.db.color("red").unwrap();
        let genre = s.postings_named(red, "movie-genre").unwrap()[0].node;
        let m = s.new_element("movie", None, &[]);
        s.attach(genre, &[m], &Default::default(), red).unwrap();
        let after = plan.execute_shared(&s, 1, None).unwrap();
        assert_eq!(after.len(), before + 1);
        assert!(after.iter().any(|t| t[0].node == m));
    }

    #[test]
    fn cancelled_execution_returns_cancelled() {
        let s = stored();
        let Expr::Path(p) =
            parse_query(r#"document("m")/{red}descendant::movie/{red}child::name"#).unwrap()
        else {
            panic!()
        };
        let plan = plan_path(&s, &p, true).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let r = plan.execute_shared(&s, 2, Some(&token));
        assert!(matches!(r, Err(mct_storage::StorageError::Cancelled)), "{r:?}");
    }

    #[test]
    fn unsupported_constructs_are_reported() {
        let s = stored();
        let Expr::Path(p) = parse_query(r#"$v/{red}child::movie"#).unwrap() else {
            panic!()
        };
        assert!(matches!(
            plan_path(&s, &p, true),
            Err(PlanError::Unsupported(_))
        ));
        let Expr::Path(p2) =
            parse_query(r#"document("m")/{red}descendant::movie/{red}ancestor::movie-genre"#)
                .unwrap()
        else {
            panic!()
        };
        assert!(plan_path(&s, &p2, true).is_err(), "ancestor not planned");
    }

    #[test]
    fn unknown_color_is_reported() {
        let s = stored();
        let Expr::Path(p) = parse_query(r#"document("m")/{mauve}descendant::movie"#).unwrap()
        else {
            panic!()
        };
        assert!(matches!(
            plan_path(&s, &p, true),
            Err(PlanError::UnknownColor(_))
        ));
    }
}
