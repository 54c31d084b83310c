//! # mct-query — the MCXQuery language and engine
//!
//! The query side of the MCT system (§4 of the paper):
//!
//! * [`ast`] — MCXQuery abstract syntax (color-decorated steps, FLWOR,
//!   constructors, updates) and the Figure 11/12 complexity metrics.
//! * [`parser`] — recursive-descent parser for the MCXQuery subset.
//! * [`ops`] — the physical operator algebra: stack-tree structural
//!   join, PathStack holistic chain join (branching patterns split
//!   into chains joined on the branch element), hash value join,
//!   nested-loop inequality join, cross-tree (color transition)
//!   operator, selections, duplicate elimination.
//! * [`mod@eval`] — the navigational interpreter (FLWOR, identity-
//!   preserving construction, `createColor` / `createCopy`, the
//!   duplicate-occurrence dynamic error).
//! * [`plan`] — a heuristic physical planner for colored path
//!   expressions (the paper's "future work" optimizer): single-color
//!   chains run holistically, color changes become cross-tree joins.
//! * [`exec`] — morsel-driven parallel execution: a scoped-thread
//!   worker pool partitioning posting lists and cross-tree join
//!   inputs by node-id range, output-identical to the sequential
//!   operators.
//! * [`update`] — two-phase color-aware update execution.
//!
//! The paper's §7 tables use hand-written plans over [`ops`] — the
//! paper "manually specified the query plan, always choosing the one
//! expected to be the best" — while `mctd` serves every FLWOR through
//! the interpreter.

pub mod ast;
pub mod eval;
pub mod exec;
pub mod ops;
pub mod parser;
pub mod plan;
pub mod update;

pub use ast::{complexity, update_complexity, Complexity, Expr, UpdateStmt};
pub use eval::{eval, EvalContext, EvalError, Item, Sequence};
pub use exec::CancelToken;
pub use ops::{Rel, Tuple};
pub use parser::{parse_query, parse_update, QueryParseError, MAX_NESTING};
pub use plan::{plan_path, AnalyzeReport, PathPlan, PlanError, StageStats};
pub use update::{execute_update, execute_update_with, UpdateOutcome};
