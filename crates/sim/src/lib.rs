//! # mct-sim — deterministic differential fuzzing for the MCT stack
//!
//! The harness behind `mctfuzz` (DESIGN.md §17). One seed fully
//! determines a **case**: a random multi-colored store plus a short
//! program of MCXQuery reads and updates. The case runs on every
//! execution surface the repo has grown — the navigational interpreter
//! (the oracle), the physical planner, the morsel-parallel executor,
//! the mctd HTTP path, and a live WAL-shipped replica — and any
//! disagreement, panic, or `mctck` violation is a failing case, which
//! the delta-debugging minimizer shrinks to a self-contained repro
//! (`.xml` + `.mcx`) for `tests/corpus/`.
//!
//! * [`gen`] — seeded document / query / update / token-soup generators
//! * [`diff`] — the five-surface differential runner
//! * [`shrink`] — delta-debugging minimizer (document + AST)
//! * [`corpus`] — repro files, corpus replay, hand-planted cases
//! * [`fault`] — fault-schedule mode (crash points + txn aborts)

pub mod corpus;
pub mod diff;
pub mod fault;
pub mod gen;
pub mod shrink;

pub use diff::{run_case, CaseOp, DiffConfig, Divergence, SurfaceSet};
pub use fault::run_fault_case;
pub use gen::{gen_doc, gen_query, gen_soup, gen_update, DocSpec, NodeSpec};
pub use shrink::{live_elements, max_steps, minimize, Shrunk};

use mct_workloads::rng::XorShiftRng;

/// The absolute seed of case `idx` under run seed `seed` — what a
/// failure report prints, and what `--seed` accepts to replay exactly
/// one case (with `--cases 1`).
pub fn case_seed(seed: u64, idx: u64) -> u64 {
    seed ^ (idx.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Generate one full case from its absolute seed: a document and 2–6
/// ops (~60% queries, ~40% updates).
pub fn gen_case(case_seed: u64) -> (DocSpec, Vec<CaseOp>) {
    let mut rng = XorShiftRng::seed_from_u64(case_seed);
    let doc = gen_doc(&mut rng);
    let nops = rng.gen_range(2..=6usize);
    let ops = (0..nops)
        .map(|_| {
            if rng.gen_bool(0.6) {
                CaseOp::Query(gen_query(&mut rng, &doc))
            } else {
                CaseOp::Update(gen_update(&mut rng, &doc))
            }
        })
        .collect();
    (doc, ops)
}

/// The parser-robustness invariant (satellite of ISSUE 10): random
/// token soup must never panic the lexer/parser and must always yield
/// a typed error with an in-bounds position. Returns `Err` with the
/// offending soup on violation.
pub fn check_soup(text: &str) -> Result<(), String> {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let check_offset = |off: usize| off <= text.len();
    match catch_unwind(AssertUnwindSafe(|| mct_query::parse_query(text))) {
        Err(_) => return Err(format!("parse_query panicked on {text:?}")),
        Ok(Err(e)) if !check_offset(e.offset) => {
            return Err(format!(
                "parse_query error offset {} out of bounds for {text:?}",
                e.offset
            ))
        }
        Ok(_) => {}
    }
    match catch_unwind(AssertUnwindSafe(|| mct_query::parse_update(text))) {
        Err(_) => return Err(format!("parse_update panicked on {text:?}")),
        Ok(Err(e)) if !check_offset(e.offset) => {
            return Err(format!(
                "parse_update error offset {} out of bounds for {text:?}",
                e.offset
            ))
        }
        Ok(_) => {}
    }
    Ok(())
}
