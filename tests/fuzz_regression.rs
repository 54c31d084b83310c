//! Replays every minimized mctfuzz repro in `tests/corpus/` across
//! all five execution surfaces (naive oracle, planned, parallel,
//! served, replica), so each one stays a permanent regression test.
//!
//! The corpus holds the organic bugs mctfuzz found when it was first
//! turned on — a planner leading-`child::` axis treated as a
//! descendant scan, a panic on the second delete of one color in a
//! single update, a panic replacing the value of the document node —
//! the bugs its insert-existing form found (a second content record
//! orphaned in the heap; a panic inserting a node into a color it
//! already occurs in), plus hand-planted tricky cases
//! (`mctfuzz --plant`). To add an
//! entry: run `mctfuzz`, and on failure the minimized `.xml` + `.mcx`
//! pair lands here; commit it.

use std::path::{Path, PathBuf};

use mct_sim::diff::{DiffConfig, SurfaceSet};
use mct_sim::{corpus, run_fault_case};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

#[test]
fn corpus_replays_clean_on_all_surfaces() {
    let entries = corpus::entries(&corpus_dir()).expect("read tests/corpus");
    assert!(
        !entries.is_empty(),
        "tests/corpus must contain at least one repro (run `mctfuzz --plant tests/corpus`)"
    );
    let cfg = DiffConfig {
        threads: 3,
        surfaces: SurfaceSet::all(),
    };
    for mcx in entries {
        corpus::replay(&mcx, &cfg).unwrap_or_else(|e| panic!("{}: {e}", mcx.display()));
    }
}

#[test]
fn corpus_replays_clean_under_fault_schedule() {
    let entries = corpus::entries(&corpus_dir()).expect("read tests/corpus");
    for mcx in entries {
        let ops = corpus::load_ops(&std::fs::read_to_string(&mcx).unwrap())
            .unwrap_or_else(|e| panic!("{}: {e}", mcx.display()));
        let xml = mcx.with_extension("xml");
        let db = corpus::load_doc(&std::fs::read_to_string(&xml).unwrap())
            .unwrap_or_else(|e| panic!("{}: {e}", xml.display()));
        // A fixed per-entry seed keeps the fault schedule stable.
        let seed = 0xC0FF_EE00 + ops.len() as u64;
        run_fault_case(&db, &ops, seed).unwrap_or_else(|d| panic!("{}: {d}", mcx.display()));
    }
}
