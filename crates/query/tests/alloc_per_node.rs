//! The interpreter allocates per query, not per node.
//!
//! A counting global allocator measures one evaluation of a predicate
//! path and of a FLWOR with a `where` on stores of 200 and of 2 000
//! `customer` elements. Ten times the candidates must cost the same
//! number of allocations, up to the few extra regrowths of the vectors
//! that hold the candidates.

use mct_core::{McNodeId, MctDatabase, StoredDb};
use mct_query::{eval, parse_query, EvalContext};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Vector regrowth between 200 and 2 000 candidates.
const SLACK: usize = 16;

/// `customers > customer* > (uname, name)` in one color `c`.
fn store(customers: usize) -> StoredDb {
    let mut db = MctDatabase::new();
    let c = db.add_color("c");
    let root = db.new_element("customers", c);
    db.append_child(McNodeId::DOCUMENT, root, c);
    for i in 0..customers {
        let cust = db.new_element("customer", c);
        db.append_child(root, cust, c);
        for (tag, text) in [("uname", format!("u{i}")), ("name", format!("Customer {i}"))] {
            let k = db.new_element(tag, c);
            db.set_content(k, &text);
            db.append_child(cust, k, c);
        }
    }
    StoredDb::build(db, 8 << 20).unwrap()
}

/// Allocations made by one evaluation of `query` over `s`, and its
/// answer's length.
fn allocations(s: &StoredDb, query: &str) -> (usize, usize) {
    let e = parse_query(query).unwrap();
    let before = ALLOCS.load(Ordering::Relaxed);
    let mut ctx = EvalContext::shared(s).with_default_color("c").unwrap();
    let out = eval(&mut ctx, &e).unwrap();
    let n = ALLOCS.load(Ordering::Relaxed) - before;
    (n, out.len())
}

/// One test, so that no other test allocates while it counts.
#[test]
fn evaluation_allocates_per_query_not_per_candidate() {
    let (small, large) = (store(200), store(2_000));
    for query in [
        r#"document("d")/descendant::customer[child::uname = "u7"]"#,
        r#"for $c in document("d")/descendant::customer where $c/child::uname = "u7" return $c"#,
    ] {
        let (a, rows_a) = allocations(&small, query);
        let (b, rows_b) = allocations(&large, query);
        assert_eq!((rows_a, rows_b), (1, 1), "{query}");
        assert!(
            a.abs_diff(b) <= SLACK,
            "{query}: {a} allocations over 200 customers, {b} over 2 000"
        );
    }
}
