//! Morsel-driven parallel execution for the read-only operator path.
//!
//! The repo vendors no thread-pool crate, so [`run_morsels`] *is* the
//! pool: a [`std::thread::scope`] of workers pulling chunk indexes
//! from a shared atomic cursor until the work list drains (the
//! morsel-at-a-time scheduling of Leis et al.). Chunk results merge
//! back **in chunk order**, so every operator that fans out over it —
//! [`holistic_chain_par`] here, [`ops::cross_tree_op`], the planner's
//! predicate filters — is output-identical to its sequential path.
//!
//! Work is partitioned by node-id range: posting lists and tuple
//! streams are sorted by `code.start`, so a contiguous index chunk is
//! a contiguous range of the colored tree. Two facts make range
//! partitioning exact for structural joins:
//!
//! 1. interval codes are nested-or-disjoint, so every chain match is
//!    rooted at exactly one entry of the root posting list, and
//! 2. all descendants of a root `r` have starts inside
//!    `(r.start, r.end)`, so a chunk only needs the slice of each
//!    inner list covered by its own roots' window.
//!
//! All probes go through `&StoredDb`: the buffer pool is internally
//! synchronized and the store is always annotated, so the fan-out
//! phase is read-only.

use crate::ops::{self, Rel, Tuple};
use mct_core::StructRef;
use mct_storage::StorageError;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// A cooperative cancellation token: an explicit [`CancelToken::cancel`]
/// or an elapsed deadline makes every subsequent [`CancelToken::check`]
/// fail with [`StorageError::Cancelled`]. Operators consult the token
/// at morsel boundaries (and the plan driver at stage boundaries), so a
/// cancelled query stops within one morsel's worth of work — the
/// serving layer's per-request deadline mechanism.
///
/// Cloning is cheap (`Arc`); all clones observe the same state.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

#[derive(Debug, Default)]
struct CancelInner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that only cancels explicitly.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A token that auto-cancels once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken {
            inner: Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                deadline: Some(deadline),
            }),
        }
    }

    /// A token that auto-cancels `timeout` from now.
    pub fn after(timeout: std::time::Duration) -> CancelToken {
        CancelToken::with_deadline(Instant::now() + timeout)
    }

    /// Cancel explicitly; idempotent.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether the token has been cancelled or its deadline elapsed.
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        match self.inner.deadline {
            Some(d) if Instant::now() >= d => {
                // Latch so later checks skip the clock read.
                self.inner.cancelled.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// `Err(StorageError::Cancelled)` once cancelled, `Ok(())` before.
    pub fn check(&self) -> mct_storage::Result<()> {
        if self.is_cancelled() {
            Err(StorageError::Cancelled)
        } else {
            Ok(())
        }
    }
}

/// Check an optional token (the pervasive `cancel: Option<&CancelToken>`
/// parameter): `None` never cancels.
#[inline]
pub fn check_cancel(cancel: Option<&CancelToken>) -> mct_storage::Result<()> {
    match cancel {
        Some(t) => t.check(),
        None => Ok(()),
    }
}

/// Smallest worthwhile morsel: below this, scheduling overhead beats
/// the win, and operators fall back to their sequential twins.
pub const MIN_MORSEL: usize = 64;

/// Split `len` items into contiguous ranges of roughly equal size —
/// about four morsels per worker so fast workers steal the tail, but
/// never smaller than [`MIN_MORSEL`].
pub fn chunk_ranges(len: usize, threads: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let step = len.div_ceil(threads.max(1) * 4).max(MIN_MORSEL.min(len));
    (0..len.div_ceil(step))
        .map(|i| i * step..((i + 1) * step).min(len))
        .collect()
}

/// Run `work(chunk_index)` for every index in `0..chunks` across up to
/// `threads` scoped worker threads, returning the chunk outputs in
/// chunk order. On failure the error of the lowest-indexed failing
/// chunk is returned; workers stop claiming new morsels as soon as any
/// chunk fails.
pub fn run_morsels<R, E, F>(threads: usize, chunks: usize, work: F) -> Result<Vec<R>, E>
where
    R: Send,
    E: Send,
    F: Fn(usize) -> Result<R, E> + Sync,
{
    let threads = threads.max(1).min(chunks);
    if threads <= 1 {
        return (0..chunks).map(&work).collect();
    }
    let cursor = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let done: Mutex<Vec<(usize, Result<R, E>)>> = Mutex::new(Vec::with_capacity(chunks));
    // Forward the serving layer's request tag (thread-local) into the
    // workers, so spans and diagnostics emitted inside a morsel still
    // name the request they run for.
    let request_id = mct_obs::trace::current_request_id();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let _req = mct_obs::trace::request_scope(request_id);
                let mut local = Vec::new();
                loop {
                    if failed.load(Ordering::Relaxed) {
                        break;
                    }
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= chunks {
                        break;
                    }
                    let r = work(i);
                    if r.is_err() {
                        failed.store(true, Ordering::Relaxed);
                    }
                    local.push((i, r));
                }
                done.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .extend(local);
            });
        }
    });
    let mut results = done.into_inner().unwrap_or_else(PoisonError::into_inner);
    results.sort_by_key(|(i, _)| *i);
    // Every claimed chunk produced a result and claims are sequential,
    // so results are a prefix of 0..chunks containing any error.
    let mut out = Vec::with_capacity(chunks);
    for (_, r) in results {
        out.push(r?);
    }
    debug_assert_eq!(out.len(), chunks, "no error implies full coverage");
    Ok(out)
}

/// Parallel PathStack chain join over `lists` (see
/// [`ops::holistic_path_join`]). The root list is cut into contiguous
/// morsels; each inner list is narrowed by binary search to the
/// chunk's window `[first root start, max root end]`, which covers
/// every descendant of the chunk's roots, and the chunk joins
/// independently. The concatenation (in chunk order) is the exact
/// multiset of the sequential output; tuple order may differ when
/// root subtrees nest across a chunk boundary, so order-sensitive
/// callers re-sort (the planner's Chain stage sorts its projected
/// column, making plan output byte-identical).
pub fn holistic_chain_par(
    lists: &[Vec<StructRef>],
    rels: &[Rel],
    threads: usize,
    cancel: Option<&CancelToken>,
) -> mct_storage::Result<Vec<Tuple>> {
    assert_eq!(lists.len(), rels.len() + 1, "k+1 lists need k relations");
    check_cancel(cancel)?;
    if threads <= 1 || lists.len() == 1 || lists[0].len() < 2 * MIN_MORSEL {
        return Ok(ops::holistic_path_join(lists, rels));
    }
    let roots = &lists[0];
    let ranges = chunk_ranges(roots.len(), threads);
    let chunks = run_morsels(threads, ranges.len(), |ci| {
        check_cancel(cancel)?;
        let chunk_roots = roots[ranges[ci].clone()].to_vec();
        let lo = chunk_roots[0].code.start;
        let hi = chunk_roots.iter().map(|r| r.code.end).max().expect("nonempty chunk");
        let mut sub: Vec<Vec<StructRef>> = Vec::with_capacity(lists.len());
        sub.push(chunk_roots);
        for list in &lists[1..] {
            let from = list.partition_point(|r| r.code.start < lo);
            let to = list.partition_point(|r| r.code.start <= hi);
            sub.push(list[from..to].to_vec());
        }
        Ok::<_, StorageError>(ops::holistic_path_join(&sub, rels))
    })?;
    Ok(chunks.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mct_core::{McNodeId, MctDatabase};
    use std::sync::atomic::AtomicU64;

    #[test]
    fn chunk_ranges_cover_exactly() {
        for len in [0usize, 1, 63, 64, 65, 1000, 4097] {
            for threads in [1usize, 2, 4, 8] {
                let ranges = chunk_ranges(len, threads);
                let mut at = 0;
                for r in &ranges {
                    assert_eq!(r.start, at, "contiguous");
                    assert!(r.end > r.start, "nonempty");
                    at = r.end;
                }
                assert_eq!(at, len, "covers len={len}");
            }
        }
    }

    #[test]
    fn morsels_merge_in_chunk_order() {
        let out = run_morsels::<_, std::convert::Infallible, _>(4, 37, |i| Ok(i * i)).unwrap();
        assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn morsels_propagate_first_error() {
        let ran = AtomicU64::new(0);
        let r = run_morsels(4, 100, |i| {
            ran.fetch_add(1, Ordering::Relaxed);
            if i == 13 {
                Err(format!("chunk {i}"))
            } else {
                Ok(i)
            }
        });
        assert_eq!(r.unwrap_err(), "chunk 13");
        assert!(ran.load(Ordering::Relaxed) < 100, "workers stop after a failure");
    }

    #[test]
    fn morsels_single_thread_is_plain_iteration() {
        let out = run_morsels::<_, (), _>(1, 5, Ok).unwrap();
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    /// One red hierarchy, 500 sections each holding a couple of
    /// paragraphs; every third section is also green. Big enough that
    /// the parallel operators actually fan out (> 2·MIN_MORSEL roots).
    fn big_stored() -> mct_core::StoredDb {
        let mut db = MctDatabase::new();
        let red = db.add_color("red");
        let green = db.add_color("green");
        let root = db.new_element("book", red);
        db.append_child(McNodeId::DOCUMENT, root, red);
        let groot = db.new_element("shelf", green);
        db.append_child(McNodeId::DOCUMENT, groot, green);
        for i in 0..500 {
            let s = db.new_element("section", red);
            db.append_child(root, s, red);
            for j in 0..(1 + i % 3) {
                let p = db.new_element("para", red);
                db.set_content(p, &format!("text {i}.{j}"));
                db.append_child(s, p, red);
            }
            if i % 3 == 0 {
                db.add_node_color(s, green);
                db.append_child(groot, s, green);
            }
        }
        mct_core::StoredDb::build(db, 32 * 1024 * 1024).unwrap()
    }

    fn sort_tuples(mut ts: Vec<Tuple>) -> Vec<Tuple> {
        ts.sort_by_key(|t| t.iter().map(|r| r.code.start).collect::<Vec<_>>());
        ts
    }

    #[test]
    fn parallel_chain_matches_sequential() {
        let s = big_stored();
        let red = s.db.color("red").unwrap();
        let sections = s.postings_named(red, "section").unwrap();
        let paras = s.postings_named(red, "para").unwrap();
        assert!(sections.len() >= 2 * MIN_MORSEL, "fixture must fan out");
        let lists = [sections, paras];
        let rels = [Rel::Child];
        let seq = sort_tuples(ops::holistic_path_join(&lists, &rels));
        assert!(!seq.is_empty());
        for threads in [2, 4, 8] {
            let par = sort_tuples(holistic_chain_par(&lists, &rels, threads, None).unwrap());
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn cancelled_token_aborts_parallel_operators() {
        let s = big_stored();
        let red = s.db.color("red").unwrap();
        let green = s.db.color("green").unwrap();
        let sections = s.postings_named(red, "section").unwrap();
        let paras = s.postings_named(red, "para").unwrap();
        let token = CancelToken::new();
        token.cancel();
        assert!(token.is_cancelled());
        let lists = [sections.clone(), paras];
        let r = holistic_chain_par(&lists, &[Rel::Child], 4, Some(&token));
        assert!(matches!(r, Err(StorageError::Cancelled)), "{r:?}");
        let input: Vec<Tuple> = sections.into_iter().map(|r| vec![r]).collect();
        let r = ops::cross_tree_op(&s, input, 0, green, 4, Some(&token));
        assert!(matches!(r, Err(StorageError::Cancelled)), "{r:?}");
    }

    #[test]
    fn deadline_token_latches_after_expiry() {
        let token = CancelToken::after(std::time::Duration::ZERO);
        assert!(token.check().is_err(), "zero deadline is already expired");
        let far = CancelToken::after(std::time::Duration::from_secs(3600));
        assert!(far.check().is_ok());
        far.cancel();
        assert!(far.check().is_err(), "explicit cancel wins over deadline");
        // Clones share state.
        let clone = token.clone();
        assert!(clone.is_cancelled());
    }

    #[test]
    fn parallel_chain_with_roots_nesting_across_chunks() {
        // 400 nested `div`s: a `div//div` chain where every root's
        // subtree spans every later chunk — the adversarial case for
        // window narrowing.
        let mut db = MctDatabase::new();
        let c = db.add_color("black");
        let mut parent = McNodeId::DOCUMENT;
        for _ in 0..400 {
            let d = db.new_element("div", c);
            db.append_child(parent, d, c);
            parent = d;
        }
        let s = mct_core::StoredDb::build(db, 32 * 1024 * 1024).unwrap();
        let divs = s.postings_named(c, "div").unwrap();
        let lists = [divs.clone(), divs];
        let rels = [Rel::Descendant];
        let seq = sort_tuples(ops::holistic_path_join(&lists, &rels));
        assert_eq!(seq.len(), 400 * 399 / 2, "all strict ancestor pairs");
        for threads in [2, 4, 8] {
            let par = sort_tuples(holistic_chain_par(&lists, &rels, threads, None).unwrap());
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn parallel_cross_tree_is_byte_identical() {
        let s = big_stored();
        let red = s.db.color("red").unwrap();
        let green = s.db.color("green").unwrap();
        let input: Vec<Tuple> = s
            .postings_named(red, "section")
            .unwrap()
            .into_iter()
            .map(|r| vec![r])
            .collect();
        let seq = ops::cross_tree_op(&s, input.clone(), 0, green, 1, None).unwrap();
        assert!(!seq.is_empty());
        for threads in [2, 4, 8] {
            let par = ops::cross_tree_op(&s, input.clone(), 0, green, threads, None).unwrap();
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn small_inputs_fall_back_to_sequential() {
        // Below 2·MIN_MORSEL the operator probes in one pass.
        let s = big_stored();
        let green = s.db.color("green").unwrap();
        let few: Vec<Tuple> = s
            .postings_named(green, "section")
            .unwrap()
            .into_iter()
            .take(10)
            .map(|r| vec![r])
            .collect();
        let a = ops::cross_tree_op(&s, few.clone(), 0, green, 8, None).unwrap();
        let b = ops::cross_tree_op(&s, few, 0, green, 1, None).unwrap();
        assert_eq!(a, b);
    }
}
