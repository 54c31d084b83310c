//! Color-aware update execution (§4.3).
//!
//! MCXQuery updates follow Tatarinov et al. (reference 25 of the
//! paper): `for`/`let`
//! bindings, a `where` filter, and an `update $target { ... }` body
//! with `delete` / `insert` / `replace value of` actions. As in that
//! proposal (and XQuery Update later), evaluation is two-phase: all
//! binding tuples are evaluated against the *original* database into a
//! pending update list, which is then applied — so updates never
//! observe their own effects.
//!
//! Color semantics per the paper: each action operates on *existing*
//! colored trees; the color is the one the target path located its
//! node in. A `delete` removes the node's whole subtree from that
//! colored tree only (other colors keep the node — no update anomaly);
//! an `insert` appends under the target in its colored tree,
//! implicitly giving new nodes that existing color.

use crate::ast::{UpdateAction, UpdateStmt};
use crate::eval::{bind_tuples, value, EvalContext, EvalError, EvalResult, Item, Materializer};
use mct_storage::DiskManager;
use mct_core::{ColorId, McNodeId, StoredDb};

/// One concrete pending update.
#[derive(Debug)]
enum Pending {
    Delete(McNodeId, ColorId),
    /// The fragment's roots: stored nodes and built elements.
    Insert {
        target: McNodeId,
        color: ColorId,
        roots: Vec<Item>,
    },
    Replace(McNodeId, String),
}

/// What an update did: how many binding tuples produced updates, and
/// how many elements were touched (the paper's Table-2 "results"
/// column for updates — deep's replication shows up here).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// Binding tuples that emitted at least one action.
    pub tuples: usize,
    /// Individual pending updates applied (elements touched).
    pub elements: usize,
}

/// Execute an update statement. Returns the number of binding tuples
/// that produced updates (the paper's "number of elements updated" is
/// available via [`execute_update_with`]).
pub fn execute_update<D: DiskManager>(stored: &mut StoredDb<D>, u: &UpdateStmt) -> EvalResult<usize> {
    execute_update_with(stored, u, None).map(|o| o.tuples)
}

/// [`execute_update`] with a default color for color-less steps
/// (plain-XQuery updates over single-colored databases) and the full
/// outcome.
///
/// The whole statement — both evaluation phases — runs inside one
/// [`StoredDb`] transaction: on any error (or panic) the store rolls
/// back to its pre-statement state, byte-identical across heaps,
/// indexes, and the logical trees; on success the batch commits (and,
/// when a WAL is attached, becomes durable as one unit).
pub fn execute_update_with<D: DiskManager>(
    stored: &mut StoredDb<D>,
    u: &UpdateStmt,
    default_color: Option<&str>,
) -> EvalResult<UpdateOutcome> {
    stored.with_txn(|s| apply_update(s, u, default_color))
}

/// The non-transactional body of [`execute_update_with`].
fn apply_update<D: DiskManager>(
    stored: &mut StoredDb<D>,
    u: &UpdateStmt,
    default_color: Option<&str>,
) -> EvalResult<UpdateOutcome> {
    // Phase 1: evaluate into a pending list.
    let mut pending: Vec<Pending> = Vec::new();
    let mut tuples = 0usize;
    {
        let mut ctx = EvalContext::new(stored);
        if let Some(c) = default_color {
            ctx = ctx.with_default_color(c)?;
        }
        bind_tuples(&mut ctx, &u.clauses, u.where_.as_deref(), &mut |ctx| {
            tuples += usize::from(collect(ctx, u, &mut pending)?);
            Ok(())
        })?;
    }
    let elements = pending
        .iter()
        .map(|p| match p {
            Pending::Insert { roots, .. } => roots.len(),
            _ => 1,
        })
        .sum();
    // Phase 2: apply. Built elements become stored nodes here, each
    // once across the statement.
    let mut made = Materializer::default();
    for p in pending {
        match p {
            Pending::Replace(n, v) => stored.update_content(n, &v)?,
            Pending::Delete(n, c) => stored.detach(n, c)?,
            Pending::Insert {
                target,
                color,
                roots,
            } => {
                let roots: Vec<McNodeId> =
                    roots.iter().filter_map(|r| made.node(stored, r)).collect();
                stored.attach(target, &roots, &made.edges, color)?
            }
        }
    }
    Ok(UpdateOutcome { tuples, elements })
}

/// The pending updates of one bound tuple; whether it emitted any.
fn collect<D: DiskManager>(
    ctx: &mut EvalContext<'_, D>,
    u: &UpdateStmt,
    out: &mut Vec<Pending>,
) -> EvalResult<bool> {
    // Resolve the target binding.
    let Some(Item::Node(target, target_color)) = ctx
        .var(&u.target)
        .ok_or_else(|| EvalError::UnknownVar(u.target.clone()))?
        .first()
        .cloned()
    else {
        return Err(EvalError::Dynamic("update target is not a node".into()));
    };
    let mut emitted = false;
    for action in &u.actions {
        match action {
            UpdateAction::ReplaceValue(what, with) => {
                let nodes = value(ctx, what)?;
                let vseq = value(ctx, with)?;
                let v = vseq.first().map(|i| crate::eval::atomize(ctx, i)).unwrap_or_default();
                for item in nodes {
                    if let Item::Node(n, _) = item {
                        if n == McNodeId::DOCUMENT {
                            return Err(EvalError::Dynamic(
                                "replace value target is the document node".into(),
                            ));
                        }
                        out.push(Pending::Replace(n, v.clone()));
                        emitted = true;
                    }
                }
            }
            UpdateAction::Delete(what) => {
                for item in value(ctx, what)? {
                    if let Item::Node(n, c) = item {
                        if n == McNodeId::DOCUMENT {
                            return Err(EvalError::Dynamic("cannot delete the document node".into()));
                        }
                        let c = c.or(target_color).ok_or(EvalError::NoColor)?;
                        out.push(Pending::Delete(n, c));
                        emitted = true;
                    }
                }
            }
            UpdateAction::Insert(what) => {
                let c = target_color.ok_or(EvalError::NoColor)?;
                let mut roots = value(ctx, what)?;
                roots.retain(|item| matches!(item, Item::Node(..) | Item::Built(_)));
                if !roots.is_empty() {
                    out.push(Pending::Insert {
                        target,
                        color: c,
                        roots,
                    });
                    emitted = true;
                }
            }
        }
    }
    Ok(emitted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_update;
    use mct_core::{McNodeId, MctDatabase};

    /// genre(red) with 5 movies; award(green) holds movies 0..3.
    fn stored() -> StoredDb {
        let mut db = MctDatabase::new();
        let red = db.add_color("red");
        let green = db.add_color("green");
        let genre = db.new_element("genre", red);
        db.set_content(genre, "Comedy");
        db.append_child(McNodeId::DOCUMENT, genre, red);
        let award = db.new_element("award", green);
        db.set_content(award, "Oscar");
        db.append_child(McNodeId::DOCUMENT, award, green);
        for i in 0..5 {
            let m = db.new_element("movie", red);
            db.append_child(genre, m, red);
            let name = db.new_element("name", red);
            db.set_content(name, &format!("Movie {i}"));
            db.append_child(m, name, red);
            if i < 3 {
                db.add_node_color(m, green);
                db.append_child(award, m, green);
            }
        }
        StoredDb::build(db, 8 * 1024 * 1024).unwrap()
    }

    #[test]
    fn replace_value_updates_store_and_index() {
        let mut s = stored();
        let u = parse_update(
            r#"for $m in document("d")/{red}descendant::movie
               where $m/{red}child::name = "Movie 2"
               update $m { replace value of $m/{red}child::name with "Renamed" }"#,
        )
        .unwrap();
        assert_eq!(execute_update(&mut s, &u).unwrap(), 1);
        assert_eq!(s.content_lookup("Renamed").unwrap().len(), 1);
        assert!(s.content_lookup("Movie 2").unwrap().is_empty());
    }

    #[test]
    fn delete_removes_from_one_color_only() {
        let mut s = stored();
        let u = parse_update(
            r#"for $m in document("d")/{green}descendant::movie
               where $m/{red}child::name = "Movie 1"
               update $m { delete $m }"#,
        )
        .unwrap();
        assert_eq!(execute_update(&mut s, &u).unwrap(), 1);
        let green = s.db.color("green").unwrap();
        let red = s.db.color("red").unwrap();
        assert_eq!(s.postings_named(green, "movie").unwrap().len(), 2);
        assert_eq!(
            s.postings_named(red, "movie").unwrap().len(),
            5,
            "red hierarchy untouched — the MCT anomaly-free update"
        );
    }

    #[test]
    fn insert_constructs_under_target() {
        let mut s = stored();
        let u = parse_update(
            r#"for $m in document("d")/{red}descendant::movie
               where $m/{red}child::name = "Movie 0"
               update $m { insert <remark>classic</remark> }"#,
        )
        .unwrap();
        assert_eq!(execute_update(&mut s, &u).unwrap(), 1);
        let red = s.db.color("red").unwrap();
        let remarks = s.postings_named(red, "remark").unwrap();
        assert_eq!(remarks.len(), 1);
        let parent = s.db.parent(remarks[0].node, red).unwrap();
        assert_eq!(s.db.name_str(parent), Some("movie"));
        assert_eq!(s.content_lookup("classic").unwrap().len(), 1);
        s.db.check_invariants();
    }

    #[test]
    fn insert_multinode_fragment_renumbers() {
        let mut s = stored();
        let u = parse_update(
            r#"for $m in document("d")/{red}descendant::movie
               where $m/{red}child::name = "Movie 4"
               update $m { insert <cast><star>X</star><star>Y</star></cast> }"#,
        )
        .unwrap();
        assert_eq!(execute_update(&mut s, &u).unwrap(), 1);
        let red = s.db.color("red").unwrap();
        assert_eq!(s.postings_named(red, "cast").unwrap().len(), 1);
        assert_eq!(s.postings_named(red, "star").unwrap().len(), 2);
        // Codes stay consistent (three nodes still fit the gap).
        s.db.check_invariants();
        let stars = s.postings_named(red, "star").unwrap();
        for st in stars {
            assert_eq!(s.db.code(st.node, red).unwrap().start, st.code.start);
        }
    }

    #[test]
    fn repeated_single_inserts_survive_a_renumber_without_duplicates() {
        // Sibling code gaps run out after a couple of inserts under the
        // same parent; the next insert renumbers the color, and the
        // renumber already writes the new node's structural record —
        // writing it again must not leave an orphaned duplicate in the
        // heap (caught by the deep checker).
        let mut s = stored();
        for tag in ["first-note", "second-note", "third-note", "fourth-note"] {
            let u = parse_update(&format!(
                r#"for $m in document("d")/{{green}}descendant::movie
                   update $m {{ insert <{tag}>x</{tag}> }}"#
            ))
            .unwrap();
            assert_eq!(execute_update(&mut s, &u).unwrap(), 3);
            let report = s.check().unwrap();
            assert!(
                report.violations.is_empty(),
                "store inconsistent after inserting <{tag}>: {:?}",
                report.violations
            );
        }
        let green = s.db.color("green").unwrap();
        assert_eq!(s.postings_named(green, "third-note").unwrap().len(), 3);
    }

    /// Every node of one insert action keeps its constructed children,
    /// not only the first.
    #[test]
    fn a_multi_node_insert_keeps_every_nodes_children() {
        let mut s = stored();
        let u = parse_update(
            r#"for $m in document("d")/{red}descendant::movie
               where $m/{red}child::name = "Movie 4"
               update $m { insert (<a><zx/></a>, <b><zy/></b>) }"#,
        )
        .unwrap();
        assert_eq!(execute_update(&mut s, &u).unwrap(), 1);
        let red = s.db.color("red").unwrap();
        for tag in ["a", "zx", "b", "zy"] {
            assert_eq!(s.postings_named(red, tag).unwrap().len(), 1, "<{tag}>");
        }
        let report = s.check().unwrap();
        assert!(report.is_ok(), "{report}");
    }

    /// Inserting an existing node under a node of another color gives it
    /// that color and nothing else: its content record stays the one it
    /// had, so the heap holds no orphan, and it is reachable in both
    /// colors.
    #[test]
    fn inserting_an_existing_node_into_a_second_color_keeps_its_records() {
        let mut s = stored();
        let u = parse_update(
            r#"for $a in document("d")/{green}child::award,
                   $m in document("d")/{red}descendant::movie
               where $m/{red}child::name = "Movie 4"
               update $a { insert $m/{red}child::name }"#,
        )
        .unwrap();
        assert_eq!(execute_update(&mut s, &u).unwrap(), 1);
        let report = s.check().unwrap();
        assert!(report.is_ok(), "{report}");
        let hits = s.content_lookup("Movie 4").unwrap();
        assert_eq!(hits.len(), 1);
        let (red, green) = (s.db.color("red").unwrap(), s.db.color("green").unwrap());
        let red_parent = s.db.parent(hits[0], red).unwrap();
        let green_parent = s.db.parent(hits[0], green).unwrap();
        assert_eq!(s.db.name_str(red_parent), Some("movie"));
        assert_eq!(s.db.name_str(green_parent), Some("award"));
    }

    /// A node that already occurs in the target's color is refused with
    /// the §4.2 dynamic error, and the store is left as it was.
    #[test]
    fn inserting_a_node_already_in_the_color_is_a_duplicate() {
        let mut s = stored();
        let before = s.snapshot_catalog();
        let u = parse_update(
            r#"for $g in document("d")/{red}child::genre
               update $g { insert document("d")/{red}descendant::name }"#,
        )
        .unwrap();
        let err = execute_update(&mut s, &u).unwrap_err();
        assert!(matches!(err, EvalError::DuplicateNode(..)), "{err}");
        assert!(s.snapshot_catalog() == before);
        assert!(s.check().unwrap().is_ok());
    }

    /// An insert under a target the same statement deleted from the
    /// color is a dynamic error, and the statement rolls back whole.
    #[test]
    fn inserting_under_a_target_deleted_in_the_same_statement_is_refused() {
        let mut s = stored();
        let before = s.snapshot_catalog();
        let u = parse_update(
            r#"for $m in document("d")/{red}descendant::movie
               where $m/{red}child::name = "Movie 1"
               update $m { delete $m, insert <remark>late</remark> }"#,
        )
        .unwrap();
        let err = execute_update(&mut s, &u).unwrap_err();
        assert!(matches!(err, EvalError::Dynamic(_)), "{err}");
        assert!(s.snapshot_catalog() == before);
        assert!(s.check().unwrap().is_ok());
    }

    #[test]
    fn update_touching_many_bindings() {
        let mut s = stored();
        let u = parse_update(
            r#"for $m in document("d")/{green}descendant::movie
               update $m { insert <tag>seen</tag> }"#,
        )
        .unwrap();
        assert_eq!(execute_update(&mut s, &u).unwrap(), 3);
        let green = s.db.color("green").unwrap();
        assert_eq!(s.postings_named(green, "tag").unwrap().len(), 3);
    }

    #[test]
    fn two_phase_semantics_no_self_observation() {
        let mut s = stored();
        // Inserting <movie> elements must not create bindings for the
        // same run (phase-1 snapshot).
        let u = parse_update(
            r#"for $m in document("d")/{red}descendant::movie
               update $m { insert <movie>nested</movie> }"#,
        )
        .unwrap();
        assert_eq!(execute_update(&mut s, &u).unwrap(), 5, "exactly the original 5");
        let red = s.db.color("red").unwrap();
        assert_eq!(s.postings_named(red, "movie").unwrap().len(), 10);
    }

    use mct_storage::{BufferPool, FaultDisk, FaultInjector, MemDisk, Wal};

    /// The same database as [`stored`], on a WAL-attached pool whose
    /// disks share one fault injector (disarmed during the build).
    fn faulted_stored() -> (StoredDb<FaultDisk<MemDisk>>, FaultInjector) {
        let injector = FaultInjector::new(7);
        let data = FaultDisk::new(MemDisk::new(), injector.clone());
        let wal_disk = Box::new(FaultDisk::new(MemDisk::new(), injector.clone()));
        let wal = Wal::create(wal_disk).unwrap();
        let mut pool = BufferPool::new(data, 8 * 1024 * 1024);
        pool.attach_wal(wal);
        let mut db = MctDatabase::new();
        let red = db.add_color("red");
        let genre = db.new_element("genre", red);
        db.set_content(genre, "Comedy");
        db.append_child(McNodeId::DOCUMENT, genre, red);
        for i in 0..5 {
            let m = db.new_element("movie", red);
            db.append_child(genre, m, red);
            let name = db.new_element("name", red);
            db.set_content(name, &format!("Movie {i}"));
            db.append_child(m, name, red);
        }
        let mut s = StoredDb::build_on(pool, db).unwrap();
        s.sync().unwrap();
        (s, injector)
    }

    /// Tentpole acceptance: a storage failure at ANY write boundary
    /// during an update leaves the store exactly as it was — typed
    /// error out, rollback applied, deep check clean — and with the
    /// fault gone the very same statement succeeds.
    #[test]
    fn failed_update_rolls_back_at_every_write_boundary() {
        let text = r#"for $m in document("d")/{red}descendant::movie
                      where $m/{red}child::name = "Movie 2"
                      update $m { replace value of $m/{red}child::name with "Renamed",
                                  insert <review>good</review> }"#;
        // Fault-free reference run for the fully-applied fingerprint.
        let after = {
            let (mut s, _) = faulted_stored();
            let u = parse_update(text).unwrap();
            assert_eq!(execute_update(&mut s, &u).unwrap(), 1);
            s.digest()
        };
        let mut rollbacks = 0u32;
        for k in 0..10_000 {
            let (mut s, injector) = faulted_stored();
            let before = s.digest();
            let u = parse_update(text).unwrap();
            injector.fail_at_write(injector.writes() + k);
            match execute_update(&mut s, &u) {
                Err(EvalError::Storage(_)) => {
                    injector.disarm();
                    // Atomicity: fully absent (abort before the WAL
                    // commit point) or fully applied (flush I/O error
                    // after it) — never in between.
                    let now = s.digest();
                    assert!(
                        now == before || now == after,
                        "partial state at write {k}:\n{now}"
                    );
                    let rep = s.check().unwrap();
                    assert!(rep.is_ok(), "store inconsistent at write {k}: {rep}");
                    // The store must remain fully usable either way.
                    if now == before {
                        rollbacks += 1;
                        let u2 = parse_update(text).unwrap();
                        assert_eq!(execute_update(&mut s, &u2).unwrap(), 1);
                    }
                    assert_eq!(s.content_lookup("Renamed").unwrap().len(), 1);
                }
                Ok(tuples) => {
                    assert_eq!(tuples, 1);
                    assert!(rollbacks > 0, "no write boundary ever rolled back");
                    assert_eq!(s.digest(), after);
                    assert!(s.check().unwrap().is_ok());
                    return;
                }
                Err(e) => panic!("unexpected error class at write {k}: {e}"),
            }
        }
        panic!("update never ran to completion");
    }

    /// A panic inside update application aborts the transaction and
    /// leaves the store intact and usable (satellite #3, core level).
    #[test]
    fn panicking_update_path_aborts_cleanly() {
        let (mut s, _injector) = faulted_stored();
        let before = s.digest();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.with_txn(|inner| -> Result<(), mct_storage::StorageError> {
                let n = inner.content_lookup("Movie 1").unwrap()[0];
                inner.update_content(n, "Halfway").unwrap();
                panic!("boom mid-update");
            })
        }));
        assert!(r.is_err());
        assert_eq!(s.digest(), before);
        assert!(s.check().unwrap().is_ok());
        let u = parse_update(
            r#"for $m in document("d")/{red}descendant::movie
               where $m/{red}child::name = "Movie 1"
               update $m { replace value of $m/{red}child::name with "After" }"#,
        )
        .unwrap();
        assert_eq!(execute_update(&mut s, &u).unwrap(), 1);
    }
}
