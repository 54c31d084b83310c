//! Shared fixtures for the replication integration tests: a small
//! movie database (the persist-layer test store, rebuilt on the public
//! API), a WAL-backed pool and committed mutations.

use mct_core::{MctDatabase, McNodeId, StoredDb};
use mct_storage::{BufferPool, DiskManager, MemDisk, Wal};

pub const POOL: usize = 4 * 1024 * 1024;

/// Two hierarchies (red genres, green awards) over ten movies, five of
/// them bi-colored.
pub fn small_db() -> MctDatabase {
    let mut db = MctDatabase::new();
    let red = db.add_color("red");
    let green = db.add_color("green");
    let genre = db.new_element("movie-genre", red);
    db.set_content(genre, "Comedy");
    db.append_child(McNodeId::DOCUMENT, genre, red);
    let award = db.new_element("movie-award", green);
    db.set_content(award, "Oscar");
    db.append_child(McNodeId::DOCUMENT, award, green);
    for i in 0..10 {
        let m = db.new_element("movie", red);
        db.set_attr(m, "id", &format!("m{i}"));
        db.append_child(genre, m, red);
        let name = db.new_element("name", red);
        db.set_content(name, &format!("Movie {i}"));
        db.append_child(m, name, red);
        if i % 2 == 0 {
            db.add_node_color(m, green);
            db.append_child(award, m, green);
        }
    }
    db
}

/// A fresh WAL-backed in-memory store holding [`small_db`], synced so
/// the WAL has a committed baseline.
pub fn primary_store() -> StoredDb<MemDisk> {
    let mut pool = BufferPool::new(MemDisk::new(), POOL);
    pool.attach_wal(Wal::create(Box::new(MemDisk::new())).unwrap());
    let mut s = StoredDb::build_on(pool, small_db()).unwrap();
    s.sync().unwrap();
    s
}

/// Commit one observable mutation: rewrite the content of the first
/// `name` element to `text`. Returns the resulting committed LSN.
pub fn commit_edit<D: DiskManager>(s: &mut StoredDb<D>, text: &str) -> u64 {
    let red = s.db.color("red").unwrap();
    let n = s.postings_named(red, "name").unwrap()[0].node;
    let res: Result<(), mct_storage::StorageError> = s.with_txn(|s| s.update_content(n, text));
    res.unwrap();
    s.pool.with_wal(|w| Ok(w.committed_lsn())).unwrap()
}
