//! Deterministic fault injection for storage testing.
//!
//! [`FaultDisk`] wraps any [`DiskManager`] and injects faults on a
//! schedule driven by a shared [`FaultInjector`]:
//!
//! * **scheduled I/O errors** — the *n*-th read or write fails cleanly
//!   (no partial effect), modelling transient media errors;
//! * **crash points** — the *n*-th write is *torn*: a
//!   seeded-pseudorandom prefix of the page reaches the media, the
//!   call fails, and every later operation fails too (the process is
//!   "dead"), modelling power loss mid-write;
//! * **a volatile write cache** — when a disk that crashed is
//!   dropped, each page written since its last successful
//!   [`DiskManager::sync_data`] keeps its new bytes or reverts to the
//!   bytes it had at that sync (a seeded coin per page), and pages
//!   allocated since that sync may vanish from the end of the file.
//!   So a crash test sees a missing fsync, not just a missing write.
//!   Truncation is taken as durable at once;
//! * **bit flips** — [`FaultDisk::flip_bit`] silently corrupts a bit
//!   in the underlying store, modelling bit rot; checksums must catch
//!   it on the next read.
//!
//! One injector can be shared (it is cheaply cloneable) across several
//! wrapped disks — e.g. a database's page file *and* its WAL file — so
//! a single global write counter enumerates every write boundary of a
//! workload, letting a crash-loop test kill the engine at each one in
//! turn.

use crate::disk::DiskManager;
use crate::error::StorageError;
use crate::page::{PageId, PAGE_SIZE};
use crate::Result;
use std::collections::BTreeMap;
use std::io;
use std::sync::{Arc, Mutex, MutexGuard};

#[derive(Default)]
struct FaultState {
    reads: u64,
    writes: u64,
    crash_at_write: Option<u64>,
    fail_at_write: Option<u64>,
    fail_at_read: Option<u64>,
    /// Fail every read whose 1-based count is a multiple of this.
    fail_every_read: Option<u64>,
    dead: bool,
    rng: u64,
}

impl FaultState {
    fn next_rand(&mut self) -> u64 {
        // xorshift64*; state seeded non-zero at construction.
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Shared, cloneable schedule of faults (one counter per injector).
/// Thread-safe: one injector can drive disks accessed from several
/// threads (e.g. through a concurrent buffer pool).
#[derive(Clone)]
pub struct FaultInjector {
    state: Arc<Mutex<FaultState>>,
}

impl FaultInjector {
    /// New injector with no faults armed; `seed` drives torn-write
    /// prefix lengths deterministically.
    pub fn new(seed: u64) -> FaultInjector {
        FaultInjector {
            state: Arc::new(Mutex::new(FaultState {
                rng: seed | 1,
                ..FaultState::default()
            })),
        }
    }

    fn state(&self) -> MutexGuard<'_, FaultState> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Crash at the `n`-th write (0-based, counted across every disk
    /// sharing this injector): that write is torn, then the disk is
    /// dead — all later reads, writes, allocations, and syncs fail.
    pub fn crash_at_write(&self, n: u64) {
        self.state().crash_at_write = Some(n);
    }

    /// Fail the `n`-th write cleanly (no bytes reach the media, the
    /// disk stays alive).
    pub fn fail_at_write(&self, n: u64) {
        self.state().fail_at_write = Some(n);
    }

    /// Fail the `n`-th read cleanly.
    pub fn fail_at_read(&self, n: u64) {
        self.state().fail_at_read = Some(n);
    }

    /// Fail every read whose 1-based count is a multiple of `k`
    /// (cleanly; the disk stays alive). Models recurring transient
    /// media errors for concurrent-read tests.
    pub fn fail_reads_every(&self, k: u64) {
        debug_assert!(k > 0);
        self.state().fail_every_read = Some(k);
    }

    /// Clear all armed faults and revive a dead disk (the counters
    /// keep running).
    pub fn disarm(&self) {
        let mut s = self.state();
        s.crash_at_write = None;
        s.fail_at_write = None;
        s.fail_at_read = None;
        s.fail_every_read = None;
        s.dead = false;
    }

    /// Total writes observed so far.
    pub fn writes(&self) -> u64 {
        self.state().writes
    }

    /// Total reads observed so far.
    pub fn reads(&self) -> u64 {
        self.state().reads
    }

    /// Whether a crash point has fired.
    pub fn crashed(&self) -> bool {
        self.state().dead
    }

    fn injected(what: &str) -> StorageError {
        StorageError::Io(io::Error::other(format!("injected fault: {what}")))
    }
}

/// A [`DiskManager`] wrapper that injects faults per its
/// [`FaultInjector`] schedule. Dropped after a crash, it applies the
/// volatile-cache model of the module doc to the inner disk.
pub struct FaultDisk<D: DiskManager> {
    inner: D,
    injector: FaultInjector,
    /// Page count at the last successful sync (or at wrapping).
    synced_pages: u32,
    /// Every page written since the last successful sync, with the
    /// bytes it held then (zeros for a page allocated since).
    unsynced: BTreeMap<u32, Box<[u8; PAGE_SIZE]>>,
}

impl<D: DiskManager> FaultDisk<D> {
    /// Wrap `inner`, drawing faults from `injector`. Whatever `inner`
    /// holds now counts as synced.
    pub fn new(inner: D, injector: FaultInjector) -> FaultDisk<D> {
        FaultDisk {
            synced_pages: inner.num_pages(),
            inner,
            injector,
            unsynced: BTreeMap::new(),
        }
    }

    /// The shared injector.
    pub fn injector(&self) -> FaultInjector {
        self.injector.clone()
    }

    /// Remember the synced bytes of page `id` before its first write
    /// since the last sync.
    fn track(&mut self, id: PageId) -> Result<()> {
        if self.unsynced.contains_key(&id.0) {
            return Ok(());
        }
        let mut synced = Box::new([0u8; PAGE_SIZE]);
        if id.0 < self.synced_pages {
            self.inner.read(id, &mut synced[..])?;
        }
        self.unsynced.insert(id.0, synced);
        Ok(())
    }

    /// Silently flip one bit of a stored page (bit rot). Bypasses the
    /// fault schedule and the write counter.
    pub fn flip_bit(&mut self, page: PageId, bit: usize) -> Result<()> {
        debug_assert!(bit < PAGE_SIZE * 8);
        let mut buf = [0u8; PAGE_SIZE];
        self.inner.read(page, &mut buf)?;
        buf[bit / 8] ^= 1 << (bit % 8);
        self.inner.write(page, &buf)
    }
}

impl<D: DiskManager> DiskManager for FaultDisk<D> {
    fn allocate(&mut self) -> Result<PageId> {
        if self.injector.state().dead {
            return Err(FaultInjector::injected("allocate on dead disk"));
        }
        self.inner.allocate()
    }

    fn read(&mut self, id: PageId, buf: &mut [u8]) -> Result<()> {
        let fail = {
            let mut s = self.injector.state();
            if s.dead {
                return Err(FaultInjector::injected("read on dead disk"));
            }
            let idx = s.reads;
            s.reads += 1;
            s.fail_at_read == Some(idx)
                || s.fail_every_read.is_some_and(|k| (idx + 1).is_multiple_of(k))
        };
        if fail {
            return Err(FaultInjector::injected("read error"));
        }
        self.inner.read(id, buf)
    }

    fn write(&mut self, id: PageId, buf: &[u8]) -> Result<()> {
        enum Action {
            Pass,
            FailClean,
            Crash(usize),
        }
        let action = {
            let mut s = self.injector.state();
            if s.dead {
                return Err(FaultInjector::injected("write on dead disk"));
            }
            let idx = s.writes;
            s.writes += 1;
            if s.crash_at_write == Some(idx) {
                s.dead = true;
                let torn = (s.next_rand() % PAGE_SIZE as u64) as usize;
                Action::Crash(torn)
            } else if s.fail_at_write == Some(idx) {
                Action::FailClean
            } else {
                Action::Pass
            }
        };
        if !matches!(action, Action::FailClean) {
            self.track(id)?;
        }
        match action {
            Action::Pass => self.inner.write(id, buf),
            Action::FailClean => Err(FaultInjector::injected("write error")),
            Action::Crash(torn) => {
                // A torn write: only a prefix reaches the media; the
                // rest of the page keeps its previous contents.
                let mut old = [0u8; PAGE_SIZE];
                self.inner.read(id, &mut old)?;
                old[..torn].copy_from_slice(&buf[..torn]);
                self.inner.write(id, &old)?;
                Err(FaultInjector::injected("power loss mid-write"))
            }
        }
    }

    fn num_pages(&self) -> u32 {
        self.inner.num_pages()
    }

    fn sync_data(&mut self) -> Result<()> {
        if self.injector.state().dead {
            return Err(FaultInjector::injected("fsync on dead disk"));
        }
        self.inner.sync_data()?;
        self.unsynced.clear();
        self.synced_pages = self.inner.num_pages();
        Ok(())
    }

    fn truncate(&mut self, num_pages: u32) -> Result<()> {
        if self.injector.state().dead {
            return Err(FaultInjector::injected("truncate on dead disk"));
        }
        self.inner.truncate(num_pages)?;
        self.unsynced.retain(|&id, _| id < num_pages);
        self.synced_pages = self.synced_pages.min(num_pages);
        Ok(())
    }
}

impl<D: DiskManager> Drop for FaultDisk<D> {
    /// Power loss: when the disk crashed, lose part of what was never
    /// synced. Errors are ignored — the process is "dead" anyway.
    fn drop(&mut self) {
        let mut s = self.injector.state();
        if !s.dead {
            return;
        }
        let pages = self.inner.num_pages();
        if pages > self.synced_pages {
            let span = u64::from(pages - self.synced_pages) + 1;
            let keep = self.synced_pages + (s.next_rand() % span) as u32;
            let _ = self.inner.truncate(keep);
        }
        let pages = self.inner.num_pages();
        for (&id, synced) in &self.unsynced {
            if id < pages && s.next_rand() & 1 == 0 {
                let _ = self.inner.write(PageId(id), &synced[..]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{FileDisk, MemDisk};

    #[test]
    fn clean_write_failure_has_no_effect() {
        let inj = FaultInjector::new(1);
        let mut d = FaultDisk::new(MemDisk::new(), inj.clone());
        let p = d.allocate().unwrap();
        d.write(p, &[7u8; PAGE_SIZE]).unwrap();
        inj.fail_at_write(1);
        assert!(d.write(p, &[9u8; PAGE_SIZE]).is_err());
        let mut buf = [0u8; PAGE_SIZE];
        d.read(p, &mut buf).unwrap();
        assert_eq!(buf[0], 7, "failed write left old contents");
        // Disk stays alive.
        d.write(p, &[9u8; PAGE_SIZE]).unwrap();
    }

    #[test]
    fn crash_tears_the_write_and_kills_the_disk() {
        let inj = FaultInjector::new(42);
        let mut d = FaultDisk::new(MemDisk::new(), inj.clone());
        let p = d.allocate().unwrap();
        d.write(p, &[1u8; PAGE_SIZE]).unwrap();
        inj.crash_at_write(1);
        assert!(d.write(p, &[2u8; PAGE_SIZE]).is_err());
        assert!(inj.crashed());
        // Everything fails now.
        let mut buf = [0u8; PAGE_SIZE];
        assert!(d.read(p, &mut buf).is_err());
        assert!(d.allocate().is_err());
        assert!(d.sync_data().is_err());
        // After disarm, the torn page is a mix of old and new bytes.
        inj.disarm();
        d.read(p, &mut buf).unwrap();
        assert!(buf.contains(&1) || buf.iter().all(|&b| b == 2));
    }

    #[test]
    fn torn_length_is_deterministic_per_seed() {
        let torn_of = |seed: u64| {
            let inj = FaultInjector::new(seed);
            let mut d = FaultDisk::new(MemDisk::new(), inj.clone());
            let p = d.allocate().unwrap();
            inj.crash_at_write(0);
            let _ = d.write(p, &[0xFFu8; PAGE_SIZE]);
            inj.disarm();
            let mut buf = [0u8; PAGE_SIZE];
            d.read(p, &mut buf).unwrap();
            buf.iter().filter(|&&b| b == 0xFF).count()
        };
        assert_eq!(torn_of(5), torn_of(5));
    }

    #[test]
    fn shared_injector_counts_across_disks() {
        let inj = FaultInjector::new(1);
        let mut a = FaultDisk::new(MemDisk::new(), inj.clone());
        let mut b = FaultDisk::new(MemDisk::new(), inj.clone());
        let pa = a.allocate().unwrap();
        let pb = b.allocate().unwrap();
        a.write(pa, &[1u8; PAGE_SIZE]).unwrap();
        b.write(pb, &[2u8; PAGE_SIZE]).unwrap();
        assert_eq!(inj.writes(), 2, "one counter spans both disks");
    }

    #[test]
    fn read_fault_fires_once() {
        let inj = FaultInjector::new(1);
        let mut d = FaultDisk::new(MemDisk::new(), inj.clone());
        let p = d.allocate().unwrap();
        d.write(p, &[3u8; PAGE_SIZE]).unwrap();
        inj.fail_at_read(0);
        let mut buf = [0u8; PAGE_SIZE];
        assert!(d.read(p, &mut buf).is_err());
        d.read(p, &mut buf).unwrap();
        assert_eq!(buf[0], 3);
    }

    /// A page file in the temp dir, fresh for `name`.
    fn temp_file(name: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("mct-fault-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn a_crash_loses_only_unsynced_writes() {
        let path = temp_file("volatile");
        let (mut kept, mut reverted, mut vanished) = (0, 0, 0);
        for seed in 0..16 {
            let _ = std::fs::remove_file(&path);
            let inj = FaultInjector::new(seed);
            {
                let mut d = FaultDisk::new(FileDisk::open(&path).unwrap(), inj.clone());
                for _ in 0..4 {
                    let p = d.allocate().unwrap();
                    d.write(p, &[1u8; PAGE_SIZE]).unwrap();
                }
                d.sync_data().unwrap();
                // Unsynced: an overwrite of each synced page, then four
                // fresh pages.
                for i in 0..4 {
                    d.write(PageId(i), &[2u8; PAGE_SIZE]).unwrap();
                }
                for _ in 0..4 {
                    let p = d.allocate().unwrap();
                    d.write(p, &[2u8; PAGE_SIZE]).unwrap();
                }
                inj.crash_at_write(inj.writes());
                assert!(d.write(PageId(7), &[3u8; PAGE_SIZE]).is_err());
            }
            let mut d = FileDisk::open(&path).unwrap();
            let pages = d.num_pages();
            assert!((4..=8).contains(&pages), "seed {seed}: {pages} pages");
            vanished += 8 - pages;
            let mut buf = [0u8; PAGE_SIZE];
            for i in 0..pages {
                d.read(PageId(i), &mut buf).unwrap();
                let synced = if i < 4 { 1 } else { 0 };
                if buf.iter().all(|&b| b == synced) {
                    reverted += 1;
                } else if i < 7 {
                    assert!(buf.iter().all(|&b| b == 2), "seed {seed}: page {i} mixed");
                    kept += 1;
                }
            }
        }
        let _ = std::fs::remove_file(&path);
        assert!(kept > 0 && reverted > 0 && vanished > 0, "{kept} {reverted} {vanished}");
    }

    #[test]
    fn dropping_a_live_disk_keeps_every_write() {
        let path = temp_file("live");
        {
            let mut d = FaultDisk::new(FileDisk::open(&path).unwrap(), FaultInjector::new(3));
            for _ in 0..4 {
                let p = d.allocate().unwrap();
                d.write(p, &[5u8; PAGE_SIZE]).unwrap();
            }
        }
        let mut d = FileDisk::open(&path).unwrap();
        assert_eq!(d.num_pages(), 4);
        let mut buf = [0u8; PAGE_SIZE];
        for i in 0..4 {
            d.read(PageId(i), &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == 5));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flip_bit_corrupts_silently() {
        let inj = FaultInjector::new(1);
        let mut d = FaultDisk::new(MemDisk::new(), inj);
        let p = d.allocate().unwrap();
        d.write(p, &[0u8; PAGE_SIZE]).unwrap();
        d.flip_bit(p, 12345).unwrap();
        let mut buf = [0u8; PAGE_SIZE];
        d.read(p, &mut buf).unwrap();
        assert_eq!(buf[12345 / 8], 1 << (12345 % 8));
    }
}
