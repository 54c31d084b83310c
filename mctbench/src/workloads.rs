//! The four workloads. Each sets its system up from the seed, runs its
//! ops for a fixed time while checking every answer, and then proves
//! the state it left is the state it should have left.
//!
//! | name | system under test | load |
//! |---|---|---|
//! | `engine.read` | in-process `StoredDb` on `MemDisk`, pool larger than the data | 1 closed loop, read mix |
//! | `served.read` | the same store behind `mct_server::serve` on loopback | 2 closed loops, read mix over HTTP |
//! | `durable.update` | in-process `StoredDb` on `FileDisk` + WAL, pool smaller than the data, auto-checkpoint | 1 closed loop, update mix |
//! | `served.mixed` | durable primary `mctd` + one streaming replica | 1 closed read loop across both endpoints + 1 open update loop |

use crate::engine::{body_elements, read_op, served_read_op, update_op, ServedParts};
use crate::mix::{Inputs, Model, ReadClass, UpdateGen, UpdateOp};
use crate::probes::{self, Probes};
use crate::trace::Tracer;
use mct_core::StoredDb;
use mct_query::{eval, parse_query, EvalContext};
use mct_repl::{
    start_primary, start_replica, PrimaryCfg, PrimaryHandle, ReplicaCfg, ReplicaHandle,
};
use mct_server::{serve, serve_shared, AppState, Client, ServerConfig, ServerHandle};
use mct_storage::{DiskManager, FileDisk, MemDisk};
use mct_workloads::{run_read, SchemaKind};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// Pool for the workloads whose data must fit (the paper's 256 MiB).
const POOL_FITS: usize = 256 << 20;
/// Pool for the durable workloads: 32 frames over ≈6 MiB of pages, small
/// enough that the update mix evicts (at 2 MiB it never did).
const POOL_SMALL: usize = 256 << 10;
/// Auto-checkpoint threshold: a checkpoint every four or five commits
/// of ≈4 MB, so a run sees dozens of checkpoint cycles.
const CHECKPOINT_BYTES: u64 = 16 << 20;
/// `served.mixed`: updates per second on the open-loop schedule.
const UPDATE_RATE: f64 = 2.0;
/// A traced served run takes every this-many-th read apart; doing it to
/// all of them would quadruple the load on the database lock and the
/// traced latencies would no longer resemble the untraced ones. Seven
/// shares no factor with the 24 statements of a round or the two
/// endpoints of `served.mixed`, so every statement gets its turn on each.
const TAKE_APART_EVERY: u64 = 7;
/// Updates applied before the timed part of the durable workloads.
const WARMUP_UPDATES: usize = 3;

/// What one run is asked to do.
#[derive(Clone, Debug)]
pub struct Config {
    /// Seed of every input.
    pub seed: u64,
    /// TPC-W scale.
    pub scale: f64,
    /// Directory for the durable workloads' files.
    pub scratch: PathBuf,
}

/// One timed op.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Client-observed latency (from the due time in an open loop).
    pub ns: u64,
    /// When the op completed, in nanoseconds after the timed part began.
    pub done_ns: u64,
    /// Update (else read).
    pub update: bool,
    /// 0 = in-process or primary, 1 = replica.
    pub endpoint: u8,
    /// `wal.checkpoints` rose while the op ran.
    pub checkpoint: bool,
}

/// What one timed part produced.
#[derive(Default)]
pub struct Segment {
    /// One sample per completed op.
    pub samples: Vec<Sample>,
    /// Ops that failed or answered wrongly.
    pub failed: u64,
    /// The first few failure messages.
    pub notes: Vec<String>,
    /// Wall-clock seconds of the timed part.
    pub elapsed_s: f64,
    /// Spans of the traced ops.
    pub tracer: Option<Tracer>,
    /// Open loop: how late each update left (ns after its due time).
    pub late_ns: Vec<u64>,
    /// Update acknowledged → applied on the replica.
    pub apply_lag_ns: Vec<u64>,
}

impl Segment {
    /// Record an op that has just completed; `start` is when the timed
    /// part began.
    fn push(&mut self, start: Instant, ns: u64, update: bool, endpoint: u8, checkpoint: bool) {
        self.samples.push(Sample {
            ns,
            done_ns: start.elapsed().as_nanos() as u64,
            update,
            endpoint,
            checkpoint,
        });
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.notes.len() < 5 {
            self.notes.push(what);
        }
    }

    fn check<T: PartialEq + std::fmt::Debug>(
        &mut self,
        id: &str,
        got: Result<T, String>,
        want: &T,
    ) {
        match got {
            Ok(v) if v == *want => {}
            Ok(v) => self.fail(format!("{id}: got {v:?}, expected {want:?}")),
            Err(e) => self.fail(format!("{id}: {e}")),
        }
    }
}

/// Seconds each part of set-up took, and the element count built.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupParts {
    /// Entity-graph generation.
    pub generate_s: f64,
    /// Rendering the graph as a five-color MCT database.
    pub build_tree_s: f64,
    /// `StoredDb::build` / `create`: heaps and indexes.
    pub store_build_s: f64,
    /// Elements stored.
    pub elements: u64,
}

/// One workload: set-up, a timed part that can be repeated, gates.
pub trait Workload: Sized {
    /// Build the system under test from the seed, warm it, and record
    /// what a correct answer to every read is.
    fn setup(cfg: &Config) -> Result<Self, String>;
    /// Run ops for `seconds`, checking each; `trace` records spans.
    fn run(&mut self, seconds: f64, trace: bool) -> Segment;
    /// Gates after the timed part; one string per violation.
    fn verify(&mut self) -> Vec<String>;
    /// Layer probes on this workload's store and server.
    fn probe(&mut self, cfg: &Config, out: &mut Probes) -> Result<(), String>;
    /// How set-up split.
    fn setup_parts(&self) -> SetupParts;
    /// Workload-specific results for the report (`recovery_s`, …).
    fn extras(&self) -> Probes {
        Vec::new()
    }
    /// Stop every thread and remove every file.
    fn teardown(self);
}

fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        exec_threads: 1,
        ..ServerConfig::default()
    }
}

fn op_id(thread: u64, n: u64) -> u64 {
    thread << 40 | n
}

/// Inputs, logical tree and what they cost.
fn generate(cfg: &Config) -> (Inputs, mct_core::MctDatabase, SetupParts) {
    let inputs = Inputs::generate(cfg.seed, cfg.scale);
    let t = Instant::now();
    let tree = inputs.data.build_mct();
    let parts = SetupParts {
        generate_s: inputs.generate_s,
        build_tree_s: t.elapsed().as_secs_f64(),
        ..SetupParts::default()
    };
    (inputs, tree, parts)
}

/// Row counts: `[variant][statement of the round]`.
type RowCounts = Vec<Vec<usize>>;

/// The in-memory store of the read workloads, with the row count of
/// every statement of every round as the engine gives it.
fn memory_store(cfg: &Config) -> Result<(Inputs, StoredDb, RowCounts, SetupParts), String> {
    let (inputs, tree, mut parts) = generate(cfg);
    let t = Instant::now();
    let mut db = StoredDb::build(tree, POOL_FITS).map_err(|e| e.to_string())?;
    db.ensure_all_annotated().map_err(|e| e.to_string())?;
    parts.store_build_s = t.elapsed().as_secs_f64();
    parts.elements = db.stats().num_elements;
    let mut off = Tracer::new(Instant::now(), false);
    let expected = inputs
        .rounds
        .iter()
        .map(|round| {
            round
                .iter()
                .map(|op| read_op(&mut db, &op.text, &mut off, 0))
                .collect()
        })
        .collect::<Result<RowCounts, String>>()?;
    Ok((inputs, db, expected, parts))
}

/// The durable store of the update workloads: built with a pool that
/// fits, made durable, then reopened from its files with a pool that
/// does not.
fn durable_store(
    cfg: &Config,
    dir: &Path,
    checkpoint_bytes: Option<u64>,
) -> Result<(Inputs, StoredDb<FileDisk>, SetupParts), String> {
    let err = |e: mct_storage::StorageError| e.to_string();
    let (inputs, tree, mut parts) = generate(cfg);
    let _ = std::fs::remove_dir_all(dir);
    let t = Instant::now();
    let mut db = StoredDb::create(dir, tree, POOL_FITS).map_err(err)?;
    parts.store_build_s = t.elapsed().as_secs_f64();
    parts.elements = db.stats().num_elements;
    db.sync().map_err(err)?;
    drop(db);
    let mut db = StoredDb::open(dir, POOL_SMALL)
        .map_err(err)?
        .ok_or("no durable commit after sync")?;
    db.set_checkpoint_bytes(checkpoint_bytes);
    db.ensure_all_annotated().map_err(err)?;
    Ok((inputs, db, parts))
}

/// Compare every item's cost and every order's status, read through
/// the buffer pool, with what the acknowledged updates should have left.
fn read_back<D: DiskManager>(db: &StoredDb<D>, model: &Model) -> Vec<String> {
    let mut bad = Vec::new();
    let mut compare = |color: &str, tag: &str, child: &str, prefix: char, want: &[String]| {
        let result = (|| -> Result<usize, String> {
            let c = db.db.color(color).ok_or("color missing")?;
            let mut seen = 0;
            for r in db.postings_named(c, tag).map_err(|e| e.to_string())? {
                let attrs = db.fetch_attrs(r.node).map_err(|e| e.to_string())?;
                let idx: usize = attrs
                    .iter()
                    .find(|(k, _)| k == "id")
                    .and_then(|(_, v)| v.strip_prefix(prefix)?.parse().ok())
                    .ok_or("element without id")?;
                let leaf = db.db.child_named(r.node, child, c).ok_or("leaf missing")?;
                let got = db
                    .fetch_content(leaf)
                    .map_err(|e| e.to_string())?
                    .unwrap_or_default();
                if got != want[idx] && bad.len() < 5 {
                    bad.push(format!(
                        "{tag} {idx}: {child} is {got:?}, last acknowledged {:?}",
                        want[idx]
                    ));
                }
                seen += 1;
            }
            Ok(seen)
        })();
        match result {
            Ok(seen) if seen == want.len() => {}
            Ok(seen) => bad.push(format!("{seen} {tag} elements, expected {}", want.len())),
            Err(e) => bad.push(format!("reading back {tag}: {e}")),
        }
    };
    compare("auth", "item", "cost", 'i', &model.cost);
    compare("cust", "order", "status", 'o', &model.status);
    bad
}

fn check_report<D: DiskManager>(db: &StoredDb<D>) -> Vec<String> {
    match db.check() {
        Ok(rep) if rep.is_ok() => Vec::new(),
        Ok(rep) => vec![format!("check(): {rep}")],
        Err(e) => vec![format!("check() aborted: {e}")],
    }
}

/// Every layer probe against a served store.
fn probe_served<D: DiskManager>(
    server: &ServerHandle<D>,
    inputs: &Inputs,
    cfg: &Config,
    out: &mut Probes,
) -> Result<(), String> {
    {
        let mut db = server
            .state()
            .db
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        probes::query_probes(&mut db, inputs, out)?;
        probes::core_probes(&mut db, out)?;
        probes::wal_probe(&cfg.scratch, out)?;
        probes::exchange_probes(&db, out)?;
    }
    probes::server_probes(server.state(), server.port(), inputs, out)
}

/// The same for an in-process workload: its store gets a server for
/// the occasion.
fn probe_in_process<D: DiskManager + Sync + 'static>(
    db: StoredDb<D>,
    inputs: &Inputs,
    cfg: &Config,
    out: &mut Probes,
) -> Result<(), String> {
    let server = serve(db, server_config()).map_err(|e| e.to_string())?;
    let probed = probe_served(&server, inputs, cfg, out);
    server.shutdown();
    probed
}

// --------------------------------------------------------------- engine.read

/// `engine.read`.
pub struct EngineRead {
    inputs: Inputs,
    db: Option<StoredDb>,
    expected: Vec<Vec<usize>>,
    parts: SetupParts,
    ops: u64,
}

impl Workload for EngineRead {
    fn setup(cfg: &Config) -> Result<Self, String> {
        let (inputs, db, expected, parts) = memory_store(cfg)?;
        Ok(EngineRead {
            inputs,
            db: Some(db),
            expected,
            parts,
            ops: 0,
        })
    }

    fn run(&mut self, seconds: f64, trace: bool) -> Segment {
        let db = self.db.as_mut().expect("store present until probed");
        let mut seg = Segment::default();
        let start = Instant::now();
        let mut tr = Tracer::new(start, trace);
        'timed: for v in (0..self.inputs.rounds.len()).cycle() {
            for (op, want) in self.inputs.rounds[v].iter().zip(&self.expected[v]) {
                let t = Instant::now();
                let got = read_op(db, &op.text, &mut tr, self.ops);
                let ns = t.elapsed().as_nanos() as u64;
                self.ops += 1;
                seg.push(start, ns, false, 0, false);
                seg.check(&op.id, got, want);
            }
            if start.elapsed().as_secs_f64() >= seconds {
                break 'timed;
            }
        }
        seg.elapsed_s = start.elapsed().as_secs_f64();
        seg.tracer = Some(tr);
        seg
    }

    /// Every TQ against its hand-written plan, every path statement
    /// against the interpreter.
    fn verify(&mut self) -> Vec<String> {
        let db = self.db.as_mut().expect("store present until probed");
        let mut bad = Vec::new();
        for (v, round) in self.inputs.rounds.iter().enumerate() {
            for (op, &want) in round.iter().zip(&self.expected[v]) {
                let other =
                    match op.class {
                        ReadClass::Flwor => {
                            run_read(db, &op.id, SchemaKind::Mct, &self.inputs.variants[v], true)
                                .map(|o| o.results)
                                .map_err(|e| e.to_string())
                        }
                        ReadClass::Path => parse_query(&op.text)
                            .map_err(|e| e.to_string())
                            .and_then(|e| {
                                let mut ctx = EvalContext::new(db);
                                eval(&mut ctx, &e)
                                    .map(|items| items.len())
                                    .map_err(|e| e.to_string())
                            }),
                    };
                match other {
                    Ok(n) if n == want => {}
                    Ok(n) => bad.push(format!(
                        "{} variant {v}: engine {want} rows, reference {n}",
                        op.id
                    )),
                    Err(e) => bad.push(format!("{} variant {v}: reference failed: {e}", op.id)),
                }
            }
        }
        bad
    }

    fn probe(&mut self, cfg: &Config, out: &mut Probes) -> Result<(), String> {
        let db = self.db.take().ok_or("store already probed")?;
        probe_in_process(db, &self.inputs, cfg, out)
    }

    fn setup_parts(&self) -> SetupParts {
        self.parts
    }

    fn teardown(self) {}
}

// --------------------------------------------------------------- served.read

/// When a closed read loop stops (checked between rounds).
#[derive(Clone, Copy)]
enum Until {
    /// At this instant.
    Deadline(Instant),
    /// After one round of every variant.
    OnePass,
}

/// One connection's closed read loop.
struct ReadLoop<'a> {
    inputs: &'a Inputs,
    /// Row counts to hold every answer to; `None` where updates move
    /// them, and only the status is checked.
    expected: Option<&'a [Vec<usize>]>,
    thread: u64,
    first_variant: usize,
    until: Until,
    trace: bool,
    origin: Instant,
    /// Endpoints visited round robin, one per op.
    endpoints: usize,
}

impl ReadLoop<'_> {
    /// `send(endpoint, text, tracer, op id, parts)` issues one read and,
    /// given parts, takes it apart.
    fn run<F>(self, mut send: F) -> Segment
    where
        F: FnMut(usize, &str, &mut Tracer, u64, Option<&mut ServedParts>) -> Result<usize, String>,
    {
        let mut seg = Segment::default();
        let mut tr = Tracer::new(self.origin, self.trace);
        let mut parts = ServedParts::default();
        let rounds = self.inputs.rounds.len();
        let mut n = 0u64;
        for (pass, v) in (0..rounds).cycle().skip(self.first_variant).enumerate() {
            for (i, op) in self.inputs.rounds[v].iter().enumerate() {
                let endpoint = n as usize % self.endpoints;
                let apart =
                    (self.trace && n.is_multiple_of(TAKE_APART_EVERY)).then_some(&mut parts);
                let t = Instant::now();
                let got = send(endpoint, &op.text, &mut tr, op_id(self.thread, n), apart);
                let ns = t.elapsed().as_nanos() as u64;
                n += 1;
                seg.push(self.origin, ns, false, endpoint as u8, false);
                match (self.expected, got) {
                    (Some(want), got) => seg.check(&op.id, got, &want[v][i]),
                    (None, Err(e)) => seg.fail(format!("{}: {e}", op.id)),
                    (None, Ok(_)) => {}
                }
            }
            let done = match self.until {
                Until::Deadline(at) => Instant::now() >= at,
                Until::OnePass => pass + 1 >= rounds,
            };
            if done {
                break;
            }
        }
        seg.tracer = Some(tr);
        seg
    }
}

/// `served.read`.
pub struct ServedRead {
    inputs: Inputs,
    server: ServerHandle,
    expected: Vec<Vec<usize>>,
    parts: SetupParts,
}

impl ServedRead {
    /// Two connections, each a closed loop over the read mix.
    fn run_loops(&self, until: Until, trace: bool) -> Segment {
        let start = Instant::now();
        let state: &AppState = self.server.state();
        let port = self.server.port();
        let mut merged = Segment::default();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2u64)
                .map(|t| {
                    let spec = ReadLoop {
                        inputs: &self.inputs,
                        expected: Some(&self.expected),
                        thread: t,
                        first_variant: t as usize * self.inputs.rounds.len() / 2,
                        until,
                        trace,
                        origin: start,
                        endpoints: 1,
                    };
                    scope.spawn(move || {
                        let client = Client::new("127.0.0.1", port);
                        spec.run(|_, text, tr, op, parts| {
                            served_read_op(&client, state, text, tr, op, parts)
                        })
                    })
                })
                .collect();
            for h in handles {
                merge(&mut merged, h.join().expect("client thread panicked"));
            }
        });
        merged.elapsed_s = start.elapsed().as_secs_f64();
        merged
    }
}

impl Workload for ServedRead {
    fn setup(cfg: &Config) -> Result<Self, String> {
        let (inputs, db, expected, parts) = memory_store(cfg)?;
        let server = serve(db, server_config()).map_err(|e| e.to_string())?;
        let w = ServedRead {
            inputs,
            server,
            expected,
            parts,
        };
        // One round of every variant on each connection fills the plan
        // cache before anything is timed.
        let warm = w.run_loops(Until::OnePass, false);
        if let Some(e) = warm.notes.first() {
            let e = format!("warm-up: {e}");
            w.teardown();
            return Err(e);
        }
        Ok(w)
    }

    fn run(&mut self, seconds: f64, trace: bool) -> Segment {
        self.run_loops(
            Until::Deadline(Instant::now() + Duration::from_secs_f64(seconds)),
            trace,
        )
    }

    /// Every op already held its status to 2xx and its body to the
    /// engine's row count; holding those counts to the hand-written
    /// plans is `engine.read`'s gate.
    fn verify(&mut self) -> Vec<String> {
        Vec::new()
    }

    fn probe(&mut self, cfg: &Config, out: &mut Probes) -> Result<(), String> {
        probe_served(&self.server, &self.inputs, cfg, out)
    }

    fn setup_parts(&self) -> SetupParts {
        self.parts
    }

    fn teardown(self) {
        self.server.shutdown();
    }
}

/// Fold one connection's segment into the run's.
fn merge(into: &mut Segment, from: Segment) {
    into.samples.extend(from.samples);
    into.failed += from.failed;
    into.notes.extend(from.notes);
    into.notes.truncate(5);
    into.late_ns.extend(from.late_ns);
    into.apply_lag_ns.extend(from.apply_lag_ns);
    match (&mut into.tracer, from.tracer) {
        (Some(a), Some(b)) => a.merge(b),
        (slot @ None, b) => *slot = b,
        (Some(_), None) => {}
    }
}

// ------------------------------------------------------------ durable.update

/// `durable.update`.
pub struct DurableUpdate {
    inputs: Inputs,
    dir: PathBuf,
    db: Option<StoredDb<FileDisk>>,
    gen: UpdateGen,
    model: Model,
    parts: SetupParts,
    ops: u64,
    recovery_s: Option<f64>,
}

/// Apply one generated update in-process and hold it to its effect.
fn apply_update<D: DiskManager>(
    db: &mut StoredDb<D>,
    op: &UpdateOp,
    model: &mut Model,
    tr: &mut Tracer,
    id: u64,
    start: Instant,
    seg: &mut Segment,
) {
    let checkpoints = mct_obs::counter("wal.checkpoints");
    let before = checkpoints.get();
    let t = Instant::now();
    let got = update_op(db, &op.text, tr, id);
    let ns = t.elapsed().as_nanos() as u64;
    seg.push(start, ns, true, 0, checkpoints.get() > before);
    if got.is_ok() {
        model.apply(op);
    }
    seg.check("update", got, &op.elements());
}

impl DurableUpdate {
    /// One closed loop of updates while `more(done, start)` holds.
    fn run_while(&mut self, trace: bool, more: impl Fn(usize, Instant) -> bool) -> Segment {
        let db = self.db.as_mut().expect("store present until probed");
        let mut seg = Segment::default();
        let start = Instant::now();
        let mut tr = Tracer::new(start, trace);
        while more(seg.samples.len(), start) {
            let op = self.gen.next_op(&self.inputs.data);
            apply_update(db, &op, &mut self.model, &mut tr, self.ops, start, &mut seg);
            self.ops += 1;
        }
        seg.elapsed_s = start.elapsed().as_secs_f64();
        seg.tracer = Some(tr);
        seg
    }

    /// Exactly `n` updates: what a test of repeatability needs.
    pub fn run_updates(&mut self, n: usize, trace: bool) -> Segment {
        self.run_while(trace, |done, _| done < n)
    }
}

impl Workload for DurableUpdate {
    fn setup(cfg: &Config) -> Result<Self, String> {
        let dir = cfg
            .scratch
            .join(format!("durable.update-{}", std::process::id()));
        let (inputs, mut db, parts) = durable_store(cfg, &dir, Some(CHECKPOINT_BYTES))?;
        let mut gen = UpdateGen::new(&inputs.data, cfg.seed);
        let mut model = Model::new(&inputs.data);
        let mut warm = Segment::default();
        let mut off = Tracer::new(Instant::now(), false);
        for _ in 0..WARMUP_UPDATES {
            let op = gen.next_op(&inputs.data);
            apply_update(
                &mut db,
                &op,
                &mut model,
                &mut off,
                0,
                Instant::now(),
                &mut warm,
            );
        }
        if let Some(e) = warm.notes.first() {
            let _ = std::fs::remove_dir_all(&dir);
            return Err(format!("warm-up: {e}"));
        }
        Ok(DurableUpdate {
            inputs,
            dir,
            db: Some(db),
            gen,
            model,
            parts,
            ops: 0,
            recovery_s: None,
        })
    }

    fn run(&mut self, seconds: f64, trace: bool) -> Segment {
        self.run_while(trace, |_, start| start.elapsed().as_secs_f64() < seconds)
    }

    /// Drop the store without a checkpoint, recover it from its files
    /// alone, and hold what comes back to the acknowledged updates.
    fn verify(&mut self) -> Vec<String> {
        drop(self.db.take());
        let t = Instant::now();
        let mut db = match StoredDb::open(&self.dir, POOL_SMALL) {
            Ok(Some(db)) => db,
            Ok(None) => return vec!["reopen found no durable commit".to_string()],
            Err(e) => return vec![format!("reopen failed: {e}")],
        };
        self.recovery_s = Some(t.elapsed().as_secs_f64());
        db.set_checkpoint_bytes(Some(CHECKPOINT_BYTES));
        let mut bad = read_back(&db, &self.model);
        bad.extend(check_report(&db));
        self.db = Some(db);
        bad
    }

    fn probe(&mut self, cfg: &Config, out: &mut Probes) -> Result<(), String> {
        let db = self.db.take().ok_or("store already probed")?;
        probe_in_process(db, &self.inputs, cfg, out)
    }

    fn setup_parts(&self) -> SetupParts {
        self.parts
    }

    fn extras(&self) -> Probes {
        self.recovery_s
            .map(|s| ("recovery_s".to_string(), s, "s"))
            .into_iter()
            .collect()
    }

    fn teardown(self) {
        drop(self.db);
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

// -------------------------------------------------------------- served.mixed

/// `served.mixed`.
pub struct ServedMixed {
    inputs: Inputs,
    dir: PathBuf,
    db: Arc<RwLock<StoredDb<FileDisk>>>,
    primary_http: ServerHandle<FileDisk>,
    primary: PrimaryHandle,
    replica: ReplicaHandle,
    replica_http: ServerHandle<MemDisk>,
    gen: UpdateGen,
    model: Model,
    parts: SetupParts,
    updates: u64,
}

impl ServedMixed {
    fn committed_lsn(&self) -> u64 {
        let db = self.db.read().unwrap_or_else(PoisonError::into_inner);
        db.pool.with_wal(|w| Ok(w.committed_lsn())).unwrap_or(0)
    }

    fn clients(&self) -> [Client; 2] {
        [
            Client::new("127.0.0.1", self.primary_http.port()),
            Client::new("127.0.0.1", self.replica_http.port()),
        ]
    }

    fn read_loop(&self, until: Until, trace: bool, origin: Instant) -> Segment {
        let clients = self.clients();
        let (primary, replica) = (self.primary_http.state(), self.replica_http.state());
        ReadLoop {
            inputs: &self.inputs,
            expected: None,
            thread: 0,
            first_variant: 0,
            until,
            trace,
            origin,
            endpoints: 2,
        }
        .run(|endpoint, text, tr, op, parts| match endpoint {
            0 => served_read_op(&clients[0], primary, text, tr, op, parts),
            _ => served_read_op(&clients[1], replica, text, tr, op, parts),
        })
    }

    /// The open loop: `rate` updates a second from `start`, each timed
    /// from the moment it was due.
    fn update_loop(&self, ops: &[UpdateOp], start: Instant, rate: f64, trace: bool) -> Segment {
        let client = Client::new("127.0.0.1", self.primary_http.port());
        let checkpoints = mct_obs::counter("wal.checkpoints");
        let mut seg = Segment::default();
        let mut tr = Tracer::new(start, trace);
        for (k, op) in ops.iter().enumerate() {
            let due = start + Duration::from_secs_f64(k as f64 / rate);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let before = checkpoints.get();
            let id = op_id(1, self.updates + k as u64);
            let sent = Instant::now();
            seg.late_ns.push(sent.duration_since(due).as_nanos() as u64);
            let root = tr.root("op", id);
            let reply = client.update(&op.text);
            tr.end(root);
            let acked = Instant::now();
            let ns = acked.duration_since(due).as_nanos() as u64;
            seg.push(start, ns, true, 0, checkpoints.get() > before);
            let got = reply.map_err(|e| format!("transport: {e}")).and_then(|r| {
                if r.status != 200 {
                    return Err(format!("HTTP {}: {}", r.status, r.body_str().trim()));
                }
                body_elements(&r.body_str())
                    .ok_or_else(|| "body carries no element count".to_string())
            });
            seg.check("update", got, &op.elements());
            // Acknowledged → readable on the replica.
            let lsn = self.committed_lsn();
            while self.replica.applied_lsn() < lsn && acked.elapsed() < Duration::from_secs(10) {
                std::thread::sleep(Duration::from_micros(200));
            }
            seg.apply_lag_ns.push(acked.elapsed().as_nanos() as u64);
        }
        seg.tracer = Some(tr);
        seg
    }
}

impl Workload for ServedMixed {
    fn setup(cfg: &Config) -> Result<Self, String> {
        let io = |e: std::io::Error| e.to_string();
        let dir = cfg
            .scratch
            .join(format!("served.mixed-{}", std::process::id()));
        // No auto-checkpoint here: one taken in the commit that crosses
        // the threshold discards page images the connected replica has
        // not streamed yet, and the replica then serves the new catalog
        // over old pages (its `/check` fails). Until that is fixed this
        // workload would fail its own gate, so the log just grows.
        let (inputs, db, parts) = durable_store(cfg, &dir, None)?;
        let db = Arc::new(RwLock::new(db));
        let primary_http = serve_shared(
            Arc::clone(&db),
            ServerConfig {
                repl_primary: true,
                ..server_config()
            },
        )
        .map_err(io)?;
        let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
        let repl_addr = listener.local_addr().map_err(io)?.to_string();
        let primary = start_primary(
            listener,
            Arc::clone(&db),
            PrimaryCfg {
                advertise_http: primary_http.addr().to_string(),
                poll_interval: Duration::from_millis(5),
                ..PrimaryCfg::default()
            },
        )
        .map_err(io)?;
        let replica = start_replica(ReplicaCfg {
            primary: repl_addr,
            replica_id: "mctbench".to_string(),
            pool_bytes: POOL_FITS,
            ..ReplicaCfg::default()
        })
        .map_err(io)?;
        let replica_http = serve_shared(
            replica.db(),
            ServerConfig {
                primary_http: Some(replica.primary_http()),
                ..server_config()
            },
        )
        .map_err(io)?;
        let gen = UpdateGen::new(&inputs.data, cfg.seed);
        let model = Model::new(&inputs.data);
        let mut w = ServedMixed {
            inputs,
            dir,
            db,
            primary_http,
            primary,
            replica,
            replica_http,
            gen,
            model,
            parts,
            updates: 0,
        };
        // Warm both plan caches and the update path.
        let mut warm = w.read_loop(Until::OnePass, false, Instant::now());
        let ops: Vec<UpdateOp> = (0..WARMUP_UPDATES)
            .map(|_| w.gen.next_op(&w.inputs.data))
            .collect();
        merge(
            &mut warm,
            w.update_loop(&ops, Instant::now(), f64::INFINITY, false),
        );
        ops.iter().for_each(|op| w.model.apply(op));
        if let Some(e) = warm.notes.first() {
            let e = format!("warm-up: {e}");
            w.teardown();
            return Err(e);
        }
        Ok(w)
    }

    fn run(&mut self, seconds: f64, trace: bool) -> Segment {
        let ops: Vec<UpdateOp> = (0..(seconds * UPDATE_RATE).ceil() as usize)
            .map(|_| self.gen.next_op(&self.inputs.data))
            .collect();
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let this = &*self;
        let mut merged = std::thread::scope(|scope| {
            let reads = scope.spawn(|| this.read_loop(Until::Deadline(deadline), trace, start));
            let updates = scope.spawn(|| this.update_loop(&ops, start, UPDATE_RATE, trace));
            let mut merged = reads.join().expect("read connection panicked");
            merge(
                &mut merged,
                updates.join().expect("update connection panicked"),
            );
            merged
        });
        merged.elapsed_s = start.elapsed().as_secs_f64();
        // A failed update may or may not have been applied; the
        // read-back gate then reports the difference.
        ops.iter().for_each(|op| self.model.apply(op));
        self.updates += ops.len() as u64;
        merged
    }

    /// The replica reaches the primary's last commit, both answer a
    /// full read round identically, both pass `/check`, and the primary
    /// holds the last acknowledged value of every updated element.
    fn verify(&mut self) -> Vec<String> {
        let mut bad = Vec::new();
        let lsn = self.committed_lsn();
        if !self.replica.wait_applied(lsn, Duration::from_secs(30)) {
            bad.push(format!(
                "replica stuck at LSN {} below {lsn}",
                self.replica.applied_lsn()
            ));
        }
        let clients = self.clients();
        for (v, round) in self.inputs.rounds.iter().enumerate() {
            for op in round {
                let bodies: Vec<String> = clients
                    .iter()
                    .map(|c| match c.query(&op.text) {
                        Ok(r) if r.is_ok() => r.body_str(),
                        Ok(r) => format!("HTTP {}", r.status),
                        Err(e) => format!("transport: {e}"),
                    })
                    .collect();
                if bodies[0] != bodies[1] && bad.len() < 5 {
                    bad.push(format!(
                        "{} variant {v}: primary and replica answer differently",
                        op.id
                    ));
                }
            }
        }
        for (name, c) in ["primary", "replica"].iter().zip(&clients) {
            match c.check() {
                Ok(r) if r.status == 200 => {}
                Ok(r) => bad.push(format!(
                    "{name} /check: HTTP {}: {}",
                    r.status,
                    r.body_str().trim()
                )),
                Err(e) => bad.push(format!("{name} /check: {e}")),
            }
        }
        bad.extend(read_back(
            &self.db.read().unwrap_or_else(PoisonError::into_inner),
            &self.model,
        ));
        bad
    }

    fn probe(&mut self, cfg: &Config, out: &mut Probes) -> Result<(), String> {
        probe_served(&self.primary_http, &self.inputs, cfg, out)
    }

    fn setup_parts(&self) -> SetupParts {
        self.parts
    }

    fn teardown(self) {
        self.replica_http.shutdown();
        self.replica.shutdown();
        self.primary_http.shutdown();
        self.primary.shutdown();
        drop(self.db);
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
