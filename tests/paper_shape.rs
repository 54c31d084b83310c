//! The paper's §7 evaluation, checked over deterministic work counts.
//!
//! Each test builds TPC-W and SIGMOD-Record in the MCT, shallow and
//! deep designs at one scale, with the generators' default seeds, and
//! asserts the §7 claims no other test states: Table 1's storage
//! ordering, the page accesses behind Table 2, the §5 serialization
//! ablation (A2) and the buffer-pool and cold-cache note (A3). Element
//! counts, bytes and page accesses do not depend on the host, so every
//! bound holds exactly on every run; timings stay with the `table2`
//! binary.
//!
//! Figures 11/12 and the update element counts are printed, not
//! asserted: their shape is `workloads::queries::tests`' and the update
//! anomaly `workloads::plans::tests`'. EXPERIMENTS.md quotes the tables
//! of
//!
//! ```text
//! cargo test --release --test paper_shape -- --nocapture
//! ```

use mct_core::{McNodeId, MctDatabase, StoredDb};
use mct_query::{complexity, parse_query, parse_update, update_complexity, Complexity};
use mct_serialize::{compare_sizes, emit_exchange, opt_serialize, reconstruct, MctSchema};
use mct_storage::PoolStats;
use mct_workloads::{
    all_queries, run_read, run_update, Dataset, Params, QueryKind, SchemaKind, SigmodConfig,
    SigmodData, TpcwConfig, TpcwData, WorkloadQuery,
};
use std::fmt::Write;

const POOL: usize = 64 << 20;
const MIB: usize = 1 << 20;

/// Both data sets at one scale, and the query parameters drawn from
/// them.
struct Data {
    tpcw: TpcwData,
    sigmod: SigmodData,
    params: Params,
}

impl Data {
    fn generate(scale: f64) -> Data {
        let tpcw = TpcwData::generate(&TpcwConfig {
            scale,
            ..TpcwConfig::default()
        });
        let sigmod = SigmodData::generate(&SigmodConfig {
            scale,
            ..SigmodConfig::default()
        });
        let params = Params::derive(&tpcw, &sigmod);
        Data {
            tpcw,
            sigmod,
            params,
        }
    }

    fn logical(&self, ds: Dataset, design: SchemaKind) -> MctDatabase {
        match (ds, design) {
            (Dataset::Tpcw, SchemaKind::Mct) => self.tpcw.build_mct(),
            (Dataset::Tpcw, SchemaKind::Shallow) => self.tpcw.build_shallow(),
            (Dataset::Tpcw, SchemaKind::Deep) => self.tpcw.build_deep(),
            (Dataset::Sigmod, SchemaKind::Mct) => self.sigmod.build_mct(),
            (Dataset::Sigmod, SchemaKind::Shallow) => self.sigmod.build_shallow(),
            (Dataset::Sigmod, SchemaKind::Deep) => self.sigmod.build_deep(),
        }
    }

    fn store(&self, ds: Dataset, design: SchemaKind, pool: usize) -> StoredDb {
        StoredDb::build(self.logical(ds, design), pool).expect("store build")
    }

    /// One data set in the three designs, in `SchemaKind::ALL` order.
    fn stores(&self, ds: Dataset) -> [StoredDb; 3] {
        SchemaKind::ALL.map(|design| self.store(ds, design, POOL))
    }
}

/// The pool work of one read after a priming run: its result count and
/// the pool-counter delta.
fn warm_read(s: &mut StoredDb, id: &str, design: SchemaKind, p: &Params) -> (usize, PoolStats) {
    run_read(s, id, design, p, true).expect("priming run");
    let mark = s.pool.stats();
    let out = run_read(s, id, design, p, true).expect("measured run");
    (out.results, s.pool.stats().delta_since(&mark))
}

fn measure(wq: &WorkloadQuery, text: &str) -> Complexity {
    match wq.kind {
        QueryKind::Read => complexity(&parse_query(text).expect("parse")),
        QueryKind::Update => update_complexity(&parse_update(text).expect("parse")),
    }
}

/// Table 1: deep stores the most elements; shallow stores MCT's
/// elements plus its section wrappers; MCT keeps one structural record
/// per color, so its data lies between shallow's and deep's and its
/// index exceeds shallow's.
fn table1(out: &mut String, name: &str, stores: &[StoredDb; 3]) {
    let [m, s, d] = stores.each_ref().map(StoredDb::stats);
    writeln!(out, "\nTable 1 — {name}").unwrap();
    writeln!(
        out,
        "  {:<8} {:>9} {:>8} {:>8} {:>10} {:>11} {:>11}",
        "", "Elements", "Attrs", "Content", "Structural", "Data B", "Index B"
    )
    .unwrap();
    for (design, st) in SchemaKind::ALL.iter().zip([&m, &s, &d]) {
        writeln!(
            out,
            "  {:<8} {:>9} {:>8} {:>8} {:>10} {:>11} {:>11}",
            design.label(),
            st.num_elements,
            st.num_attrs,
            st.num_content,
            st.num_structural,
            st.data_bytes,
            st.index_bytes
        )
        .unwrap();
    }

    let shallow = &stores[1].db;
    let black = shallow.color("black").expect("shallow's one color");
    let wrappers = shallow.children(McNodeId::DOCUMENT, black).count() as u64;
    assert!(
        d.num_elements > s.num_elements && d.num_elements > m.num_elements,
        "{name}: deep must store the most elements ({m:?} / {s:?} / {d:?})"
    );
    assert_eq!(
        s.num_elements,
        m.num_elements + wrappers,
        "{name}: shallow is MCT's elements plus {wrappers} section wrappers"
    );
    assert!(
        m.num_structural > s.num_structural,
        "{name}: MCT keeps a structural record per color ({m:?} / {s:?})"
    );
    assert!(
        s.data_bytes < m.data_bytes && m.data_bytes < d.data_bytes,
        "{name}: data bytes must order shallow < MCT < deep ({m:?} / {s:?} / {d:?})"
    );
    assert!(
        m.index_bytes > s.index_bytes,
        "{name}: MCT's index exceeds shallow's ({m:?} / {s:?})"
    );
}

/// Table 2's work: page accesses of one warm run of every read.
/// MCT matches shallow where shallow needs one tree and beats it by
/// more than half wherever shallow value-joins; TQ10 is MCT's one loss
/// (to deep); deep pays for replication on TQ7 and SQ4.
fn table2(out: &mut String, data: &Data, tpcw: &mut [StoredDb; 3], sigmod: &mut [StoredDb; 3]) {
    writeln!(out, "\nTable 2 — page accesses of one warm run").unwrap();
    writeln!(
        out,
        "  {:<6} {:>8} {:>8} {:>8} {:>8} {:>7} {:>6}",
        "Query", "Results", "MCT", "Shallow", "Deep", "Colors", "Trees"
    )
    .unwrap();
    for wq in all_queries(&data.params) {
        if wq.kind != QueryKind::Read {
            continue;
        }
        let stores = match wq.dataset {
            Dataset::Tpcw => &mut *tpcw,
            Dataset::Sigmod => &mut *sigmod,
        };
        let mut results = 0;
        let mut pages = [0u64; 3];
        for (i, design) in SchemaKind::ALL.into_iter().enumerate() {
            let (n, work) = warm_read(&mut stores[i], wq.id, design, &data.params);
            results = n;
            pages[i] = work.accesses();
        }
        writeln!(
            out,
            "  {:<6} {:>8} {:>8} {:>8} {:>8} {:>7} {:>6}",
            wq.id, results, pages[0], pages[1], pages[2], wq.colors, wq.trees
        )
        .unwrap();

        let [m, s, d] = pages;
        if wq.trees == 1 {
            assert!(
                m as f64 <= 1.05 * s as f64 + 1.0,
                "{}: a 1-tree read must cost MCT about what it costs shallow ({m} vs {s})",
                wq.id
            );
        } else {
            assert!(
                2 * m < s,
                "{}: shallow value-joins {} trees, so MCT must need under half its pages ({m} vs {s})",
                wq.id,
                wq.trees
            );
        }
        if wq.id == "TQ10" {
            assert!(d < m && m < s, "TQ10: deep < MCT < shallow ({d} / {m} / {s})");
        }
        if wq.id == "TQ7" || wq.id == "SQ4" {
            assert!(d >= 5 * m, "{}: deep pays for its replicas ({d} vs {m})", wq.id);
        }
    }
}

/// Updates on a freshly built store per design: elements updated.
fn updates(out: &mut String, data: &Data) {
    writeln!(out, "\nUpdates — elements updated").unwrap();
    writeln!(out, "  {:<6} {:>8} {:>8} {:>8}", "Query", "MCT", "Shallow", "Deep").unwrap();
    for wq in all_queries(&data.params) {
        if wq.kind != QueryKind::Update {
            continue;
        }
        let updated = SchemaKind::ALL.map(|design| {
            let mut s = data.store(wq.dataset, design, POOL);
            run_update(&mut s, &wq, design).expect("update").updated
        });
        writeln!(
            out,
            "  {:<6} {:>8} {:>8} {:>8}",
            wq.id, updated[0], updated[1], updated[2]
        )
        .unwrap();
    }
}

/// Figures 11 and 12, measured from the parsed texts; queries on which
/// all three designs tie are left out, as in the paper.
fn figures(out: &mut String, data: &Data) {
    writeln!(out, "\nFigures 11 / 12 — path expressions / variable bindings").unwrap();
    writeln!(
        out,
        "  {:<6} {:>14}   {:>14}",
        "Query", "paths M/S/D", "bindings M/S/D"
    )
    .unwrap();
    for wq in all_queries(&data.params) {
        let [m, s, d] = [&wq.mct_text, &wq.shallow_text, &wq.deep_text].map(|t| measure(&wq, t));
        if m == s && s == d {
            continue;
        }
        let paths = format!("{}/{}/{}", m.path_exprs, s.path_exprs, d.path_exprs);
        let binds = format!("{}/{}/{}", m.var_bindings, s.var_bindings, d.var_bindings);
        writeln!(out, "  {:<6} {paths:>14}   {binds:>14}", wq.id).unwrap();
    }
}

/// A2: on SIGMOD-Record's MCT store, the §5 cost-based serialization of
/// Figure 8's schema needs far fewer bytes and elements than writing
/// every color out in full, and reconstructs the same database.
fn ablation_a2(out: &mut String, mct: &StoredDb) {
    let (schema, stats) = MctSchema::figure8();
    let scheme = opt_serialize(&schema, &stats);
    let (opt, naive) = compare_sizes(&mct.db, &scheme);
    let saved_bytes = 1.0 - opt.bytes as f64 / naive.bytes as f64;
    let saved_elements = 1.0 - opt.elements as f64 / naive.elements as f64;
    writeln!(out, "\nA2 — SIGMOD-Record MCT, optimal vs naive serialization").unwrap();
    writeln!(
        out,
        "  optimal {} B / {} elements, naive {} B / {} elements: {:.1} % fewer bytes, {:.1} % fewer elements",
        opt.bytes,
        opt.elements,
        naive.bytes,
        naive.elements,
        100.0 * saved_bytes,
        100.0 * saved_elements
    )
    .unwrap();
    assert!(saved_bytes >= 0.25, "A2: optimal saves {saved_bytes:.3} of the bytes");
    assert!(saved_elements >= 0.45, "A2: optimal saves {saved_elements:.3} of the elements");

    let back = reconstruct(&emit_exchange(&mct.db, &scheme)).expect("reconstruct");
    assert_eq!(back.counts(), mct.db.counts(), "A2: the round trip keeps every node");
    assert_eq!(back.structural_count(), mct.db.structural_count());
}

/// A3: TQ13 in small and large pools, warm and after a flush. A warm
/// run misses nothing; a cold one misses in every design; MCT < deep <
/// shallow on accesses and on cold misses, whatever the pool.
fn ablation_a3(out: &mut String, data: &Data) {
    writeln!(out, "\nA3 — TQ13: accesses (warm) and misses (cold) per pool size").unwrap();
    writeln!(
        out,
        "  {:<6} {:>20}   {:>20}",
        "pool", "accesses M/S/D", "cold misses M/S/D"
    )
    .unwrap();
    for pool in [MIB, 64 * MIB] {
        let mut accesses = [0u64; 3];
        let mut misses = [0u64; 3];
        for (i, design) in SchemaKind::ALL.into_iter().enumerate() {
            let mut s = data.store(Dataset::Tpcw, design, pool);
            let (_, warm) = warm_read(&mut s, "TQ13", design, &data.params);
            s.flush_cache().expect("flush");
            let mark = s.pool.stats();
            run_read(&mut s, "TQ13", design, &data.params, true).expect("cold run");
            let cold = s.pool.stats().delta_since(&mark);
            assert_eq!(warm.misses, 0, "A3 {design:?}, {pool} B pool: a warm run misses");
            assert!(cold.misses > 0, "A3 {design:?}, {pool} B pool: a cold run must miss");
            accesses[i] = warm.accesses();
            misses[i] = cold.misses;
        }
        let [am, as_, ad] = accesses;
        let [mm, ms, md] = misses;
        writeln!(
            out,
            "  {:<6} {:>20}   {:>20}",
            format!("{} MiB", pool / MIB),
            format!("{am}/{as_}/{ad}"),
            format!("{mm}/{ms}/{md}")
        )
        .unwrap();
        assert!(
            am < ad && ad < as_,
            "A3, {pool} B pool: accesses must order MCT < deep < shallow ({am}/{as_}/{ad})"
        );
        assert!(
            mm < md && md < ms,
            "A3, {pool} B pool: cold misses must order MCT < deep < shallow ({mm}/{ms}/{md})"
        );
    }
}

/// Measures and checks §7 at `scale`, then prints its tables in one
/// write, so the two scales' tests do not interleave their lines.
fn section7(scale: f64) {
    let mut out = format!("\n===== §7 at scale {scale} =====\n");
    let data = Data::generate(scale);
    let mut tpcw = data.stores(Dataset::Tpcw);
    let mut sigmod = data.stores(Dataset::Sigmod);
    table1(&mut out, "TPC-W", &tpcw);
    table1(&mut out, "SIGMOD-Record", &sigmod);
    table2(&mut out, &data, &mut tpcw, &mut sigmod);
    updates(&mut out, &data);
    figures(&mut out, &data);
    ablation_a2(&mut out, &sigmod[0]);
    ablation_a3(&mut out, &data);
    print!("{out}");
}

#[test]
fn section7_holds_at_scale_0_05() {
    section7(0.05);
}

#[test]
fn section7_holds_at_scale_0_5() {
    section7(0.5);
}
