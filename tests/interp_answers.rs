//! The interpreter's answers, pinned byte for byte.
//!
//! Every read statement of `all_queries` runs in the MCT, shallow and
//! deep designs on both data sets at scale 0.02, and every update
//! statement is applied to a fresh store. Each rendered answer (every
//! item's debug form and its atomized value) and each store digest
//! after an update is hashed; the hashes must equal the table below,
//! which was taken from the interpreter before its evaluation loop was
//! rewritten for speed. A faster interpreter must give the same
//! answers in the same order.
//!
//! Shallow TQ10 is skipped: it is a 5-way cross product that runs for
//! minutes even at this scale.
//!
//! On a mismatch the test prints the whole table it computed, in the
//! form of `EXPECTED`.

use mct_core::StoredDb;
use mct_query::eval::atomize;
use mct_query::{eval, execute_update_with, parse_query, parse_update, EvalContext};
use mct_workloads::{
    all_queries, Dataset, Params, QueryKind, SchemaKind, SigmodConfig, SigmodData, TpcwConfig,
    TpcwData,
};

const SCALE: f64 = 0.02;
const POOL: usize = 16 << 20;
const SKIPPED: &[(&str, SchemaKind)] = &[("TQ10", SchemaKind::Shallow)];

const EXPECTED: &[(&str, u64)] = &[
    ("TQ1 MCT", 0x729e9b8723dacf96),
    ("TQ2 MCT", 0x72da004669350e67),
    ("TQ3 MCT", 0x94ac817ee1627f06),
    ("TQ4 MCT", 0xcf1e9b564e17ed3c),
    ("TQ5 MCT", 0x51345842e0bb4e1e),
    ("TQ6 MCT", 0x0ab77c06899094cd),
    ("TQ7 MCT", 0xe22b67922dcd866d),
    ("TQ8 MCT", 0xd5c6d5976ef47109),
    ("TQ9 MCT", 0x6f97e8dc4b82f3be),
    ("TQ10 MCT", 0x4f3b211831a625cc),
    ("TQ11 MCT", 0x3bd85fb8de2c1147),
    ("TQ12 MCT", 0x86824a79d25cd720),
    ("TQ13 MCT", 0x3db3e2e3b179c0a0),
    ("TQ14 MCT", 0xfd18e7ace7baf0d8),
    ("TQ15 MCT", 0xaf47563cb46e31a4),
    ("TQ16 MCT", 0xbf228a4812c281e3),
    ("TU1 MCT", 0x81a158d4f4fd6180),
    ("TU2 MCT", 0x09ebf90a5800811a),
    ("TU3 MCT", 0xc17f47544667713f),
    ("TU4 MCT", 0x5f23c75eafdf45d4),
    ("SQ1 MCT", 0x164938e44ca24762),
    ("SQ2 MCT", 0x0593b4d2711292e2),
    ("SQ3 MCT", 0x648962c1909352ff),
    ("SQ4 MCT", 0x5fb086fdb9aa1db1),
    ("SQ5 MCT", 0x7e2f5242f9f89d6f),
    ("SU1 MCT", 0xfac2db4ee409b139),
    ("SU2 MCT", 0x64a4ebc942eebc12),
    ("TQ1 Shallow", 0x23e37875c524c4c8),
    ("TQ2 Shallow", 0x3fa3224107381048),
    ("TQ3 Shallow", 0x10eb357f07c97a79),
    ("TQ4 Shallow", 0x56facbce617b5e30),
    ("TQ5 Shallow", 0xc061d0158e46721c),
    ("TQ6 Shallow", 0x15cd4c3fa70afee5),
    ("TQ7 Shallow", 0xe22b67922dcd866d),
    ("TQ8 Shallow", 0xd5c6d5976ef47109),
    ("TQ9 Shallow", 0x3db369031b7aba8e),
    ("TQ11 Shallow", 0x30ffcbd3dbb1363e),
    ("TQ12 Shallow", 0x6abea29fc928804b),
    ("TQ13 Shallow", 0x37faea34034e4f69),
    ("TQ14 Shallow", 0x7fd9c30ebb35b356),
    ("TQ15 Shallow", 0xf2ec293ec6f1f3fa),
    ("TQ16 Shallow", 0x3dc38832e6a20a4e),
    ("TU1 Shallow", 0x4df1de7a0eeb8198),
    ("TU2 Shallow", 0x4b3134ed312364d8),
    ("TU3 Shallow", 0x4a18db00ca6ded81),
    ("TU4 Shallow", 0x74595ba234e5de8e),
    ("SQ1 Shallow", 0xb8135f51a41eb91d),
    ("SQ2 Shallow", 0xd689f02644635812),
    ("SQ3 Shallow", 0x2070ca3e44507984),
    ("SQ4 Shallow", 0x5fb086fdb9aa1db1),
    ("SQ5 Shallow", 0xf2687a3a8f54a1ff),
    ("SU1 Shallow", 0xd82094e93942ec87),
    ("SU2 Shallow", 0x367a6721a64124f0),
    ("TQ1 Deep", 0xe3d90bf6095765e5),
    ("TQ2 Deep", 0x171d9ae37bf99cd0),
    ("TQ3 Deep", 0x60e942b58fcaeef1),
    ("TQ4 Deep", 0x6e6195bd871caf97),
    ("TQ5 Deep", 0x3a2d146fddb6ff5f),
    ("TQ6 Deep", 0xbb0f56bda0ae9e70),
    ("TQ7 Deep", 0x09ec59a73c167275),
    ("TQ8 Deep", 0xd5c6d5976ef47109),
    ("TQ9 Deep", 0xfb0b2fc4c14bba40),
    ("TQ10 Deep", 0x6772116cfdf2676f),
    ("TQ11 Deep", 0x9ca6b54f784ecd20),
    ("TQ12 Deep", 0x86824a79d25cd720),
    ("TQ13 Deep", 0x19027406bd1f8bbc),
    ("TQ14 Deep", 0x24644fe1264674e2),
    ("TQ15 Deep", 0x028f81fca34f66bb),
    ("TQ16 Deep", 0x739599067a771f6e),
    ("TU1 Deep", 0xfa805f4a5521e28f),
    ("TU2 Deep", 0x21b0f93e3c16db1b),
    ("TU3 Deep", 0xe0fff0ae1fa29802),
    ("TU4 Deep", 0x494d21a4cef7514b),
    ("SQ1 Deep", 0xba06a3d4997ca2c2),
    ("SQ2 Deep", 0x86aaec7ddfa0a2e5),
    ("SQ3 Deep", 0x7ddd499db95e529b),
    ("SQ4 Deep", 0x3a252d70dd96fb5d),
    ("SQ5 Deep", 0xcc718880ac73b69f),
    ("SU1 Deep", 0x8229f01d90fd1025),
    ("SU2 Deep", 0x068731d2b819a55e),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn interpreter_answers_match_the_pinned_hashes() {
    let tpcw = TpcwData::generate(&TpcwConfig {
        scale: SCALE,
        ..TpcwConfig::default()
    });
    let sigmod = SigmodData::generate(&SigmodConfig {
        scale: SCALE,
        ..SigmodConfig::default()
    });
    let params = Params::derive(&tpcw, &sigmod);
    let store = |ds: Dataset, design: SchemaKind| {
        let db = match (ds, design) {
            (Dataset::Tpcw, SchemaKind::Mct) => tpcw.build_mct(),
            (Dataset::Tpcw, SchemaKind::Shallow) => tpcw.build_shallow(),
            (Dataset::Tpcw, SchemaKind::Deep) => tpcw.build_deep(),
            (Dataset::Sigmod, SchemaKind::Mct) => sigmod.build_mct(),
            (Dataset::Sigmod, SchemaKind::Shallow) => sigmod.build_shallow(),
            (Dataset::Sigmod, SchemaKind::Deep) => sigmod.build_deep(),
        };
        StoredDb::build(db, POOL).expect("store build")
    };
    let queries = all_queries(&params);
    let mut got: Vec<(String, u64)> = Vec::new();
    for design in SchemaKind::ALL {
        let default = (design != SchemaKind::Mct).then_some("black");
        for ds in [Dataset::Tpcw, Dataset::Sigmod] {
            let reads = store(ds, design);
            for wq in queries.iter().filter(|q| q.dataset == ds) {
                if SKIPPED.contains(&(wq.id, design)) {
                    continue;
                }
                let text = match design {
                    SchemaKind::Mct => &wq.mct_text,
                    SchemaKind::Shallow => &wq.shallow_text,
                    SchemaKind::Deep => &wq.deep_text,
                };
                let name = format!("{} {}", wq.id, design.label());
                let hash = match wq.kind {
                    QueryKind::Read => {
                        let e = parse_query(text).unwrap_or_else(|e| panic!("{name}: {e}"));
                        let mut ctx = EvalContext::shared(&reads);
                        if let Some(c) = default {
                            ctx = ctx.with_default_color(c).unwrap();
                        }
                        let items = eval(&mut ctx, &e).unwrap_or_else(|e| panic!("{name}: {e}"));
                        let mut rendered = String::new();
                        for item in &items {
                            rendered += &format!("{item:?}\t{}\n", atomize(&ctx, item));
                        }
                        fnv1a(rendered.as_bytes())
                    }
                    QueryKind::Update => {
                        let mut s = store(ds, design);
                        let u = parse_update(text).unwrap_or_else(|e| panic!("{name}: {e}"));
                        execute_update_with(&mut s, &u, default)
                            .unwrap_or_else(|e| panic!("{name}: {e}"));
                        fnv1a(s.digest().as_bytes())
                    }
                };
                got.push((name, hash));
            }
        }
    }
    let table: String = got
        .iter()
        .map(|(name, hash)| format!("    (\"{name}\", {hash:#018x}),\n"))
        .collect();
    let expected: Vec<(String, u64)> = EXPECTED.iter().map(|&(n, h)| (n.to_string(), h)).collect();
    assert!(got == expected, "answers differ from the pinned table; computed:\n{table}");
}
