//! # mct-bench — timings and microbenchmarks for §7
//!
//! * `table2` — query/update processing times (Table 2), with
//!   `--sweep` for the §7.2 scaling note and `--cold` for cold-cache;
//! * `cargo bench` groups: `btree`, `joins` (ablation A1), `queries`,
//!   `serialize`, `updates` and `scaling`.
//!
//! The part of §7 that does not depend on the host — Table 1, Table
//! 2's page accesses, Figures 11–12, ablations A2 and A3 — is the
//! root test `tests/paper_shape.rs`, which asserts the paper's shape
//! and prints the tables.
//!
//! Timing follows the paper's protocol: "Each experiment was run five
//! times. The lowest and highest readings were ignored and the other
//! three were averaged." Queries are timed warm (one untimed priming
//! run), as the paper reports.

pub mod microbench;

use mct_core::StoredDb;
use mct_workloads::{Params, SchemaKind, SigmodConfig, SigmodData, TpcwConfig, TpcwData};
use std::time::{Duration, Instant};

/// Default buffer pool for experiments (the paper's 256 MiB).
pub const POOL_BYTES: usize = 256 * 1024 * 1024;

/// The six stored databases (2 data sets × 3 designs) plus parameters.
pub struct Fixtures {
    /// Query parameters derived from the data.
    pub params: Params,
    /// TPC-W in [MCT, shallow, deep] order.
    pub tpcw: [StoredDb; 3],
    /// SIGMOD-Record in [MCT, shallow, deep] order.
    pub sigmod: [StoredDb; 3],
    /// The raw entity graphs (kept for rebuilds).
    pub tpcw_data: TpcwData,
    /// SIGMOD entity graph.
    pub sigmod_data: SigmodData,
}

impl Fixtures {
    /// Generate and store all six databases at `scale` with the
    /// default generator seeds.
    pub fn build(scale: f64) -> Fixtures {
        Fixtures::build_seeded(scale, None)
    }

    /// [`Fixtures::build`] with an explicit generator seed (`--seed`);
    /// `None` keeps each workload's default seed. The same
    /// `(scale, seed)` pair always produces byte-identical databases.
    pub fn build_seeded(scale: f64, seed: Option<u64>) -> Fixtures {
        let tpcw_cfg = TpcwConfig {
            scale,
            seed: seed.unwrap_or(TpcwConfig::default().seed),
        };
        let sig_cfg = SigmodConfig {
            scale,
            seed: seed.unwrap_or(SigmodConfig::default().seed),
        };
        let tpcw_data = TpcwData::generate(&tpcw_cfg);
        let sigmod_data = SigmodData::generate(&sig_cfg);
        let params = Params::derive(&tpcw_data, &sigmod_data);
        let build = |db| StoredDb::build(db, POOL_BYTES).expect("store build");
        Fixtures {
            params,
            tpcw: [
                build(tpcw_data.build_mct()),
                build(tpcw_data.build_shallow()),
                build(tpcw_data.build_deep()),
            ],
            sigmod: [
                build(sigmod_data.build_mct()),
                build(sigmod_data.build_shallow()),
                build(sigmod_data.build_deep()),
            ],
            tpcw_data,
            sigmod_data,
        }
    }

    /// The stored database for (dataset, design).
    pub fn db(&mut self, dataset: mct_workloads::Dataset, schema: SchemaKind) -> &mut StoredDb {
        let idx = SchemaKind::ALL.iter().position(|s| *s == schema).unwrap();
        match dataset {
            mct_workloads::Dataset::Tpcw => &mut self.tpcw[idx],
            mct_workloads::Dataset::Sigmod => &mut self.sigmod[idx],
        }
    }

    /// Rebuild one database from the entity graph (fresh state for
    /// update measurements).
    pub fn rebuild(&self, dataset: mct_workloads::Dataset, schema: SchemaKind) -> StoredDb {
        let db = match (dataset, schema) {
            (mct_workloads::Dataset::Tpcw, SchemaKind::Mct) => self.tpcw_data.build_mct(),
            (mct_workloads::Dataset::Tpcw, SchemaKind::Shallow) => self.tpcw_data.build_shallow(),
            (mct_workloads::Dataset::Tpcw, SchemaKind::Deep) => self.tpcw_data.build_deep(),
            (mct_workloads::Dataset::Sigmod, SchemaKind::Mct) => self.sigmod_data.build_mct(),
            (mct_workloads::Dataset::Sigmod, SchemaKind::Shallow) => {
                self.sigmod_data.build_shallow()
            }
            (mct_workloads::Dataset::Sigmod, SchemaKind::Deep) => self.sigmod_data.build_deep(),
        };
        StoredDb::build(db, POOL_BYTES).expect("store rebuild")
    }
}

/// The paper's protocol: five runs, drop min and max, average the
/// middle three. Returns `(mean_of_middle_three, last_result)`.
pub fn time_paper_protocol<T>(mut f: impl FnMut() -> T) -> (Duration, T) {
    let mut times = Vec::with_capacity(5);
    let mut last = None;
    for _ in 0..5 {
        let t0 = Instant::now();
        let r = f();
        times.push(t0.elapsed());
        last = Some(r);
    }
    times.sort();
    let mid: Duration = times[1..4].iter().sum::<Duration>() / 3;
    (mid, last.expect("ran at least once"))
}

/// One timed run (for expensive setups like updates on fresh stores).
pub fn time_once<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed(), r)
}

/// Format a duration in milliseconds with 3 decimals (the paper
/// reports seconds, but modern hardware is far faster than its
/// Pentium IIIM, so most times here are well under one).
pub fn ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build_at_tiny_scale() {
        let mut f = Fixtures::build(0.02);
        let mct = f.db(mct_workloads::Dataset::Tpcw, SchemaKind::Mct);
        assert!(mct.stats().num_elements > 100);
        let deep = f.db(mct_workloads::Dataset::Tpcw, SchemaKind::Deep);
        assert!(deep.stats().num_elements > 100);
    }

    #[test]
    fn timing_protocol_runs_five_times() {
        let mut n = 0;
        let (_d, last) = time_paper_protocol(|| {
            n += 1;
            n
        });
        assert_eq!(n, 5);
        assert_eq!(last, 5);
    }
}
