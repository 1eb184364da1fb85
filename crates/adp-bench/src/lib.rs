//! # adp-bench
//!
//! Workload generation and the harnesses that reproduce and measure the
//! paper's evaluation:
//!
//! | Harness | What it does |
//! |---------|--------------|
//! | [`compare`] (bin `baseline_compare`) | Section 2.3 / 6.1 comparison vs \[10\], \[13\], \[20\], Section 6.3 churn, and the paper's Figures 9–10, Section 5.1 ablation and Sections 6.2–6.3 — drift-checked cells in `docs/EVALUATION.md` and `BENCH_PR5.json` |
//! | [`chaos`] | Verified queries through the fault proxy |
//! | bin `adpbench` | The end-to-end benchmark declared in `BENCHMARK.json` |
//!
//! Per-layer unit costs (hashing, RSA, VO assembly, verification) are
//! measured by the `adpbench` end-to-end benchmark's `--trace 1` probes.

use adp_core::prelude::*;
use adp_relation::{Column, Record, Schema, Table, Value, ValueType};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

pub mod chaos;
pub mod compare;

/// Gap between consecutive generated keys: a range of `q · KEY_GAP`
/// keys holds exactly `q` rows.
pub(crate) const KEY_GAP: i64 = 10;

/// Workload builder: tables with evenly spaced keys (`KEY_GAP` = 10
/// apart) and a sized payload.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    pub rows: usize,
    /// Payload bytes per record (drives the paper's `M_r`).
    pub payload_bytes: usize,
    pub seed: u64,
}

impl WorkloadSpec {
    /// A spec with sensible defaults.
    pub fn new(rows: usize) -> Self {
        WorkloadSpec {
            rows,
            payload_bytes: 64,
            seed: 42,
        }
    }

    /// Builder: payload size.
    pub fn payload(mut self, bytes: usize) -> Self {
        self.payload_bytes = bytes;
        self
    }

    /// The schema used by generated tables: `k INT, grp INT, payload BYTES`.
    pub fn schema() -> Schema {
        Schema::new(
            vec![
                Column::new("k", ValueType::Int),
                Column::new("grp", ValueType::Int),
                Column::new("payload", ValueType::Bytes),
            ],
            "k",
        )
    }

    /// Generates the table and a domain that fits it.
    pub fn build(&self) -> (Table, Domain) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let domain = Domain::new(0, (self.rows as i64 + 2) * KEY_GAP + 4);
        let mut t = Table::new("bench", Self::schema());
        for i in 0..self.rows {
            let mut payload = vec![0u8; self.payload_bytes];
            rng.fill(payload.as_mut_slice());
            t.insert(Record::new(vec![
                Value::Int(domain.key_min() + i as i64 * KEY_GAP),
                Value::Int((i % 10) as i64),
                Value::Bytes(payload),
            ]))
            .expect("generated record is schema-valid");
        }
        (t, domain)
    }

    /// Generates, signs, and certifies in one go.
    pub fn signed(&self, owner: &Owner, config: SchemeConfig) -> (SignedTable, Certificate) {
        let (table, domain) = self.build();
        let st = owner
            .sign_table(table, domain, config)
            .expect("generated keys are in-domain");
        let cert = owner.certificate(&st);
        (st, cert)
    }
}

/// A shared bench owner (keygen once per process). 1024-bit keys match the
/// paper's `M_sign`.
pub fn bench_owner() -> &'static Owner {
    use std::sync::OnceLock;
    static OWNER: OnceLock<Owner> = OnceLock::new();
    OWNER.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xBE9C);
        Owner::new(1024, &mut rng)
    })
}

/// A faster owner for experiments where signing cost is not the subject.
pub fn bench_owner_small() -> &'static Owner {
    use std::sync::OnceLock;
    static OWNER: OnceLock<Owner> = OnceLock::new();
    OWNER.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xBE9D);
        Owner::new(512, &mut rng)
    })
}

/// Timing samples per measurement, from `ADP_PERF_SAMPLES` (default 25;
/// the CI smoke job sets 2 so the harness cannot rot without burning
/// minutes).
pub fn perf_samples() -> usize {
    std::env::var("ADP_PERF_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(25usize)
        .max(1)
}

/// Median wall time of one call to `f` in nanoseconds, calibrated so each
/// sample spans ~2 ms (cheap routines are batched; expensive ones run
/// once per sample). `compare` times its `timing` cells with it.
pub fn measure_ns<T>(n_samples: usize, mut f: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    std::hint::black_box(f());
    let once = start.elapsed().max(Duration::from_nanos(50));
    let per_sample = (Duration::from_millis(2).as_nanos() / once.as_nanos()).clamp(1, 20_000);
    let mut times: Vec<f64> = Vec::with_capacity(n_samples);
    for _ in 0..n_samples {
        let start = Instant::now();
        for _ in 0..per_sample {
            std::hint::black_box(f());
        }
        times.push(start.elapsed().as_nanos() as f64 / per_sample as f64);
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    times[times.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;
    use adp_relation::{KeyRange, SelectQuery};

    #[test]
    fn spaced_workload_has_deterministic_selectivity() {
        let (t, domain) = WorkloadSpec::new(100).build();
        assert_eq!(t.len(), 100);
        assert!(t
            .rows()
            .iter()
            .all(|r| domain.contains_key(r.record.key(t.schema()))));
        // Keys at key_min, key_min+10, ...
        assert_eq!(t.rows()[0].record.key(t.schema()), domain.key_min());
        assert_eq!(t.rows()[99].record.key(t.schema()), domain.key_min() + 990);
    }

    #[test]
    fn payload_drives_record_size() {
        let (t, _) = WorkloadSpec::new(2).payload(512).build();
        assert!(t.rows()[0].record.wire_size() >= 512);
    }

    #[test]
    fn signed_workload_verifies() {
        let (st, cert) = WorkloadSpec::new(30).signed(bench_owner_small(), SchemeConfig::default());
        let query = SelectQuery::range(KeyRange::all());
        let (result, vo) = Publisher::new(&st).answer_select(&query).unwrap();
        let report = verify_select(&cert, &query, &result, &vo).unwrap();
        assert_eq!(report.matched, 30);
    }
}
