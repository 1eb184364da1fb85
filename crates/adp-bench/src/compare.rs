//! The cross-scheme comparison harness behind the `baseline_compare`
//! binary and `adp compare`: reproduces the paper's Section 6.1
//! comparison table and Section 6.3 update-churn experiment across all
//! four schemes — the `adp-core` signature chain, the Devanbu Merkle
//! tree, the Ma aggregated-signature scheme, and the VB-tree — over one
//! shared workload grid (table sizes × range selectivities × projection
//! shapes), plus a continuous-churn leg that drives `Owner::apply_batch`
//! through the `adp-store` update log.
//!
//! Everything the harness derives that is *not* a wall-clock time — VO
//! wire bytes, dissemination bytes/signatures, rows shipped, disclosure
//! counts, per-batch re-signing costs, log bytes — is deterministic:
//! workloads and keys come from fixed seeds, so the cells are identical
//! on every machine. Those cells are committed twice, as markdown tables
//! inside `docs/EVALUATION.md` (between `baseline_compare:begin/end`
//! markers) and as the `cells` objects of `BENCH_PR5.json`, and
//! [`run`] in `--check` mode re-derives every one of them and fails on
//! any drift — CI proves the doc can never diverge from the code.
//! Timings (verify latency, publish time, churn throughput) are
//! machine-local and live only in the snapshot's `timing` objects.

use crate::{bench_owner_small, measure_ns, perf_samples, WorkloadSpec};
use adp_baselines::{MaScheme, MhtScheme, RangeScheme, UpdateCost, VbScheme};
use adp_core::prelude::*;
use adp_crypto::{Hasher, Keypair};
use adp_relation::{KeyRange, Record, SelectQuery, Table, Value};
use adp_store::Store;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::time::Instant;

/// VB-tree fanout used throughout the comparison (the value the old
/// one-shot bench used; a middle ground between VO size and signing cost).
const VB_FANOUT: usize = 64;

/// Spaced-key gap of the generated workloads (`WorkloadSpec` default).
const KEY_GAP: i64 = 10;

/// Begin marker of the generated region in `docs/EVALUATION.md`.
pub const DOC_BEGIN: &str = "<!-- baseline_compare:begin";
/// End marker of the generated region in `docs/EVALUATION.md`.
pub const DOC_END: &str = "<!-- baseline_compare:end";

// ------------------------------------------------------------------ grid

/// The shared workload grid. One value of this struct fully determines
/// every deterministic cell the harness emits.
#[derive(Clone, Debug)]
pub struct Grid {
    /// Table cardinalities.
    pub sizes: Vec<usize>,
    /// Result sizes `q` (range selectivities; a `q` is skipped for tables
    /// with fewer than `q + 2` rows, which cannot host an interior range).
    pub result_sizes: Vec<usize>,
    /// Projection shapes as (name, kept columns) over the bench schema
    /// `k INT, grp INT, payload BYTES`.
    pub projections: Vec<(&'static str, Vec<&'static str>)>,
    /// Payload bytes per record.
    pub payload: usize,
    /// Churn leg: table cardinality…
    pub churn_rows: usize,
    /// …mutations per batch…
    pub churn_batch: usize,
    /// …and batches applied.
    pub churn_batches: usize,
}

impl Grid {
    /// The committed grid — what `docs/EVALUATION.md` and
    /// `BENCH_PR5.json` are generated from and `--check` re-derives.
    pub fn full() -> Self {
        Grid {
            sizes: vec![1_000, 5_000],
            result_sizes: vec![10, 100, 1_000],
            projections: Self::shapes(),
            payload: 64,
            churn_rows: 2_000,
            churn_batch: 16,
            churn_batches: 32,
        }
    }

    /// A seconds-scale grid for CI smoke runs (`--tiny`). Never used for
    /// the committed artifacts.
    pub fn tiny() -> Self {
        Grid {
            sizes: vec![200],
            result_sizes: vec![5, 20],
            projections: Self::shapes(),
            payload: 64,
            churn_rows: 200,
            churn_batch: 8,
            churn_batches: 4,
        }
    }

    fn shapes() -> Vec<(&'static str, Vec<&'static str>)> {
        vec![("all", vec!["k", "grp", "payload"]), ("key", vec!["k"])]
    }

    /// The result sizes that fit an interior range in an `n`-row table.
    fn queries_for(&self, n: usize) -> Vec<usize> {
        self.result_sizes
            .iter()
            .copied()
            .filter(|q| q + 2 <= n)
            .collect()
    }
}

// ------------------------------------------------------- chain adapter

/// The signature-chain scheme (`adp-core`) behind the same
/// [`RangeScheme`] lens as the baselines, so the grid can iterate all
/// four schemes generically. Owner and publisher state live together
/// here for the same harness-shaped reason as the baseline adapters.
pub struct ChainScheme {
    st: SignedTable,
    cert: Certificate,
    owner: &'static Owner,
}

impl ChainScheme {
    /// Signs `table` over `domain` with the default scheme config.
    pub fn publish(owner: &'static Owner, table: Table, domain: Domain) -> Self {
        let st = owner
            .sign_table(table, domain, SchemeConfig::default())
            .expect("workload keys are in-domain");
        let cert = owner.certificate(&st);
        ChainScheme { st, cert, owner }
    }

    /// The signed table (for the churn driver, which moves it into a
    /// durable store).
    pub fn into_signed_table(self) -> SignedTable {
        self.st
    }

    fn query(&self, range: &KeyRange, projection: &[usize]) -> SelectQuery {
        let schema = self.st.table().schema();
        let q = SelectQuery::range(*range);
        if projection.len() == schema.arity() {
            q
        } else {
            let names: Vec<&str> = projection
                .iter()
                .map(|&i| schema.columns()[i].name.as_str())
                .collect();
            q.project(&names)
        }
    }
}

impl RangeScheme for ChainScheme {
    type VO = QueryVO;

    fn scheme_name(&self) -> &'static str {
        "chain"
    }

    fn verifies_completeness(&self) -> bool {
        true
    }

    fn supports_projection(&self) -> bool {
        true
    }

    fn dissemination(&self) -> adp_baselines::Dissemination {
        adp_baselines::Dissemination {
            bytes: self.st.dissemination_size(),
            signatures: self.st.chain_len(),
        }
    }

    fn answer(&self, range: &KeyRange, projection: &[usize]) -> (Vec<Record>, Self::VO) {
        let query = self.query(range, projection);
        Publisher::new(&self.st)
            .answer_select(&query)
            .expect("grid queries are well-formed")
    }

    fn vo_bytes(vo: &Self::VO) -> usize {
        // The chain scheme has a real codec: this is the exact encoded
        // length, not the baselines' accounting approximation.
        vo.wire_size()
    }

    fn verify(
        &self,
        range: &KeyRange,
        projection: &[usize],
        rows: &[Record],
        vo: &Self::VO,
    ) -> Result<(), String> {
        let query = self.query(range, projection);
        verify_select(&self.cert, &query, rows, vo)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    fn rows_beyond_query(&self, _range: &KeyRange, _rows: &[Record]) -> usize {
        0 // precision by construction — the paper's Section 3 requirement
    }

    fn update_payload(&mut self, pos: usize, record: Record) -> UpdateCost {
        let row = self.st.table().row(pos);
        let (key, replica) = (row.record.key(self.st.table().schema()), row.replica);
        let report = self
            .owner
            .update_record(&mut self.st, key, replica, record)
            .expect("churn updates are schema-valid");
        UpdateCost {
            signatures: report.signatures_recomputed as u64,
            digests: report.g_recomputed as u64,
        }
    }
}

// --------------------------------------------------------- measurement

/// Results for one scheme: deterministic cells (machine-independent,
/// committed and checked) and timings (machine-local, snapshot-only).
pub struct SchemeResults {
    /// Stable scheme key: `chain`, `mht`, `aggsig`, `vbtree`.
    pub name: &'static str,
    /// `(key, value)` deterministic cells in emission order.
    pub cells: Vec<(String, u64)>,
    /// `(key, value)` timing entries in emission order.
    pub timing: Vec<(String, f64)>,
}

impl SchemeResults {
    fn new(name: &'static str) -> Self {
        SchemeResults {
            name,
            cells: Vec::new(),
            timing: Vec::new(),
        }
    }

    fn cell(&mut self, key: String, v: u64) {
        self.cells.push((key, v));
    }

    fn time(&mut self, key: String, v: f64) {
        self.timing.push((key, v));
    }

    /// Looks a deterministic cell up (panics on a key the grid did not
    /// emit — a harness bug, not an input error).
    pub fn get(&self, key: &str) -> u64 {
        self.cells
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("missing cell {key} for {}", self.name))
    }
}

/// Drives one published scheme through every (q, projection) cell of one
/// table size. `samples = None` skips timing (the `--check` path).
fn drive<S: RangeScheme>(
    scheme: &S,
    n: usize,
    queries: &[(usize, KeyRange)],
    projections: &[(String, Vec<usize>)],
    samples: Option<usize>,
    res: &mut SchemeResults,
) {
    let d = scheme.dissemination();
    res.cell(format!("dissemination_bytes/n{n}"), d.bytes as u64);
    res.cell(format!("dissemination_sigs/n{n}"), d.signatures as u64);
    for (q, range) in queries {
        for (pname, pidx) in projections {
            let (rows, vo) = scheme.answer(range, pidx);
            scheme
                .verify(range, pidx, &rows, &vo)
                .unwrap_or_else(|e| panic!("{} n={n} q={q} {pname}: {e}", scheme.scheme_name()));
            let key = |metric: &str| format!("{metric}/n{n}/q{q}/{pname}");
            res.cell(key("vo_bytes"), S::vo_bytes(&vo) as u64);
            res.cell(key("answer_rows"), rows.len() as u64);
            res.cell(
                key("answer_bytes"),
                rows.iter().map(Record::wire_size).sum::<usize>() as u64,
            );
            res.cell(
                key("beyond_rows"),
                scheme.rows_beyond_query(range, &rows) as u64,
            );
            if let Some(ns) = samples {
                let t = measure_ns(ns, || {
                    scheme
                        .verify(range, pidx, &rows, &vo)
                        .expect("verified above")
                });
                res.time(key("verify_ns"), t);
            }
        }
    }
}

/// The deterministic churn record for batch `round`, slot `j`, at `key`.
fn churn_record(key: i64, round: usize, j: usize, payload: usize) -> Record {
    Record::new(vec![
        Value::Int(key),
        Value::Int(((round + j) % 10) as i64),
        Value::Bytes(vec![((round * 31 + j * 7) % 251) as u8; payload]),
    ])
}

/// Positions mutated in batch `round` — `k` scatter-strided rows, all
/// distinct, no two adjacent (so the chain's 3-signature neighborhoods
/// never overlap and the per-batch cost is stable).
fn churn_positions(n: usize, k: usize, round: usize) -> Vec<usize> {
    let stride = n / k;
    (0..k)
        .map(|j| (j * stride + (round % stride)) % n)
        .collect()
}

/// Churn leg for a trait-driven scheme: per-record updates, batched for
/// accounting symmetry with the chain's `apply_batch`.
fn churn_scheme<S: RangeScheme>(
    scheme: &mut S,
    grid: &Grid,
    keys: &[i64],
    timing: bool,
    res: &mut SchemeResults,
) {
    let (n, k) = (grid.churn_rows, grid.churn_batch);
    let mut first = UpdateCost::default();
    let start = Instant::now();
    for round in 0..grid.churn_batches {
        let mut cost = UpdateCost::default();
        for (j, &pos) in churn_positions(n, k, round).iter().enumerate() {
            cost += scheme.update_payload(pos, churn_record(keys[pos], round, j, grid.payload));
        }
        if round == 0 {
            first = cost;
        }
    }
    let elapsed = start.elapsed();
    res.cell("churn/resigned_per_batch".into(), first.signatures);
    res.cell("churn/digests_per_batch".into(), first.digests);
    if timing {
        let updates = (grid.churn_batches * k) as f64;
        res.time(
            "churn/updates_per_sec".into(),
            updates / elapsed.as_secs_f64(),
        );
    }
}

/// Churn leg for the chain: `Owner::apply_batch` batches through a real
/// `adp-store` directory, so every batch pays canonicalization, O(k)
/// re-signing, the CRC-framed log append, and the copy-on-write table
/// swap — the full owner-side ingest path a durable deployment runs.
fn churn_chain(
    owner: &'static Owner,
    st: SignedTable,
    grid: &Grid,
    keys: &[i64],
    timing: bool,
    res: &mut SchemeResults,
) {
    // Unique per call, not just per process: the unit tests run several
    // run_grid()s concurrently in one process.
    static CHURN_DIR: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "adp-baseline-compare-{}-{}",
        std::process::id(),
        CHURN_DIR.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = Store::create(&dir, st).expect("temp store");
    let (n, k) = (grid.churn_rows, grid.churn_batch);
    let (mut first, mut first_log) = (UpdateCost::default(), 0u64);
    let start = Instant::now();
    for round in 0..grid.churn_batches {
        let ops: Vec<Mutation> = churn_positions(n, k, round)
            .iter()
            .enumerate()
            .map(|(j, &pos)| Mutation::Update {
                key: keys[pos],
                replica: 0,
                record: churn_record(keys[pos], round, j, grid.payload),
            })
            .collect();
        let log_before = store.log_bytes().expect("temp store metadata");
        let report = store.apply_batch(owner, ops).expect("churn batch applies");
        if round == 0 {
            first = UpdateCost {
                signatures: report.signatures_recomputed as u64,
                digests: report.g_recomputed as u64,
            };
            first_log = store.log_bytes().expect("temp store metadata") - log_before;
        }
    }
    let elapsed = start.elapsed();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    res.cell("churn/resigned_per_batch".into(), first.signatures);
    res.cell("churn/digests_per_batch".into(), first.digests);
    res.cell("churn/log_bytes_per_batch".into(), first_log);
    if timing {
        let updates = (grid.churn_batches * k) as f64;
        res.time(
            "churn/updates_per_sec".into(),
            updates / elapsed.as_secs_f64(),
        );
    }
}

/// One fixed keypair for the three baselines (the chain uses the shared
/// 512-bit bench owner); all deterministic cells depend on these seeds.
fn baseline_keypair() -> Keypair {
    let mut rng = StdRng::seed_from_u64(0xBA5E1);
    Keypair::generate(512, &mut rng)
}

/// Runs the whole grid. `timing = false` is the `--check` path: every
/// deterministic cell is still derived (and every answer still verified)
/// but nothing is measured.
pub fn run_grid(grid: &Grid, timing: bool) -> Vec<SchemeResults> {
    let owner = bench_owner_small();
    let kp = baseline_keypair();
    let hasher = Hasher::default();
    let samples = if timing { Some(perf_samples()) } else { None };

    let mut chain = SchemeResults::new("chain");
    let mut mht = SchemeResults::new("mht");
    let mut aggsig = SchemeResults::new("aggsig");
    let mut vbtree = SchemeResults::new("vbtree");

    for &n in &grid.sizes {
        let spec = WorkloadSpec::new(n).payload(grid.payload);
        let (table, domain) = spec.build();
        let schema = table.schema().clone();
        let projections: Vec<(String, Vec<usize>)> = grid
            .projections
            .iter()
            .map(|(name, cols)| {
                (
                    name.to_string(),
                    cols.iter()
                        .map(|c| schema.column_index(c).expect("bench schema column"))
                        .collect(),
                )
            })
            .collect();
        // Interior ranges: result rows at positions 1..=q, so both
        // boundary tuples exist and the MHT expansion is exercised.
        let queries: Vec<(usize, KeyRange)> = grid
            .queries_for(n)
            .into_iter()
            .map(|q| {
                let alpha = domain.key_min() + KEY_GAP;
                (q, KeyRange::closed(alpha, alpha + (q as i64 - 1) * KEY_GAP))
            })
            .collect();

        let publish = |res: &mut SchemeResults, f: &mut dyn FnMut()| {
            let start = Instant::now();
            f();
            if timing {
                res.time(
                    format!("publish_ms/n{n}"),
                    start.elapsed().as_secs_f64() * 1e3,
                );
            }
        };

        let mut s_chain = None;
        publish(&mut chain, &mut || {
            s_chain = Some(ChainScheme::publish(owner, table.clone(), domain))
        });
        drive(
            s_chain.as_ref().unwrap(),
            n,
            &queries,
            &projections,
            samples,
            &mut chain,
        );

        let mut s_mht = None;
        publish(&mut mht, &mut || {
            s_mht = Some(MhtScheme::publish(&kp, hasher, table.clone()))
        });
        drive(
            s_mht.as_ref().unwrap(),
            n,
            &queries,
            &projections,
            samples,
            &mut mht,
        );

        let mut s_ma = None;
        publish(&mut aggsig, &mut || {
            s_ma = Some(MaScheme::publish(&kp, hasher, table.clone()))
        });
        drive(
            s_ma.as_ref().unwrap(),
            n,
            &queries,
            &projections,
            samples,
            &mut aggsig,
        );

        let mut s_vb = None;
        publish(&mut vbtree, &mut || {
            s_vb = Some(VbScheme::publish(&kp, hasher, VB_FANOUT, table.clone()))
        });
        drive(
            s_vb.as_ref().unwrap(),
            n,
            &queries,
            &projections,
            samples,
            &mut vbtree,
        );
    }

    // Churn leg: the same 2000-row workload for all four schemes.
    let churn_spec = WorkloadSpec::new(grid.churn_rows).payload(grid.payload);
    let (churn_table, churn_domain) = churn_spec.build();
    let keys: Vec<i64> = churn_table
        .iter()
        .map(|r| r.record.key(churn_table.schema()))
        .collect();

    let chain_scheme = ChainScheme::publish(owner, churn_table.clone(), churn_domain);
    churn_chain(
        owner,
        chain_scheme.into_signed_table(),
        grid,
        &keys,
        timing,
        &mut chain,
    );
    let mut s = MhtScheme::publish(&kp, hasher, churn_table.clone());
    churn_scheme(&mut s, grid, &keys, timing, &mut mht);
    let mut s = MaScheme::publish(&kp, hasher, churn_table.clone());
    churn_scheme(&mut s, grid, &keys, timing, &mut aggsig);
    let mut s = VbScheme::publish(&kp, hasher, VB_FANOUT, churn_table);
    churn_scheme(&mut s, grid, &keys, timing, &mut vbtree);

    vec![chain, mht, aggsig, vbtree]
}

// -------------------------------------------------------- serialization

fn grid_json(grid: &Grid) -> String {
    let list = |v: &[usize]| {
        v.iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    };
    let projs = grid
        .projections
        .iter()
        .map(|(name, _)| format!("\"{name}\""))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "  \"grid\": {{ \"sizes\": [{}], \"result_sizes\": [{}], \"projections\": [{projs}], \
         \"payload\": {}, \"churn_rows\": {}, \"churn_batch\": {}, \"churn_batches\": {} }},\n",
        list(&grid.sizes),
        list(&grid.result_sizes),
        grid.payload,
        grid.churn_rows,
        grid.churn_batch,
        grid.churn_batches,
    )
}

/// The `"cells"` object for one scheme — exactly the text `--check`
/// requires to appear verbatim in the committed `BENCH_PR5.json`.
fn cells_json(res: &SchemeResults) -> String {
    let mut s = String::from("      \"cells\": {\n");
    for (i, (k, v)) in res.cells.iter().enumerate() {
        let sep = if i + 1 == res.cells.len() { "" } else { "," };
        s.push_str(&format!("        \"{k}\": {v}{sep}\n"));
    }
    s.push_str("      }");
    s
}

fn timing_json(res: &SchemeResults) -> String {
    let mut s = String::from("      \"timing\": {\n");
    for (i, (k, v)) in res.timing.iter().enumerate() {
        let sep = if i + 1 == res.timing.len() { "" } else { "," };
        s.push_str(&format!("        \"{k}\": {v:.1}{sep}\n"));
    }
    s.push_str("      }");
    s
}

/// The full `BENCH_PR5.json` text.
pub fn snapshot_json(
    grid: &Grid,
    results: &[SchemeResults],
    label: &str,
    samples: usize,
) -> String {
    let mut s = String::from("{\n  \"schema_version\": 1,\n");
    s.push_str(&format!("  \"label\": \"{label}\",\n"));
    s.push_str(&format!("  \"samples\": {samples},\n"));
    s.push_str(&grid_json(grid));
    s.push_str("  \"compare\": {\n");
    for (i, r) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        s.push_str(&format!("    \"{}\": {{\n", r.name));
        s.push_str(&cells_json(r));
        s.push_str(",\n");
        s.push_str(&timing_json(r));
        s.push_str(&format!("\n    }}{sep}\n"));
    }
    s.push_str("  }\n}\n");
    s
}

/// The generated markdown (the region between the
/// `baseline_compare:begin/end` markers of `docs/EVALUATION.md`,
/// markers excluded). Deterministic cells only — timings never appear
/// here, so the block is identical on every machine.
pub fn doc_block(grid: &Grid, results: &[SchemeResults]) -> String {
    let names = ["chain", "mht", "aggsig", "vbtree"];
    let mut s = String::new();
    s.push_str(&format!(
        "_Grid: tables of {} rows ({}-byte payloads, spaced keys), result sizes {}, \
         projections {}; churn: {} batches of {} payload updates on a {}-row table. \
         512-bit keys throughout (the comparison is structural; the paper's 1024-bit \
         `M_sign` scales every signature by 2×). All cells below are deterministic — \
         regenerate with `--write-doc`, verify with `--check`._\n\n",
        grid.sizes
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join("/"),
        grid.payload,
        grid.result_sizes
            .iter()
            .map(|q| q.to_string())
            .collect::<Vec<_>>()
            .join("/"),
        grid.projections
            .iter()
            .map(|(p, _)| *p)
            .collect::<Vec<_>>()
            .join("/"),
        grid.churn_batches,
        grid.churn_batch,
        grid.churn_rows,
    ));

    let by_name = |name: &str| results.iter().find(|r| r.name == name).expect("scheme");

    // Dissemination.
    s.push_str("### Owner dissemination (Section 6.1, \"signatures shipped\")\n\n");
    s.push_str("| rows | metric | chain | mht | aggsig | vbtree |\n");
    s.push_str("|---|---|---|---|---|---|\n");
    for &n in &grid.sizes {
        for (label, key) in [
            ("bytes", format!("dissemination_bytes/n{n}")),
            ("signatures", format!("dissemination_sigs/n{n}")),
        ] {
            s.push_str(&format!("| {n} | {label} |"));
            for name in names {
                s.push_str(&format!(" {} |", by_name(name).get(&key)));
            }
            s.push('\n');
        }
    }
    s.push('\n');

    // Per-cell tables.
    for (title, metric) in [
        (
            "VO wire bytes (Section 6.1, user traffic beyond the result)",
            "vo_bytes",
        ),
        ("Result rows shipped (q rows requested)", "answer_rows"),
        ("Result bytes shipped", "answer_bytes"),
    ] {
        s.push_str(&format!("### {title}\n\n"));
        s.push_str("| rows | q | projection | chain | mht | aggsig | vbtree |\n");
        s.push_str("|---|---|---|---|---|---|---|\n");
        for &n in &grid.sizes {
            for q in grid.queries_for(n) {
                for (pname, _) in &grid.projections {
                    s.push_str(&format!("| {n} | {q} | {pname} |"));
                    for name in names {
                        let key = format!("{metric}/n{n}/q{q}/{pname}");
                        s.push_str(&format!(" {} |", by_name(name).get(&key)));
                    }
                    s.push('\n');
                }
            }
        }
        s.push('\n');
    }

    // Capabilities + disclosure.
    let (n_rep, q_rep) = (
        *grid.sizes.last().expect("non-empty grid"),
        grid.queries_for(*grid.sizes.last().expect("non-empty grid"))
            .into_iter()
            .rev()
            .nth(1)
            .unwrap_or(grid.result_sizes[0]),
    );
    s.push_str("### Capabilities and disclosure (Section 2.3 / Section 3)\n\n");
    s.push_str("| property | chain | mht | aggsig | vbtree |\n");
    s.push_str("|---|---|---|---|---|\n");
    s.push_str("| completeness verifiable | yes | yes | **no** | **no** |\n");
    s.push_str(
        "| projection supported | yes | **no** (full tuples) | yes | yes (modeled at record granularity) |\n",
    );
    s.push_str(&format!(
        "| out-of-range rows shipped (n={n_rep}, q={q_rep}, all) |"
    ));
    for name in names {
        s.push_str(&format!(
            " {} |",
            by_name(name).get(&format!("beyond_rows/n{n_rep}/q{q_rep}/all"))
        ));
    }
    s.push('\n');
    s.push('\n');

    // Churn.
    s.push_str(&format!(
        "### Update churn (Section 6.3: {}-update batches on a {}-row table)\n\n",
        grid.churn_batch, grid.churn_rows
    ));
    s.push_str("| metric | chain | mht | aggsig | vbtree |\n");
    s.push_str("|---|---|---|---|---|\n");
    for (label, key) in [
        ("signatures re-signed per batch", "churn/resigned_per_batch"),
        ("digests recomputed per batch", "churn/digests_per_batch"),
    ] {
        s.push_str(&format!("| {label} |"));
        for name in names {
            s.push_str(&format!(" {} |", by_name(name).get(key)));
        }
        s.push('\n');
    }
    s.push_str(&format!(
        "| update-log bytes appended per batch | {} | n/a | n/a | n/a |\n",
        by_name("chain").get("churn/log_bytes_per_batch")
    ));
    s.push('\n');
    s
}

// ---------------------------------------------------------------- modes

/// Options for [`run`] — what `baseline_compare` and `adp compare`
/// parse their command lines into.
#[derive(Clone, Debug, Default)]
pub struct CompareOpts {
    /// Use the seconds-scale smoke grid instead of the committed one.
    pub tiny: bool,
    /// Re-derive deterministic cells and fail on drift from the
    /// committed doc + snapshot (no timing, writes nothing).
    pub check: bool,
    /// Regenerate the marked region of the evaluation doc in place.
    pub write_doc: bool,
    /// Snapshot output path (default `BENCH_PR5.json` at the repo root;
    /// tiny runs default to not writing unless a path is given).
    pub out: Option<String>,
    /// Evaluation doc path (default `docs/EVALUATION.md`).
    pub doc: Option<String>,
    /// Snapshot label.
    pub label: Option<String>,
}

/// Parses harness arguments (shared by the bin and `adp compare`).
pub fn parse_args(args: &[String]) -> Result<CompareOpts, String> {
    let mut opts = CompareOpts::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--tiny" => opts.tiny = true,
            "--check" => opts.check = true,
            "--write-doc" => opts.write_doc = true,
            "--out" => opts.out = Some(it.next().ok_or("--out needs a path")?.clone()),
            "--doc" => opts.doc = Some(it.next().ok_or("--doc needs a path")?.clone()),
            "--label" => opts.label = Some(it.next().ok_or("--label needs a value")?.clone()),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if opts.check && (opts.tiny || opts.write_doc) {
        return Err("--check runs the committed grid; it excludes --tiny/--write-doc".into());
    }
    Ok(opts)
}

/// The repo root: the cwd when it looks like the workspace, else two
/// levels up from this crate (both the bin and `adp compare` run from
/// somewhere inside the workspace in practice).
fn repo_root() -> PathBuf {
    if let Ok(cwd) = std::env::current_dir() {
        if cwd.join("docs").is_dir() && cwd.join("Cargo.toml").is_file() {
            return cwd;
        }
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn splice_doc(doc: &str, block: &str) -> Result<String, String> {
    let begin = doc
        .find(DOC_BEGIN)
        .ok_or("doc is missing the baseline_compare:begin marker")?;
    let begin_eol = begin
        + doc[begin..]
            .find('\n')
            .ok_or("begin marker line unterminated")?
        + 1;
    let end = doc
        .find(DOC_END)
        .ok_or("doc is missing the baseline_compare:end marker")?;
    if end < begin_eol {
        return Err("baseline_compare markers are out of order".into());
    }
    Ok(format!(
        "{}\n{}\n{}",
        &doc[..begin_eol],
        block.trim_end(),
        &doc[end..]
    ))
}

fn extract_doc_block(doc: &str) -> Result<&str, String> {
    let begin = doc
        .find(DOC_BEGIN)
        .ok_or("doc is missing the baseline_compare:begin marker")?;
    let begin_eol = begin
        + doc[begin..]
            .find('\n')
            .ok_or("begin marker line unterminated")?
        + 1;
    let end = doc
        .find(DOC_END)
        .ok_or("doc is missing the baseline_compare:end marker")?;
    Ok(doc[begin_eol..end].trim())
}

/// Runs the harness. See [`CompareOpts`] for the modes; returns a
/// human-readable error on check drift or I/O failure.
pub fn run(opts: &CompareOpts) -> Result<(), String> {
    let grid = if opts.tiny {
        Grid::tiny()
    } else {
        Grid::full()
    };
    let doc_path = opts
        .doc
        .clone()
        .map(PathBuf::from)
        .unwrap_or_else(|| repo_root().join("docs/EVALUATION.md"));
    let json_path = opts
        .out
        .clone()
        .map(PathBuf::from)
        .unwrap_or_else(|| repo_root().join("BENCH_PR5.json"));

    if opts.check {
        let results = run_grid(&grid, false);

        // 1. The markdown tables in the committed doc must match the
        //    regenerated block byte for byte.
        let doc = std::fs::read_to_string(&doc_path)
            .map_err(|e| format!("cannot read {}: {e}", doc_path.display()))?;
        let committed = extract_doc_block(&doc)?;
        let expected = doc_block(&grid, &results);
        if committed != expected.trim() {
            return Err(format!(
                "docs/EVALUATION.md has drifted from the code.\n\
                 Regenerate with: cargo run --release -p adp-bench --bin baseline_compare -- --write-doc\n\
                 --- expected (from code) ---\n{}\n--- committed ---\n{}",
                first_diff(expected.trim(), committed),
                abbreviate(committed),
            ));
        }

        // 2. Every deterministic cells-object must appear verbatim in
        //    the committed snapshot, and every scheme must carry timing.
        let json = std::fs::read_to_string(&json_path)
            .map_err(|e| format!("cannot read {}: {e}", json_path.display()))?;
        for r in &results {
            let cells = cells_json(r);
            if !json.contains(&cells) {
                return Err(format!(
                    "BENCH_PR5.json: deterministic cells for scheme `{}` have drifted.\n\
                     Regenerate with: cargo run --release -p adp-bench --bin baseline_compare\n\
                     expected fragment:\n{cells}",
                    r.name
                ));
            }
            if !json.contains(&format!("\"{}\": {{", r.name)) {
                return Err(format!("BENCH_PR5.json: missing compare/{} key", r.name));
            }
        }
        if !json.contains(&grid_json(&grid)) {
            return Err("BENCH_PR5.json: grid does not match the committed grid".into());
        }
        if json.matches("\"timing\": {").count() < results.len() {
            return Err("BENCH_PR5.json: missing timing objects".into());
        }
        println!(
            "check ok: {} deterministic cells match {} and {}",
            results.iter().map(|r| r.cells.len()).sum::<usize>(),
            doc_path.display(),
            json_path.display(),
        );
        return Ok(());
    }

    // Measured run.
    let results = run_grid(&grid, true);
    print!("{}", doc_block(&grid, &results));
    println!("### Timings (machine-local)\n");
    for r in &results {
        for (k, v) in &r.timing {
            println!("{:<8} {k:<32} {v:>14.1}", r.name);
        }
    }
    let label = opts.label.clone().unwrap_or_else(|| "pr5".into());
    let json = snapshot_json(&grid, &results, &label, perf_samples());
    if opts.tiny && opts.out.is_none() {
        println!("\n(tiny grid: snapshot not written — pass --out to keep it)");
    } else {
        std::fs::write(&json_path, &json)
            .map_err(|e| format!("cannot write {}: {e}", json_path.display()))?;
        println!("\nwrote {}", json_path.display());
    }
    if opts.write_doc {
        let doc = std::fs::read_to_string(&doc_path)
            .map_err(|e| format!("cannot read {}: {e}", doc_path.display()))?;
        let spliced = splice_doc(&doc, &doc_block(&grid, &results))?;
        std::fs::write(&doc_path, spliced)
            .map_err(|e| format!("cannot write {}: {e}", doc_path.display()))?;
        println!("updated {}", doc_path.display());
    }
    Ok(())
}

/// First mismatching line (context for check failures).
fn first_diff(expected: &str, committed: &str) -> String {
    for (i, (e, c)) in expected.lines().zip(committed.lines()).enumerate() {
        if e != c {
            return format!("line {}: expected `{e}`, committed `{c}`", i + 1);
        }
    }
    format!(
        "line counts differ: expected {}, committed {}",
        expected.lines().count(),
        committed.lines().count()
    )
}

fn abbreviate(s: &str) -> String {
    match s.char_indices().nth(400) {
        None => s.to_string(),
        Some((i, _)) => format!("{}…", &s[..i]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_grid_is_deterministic_and_verifies() {
        // Two independent derivations of the tiny grid must agree on
        // every deterministic cell (this is the property --check leans
        // on), and drive() verified every answer along the way.
        let a = run_grid(&Grid::tiny(), false);
        let b = run_grid(&Grid::tiny(), false);
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.name, rb.name);
            assert_eq!(ra.cells, rb.cells, "scheme {}", ra.name);
            assert!(ra.timing.is_empty());
        }
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn chain_beats_mht_on_precision_and_aggsig_on_nothing_shipped() {
        let results = run_grid(&Grid::tiny(), false);
        let get = |name: &str, key: &str| {
            results
                .iter()
                .find(|r| r.name == name)
                .expect("scheme")
                .get(key)
        };
        // MHT ships boundary tuples; the chain ships none.
        assert_eq!(get("chain", "beyond_rows/n200/q20/all"), 0);
        assert_eq!(get("mht", "beyond_rows/n200/q20/all"), 2);
        // MHT cannot project: under the key-only projection it ships
        // strictly more result bytes than the chain.
        assert!(
            get("mht", "answer_bytes/n200/q20/key") > get("chain", "answer_bytes/n200/q20/key")
        );
        // One-signature dissemination for MHT, per-row for chain/aggsig,
        // per-node for the VB-tree.
        assert_eq!(get("mht", "dissemination_sigs/n200"), 1);
        assert_eq!(get("chain", "dissemination_sigs/n200"), 202);
        assert_eq!(get("aggsig", "dissemination_sigs/n200"), 200);
        assert!(get("vbtree", "dissemination_sigs/n200") > 200);
    }

    #[test]
    fn doc_block_round_trips_through_splice_and_extract() {
        let results = run_grid(&Grid::tiny(), false);
        let block = doc_block(&Grid::tiny(), &results);
        let doc = format!(
            "# Title\n\nprose\n\n{} -->\nstale\n{} -->\n\ntail\n",
            DOC_BEGIN, DOC_END
        );
        let spliced = splice_doc(&doc, &block).unwrap();
        assert_eq!(extract_doc_block(&spliced).unwrap(), block.trim());
        // Splicing is idempotent.
        let again = splice_doc(&spliced, &block).unwrap();
        assert_eq!(again, spliced);
    }

    #[test]
    fn snapshot_contains_cells_and_timing_for_all_schemes() {
        let results = run_grid(&Grid::tiny(), false);
        let json = snapshot_json(&Grid::tiny(), &results, "test", 2);
        for name in ["chain", "mht", "aggsig", "vbtree"] {
            assert!(json.contains(&format!("\"{name}\": {{")));
        }
        for r in &results {
            assert!(json.contains(&cells_json(r)));
        }
        assert!(json.contains("\"schema_version\": 1"));
        assert!(json.contains(&grid_json(&Grid::tiny())));
    }

    #[test]
    fn churn_positions_are_distinct_and_nonadjacent() {
        for round in 0..40 {
            let mut p = churn_positions(2_000, 16, round);
            p.sort_unstable();
            p.dedup();
            assert_eq!(p.len(), 16);
            assert!(p.windows(2).all(|w| w[1] - w[0] > 2));
        }
    }
}
