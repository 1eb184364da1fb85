//! The evaluation harness behind the `baseline_compare` binary. It
//! derives five results groups:
//!
//! * one per scheme — the `adp-core` signature chain, the Devanbu Merkle
//!   tree, the Ma aggregated-signature scheme, and the VB-tree — for the
//!   paper's Section 6.1 comparison over one shared workload grid (table
//!   sizes × range selectivities × projection shapes), plus a
//!   continuous-churn leg (Section 6.3) that drives `Owner::apply_batch`
//!   through the `adp-store` update log;
//! * `paper` — the paper's own experiments: Figure 9's VO and result
//!   bytes, Figure 10's and Section 6.2's verifier hash operations beside
//!   formula (5), the Section 5.1 ablation's owner and verifier hash
//!   operations, and Section 6.3's per-update signatures and digests.
//!
//! Everything the harness derives that is *not* a wall-clock time — VO
//! wire bytes, dissemination bytes/signatures, rows shipped, disclosure
//! counts, per-batch re-signing costs, log bytes, hash operations — is
//! deterministic:
//! workloads and keys come from fixed seeds, so the cells are identical
//! on every machine. Those cells are committed twice, as markdown tables
//! inside `docs/EVALUATION.md` (between `baseline_compare:begin/end`
//! markers) and as the `cells` objects of `BENCH_PR5.json`, and
//! [`run`] in `--check` mode re-derives every one of them and fails on
//! any drift — CI proves the doc can never diverge from the code.
//! Timings (verify latency, publish time, churn throughput) are
//! machine-local and live only in the snapshot's `timing` objects.

use crate::{bench_owner, bench_owner_small, measure_ns, perf_samples, WorkloadSpec, KEY_GAP};
use adp_baselines::{MaScheme, MhtScheme, RangeScheme, UpdateCost, VbScheme};
use adp_core::costmodel::{self, CostParams, FIG10_RESULT_SIZES, FIG9_RESULT_SIZES};
use adp_core::prelude::*;
use adp_core::wire;
use adp_crypto::{Hasher, Keypair};
use adp_relation::{Column, KeyRange, Record, Schema, SelectQuery, Table, Value, ValueType};
use adp_store::Store;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::time::Instant;

/// VB-tree fanout used throughout the comparison (a middle ground
/// between VO size and signing cost).
const VB_FANOUT: usize = 64;

/// The snapshot's `label`.
const LABEL: &str = "pr5";

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
    /// The sweeps of the `paper` group.
    pub paper: PaperGrid,
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
            paper: PaperGrid::full(),
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
            paper: PaperGrid::tiny(),
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

/// The points each of the paper's own experiments sweeps.
#[derive(Clone, Debug)]
pub struct PaperGrid {
    /// Figure 9: record sizes `M_r` in bytes…
    pub fig9_record_bytes: &'static [usize],
    /// …and result sizes `|Q|`.
    pub fig9_result_sizes: &'static [u64],
    /// Figure 10: number bases `B`…
    pub fig10_bases: &'static [u32],
    /// …and result sizes.
    pub fig10_result_sizes: &'static [u64],
    /// Section 6.2: result sizes at `B = 2`, `m = 32`.
    pub sec62_result_sizes: &'static [u64],
    /// Section 5.1 ablation: domain widths (powers of two) of the
    /// conceptual single chains…
    pub conceptual_widths: &'static [u32],
    /// …the bases of the digit chains…
    pub ablation_bases: &'static [u32],
    /// …and their domain widths.
    pub ablation_widths: &'static [u32],
    /// Section 6.3: table sizes of the one-update experiment.
    pub sec63_rows: &'static [usize],
}

impl PaperGrid {
    /// The paper's points.
    fn full() -> Self {
        PaperGrid {
            fig9_record_bytes: &[64, 256, 512, 1024, 2048],
            fig9_result_sizes: &FIG9_RESULT_SIZES,
            fig10_bases: &[2, 3, 4, 6, 8, 10],
            fig10_result_sizes: &FIG10_RESULT_SIZES,
            sec62_result_sizes: &[1, 100, 1_000],
            conceptual_widths: &[8, 12, 16, 20],
            ablation_bases: &[2, 3, 10],
            ablation_widths: &[8, 16, 32],
            sec63_rows: &[1_000, 10_000],
        }
    }

    /// Each sweep at its smallest point only, so the `--tiny` smoke run
    /// and the unit tests stay fast in debug builds.
    fn tiny() -> Self {
        let full = Self::full();
        PaperGrid {
            fig9_record_bytes: &full.fig9_record_bytes[..1],
            fig9_result_sizes: &full.fig9_result_sizes[..1],
            fig10_bases: &full.fig10_bases[..1],
            fig10_result_sizes: &full.fig10_result_sizes[..1],
            sec62_result_sizes: &full.sec62_result_sizes[..1],
            conceptual_widths: &full.conceptual_widths[..1],
            ablation_bases: &full.ablation_bases[..1],
            ablation_widths: &full.ablation_widths[..1],
            sec63_rows: &full.sec63_rows[..1],
        }
    }

    /// The ablation's `(mode key, config, domain width)` points: single
    /// chains, then digit chains base by base.
    fn ablation_points(&self) -> Vec<(String, SchemeConfig, u32)> {
        let single = self
            .conceptual_widths
            .iter()
            .map(|&w| ("conceptual".to_string(), SchemeConfig::conceptual(), w));
        let digits = self.ablation_bases.iter().flat_map(|&b| {
            self.ablation_widths
                .iter()
                .map(move |&w| (format!("b{b}"), SchemeConfig::with_base(b), w))
        });
        single.chain(digits).collect()
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

    /// Replaces the record at `pos` in place as a one-mutation
    /// `Owner::apply_batch`, and counts the signature B+-tree leaves the
    /// batch touched.
    fn update(&mut self, pos: usize, record: Record) -> (BatchReport, u64) {
        let row = self.st.table().row(pos);
        let (key, replica) = (row.record.key(self.st.table().schema()), row.replica);
        self.st.sig_index().stats().reset();
        let report = self
            .owner
            .apply_batch(
                &mut self.st,
                vec![Mutation::Update {
                    key,
                    replica,
                    record,
                }],
            )
            .expect("updates keep the schema");
        (report, self.st.sig_index().stats().leaves_visited())
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
        let (report, _) = self.update(pos, record);
        UpdateCost {
            signatures: report.signatures_recomputed as u64,
            digests: report.g_recomputed as u64,
        }
    }
}

// --------------------------------------------------------- measurement

/// Results for one group: deterministic cells (machine-independent,
/// committed and checked) and timings (machine-local, snapshot-only).
pub struct Results {
    /// Stable group key: the schemes `chain`, `mht`, `aggsig`, `vbtree`,
    /// and `paper`.
    pub name: &'static str,
    /// `(key, value)` deterministic cells in emission order.
    pub cells: Vec<(String, u64)>,
    /// `(key, value)` timing entries in emission order.
    pub timing: Vec<(String, f64)>,
}

impl Results {
    fn new(name: &'static str) -> Self {
        Results {
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

    /// Records one verification of experiment `exp` at `point`: its hash
    /// operations as a cell and, when measured, its time.
    fn verified(&mut self, exp: &str, point: &str, v: &Verified) {
        self.cell(format!("{exp}/verify_hash_ops/{point}"), v.hash_ops);
        if let Some(ns) = v.ns {
            self.time(format!("{exp}/verify_ns/{point}"), ns);
        }
    }

    /// [`Results::verified`] for a `q`-row answer, beside formula (5)'s
    /// hash operations. The formula prices the worst case, so a count
    /// above it means the experiment or the verifier is broken.
    fn against_formula5(&mut self, exp: &str, point: &str, q: u64, v: &Verified, formula: u64) {
        assert_eq!(v.rows as u64, q, "{exp} {point}: result size");
        assert!(
            v.hash_ops <= formula,
            "{exp} {point}: {} hash ops exceed formula (5)'s {formula}",
            v.hash_ops
        );
        self.verified(exp, point, v);
        self.cell(format!("{exp}/formula_hash_ops/{point}"), formula);
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
    res: &mut Results,
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
    res: &mut Results,
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
    res: &mut Results,
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

// ------------------------------------------------------ paper experiments

/// `f`'s result and the hash operations it cost the calling thread,
/// including those `adp_crypto::par` helpers ran for it and none that
/// other threads ran meanwhile.
fn hash_ops_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = adp_crypto::thread_hash_ops();
    let out = f();
    (out, adp_crypto::thread_hash_ops() - before)
}

/// One verified answer of [`chain_costs`].
struct Verified {
    rows: usize,
    hash_ops: u64,
    /// Median verify time, when measured.
    ns: Option<f64>,
}

/// Signs a key-only table of `keys` over `Domain::new(0, 2^width + 4)`
/// under `config`, then answers and verifies each closed range of
/// `ranges`; keys and ranges are offsets from the domain's smallest key.
/// Returns the owner's hash operations per chain position (delimiters
/// included) and the verifications in range order.
fn chain_costs(
    config: SchemeConfig,
    width: u32,
    keys: &[i64],
    ranges: &[(i64, i64)],
    samples: Option<usize>,
) -> (u64, Vec<Verified>) {
    let domain = Domain::new(0, (1i64 << width) + 4);
    let at = |offset: i64| domain.key_min() + offset;
    let schema = Schema::new(vec![Column::new("k", ValueType::Int)], "k");
    let mut table = Table::new("chain", schema);
    for &k in keys {
        table
            .insert(Record::new(vec![Value::Int(at(k))]))
            .expect("key-only records fit the schema");
    }
    let owner = bench_owner_small();
    let (st, sign_ops) = hash_ops_of(|| {
        owner
            .sign_table(table, domain, config)
            .expect("keys are in-domain")
    });
    let cert = owner.certificate(&st);
    let publisher = Publisher::new(&st);
    let verified = ranges
        .iter()
        .map(|&(lo, hi)| {
            let query = SelectQuery::range(KeyRange::closed(at(lo), at(hi)));
            let (rows, vo) = publisher
                .answer_select(&query)
                .expect("ranges are well-formed");
            let verify =
                || verify_select(&cert, &query, &rows, &vo).expect("honest answers verify");
            let (report, hash_ops) = hash_ops_of(verify);
            Verified {
                rows: report.matched,
                hash_ops,
                ns: samples.map(|n| measure_ns(n, verify)),
            }
        })
        .collect();
    (sign_ops / (keys.len() as u64 + 2), verified)
}

/// The paper's own experiments as the `paper` group. Hash operations are
/// per-thread counts, so two derivations running at once agree.
fn run_paper(grid: &PaperGrid, samples: Option<usize>) -> Results {
    let mut res = Results::new("paper");

    // Figure 9: a 120-row table signed with the paper's 1024-bit M_sign,
    // with M_r − 27 payload bytes per record (a record encodes in M_r + 8).
    for &mr in grid.fig9_record_bytes {
        let spec = WorkloadSpec::new(120).payload(mr - 27);
        let (st, cert) = spec.signed(bench_owner(), SchemeConfig::default());
        let publisher = Publisher::new(&st);
        let key_min = st.domain().key_min();
        for &q in grid.fig9_result_sizes {
            let range = KeyRange::closed(key_min, key_min + (q as i64 - 1) * KEY_GAP);
            let query = SelectQuery::range(range);
            let (rows, vo) = publisher
                .answer_select(&query)
                .expect("ranges are well-formed");
            let report = verify_select(&cert, &query, &rows, &vo).expect("honest answers verify");
            assert_eq!(report.matched as u64, q, "fig9 M_r {mr}: result size");
            let key = |metric: &str| format!("fig9/{metric}/mr{mr}/q{q}");
            res.cell(key("vo_bytes"), vo.wire_size() as u64);
            res.cell(
                key("result_bytes"),
                wire::encode_records(&rows).len() as u64,
            );
        }
    }

    // Figure 10: twelve keys 1000 apart in a 2^32-wide domain; the
    // verifier's cost depends on the domain, not on the table.
    let keys: Vec<i64> = (0..12).map(|i| i * 1_000).collect();
    let ranges: Vec<(i64, i64)> = grid
        .fig10_result_sizes
        .iter()
        .map(|&q| (0, (q as i64 - 1) * 1_000))
        .collect();
    for &base in grid.fig10_bases {
        let (_, verified) = chain_costs(SchemeConfig::with_base(base), 32, &keys, &ranges, samples);
        let m = costmodel::paper_m(base, 1 << 32);
        for (&q, v) in grid.fig10_result_sizes.iter().zip(&verified) {
            let formula = costmodel::cuser_hashes(base, m, q);
            res.against_formula5("fig10", &format!("b{base}/q{q}"), q, v, formula);
        }
    }

    // Section 6.2: B = 2, m = 32, 1100 keys 100 apart.
    let keys: Vec<i64> = (0..1_100).map(|i| i * 100).collect();
    let ranges: Vec<(i64, i64)> = grid
        .sec62_result_sizes
        .iter()
        .map(|&q| (0, (q as i64 - 1) * 100))
        .collect();
    let (_, verified) = chain_costs(SchemeConfig::default(), 32, &keys, &ranges, samples);
    for (&q, v) in grid.sec62_result_sizes.iter().zip(&verified) {
        let formula = costmodel::cuser_hashes(2, 32, q);
        res.against_formula5("sec62", &format!("q{q}"), q, v, formula);
    }

    // Section 5.1 ablation: three adjacent keys mid-domain and a point
    // query on the middle one.
    for (mode, config, w) in grid.ablation_points() {
        let mid = 1i64 << (w - 1);
        let (owner_ops, verified) = chain_costs(
            config,
            w,
            &[mid, mid + 1, mid + 2],
            &[(mid + 1, mid + 1)],
            samples,
        );
        let point = format!("{mode}/w{w}");
        res.cell(format!("ablation/owner_hash_ops/{point}"), owner_ops);
        res.verified("ablation", &point, &verified[0]);
    }

    // Section 6.3: one in-place payload update mid-table, through the
    // same update paths the churn leg drives (for the chain, a
    // one-mutation `Owner::apply_batch`).
    let kp = baseline_keypair();
    for &n in grid.sec63_rows {
        let (table, domain) = WorkloadSpec::new(n).build();
        let pos = n / 2;
        let record = churn_record(table.row(pos).record.key(table.schema()), 0, 0, 64);
        let (report, leaves) = ChainScheme::publish(bench_owner_small(), table.clone(), domain)
            .update(pos, record.clone());
        let mht = MhtScheme::publish(&kp, Hasher::default(), table).update_payload(pos, record);
        for (metric, v) in [
            ("signatures/chain", report.signatures_recomputed as u64),
            ("digests/chain", report.g_recomputed as u64),
            ("leaves/chain", leaves),
            ("signatures/mht", mht.signatures),
            ("digests/mht", mht.digests),
        ] {
            res.cell(format!("sec63/{metric}/n{n}"), v);
        }
    }
    res
}

/// Runs the whole grid. `timing = false` is the `--check` path: every
/// deterministic cell is still derived (and every answer still verified)
/// but nothing is measured.
fn run_grid(grid: &Grid, timing: bool) -> Vec<Results> {
    let owner = bench_owner_small();
    let kp = baseline_keypair();
    let hasher = Hasher::default();
    let samples = if timing { Some(perf_samples()) } else { None };

    let mut chain = Results::new("chain");
    let mut mht = Results::new("mht");
    let mut aggsig = Results::new("aggsig");
    let mut vbtree = Results::new("vbtree");

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

        let publish = |res: &mut Results, f: &mut dyn FnMut()| {
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
    churn_chain(owner, chain_scheme.st, grid, &keys, timing, &mut chain);
    let mut s = MhtScheme::publish(&kp, hasher, churn_table.clone());
    churn_scheme(&mut s, grid, &keys, timing, &mut mht);
    let mut s = MaScheme::publish(&kp, hasher, churn_table.clone());
    churn_scheme(&mut s, grid, &keys, timing, &mut aggsig);
    let mut s = VbScheme::publish(&kp, hasher, VB_FANOUT, churn_table);
    churn_scheme(&mut s, grid, &keys, timing, &mut vbtree);

    let paper = run_paper(&grid.paper, samples);
    vec![chain, mht, aggsig, vbtree, paper]
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
fn cells_json(res: &Results) -> String {
    let mut s = String::from("      \"cells\": {\n");
    for (i, (k, v)) in res.cells.iter().enumerate() {
        let sep = if i + 1 == res.cells.len() { "" } else { "," };
        s.push_str(&format!("        \"{k}\": {v}{sep}\n"));
    }
    s.push_str("      }");
    s
}

fn timing_json(res: &Results) -> String {
    let mut s = String::from("      \"timing\": {\n");
    for (i, (k, v)) in res.timing.iter().enumerate() {
        let sep = if i + 1 == res.timing.len() { "" } else { "," };
        s.push_str(&format!("        \"{k}\": {v:.1}{sep}\n"));
    }
    s.push_str("      }");
    s
}

/// The full `BENCH_PR5.json` text.
fn snapshot_json(grid: &Grid, results: &[Results], samples: usize) -> String {
    let mut s = String::from("{\n  \"schema_version\": 1,\n");
    s.push_str(&format!("  \"label\": \"{LABEL}\",\n"));
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
fn doc_block(grid: &Grid, results: &[Results]) -> String {
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
    s.push_str(&paper_block(&grid.paper, by_name("paper")));
    s
}

/// A markdown table row.
fn md_row(cells: impl IntoIterator<Item = String>) -> String {
    let mut s = String::from("|");
    for c in cells {
        s.push_str(&format!(" {c} |"));
    }
    s.push('\n');
    s
}

/// A markdown header row and its rule.
fn md_header(cells: impl IntoIterator<Item = String>) -> String {
    let cells: Vec<String> = cells.into_iter().collect();
    let rule = "---|".repeat(cells.len());
    format!("{}|{rule}\n", md_row(cells))
}

/// The `paper` group's tables.
fn paper_block(grid: &PaperGrid, paper: &Results) -> String {
    let params = CostParams::default();
    let qs = |sizes: &[u64]| sizes.iter().map(|q| format!("q = {q}")).collect::<Vec<_>>();
    let mut s = String::from(
        "### The paper's own experiments\n\n\
         _Figure 9 signs 120-row tables with the paper's 1024-bit `M_sign`; the other \
         experiments sign key-only tables with 512-bit keys. Hash operations are counted \
         on the verifying (or signing) thread, helpers included._\n\n",
    );

    s.push_str(
        "#### Figure 9: user traffic overhead (%), measured VO bytes / result bytes \
         (formula (4) at m = 32)\n\n",
    );
    s.push_str(&md_header(
        ["M_r (bytes)".to_string()]
            .into_iter()
            .chain(qs(grid.fig9_result_sizes)),
    ));
    for &mr in grid.fig9_record_bytes {
        let pct = grid.fig9_result_sizes.iter().map(|&q| {
            let get = |metric: &str| paper.get(&format!("fig9/{metric}/mr{mr}/q{q}")) as f64;
            let formula = costmodel::traffic_overhead_pct(&params, 32, q, mr as u64);
            format!(
                "{:.2} ({formula:.2})",
                100.0 * get("vo_bytes") / get("result_bytes")
            )
        });
        s.push_str(&md_row([mr.to_string()].into_iter().chain(pct)));
    }

    s.push_str(
        "\n#### Figure 10: verifier hash operations, measured / formula (5), \
         2^32-wide domain\n\n",
    );
    s.push_str(&md_header(
        ["B".to_string(), "m".to_string()]
            .into_iter()
            .chain(qs(grid.fig10_result_sizes)),
    ));
    for &b in grid.fig10_bases {
        let ops = grid.fig10_result_sizes.iter().map(|&q| {
            let get = |metric: &str| paper.get(&format!("fig10/{metric}/b{b}/q{q}"));
            format!("{} / {}", get("verify_hash_ops"), get("formula_hash_ops"))
        });
        let m = costmodel::paper_m(b, 1 << 32);
        s.push_str(&md_row(
            [b.to_string(), m.to_string()].into_iter().chain(ops),
        ));
    }

    s.push_str("\n#### Section 6.2: B = 2, m = 32, 1100 rows\n\n");
    s.push_str(&md_header(
        [
            "q",
            "verifier hash ops",
            "formula (5) hash ops",
            "formula (5) at Table 1 costs (ms)",
        ]
        .map(String::from),
    ));
    for &q in grid.sec62_result_sizes {
        let get = |metric: &str| paper.get(&format!("sec62/{metric}/q{q}")).to_string();
        let ms = costmodel::cuser_ms(&params, 2, 32, q);
        s.push_str(&md_row([
            q.to_string(),
            get("verify_hash_ops"),
            get("formula_hash_ops"),
            format!("{ms:.2}"),
        ]));
    }

    s.push_str("\n#### Section 5.1: single chains vs digit chains (three keys, a point query)\n\n");
    s.push_str(&md_header(
        [
            "chains",
            "domain",
            "owner hash ops per chain position",
            "verifier hash ops",
        ]
        .map(String::from),
    ));
    for (mode, config, w) in grid.ablation_points() {
        let get = |metric: &str| {
            paper
                .get(&format!("ablation/{metric}/{mode}/w{w}"))
                .to_string()
        };
        let chains = match config.mode {
            Mode::Conceptual => "single".to_string(),
            Mode::Optimized { base } => format!("digits, B = {base}"),
        };
        s.push_str(&md_row([
            chains,
            format!("2^{w}"),
            get("owner_hash_ops"),
            get("verify_hash_ops"),
        ]));
    }

    s.push_str("\n#### Section 6.3: one in-place update in the middle of the table\n\n");
    s.push_str(&md_header(
        [
            "rows",
            "scheme",
            "signatures",
            "digests",
            "signature B+-tree leaves touched",
        ]
        .map(String::from),
    ));
    for &n in grid.sec63_rows {
        for scheme in ["chain", "mht"] {
            let get = |metric: &str| {
                paper
                    .get(&format!("sec63/{metric}/{scheme}/n{n}"))
                    .to_string()
            };
            let leaves = if scheme == "chain" {
                get("leaves")
            } else {
                "n/a".to_string()
            };
            s.push_str(&md_row([
                n.to_string(),
                scheme.to_string(),
                get("signatures"),
                get("digests"),
                leaves,
            ]));
        }
    }
    s
}

// ---------------------------------------------------------------- modes

/// Options for [`run`] — what `baseline_compare` parses its command
/// line into.
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
}

/// Parses the `baseline_compare` command line.
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
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if opts.check && (opts.tiny || opts.write_doc) {
        return Err("--check runs the committed grid; it excludes --tiny/--write-doc".into());
    }
    Ok(opts)
}

/// The repo root: the cwd when it looks like the workspace, else two
/// levels up from this crate (the bin runs from somewhere inside the
/// workspace in practice).
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
        //    the committed snapshot, and every group must carry timing.
        let json = std::fs::read_to_string(&json_path)
            .map_err(|e| format!("cannot read {}: {e}", json_path.display()))?;
        for r in &results {
            let cells = cells_json(r);
            if !json.contains(&cells) {
                return Err(format!(
                    "BENCH_PR5.json: deterministic cells for group `{}` have drifted.\n\
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
    let json = snapshot_json(&grid, &results, perf_samples());
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
        assert_eq!(a.len(), 5);
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
    fn paper_group_is_the_same_when_derived_on_two_threads_at_once() {
        // Hash operations are counted per thread: a count taken from the
        // process-wide counter would include the other thread's work.
        let alone = run_paper(&PaperGrid::tiny(), None);
        let start = std::sync::Barrier::new(2);
        let both: Vec<Results> = std::thread::scope(|s| {
            let derive = || {
                start.wait();
                run_paper(&PaperGrid::tiny(), None)
            };
            let (a, b) = (s.spawn(derive), s.spawn(derive));
            vec![a.join().unwrap(), b.join().unwrap()]
        });
        for r in both {
            assert_eq!(r.cells, alone.cells);
        }
        assert_eq!(alone.get("ablation/owner_hash_ops/conceptual/w8"), 264);
    }

    #[test]
    fn snapshot_contains_cells_and_timing_for_all_schemes() {
        let results = run_grid(&Grid::tiny(), false);
        let json = snapshot_json(&Grid::tiny(), &results, 2);
        for name in ["chain", "mht", "aggsig", "vbtree", "paper"] {
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
