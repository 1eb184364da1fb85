//! `adp` — publish, query, and verify completeness-authenticated tables
//! from the command line.
//!
//! The three roles of the paper's Figure 3 as subcommands:
//!
//! ```text
//! adp publish --csv data.csv --key <col> --domain L..U --out published/
//!     (owner)    reads a CSV (header row = column names; a column is INT
//!                if every value parses as i64, else TEXT), signs it, and
//!                writes: table.csv, signatures.bin, certificate.bin
//!
//! adp query --dir published/ --range A..B [--project c1,c2] --out answer/
//!     (publisher) loads the published directory, answers the range query,
//!                and writes: result.bin, vo.bin (plus a readable result.csv)
//!
//! adp verify --cert published/certificate.bin --range A..B [--project c1,c2] \
//!            --answer answer/
//!     (user)     checks completeness + authenticity of the answer against
//!                the certificate alone.
//!
//! adp serve --dir published/ --addr 127.0.0.1:4170
//!     (publisher) serves the published directory over TCP: a threaded
//!                server with VO caching speaking the docs/PROTOCOL.md
//!                frame protocol.
//!
//! adp rquery --addr 127.0.0.1:4170 --cert published/certificate.bin \
//!            --range A..B [--project c1,c2] [--out answer/]
//!     (user)     queries a live server and verifies the answer in one
//!                step; optionally writes result.bin / vo.bin like `query`.
//! ```
//!
//! `query` and `verify` are deliberately separated processes exchanging
//! only files, and `serve`/`rquery` exchange only sockets: the verifier
//! sees exactly the bytes an untrusted publisher would send.

mod csv;

use adp_core::prelude::*;
use adp_core::wire;
use adp_relation::{
    Column, KeyRange, Projection, Record, Schema, SelectQuery, Table, Value, ValueType,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// CLI failure classes, each with a distinct exit code so supervisors
/// and scripts can tell "restarting might help" from "don't bother":
///
/// * exit 1 — bad invocation, local I/O, or setup failure;
/// * exit 2 — **fatal**: a peer answered and the answer is wrong
///   (failed verification, a server-reported error) — retrying re-asks a
///   peer that already gave its final answer;
/// * exit 3 — **retryable, budget exhausted**: the transport kept
///   failing past `--retry` attempts — a supervisor may restart the
///   command, or rerun with a larger budget.
enum CliError {
    Other(String),
    Fatal(String),
    Exhausted(String),
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Other(message)
    }
}

impl CliError {
    fn message(&self) -> &str {
        match self {
            CliError::Other(m) | CliError::Fatal(m) | CliError::Exhausted(m) => m,
        }
    }

    fn exit_code(&self) -> u8 {
        match self {
            CliError::Other(_) => 1,
            CliError::Fatal(_) => 2,
            CliError::Exhausted(_) => 3,
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result: Result<(), CliError> = match args.first().map(String::as_str) {
        Some("publish") => cmd_publish(&parse_flags(&args[1..])).map_err(CliError::from),
        Some("query") => cmd_query(&parse_flags(&args[1..])).map_err(CliError::from),
        Some("sql") => cmd_sql(&parse_flags(&args[1..])),
        Some("verify") => cmd_verify(&parse_flags(&args[1..])).map_err(CliError::from),
        Some("serve") => cmd_serve(&parse_flags(&args[1..])).map_err(CliError::from),
        Some("rquery") => cmd_rquery(&parse_flags(&args[1..])).map_err(CliError::from),
        Some("follow") => cmd_follow(&parse_flags(&args[1..])),
        Some("subscribe") => cmd_subscribe(&parse_flags(&args[1..])),
        Some("ingest") => cmd_ingest(&parse_flags(&args[1..])).map_err(CliError::from),
        Some("compact") => cmd_compact(&parse_flags(&args[1..])).map_err(CliError::from),
        Some("compare") => cmd_compare(&args[1..]).map_err(CliError::from),
        Some("help") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(CliError::Other(format!(
            "unknown subcommand '{other}' (try 'adp help')"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message());
            ExitCode::from(e.exit_code())
        }
    }
}

fn print_usage() {
    println!(
        "adp — authenticated data publishing (Pang et al., SIGMOD 2005)\n\
         \n\
         USAGE:\n\
         adp publish --csv FILE --key COLUMN --domain L..U --out DIR [--seed N] [--bits N]\n\
         \x20           [--store DIR]\n\
         adp query   (--dir DIR | --store DIR) --range A..B [--project c1,c2] --out DIR\n\
         adp sql     --csv FILE --key COLUMN --domain L..U --query SQL\n\
         \x20           [--seed N] [--bits N]\n\
         adp verify  --cert FILE --range A..B [--project c1,c2] --answer DIR\n\
         adp serve   (--dir DIR | --store DIR) [--addr HOST:PORT] [--table N]\n\
         \x20           [--workers N] [--cache N] [--drain-secs N]\n\
         adp rquery  --addr HOST:PORT --cert FILE --range A..B [--project c1,c2]\n\
         \x20           [--table N] [--out DIR]\n\
         adp follow  --addr HOST:PORT --cert FILE --store DIR [--table N]\n\
         \x20           [--serve-addr HOST:PORT] [--retry N] [--max-backoff SECS]\n\
         adp subscribe --addr HOST:PORT --cert FILE --range A..B [--table N]\n\
         \x20           [--sub N] [--deltas N] [--retry N] [--max-backoff SECS]\n\
         adp ingest  --store DIR [--csv FILE] [--delete K[:R],...] [--seed N] [--bits N]\n\
         adp compact --store DIR\n\
         adp compare [--tiny] [--check] [--write-doc] [--out FILE] [--doc FILE]\n\
         \n\
         `--range A..B` is the closed key range [A, B]; A..A asks for one key.\n\
         `--domain L..U` needs U - L >= 4 (two delimiters and a key).\n\
         `compare` reproduces the paper's scheme comparison (chain vs MHT,\n\
         aggregated signatures, VB-tree) over the shared workload grid and\n\
         keeps docs/EVALUATION.md verifiably in sync (--check).\n\
         `--store DIR` is the durable format (docs/STORAGE.md): a snapshot\n\
         plus an append-only update log. `ingest` applies a signed batch of\n\
         inserts/deletes with O(k) re-signing (regenerate the owner keypair\n\
         with the same --seed/--bits used at publish); `compact` folds the\n\
         log into a fresh snapshot.\n\
         `follow` mirrors a served table over the wire (protocol v5\n\
         log-shipping): it bootstraps from an audited snapshot, replays the\n\
         signed update log into its own store at DIR, verifies every record\n\
         before applying, and serves the mirror on --serve-addr.\n\
         `subscribe` registers a live range subscription: the initial answer\n\
         and every pushed delta are verified against the certificate before\n\
         being shown; --deltas N exits after N pushed deltas.\n\
         `--retry N` makes follow/subscribe self-heal transport failures with\n\
         capped exponential backoff (ceiling --max-backoff seconds); fatal\n\
         errors never retry. Exit codes: 1 usage/IO, 2 fatal (verification or\n\
         server error), 3 retry budget exhausted. `serve` drains on ctrl-c or\n\
         SIGTERM: it refuses new connections, flushes open ones for up to\n\
         --drain-secs, and prints a final stats line.\n"
    );
}

type Flags = BTreeMap<String, String>;

fn parse_flags(args: &[String]) -> Flags {
    let mut flags = Flags::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            let value = args.get(i + 1).cloned().unwrap_or_default();
            flags.insert(name.to_string(), value);
            i += 2;
        } else {
            i += 1;
        }
    }
    flags
}

fn need<'a>(flags: &'a Flags, key: &str) -> Result<&'a str, String> {
    flags
        .get(key)
        .map(String::as_str)
        .filter(|s| !s.is_empty())
        .ok_or_else(|| format!("missing --{key}"))
}

/// The two bounds of a `--{key} A..B` flag, unchecked.
fn bounds_flag(flags: &Flags, key: &str) -> Result<(i64, i64), String> {
    let s = need(flags, key)?;
    let (a, b) = s
        .split_once("..")
        .ok_or_else(|| format!("--{key}: expected A..B, got '{s}'"))?;
    let a: i64 = a.trim().parse().map_err(|_| format!("bad bound '{a}'"))?;
    let b: i64 = b.trim().parse().map_err(|_| format!("bad bound '{b}'"))?;
    Ok((a, b))
}

/// `--domain L..U` as a [`Domain`]: room for both delimiters and at least
/// one key (`U - L >= 4`), checked here so `Domain::new` cannot panic.
fn domain_from_flags(flags: &Flags) -> Result<Domain, String> {
    let (l, u) = bounds_flag(flags, "domain")?;
    if (u as i128 - l as i128) < 4 {
        return Err(format!(
            "--domain {l}..{u} is too narrow: a domain needs U - L >= 4 \
             (two delimiters and at least one key)"
        ));
    }
    Ok(Domain::new(l, u))
}

/// `--range A..B` as the closed key range `[A, B]`; `A..A` is the one key A.
fn range_from_flags(flags: &Flags) -> Result<KeyRange, String> {
    let (a, b) = bounds_flag(flags, "range")?;
    if a > b {
        return Err(format!("empty interval {a}..{b}"));
    }
    Ok(KeyRange::closed(a, b))
}

/// The select query `query`, `verify` and `rquery` share: `--range` plus
/// the optional `--project c1,c2`.
fn select_from_flags(flags: &Flags) -> Result<SelectQuery, String> {
    let projection = match flags.get("project") {
        Some(cols) if !cols.is_empty() => {
            Projection::Columns(cols.split(',').map(|c| c.trim().to_string()).collect())
        }
        _ => Projection::All,
    };
    Ok(SelectQuery {
        range: range_from_flags(flags)?,
        filters: Vec::new(),
        projection,
        distinct: false,
    })
}

/// The owner keypair regenerated from `--seed` (default `0xCAFE`) and
/// `--bits` (default `default_bits`): the same flags give the same key.
/// The modulus size is checked here so keygen's asserts cannot panic.
fn owner_from_flags(flags: &Flags, default_bits: usize) -> Result<Owner, String> {
    let seed: u64 = flags.get("seed").map_or(Ok(0xCAFE), |s| {
        s.parse().map_err(|_| "bad --seed".to_string())
    })?;
    let bits: usize = flags.get("bits").map_or(Ok(default_bits), |s| {
        s.parse().map_err(|_| "bad --bits".to_string())
    })?;
    if bits < 128 || !bits.is_multiple_of(2) {
        return Err(format!(
            "--bits {bits}: the RSA modulus needs an even bit count >= 128"
        ));
    }
    Ok(Owner::new(bits, &mut StdRng::seed_from_u64(seed)))
}

/// Reads and decodes a `certificate.bin`.
fn read_certificate(path: &Path) -> Result<Certificate, String> {
    let bytes = fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    wire::decode_certificate(&bytes).map_err(|e| format!("{}: {e}", path.display()))
}

// ---------------------------------------------------------------- publish

fn cmd_publish(flags: &Flags) -> Result<(), String> {
    let csv_path = need(flags, "csv")?;
    let key_col = need(flags, "key")?;
    let domain = domain_from_flags(flags)?;
    let out = PathBuf::from(need(flags, "out")?);

    let (table, csv_text) = load_csv_table(Path::new(csv_path), key_col)?;
    let rows = table.len();
    let owner = owner_from_flags(flags, 1024)?;
    let start = std::time::Instant::now();
    let signed = owner
        .sign_table(table, domain, SchemeConfig::default())
        .map_err(|e| e.to_string())?;
    let elapsed = start.elapsed();
    let cert = owner.certificate(&signed);

    fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    fs::write(out.join("table.csv"), csv_text).map_err(|e| e.to_string())?;
    let sigs: Vec<_> = (0..signed.chain_len())
        .map(|i| signed.entry(i).signature.clone())
        .collect();
    fs::write(out.join("signatures.bin"), wire::encode_signatures(&sigs))
        .map_err(|e| e.to_string())?;
    fs::write(out.join("certificate.bin"), wire::encode_certificate(&cert))
        .map_err(|e| e.to_string())?;
    println!(
        "published {rows} rows in {:.2}s → {} ({} signatures, cert {} bytes)",
        elapsed.as_secs_f64(),
        out.display(),
        rows + 2,
        wire::encode_certificate(&cert).len()
    );
    if let Some(store_dir) = flags.get("store").filter(|s| !s.is_empty()) {
        let store = adp_store::Store::create(store_dir, signed).map_err(|e| e.to_string())?;
        println!(
            "store created at {} (snapshot + empty update log; mutate with 'adp ingest')",
            store.dir().display()
        );
    }
    println!("ship the whole directory to publishers; give users certificate.bin");
    Ok(())
}

/// Loads a CSV into a Table (INT column if all values parse; else TEXT).
/// Returns the table plus the canonicalized CSV text for re-publication.
fn load_csv_table(path: &Path, key_col: &str) -> Result<(Table, String), String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty CSV")?;
    let names = csv::parse_line(header)?;
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (lineno, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let fields = csv::parse_line(line)?;
        if fields.len() != names.len() {
            return Err(format!(
                "line {}: {} fields, header has {}",
                lineno + 2,
                fields.len(),
                names.len()
            ));
        }
        rows.push(fields);
    }
    // Infer column types.
    let mut types = vec![ValueType::Int; names.len()];
    for (c, ty) in types.iter_mut().enumerate() {
        if !rows.iter().all(|r| r[c].trim().parse::<i64>().is_ok()) {
            *ty = ValueType::Text;
        }
    }
    let key_idx = names
        .iter()
        .position(|n| n == key_col)
        .ok_or_else(|| format!("key column '{key_col}' not in header"))?;
    if types[key_idx] != ValueType::Int {
        return Err(format!("key column '{key_col}' must be integer-valued"));
    }
    let columns: Vec<Column> = names
        .iter()
        .zip(&types)
        .map(|(n, t)| Column::new(n.clone(), *t))
        .collect();
    let schema = Schema::new(columns, key_col);
    let mut table = Table::new(
        path.file_stem().and_then(|s| s.to_str()).unwrap_or("table"),
        schema,
    );
    for fields in &rows {
        let values: Vec<Value> = fields
            .iter()
            .zip(&types)
            .map(|(f, t)| match t {
                ValueType::Int => Value::Int(f.trim().parse().unwrap()),
                _ => Value::Text(f.clone()),
            })
            .collect();
        table
            .insert(Record::new(values))
            .map_err(|e| e.to_string())?;
    }
    Ok((table, text))
}

// ------------------------------------------------------------------ query

/// Loads a published directory (`table.csv` + `signatures.bin` +
/// `certificate.bin`) back into a [`SignedTable`], refusing to serve data
/// that fails the signature audit.
fn load_published(dir: &Path) -> Result<SignedTable, String> {
    let cert = read_certificate(&dir.join("certificate.bin"))?;
    let sig_bytes = fs::read(dir.join("signatures.bin")).map_err(|e| e.to_string())?;
    let sigs = wire::decode_signatures(&sig_bytes).map_err(|e| e.to_string())?;
    let (table, _) = load_csv_table(&dir.join("table.csv"), cert.schema.key_name())?;
    let signed = SignedTable::from_parts(
        table,
        cert.domain,
        cert.config,
        sigs,
        cert.public_key.clone(),
    )
    .map_err(|e| e.to_string())?;
    if !signed.audit() {
        return Err("published data does not match its signatures — refusing to serve".into());
    }
    Ok(signed)
}

/// Where `query`/`serve` read their signed table from.
enum TableSource {
    /// A published directory (`--dir`): static files.
    Published(Box<SignedTable>),
    /// A durable store (`--store`): kept open so `serve` can stay
    /// live-updatable.
    Stored(adp_store::Store),
}

/// Resolves the `--dir` / `--store` selection into a [`TableSource`].
/// Both paths refuse data that fails the signature audit.
fn load_table_source(flags: &Flags) -> Result<TableSource, String> {
    match (
        flags.get("dir").filter(|s| !s.is_empty()),
        flags.get("store").filter(|s| !s.is_empty()),
    ) {
        (Some(dir), None) => Ok(TableSource::Published(Box::new(load_published(
            Path::new(dir),
        )?))),
        (None, Some(store_dir)) => {
            let store = adp_store::Store::open(store_dir).map_err(|e| e.to_string())?;
            if !store.audit() {
                return Err("store data does not match its signatures — refusing to serve".into());
            }
            Ok(TableSource::Stored(store))
        }
        _ => Err("pass exactly one of --dir or --store".into()),
    }
}

/// Loads the signed table itself when the caller doesn't need to keep the
/// store open (the `query` path).
fn load_signed_source(flags: &Flags) -> Result<SignedTable, String> {
    Ok(match load_table_source(flags)? {
        TableSource::Published(signed) => *signed,
        TableSource::Stored(store) => store.into_table(),
    })
}

fn cmd_query(flags: &Flags) -> Result<(), String> {
    let query = select_from_flags(flags)?;
    let out = PathBuf::from(need(flags, "out")?);
    let signed = load_signed_source(flags)?;

    let (result, vo) = Publisher::new(&signed)
        .answer_select(&query)
        .map_err(|e| e.to_string())?;
    let result_bytes = wire::encode_records(&result);
    let vo_bytes = wire::encode_vo(&vo);
    write_answer_dir(&out, &result, &result_bytes, &vo_bytes)?;
    println!(
        "answered {}: {} rows, {} result bytes + {} VO bytes → {}",
        query.range,
        result.len(),
        result_bytes.len(),
        vo_bytes.len(),
        out.display()
    );
    Ok(())
}

/// Writes an answer directory (`result.bin` + `vo.bin` + a human-readable
/// `result.csv`) in the layout `adp verify --answer` reads back — shared
/// by `query` (files) and `rquery` (socket).
fn write_answer_dir(
    out: &Path,
    rows: &[Record],
    result_bytes: &[u8],
    vo_bytes: &[u8],
) -> Result<(), String> {
    fs::create_dir_all(out).map_err(|e| e.to_string())?;
    fs::write(out.join("result.bin"), result_bytes).map_err(|e| e.to_string())?;
    fs::write(out.join("vo.bin"), vo_bytes).map_err(|e| e.to_string())?;
    let mut csv_out = String::new();
    for rec in rows {
        let line: Vec<String> = rec
            .values()
            .iter()
            .map(|v| csv::write_field(&value_to_text(v)))
            .collect();
        csv_out.push_str(&line.join(","));
        csv_out.push('\n');
    }
    fs::write(out.join("result.csv"), csv_out).map_err(|e| e.to_string())
}

// -------------------------------------------------------------------- sql

/// Parses, plans, and executes a SQL statement against a CSV signed
/// in-process: one command that walks the whole verified pipeline. The
/// statement's FROM name is the CSV's file stem. The EXPLAIN block shows
/// the cost-model comparison (naive vs chosen plan) and the rewrite
/// passes that produced the winner; execution then goes through the same
/// encode → verify loop a remote session uses, so no row is printed
/// unless the answer verified against the certificate.
fn cmd_sql(flags: &Flags) -> Result<(), CliError> {
    use adp_core::plan::{compute_plan_answer, encode_plan_answer, verify_plan};

    let csv_path = need(flags, "csv")?;
    let key_col = need(flags, "key")?;
    let domain = domain_from_flags(flags)?;
    let sql = need(flags, "query")?.to_string();

    let (table, _) = load_csv_table(Path::new(csv_path), key_col)?;
    let rows = table.len() as u64;
    let owner = owner_from_flags(flags, 512)?;
    let signed = owner
        .sign_table(table, domain, SchemeConfig::default())
        .map_err(|e| e.to_string())?;
    let cert = owner.certificate(&signed);

    let mut catalog = Catalog::new();
    catalog.add(CatalogTable::from_certificate(0, &cert, rows));

    let stmt = parse(&sql).map_err(|e| e.to_string())?;
    let planned = Planner::default()
        .plan(&stmt, &catalog)
        .map_err(|e| e.to_string())?;

    println!("EXPLAIN {sql}");
    println!(
        "  naive  cost: {:>8.0} VO bytes + {:>6.2} ms verify  (score {:.0})",
        planned.naive_cost.vo_bytes,
        planned.naive_cost.verify_ms,
        planned.naive_cost.score()
    );
    println!(
        "  chosen cost: {:>8.0} VO bytes + {:>6.2} ms verify  (score {:.0})",
        planned.chosen_cost.vo_bytes,
        planned.chosen_cost.verify_ms,
        planned.chosen_cost.score()
    );
    println!(
        "  passes applied: {}",
        if planned.passes_applied.is_empty() {
            "(none — naive plan already cheapest)".to_string()
        } else {
            planned.passes_applied.join(", ")
        }
    );
    for line in planned.optimized.to_string().lines() {
        println!("    {line}");
    }

    // The same answer/verify loop a remote session runs, over local bytes.
    let answer = compute_plan_answer(&planned.chosen.wire, |id| (id == 0).then_some(&signed))
        .map_err(|e| e.to_string())?;
    let (result_bytes, vo_bytes) = encode_plan_answer(&answer);
    let verified = verify_plan(
        &planned.chosen.wire,
        |id| (id == 0).then_some(&cert),
        &result_bytes,
        &vo_bytes,
    )
    .map_err(|e| CliError::Fatal(format!("verification failed: {e}")))?;
    let out = planned
        .chosen
        .finish(verified.rows)
        .map_err(|e| e.to_string())?;

    println!(
        "verified: {} rows, {} signatures ({} result bytes + {} VO bytes on the wire)",
        verified.rows_verified,
        verified.signatures_verified,
        result_bytes.len(),
        vo_bytes.len()
    );
    match &out.aggregate {
        Some((label, value)) => {
            let shown = match value {
                AggregateValue::Count(n) => n.to_string(),
                AggregateValue::Sum(s) => s.to_string(),
                AggregateValue::Min(m) | AggregateValue::Max(m) => {
                    m.map_or("NULL".to_string(), |v| v.to_string())
                }
                AggregateValue::Avg(a) => a.map_or("NULL".to_string(), |v| format!("{v:.3}")),
            };
            println!("{label} = {shown}");
        }
        None => {
            println!("{}", out.columns.join(","));
            for r in &out.rows {
                let line: Vec<String> = r.values().iter().map(value_to_text).collect();
                println!("{}", line.join(","));
            }
        }
    }
    Ok(())
}

fn value_to_text(v: &Value) -> String {
    match v {
        Value::Int(i) => i.to_string(),
        Value::Text(s) => s.clone(),
        Value::Bool(b) => b.to_string(),
        Value::Bytes(b) => format!(
            "0x{}",
            b.iter().map(|x| format!("{x:02x}")).collect::<String>()
        ),
    }
}

// ----------------------------------------------------------------- verify

/// Checks an answer directory offline through the same verify core
/// (`SessionStats::verify_select`) a remote session runs on socket bytes.
fn cmd_verify(flags: &Flags) -> Result<(), String> {
    let cert_path = need(flags, "cert")?;
    let query = select_from_flags(flags)?;
    let answer = PathBuf::from(need(flags, "answer")?);

    let cert = read_certificate(Path::new(cert_path))?;
    let result_bytes = fs::read(answer.join("result.bin")).map_err(|e| e.to_string())?;
    let vo_bytes = fs::read(answer.join("vo.bin")).map_err(|e| e.to_string())?;
    let verified = SessionStats::default()
        .verify_select(&cert, &query, &result_bytes, &vo_bytes)
        .map_err(|e| format!("REJECTED: {e}"))?;
    println!(
        "VERIFIED: {} rows are the complete, authentic answer to {} \
         ({} signature(s) checked{})",
        verified.rows.len(),
        query.range,
        verified.report.signatures_verified,
        if verified.report.empty {
            ", provably empty"
        } else {
            ""
        }
    );
    Ok(())
}

// ------------------------------------------------------------------ serve

fn parse_u32_flag(flags: &Flags, key: &str, default: u32) -> Result<u32, String> {
    flags.get(key).map_or(Ok(default), |s| {
        s.parse().map_err(|_| format!("bad --{key}"))
    })
}

/// `--retry N` / `--max-backoff SECS` → a [`adp_server::RetryPolicy`].
/// The default is `--retry 0`: fail fast, exactly the pre-robustness
/// behavior. With a budget, transport failures reconnect with capped
/// exponential backoff; fatal errors (failed verification, server-side
/// errors) never retry regardless of the budget.
fn parse_retry_policy(flags: &Flags) -> Result<adp_server::RetryPolicy, String> {
    let retries = parse_u32_flag(flags, "retry", 0)?;
    let mut policy = if retries == 0 {
        adp_server::RetryPolicy::none()
    } else {
        adp_server::RetryPolicy {
            max_retries: retries,
            ..adp_server::RetryPolicy::default()
        }
    };
    if let Some(secs) = flags.get("max-backoff").filter(|s| !s.is_empty()) {
        let secs = secs
            .parse::<f64>()
            .ok()
            .filter(|s| *s > 0.0 && s.is_finite())
            .ok_or_else(|| "bad --max-backoff (want seconds > 0)".to_string())?;
        policy.max_backoff = std::time::Duration::from_secs_f64(secs);
    }
    Ok(policy)
}

/// Classifies a client error into the exit-code scheme: a retryable
/// transport error that survived the whole `--retry` budget exits 3, a
/// fatal (verification / server-reported) error exits 2.
fn classify_remote(e: adp_server::RemoteError, context: &str) -> CliError {
    if e.is_retryable() {
        CliError::Exhausted(format!("{context}: retries exhausted: {e}"))
    } else {
        CliError::Fatal(format!("REJECTED: {e}"))
    }
}

fn cmd_serve(flags: &Flags) -> Result<(), String> {
    let addr = flags
        .get("addr")
        .map(String::as_str)
        .unwrap_or("127.0.0.1:4170");
    let table_id = parse_u32_flag(flags, "table", 0)?;
    let workers = parse_u32_flag(flags, "workers", 4)? as usize;
    let cache = parse_u32_flag(flags, "cache", 1024)? as usize;
    let drain_secs = parse_u32_flag(flags, "drain-secs", 5)?;

    // Route SIGINT / SIGTERM to a signalfd *before* the server spawns its
    // threads: the signal mask is inherited, so the signal is only ever
    // delivered here, never to a reactor shard mid-write.
    let signals =
        adp_server::sys::SignalFd::new(&[adp_server::sys::SIGINT, adp_server::sys::SIGTERM])
            .map_err(|e| format!("installing signal handler: {e}"))?;

    let mut server = adp_server::Server::new(adp_server::ServerConfig {
        workers,
        cache_capacity: cache,
        ..adp_server::ServerConfig::default()
    });
    let (rows, source) = match load_table_source(flags)? {
        TableSource::Published(signed) => {
            let rows = signed.len();
            server.add_table(table_id, *signed);
            (rows, "published dir".to_string())
        }
        TableSource::Stored(store) => {
            // Store-backed: the table stays live-updatable (epoch-based VO
            // cache invalidation) and the log was re-verified at open.
            let rows = store.table().len();
            let source = format!("store {} (seq {})", store.dir().display(), store.next_seq());
            server.add_store(table_id, store);
            (rows, source)
        }
    };
    let handle = server.serve(addr).map_err(|e| e.to_string())?;
    println!(
        "serving table {table_id} ({rows} rows, from {source}) on {} — {} workers, \
         VO cache {} entries (protocol: docs/PROTOCOL.md; ctrl-c or SIGTERM drains \
         for up to {drain_secs}s)",
        handle.addr(),
        workers.max(1),
        cache,
    );
    // Serve until signalled, then drain: refuse new connections, let
    // every open connection answer what it already sent and flush, then
    // shut down and report the final counters.
    let sig = signals
        .wait()
        .map_err(|e| format!("waiting for signal: {e}"))?;
    let name = if sig == adp_server::sys::SIGTERM {
        "SIGTERM"
    } else {
        "SIGINT"
    };
    println!("{name} received — draining (refusing new connections, flushing replies)");
    let (flushed, stats) = handle.drain(std::time::Duration::from_secs(u64::from(drain_secs)));
    println!(
        "drained {}: {} connection(s) closed in drain, {} total served, {} queries, \
         {} errors, {} subscription resync(s){}",
        if flushed { "cleanly" } else { "with timeout" },
        stats.drains,
        stats.connections,
        stats.queries,
        stats.errors,
        stats.resyncs,
        if flushed {
            ""
        } else {
            " — some connections were cut before flushing"
        },
    );
    Ok(())
}

// ------------------------------------------------------------ ingest

/// Parses CSV rows against an existing schema (ingest cannot re-infer
/// types: the batch must match the published table exactly). The header
/// must name every schema column, in any order.
fn records_for_schema(path: &Path, schema: &Schema) -> Result<Vec<Record>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty CSV")?;
    let names = csv::parse_line(header)?;
    if names.len() != schema.arity() {
        return Err(format!(
            "CSV has {} columns, the table schema has {}",
            names.len(),
            schema.arity()
        ));
    }
    let slots: Vec<usize> = names
        .iter()
        .map(|n| {
            schema
                .column_index(n)
                .ok_or_else(|| format!("column '{n}' is not in the table schema"))
        })
        .collect::<Result<_, _>>()?;
    let mut seen = vec![false; schema.arity()];
    for &slot in &slots {
        if seen[slot] {
            return Err(format!(
                "duplicate column '{}' in CSV header",
                schema.columns()[slot].name
            ));
        }
        seen[slot] = true;
    }
    let mut records = Vec::new();
    for (lineno, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let fields = csv::parse_line(line)?;
        if fields.len() != names.len() {
            return Err(format!(
                "line {}: {} fields, header has {}",
                lineno + 2,
                fields.len(),
                names.len()
            ));
        }
        let mut values: Vec<Option<Value>> = vec![None; schema.arity()];
        for (field, &slot) in fields.iter().zip(&slots) {
            let col = &schema.columns()[slot];
            let value =
                match col.ty {
                    ValueType::Int => Value::Int(field.trim().parse().map_err(|_| {
                        format!("line {}: '{field}' is not an integer", lineno + 2)
                    })?),
                    ValueType::Text => Value::Text(field.clone()),
                    ValueType::Bool => match field.trim() {
                        "true" | "1" => Value::Bool(true),
                        "false" | "0" => Value::Bool(false),
                        other => return Err(format!("line {}: bad bool '{other}'", lineno + 2)),
                    },
                    ValueType::Bytes => {
                        return Err(format!(
                            "line {}: BYTES column '{}' cannot be ingested from CSV",
                            lineno + 2,
                            col.name
                        ))
                    }
                };
            values[slot] = Some(value);
        }
        records.push(Record::new(
            values.into_iter().map(Option::unwrap).collect(),
        ));
    }
    Ok(records)
}

/// Parses `--delete K[:R],K2[:R2],...` into delete mutations.
fn parse_deletes(spec: &str) -> Result<Vec<adp_core::owner::Mutation>, String> {
    spec.split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|item| {
            let item = item.trim();
            let (key, replica) = match item.split_once(':') {
                Some((k, r)) => (
                    k.trim().parse().map_err(|_| format!("bad key '{k}'"))?,
                    r.trim().parse().map_err(|_| format!("bad replica '{r}'"))?,
                ),
                None => (item.parse().map_err(|_| format!("bad key '{item}'"))?, 0u32),
            };
            Ok(adp_core::owner::Mutation::Delete { key, replica })
        })
        .collect()
}

fn cmd_ingest(flags: &Flags) -> Result<(), String> {
    let store_dir = need(flags, "store")?;

    let mut store = adp_store::Store::open(store_dir).map_err(|e| e.to_string())?;
    let owner = owner_from_flags(flags, 1024)?;
    if owner.public_key() != store.table().public_key() {
        return Err(
            "the regenerated keypair does not match the store's owner key — \
             pass the same --seed and --bits used at publish time"
                .into(),
        );
    }

    let mut ops = Vec::new();
    if let Some(del) = flags.get("delete").filter(|s| !s.is_empty()) {
        ops.extend(parse_deletes(del)?);
    }
    if let Some(csv_path) = flags.get("csv").filter(|s| !s.is_empty()) {
        let schema = store.table().table().schema().clone();
        for record in records_for_schema(Path::new(csv_path), &schema)? {
            ops.push(adp_core::owner::Mutation::Insert(record));
        }
    }
    if ops.is_empty() {
        return Err("nothing to ingest: pass --csv and/or --delete".into());
    }
    let total = ops.len();
    let start = std::time::Instant::now();
    let report = store.apply_batch(&owner, ops).map_err(|e| e.to_string())?;
    println!(
        "ingested {total} mutation(s) in {:.3}s: {} signatures recomputed \
         ({} g digests) — O(k) neighborhoods, not O(n); table now {} rows, \
         log {} record(s)",
        start.elapsed().as_secs_f64(),
        report.signatures_recomputed,
        report.g_recomputed,
        store.table().len(),
        store.log_record_count(),
    );
    Ok(())
}

// ----------------------------------------------------------- compact

fn cmd_compact(flags: &Flags) -> Result<(), String> {
    let store_dir = need(flags, "store")?;
    let mut store = adp_store::Store::open(store_dir).map_err(|e| e.to_string())?;
    let folded = store.compact().map_err(|e| e.to_string())?;
    println!(
        "compacted {}: folded {folded} log record(s) into a fresh snapshot \
         ({} rows, next seq {})",
        store.dir().display(),
        store.table().len(),
        store.next_seq(),
    );
    Ok(())
}

// ---------------------------------------------------------------- compare

/// Thin wrapper over `adp_bench::compare` — the scheme-comparison
/// harness that regenerates (and `--check`s) `docs/EVALUATION.md` and
/// `BENCH_PR5.json`. Flags are passed through verbatim.
fn cmd_compare(args: &[String]) -> Result<(), String> {
    let opts = adp_bench::compare::parse_args(args)?;
    adp_bench::compare::run(&opts)
}

// ----------------------------------------------------------------- rquery

fn cmd_rquery(flags: &Flags) -> Result<(), String> {
    let addr = need(flags, "addr")?;
    let cert_path = need(flags, "cert")?;
    let query = select_from_flags(flags)?;
    let table_id = parse_u32_flag(flags, "table", 0)?;

    let cert = read_certificate(Path::new(cert_path))?;
    let mut user = adp_server::RemoteVerifier::connect(addr, cert, table_id)
        .map_err(|e| format!("connecting to {addr}: {e}"))?;
    let (verified, result_bytes, vo_bytes) = user
        .select_with_bytes(&query)
        .map_err(|e| format!("REJECTED: {e}"))?;
    println!(
        "VERIFIED: {} rows are the complete, authentic answer to {} \
         ({} signature(s) checked, {} result bytes + {} VO bytes over the wire)",
        verified.rows.len(),
        query.range,
        verified.report.signatures_verified,
        verified.result_bytes,
        verified.vo_bytes,
    );
    if let Some(out) = flags.get("out").filter(|s| !s.is_empty()) {
        // Persist the answer in the same layout `query` writes, so
        // `adp verify --answer` can re-check it offline later.
        let out = PathBuf::from(out);
        write_answer_dir(&out, &verified.rows, &result_bytes, &vo_bytes)?;
        println!("wrote verified result to {}", out.display());
    }
    Ok(())
}

// ------------------------------------------------------------ follow

/// `adp follow` — run a verifying mirror (docs/PROTOCOL.md §9): bootstrap
/// a local store from the upstream's audited snapshot (or resume an
/// existing one from its own sequence head), replay the owner-signed
/// update log over the wire, and serve the mirror locally. Every record
/// is signature-verified against the certificate's owner key before it
/// touches the store, so the upstream publisher stays untrusted.
///
/// With `--retry N` the mirror self-heals: a dropped upstream connection
/// reconnects with capped exponential backoff, resuming from the
/// mirror's own sequence cursor — reconnection re-fetches bytes, never
/// relaxes verification.
fn cmd_follow(flags: &Flags) -> Result<(), CliError> {
    use adp_server::follow::{apply_segment, bootstrap_store};
    use adp_server::{FollowError, FollowEvent, ResilientFollower};

    let addr = need(flags, "addr")?;
    let cert_path = need(flags, "cert")?;
    let store_dir = PathBuf::from(need(flags, "store")?);
    let table_id = parse_u32_flag(flags, "table", 0)?;
    let serve_addr = flags
        .get("serve-addr")
        .map(String::as_str)
        .unwrap_or("127.0.0.1:4171");
    let retry = parse_retry_policy(flags)?;
    let budget = retry.max_retries;

    let cert = read_certificate(Path::new(cert_path))?;

    let classify = |e: FollowError| -> CliError {
        if e.is_retryable() {
            CliError::Exhausted(format!("follow stream failed, retries exhausted: {e}"))
        } else {
            CliError::Fatal(format!("REJECTED: {e}"))
        }
    };

    let mut follower = ResilientFollower::new(addr, table_id, retry)
        .map_err(|e| format!("resolving {addr}: {e}"))?;
    // Live segments can legitimately be hours apart: block until one
    // arrives (damage still surfaces as a connection error → reconnect).
    follower.set_segment_timeout(None);

    // A dir that already holds a snapshot is a mirror to resume; anything
    // else is a fresh bootstrap.
    let resume = store_dir.join(adp_store::SNAPSHOT_FILE).exists();
    let (store, backlog) = if resume {
        let store = adp_store::Store::open(&store_dir).map_err(|e| e.to_string())?;
        let have = store.next_seq();
        match follower.next_event(Some(have)) {
            Ok(FollowEvent::Backlog(backlog)) => (store, backlog),
            Ok(_) => {
                return Err(CliError::Fatal(format!(
                    "upstream compacted its log past seq {have}; re-bootstrap into an \
                     empty --store dir"
                )))
            }
            Err(e) => return Err(classify(e)),
        }
    } else {
        let snapshot = match follower.next_event(None) {
            Ok(FollowEvent::Snapshot(snapshot)) => snapshot,
            Ok(_) => {
                return Err(CliError::Fatal(
                    "upstream sent a log segment for a fresh bootstrap".into(),
                ))
            }
            Err(e) => return Err(classify(e)),
        };
        let store = bootstrap_store(&store_dir, &snapshot, &cert.public_key)
            .map_err(|e| CliError::Fatal(format!("REJECTED bootstrap: {e}")))?;
        println!(
            "bootstrapped {} rows at seq {} into {} (snapshot key-checked and audited)",
            store.table().len(),
            store.next_seq(),
            store_dir.display(),
        );
        (store, Vec::new())
    };

    let mut server = adp_server::Server::new(adp_server::ServerConfig::default());
    server.add_store(table_id, store);
    let handle = server.serve(serve_addr).map_err(|e| e.to_string())?;
    let mut head = apply_segment(&handle, table_id, &backlog)
        .map_err(|e| CliError::Fatal(format!("REJECTED: {e}")))?;
    println!(
        "mirroring table {table_id} from {addr} on {} — caught up at seq {head} \
         (every record verified before serving; retry budget {budget}; stop with ctrl-c)",
        handle.addr(),
    );
    loop {
        let records = match follower.next_event(Some(head)) {
            // A live segment, or a reconnect's resumed backlog: both are
            // framed records that go through the same verification.
            Ok(FollowEvent::Segment(records)) | Ok(FollowEvent::Backlog(records)) => records,
            Ok(FollowEvent::Snapshot(_)) => {
                return Err(CliError::Fatal(format!(
                    "upstream compacted its log past seq {head}; re-bootstrap into an \
                     empty --store dir"
                )))
            }
            Err(e) => return Err(classify(e)),
        };
        head = apply_segment(&handle, table_id, &records)
            .map_err(|e| CliError::Fatal(format!("REJECTED: {e}")))?;
        println!(
            "applied verified segment — head seq {head} ({} reconnect(s))",
            follower.reconnects(),
        );
    }
}

// --------------------------------------------------------- subscribe

/// `adp subscribe` — hold a live range subscription (docs/PROTOCOL.md
/// §10): the initial answer and every pushed delta are verified against
/// the certificate before the local mirror is updated, so the terminal
/// only ever shows owner-authenticated state.
///
/// With `--retry N` the subscription self-heals: a dropped connection or
/// a server `ResyncRequired` push (§11 — a delta outgrew the frame
/// limit) reconnects and re-subscribes, and the fresh baseline is
/// verified against the certificate and refused if it is older than
/// what the mirror already verified.
fn cmd_subscribe(flags: &Flags) -> Result<(), CliError> {
    let addr = need(flags, "addr")?;
    let cert_path = need(flags, "cert")?;
    let range = range_from_flags(flags)?;
    let table_id = parse_u32_flag(flags, "table", 0)?;
    let sub_id = parse_u32_flag(flags, "sub", 1)?;
    let retry = parse_retry_policy(flags)?;
    let max_deltas = flags
        .get("deltas")
        .filter(|s| !s.is_empty())
        .map(|s| s.parse::<u64>().map_err(|_| format!("bad --deltas '{s}'")))
        .transpose()?;

    let cert = read_certificate(Path::new(cert_path))?;
    let mut sub = adp_server::RemoteSubscriber::subscribe_with_retry(
        addr, cert, table_id, sub_id, range, retry,
    )
    .map_err(|e| classify_remote(e, "subscribe"))?;
    println!(
        "SUBSCRIBED: {range} on table {table_id} — {} verified rows at epoch {} \
         ({} signature(s) checked)",
        sub.rows().count(),
        sub.epoch(),
        sub.stats().signatures_verified,
    );

    let mut seen = 0u64;
    loop {
        let delta = sub
            .poll_delta(std::time::Duration::from_secs(1))
            .map_err(|e| classify_remote(e, "subscription"))?;
        if let Some(epoch) = delta {
            seen += 1;
            println!(
                "DELTA VERIFIED: epoch {epoch} — mirror now {} rows ({} delta(s), \
                 {} reconnect(s), {} resync(s))",
                sub.rows().count(),
                seen,
                sub.reconnects(),
                sub.resyncs(),
            );
            if Some(seen) == max_deltas {
                let (reconnects, resyncs) = (sub.reconnects(), sub.resyncs());
                sub.unsubscribe()
                    .map_err(|e| format!("unsubscribe failed: {e}"))?;
                println!(
                    "UNSUBSCRIBED after {seen} delta(s) ({reconnects} reconnect(s), \
                     {resyncs} resync(s))"
                );
                return Ok(());
            }
        }
    }
}
