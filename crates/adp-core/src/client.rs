//! A user-side convenience layer: issue queries, verify the answers, and
//! account for the authentication costs — the role marked "user" in
//! Figure 3, packaged.
//!
//! Beyond plumbing, this module implements two pieces of the paper that
//! live naturally on the client:
//!
//! * **`K ≠ α` selections** (Section 4.1): "`K ≠ α` can be mapped to
//!   `(L < K < α) ∪ (α < K < U)`" — [`Client::select_ne`] runs both halves
//!   as independently verified range queries and concatenates them.
//! * **Verified aggregates** (Section 4.2 motivates retaining duplicates
//!   "e.g. for the computation of SUM and AVG"): [`Client::aggregate`]
//!   computes COUNT/SUM/MIN/MAX/AVG *locally over a verified result*, so
//!   the aggregate inherits the completeness guarantee — an untrusted
//!   publisher cannot bias a verified SUM by omitting rows.

use crate::errors::VerifyError;
use crate::owner::Certificate;
use crate::plan::{verify_plan, PlanVerified, WirePlan};
use crate::publisher::{PublishError, Publisher};
use crate::verifier::{verify_select_wire, VerifyReport};
use crate::wire;
use adp_relation::{KeyRange, Record, SelectQuery, Value};
use std::ops::Bound;
use std::time::{Duration, Instant};

/// Why a client call failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientError {
    Publish(PublishError),
    Verify(VerifyError),
    /// The aggregate referenced a column absent from the result.
    BadAggregateColumn {
        column: String,
    },
    /// The aggregate requires numeric values.
    NonNumericColumn {
        column: String,
    },
    /// The SUM of the column's verified values does not fit in an `i64`.
    SumOverflow {
        column: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Publish(e) => write!(f, "publisher error: {e}"),
            ClientError::Verify(e) => write!(f, "verification failed: {e}"),
            ClientError::BadAggregateColumn { column } => {
                write!(f, "aggregate column '{column}' not in the result")
            }
            ClientError::NonNumericColumn { column } => {
                write!(f, "aggregate column '{column}' is not numeric")
            }
            ClientError::SumOverflow { column } => {
                write!(f, "SUM of column '{column}' overflows a 64-bit integer")
            }
        }
    }
}
impl std::error::Error for ClientError {}

impl From<PublishError> for ClientError {
    fn from(e: PublishError) -> Self {
        ClientError::Publish(e)
    }
}
impl From<VerifyError> for ClientError {
    fn from(e: VerifyError) -> Self {
        ClientError::Verify(e)
    }
}

/// Cumulative session statistics (the quantities of Section 6.1/6.2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    pub queries: usize,
    pub rows_verified: usize,
    pub result_bytes: usize,
    pub vo_bytes: usize,
    pub signatures_verified: usize,
    pub hash_ops: u64,
    pub verify_time: Duration,
}

impl SessionStats {
    /// The paper's Figure 9 metric for the session so far: authentication
    /// bytes per result byte, in percent.
    pub fn traffic_overhead_pct(&self) -> f64 {
        if self.result_bytes == 0 {
            0.0
        } else {
            100.0 * self.vo_bytes as f64 / self.result_bytes as f64
        }
    }

    /// Runs `verify` over one encoded answer and, if it accepts, folds the
    /// answer's cost — bytes, the `(rows, signatures)` it reports, hash
    /// operations and wall-clock time — into the session. Returns the
    /// verifier's output and the time it took.
    fn account<T>(
        &mut self,
        result_bytes: &[u8],
        vo_bytes: &[u8],
        verify: impl FnOnce() -> Result<(T, usize, usize), VerifyError>,
    ) -> Result<(T, Duration), VerifyError> {
        // The calling thread's own count: the process-wide counter would
        // fold in whatever other sessions or a server hash meanwhile.
        let ops_before = adp_crypto::thread_hash_ops();
        let start = Instant::now();
        let (verified, rows, signatures) = verify()?;
        let elapsed = start.elapsed();
        self.queries += 1;
        self.rows_verified += rows;
        self.result_bytes += result_bytes.len();
        self.vo_bytes += vo_bytes.len();
        self.signatures_verified += signatures;
        self.hash_ops += adp_crypto::thread_hash_ops() - ops_before;
        self.verify_time += elapsed;
        Ok((verified, elapsed))
    }

    /// Verifies one encoded select answer against `cert` and accounts for
    /// it: the step every verifying client (in-process, remote, range
    /// subscriber) performs on bytes it does not trust.
    pub fn verify_select(
        &mut self,
        cert: &Certificate,
        query: &SelectQuery,
        result_bytes: &[u8],
        vo_bytes: &[u8],
    ) -> Result<VerifiedResult, VerifyError> {
        self.account(result_bytes, vo_bytes, || {
            let (rows, report) = verify_select_wire(cert, query, result_bytes, vo_bytes)?;
            let (matched, signatures) = (report.matched, report.signatures_verified);
            let verified = VerifiedResult {
                rows,
                report,
                result_bytes: result_bytes.len(),
                vo_bytes: vo_bytes.len(),
            };
            Ok((verified, matched, signatures))
        })
        .map(|(verified, _)| verified)
    }

    /// Verifies one encoded planned answer (select or pk-fk join) against
    /// the certificates `cert_of` trusts and accounts for it; also returns
    /// the verification time.
    pub fn verify_plan<'a>(
        &mut self,
        plan: &WirePlan,
        cert_of: impl Fn(u32) -> Option<&'a Certificate>,
        result_bytes: &[u8],
        vo_bytes: &[u8],
    ) -> Result<(PlanVerified, Duration), VerifyError> {
        self.account(result_bytes, vo_bytes, || {
            let verified = verify_plan(plan, cert_of, result_bytes, vo_bytes)?;
            let (rows, signatures) = (verified.rows_verified, verified.signatures_verified);
            Ok((verified, rows, signatures))
        })
    }
}

/// One verified answer.
#[derive(Clone, Debug)]
pub struct VerifiedResult {
    pub rows: Vec<Record>,
    pub report: VerifyReport,
    pub result_bytes: usize,
    pub vo_bytes: usize,
}

/// A verifying client bound to one table certificate.
pub struct Client {
    cert: Certificate,
    stats: SessionStats,
}

impl Client {
    /// Creates a client trusting `cert` (obtained from the owner over an
    /// authenticated channel).
    pub fn new(cert: Certificate) -> Self {
        Client {
            cert,
            stats: SessionStats::default(),
        }
    }

    /// The certificate in use.
    pub fn certificate(&self) -> &Certificate {
        &self.cert
    }

    /// Session statistics so far.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Issues `query` to `publisher`, transports result + VO through the
    /// wire codec (as a real deployment would), verifies, and accounts.
    pub fn select(
        &mut self,
        publisher: &Publisher<'_>,
        query: &SelectQuery,
    ) -> Result<VerifiedResult, ClientError> {
        let (rows, vo) = publisher.answer_select(query)?;
        let result_bytes = wire::encode_records(&rows);
        let vo_bytes = wire::encode_vo(&vo);
        Ok(self
            .stats
            .verify_select(&self.cert, query, &result_bytes, &vo_bytes)?)
    }

    /// Section 4.1: `K ≠ α` as `(L < K < α) ∪ (α < K < U)` — two verified
    /// range queries, independently proven complete, concatenated in key
    /// order.
    pub fn select_ne(
        &mut self,
        publisher: &Publisher<'_>,
        alpha: i64,
        template: &SelectQuery,
    ) -> Result<VerifiedResult, ClientError> {
        let mut below = template.clone();
        below.range = template.range.intersect(&KeyRange {
            lo: Bound::Unbounded,
            hi: Bound::Excluded(alpha),
        });
        let mut above = template.clone();
        above.range = template.range.intersect(&KeyRange {
            lo: Bound::Excluded(alpha),
            hi: Bound::Unbounded,
        });
        let lo = self.select(publisher, &below)?;
        let hi = self.select(publisher, &above)?;
        let mut rows = lo.rows;
        rows.extend(hi.rows);
        let report = VerifyReport {
            matched: lo.report.matched + hi.report.matched,
            filtered: lo.report.filtered + hi.report.filtered,
            duplicates: lo.report.duplicates + hi.report.duplicates,
            signatures_verified: lo.report.signatures_verified + hi.report.signatures_verified,
            empty: lo.report.empty && hi.report.empty,
        };
        Ok(VerifiedResult {
            rows,
            report,
            result_bytes: lo.result_bytes + hi.result_bytes,
            vo_bytes: lo.vo_bytes + hi.vo_bytes,
        })
    }

    /// A verified aggregate over `column` for the rows matching `query`.
    /// The aggregate is computed client-side from the verified result, so
    /// completeness transfers: no qualifying row can be missing from the
    /// sum. Duplicates are retained as the paper prescribes for SUM/AVG.
    pub fn aggregate(
        &mut self,
        publisher: &Publisher<'_>,
        query: &SelectQuery,
        column: &str,
        kind: AggregateKind,
    ) -> Result<AggregateValue, ClientError> {
        // Ensure the aggregated column is in the projection.
        let mut q = query.clone();
        if let adp_relation::Projection::Columns(cols) = &mut q.projection {
            if !cols.iter().any(|c| c == column) {
                cols.push(column.to_string());
            }
        }
        let verified = self.select(publisher, &q)?;
        if kind == AggregateKind::Count {
            return Ok(AggregateValue::Count(verified.rows.len() as u64));
        }
        // Locate the column in the effective projection.
        let proj =
            crate::publisher::effective_projection(&self.cert.schema, &q.projection, &q.filters)
                .ok_or_else(|| ClientError::BadAggregateColumn {
                    column: column.to_string(),
                })?;
        let col_idx = self.cert.schema.column_index(column).ok_or_else(|| {
            ClientError::BadAggregateColumn {
                column: column.to_string(),
            }
        })?;
        let slot = proj.iter().position(|&c| c == col_idx).ok_or_else(|| {
            ClientError::BadAggregateColumn {
                column: column.to_string(),
            }
        })?;
        let mut values = Vec::with_capacity(verified.rows.len());
        for r in &verified.rows {
            match r.get(slot) {
                Value::Int(v) => values.push(*v),
                _ => {
                    return Err(ClientError::NonNumericColumn {
                        column: column.to_string(),
                    })
                }
            }
        }
        fold_aggregate(kind, column, &values)
    }
}

/// Folds the integer values of a verified answer's aggregated `column` —
/// the one fold behind [`Client::aggregate`] and
/// [`PhysicalPlan::finish`](crate::plan::PhysicalPlan::finish). SUM is
/// checked: a total outside `i64` is [`ClientError::SumOverflow`], never a
/// wrapped or panicking sum. AVG accumulates in `i128` and cannot overflow.
/// Over no values COUNT and SUM are 0 and MIN, MAX and AVG are `None`.
pub(crate) fn fold_aggregate(
    kind: AggregateKind,
    column: &str,
    values: &[i64],
) -> Result<AggregateValue, ClientError> {
    let total = || values.iter().map(|&v| i128::from(v)).sum::<i128>();
    Ok(match kind {
        AggregateKind::Count => AggregateValue::Count(values.len() as u64),
        AggregateKind::Sum => {
            AggregateValue::Sum(
                i64::try_from(total()).map_err(|_| ClientError::SumOverflow {
                    column: column.to_string(),
                })?,
            )
        }
        AggregateKind::Min => AggregateValue::Min(values.iter().min().copied()),
        AggregateKind::Max => AggregateValue::Max(values.iter().max().copied()),
        AggregateKind::Avg => {
            AggregateValue::Avg((!values.is_empty()).then(|| total() as f64 / values.len() as f64))
        }
    })
}

/// Supported verified aggregates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggregateKind {
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

/// Aggregate results (Min/Max/Avg are `None` over empty inputs).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AggregateValue {
    Count(u64),
    Sum(i64),
    Min(Option<i64>),
    Max(Option<i64>),
    Avg(Option<f64>),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::owner::Owner;
    use crate::scheme::SchemeConfig;
    use adp_relation::{Column, CompareOp, Predicate, Schema, Table, ValueType};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::OnceLock;

    fn owner() -> &'static Owner {
        static OWNER: OnceLock<Owner> = OnceLock::new();
        OWNER.get_or_init(|| {
            let mut rng = StdRng::seed_from_u64(0xC11E);
            Owner::new(512, &mut rng)
        })
    }

    fn setup() -> (crate::owner::SignedTable, Certificate) {
        setup_rows(20)
    }

    /// `rows` ledger rows `(10i + 5, 100i, even|odd)`.
    fn setup_rows(rows: i64) -> (crate::owner::SignedTable, Certificate) {
        let schema = Schema::new(
            vec![
                Column::new("k", ValueType::Int),
                Column::new("amount", ValueType::Int),
                Column::new("tag", ValueType::Text),
            ],
            "k",
        );
        let mut t = Table::new("ledger", schema);
        for i in 0..rows {
            t.insert(adp_relation::Record::new(vec![
                Value::Int(i * 10 + 5),
                Value::Int(i * 100),
                Value::from(if i % 2 == 0 { "even" } else { "odd" }),
            ]))
            .unwrap();
        }
        let st = owner()
            .sign_table(
                t,
                crate::domain::Domain::new(0, 1_000.max(10 * rows + 100)),
                SchemeConfig::default(),
            )
            .unwrap();
        let cert = owner().certificate(&st);
        (st, cert)
    }

    #[test]
    fn select_accumulates_stats() {
        let (st, cert) = setup();
        let mut client = Client::new(cert);
        let publisher = Publisher::new(&st);
        let q = SelectQuery::range(KeyRange::closed(0, 100));
        let r1 = client.select(&publisher, &q).unwrap();
        assert_eq!(r1.rows.len(), 10);
        let _ = client.select(&publisher, &q).unwrap();
        let stats = client.stats();
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.rows_verified, 20);
        assert!(stats.vo_bytes > 0 && stats.result_bytes > 0);
        assert!(stats.hash_ops > 0);
        assert!(stats.traffic_overhead_pct() > 0.0);
    }

    /// A table whose full-range answer is well above the verifier's split
    /// point, so its verification is fanned out over helper threads.
    const SPLIT_ROWS: i64 = 640;

    #[test]
    fn concurrent_sessions_count_only_their_own_hashes() {
        // A 10-row answer verified on the calling thread, and a 640-row one
        // whose hashes are partly done by helpers.
        for (rows, range, rounds) in [
            (20, KeyRange::closed(0, 100), 40),
            (SPLIT_ROWS, KeyRange::all(), 6),
        ] {
            let (st, cert) = setup_rows(rows);
            let q = SelectQuery::range(range);
            let (rows, vo) = Publisher::new(&st).answer_select(&q).unwrap();
            let (result, vo) = (wire::encode_records(&rows), wire::encode_vo(&vo));
            let verify = |stats: &mut SessionStats| {
                stats.verify_select(&cert, &q, &result, &vo).unwrap();
            };
            let mut alone = SessionStats::default();
            verify(&mut alone);
            assert!(alone.hash_ops > 0);

            // Two sessions verifying the same answer at the same time,
            // released together, each long enough to overlap the other.
            let start = std::sync::Barrier::new(2);
            let session = || {
                let mut stats = SessionStats::default();
                start.wait();
                (0..rounds).for_each(|_| verify(&mut stats));
                stats
            };
            let (a, b) = std::thread::scope(|s| {
                let other = s.spawn(session);
                (session(), other.join().unwrap())
            });
            assert_eq!(a.hash_ops, rounds * alone.hash_ops, "{} rows", rows.len());
            assert_eq!(b.hash_ops, rounds * alone.hash_ops, "{} rows", rows.len());
        }
    }

    #[test]
    fn a_split_answer_counts_the_hashes_of_a_one_worker_run() {
        let (st, cert) = setup_rows(SPLIT_ROWS);
        let q = SelectQuery::range(KeyRange::all());
        let (rows, vo) = Publisher::new(&st).answer_select(&q).unwrap();
        let hashes_on = |workers| {
            let before = adp_crypto::thread_hash_ops();
            crate::verifier::verify_select_with(&cert, &q, &rows, &vo, workers).unwrap();
            adp_crypto::thread_hash_ops() - before
        };
        let one_worker = hashes_on(1);
        assert_eq!(hashes_on(4), one_worker);

        let mut stats = SessionStats::default();
        let (result, vo) = (wire::encode_records(&rows), wire::encode_vo(&vo));
        stats.verify_select(&cert, &q, &result, &vo).unwrap();
        assert_eq!(stats.rows_verified, SPLIT_ROWS as usize);
        assert_eq!(stats.hash_ops, one_worker);
    }

    #[test]
    fn select_ne_partitions_the_domain() {
        let (st, cert) = setup();
        let mut client = Client::new(cert);
        let publisher = Publisher::new(&st);
        // K != 105 over the full table: every row except k = 105.
        let template = SelectQuery::range(KeyRange::all());
        let r = client.select_ne(&publisher, 105, &template).unwrap();
        assert_eq!(r.rows.len(), 19);
        assert!(r.rows.iter().all(|row| row.get(0).as_int() != Some(105)));
        // Both halves were separately proven complete.
        assert_eq!(client.stats().queries, 2);
    }

    #[test]
    fn select_ne_on_missing_value_returns_all() {
        let (st, cert) = setup();
        let mut client = Client::new(cert);
        let publisher = Publisher::new(&st);
        let template = SelectQuery::range(KeyRange::all());
        let r = client.select_ne(&publisher, 107, &template).unwrap();
        assert_eq!(r.rows.len(), 20);
    }

    #[test]
    fn verified_aggregates() {
        let (st, cert) = setup();
        let mut client = Client::new(cert);
        let publisher = Publisher::new(&st);
        let q = SelectQuery::range(KeyRange::closed(0, 100));
        // Rows k=5..95: amounts 0,100,…,900.
        assert_eq!(
            client
                .aggregate(&publisher, &q, "amount", AggregateKind::Count)
                .unwrap(),
            AggregateValue::Count(10)
        );
        assert_eq!(
            client
                .aggregate(&publisher, &q, "amount", AggregateKind::Sum)
                .unwrap(),
            AggregateValue::Sum(4_500)
        );
        assert_eq!(
            client
                .aggregate(&publisher, &q, "amount", AggregateKind::Min)
                .unwrap(),
            AggregateValue::Min(Some(0))
        );
        assert_eq!(
            client
                .aggregate(&publisher, &q, "amount", AggregateKind::Max)
                .unwrap(),
            AggregateValue::Max(Some(900))
        );
        assert_eq!(
            client
                .aggregate(&publisher, &q, "amount", AggregateKind::Avg)
                .unwrap(),
            AggregateValue::Avg(Some(450.0))
        );
    }

    #[test]
    fn aggregate_over_empty_range() {
        let (st, cert) = setup();
        let mut client = Client::new(cert);
        let publisher = Publisher::new(&st);
        let q = SelectQuery::range(KeyRange::closed(996, 998));
        assert_eq!(
            client
                .aggregate(&publisher, &q, "amount", AggregateKind::Sum)
                .unwrap(),
            AggregateValue::Sum(0)
        );
        assert_eq!(
            client
                .aggregate(&publisher, &q, "amount", AggregateKind::Avg)
                .unwrap(),
            AggregateValue::Avg(None)
        );
    }

    #[test]
    fn verified_sum_overflow_is_an_error_not_a_wrong_total() {
        let schema = Schema::new(
            vec![
                Column::new("k", ValueType::Int),
                Column::new("amount", ValueType::Int),
            ],
            "k",
        );
        let mut t = Table::new("big", schema);
        for k in [5, 15] {
            t.insert(adp_relation::Record::new(vec![
                Value::Int(k),
                Value::Int(i64::MAX),
            ]))
            .unwrap();
        }
        let st = owner()
            .sign_table(
                t,
                crate::domain::Domain::new(0, 1_000),
                SchemeConfig::default(),
            )
            .unwrap();
        let mut client = Client::new(owner().certificate(&st));
        let publisher = Publisher::new(&st);
        let q = SelectQuery::range(KeyRange::all());
        assert_eq!(
            client.aggregate(&publisher, &q, "amount", AggregateKind::Sum),
            Err(ClientError::SumOverflow {
                column: "amount".to_string()
            })
        );
        assert_eq!(
            client
                .aggregate(&publisher, &q, "amount", AggregateKind::Avg)
                .unwrap(),
            AggregateValue::Avg(Some(i64::MAX as f64))
        );
        assert_eq!(
            client
                .aggregate(&publisher, &q, "amount", AggregateKind::Max)
                .unwrap(),
            AggregateValue::Max(Some(i64::MAX))
        );
    }

    #[test]
    fn aggregate_with_filters_and_projection() {
        let (st, cert) = setup();
        let mut client = Client::new(cert);
        let publisher = Publisher::new(&st);
        let q = SelectQuery::range(KeyRange::all())
            .filter(Predicate::new("tag", CompareOp::Eq, "even"))
            .project(&["k"]);
        // Even rows: amounts 0,200,…,1800 → sum 9000.
        assert_eq!(
            client
                .aggregate(&publisher, &q, "amount", AggregateKind::Sum)
                .unwrap(),
            AggregateValue::Sum(9_000)
        );
    }

    #[test]
    fn aggregate_rejects_non_numeric() {
        let (st, cert) = setup();
        let mut client = Client::new(cert);
        let publisher = Publisher::new(&st);
        let q = SelectQuery::range(KeyRange::all());
        assert!(matches!(
            client.aggregate(&publisher, &q, "tag", AggregateKind::Sum),
            Err(ClientError::NonNumericColumn { .. })
        ));
        assert!(matches!(
            client.aggregate(&publisher, &q, "nope", AggregateKind::Sum),
            Err(ClientError::BadAggregateColumn { .. })
        ));
    }

    #[test]
    fn tampered_answer_surfaces_as_client_error() {
        // A Client over a mismatched certificate refuses results.
        let (st, _) = setup();
        let mut rng = StdRng::seed_from_u64(0xBAD);
        let other = Owner::new(512, &mut rng);
        let other_st = {
            let schema = Schema::new(vec![Column::new("k", ValueType::Int)], "k");
            let t = Table::new("ledger", schema);
            other
                .sign_table(
                    t,
                    crate::domain::Domain::new(0, 1_000),
                    SchemeConfig::default(),
                )
                .unwrap()
        };
        let mut client = Client::new(other.certificate(&other_st));
        let publisher = Publisher::new(&st);
        let q = SelectQuery::range(KeyRange::closed(0, 100));
        assert!(matches!(
            client.select(&publisher, &q),
            Err(ClientError::Verify(_))
        ));
    }
}
