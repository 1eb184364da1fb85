//! The user side of the wire: a raw frame client and the
//! [`RemoteVerifier`], which runs the *unchanged* `adp-core` verifier
//! against answers arriving through a live socket.
//!
//! The trust model is identical to the in-process path: the verifier
//! trusts only the owner's [`Certificate`] (obtained out of band over an
//! authenticated channel) and treats every byte the server sends —
//! result, VO, even frame structure — as adversarial.

use crate::link::{unexpected_reply, Link, ReplyError};
use crate::protocol::{BatchItem, DeltaPiece, ErrorCode, Frame, ProtoError, StatsSnapshot};
use crate::retry::RetryPolicy;
use adp_core::client::{SessionStats, VerifiedResult};
use adp_core::errors::VerifyError;
use adp_core::owner::Certificate;
use adp_core::passes::{Planned, Planner};
use adp_core::plan::{Catalog, CatalogTable, SqlRows, WirePlan};
use adp_core::sql::parse;
use adp_relation::{KeyRange, Record, SelectQuery};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::io;
use std::net::ToSocketAddrs;
use std::time::Duration;

/// Why a remote call failed.
#[derive(Debug)]
pub enum RemoteError {
    /// Transport or framing failure.
    Proto(ProtoError),
    /// The server answered with an error frame (or batch error item).
    Server {
        /// Error code from the server.
        code: ErrorCode,
        /// Server-provided detail.
        message: String,
    },
    /// The server answered with a frame of the wrong type.
    UnexpectedFrame(&'static str),
    /// The answer arrived but failed verification — from the user's point
    /// of view, the publisher is cheating (or serving a different table).
    Verify(VerifyError),
    /// The SQL text could not be parsed or planned client-side (nothing
    /// was sent to the server).
    Sql(String),
}

impl fmt::Display for RemoteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RemoteError::Proto(e) => write!(f, "protocol error: {e}"),
            RemoteError::Server { code, message } => {
                write!(f, "server error ({code}): {message}")
            }
            RemoteError::UnexpectedFrame(detail) => {
                write!(f, "unexpected reply frame: {detail}")
            }
            RemoteError::Verify(e) => write!(f, "verification failed: {e}"),
            RemoteError::Sql(e) => write!(f, "sql error: {e}"),
        }
    }
}

impl RemoteError {
    /// Whether retrying the operation (after reconnecting) could succeed.
    ///
    /// Transport failures and framing desyncs are retryable: they say
    /// nothing about the answer, only about its delivery. A server error
    /// frame or a verification failure is **fatal** — the peer answered,
    /// and the answer was a refusal or a forgery; asking again cannot
    /// make it true. The one exception is a server-reported
    /// [`ErrorCode::BadFrame`]: it means the server could not even parse
    /// what arrived, which is transport damage seen from the other side —
    /// a fresh connection re-sends the bytes intact. The self-healing
    /// clients retry only on this predicate, and only for operations that
    /// are idempotent to repeat.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            RemoteError::Proto(_)
                | RemoteError::UnexpectedFrame(_)
                | RemoteError::Server {
                    code: ErrorCode::BadFrame,
                    ..
                }
        )
    }
}

impl std::error::Error for RemoteError {}

impl ReplyError for RemoteError {
    fn refused(code: ErrorCode, message: String) -> Self {
        RemoteError::Server { code, message }
    }

    fn unexpected(expected: &'static str) -> Self {
        RemoteError::UnexpectedFrame(expected)
    }
}

impl From<ProtoError> for RemoteError {
    fn from(e: ProtoError) -> Self {
        RemoteError::Proto(e)
    }
}

impl From<io::Error> for RemoteError {
    fn from(e: io::Error) -> Self {
        RemoteError::Proto(ProtoError::Io(e))
    }
}

impl From<VerifyError> for RemoteError {
    fn from(e: VerifyError) -> Self {
        RemoteError::Verify(e)
    }
}

/// Default patience for a server reply before the client gives up (the
/// server is untrusted — it must not be able to pin a client forever by
/// accepting and then stalling).
pub const DEFAULT_REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// A raw frame-level client: one TCP connection, synchronous round-trips.
///
/// With a [`RetryPolicy`] mounted ([`RemoteClient::set_retry_policy`]),
/// every **idempotent** call — `ping`, `stats`, `query_raw`,
/// `query_batch_raw` — transparently reconnects and retries on
/// [retryable](RemoteError::is_retryable) failures, with the policy's
/// capped, jittered backoff between attempts. A retried query may execute
/// twice on the server, which is why only reads get the loop; fatal
/// errors (server refusals, verification failures upstack) never retry.
pub struct RemoteClient {
    link: Link,
    retry: RetryPolicy,
    retries: u64,
    reconnects: u64,
}

impl RemoteClient {
    /// Connects to a publisher server. Reads and writes time out after
    /// [`DEFAULT_REPLY_TIMEOUT`]; adjust with [`RemoteClient::set_timeout`].
    /// No retries until a policy is mounted.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Ok(RemoteClient {
            link: Link::connect(addr, Some(DEFAULT_REPLY_TIMEOUT))?,
            retry: RetryPolicy::none(),
            retries: 0,
            reconnects: 0,
        })
    }

    /// Sets the per-operation socket timeout (`None` waits forever).
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.link.set_timeout(timeout)
    }

    /// Mounts a retry policy for the idempotent calls.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) -> &mut Self {
        self.retry = policy;
        self
    }

    /// Retries performed so far (each is one extra request attempt).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Successful reconnections performed so far.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// A round-trip for an idempotent request under the retry policy:
    /// each retry reconnects first (a failed reconnect burns budget). The
    /// request must be safe to execute more than once server-side.
    fn call(&mut self, request: &Frame) -> Result<Frame, RemoteError> {
        self.retry.run(RemoteError::is_retryable, |attempt| {
            if attempt > 0 {
                self.retries += 1;
                self.link.reconnect()?;
                self.reconnects += 1;
            }
            Ok(self.link.call(request)?)
        })
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), RemoteError> {
        match self.call(&Frame::Ping)? {
            Frame::Pong => Ok(()),
            other => Err(unexpected_reply(other, "expected Pong")),
        }
    }

    /// Fetches the server's counters (including VO cache hits/misses).
    pub fn stats(&mut self) -> Result<StatsSnapshot, RemoteError> {
        match self.call(&Frame::StatsRequest)? {
            Frame::StatsResponse(s) => Ok(s),
            other => Err(unexpected_reply(other, "expected StatsResponse")),
        }
    }

    /// Answers one query, returning the *unverified* encoded
    /// `(result, vo)` blobs. Use [`RemoteVerifier`] unless you are
    /// measuring or proxying.
    pub fn query_raw(
        &mut self,
        table_id: u32,
        query: &SelectQuery,
    ) -> Result<(Vec<u8>, Vec<u8>), RemoteError> {
        self.query_blobs(&Frame::QueryRequest {
            table_id,
            query: query.clone(),
        })
    }

    /// Executes a planned query (v6 `PlannedQuery` frame), returning the
    /// *unverified* encoded `(result, vo)` blobs. Use [`SqlSession`]
    /// unless you are measuring or proxying.
    pub fn query_planned_raw(
        &mut self,
        plan: &WirePlan,
    ) -> Result<(Vec<u8>, Vec<u8>), RemoteError> {
        self.query_blobs(&Frame::PlannedQuery { plan: plan.clone() })
    }

    /// One query round-trip: `QueryRequest` must be answered by
    /// `QueryResponse`, `PlannedQuery` by `PlannedResponse` — the same two
    /// blobs either way.
    fn query_blobs(&mut self, request: &Frame) -> Result<(Vec<u8>, Vec<u8>), RemoteError> {
        match (request, self.call(request)?) {
            (Frame::QueryRequest { .. }, Frame::QueryResponse { result, vo })
            | (Frame::PlannedQuery { .. }, Frame::PlannedResponse { result, vo }) => {
                Ok((result, vo))
            }
            (_, other) => Err(unexpected_reply(
                other,
                "expected the response frame matching the query frame",
            )),
        }
    }

    /// Answers N queries in one round-trip. Outcomes come back in request
    /// order; per-item failures do not fail the batch.
    #[allow(clippy::type_complexity)]
    pub fn query_batch_raw(
        &mut self,
        items: &[(u32, SelectQuery)],
    ) -> Result<Vec<Result<(Vec<u8>, Vec<u8>), (ErrorCode, String)>>, RemoteError> {
        let request = Frame::BatchRequest {
            items: items.to_vec(),
        };
        match self.call(&request)? {
            Frame::BatchResponse { items: replies } => {
                if replies.len() != items.len() {
                    return Err(RemoteError::UnexpectedFrame("batch length mismatch"));
                }
                Ok(replies
                    .into_iter()
                    .map(|item| match item {
                        BatchItem::Ok { result, vo } => Ok((result, vo)),
                        BatchItem::Err { code, message } => Err((code, message)),
                    })
                    .collect())
            }
            other => Err(unexpected_reply(other, "expected BatchResponse")),
        }
    }
}

/// A verifying client bound to one served table: the remote counterpart of
/// `adp_core::client::Client`. Every answer is checked with
/// `verify_select_wire` before it is returned, so a cheating or buggy
/// server surfaces as [`RemoteError::Verify`], never as wrong data.
pub struct RemoteVerifier {
    client: RemoteClient,
    cert: Certificate,
    table_id: u32,
    stats: SessionStats,
}

impl RemoteVerifier {
    /// Wraps an existing connection. Warms the certificate key's Montgomery
    /// context so the first verification doesn't pay the one-time setup.
    pub fn new(client: RemoteClient, cert: Certificate, table_id: u32) -> Self {
        cert.public_key.precompute();
        RemoteVerifier {
            client,
            cert,
            table_id,
            stats: SessionStats::default(),
        }
    }

    /// Connects and binds to `table_id` under the given certificate.
    pub fn connect(addr: impl ToSocketAddrs, cert: Certificate, table_id: u32) -> io::Result<Self> {
        Ok(Self::new(RemoteClient::connect(addr)?, cert, table_id))
    }

    /// The certificate in use.
    pub fn certificate(&self) -> &Certificate {
        &self.cert
    }

    /// Cumulative session statistics (same accounting as the in-process
    /// client: bytes, signatures, hash operations, verification time).
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Direct access to the underlying frame client (for `ping`/`stats`).
    pub fn client_mut(&mut self) -> &mut RemoteClient {
        &mut self.client
    }

    /// Issues `query`, verifies the answer against the certificate, and
    /// accounts for it. The publisher is never trusted: a forged or
    /// tampered answer returns [`RemoteError::Verify`].
    pub fn select(&mut self, query: &SelectQuery) -> Result<VerifiedResult, RemoteError> {
        Ok(self.select_with_bytes(query)?.0)
    }

    /// Like [`RemoteVerifier::select`], additionally returning the
    /// *verified* encoded `(result, vo)` blobs exactly as they came off
    /// the wire — e.g. to persist an answer for later offline
    /// re-verification (`adp rquery --out` / `adp verify`).
    #[allow(clippy::type_complexity)]
    pub fn select_with_bytes(
        &mut self,
        query: &SelectQuery,
    ) -> Result<(VerifiedResult, Vec<u8>, Vec<u8>), RemoteError> {
        let (result_bytes, vo_bytes) = self.client.query_raw(self.table_id, query)?;
        let verified = self
            .stats
            .verify_select(&self.cert, query, &result_bytes, &vo_bytes)?;
        Ok((verified, result_bytes, vo_bytes))
    }

    /// Issues a batch of queries in one round-trip and verifies every
    /// answer. Fails on the first item the server errored or that fails
    /// verification.
    pub fn select_batch(
        &mut self,
        queries: &[SelectQuery],
    ) -> Result<Vec<VerifiedResult>, RemoteError> {
        let items: Vec<(u32, SelectQuery)> =
            queries.iter().map(|q| (self.table_id, q.clone())).collect();
        let replies = self.client.query_batch_raw(&items)?;
        queries
            .iter()
            .zip(replies)
            .map(|(query, reply)| {
                let (result_bytes, vo_bytes) =
                    reply.map_err(|(code, message)| RemoteError::Server { code, message })?;
                Ok(self
                    .stats
                    .verify_select(&self.cert, query, &result_bytes, &vo_bytes)?)
            })
            .collect()
    }
}

/// The verified outcome of one `query_sql` round-trip.
#[derive(Clone, Debug)]
pub struct SqlOutcome {
    /// Finished output: verified rows after client-side residue, plus the
    /// aggregate value if the statement asked for one.
    pub output: SqlRows,
    /// The full planning record: naive vs chosen plan, their costs, and
    /// the passes that produced the winner (EXPLAIN material).
    pub planned: Planned,
    /// Encoded result bytes that crossed the wire.
    pub result_bytes: usize,
    /// Encoded VO bytes that crossed the wire.
    pub vo_bytes: usize,
    /// Rows covered by the verified proof (before residual filtering).
    pub rows_verified: usize,
    /// Signatures checked during verification.
    pub signatures_verified: usize,
    /// Wall-clock verification time.
    pub verify_time: Duration,
}

/// A verifying SQL client over one connection and any number of served
/// tables: the remote face of the `adp-core` SQL frontend.
///
/// Register each table's owner certificate (with a row estimate for the
/// cost model) and any declared referential integrity, then
/// [`SqlSession::query_sql`]: the statement is parsed and planned
/// locally, the **cheapest-proof** plan goes to the server as a v6
/// `PlannedQuery` frame, and the multi-relation VO that comes back is
/// verified against the certificates alone — the server is untrusted
/// end to end, exactly as with [`RemoteVerifier`].
pub struct SqlSession {
    client: RemoteClient,
    catalog: Catalog,
    certs: HashMap<u32, Certificate>,
    planner: Planner,
    stats: SessionStats,
}

impl SqlSession {
    /// Wraps an existing connection; no tables yet.
    pub fn new(client: RemoteClient) -> Self {
        SqlSession {
            client,
            catalog: Catalog::new(),
            certs: HashMap::new(),
            planner: Planner::default(),
            stats: SessionStats::default(),
        }
    }

    /// Connects with no tables registered.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Ok(Self::new(RemoteClient::connect(addr)?))
    }

    /// Registers a served table under its wire id: the certificate is what
    /// answers verify against; `rows` is the cost model's cardinality
    /// estimate (it affects plan choice, never soundness).
    pub fn add_table(&mut self, table_id: u32, cert: Certificate, rows: u64) -> &mut Self {
        cert.public_key.precompute();
        self.catalog
            .add(CatalogTable::from_certificate(table_id, &cert, rows));
        self.certs.insert(table_id, cert);
        self
    }

    /// Declares `from`'s sort key a foreign key into `to`'s sort key
    /// (owner-attested referential integrity — what licenses the planner
    /// to orient a pk-fk join). Returns false if `from` is unregistered.
    pub fn declare_fk(&mut self, from: &str, to: &str) -> bool {
        self.catalog.declare_fk(from, to)
    }

    /// The planner's current catalog (for EXPLAIN tooling).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Direct access to the underlying frame client.
    pub fn client_mut(&mut self) -> &mut RemoteClient {
        &mut self.client
    }

    /// Cumulative verification accounting across `query_sql` calls.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Parses and plans a statement without executing it (EXPLAIN).
    pub fn plan(&self, sql: &str) -> Result<Planned, RemoteError> {
        let stmt = parse(sql).map_err(|e| RemoteError::Sql(e.to_string()))?;
        self.planner
            .plan(&stmt, &self.catalog)
            .map_err(|e| RemoteError::Sql(e.to_string()))
    }

    /// Parses, plans, executes, and verifies one SQL statement. A forged
    /// or tampered answer — on either relation of a join — surfaces as
    /// [`RemoteError::Verify`], never as wrong rows.
    pub fn query_sql(&mut self, sql: &str) -> Result<SqlOutcome, RemoteError> {
        let planned = self.plan(sql)?;
        let plan = &planned.chosen.wire;
        let (result_bytes, vo_bytes) = self.client.query_planned_raw(plan)?;
        let certs = &self.certs;
        let (verified, verify_time) =
            self.stats
                .verify_plan(plan, |id| certs.get(&id), &result_bytes, &vo_bytes)?;
        let output = planned
            .chosen
            .finish(verified.rows)
            .map_err(|e| RemoteError::Sql(e.to_string()))?;
        Ok(SqlOutcome {
            output,
            planned,
            result_bytes: result_bytes.len(),
            vo_bytes: vo_bytes.len(),
            rows_verified: verified.rows_verified,
            signatures_verified: verified.signatures_verified,
            verify_time,
        })
    }
}

/// A verified live subscription to one key range of a served table.
///
/// On registration the server answers with an initial [`Frame::DeltaVo`]
/// whose single piece proves the whole subscribed range; thereafter every
/// update batch touching the range pushes a delta whose pieces each carry
/// a self-contained `(result, vo)` proof for one dirtied sub-range. The
/// subscriber verifies every piece with the unchanged `verify_select_wire`
/// — completeness, authenticity, and precision against the owner's
/// certificate alone — and splices the verified rows into its local
/// mirror **without ever refetching the full range**: verification work
/// and bytes scale with what the batch dirtied, not with the subscription
/// size (the `O(k)` update locality of Section 6.3, carried to the wire).
pub struct RemoteSubscriber {
    link: Link,
    cert: Certificate,
    table_id: u32,
    sub_id: u32,
    retry: RetryPolicy,
    /// Subscribed bounds, domain-normalized exactly as the server
    /// normalizes them — any piece outside is a precision violation.
    lo: i64,
    hi: i64,
    /// The table epoch the mirror currently reflects.
    epoch: u64,
    /// The verified mirror: key → the verified records at that key (>1
    /// with duplicate-key replicas).
    rows: BTreeMap<i64, Vec<Record>>,
    /// Deltas verified and applied, counting the initial snapshot.
    deltas_applied: u64,
    /// Re-subscribes performed (after drops or `ResyncRequired`).
    reconnects: u64,
    /// `ResyncRequired` frames honored.
    resyncs: u64,
    stats: SessionStats,
}

impl RemoteSubscriber {
    /// Connects, registers subscription `sub_id` for `range` on
    /// `table_id`, and verifies the initial full-range proof. The server
    /// is untrusted throughout: a forged initial answer fails here.
    /// No self-healing until a policy is mounted
    /// ([`RemoteSubscriber::subscribe_with_retry`]).
    pub fn subscribe(
        addr: impl ToSocketAddrs,
        cert: Certificate,
        table_id: u32,
        sub_id: u32,
        range: KeyRange,
    ) -> Result<Self, RemoteError> {
        Self::subscribe_with_retry(addr, cert, table_id, sub_id, range, RetryPolicy::none())
    }

    /// [`RemoteSubscriber::subscribe`] with a [`RetryPolicy`]: the initial
    /// registration retries on retryable failures, and thereafter
    /// [`RemoteSubscriber::poll_delta`] self-heals — a dropped connection
    /// or a server [`Frame::ResyncRequired`] push triggers an automatic
    /// reconnect and re-subscribe, whose fresh baseline is verified
    /// against the certificate and must not be older than what the mirror
    /// already verified (a stale baseline is a replay and fails).
    pub fn subscribe_with_retry(
        addr: impl ToSocketAddrs,
        cert: Certificate,
        table_id: u32,
        sub_id: u32,
        range: KeyRange,
        retry: RetryPolicy,
    ) -> Result<Self, RemoteError> {
        cert.public_key.precompute();
        let Some(bounds) = cert.domain.normalize(&range) else {
            return Err(RemoteError::Server {
                code: ErrorCode::BadQuery,
                message: "subscribed range is empty under the table's domain".into(),
            });
        };
        let mut sub = RemoteSubscriber {
            link: Link::connect(addr, Some(DEFAULT_REPLY_TIMEOUT))?,
            cert,
            table_id,
            sub_id,
            retry,
            lo: bounds.alpha,
            hi: bounds.beta,
            epoch: 0,
            rows: BTreeMap::new(),
            deltas_applied: 0,
            reconnects: 0,
            resyncs: 0,
            stats: SessionStats::default(),
        };
        let retry = sub.retry.clone();
        retry.run(RemoteError::is_retryable, |attempt| {
            sub.subscribe_attempt(attempt, 0)
        })?;
        Ok(sub)
    }

    /// Sends `Subscribe` and verifies the whole-range baseline, which must
    /// carry an epoch no older than `min_epoch` nor than the mirror's. A
    /// retry (`attempt > 0`) first reconnects, and its baseline counts as
    /// a re-subscribe.
    fn subscribe_attempt(&mut self, attempt: u32, min_epoch: u64) -> Result<u64, RemoteError> {
        if attempt > 0 {
            self.link.reconnect()?;
        }
        let subscribe = Frame::Subscribe {
            sub_id: self.sub_id,
            table_id: self.table_id,
            query: SelectQuery::range(KeyRange::closed(self.lo, self.hi)),
        };
        match self.link.call(&subscribe)? {
            frame @ Frame::DeltaVo { .. } => {
                self.apply_delta_frame(frame, min_epoch.max(self.epoch))?;
                self.reconnects += u64::from(attempt > 0);
                Ok(self.epoch)
            }
            other => Err(unexpected_reply(other, "expected initial DeltaVo")),
        }
    }

    /// The epoch the mirror currently reflects.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Deltas verified and applied so far (the initial snapshot counts).
    pub fn deltas_applied(&self) -> u64 {
        self.deltas_applied
    }

    /// Re-subscribes performed (after drops or `ResyncRequired` pushes).
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Server `ResyncRequired` pushes honored with a fresh baseline.
    pub fn resyncs(&self) -> u64 {
        self.resyncs
    }

    /// Cumulative verification accounting (bytes, signatures, hash ops).
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// The verified mirror of the subscribed range, in key order.
    pub fn rows(&self) -> impl Iterator<Item = &Record> {
        self.rows.values().flatten()
    }

    /// Verified keys currently in the subscribed range, in order.
    pub fn keys(&self) -> Vec<i64> {
        self.rows.keys().copied().collect()
    }

    /// Waits up to `timeout` for a pushed delta, verifying and applying
    /// it. Returns the new epoch, or `None` if nothing arrived in time.
    ///
    /// The timeout covers frame *arrival*: it must only elapse while the
    /// connection is quiet (a server that stalls mid-frame desyncs the
    /// stream, and the next read errors — the server is untrusted, so
    /// that is treated like any other protocol failure).
    ///
    /// With a retry policy mounted, two failures self-heal instead of
    /// surfacing:
    ///
    /// * a **retryable** transport failure reconnects and re-subscribes
    ///   (the fresh verified baseline reflects every delta the drop may
    ///   have swallowed — no gap is possible);
    /// * a server [`Frame::ResyncRequired`] push (the delta for some
    ///   epoch could not be shipped) re-subscribes the same way, and the
    ///   fresh baseline must be at least that epoch.
    ///
    /// Both return `Ok(Some(epoch))` for the re-verified baseline. Fatal
    /// errors (server refusals, verification failures) still surface.
    pub fn poll_delta(&mut self, timeout: Duration) -> Result<Option<u64>, RemoteError> {
        let retry = self.retry.clone();
        let mut min_epoch = self.epoch;
        retry.run(RemoteError::is_retryable, |attempt| {
            if attempt > 0 {
                return self.subscribe_attempt(attempt, min_epoch).map(Some);
            }
            match self.link.recv_within(Some(timeout))? {
                None => Ok(None),
                Some(frame @ Frame::DeltaVo { .. }) => {
                    self.apply_delta_frame(frame, self.epoch)?;
                    Ok(Some(self.epoch))
                }
                // The server terminated the subscription without shipping
                // the delta for `epoch`. With no retry policy this is as
                // far as a dumb client gets; a self-healing one re-
                // subscribes for a baseline at least that fresh.
                Some(Frame::ResyncRequired { sub_id, epoch }) if sub_id == self.sub_id => {
                    self.resyncs += u64::from(retry.max_retries > 0);
                    min_epoch = epoch;
                    Err(RemoteError::UnexpectedFrame(
                        "server requires re-subscription (delta could not be shipped)",
                    ))
                }
                Some(other) => Err(unexpected_reply(other, "expected pushed DeltaVo")),
            }
        })
    }

    /// Cancels the subscription and drains the stream to the server's
    /// empty-pieces ack, verifying and applying any deltas that were
    /// already in flight. After the ack the server pushes nothing further
    /// for this `sub_id`.
    pub fn unsubscribe(mut self) -> Result<(), RemoteError> {
        let unsubscribe = Frame::Unsubscribe {
            sub_id: self.sub_id,
        };
        let mut reply = self.link.call(&unsubscribe)?;
        loop {
            match reply {
                Frame::DeltaVo { sub_id, pieces, .. }
                    if sub_id == self.sub_id && pieces.is_empty() =>
                {
                    return Ok(());
                }
                frame @ Frame::DeltaVo { .. } => self.apply_delta_frame(frame, self.epoch)?,
                Frame::ResyncRequired { sub_id, .. } if sub_id == self.sub_id => {
                    // The server already terminated the subscription on
                    // its own; the goal of unsubscribing is achieved.
                    return Ok(());
                }
                other => return Err(unexpected_reply(other, "expected unsubscribe ack")),
            }
            reply = self.link.recv()?;
        }
    }

    /// Verifies and applies one `DeltaVo` frame, whose epoch must be at
    /// least `floor`. A pushed delta's floor is the mirror's epoch (equal
    /// is the benign registration race — the same state verified twice —
    /// and re-merging is idempotent); lower would replay a table state
    /// older than one the mirror already verified, and is refused before
    /// it touches the mirror.
    fn apply_delta_frame(&mut self, frame: Frame, floor: u64) -> Result<(), RemoteError> {
        let Frame::DeltaVo {
            sub_id,
            epoch,
            pieces,
        } = frame
        else {
            return Err(RemoteError::UnexpectedFrame("expected DeltaVo"));
        };
        if sub_id != self.sub_id {
            return Err(RemoteError::UnexpectedFrame(
                "DeltaVo for a different sub_id",
            ));
        }
        if epoch < floor {
            return Err(RemoteError::UnexpectedFrame(
                "delta epoch is older than the verified mirror",
            ));
        }
        for piece in &pieces {
            self.apply_piece(piece)?;
        }
        self.epoch = epoch;
        self.deltas_applied += 1;
        Ok(())
    }

    /// Verifies one piece against the certificate and splices it into the
    /// mirror: everything previously held for `[lo, hi]` is replaced by
    /// the verified rows — completeness of the piece's proof is exactly
    /// what licenses deleting keys the piece no longer carries.
    fn apply_piece(&mut self, piece: &DeltaPiece) -> Result<(), RemoteError> {
        // Precision: a piece outside the subscribed range means the
        // server is pushing data we never asked to see (or trying to
        // overwrite mirror state it has no proof for).
        if piece.lo > piece.hi || piece.lo < self.lo || piece.hi > self.hi {
            return Err(RemoteError::UnexpectedFrame(
                "delta piece outside the subscribed range",
            ));
        }
        let query = SelectQuery::range(KeyRange::closed(piece.lo, piece.hi));
        let rows = self
            .stats
            .verify_select(&self.cert, &query, &piece.result, &piece.vo)?
            .rows;
        let stale: Vec<i64> = self
            .rows
            .range(piece.lo..=piece.hi)
            .map(|(k, _)| *k)
            .collect();
        for key in stale {
            self.rows.remove(&key);
        }
        for row in rows {
            let key = row.key(&self.cert.schema);
            self.rows.entry(key).or_default().push(row);
        }
        Ok(())
    }
}
