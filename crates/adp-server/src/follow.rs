//! The log-shipping follower: a second `adp-server` that mirrors an
//! owner's publisher over the wire with **zero trust in either side**.
//!
//! The follower bootstraps from a [`Frame::Snapshot`] — authenticated by
//! checking the embedded public key against the certificate it already
//! holds and re-running the full `O(n)` signature audit — then replays
//! the owner-signed update log shipped as [`Frame::LogSegment`]s. Every
//! replayed record passes through [`ServerHandle::apply_update`], whose
//! store verifies the batch's re-signed chain signatures before anything
//! is persisted or served: a tampered record (flipped signature byte,
//! reordered or dropped mutation) is rejected *before* the follower's
//! epoch bumps, so its own subscribers never see the forgery. The mirror
//! converges to the owner's exact snapshot — same chain, same signatures
//! — and answers queries whose VOs verify against the owner's public key,
//! exactly as the paper's multi-publisher story requires (Section 1: any
//! number of untrusted mirrors, one signing owner).

use crate::client::DEFAULT_REPLY_TIMEOUT;
use crate::link::{unexpected_reply, Link, ReplyError};
use crate::protocol::{ErrorCode, Frame, ProtoError};
use crate::retry::RetryPolicy;
use crate::server::{ServerHandle, UpdateError};
use adp_crypto::PublicKey;
use adp_store::format::decode_snapshot;
use adp_store::log::decode_records;
use adp_store::{Store, StoreError};
use std::fmt;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::Path;
use std::time::Duration;

/// Why following failed.
#[derive(Debug)]
pub enum FollowError {
    /// Transport or framing failure.
    Proto(ProtoError),
    /// The upstream answered with an error frame.
    Server {
        /// Error code from the upstream.
        code: ErrorCode,
        /// Upstream-provided detail.
        message: String,
    },
    /// The upstream answered with a frame of the wrong type (or for the
    /// wrong table).
    UnexpectedFrame(&'static str),
    /// The bootstrap snapshot's public key is not the owner's: the
    /// upstream is serving a different (or forged) table.
    KeyMismatch,
    /// The bootstrap snapshot failed the full signature audit: the
    /// upstream shipped data it cannot prove.
    AuditFailed,
    /// A shipped record skipped ahead of the mirror's sequence — records
    /// were dropped or reordered in flight. Reconnect and resume from
    /// `expected` (the [`FollowError::Gap::expected`] value is exactly the
    /// `have` to hand [`LogFollower::connect`]).
    Gap {
        /// The sequence the mirror needs next.
        expected: u64,
        /// The sequence that actually arrived.
        got: u64,
    },
    /// The upstream re-sent a snapshot mid-stream (its log was compacted
    /// past our position); the mirror must re-bootstrap from scratch.
    ResyncRequired,
    /// The local mirror store refused the data (decode failure, CRC
    /// mismatch, or — the important case — signature verification failure
    /// on a tampered record).
    Store(StoreError),
    /// The local serving handle refused the replayed batch.
    Update(UpdateError),
}

impl fmt::Display for FollowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FollowError::Proto(e) => write!(f, "protocol error: {e}"),
            FollowError::Server { code, message } => {
                write!(f, "upstream error ({code}): {message}")
            }
            FollowError::UnexpectedFrame(detail) => write!(f, "unexpected frame: {detail}"),
            FollowError::KeyMismatch => {
                write!(
                    f,
                    "bootstrap snapshot is not signed by the expected owner key"
                )
            }
            FollowError::AuditFailed => {
                write!(f, "bootstrap snapshot failed the signature audit")
            }
            FollowError::Gap { expected, got } => {
                write!(f, "log gap: expected seq {expected}, got {got}")
            }
            FollowError::ResyncRequired => {
                write!(
                    f,
                    "upstream compacted past our position; re-bootstrap required"
                )
            }
            FollowError::Store(e) => write!(f, "mirror store rejected the data: {e}"),
            FollowError::Update(e) => write!(f, "mirror refused the replayed batch: {e}"),
        }
    }
}

impl FollowError {
    /// Whether reconnecting (and resuming from the mirror's own cursor)
    /// could fix this. Transport failures, framing desyncs, gaps,
    /// compaction resyncs, and an upstream-reported `BadFrame` (the
    /// upstream could not parse what arrived — transport damage seen
    /// from the other side) are all cured by a fresh `FollowLog`
    /// handshake; a key mismatch, failed audit, or store rejection is
    /// **fatal** — the data itself is wrong, and fetching it again
    /// cannot help.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            FollowError::Proto(_)
                | FollowError::UnexpectedFrame(_)
                | FollowError::Gap { .. }
                | FollowError::ResyncRequired
                | FollowError::Server {
                    code: ErrorCode::BadFrame,
                    ..
                }
        )
    }
}

impl std::error::Error for FollowError {}

impl ReplyError for FollowError {
    fn refused(code: ErrorCode, message: String) -> Self {
        FollowError::Server { code, message }
    }

    fn unexpected(expected: &'static str) -> Self {
        FollowError::UnexpectedFrame(expected)
    }
}

impl From<ProtoError> for FollowError {
    fn from(e: ProtoError) -> Self {
        FollowError::Proto(e)
    }
}

impl From<io::Error> for FollowError {
    fn from(e: io::Error) -> Self {
        FollowError::Proto(ProtoError::Io(e))
    }
}

impl From<StoreError> for FollowError {
    fn from(e: StoreError) -> Self {
        FollowError::Store(e)
    }
}

impl From<UpdateError> for FollowError {
    fn from(e: UpdateError) -> Self {
        FollowError::Update(e)
    }
}

/// What the [`LogFollower::connect`] handshake produced.
pub enum FollowStart {
    /// The resume point was accepted: the backlog of framed log records
    /// from `have` to the upstream's head (empty when fully caught up).
    /// Apply it with [`apply_segment`], then stream live segments.
    Backlog(Vec<u8>),
    /// A full bootstrap snapshot: either `have` was `None`, or the
    /// upstream compacted its log past `have`. Authenticate and persist
    /// it with [`bootstrap_store`].
    Snapshot(Vec<u8>),
}

/// One follower connection to an upstream publisher: the handshake plus a
/// blocking stream of [`Frame::LogSegment`]s.
pub struct LogFollower {
    link: Link,
    table_id: u32,
}

impl LogFollower {
    /// Connects and performs the `FollowLog` handshake. `have` is the
    /// lowest log sequence the mirror still needs (its store's
    /// `next_seq`), or `None` for a fresh bootstrap.
    pub fn connect(
        addr: impl ToSocketAddrs,
        table_id: u32,
        have: Option<u64>,
    ) -> Result<(LogFollower, FollowStart), FollowError> {
        Self::handshake(
            Link::connect(addr, Some(DEFAULT_REPLY_TIMEOUT))?,
            table_id,
            have,
        )
    }

    /// The `FollowLog` handshake on a fresh link, whose timeout bounds the
    /// wait for the `LogSegment`/`Snapshot` reply.
    fn handshake(
        mut link: Link,
        table_id: u32,
        have: Option<u64>,
    ) -> Result<(LogFollower, FollowStart), FollowError> {
        let start = match link.call(&Frame::FollowLog { table_id, have })? {
            Frame::LogSegment {
                table_id: tid,
                records,
            } if tid == table_id => FollowStart::Backlog(records),
            Frame::Snapshot {
                table_id: tid,
                snapshot,
            } if tid == table_id => FollowStart::Snapshot(snapshot),
            other => {
                return Err(unexpected_reply(
                    other,
                    "expected LogSegment or Snapshot for the followed table",
                ))
            }
        };
        Ok((LogFollower { link, table_id }, start))
    }

    /// Sets the patience for the next live segment (`None` waits forever).
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.link.set_timeout(timeout)
    }

    /// Blocks for the next live [`Frame::LogSegment`], returning its
    /// framed records. A mid-stream [`Frame::Snapshot`] means the
    /// upstream can no longer serve our position:
    /// [`FollowError::ResyncRequired`].
    pub fn next_segment(&mut self) -> Result<Vec<u8>, FollowError> {
        let frame = self.link.recv()?;
        self.segment(frame)
    }

    fn segment(&self, frame: Frame) -> Result<Vec<u8>, FollowError> {
        match frame {
            Frame::LogSegment {
                table_id: tid,
                records,
            } if tid == self.table_id => Ok(records),
            Frame::Snapshot { .. } => Err(FollowError::ResyncRequired),
            other => Err(unexpected_reply(
                other,
                "expected LogSegment for the followed table",
            )),
        }
    }
}

/// What [`ResilientFollower::next_event`] produced.
pub enum FollowEvent {
    /// A fresh (re)connect's handshake answered with backlog from the
    /// `have` cursor: framed records to apply with [`apply_segment`].
    Backlog(Vec<u8>),
    /// A fresh (re)connect's handshake answered with a bootstrap snapshot
    /// (no cursor, or the upstream compacted past it): authenticate with
    /// [`bootstrap_store`].
    Snapshot(Vec<u8>),
    /// A live [`Frame::LogSegment`] on the established stream.
    Segment(Vec<u8>),
}

/// A self-healing [`LogFollower`]: owns the upstream address and a
/// [`RetryPolicy`], and transparently reconnects — resuming from the
/// caller's `have` cursor — whenever the connection drops, the stream
/// desyncs, records gap, or the upstream compacts past the cursor.
///
/// The caller drives a simple loop: every call to
/// [`ResilientFollower::next_event`] yields the next thing to apply, and
/// the caller reports back its new cursor on the next call. Security is
/// unchanged from [`LogFollower`]: reconnection re-fetches data, and
/// every byte still passes the same signature verification before the
/// mirror applies it — a flaky network can delay convergence, never
/// corrupt it.
pub struct ResilientFollower {
    addrs: Vec<SocketAddr>,
    table_id: u32,
    retry: RetryPolicy,
    conn: Option<LogFollower>,
    segment_timeout: Option<Duration>,
    handshake_timeout: Duration,
    /// Handshakes that succeeded: every one after the first is a
    /// reconnect.
    handshakes: u64,
}

impl ResilientFollower {
    /// Creates the follower (no connection yet; the first
    /// [`ResilientFollower::next_event`] connects).
    pub fn new(
        addr: impl ToSocketAddrs,
        table_id: u32,
        retry: RetryPolicy,
    ) -> io::Result<ResilientFollower> {
        Ok(ResilientFollower {
            addrs: addr.to_socket_addrs()?.collect(),
            table_id,
            retry,
            conn: None,
            segment_timeout: Some(DEFAULT_REPLY_TIMEOUT),
            handshake_timeout: DEFAULT_REPLY_TIMEOUT,
            handshakes: 0,
        })
    }

    /// Patience for each live segment before `next_event` returns a
    /// timeout error (`None` waits forever).
    pub fn set_segment_timeout(&mut self, timeout: Option<Duration>) {
        self.segment_timeout = timeout;
    }

    /// Patience for the reconnect handshake's reply. Keep this bounded
    /// (unlike the segment timeout, which may be `None`): a swallowed
    /// handshake reply should cost one backoff step, not the default
    /// thirty seconds.
    pub fn set_handshake_timeout(&mut self, timeout: Duration) {
        self.handshake_timeout = timeout;
    }

    /// Reconnections performed so far (the first connect is not one).
    pub fn reconnects(&self) -> u64 {
        self.handshakes.saturating_sub(1)
    }

    /// Drops the current connection; the next
    /// [`ResilientFollower::next_event`] performs a fresh handshake. Call
    /// after an error the *caller* detected (e.g. [`apply_segment`]
    /// returned a [`FollowError::Gap`]).
    pub fn reset(&mut self) {
        self.conn = None;
    }

    /// Produces the next event to apply, healing the connection as
    /// needed. `have` is the mirror's current cursor (its store's
    /// `next_seq`), or `None` before any bootstrap. Each call gets a
    /// fresh retry budget from the policy; exhausting it returns the last
    /// error, and a later call starts over.
    ///
    /// A read timeout (no segment arrived in the window) is returned as a
    /// [`FollowError::Proto`] I/O error with kind `TimedOut`; callers
    /// polling a quiet upstream should treat that as "no news", not as
    /// damage (the connection is kept).
    pub fn next_event(&mut self, have: Option<u64>) -> Result<FollowEvent, FollowError> {
        let retry = self.retry.clone();
        let event = retry.run(FollowError::is_retryable, |_| match self.conn.take() {
            // A quiet segment window is "no news", not damage: the
            // connection is kept. Any error drops it.
            Some(mut conn) => {
                let frame = conn.link.recv_within(self.segment_timeout)?;
                let records = frame.map(|frame| conn.segment(frame)).transpose()?;
                self.conn = Some(conn);
                Ok(records.map(FollowEvent::Segment))
            }
            // A handshake timing out is damage (the reply should be
            // prompt) and costs a retry.
            None => {
                let link = Link::connect(&self.addrs[..], Some(self.handshake_timeout))?;
                let (conn, start) = LogFollower::handshake(link, self.table_id, have)?;
                self.handshakes += 1;
                self.conn = Some(conn);
                Ok(Some(match start {
                    FollowStart::Backlog(records) => FollowEvent::Backlog(records),
                    FollowStart::Snapshot(snapshot) => FollowEvent::Snapshot(snapshot),
                }))
            }
        })?;
        event.ok_or_else(|| ProtoError::Io(io::ErrorKind::TimedOut.into()).into())
    }
}

/// Authenticates a bootstrap snapshot and persists it as a fresh mirror
/// store at `dir`. The snapshot is **untrusted input**: it is accepted
/// only if its embedded public key equals the owner key the mirror
/// already holds *and* the full signature chain audits — the upstream
/// cannot seed the mirror with anything the owner didn't sign.
pub fn bootstrap_store(
    dir: impl AsRef<Path>,
    snapshot: &[u8],
    expected_key: &PublicKey,
) -> Result<Store, FollowError> {
    let (st, base_seq) = decode_snapshot(snapshot)?;
    if st.public_key() != expected_key {
        return Err(FollowError::KeyMismatch);
    }
    if !st.audit() {
        return Err(FollowError::AuditFailed);
    }
    Ok(Store::create_at(dir, st, base_seq)?)
}

/// Applies one segment's framed log records to the mirror's serving
/// handle. Already-applied records (`seq` below the mirror's head) are
/// skipped idempotently — resume overlap is harmless; a record skipping
/// *ahead* is a [`FollowError::Gap`] and nothing past it is applied.
///
/// Every applied record goes through [`ServerHandle::apply_update`]:
/// signatures are verified against the mirror's own chain state before
/// the record is logged, the table swapped, or the epoch bumped, so a
/// tampered record leaves the mirror (and its subscribers) untouched.
/// Returns the mirror's new head sequence.
pub fn apply_segment(
    handle: &ServerHandle,
    table_id: u32,
    records: &[u8],
) -> Result<u64, FollowError> {
    // For store-backed tables the serving epoch *is* the store's
    // `next_seq`: `add_store` seeds it so and both advance in lockstep.
    let mut head = handle
        .table_epoch(table_id)
        .ok_or(FollowError::Update(UpdateError::UnknownTable(table_id)))?;
    for rec in decode_records(records)? {
        if rec.seq < head {
            continue;
        }
        if rec.seq > head {
            return Err(FollowError::Gap {
                expected: head,
                got: rec.seq,
            });
        }
        head = handle.apply_update(table_id, &rec.ops, &rec.resigned)?;
    }
    Ok(head)
}
