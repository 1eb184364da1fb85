//! The publisher wire protocol: length-prefixed frames layered on the
//! [`adp_core::wire`] codec.
//!
//! Every frame starts with an 8-byte header:
//!
//! ```text
//! offset  size  field
//! 0       2     magic  0xAD 0x50
//! 2       1     protocol version (currently 0x05)
//! 3       1     frame type
//! 4       4     payload length, u32 little-endian (max 64 MiB)
//! ```
//!
//! followed by `payload length` bytes encoded with the same primitives as
//! the VO codec (`u32` little-endian lengths, tagged unions, canonical
//! value encodings). The full byte-level specification with worked
//! examples lives in `docs/PROTOCOL.md`; the examples there are asserted
//! verbatim by `tests/protocol_doc_examples.rs`.
//!
//! Decoding is defensive on both sides: the server treats request bytes as
//! adversarial (bounds-checked lengths, tag validation, a hard payload
//! cap *checked before allocation*), and the client treats response bytes
//! the same way — a malicious publisher controls them.

use adp_core::plan::{decode_wire_plan, encode_wire_plan, WirePlan};
use adp_core::wire::{self, Reader, WireError, Writer};
use adp_relation::SelectQuery;
use std::fmt;
use std::io::{self, Read, Write};

/// The two magic bytes opening every frame.
pub const MAGIC: [u8; 2] = [0xAD, 0x50];

/// Protocol version spoken by this implementation. A server receiving any
/// other version byte answers with an [`ErrorCode::BadFrame`] error frame
/// and closes the connection.
///
/// Version history (see `docs/PROTOCOL.md` §9): `0x01` shipped seven
/// stats counters; `0x02` appended the `invalidations` counter to
/// `StatsResponse` (the VO cache is no longer static — live updates bump
/// per-table epochs and stale entries are dropped lazily); `0x03` added
/// the connection-lifecycle gauges (`open_connections`, `queue_depth`,
/// `idle_reaped`) that the event-driven server core exports; `0x04` added
/// verified subscriptions — the log-shipping frames (`FollowLog`,
/// `LogSegment`, `Snapshot`) that let a follower publisher mirror a
/// table over the wire, the client-facing `Subscribe`/`DeltaVO`/
/// `Unsubscribe` frames that push re-verifiable VO deltas on every epoch
/// bump, and the `subscriptions`/`deltas_pushed` stats fields; `0x05`
/// added the robustness layer — the `ResyncRequired` push (a subscriber
/// whose delta could not be shipped must re-subscribe for a fresh
/// baseline instead of silently stalling) and the
/// `reconnects`/`resyncs`/`drains` stats fields backing the self-healing
/// clients and graceful drain; `0x06` added planned queries — the
/// `PlannedQuery`/`PlannedResponse` frames that carry an optimizer-chosen
/// [`WirePlan`] (joins and narrowed scans the SQL planner produces) to
/// the server and its multi-relation VO back.
pub const VERSION: u8 = 0x06;

/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 8;

/// Hard cap on a frame's payload length, checked before any allocation.
pub const MAX_PAYLOAD: u32 = 1 << 26; // 64 MiB

/// Frame type bytes (header offset 3).
pub mod frame_type {
    /// Liveness probe.
    pub const PING: u8 = 0x01;
    /// Liveness reply.
    pub const PONG: u8 = 0x02;
    /// Single query request.
    pub const QUERY_REQUEST: u8 = 0x03;
    /// Single query answer.
    pub const QUERY_RESPONSE: u8 = 0x04;
    /// Batched query request (one round-trip, N answers).
    pub const BATCH_REQUEST: u8 = 0x05;
    /// Batched query answer.
    pub const BATCH_RESPONSE: u8 = 0x06;
    /// Server statistics request.
    pub const STATS_REQUEST: u8 = 0x07;
    /// Server statistics snapshot.
    pub const STATS_RESPONSE: u8 = 0x08;
    /// Error reply.
    pub const ERROR: u8 = 0x09;
    /// Follower handshake: start shipping a table's update log. New in
    /// version 4.
    pub const FOLLOW_LOG: u8 = 0x0A;
    /// A run of signed update-log records (handshake backlog or live
    /// push). New in version 4.
    pub const LOG_SEGMENT: u8 = 0x0B;
    /// A full signed-table snapshot for follower bootstrap. New in
    /// version 4.
    pub const SNAPSHOT: u8 = 0x0C;
    /// Client subscription request: a table + key range to watch. New in
    /// version 4.
    pub const SUBSCRIBE: u8 = 0x0D;
    /// An incremental, self-verifying VO delta pushed to a subscriber.
    /// New in version 4.
    pub const DELTA_VO: u8 = 0x0E;
    /// Cancel a subscription. New in version 4.
    pub const UNSUBSCRIBE: u8 = 0x0F;
    /// Server → subscriber: the subscription was terminated because a
    /// delta could not be shipped (e.g. it would exceed the frame cap);
    /// the client must re-subscribe for a fresh verified baseline. New
    /// in version 5.
    pub const RESYNC_REQUIRED: u8 = 0x10;
    /// A planned query: an optimizer-chosen wire plan (select or pk-fk
    /// join). New in version 6.
    pub const PLANNED_QUERY: u8 = 0x11;
    /// Answer to a planned query. New in version 6.
    pub const PLANNED_RESPONSE: u8 = 0x12;
}

/// Error codes carried by [`Frame::Error`] and batch error items.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The request frame was malformed or arrived out of protocol.
    BadFrame = 1,
    /// The requested `table_id` is not served here.
    UnknownTable = 2,
    /// The query was rejected by the publisher (bad filter/projection).
    BadQuery = 3,
    /// Internal server failure.
    Internal = 4,
}

impl ErrorCode {
    /// Parses the wire byte.
    fn from_byte(b: u8) -> Option<ErrorCode> {
        Some(match b {
            1 => ErrorCode::BadFrame,
            2 => ErrorCode::UnknownTable,
            3 => ErrorCode::BadQuery,
            4 => ErrorCode::Internal,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorCode::BadFrame => "bad frame",
            ErrorCode::UnknownTable => "unknown table",
            ErrorCode::BadQuery => "bad query",
            ErrorCode::Internal => "internal error",
        };
        f.write_str(s)
    }
}

/// Aggregate server counters, shipped in [`Frame::StatsResponse`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections accepted since start.
    pub connections: u64,
    /// Queries answered (single frames plus batch items).
    pub queries: u64,
    /// Batch frames answered.
    pub batches: u64,
    /// Answers served from the VO cache.
    pub cache_hits: u64,
    /// Answers computed because the cache had no entry.
    pub cache_misses: u64,
    /// Entries currently resident in the VO cache.
    pub cache_entries: u64,
    /// Cached answers dropped because their table's epoch moved on (an
    /// applied update invalidates lazily, on lookup). New in version 2.
    pub invalidations: u64,
    /// Connections currently registered with a reactor shard (a gauge,
    /// not a counter). New in version 3.
    pub open_connections: u64,
    /// Bytes currently queued across all per-connection write queues (a
    /// gauge; backpressure pauses reads once a connection's share exceeds
    /// the configured limit). New in version 3.
    pub queue_depth: u64,
    /// Connections reaped by the idle timeout. New in version 3.
    pub idle_reaped: u64,
    /// Error frames emitted.
    pub errors: u64,
    /// Registry entries currently live — range subscriptions plus log
    /// followers (a gauge, not a counter). New in version 4.
    pub subscriptions: u64,
    /// `DeltaVO` frames pushed to subscribers since start. New in
    /// version 4.
    pub deltas_pushed: u64,
    /// Reconnections observed: follower handshakes that resumed from a
    /// `have` cursor plus subscriber re-registrations of a `sub_id` this
    /// server already saw on an earlier connection. New in version 5.
    pub reconnects: u64,
    /// `ResyncRequired` frames pushed (a subscription terminated because
    /// its delta could not be shipped). New in version 5.
    pub resyncs: u64,
    /// Connections closed by graceful drain: accepted no new work, had
    /// their write queues flushed, then closed. New in version 5.
    pub drains: u64,
}

/// One self-contained piece of a [`Frame::DeltaVo`]: a complete
/// `(result, vo)` answer for the sub-range `[lo, hi]` of the subscribed
/// key range, verifiable with `verify_select_wire` against the query
/// `SelectQuery::range(KeyRange::closed(lo, hi))` and the owner's
/// certificate alone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaPiece {
    /// Inclusive lower key bound of the refreshed interval.
    pub lo: i64,
    /// Inclusive upper key bound of the refreshed interval.
    pub hi: i64,
    /// `wire::encode_records` bytes for the interval.
    pub result: Vec<u8>,
    /// `wire::encode_vo` bytes for the interval.
    pub vo: Vec<u8>,
}

/// One item of a [`Frame::BatchResponse`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchItem {
    /// The query was answered: encoded result records and encoded VO.
    Ok {
        /// `wire::encode_records` bytes.
        result: Vec<u8>,
        /// `wire::encode_vo` bytes.
        vo: Vec<u8>,
    },
    /// The query failed; the rest of the batch is still answered.
    Err {
        /// What went wrong.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// A protocol frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// Liveness probe; the server answers [`Frame::Pong`].
    Ping,
    /// Reply to [`Frame::Ping`].
    Pong,
    /// Answer one query against the table registered as `table_id`.
    QueryRequest {
        /// Which served table to query.
        table_id: u32,
        /// The select-project(-distinct) query.
        query: SelectQuery,
    },
    /// Answer to [`Frame::QueryRequest`]: both blobs decode with the
    /// `adp_core::wire` codec and feed `verify_select_wire` unchanged.
    QueryResponse {
        /// `wire::encode_records` bytes.
        result: Vec<u8>,
        /// `wire::encode_vo` bytes.
        vo: Vec<u8>,
    },
    /// Answer N queries in one round-trip; the server fans the items out
    /// across its thread pool and replies in request order.
    BatchRequest {
        /// `(table_id, query)` per item.
        items: Vec<(u32, SelectQuery)>,
    },
    /// Answer to [`Frame::BatchRequest`], one item per request item.
    BatchResponse {
        /// Outcomes in request order.
        items: Vec<BatchItem>,
    },
    /// Ask for the server's counters.
    StatsRequest,
    /// Reply to [`Frame::StatsRequest`].
    StatsResponse(StatsSnapshot),
    /// The request could not be served at all.
    Error {
        /// What went wrong.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Follower handshake: ship `table_id`'s update log to this
    /// connection. `have = None` asks for a bootstrap [`Frame::Snapshot`];
    /// `have = Some(n)` resumes from log sequence `n` (the follower's
    /// `next_seq`).
    FollowLog {
        /// Which served table to follow.
        table_id: u32,
        /// Resume point: the lowest log sequence the follower still
        /// needs, or `None` for a fresh bootstrap.
        have: Option<u64>,
    },
    /// A run of signed update-log records for a followed table, in the
    /// `adp-store` framed log-record encoding (possibly empty — the
    /// handshake ack when there is no backlog).
    LogSegment {
        /// The followed table.
        table_id: u32,
        /// Concatenated `adp_store::log::encode_record` frames.
        records: Vec<u8>,
    },
    /// A full signed-table snapshot for follower bootstrap, in the
    /// `adp-store` snapshot encoding. The follower authenticates it by
    /// checking the embedded public key against the owner certificate it
    /// already holds and re-running the full signature audit.
    Snapshot {
        /// The followed table.
        table_id: u32,
        /// `adp_store::format::encode_snapshot` bytes.
        snapshot: Vec<u8>,
    },
    /// Register a subscription: push a [`Frame::DeltaVo`] to this
    /// connection whenever an update batch touches `query`'s key range.
    /// The server answers immediately with an initial `DeltaVo` carrying
    /// one piece that covers the whole subscribed range.
    Subscribe {
        /// Client-chosen subscription id, echoed in every `DeltaVo`.
        sub_id: u32,
        /// Which served table to watch.
        table_id: u32,
        /// The watched range. Filters, projections, and DISTINCT are
        /// rejected with [`ErrorCode::BadQuery`] — deltas are raw range
        /// refreshes.
        query: SelectQuery,
    },
    /// An incremental delta pushed to a subscriber: for each key interval
    /// the update batch dirtied (intersected with the subscription
    /// range), one self-contained `(result, vo)` proof. An empty `pieces`
    /// list acknowledges an [`Frame::Unsubscribe`].
    DeltaVo {
        /// The subscription this delta belongs to.
        sub_id: u32,
        /// The table epoch this delta brings the subscriber to.
        epoch: u64,
        /// Refreshed intervals, in ascending key order.
        pieces: Vec<DeltaPiece>,
    },
    /// Cancel the subscription `sub_id`; acknowledged by an empty
    /// [`Frame::DeltaVo`]. No deltas for `sub_id` follow the ack.
    Unsubscribe {
        /// The subscription to cancel.
        sub_id: u32,
    },
    /// Pushed by the server when it had to terminate subscription
    /// `sub_id` without shipping a delta — today, when the delta for one
    /// epoch bump would exceed the frame cap. The subscription is gone
    /// the moment this frame is sent; the client's recovery is to
    /// re-subscribe, which re-verifies a fresh whole-range baseline at
    /// an epoch `>= epoch`. No `DeltaVo` for `sub_id` follows.
    ResyncRequired {
        /// The terminated subscription.
        sub_id: u32,
        /// The epoch whose delta could not be shipped (the subscriber's
        /// verified state is strictly older than this).
        epoch: u64,
    },
    /// Execute an optimizer-chosen plan — a narrowed select or a pk-fk
    /// join the legacy `QueryRequest` frame cannot express. Table ids
    /// inside the plan refer to the server's registry, exactly as in
    /// `QueryRequest`.
    PlannedQuery {
        /// The plan to execute (`adp_core::plan::encode_wire_plan`).
        plan: WirePlan,
    },
    /// Answer to [`Frame::PlannedQuery`]. For a `Select` plan the blobs
    /// are the `QueryResponse` encodings; for a `PkFkJoin` plan they are
    /// `wire::encode_join_result` / `wire::encode_join_vo` bytes, feeding
    /// `adp_core::plan::verify_plan` unchanged.
    PlannedResponse {
        /// Encoded result rows (shape depends on the plan).
        result: Vec<u8>,
        /// Encoded verification object (shape depends on the plan).
        vo: Vec<u8>,
    },
}

impl Frame {
    /// The header frame-type byte for this frame.
    pub fn type_byte(&self) -> u8 {
        match self {
            Frame::Ping => frame_type::PING,
            Frame::Pong => frame_type::PONG,
            Frame::QueryRequest { .. } => frame_type::QUERY_REQUEST,
            Frame::QueryResponse { .. } => frame_type::QUERY_RESPONSE,
            Frame::BatchRequest { .. } => frame_type::BATCH_REQUEST,
            Frame::BatchResponse { .. } => frame_type::BATCH_RESPONSE,
            Frame::StatsRequest => frame_type::STATS_REQUEST,
            Frame::StatsResponse(_) => frame_type::STATS_RESPONSE,
            Frame::Error { .. } => frame_type::ERROR,
            Frame::FollowLog { .. } => frame_type::FOLLOW_LOG,
            Frame::LogSegment { .. } => frame_type::LOG_SEGMENT,
            Frame::Snapshot { .. } => frame_type::SNAPSHOT,
            Frame::Subscribe { .. } => frame_type::SUBSCRIBE,
            Frame::DeltaVo { .. } => frame_type::DELTA_VO,
            Frame::Unsubscribe { .. } => frame_type::UNSUBSCRIBE,
            Frame::ResyncRequired { .. } => frame_type::RESYNC_REQUIRED,
            Frame::PlannedQuery { .. } => frame_type::PLANNED_QUERY,
            Frame::PlannedResponse { .. } => frame_type::PLANNED_RESPONSE,
        }
    }
}

/// Why a frame could not be read or decoded.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying transport failed (includes clean EOF).
    Io(io::Error),
    /// The first two bytes were not [`MAGIC`].
    BadMagic([u8; 2]),
    /// The version byte is not [`VERSION`].
    BadVersion(u8),
    /// The frame-type byte is unassigned.
    UnknownFrameType(u8),
    /// The declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// Length declared in the header.
        declared: u32,
    },
    /// The payload failed to decode.
    Malformed(WireError),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "i/o error: {e}"),
            ProtoError::BadMagic(m) => write!(f, "bad magic {:02x} {:02x}", m[0], m[1]),
            ProtoError::BadVersion(v) => write!(f, "unsupported protocol version {v:#04x}"),
            ProtoError::UnknownFrameType(t) => write!(f, "unknown frame type {t:#04x}"),
            ProtoError::Oversized { declared } => {
                write!(f, "payload length {declared} exceeds cap {MAX_PAYLOAD}")
            }
            ProtoError::Malformed(e) => write!(f, "malformed payload: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

impl From<WireError> for ProtoError {
    fn from(e: WireError) -> Self {
        ProtoError::Malformed(e)
    }
}

/// Encodes a whole frame into one buffer: header, then payload. Refuses
/// (with `InvalidData`) a payload past [`MAX_PAYLOAD`].
pub(crate) fn frame_bytes(frame: &Frame) -> io::Result<Vec<u8>> {
    let mut w = frame_writer();
    match frame {
        Frame::Ping | Frame::Pong | Frame::StatsRequest => {}
        Frame::QueryRequest { table_id, query } => {
            w.u32(*table_id);
            w.bytes(&wire::encode_query(query));
        }
        Frame::QueryResponse { result, vo } | Frame::PlannedResponse { result, vo } => {
            w.bytes(result);
            w.bytes(vo);
        }
        Frame::BatchRequest { items } => {
            w.u32(items.len() as u32);
            for (table_id, query) in items {
                w.u32(*table_id);
                w.bytes(&wire::encode_query(query));
            }
        }
        Frame::BatchResponse { items } => {
            w.u32(items.len() as u32);
            for item in items {
                match item {
                    BatchItem::Ok { result, vo } => {
                        w.u8(0);
                        w.bytes(result);
                        w.bytes(vo);
                    }
                    BatchItem::Err { code, message } => {
                        w.u8(1);
                        w.u8(*code as u8);
                        w.bytes(message.as_bytes());
                    }
                }
            }
        }
        Frame::StatsResponse(s) => {
            w.u64(s.connections);
            w.u64(s.queries);
            w.u64(s.batches);
            w.u64(s.cache_hits);
            w.u64(s.cache_misses);
            w.u64(s.cache_entries);
            w.u64(s.invalidations);
            w.u64(s.open_connections);
            w.u64(s.queue_depth);
            w.u64(s.idle_reaped);
            w.u64(s.errors);
            w.u64(s.subscriptions);
            w.u64(s.deltas_pushed);
            w.u64(s.reconnects);
            w.u64(s.resyncs);
            w.u64(s.drains);
        }
        Frame::Error { code, message } => {
            w.u8(*code as u8);
            w.bytes(message.as_bytes());
        }
        Frame::FollowLog { table_id, have } => {
            w.u32(*table_id);
            match have {
                None => w.u8(0),
                Some(seq) => {
                    w.u8(1);
                    w.u64(*seq);
                }
            }
        }
        Frame::LogSegment { table_id, records } => {
            w.u32(*table_id);
            w.bytes(records);
        }
        Frame::Snapshot { table_id, snapshot } => {
            w.u32(*table_id);
            w.bytes(snapshot);
        }
        Frame::Subscribe {
            sub_id,
            table_id,
            query,
        } => {
            w.u32(*sub_id);
            w.u32(*table_id);
            w.bytes(&wire::encode_query(query));
        }
        Frame::DeltaVo {
            sub_id,
            epoch,
            pieces,
        } => {
            w.u32(*sub_id);
            w.u64(*epoch);
            w.u32(pieces.len() as u32);
            for p in pieces {
                w.i64(p.lo);
                w.i64(p.hi);
                w.bytes(&p.result);
                w.bytes(&p.vo);
            }
        }
        Frame::Unsubscribe { sub_id } => {
            w.u32(*sub_id);
        }
        Frame::ResyncRequired { sub_id, epoch } => {
            w.u32(*sub_id);
            w.u64(*epoch);
        }
        Frame::PlannedQuery { plan } => {
            w.bytes(&encode_wire_plan(plan));
        }
    }
    seal(frame.type_byte(), w)
}

/// A writer whose first [`HEADER_LEN`] bytes are held for the header
/// [`seal`] writes once the payload behind them is complete.
fn frame_writer() -> Writer {
    let mut w = Writer::new();
    w.u64(0); // the HEADER_LEN (8) bytes
    w
}

fn seal(type_byte: u8, w: Writer) -> io::Result<Vec<u8>> {
    let mut frame = w.into_bytes();
    let header = frame_header(type_byte, frame.len() - HEADER_LEN)?;
    frame[..HEADER_LEN].copy_from_slice(&header);
    Ok(frame)
}

/// The 8-byte header of a frame whose payload is `payload_len` bytes.
/// Refuses (with `InvalidData`) a payload past [`MAX_PAYLOAD`]: the
/// length field would lie, and the receiver would reject it anyway.
pub(crate) fn frame_header(type_byte: u8, payload_len: usize) -> io::Result<[u8; HEADER_LEN]> {
    if payload_len as u64 > MAX_PAYLOAD as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame payload of {payload_len} bytes exceeds cap {MAX_PAYLOAD}"),
        ));
    }
    let mut header = [0u8; HEADER_LEN];
    header[0..2].copy_from_slice(&MAGIC);
    header[2] = VERSION;
    header[3] = type_byte;
    header[4..8].copy_from_slice(&(payload_len as u32).to_le_bytes());
    Ok(header)
}

/// Validates a frame header, returning `(frame type, payload length)`.
/// The length is checked against [`MAX_PAYLOAD`] so callers can refuse
/// before allocating or reading the payload.
pub fn parse_header(header: &[u8; HEADER_LEN]) -> Result<(u8, u32), ProtoError> {
    if header[0..2] != MAGIC {
        return Err(ProtoError::BadMagic([header[0], header[1]]));
    }
    if header[2] != VERSION {
        return Err(ProtoError::BadVersion(header[2]));
    }
    let declared = u32::from_le_bytes(header[4..8].try_into().unwrap());
    if declared > MAX_PAYLOAD {
        return Err(ProtoError::Oversized { declared });
    }
    Ok((header[3], declared))
}

/// Decodes a frame body whose header was already validated with
/// [`parse_header`] (exposed so transports with their own read loops —
/// e.g. the server's deadline-bounded reader — can reuse the codec).
pub fn decode_payload(type_byte: u8, payload: &[u8]) -> Result<Frame, ProtoError> {
    let mut r = Reader::new(payload);
    let frame = match type_byte {
        frame_type::PING => Frame::Ping,
        frame_type::PONG => Frame::Pong,
        frame_type::QUERY_REQUEST => {
            let table_id = r.u32()?;
            let query = wire::decode_query(r.bytes()?)?;
            Frame::QueryRequest { table_id, query }
        }
        frame_type::QUERY_RESPONSE => Frame::QueryResponse {
            result: r.bytes()?.to_vec(),
            vo: r.bytes()?.to_vec(),
        },
        frame_type::BATCH_REQUEST => {
            let n = r.u32()? as usize;
            if n > 1 << 16 {
                return Err(WireError("too many batch items").into());
            }
            // A table id and a query blob.
            let mut items = r.vec_for(n, 4 + wire::MIN_BYTES_LEN);
            for _ in 0..n {
                let table_id = r.u32()?;
                let query = wire::decode_query(r.bytes()?)?;
                items.push((table_id, query));
            }
            Frame::BatchRequest { items }
        }
        frame_type::BATCH_RESPONSE => {
            let n = r.u32()? as usize;
            if n > 1 << 16 {
                return Err(WireError("too many batch items").into());
            }
            // A tag, then an error code and a message at the least.
            let mut items = r.vec_for(n, 2 + wire::MIN_BYTES_LEN);
            for _ in 0..n {
                items.push(match r.u8()? {
                    0 => BatchItem::Ok {
                        result: r.bytes()?.to_vec(),
                        vo: r.bytes()?.to_vec(),
                    },
                    1 => {
                        let code =
                            ErrorCode::from_byte(r.u8()?).ok_or(WireError("bad error code"))?;
                        let message = String::from_utf8(r.bytes()?.to_vec())
                            .map_err(|_| WireError("bad utf8"))?;
                        BatchItem::Err { code, message }
                    }
                    _ => return Err(WireError("bad batch item tag").into()),
                });
            }
            Frame::BatchResponse { items }
        }
        frame_type::STATS_REQUEST => Frame::StatsRequest,
        frame_type::STATS_RESPONSE => Frame::StatsResponse(StatsSnapshot {
            connections: r.u64()?,
            queries: r.u64()?,
            batches: r.u64()?,
            cache_hits: r.u64()?,
            cache_misses: r.u64()?,
            cache_entries: r.u64()?,
            invalidations: r.u64()?,
            open_connections: r.u64()?,
            queue_depth: r.u64()?,
            idle_reaped: r.u64()?,
            errors: r.u64()?,
            subscriptions: r.u64()?,
            deltas_pushed: r.u64()?,
            reconnects: r.u64()?,
            resyncs: r.u64()?,
            drains: r.u64()?,
        }),
        frame_type::ERROR => {
            let code = ErrorCode::from_byte(r.u8()?).ok_or(WireError("bad error code"))?;
            let message =
                String::from_utf8(r.bytes()?.to_vec()).map_err(|_| WireError("bad utf8"))?;
            Frame::Error { code, message }
        }
        frame_type::FOLLOW_LOG => {
            let table_id = r.u32()?;
            let have = match r.u8()? {
                0 => None,
                1 => Some(r.u64()?),
                _ => return Err(WireError("bad resume tag").into()),
            };
            Frame::FollowLog { table_id, have }
        }
        frame_type::LOG_SEGMENT => Frame::LogSegment {
            table_id: r.u32()?,
            records: r.bytes()?.to_vec(),
        },
        frame_type::SNAPSHOT => Frame::Snapshot {
            table_id: r.u32()?,
            snapshot: r.bytes()?.to_vec(),
        },
        frame_type::SUBSCRIBE => {
            let sub_id = r.u32()?;
            let table_id = r.u32()?;
            let query = wire::decode_query(r.bytes()?)?;
            Frame::Subscribe {
                sub_id,
                table_id,
                query,
            }
        }
        frame_type::DELTA_VO => {
            let sub_id = r.u32()?;
            let epoch = r.u64()?;
            let n = r.u32()? as usize;
            if n > 1 << 16 {
                return Err(WireError("too many delta pieces").into());
            }
            // Two key bounds, a result blob and a VO blob.
            let mut pieces = r.vec_for(n, 8 + 8 + 2 * wire::MIN_BYTES_LEN);
            for _ in 0..n {
                pieces.push(DeltaPiece {
                    lo: r.i64()?,
                    hi: r.i64()?,
                    result: r.bytes()?.to_vec(),
                    vo: r.bytes()?.to_vec(),
                });
            }
            Frame::DeltaVo {
                sub_id,
                epoch,
                pieces,
            }
        }
        frame_type::UNSUBSCRIBE => Frame::Unsubscribe { sub_id: r.u32()? },
        frame_type::RESYNC_REQUIRED => Frame::ResyncRequired {
            sub_id: r.u32()?,
            epoch: r.u64()?,
        },
        frame_type::PLANNED_QUERY => Frame::PlannedQuery {
            plan: decode_wire_plan(r.bytes()?)?,
        },
        frame_type::PLANNED_RESPONSE => Frame::PlannedResponse {
            result: r.bytes()?.to_vec(),
            vo: r.bytes()?.to_vec(),
        },
        other => return Err(ProtoError::UnknownFrameType(other)),
    };
    if !r.done() {
        return Err(WireError("trailing bytes").into());
    }
    Ok(frame)
}

/// Encodes a complete frame: 8-byte header plus payload.
///
/// # Panics
/// If the payload exceeds [`MAX_PAYLOAD`] (the length field would lie).
/// [`write_frame`] returns an error instead; the server additionally
/// bounds answers before framing them.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    frame_bytes(frame).expect("frame payload exceeds MAX_PAYLOAD")
}

/// Decodes exactly one frame from a byte slice (the whole slice must be
/// consumed). Streaming callers use [`read_frame`] instead.
pub fn decode_frame(bytes: &[u8]) -> Result<Frame, ProtoError> {
    if bytes.len() < HEADER_LEN {
        return Err(WireError("truncated header").into());
    }
    let (header, payload) = bytes.split_at(HEADER_LEN);
    let (type_byte, declared) = parse_header(header.try_into().unwrap())?;
    if payload.len() != declared as usize {
        return Err(WireError("payload length mismatch").into());
    }
    decode_payload(type_byte, payload)
}

/// Writes one frame to a stream, header and payload in one `write_all`
/// (one segment under `TCP_NODELAY`, not two). Refuses (with
/// `InvalidData`, before any byte is written, so the stream never
/// desyncs) a frame whose payload exceeds [`MAX_PAYLOAD`] — the receiver
/// would reject it anyway.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    w.write_all(&frame_bytes(frame)?)?;
    w.flush()
}

/// A borrowed batch-response item for [`write_batch_response`].
pub type BatchItemRef<'a> = Result<(&'a [u8], &'a [u8]), (ErrorCode, &'a str)>;

/// Writes a `BatchResponse` frame from borrowed per-item blobs (one copy
/// into the payload buffer instead of two). Byte-identical to
/// `write_frame(&Frame::BatchResponse { .. })` with the corresponding
/// owned items.
pub fn write_batch_response(w: &mut impl Write, items: &[BatchItemRef<'_>]) -> io::Result<()> {
    let mut payload = frame_writer();
    payload.u32(items.len() as u32);
    for item in items {
        match item {
            Ok((result, vo)) => {
                payload.u8(0);
                payload.bytes(result);
                payload.bytes(vo);
            }
            Err((code, message)) => {
                payload.u8(1);
                payload.u8(*code as u8);
                payload.bytes(message.as_bytes());
            }
        }
    }
    w.write_all(&seal(frame_type::BATCH_RESPONSE, payload)?)?;
    w.flush()
}

/// Reads one frame from a stream: header first (validated before the
/// payload is allocated or read), then the payload.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, ProtoError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let (type_byte, declared) = parse_header(&header)?;
    let mut payload = vec![0u8; declared as usize];
    r.read_exact(&mut payload)?;
    decode_payload(type_byte, &payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adp_relation::{CompareOp, KeyRange, Predicate, SelectQuery};

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Ping,
            Frame::Pong,
            Frame::QueryRequest {
                table_id: 7,
                query: SelectQuery::range(KeyRange::closed(2_000, 9_000)),
            },
            Frame::QueryResponse {
                result: vec![1, 2, 3],
                vo: vec![4, 5],
            },
            Frame::BatchRequest {
                items: vec![
                    (0, SelectQuery::range(KeyRange::all())),
                    (
                        1,
                        SelectQuery::range(KeyRange::less_than(10))
                            .filter(Predicate::new("c", CompareOp::Eq, 1i64))
                            .distinct(),
                    ),
                ],
            },
            Frame::BatchResponse {
                items: vec![
                    BatchItem::Ok {
                        result: vec![0],
                        vo: vec![],
                    },
                    BatchItem::Err {
                        code: ErrorCode::UnknownTable,
                        message: "no table 9".into(),
                    },
                ],
            },
            Frame::StatsRequest,
            Frame::StatsResponse(StatsSnapshot {
                connections: 1,
                queries: 2,
                batches: 3,
                cache_hits: 4,
                cache_misses: 5,
                cache_entries: 6,
                invalidations: 7,
                open_connections: 8,
                queue_depth: 9,
                idle_reaped: 10,
                errors: 11,
                subscriptions: 12,
                deltas_pushed: 13,
                reconnects: 14,
                resyncs: 15,
                drains: 16,
            }),
            Frame::Error {
                code: ErrorCode::BadFrame,
                message: "nope".into(),
            },
            Frame::FollowLog {
                table_id: 3,
                have: None,
            },
            Frame::FollowLog {
                table_id: 3,
                have: Some(17),
            },
            Frame::LogSegment {
                table_id: 3,
                records: vec![0xAB; 9],
            },
            Frame::Snapshot {
                table_id: 3,
                snapshot: vec![0xCD; 12],
            },
            Frame::Subscribe {
                sub_id: 1,
                table_id: 7,
                query: SelectQuery::range(KeyRange::closed(100, 500)),
            },
            Frame::DeltaVo {
                sub_id: 1,
                epoch: 4,
                pieces: vec![
                    DeltaPiece {
                        lo: 100,
                        hi: 180,
                        result: vec![1, 2],
                        vo: vec![3],
                    },
                    DeltaPiece {
                        lo: 400,
                        hi: 500,
                        result: vec![],
                        vo: vec![4, 5, 6],
                    },
                ],
            },
            Frame::DeltaVo {
                sub_id: 9,
                epoch: 0,
                pieces: vec![],
            },
            Frame::Unsubscribe { sub_id: 1 },
            Frame::ResyncRequired {
                sub_id: 1,
                epoch: 3,
            },
            Frame::PlannedQuery {
                plan: WirePlan::Select {
                    table_id: 7,
                    query: SelectQuery::range(KeyRange::closed(2_000, 9_000)),
                },
            },
            Frame::PlannedQuery {
                plan: WirePlan::PkFkJoin {
                    fk_table: 0,
                    pk_table: 1,
                    fk_range: KeyRange::closed(100, 500),
                    fk_projection: adp_relation::Projection::All,
                    pk_projection: adp_relation::Projection::Columns(vec!["title".into()]),
                },
            },
            Frame::PlannedResponse {
                result: vec![1, 2, 3],
                vo: vec![4, 5],
            },
        ]
    }

    #[test]
    fn frames_roundtrip() {
        for f in sample_frames() {
            let bytes = encode_frame(&f);
            assert_eq!(decode_frame(&bytes).unwrap(), f, "{f:?}");
            // Streaming path agrees with the slice path.
            let mut cursor = std::io::Cursor::new(bytes);
            assert_eq!(read_frame(&mut cursor).unwrap(), f, "{f:?}");
        }
    }

    #[test]
    fn borrowed_batch_writer_matches_owned_frame_byte_for_byte() {
        let (result, vo) = (vec![1u8, 2, 3], vec![4u8, 5]);
        let mut direct = Vec::new();
        write_batch_response(
            &mut direct,
            &[
                Ok((result.as_slice(), vo.as_slice())),
                Err((ErrorCode::UnknownTable, "no table 9")),
            ],
        )
        .unwrap();
        assert_eq!(
            direct,
            encode_frame(&Frame::BatchResponse {
                items: vec![
                    BatchItem::Ok { result, vo },
                    BatchItem::Err {
                        code: ErrorCode::UnknownTable,
                        message: "no table 9".into(),
                    },
                ],
            })
        );
    }

    #[test]
    fn ping_frame_fixed_vector_matches_protocol_doc() {
        assert_eq!(
            encode_frame(&Frame::Ping),
            vec![0xAD, 0x50, 0x06, 0x01, 0, 0, 0, 0]
        );
    }

    #[test]
    fn follow_log_resume_tag_validated() {
        let mut bytes = encode_frame(&Frame::FollowLog {
            table_id: 1,
            have: None,
        });
        // Corrupt the resume tag (last payload byte) to an unassigned
        // value: defensive decode must refuse it.
        let last = bytes.len() - 1;
        bytes[last] = 2;
        assert!(matches!(
            decode_frame(&bytes),
            Err(ProtoError::Malformed(_))
        ));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode_frame(&Frame::Ping);
        bytes[0] = 0x00;
        assert!(matches!(
            decode_frame(&bytes),
            Err(ProtoError::BadMagic([0x00, 0x50]))
        ));
    }

    #[test]
    fn bad_version_rejected() {
        // Older versions are refused too: the StatsResponse layout
        // changed in v2, v3, v4, and v5, and v6 added frame types a v5
        // peer would reject, so a v6 speaker must not silently accept
        // earlier peers.
        for old in [0x01, 0x02, 0x03, 0x04, 0x05] {
            let mut bytes = encode_frame(&Frame::Ping);
            bytes[2] = old;
            assert!(matches!(
                decode_frame(&bytes),
                Err(ProtoError::BadVersion(v)) if v == old
            ));
        }
    }

    #[test]
    fn unknown_frame_type_rejected() {
        let mut bytes = encode_frame(&Frame::Ping);
        bytes[3] = 0xEE;
        assert!(matches!(
            decode_frame(&bytes),
            Err(ProtoError::UnknownFrameType(0xEE))
        ));
    }

    #[test]
    fn oversized_length_prefix_rejected_before_allocation() {
        let mut bytes = encode_frame(&Frame::Ping);
        bytes[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_frame(&bytes),
            Err(ProtoError::Oversized { declared: u32::MAX })
        ));
        // The streaming reader also refuses without trying to read 4 GiB.
        let mut cursor = std::io::Cursor::new(bytes);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(ProtoError::Oversized { declared: u32::MAX })
        ));
    }

    #[test]
    fn truncated_header_rejected() {
        let bytes = encode_frame(&Frame::Ping);
        for cut in 0..HEADER_LEN {
            assert!(decode_frame(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let frame = Frame::QueryRequest {
            table_id: 0,
            query: SelectQuery::range(KeyRange::all()),
        };
        let mut bytes = encode_frame(&frame);
        // Grow the payload and fix up the declared length: decoders must
        // still notice the unconsumed tail.
        bytes.push(0xFF);
        let len = (bytes.len() - HEADER_LEN) as u32;
        bytes[4..8].copy_from_slice(&len.to_le_bytes());
        assert!(matches!(
            decode_frame(&bytes),
            Err(ProtoError::Malformed(_))
        ));
    }
}
