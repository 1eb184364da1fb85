//! The event-driven server core: reactor shards multiplexing non-blocking
//! connection sockets over epoll ([`crate::sys`]).
//!
//! Each shard is one thread owning one epoll instance, a registry of the
//! connections assigned to it, and a timer heap. Shard 0 additionally owns
//! the (non-blocking) listener and hands accepted sockets out round-robin.
//! The division of labor is strict:
//!
//! * **Shards do I/O only** — non-blocking reads into a per-connection
//!   reassembly buffer, frame parsing, non-blocking writes out of a
//!   bounded per-connection chunk queue, timeouts. Cheap frames (`Ping`,
//!   `StatsRequest`) are answered in place.
//! * **Workers do crypto** — `QueryRequest`/`PlannedQuery` frames and
//!   `BatchRequest` items, all [`WirePlan`]s once parsed, run on the
//!   shared [`ThreadPool`]; the finished answer comes back to the
//!   owning shard as a [`Msg::Complete`] through the shard's injection
//!   queue plus a wake byte on its socketpair.
//!
//! Per-connection ordering matches the old thread-per-connection server
//! exactly: parsed requests queue in arrival order and at most one query
//! or batch is in flight per connection, so replies leave in request
//! order even when a `Ping` trails a slow query.
//!
//! Backpressure is byte-based: once a connection's write queue exceeds
//! [`ServerConfig::write_queue_limit`], the shard stops reading from it
//! and stops dispatching its queued requests; the kernel's socket buffers
//! then push back on the client. A client that never drains its responses
//! therefore stops making progress and falls to the idle timeout
//! (`idle_reaped` counts those). Timeouts are a lazy binary heap: an idle
//! connection costs *zero* wakeups in steady state — its deadline sits in
//! the heap and the shard sleeps in `epoll_wait` until either readiness
//! or the earliest deadline.

use crate::pool::ThreadPool;
use crate::protocol::{
    self, encode_frame, frame_type, ErrorCode, Frame, StatsSnapshot, HEADER_LEN, MAGIC, VERSION,
};
use crate::server::{
    answer, encode_batch_frame, error_chunks, follow_job, lock_recover, subscribe_job, AnswerBlob,
    BatchAnswer, Inner, ServerConfig, ServerStats,
};
use crate::sys::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use adp_core::plan::WirePlan;
use adp_relation::SelectQuery;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Token of the shard's wake socket (the read end of its socketpair).
const TOKEN_WAKE: u64 = 0;
/// Token of the listener (shard 0 only).
const TOKEN_LISTENER: u64 = 1;
/// First connection token; tokens are per-shard and never reused, so a
/// late completion for a closed connection simply finds no entry.
const FIRST_CONN_TOKEN: u64 = 16;
/// Parsed-but-undispatched requests per connection before reads pause.
const PENDING_CAP: usize = 64;
/// Read granularity (one shared scratch buffer per shard).
const READ_CHUNK: usize = 64 * 1024;
/// Epoll events collected per wakeup.
const EVENT_BATCH: usize = 256;
/// How long a failing listener stays out of epoll before accepts retry.
const ACCEPT_RETRY: Duration = Duration::from_millis(10);

/// Work injected into a shard from outside its thread: new sockets from
/// the accepting shard, finished answers from pool workers.
pub(crate) enum Msg {
    /// Adopt this accepted connection.
    Conn(TcpStream),
    /// Append these chunks to connection `token`'s write queue and clear
    /// its in-flight marker.
    Complete(u64, Vec<WriteChunk>),
    /// A subscription push (fan-out from an applied update): append these
    /// chunks to connection `token`'s write queue *without* touching its
    /// in-flight marker — pushes are unsolicited and interleave with the
    /// request/response stream. `sub_id` is the range subscription the
    /// chunks belong to (`None` for follower log segments); delivery
    /// re-checks it is still registered, so no delta can land on the wire
    /// after its unsubscribe ack.
    Push {
        token: u64,
        sub_id: Option<u32>,
        chunks: Vec<WriteChunk>,
    },
}

/// The cross-thread face of a shard: an injection queue plus the write
/// end of the shard's wake socketpair.
pub(crate) struct ShardHandle {
    queue: Mutex<VecDeque<Msg>>,
    wake: UnixStream,
}

impl ShardHandle {
    pub(crate) fn push(&self, msg: Msg) {
        lock_recover(&self.queue).push_back(msg);
        self.wake();
    }

    /// Nudges the shard out of `epoll_wait`. A full pipe means a wake is
    /// already pending, so the error is ignorable.
    pub(crate) fn wake(&self) {
        let _ = (&self.wake).write(&[1u8]);
    }
}

/// One queued span of outgoing bytes. Cache-hit answers keep the old
/// zero-copy property: the shared `(result, vo)` blobs are referenced,
/// not copied, with tiny owned chunks carrying the frame header and
/// length prefixes between them.
pub(crate) struct WriteChunk {
    data: ChunkData,
    pos: usize,
}

enum ChunkData {
    Owned(Vec<u8>),
    Result(AnswerBlob),
    Vo(AnswerBlob),
}

impl WriteChunk {
    pub(crate) fn owned(bytes: Vec<u8>) -> WriteChunk {
        WriteChunk {
            data: ChunkData::Owned(bytes),
            pos: 0,
        }
    }

    fn bytes(&self) -> &[u8] {
        match &self.data {
            ChunkData::Owned(v) => v,
            ChunkData::Result(b) => &b.0,
            ChunkData::Vo(b) => &b.1,
        }
    }

    fn remaining(&self) -> &[u8] {
        &self.bytes()[self.pos..]
    }

    fn len(&self) -> usize {
        self.bytes().len()
    }
}

/// A `QueryResponse` or `PlannedResponse` frame (`type_byte` says which;
/// the two-blob payload layout is the same) as chunks, byte-identical to
/// `encode_frame` of that frame but borrowing the blobs.
fn response_chunks(type_byte: u8, blob: &AnswerBlob) -> Vec<WriteChunk> {
    let (result_len, vo_len) = (blob.0.len(), blob.1.len());
    // `answer` already bounded result+vo+8 by MAX_PAYLOAD.
    let payload_len = (8 + result_len + vo_len) as u32;
    let mut head = Vec::with_capacity(HEADER_LEN + 4);
    head.extend_from_slice(&MAGIC);
    head.push(VERSION);
    head.push(type_byte);
    head.extend_from_slice(&payload_len.to_le_bytes());
    head.extend_from_slice(&(result_len as u32).to_le_bytes());
    vec![
        WriteChunk::owned(head),
        WriteChunk {
            data: ChunkData::Result(Arc::clone(blob)),
            pos: 0,
        },
        WriteChunk::owned((vo_len as u32).to_le_bytes().to_vec()),
        WriteChunk {
            data: ChunkData::Vo(Arc::clone(blob)),
            pos: 0,
        },
    ]
}

/// A parsed request waiting its turn on the connection's FIFO.
enum Req {
    Ping,
    Stats,
    /// A `QueryRequest` or a `PlannedQuery`: the same work, answered
    /// under the frame type byte `response`.
    Query {
        response: u8,
        plan: WirePlan,
    },
    Batch {
        items: Vec<WirePlan>,
    },
    Subscribe {
        sub_id: u32,
        table_id: u32,
        query: SelectQuery,
    },
    Unsubscribe {
        sub_id: u32,
    },
    FollowLog {
        table_id: u32,
        have: Option<u64>,
    },
    /// A server→client frame type arrived: answered with an error frame,
    /// connection stays open (matches the old server).
    BadDirection,
    /// Framing is broken: answered with an error frame, then the
    /// connection closes once the reply (and everything before it) flushed.
    Protocol(String),
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    /// Interest mask currently registered with epoll.
    interest: u32,
    /// Unparsed inbound bytes (partial frames reassemble here).
    buf: Vec<u8>,
    /// Deadline for completing the frame currently being reassembled.
    frame_deadline: Option<Instant>,
    /// Last time bytes moved in either direction.
    last_activity: Instant,
    /// Parsed requests not yet dispatched, in arrival order.
    pending: VecDeque<Req>,
    /// A query or batch is on the worker pool; replies for later requests
    /// must wait, preserving per-connection response order.
    inflight: bool,
    write_q: VecDeque<WriteChunk>,
    /// Bytes across `write_q` (mirrors into the global queue-depth gauge).
    queued_bytes: usize,
    /// Peer half-closed its sending side; finish serving what arrived.
    read_closed: bool,
    /// Stop parsing/reading (protocol error or frame timeout).
    read_dead: bool,
    /// Close as soon as the write queue drains.
    close_after_flush: bool,
    /// Unrecoverable socket error; close immediately.
    dead: bool,
    /// Earliest deadline currently sitting in the shard's timer heap for
    /// this connection (lazy deletion: stale entries no-op on pop).
    armed_until: Option<Instant>,
}

impl Conn {
    fn wants_read(&self, cfg: &ServerConfig) -> bool {
        !self.read_closed
            && !self.read_dead
            && !self.close_after_flush
            && !self.dead
            && self.pending.len() < PENDING_CAP
            && self.queued_bytes <= cfg.write_queue_limit
    }

    /// True once nothing remains to read, compute, or flush.
    fn drained(&self) -> bool {
        self.read_closed && self.pending.is_empty() && !self.inflight && self.write_q.is_empty()
    }
}

/// Fan-out state for one `BatchRequest`: each item is an independent pool
/// job; the last to finish assembles the response frame and completes it
/// to the owning shard. (The old design parked a thread on a channel
/// collecting items; a pool-worker collector would deadlock a one-worker
/// pool, so assembly rides on the final item's own job instead.)
struct BatchState {
    slots: Mutex<Vec<Option<BatchAnswer>>>,
    remaining: AtomicUsize,
    token: u64,
    shard: Arc<ShardHandle>,
    inner: Arc<Inner>,
}

/// The shard's shared, immutably-borrowed half (split from the mutable
/// registries so helpers can hold both at once).
struct ShardCore {
    epoll: Epoll,
    inner: Arc<Inner>,
    pool: Arc<ThreadPool>,
    /// This shard's own handle (workers complete through it).
    me: Arc<ShardHandle>,
    /// Every shard's handle, for round-robin distribution of accepts.
    peers: Vec<Arc<ShardHandle>>,
    cfg: ServerConfig,
    shutdown: Arc<AtomicBool>,
    /// Graceful-drain flag ([`crate::ServerHandle::drain`]): once set, the
    /// shard stops accepting, treats every connection as read-closed
    /// (finish what arrived, flush, close), and counts closes as drains.
    drain: Arc<AtomicBool>,
}

pub(crate) struct Shard {
    core: ShardCore,
    /// The drain flag has been observed and acted on by this shard.
    draining: bool,
    conns: HashMap<u64, Conn>,
    /// Min-heap of `(deadline, token)` with lazy deletion.
    timers: BinaryHeap<Reverse<(Instant, u64)>>,
    next_token: u64,
    listener: Option<TcpListener>,
    /// The listener is deregistered from epoll after a transient accept
    /// failure; a [`TOKEN_LISTENER`] timer-heap entry re-arms it.
    listener_paused: bool,
    rr: usize,
    wake: UnixStream,
    scratch: Vec<u8>,
}

/// What [`spawn_shards`] hands back to the server: one handle per shard
/// for message injection, plus the shard threads to join at shutdown.
pub(crate) type SpawnedShards = (Vec<Arc<ShardHandle>>, Vec<JoinHandle<()>>);

/// Builds the shard handles and spawns one reactor thread per shard;
/// shard 0 adopts the (already non-blocking) listener.
pub(crate) fn spawn_shards(
    listener: TcpListener,
    nshards: usize,
    inner: Arc<Inner>,
    pool: Arc<ThreadPool>,
    shutdown: Arc<AtomicBool>,
    drain: Arc<AtomicBool>,
    cfg: ServerConfig,
) -> io::Result<SpawnedShards> {
    let nshards = nshards.max(1);
    let mut handles = Vec::with_capacity(nshards);
    let mut wakes = Vec::with_capacity(nshards);
    for _ in 0..nshards {
        let (shard_end, handle_end) = UnixStream::pair()?;
        shard_end.set_nonblocking(true)?;
        handle_end.set_nonblocking(true)?;
        handles.push(Arc::new(ShardHandle {
            queue: Mutex::new(VecDeque::new()),
            wake: handle_end,
        }));
        wakes.push(shard_end);
    }
    let mut listener = Some(listener);
    let mut threads = Vec::with_capacity(nshards);
    for (i, wake) in wakes.into_iter().enumerate() {
        let epoll = Epoll::new()?;
        epoll.add(wake.as_raw_fd(), EPOLLIN, TOKEN_WAKE)?;
        let lst = if i == 0 { listener.take() } else { None };
        if let Some(l) = &lst {
            epoll.add(l.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
        }
        let shard = Shard {
            core: ShardCore {
                epoll,
                inner: Arc::clone(&inner),
                pool: Arc::clone(&pool),
                me: Arc::clone(&handles[i]),
                peers: handles.clone(),
                cfg: cfg.clone(),
                shutdown: Arc::clone(&shutdown),
                drain: Arc::clone(&drain),
            },
            draining: false,
            conns: HashMap::new(),
            timers: BinaryHeap::new(),
            next_token: FIRST_CONN_TOKEN,
            listener: lst,
            listener_paused: false,
            rr: i,
            wake,
            scratch: vec![0u8; READ_CHUNK],
        };
        threads.push(
            std::thread::Builder::new()
                .name(format!("adp-reactor-{i}"))
                .spawn(move || shard.run())?,
        );
    }
    Ok((handles, threads))
}

impl Shard {
    pub(crate) fn run(mut self) {
        let mut events = vec![EpollEvent::zeroed(); EVENT_BATCH];
        loop {
            // The flags are read *after* the previous iteration drained
            // the wake socket, never between a wait and that drain: a
            // setter stores its flag and then writes a wake byte, and a
            // drain that swallows the byte of a flag not yet looked at
            // would leave the shard asleep until its next timer.
            if self.core.shutdown.load(Ordering::SeqCst) {
                break;
            }
            if !self.draining && self.core.drain.load(Ordering::SeqCst) {
                self.begin_drain();
            }
            let timeout = self.next_timeout();
            let n = match self.core.epoll.wait(&mut events, timeout) {
                Ok(n) => n,
                Err(_) => {
                    // `Epoll::wait` retries EINTR internally, so this is a
                    // persistent failure (e.g. EBADF); retrying would spin
                    // the shard with n=0 forever. Count it and stop.
                    ServerStats::bump(&self.core.inner.stats.errors);
                    break;
                }
            };
            ServerStats::bump(&self.core.inner.stats.wakeups);
            for ev in &events[..n] {
                match ev.token() {
                    TOKEN_WAKE => self.drain_wake(),
                    TOKEN_LISTENER => self.accept_ready(),
                    token => self.conn_event(token, ev.events()),
                }
            }
            // The queue is drained every iteration (not only on an
            // observed wake byte): level-triggered epoll re-reports an
            // undrained wake socket, so nothing is ever lost, and this
            // keeps the push→wake race harmless.
            self.drain_queue();
            self.fire_timers();
        }
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.close_conn(token);
        }
    }

    /// Milliseconds until the earliest timer, or -1 to sleep until I/O.
    fn next_timeout(&self) -> i32 {
        match self.timers.peek() {
            None => -1,
            Some(&Reverse((deadline, _))) => {
                let now = Instant::now();
                if deadline <= now {
                    0
                } else {
                    // Round up so a deadline 0.4ms away doesn't spin.
                    let ms = deadline.duration_since(now).as_millis() as i64 + 1;
                    ms.min(i32::MAX as i64) as i32
                }
            }
        }
    }

    fn drain_wake(&mut self) {
        let mut buf = [0u8; 256];
        loop {
            match (&self.wake).read(&mut buf) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(_) => break, // WouldBlock: drained
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    ServerStats::bump(&self.core.inner.stats.connections);
                    let idx = self.rr;
                    self.rr = (self.rr + 1) % self.core.peers.len();
                    if Arc::ptr_eq(&self.core.peers[idx], &self.core.me) {
                        self.register_conn(stream);
                    } else {
                        self.core.peers[idx].push(Msg::Conn(stream));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Transient accept failure (fd exhaustion, aborted
                    // handshake). Pausing the listener bounds the busy-loop
                    // a level-triggered listener would otherwise spin on
                    // while fds stay exhausted — without stalling I/O for
                    // the connections this shard already owns.
                    ServerStats::bump(&self.core.inner.stats.errors);
                    self.pause_listener();
                    return;
                }
            }
        }
    }

    /// Takes the listener out of epoll and schedules its return through
    /// the timer heap, so existing connections keep being serviced while
    /// accepts back off.
    fn pause_listener(&mut self) {
        if self.listener_paused {
            return;
        }
        let Some(listener) = &self.listener else {
            return;
        };
        if self.core.epoll.delete(listener.as_raw_fd()).is_ok() {
            self.listener_paused = true;
            self.timers
                .push(Reverse((Instant::now() + ACCEPT_RETRY, TOKEN_LISTENER)));
        } else {
            // Can't deregister (shouldn't happen); fall back to a bounded
            // sleep so the shard at least doesn't spin.
            std::thread::sleep(ACCEPT_RETRY);
        }
    }

    /// Puts a paused listener back into epoll and catches up on anything
    /// that queued while it was out; if re-adding fails, retries later.
    fn resume_listener(&mut self) {
        if !self.listener_paused {
            return;
        }
        let Some(listener) = &self.listener else {
            return;
        };
        if self
            .core
            .epoll
            .add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)
            .is_ok()
        {
            self.listener_paused = false;
            self.accept_ready();
        } else {
            self.timers
                .push(Reverse((Instant::now() + ACCEPT_RETRY, TOKEN_LISTENER)));
        }
    }

    /// Enters drain mode: the listener leaves epoll and closes (new
    /// connects are refused from here on), and every connection is
    /// treated as if its peer half-closed — already-received requests
    /// still answer, write queues still flush, and the close lands once
    /// both are empty. [`Shard::close_conn`] counts closes as drains
    /// while this mode is active.
    fn begin_drain(&mut self) {
        self.draining = true;
        if let Some(listener) = self.listener.take() {
            let _ = self.core.epoll.delete(listener.as_raw_fd());
            // Dropping the listener closes it.
        }
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.read_closed = true;
                pump(&self.core, conn, token);
                write_some(&self.core, conn);
            }
            self.epilogue(token);
        }
    }

    fn register_conn(&mut self, stream: TcpStream) {
        if self.draining {
            // Raced in from the accepting shard after drain began:
            // dropping the stream closes it.
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            ServerStats::bump(&self.core.inner.stats.errors);
            return;
        }
        let _ = stream.set_nodelay(true);
        let token = self.next_token;
        self.next_token += 1;
        let interest = EPOLLIN | EPOLLRDHUP;
        if self
            .core
            .epoll
            .add(stream.as_raw_fd(), interest, token)
            .is_err()
        {
            ServerStats::bump(&self.core.inner.stats.errors);
            return;
        }
        self.core
            .inner
            .stats
            .open_connections
            .fetch_add(1, Ordering::Relaxed);
        self.conns.insert(
            token,
            Conn {
                stream,
                interest,
                buf: Vec::new(),
                frame_deadline: None,
                last_activity: Instant::now(),
                pending: VecDeque::new(),
                inflight: false,
                write_q: VecDeque::new(),
                queued_bytes: 0,
                read_closed: false,
                read_dead: false,
                close_after_flush: false,
                dead: false,
                armed_until: None,
            },
        );
        self.epilogue(token); // arms the idle timer
    }

    fn conn_event(&mut self, token: u64, events: u32) {
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if events & EPOLLERR != 0 {
                conn.dead = true;
            } else {
                if events & EPOLLOUT != 0 {
                    write_some(&self.core, conn);
                }
                if events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0 {
                    read_and_parse(&self.core, conn, &mut self.scratch);
                }
                pump(&self.core, conn, token);
                write_some(&self.core, conn);
            }
        }
        self.epilogue(token);
    }

    fn drain_queue(&mut self) {
        let msgs: Vec<Msg> = {
            let mut q = lock_recover(&self.core.me.queue);
            q.drain(..).collect()
        };
        for msg in msgs {
            match msg {
                Msg::Conn(stream) => self.register_conn(stream),
                Msg::Complete(token, chunks) => {
                    {
                        let Some(conn) = self.conns.get_mut(&token) else {
                            continue; // closed while the worker computed
                        };
                        conn.inflight = false;
                        push_chunks(&self.core, conn, chunks);
                        write_some(&self.core, conn);
                        pump(&self.core, conn, token);
                        write_some(&self.core, conn);
                    }
                    self.epilogue(token);
                }
                Msg::Push {
                    token,
                    sub_id,
                    chunks,
                } => {
                    {
                        let Some(conn) = self.conns.get_mut(&token) else {
                            continue; // closed since the fan-out snapshot
                        };
                        // An unsubscribe may have raced the fan-out: the
                        // ack is already (or about to be) queued, and no
                        // delta may follow it on the wire.
                        if let Some(sub_id) = sub_id {
                            if !self.core.inner.sub_alive(&self.core.me, token, sub_id) {
                                continue;
                            }
                        }
                        push_chunks(&self.core, conn, chunks);
                        write_some(&self.core, conn);
                    }
                    self.epilogue(token);
                }
            }
        }
    }

    fn fire_timers(&mut self) {
        let now = Instant::now();
        loop {
            match self.timers.peek() {
                Some(&Reverse((deadline, _))) if deadline <= now => {}
                _ => break,
            }
            let Reverse((popped, token)) = self.timers.pop().expect("peeked entry exists");
            if token == TOKEN_LISTENER {
                self.resume_listener();
                continue;
            }
            let mut reap = false;
            {
                let Some(conn) = self.conns.get_mut(&token) else {
                    continue; // connection closed; stale entry
                };
                if conn.armed_until == Some(popped) {
                    conn.armed_until = None;
                }
                let Some(deadline) = desired_deadline(conn, &self.core.cfg) else {
                    continue;
                };
                if deadline > now {
                    // Activity pushed the real deadline out; re-arm lazily.
                    if conn.armed_until.is_none_or(|armed| deadline < armed) {
                        self.timers.push(Reverse((deadline, token)));
                        conn.armed_until = Some(deadline);
                    }
                    continue;
                }
                if conn.frame_deadline.is_some_and(|f| f <= now) {
                    // Slow loris: the rest of the frame never came.
                    conn.frame_deadline = None;
                    conn.read_dead = true;
                    conn.close_after_flush = true;
                    let message = "frame deadline exceeded".into();
                    let chunks = error_chunks(&self.core.inner, ErrorCode::BadFrame, message);
                    push_chunks(&self.core, conn, chunks);
                    write_some(&self.core, conn);
                } else {
                    ServerStats::bump(&self.core.inner.stats.idle_reaped);
                    reap = true;
                }
            }
            if reap {
                self.close_conn(token);
            } else {
                self.epilogue(token);
            }
        }
    }

    /// Common tail for every state change on a connection: close it if it
    /// is finished (or broken), otherwise reconcile its epoll interest
    /// mask and (re-)arm its deadline.
    fn epilogue(&mut self, token: u64) {
        let mut close = false;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.dead || conn.drained() || (conn.close_after_flush && conn.write_q.is_empty()) {
                close = true;
            } else {
                let mut want = EPOLLRDHUP;
                if conn.wants_read(&self.core.cfg) {
                    want |= EPOLLIN;
                }
                if !conn.write_q.is_empty() {
                    want |= EPOLLOUT;
                }
                if want != conn.interest {
                    match self.core.epoll.modify(conn.stream.as_raw_fd(), want, token) {
                        Ok(()) => conn.interest = want,
                        Err(_) => close = true,
                    }
                }
                if !close {
                    if let Some(deadline) = desired_deadline(conn, &self.core.cfg) {
                        if conn.armed_until.is_none_or(|armed| deadline < armed) {
                            self.timers.push(Reverse((deadline, token)));
                            conn.armed_until = Some(deadline);
                        }
                    }
                }
            }
        }
        if close {
            self.close_conn(token);
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let stats = &self.core.inner.stats;
            if self.draining {
                ServerStats::bump(&stats.drains);
            }
            stats.open_connections.fetch_sub(1, Ordering::Relaxed);
            stats
                .queue_depth
                .fetch_sub(conn.queued_bytes as u64, Ordering::Relaxed);
            // Any subscriptions this connection held die with it (tokens
            // are never reused, so a racing fan-out pushes to nobody).
            self.core.inner.purge_conn_subs(&self.core.me, token);
            // Dropping the stream closes the fd, which also removes its
            // epoll registration (it was never duplicated).
        }
    }
}

/// The connection's next deadline: the mid-frame deadline if a frame is
/// reassembling, else the idle deadline. A connection with a query in
/// flight is not "idle" — its deadline resumes once the answer lands.
fn desired_deadline(conn: &Conn, cfg: &ServerConfig) -> Option<Instant> {
    let idle = if conn.inflight {
        None
    } else {
        cfg.idle_timeout.map(|t| conn.last_activity + t)
    };
    match (conn.frame_deadline, idle) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// Appends chunks to the write queue, keeping the byte accounting (local
/// and the global gauge) in step.
fn push_chunks(core: &ShardCore, conn: &mut Conn, chunks: Vec<WriteChunk>) {
    let added: usize = chunks.iter().map(WriteChunk::len).sum();
    conn.queued_bytes += added;
    core.inner
        .stats
        .queue_depth
        .fetch_add(added as u64, Ordering::Relaxed);
    conn.write_q.extend(chunks);
}

/// Writes queued chunks until the socket would block or the queue empties.
fn write_some(core: &ShardCore, conn: &mut Conn) {
    while let Some(front) = conn.write_q.front_mut() {
        let remaining = front.remaining();
        if remaining.is_empty() {
            conn.write_q.pop_front();
            continue;
        }
        match conn.stream.write(remaining) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => {
                front.pos += n;
                conn.queued_bytes -= n;
                core.inner
                    .stats
                    .queue_depth
                    .fetch_sub(n as u64, Ordering::Relaxed);
                conn.last_activity = Instant::now();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
}

/// Reads until the socket would block (or backpressure pauses reads),
/// parsing complete frames out of the reassembly buffer as they form.
fn read_and_parse(core: &ShardCore, conn: &mut Conn, scratch: &mut [u8]) {
    loop {
        if !conn.wants_read(&core.cfg) {
            return;
        }
        match conn.stream.read(scratch) {
            Ok(0) => {
                conn.read_closed = true;
                return;
            }
            Ok(n) => {
                conn.last_activity = Instant::now();
                conn.buf.extend_from_slice(&scratch[..n]);
                parse_frames(core, conn);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
}

/// Consumes every complete frame in `conn.buf`, queuing one [`Req`] per
/// frame. A framing error queues a [`Req::Protocol`] *behind* the frames
/// that parsed before it (the error reply must not overtake their
/// responses) and stops all further reading.
fn parse_frames(core: &ShardCore, conn: &mut Conn) {
    let mut consumed = 0;
    while !conn.read_dead && conn.pending.len() < PENDING_CAP {
        let avail = conn.buf.len() - consumed;
        if avail < HEADER_LEN {
            break;
        }
        let header: [u8; HEADER_LEN] = conn.buf[consumed..consumed + HEADER_LEN]
            .try_into()
            .expect("slice length is HEADER_LEN");
        match protocol::parse_header(&header) {
            Err(e) => {
                conn.pending.push_back(Req::Protocol(e.to_string()));
                conn.read_dead = true;
            }
            Ok((type_byte, declared)) => {
                let total = HEADER_LEN + declared as usize;
                if avail < total {
                    break;
                }
                let payload = &conn.buf[consumed + HEADER_LEN..consumed + total];
                match protocol::decode_payload(type_byte, payload) {
                    Err(e) => {
                        conn.pending.push_back(Req::Protocol(e.to_string()));
                        conn.read_dead = true;
                    }
                    Ok(frame) => {
                        consumed += total;
                        conn.pending.push_back(match frame {
                            Frame::Ping => Req::Ping,
                            Frame::StatsRequest => Req::Stats,
                            Frame::QueryRequest { table_id, query } => Req::Query {
                                response: frame_type::QUERY_RESPONSE,
                                plan: WirePlan::Select { table_id, query },
                            },
                            Frame::PlannedQuery { plan } => Req::Query {
                                response: frame_type::PLANNED_RESPONSE,
                                plan,
                            },
                            Frame::BatchRequest { items } => Req::Batch {
                                items: items
                                    .into_iter()
                                    .map(|(table_id, query)| WirePlan::Select { table_id, query })
                                    .collect(),
                            },
                            Frame::Subscribe {
                                sub_id,
                                table_id,
                                query,
                            } => Req::Subscribe {
                                sub_id,
                                table_id,
                                query,
                            },
                            Frame::Unsubscribe { sub_id } => Req::Unsubscribe { sub_id },
                            Frame::FollowLog { table_id, have } => {
                                Req::FollowLog { table_id, have }
                            }
                            Frame::Pong
                            | Frame::QueryResponse { .. }
                            | Frame::BatchResponse { .. }
                            | Frame::StatsResponse(_)
                            | Frame::Error { .. }
                            | Frame::LogSegment { .. }
                            | Frame::Snapshot { .. }
                            | Frame::DeltaVo { .. }
                            | Frame::PlannedResponse { .. }
                            | Frame::ResyncRequired { .. } => Req::BadDirection,
                        });
                    }
                }
            }
        }
    }
    conn.buf.drain(..consumed);
    // The frame deadline covers exactly one reassembling frame: armed
    // when a partial frame is waiting for its tail — even behind complete
    // frames the pending cap held back, which is why the tail is scanned
    // rather than inferred from how the loop exited — reset whenever a
    // frame completed (the clock restarts per frame), cleared otherwise.
    // Complete-but-unparsed frames held back by the pending cap are the
    // client doing nothing wrong and get no deadline themselves.
    let partial = !conn.read_dead && tail_partial(&conn.buf);
    conn.frame_deadline = if !partial {
        None
    } else if consumed > 0 || conn.frame_deadline.is_none() {
        Some(Instant::now() + core.cfg.frame_timeout)
    } else {
        conn.frame_deadline
    };
}

/// Whether the buffer ends mid-frame: walks the complete (parsed-or-not)
/// frames at the front and reports a trailing fragment. A malformed
/// header stops the walk — that is a protocol error surfacing on the next
/// parse, not a frame reassembling.
fn tail_partial(buf: &[u8]) -> bool {
    let mut off = 0;
    loop {
        let avail = buf.len() - off;
        if avail == 0 {
            return false;
        }
        if avail < HEADER_LEN {
            return true;
        }
        let header: [u8; HEADER_LEN] = buf[off..off + HEADER_LEN]
            .try_into()
            .expect("slice length is HEADER_LEN");
        let Ok((_, declared)) = protocol::parse_header(&header) else {
            return false;
        };
        let total = HEADER_LEN + declared as usize;
        if avail < total {
            return true;
        }
        off += total;
    }
}

/// Alternates [`dispatch`] with [`parse_frames`] until the connection can
/// make no more progress. Parsing stops at [`PENDING_CAP`], so a client
/// that pipelines more frames than the cap in one burst leaves complete
/// frames sitting in `conn.buf`; dispatching frees pending slots, and
/// those frames must then be re-parsed here — no further read event will
/// arrive to do it (the socket is already drained). The same resumption
/// applies after a backpressure pause lifts or an in-flight answer lands.
fn pump(core: &ShardCore, conn: &mut Conn, token: u64) {
    loop {
        dispatch(core, conn, token);
        if conn.inflight
            || conn.dead
            || conn.read_dead
            || conn.close_after_flush
            || conn.buf.is_empty()
            || conn.pending.len() >= PENDING_CAP
            || conn.queued_bytes > core.cfg.write_queue_limit
        {
            return;
        }
        let before = (conn.pending.len(), conn.buf.len());
        parse_frames(core, conn);
        if (conn.pending.len(), conn.buf.len()) == before {
            return; // only a partial frame remains
        }
    }
}

/// [`answer`] with a panic guard. The pool's own `catch_unwind` keeps the
/// worker thread alive, but a panic escaping the job still swallows the
/// completion message — the connection's in-flight marker then never
/// clears and its request FIFO wedges forever. Catching here turns a
/// panicking query (a publisher bug, a poisoned-and-recovered structure in
/// a weird state) into an ordinary per-query error that completes back to
/// the shard like any other. (The join path in particular panics on a
/// referential-integrity violation between the two served tables.)
fn answer_guarded(inner: &Inner, plan: &WirePlan) -> Result<AnswerBlob, (ErrorCode, String)> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| answer(inner, plan)))
        .unwrap_or_else(|_| Err((ErrorCode::Internal, "query panicked".into())))
}

/// Drains the connection's request FIFO: cheap frames answer in place;
/// a query or batch goes to the worker pool and marks the connection
/// in-flight, parking the FIFO until the answer completes back.
fn dispatch(core: &ShardCore, conn: &mut Conn, token: u64) {
    while !conn.inflight && !conn.close_after_flush && !conn.dead {
        if conn.queued_bytes > core.cfg.write_queue_limit {
            return; // backpressure: resume once the client drains
        }
        let Some(req) = conn.pending.pop_front() else {
            return;
        };
        match req {
            Req::Ping => push_chunks(
                core,
                conn,
                vec![WriteChunk::owned(encode_frame(&Frame::Pong))],
            ),
            Req::Stats => {
                let snapshot: StatsSnapshot = core.inner.snapshot();
                push_chunks(
                    core,
                    conn,
                    vec![WriteChunk::owned(encode_frame(&Frame::StatsResponse(
                        snapshot,
                    )))],
                );
            }
            Req::BadDirection => {
                let message = "unexpected frame direction".into();
                let chunks = error_chunks(&core.inner, ErrorCode::BadFrame, message);
                push_chunks(core, conn, chunks);
            }
            Req::Protocol(message) => {
                let chunks = error_chunks(&core.inner, ErrorCode::BadFrame, message);
                push_chunks(core, conn, chunks);
                conn.close_after_flush = true;
            }
            Req::Query { response, plan } => {
                conn.inflight = true;
                let inner = Arc::clone(&core.inner);
                let shard = Arc::clone(&core.me);
                core.pool.execute(move || {
                    let chunks = match answer_guarded(&inner, &plan) {
                        Ok(blob) => response_chunks(response, &blob),
                        Err((code, message)) => error_chunks(&inner, code, message),
                    };
                    shard.push(Msg::Complete(token, chunks));
                });
            }
            Req::Subscribe {
                sub_id,
                table_id,
                query,
            } => {
                conn.inflight = true;
                let inner = Arc::clone(&core.inner);
                let shard = Arc::clone(&core.me);
                core.pool.execute(move || {
                    subscribe_job(&inner, &shard, token, sub_id, table_id, &query);
                });
            }
            Req::FollowLog { table_id, have } => {
                conn.inflight = true;
                let inner = Arc::clone(&core.inner);
                let shard = Arc::clone(&core.me);
                core.pool.execute(move || {
                    follow_job(&inner, &shard, token, table_id, have);
                });
            }
            Req::Unsubscribe { sub_id } => {
                // Inline on the shard thread: removing the registry entry
                // and queuing the ack atomically with respect to this
                // connection's write queue guarantees no delta for
                // `sub_id` follows the ack (fan-out pushes arriving later
                // fail the delivery-time `sub_alive` check).
                if core.inner.remove_range_sub(&core.me, token, sub_id) {
                    push_chunks(
                        core,
                        conn,
                        vec![WriteChunk::owned(encode_frame(&Frame::DeltaVo {
                            sub_id,
                            epoch: 0,
                            pieces: Vec::new(),
                        }))],
                    );
                } else {
                    let message = format!("no subscription with id {sub_id}");
                    let chunks = error_chunks(&core.inner, ErrorCode::BadQuery, message);
                    push_chunks(core, conn, chunks);
                }
            }
            Req::Batch { items } => {
                ServerStats::bump(&core.inner.stats.batches);
                if items.is_empty() {
                    let bytes = encode_batch_frame(&core.inner, &[]);
                    push_chunks(core, conn, vec![WriteChunk::owned(bytes)]);
                    continue;
                }
                conn.inflight = true;
                let state = Arc::new(BatchState {
                    slots: Mutex::new((0..items.len()).map(|_| None).collect()),
                    remaining: AtomicUsize::new(items.len()),
                    token,
                    shard: Arc::clone(&core.me),
                    inner: Arc::clone(&core.inner),
                });
                for (index, plan) in items.into_iter().enumerate() {
                    let state = Arc::clone(&state);
                    core.pool.execute(move || {
                        let item = answer_guarded(&state.inner, &plan);
                        if item.is_err() {
                            ServerStats::bump(&state.inner.stats.errors);
                        }
                        lock_recover(&state.slots)[index] = Some(item);
                        if state.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                            let answers: Vec<BatchAnswer> = lock_recover(&state.slots)
                                .drain(..)
                                .map(|slot| {
                                    slot.unwrap_or(Err((
                                        ErrorCode::Internal,
                                        "worker dropped the answer".into(),
                                    )))
                                })
                                .collect();
                            let bytes = encode_batch_frame(&state.inner, &answers);
                            state
                                .shard
                                .push(Msg::Complete(state.token, vec![WriteChunk::owned(bytes)]));
                        }
                    });
                }
            }
        }
    }
}
