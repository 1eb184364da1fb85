//! The event-driven publisher server: answers
//! [`QueryRequest`](crate::protocol::Frame::QueryRequest),
//! [`BatchRequest`](crate::protocol::Frame::BatchRequest) and
//! [`PlannedQuery`](crate::protocol::Frame::PlannedQuery) frames against
//! its registered [`SignedTable`]s, and serves hot plans from the VO
//! cache. Every query is a [`WirePlan`] by the time it reaches the one
//! `answer` function: the frame it arrived in only picks the type byte of
//! the response.
//!
//! Concurrency model (no async runtime in this environment — a hand-rolled
//! epoll readiness loop in the private `reactor` module):
//!
//! * **reactor shards** (one thread each, [`ServerConfig::shards`]) own
//!   the non-blocking listener and connection sockets: frame reassembly,
//!   bounded write queues with backpressure, idle/frame timeouts. Thread
//!   count is bounded by shards + workers, never by connection count.
//! * a shared **worker pool** runs every query the VO cache cannot answer
//!   fresh, and every batch item (the crypto is never on a reactor
//!   thread); answers complete back to the owning shard, which writes them
//!   in request order per connection. A fresh cache hit is answered in
//!   place by the shard that read the request.
//!
//! The **VO cache** is an LRU keyed on the plan's canonical fingerprint: a
//! select's key range is normalized against the table's domain first (so
//! `K < 100` and `K ≤ 99` are one entry) and the cached value is the
//! already-encoded `(result, vo)` pair — a hit bypasses the publisher
//! *and* the codec, whichever frame asked. An entry remembers the epochs
//! of the tables it was computed from and is dropped on the first lookup
//! after any of them moved on. Hit/miss/invalidation counters are
//! exported through [`Frame::StatsRequest`].

use crate::cache::LruCache;
use crate::pool::ThreadPool;
use crate::protocol::{self, ErrorCode, Frame, StatsSnapshot};
use crate::reactor::{self, Msg, ShardHandle, WriteChunk};
use adp_core::delta;
use adp_core::domain::Domain;
use adp_core::owner::{Mutation, SignedTable};
use adp_core::plan::{
    compute_plan_answer, encode_plan_answer, PlanAnswer, PlanAnswerError, WirePlan,
};
use adp_core::wire;
use adp_crypto::Signature;
use adp_relation::{KeyRange, SelectQuery};
use adp_store::log::{encode_record, LogRecord};
use adp_store::{Store, StoreError};
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// Locks a mutex, recovering from poisoning. A worker that panics while
/// holding a server lock (a publisher bug on one query, say) must not take
/// the whole service down: every subsequent request would otherwise meet a
/// `PoisonError` and panic in turn. The guarded structures stay usable
/// across such a panic — the cache and the table registry are only ever
/// mutated through operations that leave them structurally consistent — so
/// the right response is to keep serving, not to crash.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// [`lock_recover`] for read-locking an `RwLock`.
fn read_recover<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

/// [`lock_recover`] for write-locking an `RwLock`.
fn write_recover<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

/// Tuning knobs for [`Server::serve`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads answering queries and batch items (clamped to ≥ 1).
    pub workers: usize,
    /// VO cache capacity in entries; `0` disables caching.
    pub cache_capacity: usize,
    /// Reactor shards (I/O threads); `0` means one per available core.
    pub shards: usize,
    /// Patience for the rest of a frame once its first byte arrived.
    pub frame_timeout: Duration,
    /// Reap connections with no traffic for this long (`None` disables
    /// reaping). Reaps are counted by the `idle_reaped` stat.
    pub idle_timeout: Option<Duration>,
    /// Per-connection write-queue bound in bytes: past it the server
    /// stops reading from (and answering) the connection until the client
    /// drains responses; a client that never drains falls to the idle
    /// timeout instead of buffering unboundedly.
    pub write_queue_limit: usize,
    /// Largest delta push (encoded frame, in bytes) the server will ship
    /// to a range subscriber. A delta exceeding the effective bound —
    /// `min(max_push_bytes, MAX_PAYLOAD)` — terminates the subscription
    /// with a `ResyncRequired` push instead of being sent. Defaults to
    /// the protocol frame limit; tests lower it to exercise the resync
    /// path with small data.
    pub max_push_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            cache_capacity: 1024,
            shards: 0,
            frame_timeout: Duration::from_secs(30),
            idle_timeout: Some(Duration::from_secs(60)),
            write_queue_limit: 8 << 20,
            max_push_bytes: crate::protocol::MAX_PAYLOAD as usize,
        }
    }
}

/// Server counters and gauges (lock-free; read via
/// [`ServerHandle::stats`] or the wire's [`Frame::StatsRequest`]).
#[derive(Debug, Default)]
pub struct ServerStats {
    pub(crate) connections: AtomicU64,
    pub(crate) queries: AtomicU64,
    pub(crate) batches: AtomicU64,
    pub(crate) cache_hits: AtomicU64,
    pub(crate) cache_misses: AtomicU64,
    pub(crate) invalidations: AtomicU64,
    /// Gauge: connections currently registered with a reactor shard.
    pub(crate) open_connections: AtomicU64,
    /// Gauge: bytes queued across all per-connection write queues.
    pub(crate) queue_depth: AtomicU64,
    pub(crate) idle_reaped: AtomicU64,
    pub(crate) errors: AtomicU64,
    /// Gauge: live subscription-registry entries (range subscriptions
    /// plus log followers).
    pub(crate) subscriptions: AtomicU64,
    /// `DeltaVO` frames pushed to subscribers (the initial snapshot
    /// answering a `Subscribe` counts; unsubscribe acks do not).
    pub(crate) deltas_pushed: AtomicU64,
    /// Reconnections observed: `FollowLog` handshakes resuming from a
    /// `have` cursor, plus `Subscribe` registrations re-using a
    /// `(table_id, sub_id)` this server already saw (a self-healing
    /// subscriber re-subscribing after a drop or a resync).
    pub(crate) reconnects: AtomicU64,
    /// `ResyncRequired` frames pushed (subscriptions terminated because
    /// their delta could not be shipped).
    pub(crate) resyncs: AtomicU64,
    /// Connections closed by graceful drain.
    pub(crate) drains: AtomicU64,
    /// Reactor loop iterations across all shards. Not on the wire — a
    /// diagnostic proving idle connections cost zero steady-state wakeups
    /// (exported via [`ServerHandle::reactor_wakeups`]).
    pub(crate) wakeups: AtomicU64,
}

impl ServerStats {
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self, cache_entries: u64) -> StatsSnapshot {
        StatsSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cache_entries,
            invalidations: self.invalidations.load(Ordering::Relaxed),
            open_connections: self.open_connections.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            idle_reaped: self.idle_reaped.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            subscriptions: self.subscriptions.load(Ordering::Relaxed),
            deltas_pushed: self.deltas_pushed.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            resyncs: self.resyncs.load(Ordering::Relaxed),
            drains: self.drains.load(Ordering::Relaxed),
        }
    }
}

/// A response-tampering hook: receives the plan, a resolver from wire table
/// id to the table snapshot the answer was computed from, and the honest
/// un-encoded answer; returns what actually goes on the wire.
///
/// This exists for *fault injection*: integration tests mount the
/// Section 3.2 cheating strategies here (the resolver lets a strategy
/// re-query a [`Publisher`](adp_core::publisher::Publisher) for the rows
/// it splices in) to prove the remote verifier rejects every forgery
/// arriving through a real socket, whichever frame carried the query (see
/// `tests/remote_attack_matrix.rs`). A tampering server bypasses the VO
/// cache so forged and honest answers never mix.
pub type TamperFn = dyn for<'a> Fn(&WirePlan, &dyn Fn(u32) -> Option<&'a SignedTable>, PlanAnswer) -> PlanAnswer
    + Send
    + Sync;

/// Encoded `(result, vo)` pair as cached and written to sockets.
pub(crate) type AnswerBlob = Arc<(Vec<u8>, Vec<u8>)>;

/// A registered table: the currently-served snapshot plus its epoch,
/// bumped by every applied update. Cached answers remember the epochs they
/// were computed at; an epoch mismatch on lookup drops the entry lazily.
struct TableSlot {
    st: Arc<SignedTable>,
    epoch: u64,
}

/// A cached answer, valid only while every table its plan touches stays
/// at the epoch recorded here (in the plan's table order; a `Select`
/// leaves the second slot 0).
struct CachedAnswer {
    epochs: [u64; 2],
    blob: AnswerBlob,
}

/// Why [`ServerHandle::apply_update`] refused or failed.
#[derive(Debug)]
pub enum UpdateError {
    /// No table is registered under this id.
    UnknownTable(u32),
    /// The table was registered with [`Server::add_table`] (no backing
    /// store), so there is nothing durable to apply updates to.
    NotStoreBacked(u32),
    /// The store rejected the batch (verification failure, corrupt or
    /// unwritable log, …). The served table is unchanged.
    Store(StoreError),
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::UnknownTable(id) => write!(f, "no table with id {id}"),
            UpdateError::NotStoreBacked(id) => {
                write!(f, "table {id} is not store-backed; updates need a store")
            }
            UpdateError::Store(e) => write!(f, "store rejected the update: {e}"),
        }
    }
}

impl std::error::Error for UpdateError {}

impl From<StoreError> for UpdateError {
    fn from(e: StoreError) -> Self {
        UpdateError::Store(e)
    }
}

/// What a subscription-registry entry delivers.
pub(crate) enum SubKind {
    /// A mirror publisher receiving every applied batch as a `LogSegment`.
    Follower,
    /// A client receiving `DeltaVO` pushes for the closed key range
    /// `[lo, hi]` (normalized against the table's domain at registration).
    Range { sub_id: u32, lo: i64, hi: i64 },
}

/// One live subscription: which connection to push to and what it wants.
/// `(shard, token)` identifies the connection — tokens are per-shard and
/// never reused, so a stale entry can at worst push to nobody.
pub(crate) struct SubEntry {
    pub(crate) table_id: u32,
    pub(crate) shard: Arc<ShardHandle>,
    pub(crate) token: u64,
    pub(crate) kind: SubKind,
}

impl SubEntry {
    /// Whether this is range subscription `sub_id` of connection
    /// `(shard, token)`.
    fn is_range(&self, shard: &Arc<ShardHandle>, token: u64, sub_id: u32) -> bool {
        self.token == token
            && Arc::ptr_eq(&self.shard, shard)
            && matches!(self.kind, SubKind::Range { sub_id: s, .. } if s == sub_id)
    }
}

/// Everything reactor shards and pool workers share.
pub(crate) struct Inner {
    tables: RwLock<HashMap<u32, TableSlot>>,
    /// Backing stores for tables opened with [`Server::open_store`]
    /// (absent for purely in-memory tables).
    stores: Mutex<HashMap<u32, Store>>,
    cache: Option<Mutex<LruCache<Vec<u8>, CachedAnswer>>>,
    /// The subscription registry. Lock ordering: `stores` → `tables` →
    /// `subs`, and `tables` is never *held* while acquiring `subs`
    /// (registration jobs take `subs` first, then read `tables`, so the
    /// update path must release `tables` before fanning out). Every push
    /// to a subscriber — including the registration response itself — is
    /// enqueued while holding `subs`, which is what makes the per-
    /// connection wire order equal epoch order.
    pub(crate) subs: Mutex<Vec<SubEntry>>,
    /// Every `(table_id, sub_id)` ever registered, kept after the entry
    /// dies so a re-registration is recognizable as a reconnect (the
    /// `reconnects` stat). Grows with distinct ids, not connections.
    seen_subs: Mutex<std::collections::HashSet<(u32, u32)>>,
    pub(crate) stats: ServerStats,
    tamper: Option<Box<TamperFn>>,
    /// [`ServerConfig::max_push_bytes`], checked on the fan-out path.
    max_push_bytes: usize,
}

impl Inner {
    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        let cache_entries = self
            .cache
            .as_ref()
            .map_or(0, |c| lock_recover(c).len() as u64);
        self.stats.snapshot(cache_entries)
    }

    /// Whether the range subscription `sub_id` on `(shard, token)` is
    /// still registered — checked at push *delivery* so no delta lands on
    /// the wire after an unsubscribe ack.
    pub(crate) fn sub_alive(&self, shard: &Arc<ShardHandle>, token: u64, sub_id: u32) -> bool {
        lock_recover(&self.subs)
            .iter()
            .any(|e| e.is_range(shard, token, sub_id))
    }

    /// Removes one range subscription (the `Unsubscribe` path). Returns
    /// whether an entry was actually removed.
    pub(crate) fn remove_range_sub(
        &self,
        shard: &Arc<ShardHandle>,
        token: u64,
        sub_id: u32,
    ) -> bool {
        let mut subs = lock_recover(&self.subs);
        let before = subs.len();
        subs.retain(|e| !e.is_range(shard, token, sub_id));
        let removed = before != subs.len();
        if removed {
            self.stats.subscriptions.fetch_sub(1, Ordering::Relaxed);
        }
        removed
    }

    /// Drops every registry entry belonging to `(shard, token)` — called
    /// when the connection closes (drained, reaped, or broken).
    pub(crate) fn purge_conn_subs(&self, shard: &Arc<ShardHandle>, token: u64) {
        let mut subs = lock_recover(&self.subs);
        let before = subs.len();
        subs.retain(|e| !(e.token == token && Arc::ptr_eq(&e.shard, shard)));
        let removed = (before - subs.len()) as u64;
        if removed > 0 {
            self.stats
                .subscriptions
                .fetch_sub(removed, Ordering::Relaxed);
        }
    }
}

/// Writes the cache key into `key` (cleared first): the plan's canonical
/// fingerprint, with a `Select`'s range replaced by its domain-normalized
/// closed form (`domain` is the plan's first table's) so syntactically
/// different ranges with identical semantics share an entry.
/// Trivially-empty ranges collapse to one key per (filters, projection,
/// distinct) combination, marked by the unbounded range — a non-empty
/// range always normalizes to a closed one, so the marker is free.
///
/// The key says nothing about the frame the plan arrived in: the cached
/// blob is framing-independent, so a `QueryRequest`, a `BatchRequest` item
/// and a `PlannedQuery{Select}` for one canonical query share an entry.
/// Two *distinct* plans over the same key range (different filters,
/// projection, DISTINCT, or shape) never do — their fingerprints differ.
/// Allocates only if `key` must grow.
fn cache_key_into(plan: &WirePlan, domain: &Domain, key: &mut Vec<u8>) {
    let range = match plan {
        WirePlan::Select { query, .. } => Some(
            domain
                .normalize(&query.range)
                .map_or(KeyRange::all(), |b| KeyRange::closed(b.alpha, b.beta)),
        ),
        WirePlan::PkFkJoin { .. } => None,
    };
    key.clear();
    plan.fingerprint_into(range.as_ref(), key);
}

/// The tables a plan reads, in plan order: `ids[..n]`.
fn plan_tables(plan: &WirePlan) -> ([u32; 2], usize) {
    match plan {
        WirePlan::Select { table_id, .. } => ([*table_id, 0], 1),
        WirePlan::PkFkJoin {
            fk_table, pk_table, ..
        } => ([*fk_table, *pk_table], 2),
    }
}

/// The VO cache, unless it is off or a tamper hook is mounted (forged and
/// honest answers must never mix).
fn live_cache(inner: &Inner) -> Option<&Mutex<LruCache<Vec<u8>, CachedAnswer>>> {
    inner.cache.as_ref().filter(|_| inner.tamper.is_none())
}

/// The reactor's probe: a fresh cached answer to `plan`, counted as a hit
/// and a query, or `None`, which leaves everything — the miss, a stale
/// entry, an unknown table — to [`answer`] on the pool, counted there.
/// `key` is the caller's reusable buffer, so a probe allocates nothing.
pub(crate) fn cached_answer(
    inner: &Inner,
    plan: &WirePlan,
    key: &mut Vec<u8>,
) -> Option<AnswerBlob> {
    let cache = live_cache(inner)?;
    let (ids, n) = plan_tables(plan);
    let mut epochs = [0; 2];
    {
        let tables = read_recover(&inner.tables);
        for (epoch, id) in epochs.iter_mut().zip(&ids[..n]) {
            *epoch = tables.get(id)?.epoch;
        }
        cache_key_into(plan, tables.get(&ids[0])?.st.domain(), key);
    }
    let mut cache = lock_recover(cache);
    let hit = cache
        .get(key.as_slice())
        .filter(|hit| hit.epochs == epochs)?;
    ServerStats::bump(&inner.stats.cache_hits);
    ServerStats::bump(&inner.stats.queries);
    Some(Arc::clone(&hit.blob))
}

/// Answers one query — a select or a pk-fk join, from whichever frame:
/// resolves every table the plan references, consults the VO cache unless
/// a tamper hook is mounted, computes the answer and encodes it. Cached
/// answers carry the table epochs they were computed at; a stale entry
/// (one of its tables was updated since) is dropped lazily here and
/// counted as an invalidation.
pub(crate) fn answer(inner: &Inner, plan: &WirePlan) -> Result<AnswerBlob, (ErrorCode, String)> {
    let (ids, n) = plan_tables(plan);
    let unknown = |id: u32| (ErrorCode::UnknownTable, format!("no table with id {id}"));
    let mut served = Vec::with_capacity(n);
    let mut epochs = [0; 2];
    {
        let tables = read_recover(&inner.tables);
        for (epoch, &id) in epochs.iter_mut().zip(&ids[..n]) {
            let slot = tables.get(&id).ok_or_else(|| unknown(id))?;
            served.push((id, Arc::clone(&slot.st)));
            *epoch = slot.epoch;
        }
    }
    let cache = live_cache(inner);
    let key = cache.map(|_| {
        let mut key = Vec::new();
        cache_key_into(plan, served[0].1.domain(), &mut key);
        key
    });
    if let (Some(cache), Some(key)) = (cache, &key) {
        let mut cache = lock_recover(cache);
        match cache.get(key) {
            Some(hit) if hit.epochs == epochs => {
                ServerStats::bump(&inner.stats.cache_hits);
                ServerStats::bump(&inner.stats.queries);
                return Ok(Arc::clone(&hit.blob));
            }
            Some(_) => {
                // Stale: a table moved on since this was cached.
                cache.remove(key);
                ServerStats::bump(&inner.stats.invalidations);
                ServerStats::bump(&inner.stats.cache_misses);
            }
            None => ServerStats::bump(&inner.stats.cache_misses),
        }
    }
    let resolve = |id: u32| {
        served
            .iter()
            .find(|(served_id, _)| *served_id == id)
            .map(|(_, st)| &**st)
    };
    let answer = compute_plan_answer(plan, resolve).map_err(|e| match e {
        PlanAnswerError::UnknownTable(id) => unknown(id),
        PlanAnswerError::Publish(e) => (ErrorCode::BadQuery, e.to_string()),
    })?;
    let answer = match &inner.tamper {
        Some(tamper) => tamper(plan, &resolve, answer),
        None => answer,
    };
    let blob: AnswerBlob = Arc::new(encode_plan_answer(&answer));
    // An answer that cannot fit one frame must not reach the write path
    // (write_frame would error and desync nothing, but the client deserves
    // a per-query error instead of a dropped connection).
    let framed_len = blob.0.len() as u64 + blob.1.len() as u64 + 8;
    if framed_len > crate::protocol::MAX_PAYLOAD as u64 {
        return Err((
            ErrorCode::Internal,
            format!("answer of {framed_len} bytes exceeds the frame payload cap"),
        ));
    }
    if let (Some(key), Some(cache)) = (key, cache) {
        // If a table was updated while we computed, the recorded epochs
        // are already stale and the next lookup will drop the entry.
        lock_recover(cache).insert(
            key,
            CachedAnswer {
                epochs,
                blob: Arc::clone(&blob),
            },
        );
    }
    ServerStats::bump(&inner.stats.queries);
    Ok(blob)
}

/// A publisher server under construction: register tables, then
/// [`Server::serve`].
///
/// ```no_run
/// use adp_server::{Server, ServerConfig};
/// # fn signed_table() -> adp_core::owner::SignedTable { unimplemented!() }
/// let mut server = Server::new(ServerConfig::default());
/// server.add_table(0, signed_table());
/// let handle = server.serve("127.0.0.1:0").unwrap();
/// println!("serving on {}", handle.addr());
/// handle.shutdown();
/// ```
pub struct Server {
    config: ServerConfig,
    tables: HashMap<u32, TableSlot>,
    stores: HashMap<u32, Store>,
    tamper: Option<Box<TamperFn>>,
}

impl Server {
    /// Creates a server with the given configuration and no tables.
    pub fn new(config: ServerConfig) -> Self {
        Server {
            config,
            tables: HashMap::new(),
            stores: HashMap::new(),
            tamper: None,
        }
    }

    /// Registers a signed table under `table_id` (replacing any previous
    /// registration of that id).
    pub fn add_table(&mut self, table_id: u32, st: SignedTable) -> &mut Self {
        self.add_shared_table(table_id, Arc::new(st))
    }

    /// Registers an already-shared signed table under `table_id`. Warms the
    /// owner key's Montgomery context so the first answer (which aggregates
    /// signatures mod `n`) doesn't pay the one-time `R² mod n` setup on a
    /// client-visible request.
    pub fn add_shared_table(&mut self, table_id: u32, st: Arc<SignedTable>) -> &mut Self {
        st.public_key().precompute();
        self.stores.remove(&table_id);
        self.tables.insert(table_id, TableSlot { st, epoch: 0 });
        self
    }

    /// Opens an `adp-store` directory, audits it against the owner's
    /// public key (a publisher must not serve data it cannot prove —
    /// `O(n)` signature verifications, refused with
    /// [`StoreError::AuditFailed`]), and registers its table under
    /// `table_id`. Store-backed tables accept live updates through
    /// [`ServerHandle::apply_update`]: each applied batch is verified,
    /// appended to the store's update log, and atomically swapped in with
    /// a bumped epoch (invalidating cached VOs lazily).
    pub fn open_store(
        &mut self,
        table_id: u32,
        dir: impl AsRef<Path>,
    ) -> Result<&mut Self, StoreError> {
        let store = Store::open(dir)?;
        if !store.audit() {
            return Err(StoreError::AuditFailed);
        }
        Ok(self.add_store(table_id, store))
    }

    /// Registers an already-opened store under `table_id` (the
    /// [`Server::open_store`] workhorse; useful when the caller audited or
    /// inspected the store first).
    pub fn add_store(&mut self, table_id: u32, store: Store) -> &mut Self {
        store.table().public_key().precompute();
        self.tables.insert(
            table_id,
            TableSlot {
                st: store.table_arc(),
                epoch: store.next_seq(),
            },
        );
        self.stores.insert(table_id, store);
        self
    }

    /// Mounts a fault-injection hook applied to every answer before it is
    /// encoded (see [`TamperFn`]); disables the VO cache.
    pub fn set_tamper(
        &mut self,
        tamper: impl for<'a> Fn(&WirePlan, &dyn Fn(u32) -> Option<&'a SignedTable>, PlanAnswer) -> PlanAnswer
            + Send
            + Sync
            + 'static,
    ) -> &mut Self {
        self.tamper = Some(Box::new(tamper));
        self
    }

    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving
    /// in background threads: the reactor shards plus the worker pool —
    /// thread count never grows with connection count. The returned
    /// handle owns the server: dropping it shuts everything down.
    pub fn serve(self, addr: impl ToSocketAddrs) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            tables: RwLock::new(self.tables),
            stores: Mutex::new(self.stores),
            cache: (self.config.cache_capacity > 0)
                .then(|| Mutex::new(LruCache::new(self.config.cache_capacity))),
            subs: Mutex::new(Vec::new()),
            seen_subs: Mutex::new(std::collections::HashSet::new()),
            stats: ServerStats::default(),
            tamper: self.tamper,
            max_push_bytes: self.config.max_push_bytes,
        });
        let pool = Arc::new(ThreadPool::new(self.config.workers));
        let shutdown = Arc::new(AtomicBool::new(false));
        let drain = Arc::new(AtomicBool::new(false));
        let nshards = if self.config.shards == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.config.shards
        };
        let (shards, shard_threads) = reactor::spawn_shards(
            listener,
            nshards,
            Arc::clone(&inner),
            Arc::clone(&pool),
            Arc::clone(&shutdown),
            Arc::clone(&drain),
            self.config.clone(),
        )?;
        Ok(ServerHandle {
            addr,
            inner,
            shutdown,
            drain,
            shards,
            shard_threads,
            _pool: pool,
        })
    }
}

pub(crate) type BatchAnswer = Result<AnswerBlob, (ErrorCode, String)>;

/// Encodes a batch response, enforcing the frame payload cap on the
/// *aggregate*: items are answered in order until the budget runs out,
/// and any item that would overflow the frame is downgraded to a per-item
/// error — the client gets an explained partial failure instead of a
/// dropped connection. (Each item is individually bounded by `answer`,
/// but N individually-legal answers can still sum past the cap.)
pub(crate) fn encode_batch_frame(inner: &Inner, answers: &[BatchAnswer]) -> Vec<u8> {
    const OVERFLOW_MSG: &str = "batch response exceeds the frame payload cap";
    // Every item is pre-reserved one error-sized slot (error messages are
    // short; 256 bytes is generous and 65536 items × 256 B ≪ the cap), so
    // downgrades can never themselves overflow. Ok blobs then draw their
    // extra size from what remains, in request order.
    const ERR_SLOT: u64 = 256;
    let mut budget = (crate::protocol::MAX_PAYLOAD as u64 - 4) // item-count field
        .saturating_sub(ERR_SLOT * answers.len() as u64);
    let refs: Vec<crate::protocol::BatchItemRef<'_>> = answers
        .iter()
        .map(|item| match item {
            Ok(blob) => {
                let cost = 1 + 4 + blob.0.len() as u64 + 4 + blob.1.len() as u64;
                match cost.checked_sub(ERR_SLOT).filter(|extra| *extra <= budget) {
                    Some(extra) => {
                        budget -= extra;
                        Ok((blob.0.as_slice(), blob.1.as_slice()))
                    }
                    None if cost <= ERR_SLOT => Ok((blob.0.as_slice(), blob.1.as_slice())),
                    None => {
                        ServerStats::bump(&inner.stats.errors);
                        Err((ErrorCode::Internal, OVERFLOW_MSG))
                    }
                }
            }
            Err((code, message)) => Err((*code, message.as_str())),
        })
        .collect();
    let mut out = Vec::new();
    crate::protocol::write_batch_response(&mut out, &refs).expect("writing to a Vec cannot fail");
    out
}

/// Encodes a [`Frame::Error`] into one write chunk and counts it.
pub(crate) fn error_chunks(inner: &Inner, code: ErrorCode, message: String) -> Vec<WriteChunk> {
    ServerStats::bump(&inner.stats.errors);
    vec![WriteChunk::owned(protocol::encode_frame(&Frame::Error {
        code,
        message,
    }))]
}

/// Pool job for a [`Frame::Subscribe`]: validates the query (pure key
/// range only), registers the subscription, and completes the request
/// with an initial [`Frame::DeltaVo`] whose single piece proves the whole
/// subscribed range at the current epoch.
///
/// Registration and the initial response happen under the `subs` lock, so
/// relative to the update path's fan-out (which also pushes under `subs`)
/// the subscriber's wire sees the initial snapshot strictly before any
/// delta with a later epoch, and never misses an epoch in between.
pub(crate) fn subscribe_job(
    inner: &Inner,
    shard: &Arc<ShardHandle>,
    token: u64,
    sub_id: u32,
    table_id: u32,
    query: &SelectQuery,
) {
    let complete = |chunks| shard.push(Msg::Complete(token, chunks));
    if !query.filters.is_empty()
        || query.projection != adp_relation::Projection::All
        || query.distinct
    {
        return complete(error_chunks(
            inner,
            ErrorCode::BadQuery,
            "subscriptions take a pure key-range query (no filters, projection, or DISTINCT)"
                .into(),
        ));
    }
    let mut subs = lock_recover(&inner.subs);
    if subs.iter().any(|e| e.is_range(shard, token, sub_id)) {
        drop(subs);
        return complete(error_chunks(
            inner,
            ErrorCode::BadQuery,
            format!("subscription id {sub_id} is already registered on this connection"),
        ));
    }
    let (st, epoch) = {
        let tables = read_recover(&inner.tables);
        match tables.get(&table_id) {
            Some(slot) => (Arc::clone(&slot.st), slot.epoch),
            None => {
                drop(tables);
                drop(subs);
                return complete(error_chunks(
                    inner,
                    ErrorCode::UnknownTable,
                    format!("no table with id {table_id}"),
                ));
            }
        }
    };
    let Some(bounds) = st.domain().normalize(&query.range) else {
        drop(subs);
        return complete(error_chunks(
            inner,
            ErrorCode::BadQuery,
            "subscribed range is empty under the table's domain".into(),
        ));
    };
    let (lo, hi) = (bounds.alpha, bounds.beta);
    // The registration response: one self-contained piece proving the
    // whole subscribed range right now. Deltas only refresh what later
    // batches dirty, so this is the subscriber's baseline.
    let frame = match delta::build_delta_pieces(&st, &[(lo, hi)], lo, hi) {
        Ok(pieces) => delta_frame(sub_id, epoch, pieces).map_err(|e| e.to_string()),
        Err(e) => Err(e.to_string()),
    };
    let buf = match frame {
        Ok(buf) => buf,
        Err(e) => {
            drop(subs);
            return complete(error_chunks(inner, ErrorCode::Internal, e));
        }
    };
    subs.push(SubEntry {
        table_id,
        shard: Arc::clone(shard),
        token,
        kind: SubKind::Range { sub_id, lo, hi },
    });
    if !lock_recover(&inner.seen_subs).insert((table_id, sub_id)) {
        ServerStats::bump(&inner.stats.reconnects);
    }
    inner.stats.subscriptions.fetch_add(1, Ordering::Relaxed);
    ServerStats::bump(&inner.stats.deltas_pushed);
    complete(vec![WriteChunk::owned(buf)]);
}

/// Encodes a [`Frame::DeltaVo`] carrying one self-contained
/// `(result, vo)` proof per piece.
fn delta_frame(sub_id: u32, epoch: u64, pieces: Vec<delta::DeltaPiece>) -> io::Result<Vec<u8>> {
    let pieces = pieces
        .into_iter()
        .map(|p| protocol::DeltaPiece {
            lo: p.lo,
            hi: p.hi,
            result: wire::encode_records(&p.records),
            vo: wire::encode_vo(&p.vo),
        })
        .collect();
    protocol::frame_bytes(&Frame::DeltaVo {
        sub_id,
        epoch,
        pieces,
    })
}

/// Pool job for a [`Frame::FollowLog`]: answers the handshake with either
/// the backlog of signed log records (resume) or a bootstrap snapshot,
/// and registers the connection as a [`SubKind::Follower`] so every batch
/// applied from here on is shipped to it as a `LogSegment`.
///
/// The `stores` lock is held across reading the backlog *and* registering
/// the entry: [`ServerHandle::apply_update`] holds `stores` for the whole
/// apply-plus-fan-out, so no batch can land between the backlog we send
/// and the first live segment the follower receives.
pub(crate) fn follow_job(
    inner: &Inner,
    shard: &Arc<ShardHandle>,
    token: u64,
    table_id: u32,
    have: Option<u64>,
) {
    let complete = |chunks| shard.push(Msg::Complete(token, chunks));
    if have.is_some() {
        // A resume cursor means this follower held (part of) the log
        // before: it is reconnecting, not bootstrapping.
        ServerStats::bump(&inner.stats.reconnects);
    }
    let stores = lock_recover(&inner.stores);
    let Some(store) = stores.get(&table_id) else {
        drop(stores);
        let known = read_recover(&inner.tables).contains_key(&table_id);
        let (code, msg) = if known {
            (
                ErrorCode::BadQuery,
                format!("table {table_id} is not store-backed; nothing to follow"),
            )
        } else {
            (
                ErrorCode::UnknownTable,
                format!("no table with id {table_id}"),
            )
        };
        return complete(error_chunks(inner, code, msg));
    };
    let response = match have {
        None => Frame::Snapshot {
            table_id,
            snapshot: store.snapshot_bytes(),
        },
        Some(h) if h > store.next_seq() => {
            let msg = format!(
                "resume point {h} is ahead of the log (next_seq {})",
                store.next_seq()
            );
            drop(stores);
            return complete(error_chunks(inner, ErrorCode::BadQuery, msg));
        }
        Some(h) => match store.log_records_from(h) {
            // Backlog available from `h` (possibly empty: fully caught up).
            Ok(Some(records)) => Frame::LogSegment { table_id, records },
            // `h` predates the compaction horizon: re-bootstrap.
            Ok(None) => Frame::Snapshot {
                table_id,
                snapshot: store.snapshot_bytes(),
            },
            Err(e) => {
                drop(stores);
                return complete(error_chunks(inner, ErrorCode::Internal, e.to_string()));
            }
        },
    };
    let buf = match protocol::frame_bytes(&response) {
        Ok(buf) => buf,
        Err(e) => {
            drop(stores);
            return complete(error_chunks(inner, ErrorCode::Internal, e.to_string()));
        }
    };
    {
        let mut subs = lock_recover(&inner.subs);
        subs.push(SubEntry {
            table_id,
            shard: Arc::clone(shard),
            token,
            kind: SubKind::Follower,
        });
        inner.stats.subscriptions.fetch_add(1, Ordering::Relaxed);
        complete(vec![WriteChunk::owned(buf)]);
    }
    drop(stores);
}

/// Pushes one applied batch to every subscription of `table_id`:
/// followers get the signed log record as a `LogSegment`; range
/// subscribers get a [`Frame::DeltaVo`] with one self-contained proof per
/// dirty interval intersecting their range (none → no push). Called from
/// [`ServerHandle::apply_update`] with `stores` held and `tables`
/// released; takes `subs` itself.
pub(crate) fn fan_out(
    inner: &Inner,
    table_id: u32,
    seq: u64,
    epoch: u64,
    fresh: &SignedTable,
    ops: &[Mutation],
    resigned: &[(u32, Signature)],
) {
    let mut subs = lock_recover(&inner.subs);
    let has_follower = subs
        .iter()
        .any(|e| e.table_id == table_id && matches!(e.kind, SubKind::Follower));
    let has_range = subs
        .iter()
        .any(|e| e.table_id == table_id && matches!(e.kind, SubKind::Range { .. }));
    if !has_follower && !has_range {
        return;
    }
    // One encoded LogSegment serves every follower.
    let segment = has_follower
        .then(|| {
            let records = encode_record(&LogRecord {
                seq,
                ops: ops.to_vec(),
                resigned: resigned.to_vec(),
            });
            protocol::frame_bytes(&Frame::LogSegment { table_id, records })
                .map_err(|_| ServerStats::bump(&inner.stats.errors))
                .ok()
        })
        .flatten();
    let intervals = if has_range {
        delta::dirty_intervals(fresh, resigned)
    } else {
        Vec::new()
    };
    // Subscriptions terminated this fan-out (their delta could not be
    // shipped): removed from the registry after the loop.
    let mut resynced: Vec<(Arc<ShardHandle>, u64, u32)> = Vec::new();
    for entry in subs.iter() {
        if entry.table_id != table_id {
            continue;
        }
        match entry.kind {
            SubKind::Follower => {
                if let Some(frame) = &segment {
                    entry.shard.push(Msg::Push {
                        token: entry.token,
                        sub_id: None,
                        chunks: vec![WriteChunk::owned(frame.clone())],
                    });
                }
            }
            SubKind::Range { sub_id, lo, hi } => {
                let pieces = match delta::build_delta_pieces(fresh, &intervals, lo, hi) {
                    Ok(pieces) => pieces,
                    Err(_) => {
                        ServerStats::bump(&inner.stats.errors);
                        continue;
                    }
                };
                if pieces.is_empty() {
                    continue;
                }
                let frame = delta_frame(sub_id, epoch, pieces)
                    .ok()
                    .filter(|buf| buf.len() <= inner.max_push_bytes);
                if let Some(buf) = frame {
                    ServerStats::bump(&inner.stats.deltas_pushed);
                    entry.shard.push(Msg::Push {
                        token: entry.token,
                        sub_id: Some(sub_id),
                        chunks: vec![WriteChunk::owned(buf)],
                    });
                } else {
                    // A delta too large for one frame (or past the
                    // configured push bound) cannot be shipped — it is
                    // not split. Silently skipping it would leave the
                    // subscriber's mirror stale with no signal, so the
                    // subscription dies loudly instead: the client gets
                    // a `ResyncRequired` push and must re-subscribe for
                    // a fresh verified baseline.
                    ServerStats::bump(&inner.stats.errors);
                    ServerStats::bump(&inner.stats.resyncs);
                    if let Ok(buf) = protocol::frame_bytes(&Frame::ResyncRequired { sub_id, epoch })
                    {
                        // `sub_id: None`: the entry is being removed,
                        // so the delivery-time liveness check for
                        // range pushes would drop this frame.
                        entry.shard.push(Msg::Push {
                            token: entry.token,
                            sub_id: None,
                            chunks: vec![WriteChunk::owned(buf)],
                        });
                    }
                    resynced.push((Arc::clone(&entry.shard), entry.token, sub_id));
                }
            }
        }
    }
    if !resynced.is_empty() {
        subs.retain(|e| {
            !resynced
                .iter()
                .any(|(shard, token, sub_id)| e.is_range(shard, *token, *sub_id))
        });
        inner
            .stats
            .subscriptions
            .fetch_sub(resynced.len() as u64, Ordering::Relaxed);
    }
}

/// A running server. Dropping the handle (or calling
/// [`ServerHandle::shutdown`]) wakes every reactor shard, which closes
/// its connections and exits; the worker pool then drains on drop.
pub struct ServerHandle {
    addr: SocketAddr,
    inner: Arc<Inner>,
    shutdown: Arc<AtomicBool>,
    drain: Arc<AtomicBool>,
    shards: Vec<Arc<ShardHandle>>,
    shard_threads: Vec<JoinHandle<()>>,
    /// Kept so the pool outlives the shards: in-flight worker jobs may
    /// still complete (harmlessly) into a shard's queue during shutdown.
    _pool: Arc<ThreadPool>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the server counters (same numbers the wire's
    /// `StatsRequest` reports).
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.snapshot()
    }

    /// Total reactor loop iterations across all shards since start. A
    /// diagnostic, not a wire stat: idle connections park in `epoll_wait`
    /// with their deadlines in a timer heap, so a server with only idle
    /// connections shows **zero** growth here (the old thread-per-
    /// connection core woke every connection twice a second).
    pub fn reactor_wakeups(&self) -> u64 {
        self.inner.stats.wakeups.load(Ordering::Relaxed)
    }

    /// The current epoch of a served table (bumps with every applied
    /// update; cached answers from older epochs are dropped on lookup).
    pub fn table_epoch(&self, table_id: u32) -> Option<u64> {
        read_recover(&self.inner.tables)
            .get(&table_id)
            .map(|slot| slot.epoch)
    }

    /// Applies an owner-produced update batch to a store-backed table
    /// **while serving**: the batch (canonical `ops` plus the `O(k)`
    /// re-signed signatures, exactly as `Owner::apply_batch` reported
    /// them) is verified and appended to the store's update log, then the
    /// new table is swapped in atomically and the table's epoch bumped —
    /// in-flight queries keep the old snapshot, later ones see the new
    /// one, and stale VO-cache entries are dropped lazily on lookup.
    ///
    /// After the swap the batch **fans out** to the subscription registry:
    /// every follower of the table receives the signed log record as a
    /// `LogSegment`, and every range subscriber whose range intersects the
    /// batch's dirty intervals receives an incremental `DeltaVO` at the
    /// new epoch. The `stores` lock serializes updates, so subscribers see
    /// epochs in order.
    ///
    /// Returns the table's new epoch. On error nothing changes.
    pub fn apply_update(
        &self,
        table_id: u32,
        ops: &[Mutation],
        resigned: &[(u32, Signature)],
    ) -> Result<u64, UpdateError> {
        let mut stores = lock_recover(&self.inner.stores);
        let known = read_recover(&self.inner.tables).contains_key(&table_id);
        let store = stores.get_mut(&table_id).ok_or(if known {
            UpdateError::NotStoreBacked(table_id)
        } else {
            UpdateError::UnknownTable(table_id)
        })?;
        store.apply_replayed(ops, resigned)?;
        let seq = store.next_seq() - 1;
        let fresh = store.table_arc();
        // Scoped so the tables write-lock is released before fan-out takes
        // `subs` (registration jobs acquire `subs` before reading
        // `tables`; holding both here would deadlock against them).
        let (epoch, previous) = {
            let mut tables = write_recover(&self.inner.tables);
            let slot = tables
                .get_mut(&table_id)
                .expect("store-backed table is registered");
            slot.epoch += 1;
            (
                slot.epoch,
                std::mem::replace(&mut slot.st, Arc::clone(&fresh)),
            )
        };
        fan_out(&self.inner, table_id, seq, epoch, &fresh, ops, resigned);
        // The registry's handle to the previous epoch is often the last
        // one: let it go only now, so whatever the batch replaced is freed
        // with neither `tables` (every reader's lookup) nor `stores` held.
        drop(stores);
        drop(previous);
        Ok(epoch)
    }

    /// Stops accepting, joins every thread, and returns once the server is
    /// fully down.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    /// Graceful shutdown: stops accepting immediately (the listener
    /// closes), lets every connection finish the requests it already sent
    /// and flush its write queue, then closes it — each such close counts
    /// in the `drains` stat. Once every connection is gone (or `timeout`
    /// elapses, whichever is first) the server shuts down fully. Returns
    /// `true` if every connection drained within the timeout, plus the
    /// final counter snapshot (taken after the drain, so it includes the
    /// `drains` count itself).
    pub fn drain(mut self, timeout: Duration) -> (bool, StatsSnapshot) {
        self.drain.store(true, Ordering::SeqCst);
        for shard in &self.shards {
            shard.wake();
        }
        let deadline = std::time::Instant::now() + timeout;
        let flushed = loop {
            if self.inner.stats.open_connections.load(Ordering::Relaxed) == 0 {
                break true;
            }
            if std::time::Instant::now() >= deadline {
                break false;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        let stats = self.inner.snapshot();
        self.shutdown_inner();
        (flushed, stats)
    }

    fn shutdown_inner(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // One wake byte per shard replaces the old throwaway
        // self-connection hack: each shard sees the flag on wakeup,
        // closes its connections, and exits.
        for shard in &self.shards {
            shard.wake();
        }
        for thread in self.shard_threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adp_core::plan::verify_plan;
    use adp_core::prelude::*;
    use adp_relation::{
        Column, CompareOp, Predicate, Projection, Record, Schema, Table, Value, ValueType,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_owner() -> Owner {
        Owner::new(512, &mut StdRng::seed_from_u64(0x9015))
    }

    fn row(k: i64) -> Record {
        Record::new(vec![Value::Int(k), Value::Int(k % 3)])
    }

    /// A table `(k, v)` keyed on `k`, holding `keys`.
    fn signed(owner: &Owner, name: &str, keys: &[i64]) -> SignedTable {
        let columns = ["k", "v"].map(|c| Column::new(c, ValueType::Int));
        let mut t = Table::new(name, Schema::new(columns.to_vec(), "k"));
        for k in keys {
            t.insert(row(*k)).unwrap();
        }
        owner
            .sign_table(t, Domain::new(0, 1_000), SchemeConfig::default())
            .unwrap()
    }

    fn select(table_id: u32, query: SelectQuery) -> WirePlan {
        WirePlan::Select { table_id, query }
    }

    /// Table 0's key as a foreign key into table 1's.
    fn join(fk_range: KeyRange) -> WirePlan {
        WirePlan::PkFkJoin {
            fk_table: 0,
            pk_table: 1,
            fk_range,
            fk_projection: Projection::All,
            pk_projection: Projection::All,
        }
    }

    /// Tables 0 and 1, both holding keys 5, 15, …, 45 at epoch 0.
    fn test_inner() -> Inner {
        let owner = test_owner();
        let keys = [5, 15, 25, 35, 45];
        let tables = [signed(&owner, "t", &keys), signed(&owner, "p", &keys)]
            .into_iter()
            .zip(0u32..)
            .map(|(st, id)| {
                let st = Arc::new(st);
                (id, TableSlot { st, epoch: 0 })
            })
            .collect();
        Inner {
            tables: RwLock::new(tables),
            stores: Mutex::new(HashMap::new()),
            cache: Some(Mutex::new(LruCache::new(8))),
            subs: Mutex::new(Vec::new()),
            seen_subs: Mutex::new(std::collections::HashSet::new()),
            stats: ServerStats::default(),
            tamper: None,
            max_push_bytes: crate::protocol::MAX_PAYLOAD as usize,
        }
    }

    /// One panicking worker must not poison the whole service: the cache
    /// and registry locks recover from poisoning, so requests after the
    /// panic still answer (previously every one of them panicked on
    /// `.expect("cache lock")`).
    #[test]
    fn poisoned_locks_recover_instead_of_cascading() {
        let inner = Arc::new(test_inner());
        // Poison the cache mutex: a thread panics while holding the lock.
        let poisoner = Arc::clone(&inner);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.cache.as_ref().unwrap().lock().unwrap();
            panic!("deliberate poison");
        })
        .join();
        assert!(
            inner.cache.as_ref().unwrap().lock().is_err(),
            "the cache mutex must actually be poisoned for this test to bite"
        );
        // Poison the table registry the same way.
        let poisoner = Arc::clone(&inner);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.tables.write().unwrap();
            panic!("deliberate poison");
        })
        .join();
        // Requests still serve end to end: registry lookup, cache
        // miss/insert, then a cache hit, then a stats snapshot.
        let plan = select(0, SelectQuery::range(KeyRange::closed(0, 100)));
        answer(&inner, &plan).expect("first answer after poisoning");
        answer(&inner, &plan).expect("second answer after poisoning");
        let snap = inner.snapshot();
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.cache_misses, 1);
        assert_eq!(snap.queries, 2);
        assert_eq!(snap.cache_entries, 1);
    }

    /// The cache law. One canonical select has one entry however it is
    /// spelled (`K < 100` ≡ `K ≤ 99`) — and, since `answer` never learns
    /// which frame a plan arrived in, whichever frame asks: one miss, one
    /// hit, the *same* `Arc`. Plans that differ in filters, projection,
    /// DISTINCT or shape never share, even over the identical key range.
    #[test]
    fn one_canonical_select_one_entry_but_distinct_plans_never_share() {
        let inner = test_inner();
        let below_100 = SelectQuery::range(KeyRange::less_than(100));
        let up_to_99 = SelectQuery::range(KeyRange::closed(0, 99));

        let first = answer(&inner, &select(0, below_100)).unwrap();
        let second = answer(&inner, &select(0, up_to_99.clone())).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "equivalent ranges share");
        let snap = inner.snapshot();
        assert_eq!(
            (snap.cache_misses, snap.cache_hits, snap.cache_entries),
            (1, 1, 1)
        );

        let others = [
            select(
                0,
                up_to_99
                    .clone()
                    .filter(Predicate::new("v", CompareOp::Eq, 1i64)),
            ),
            select(0, up_to_99.clone().project(&["v"])),
            select(0, up_to_99.clone().distinct()),
            select(1, up_to_99),
            join(KeyRange::closed(0, 99)),
        ];
        let mut blobs = vec![first];
        for plan in &others {
            let blob = answer(&inner, plan).unwrap();
            assert!(
                blobs.iter().all(|b| !Arc::ptr_eq(b, &blob)),
                "{plan:?} was served another plan's blob"
            );
            blobs.push(blob);
        }
        let snap = inner.snapshot();
        assert_eq!(snap.cache_hits, 1, "no plan may hit another plan's entry");
        assert_eq!(snap.cache_misses, 1 + others.len() as u64);
        assert_eq!(snap.cache_entries, blobs.len() as u64);

        // Re-asking each is a hit on its own entry, still no crosstalk.
        let again = answer(&inner, &others[2]).unwrap();
        assert!(blobs.iter().any(|b| Arc::ptr_eq(b, &again)));
        assert_eq!(inner.snapshot().cache_hits, 2);
    }

    /// The reactor's probe serves exactly the fresh hits `answer` would
    /// serve, under the same key and freshness rule, and counts only them:
    /// a miss, a stale entry, an unknown table or a mounted tamper hook is
    /// left to `answer`, uncounted. Its key buffer is reused, not regrown.
    #[test]
    fn probe_serves_and_counts_only_fresh_hits() {
        let mut inner = test_inner();
        let mut key = Vec::new();
        let plans = [
            select(0, SelectQuery::range(KeyRange::less_than(100))),
            join(KeyRange::closed(0, 99)),
        ];
        let spelled_otherwise = select(0, SelectQuery::range(KeyRange::closed(0, 99)));
        for plan in &plans {
            assert!(cached_answer(&inner, plan, &mut key).is_none());
        }
        assert!(cached_answer(
            &inner,
            &select(9, SelectQuery::range(KeyRange::all())),
            &mut key
        )
        .is_none());
        let snap = inner.snapshot();
        assert_eq!(
            (snap.cache_misses, snap.cache_hits, snap.queries),
            (0, 0, 0)
        );

        let blobs: Vec<_> = plans.iter().map(|p| answer(&inner, p).unwrap()).collect();
        let capacity = key.capacity();
        for (plan, blob) in [&spelled_otherwise, &plans[1]].into_iter().zip(&blobs) {
            let hit = cached_answer(&inner, plan, &mut key).expect("fresh hit");
            assert!(Arc::ptr_eq(&hit, blob));
        }
        assert_eq!(key.capacity(), capacity, "the key buffer is reused");
        let snap = inner.snapshot();
        assert_eq!(
            (snap.cache_misses, snap.cache_hits, snap.queries),
            (2, 2, 4)
        );

        // Table 0 moves on: both entries are stale, left to `answer`.
        write_recover(&inner.tables).get_mut(&0).unwrap().epoch += 1;
        for plan in &plans {
            assert!(cached_answer(&inner, plan, &mut key).is_none());
        }
        assert_eq!(inner.snapshot().invalidations, 0);
        for plan in &plans {
            answer(&inner, plan).unwrap();
        }
        let snap = inner.snapshot();
        assert_eq!((snap.invalidations, snap.cache_misses), (2, 4));
        assert!(cached_answer(&inner, &plans[0], &mut key).is_some());

        // A tamper hook turns the probe off, fresh entry or not.
        inner.tamper = Some(Box::new(|_, _, answer| answer));
        assert!(cached_answer(&inner, &plans[0], &mut key).is_none());
    }

    /// Regression for the two freshness schemes: a cached *planned* answer
    /// used to squat in the LRU after `apply_update` (its epoch-in-key
    /// entry was never dropped or counted). With one rule, a select and a
    /// pk-fk join cached before an update to a table they both touch are
    /// each dropped and counted on the next lookup, the entry count does
    /// not grow, and the recomputed answers verify at the new epoch.
    #[test]
    fn update_invalidates_cached_select_and_join_alike() {
        let owner = test_owner();
        let keys = [5, 15, 25, 35, 45];
        let fk = signed(&owner, "t", &keys);
        let mut pk = signed(&owner, "p", &keys);
        let certs = [owner.certificate(&fk), owner.certificate(&pk)];
        let dir = std::env::temp_dir().join(format!("adp-server-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut server = Server::new(ServerConfig::default());
        server.add_table(0, fk);
        server.add_store(1, Store::create(&dir, pk.clone()).unwrap());
        let handle = server.serve("127.0.0.1:0").unwrap();
        let inner = &handle.inner;

        let plans = [
            select(1, SelectQuery::range(KeyRange::closed(0, 100))),
            join(KeyRange::closed(0, 100)),
        ];
        for plan in &plans {
            answer(inner, plan).unwrap();
        }
        let before = inner.snapshot();
        assert_eq!((before.cache_entries, before.invalidations), (2, 0));

        let report = owner
            .apply_batch(&mut pk, vec![Mutation::Insert(row(55))])
            .unwrap();
        let epoch = handle
            .apply_update(1, &report.ops, &report.resigned)
            .unwrap();
        assert_eq!(epoch, 1);

        let cert_of = |id: u32| certs.get(id as usize);
        let fresh: Vec<_> = plans
            .iter()
            .map(|plan| {
                let blob = answer(inner, plan).unwrap();
                let verified = verify_plan(plan, cert_of, &blob.0, &blob.1).unwrap();
                (blob, verified.rows.len())
            })
            .collect();
        // The select sees the inserted key; the join still pairs five.
        assert_eq!((fresh[0].1, fresh[1].1), (6, 5));
        let after = inner.snapshot();
        assert_eq!(after.invalidations, before.invalidations + 2);
        assert_eq!(after.cache_entries, before.cache_entries);
        assert_eq!(after.cache_misses, before.cache_misses + 2);
        // The replacements are live entries at the new epoch.
        for (plan, (blob, _)) in plans.iter().zip(&fresh) {
            assert!(Arc::ptr_eq(blob, &answer(inner, plan).unwrap()));
        }
        assert_eq!(inner.snapshot().invalidations, after.invalidations);

        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Snapshot isolation across a swap: a reader that took the served
    /// table before an update keeps answering from exactly that epoch — and
    /// what it proves verifies — while the update commits without waiting
    /// for it. Afterwards the reader's handle is the only one left, so the
    /// old epoch is released when the reader lets go, not under a lock.
    #[test]
    fn reader_snapshot_survives_an_update_it_did_not_block() {
        let owner = test_owner();
        let mut owner_st = signed(&owner, "p", &[5, 15, 25, 35, 45]);
        let cert = owner.certificate(&owner_st);
        let dir = std::env::temp_dir().join(format!("adp-server-snap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut server = Server::new(ServerConfig::default());
        server.add_store(1, Store::create(&dir, owner_st.clone()).unwrap());
        let handle = server.serve("127.0.0.1:0").unwrap();
        let inner = &handle.inner;

        let served = |inner: &Inner| Arc::clone(&read_recover(&inner.tables)[&1].st);
        let reader = served(inner);
        let query = SelectQuery::range(KeyRange::closed(0, 100));
        let old_answer = Publisher::new(&reader).answer_select(&query).unwrap();

        let report = owner
            .apply_batch(
                &mut owner_st,
                vec![
                    Mutation::Insert(row(55)),
                    Mutation::Delete {
                        key: 15,
                        replica: 0,
                    },
                ],
            )
            .unwrap();
        // Returns with `reader` still held.
        let epoch = handle
            .apply_update(1, &report.ops, &report.resigned)
            .unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(Arc::strong_count(&reader), 1, "only the reader holds it");

        // The held snapshot answers as before, and the answer verifies.
        let (rows, vo) = Publisher::new(&reader).answer_select(&query).unwrap();
        assert_eq!((&rows, &vo), (&old_answer.0, &old_answer.1));
        assert_eq!(rows.len(), 5);
        verify_select(&cert, &query, &rows, &vo).expect("old epoch still proves its answer");
        assert!(reader.audit());

        // The registry serves the new epoch.
        let fresh = served(inner);
        let (rows, vo) = Publisher::new(&fresh).answer_select(&query).unwrap();
        let keys: Vec<i64> = rows.iter().map(|r| r.key(&cert.schema)).collect();
        assert_eq!(keys, [5, 25, 35, 45, 55]);
        verify_select(&cert, &query, &rows, &vo).expect("new epoch proves its answer");

        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
