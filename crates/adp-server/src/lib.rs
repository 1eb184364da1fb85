//! # adp-server
//!
//! The paper's publisher (Pang et al., SIGMOD 2005, Figure 3) as an actual
//! network service: a `std`-only threaded TCP server that answers
//! select-project(-distinct) queries with verification objects over a
//! small length-prefixed binary protocol, plus the matching verifying
//! client. Until this crate, the publisher was a library call; now the
//! owner → publisher → client trust boundary is a real socket.
//!
//! * [`protocol`] — the versioned frame layer (`Ping`, `QueryRequest`,
//!   `BatchRequest`, `Stats`, `Error`, and — since version 4 — the
//!   log-shipping pair `FollowLog`/`LogSegment` and the subscription
//!   frames `Subscribe`/`DeltaVo`/`Unsubscribe`), layered on the
//!   byte-exact [`adp_core::wire`] codec. Specified in
//!   `docs/PROTOCOL.md`.
//! * [`server`] — an event-driven core: epoll reactor shards own the
//!   non-blocking listener and connection sockets (frame reassembly,
//!   bounded write queues, idle timeouts), a worker pool runs the
//!   queries, and an LRU **VO cache** keyed on
//!   `(table_id, canonical query)` serves hot ranges without touching
//!   the publisher. Thread count is bounded by shards + workers, not by
//!   connection count.
//! * [`client`] — [`RemoteClient`] (raw frames), [`RemoteVerifier`],
//!   which runs the unchanged `adp-core` verifier against the socket, and
//!   [`RemoteSubscriber`], which registers a key range and verifies every
//!   pushed `DeltaVo` incrementally: the server is untrusted, so every
//!   answer is verified against the owner's certificate before being
//!   returned.
//! * [`follow`] — the log-shipping follower: [`LogFollower`] replays an
//!   upstream publisher's signed update log into a local mirror store,
//!   verifying each record before the epoch bump, so a second `adp-server`
//!   can serve the same table with zero trust in its upstream.
//! * [`cache`] / [`pool`] / [`sys`] — the `std`-only LRU map, thread
//!   pool, and raw epoll bindings the server is built from.
//!
//! ## Quick start
//!
//! ```
//! use adp_core::prelude::*;
//! use adp_relation::{Column, KeyRange, Record, Schema, SelectQuery, Table, Value, ValueType};
//! use adp_server::{RemoteVerifier, Server, ServerConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // Owner side: sign a table (as in adp-core).
//! let schema = Schema::new(vec![Column::new("salary", ValueType::Int)], "salary");
//! let mut table = Table::new("emp", schema);
//! for s in [2000i64, 3500, 8010, 12100, 25000] {
//!     table.insert(Record::new(vec![Value::Int(s)])).unwrap();
//! }
//! let mut rng = StdRng::seed_from_u64(7);
//! let owner = Owner::new(512, &mut rng);
//! let signed = owner
//!     .sign_table(table, Domain::new(0, 100_000), SchemeConfig::default())
//!     .unwrap();
//! let cert = owner.certificate(&signed);
//!
//! // Publisher side: serve the signed table on an ephemeral port.
//! let mut server = Server::new(ServerConfig::default());
//! server.add_table(0, signed);
//! let handle = server.serve("127.0.0.1:0").unwrap();
//!
//! // User side: query over the socket; the answer is verified against the
//! // certificate before it is returned.
//! let mut user = RemoteVerifier::connect(handle.addr(), cert, 0).unwrap();
//! let query = SelectQuery::range(KeyRange::less_than(10_000));
//! let verified = user.select(&query).unwrap();
//! assert_eq!(verified.rows.len(), 3);
//!
//! handle.shutdown();
//! ```

pub mod cache;
pub mod client;
pub mod follow;
pub mod pool;
pub mod protocol;
mod reactor;
pub mod retry;
pub mod server;
pub mod sys;

pub use cache::LruCache;
pub use client::{
    RemoteClient, RemoteError, RemoteSubscriber, RemoteVerifier, SqlOutcome, SqlSession,
};
pub use follow::{FollowError, FollowEvent, FollowStart, LogFollower, ResilientFollower};
pub use protocol::{ErrorCode, Frame, ProtoError, StatsSnapshot};
pub use retry::RetryPolicy;
pub use server::{Server, ServerConfig, ServerHandle, TamperFn, UpdateError};
