//! Connection-lifecycle behaviour of the epoll reactor: idle connections
//! must cost zero wakeups, slow and hostile clients (trickled headers,
//! mid-payload stalls, never-draining readers) must be bounded by the
//! frame deadline / idle timeout / write-queue cap, pipelined requests
//! must come back in order, and thread count must not scale with
//! connection count.

use adp_core::plan::WirePlan;
use adp_core::prelude::*;
use adp_relation::{Column, KeyRange, Record, Schema, SelectQuery, Table, Value, ValueType};
use adp_server::protocol::{encode_frame, read_frame, ErrorCode, Frame};
use adp_server::{RemoteClient, Server, ServerConfig, ServerHandle};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Signs a table of `rows` records whose text column is `text_len` bytes,
/// so tests can dial the response size.
fn signed_table(rows: i64, text_len: usize) -> SignedTable {
    let schema = Schema::new(
        vec![
            Column::new("k", ValueType::Int),
            Column::new("v", ValueType::Text),
        ],
        "k",
    );
    let mut t = Table::new("life", schema);
    for i in 0..rows {
        t.insert(Record::new(vec![
            Value::Int(i * 10 + 5),
            Value::from("x".repeat(text_len)),
        ]))
        .unwrap();
    }
    let mut rng = StdRng::seed_from_u64(0x11FE);
    let owner = Owner::new(512, &mut rng);
    owner
        .sign_table(t, Domain::new(0, 1_000_000), SchemeConfig::default())
        .unwrap()
}

fn serve(config: ServerConfig) -> ServerHandle {
    let mut server = Server::new(config);
    server.add_table(0, signed_table(10, 8));
    server.serve("127.0.0.1:0").unwrap()
}

/// Polls the server's stats until `pred` holds or the deadline passes.
fn wait_for(handle: &ServerHandle, pred: impl Fn(&adp_server::StatsSnapshot) -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if pred(&handle.stats()) {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    false
}

/// Idle connections must not wake the reactor. With lazy timers and
/// level-triggered epoll, a parked connection's only cost is its heap
/// entry — steady state is *zero* `epoll_wait` returns. 200 parked
/// connections: both ends of each fit under a 1 024-fd soft limit.
#[test]
fn idle_connections_cost_zero_wakeups() {
    const IDLE: u64 = 200;
    let handle = serve(ServerConfig::default());
    // Connect in chunks the accept backlog can absorb: an overflowed
    // backlog drops SYNs, and their retransmits take seconds.
    let mut idlers: Vec<TcpStream> = Vec::new();
    while (idlers.len() as u64) < IDLE {
        for _ in 0..50 {
            idlers.push(TcpStream::connect(handle.addr()).unwrap());
        }
        let parked = idlers.len() as u64;
        assert!(
            wait_for(&handle, |s| s.open_connections == parked),
            "{parked} idle connections registered"
        );
    }
    let mut client = RemoteClient::connect(handle.addr()).unwrap();
    client.ping().unwrap();
    assert!(
        wait_for(&handle, |s| s.open_connections == IDLE + 1),
        "all {} connections registered",
        IDLE + 1
    );

    // Let the accept/register churn settle, then measure.
    std::thread::sleep(Duration::from_millis(300));
    let before = handle.reactor_wakeups();
    std::thread::sleep(Duration::from_millis(1_500));
    let after = handle.reactor_wakeups();
    assert_eq!(
        after - before,
        0,
        "idle connections must cost zero reactor wakeups"
    );

    // The gauge tracks closes, too.
    idlers.clear();
    assert!(wait_for(&handle, |s| s.open_connections == 1));
    handle.shutdown();
}

/// A slow-but-honest client that trickles a Ping one byte at a time must
/// still get its Pong: the frame deadline covers a whole frame, not the
/// gap between bytes.
#[test]
fn trickled_ping_byte_by_byte_still_answered() {
    let handle = serve(ServerConfig::default());
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    for byte in encode_frame(&Frame::Ping) {
        stream.write_all(&[byte]).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(read_frame(&mut stream).unwrap(), Frame::Pong);
    handle.shutdown();
}

/// Slow loris, variant 1: a client that stalls mid-payload is cut off by
/// the frame deadline with an explanatory Error frame, and the error
/// counter records it.
#[test]
fn mid_payload_stall_hits_frame_deadline() {
    let handle = serve(ServerConfig {
        frame_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();

    let frame = encode_frame(&Frame::QueryRequest {
        table_id: 0,
        query: SelectQuery::range(KeyRange::all()),
    });
    // Header plus half the payload, then silence.
    stream
        .write_all(&frame[..8 + (frame.len() - 8) / 2])
        .unwrap();
    stream.flush().unwrap();

    match read_frame(&mut stream).unwrap() {
        Frame::Error { code, message } => {
            assert_eq!(code, ErrorCode::BadFrame);
            assert!(message.contains("frame deadline"), "got {message:?}");
        }
        other => panic!("expected Error frame, got {other:?}"),
    }
    // The server hangs up after the error.
    let mut rest = Vec::new();
    assert_eq!(stream.read_to_end(&mut rest).unwrap_or(0), 0);
    assert!(wait_for(&handle, |s| s.errors >= 1));
    handle.shutdown();
}

/// Slow loris, variant 2: stalling inside the 8-byte header is the same
/// offence — the deadline arms as soon as the first byte arrives.
#[test]
fn partial_header_stall_hits_frame_deadline() {
    let handle = serve(ServerConfig {
        frame_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(&[0xAD, 0x50, 0x03]).unwrap();
    stream.flush().unwrap();

    match read_frame(&mut stream).unwrap() {
        Frame::Error { code, message } => {
            assert_eq!(code, ErrorCode::BadFrame);
            assert!(message.contains("frame deadline"), "got {message:?}");
        }
        other => panic!("expected Error frame, got {other:?}"),
    }
    handle.shutdown();
}

/// A client that pipelines queries but never reads responses fills the
/// bounded write queue, gets its reads paused (backpressure), stops
/// making progress, and is reaped by the idle timeout — with the reap
/// counted and the queue-depth gauge returning to zero.
#[test]
fn non_draining_client_is_reaped() {
    let mut server = Server::new(ServerConfig {
        idle_timeout: Some(Duration::from_millis(400)),
        write_queue_limit: 256 * 1024,
        ..ServerConfig::default()
    });
    // ~1 MiB per response: 64 rows × 16 KiB of text.
    server.add_table(0, signed_table(64, 16 * 1024));
    let handle = server.serve("127.0.0.1:0").unwrap();

    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let frame = encode_frame(&Frame::QueryRequest {
        table_id: 0,
        query: SelectQuery::range(KeyRange::all()),
    });
    let mut burst = Vec::new();
    for _ in 0..16 {
        burst.extend_from_slice(&frame);
    }
    stream.write_all(&burst).unwrap();
    stream.flush().unwrap();
    // Never read a byte; keep the socket open so only the idle timeout
    // (not a peer close) can end the connection.

    assert!(
        wait_for(&handle, |s| s.idle_reaped >= 1),
        "non-draining connection must be idle-reaped"
    );
    assert!(
        wait_for(&handle, |s| s.queue_depth == 0),
        "reaping must release the queued response bytes"
    );
    drop(stream);
    handle.shutdown();
}

/// Pipelining: six frames in one write come back as six replies in
/// request order, even though a miss detours through the worker pool
/// while pings, stats and cache hits are answered on the reactor. The
/// second query hits the entry the first one (still in flight when it
/// arrives) inserts, and must not overtake it.
#[test]
fn pipelined_requests_answered_in_order() {
    let handle = serve(ServerConfig::default());
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();

    let query = encode_frame(&Frame::QueryRequest {
        table_id: 0,
        query: SelectQuery::range(KeyRange::all()),
    });
    let mut burst = encode_frame(&Frame::Ping);
    burst.extend_from_slice(&query);
    burst.extend_from_slice(&encode_frame(&Frame::Ping));
    burst.extend_from_slice(&query);
    burst.extend_from_slice(&encode_frame(&Frame::Ping));
    burst.extend_from_slice(&encode_frame(&Frame::StatsRequest));
    stream.write_all(&burst).unwrap();
    stream.flush().unwrap();

    assert_eq!(read_frame(&mut stream).unwrap(), Frame::Pong);
    let first = match read_frame(&mut stream).unwrap() {
        Frame::QueryResponse { result, vo } => {
            assert!(!result.is_empty());
            (result, vo)
        }
        other => panic!("expected QueryResponse, got {other:?}"),
    };
    assert_eq!(read_frame(&mut stream).unwrap(), Frame::Pong);
    match read_frame(&mut stream).unwrap() {
        Frame::QueryResponse { result, vo } => assert_eq!((result, vo), first),
        other => panic!("expected QueryResponse, got {other:?}"),
    }
    assert_eq!(read_frame(&mut stream).unwrap(), Frame::Pong);
    match read_frame(&mut stream).unwrap() {
        Frame::StatsResponse(stats) => {
            assert_eq!(stats.queries, 2);
            assert_eq!(stats.cache_misses, 1);
            assert_eq!(stats.cache_hits, 1);
        }
        other => panic!("expected StatsResponse, got {other:?}"),
    }
    handle.shutdown();
}

/// Regression: a single write that pipelines more frames than the
/// reactor's pending cap (64) must still get every reply. The socket is
/// drained in one read, so no further read event will arrive — the
/// stranded frames in the reassembly buffer must be re-parsed as
/// dispatch frees pending slots.
#[test]
fn burst_beyond_pending_cap_gets_every_reply() {
    let handle = serve(ServerConfig::default());
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();

    let ping = encode_frame(&Frame::Ping);
    let mut burst = Vec::new();
    for _ in 0..200 {
        burst.extend_from_slice(&ping);
    }
    stream.write_all(&burst).unwrap();
    stream.flush().unwrap();
    for i in 0..200 {
        assert_eq!(read_frame(&mut stream).unwrap(), Frame::Pong, "reply {i}");
    }
    handle.shutdown();
}

/// Regression, worker-pool variant: a query at the head of an over-cap
/// burst parks dispatch until its answer completes back to the shard;
/// the completion must resume parsing the frames still buffered behind
/// the cap.
#[test]
fn burst_with_query_resumes_parsing_after_completion() {
    let handle = serve(ServerConfig::default());
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();

    let mut burst = encode_frame(&Frame::QueryRequest {
        table_id: 0,
        query: SelectQuery::range(KeyRange::all()),
    });
    let ping = encode_frame(&Frame::Ping);
    for _ in 0..100 {
        burst.extend_from_slice(&ping);
    }
    stream.write_all(&burst).unwrap();
    stream.flush().unwrap();

    match read_frame(&mut stream).unwrap() {
        Frame::QueryResponse { result, .. } => assert!(!result.is_empty()),
        other => panic!("expected QueryResponse, got {other:?}"),
    }
    for i in 0..100 {
        assert_eq!(read_frame(&mut stream).unwrap(), Frame::Pong, "reply {i}");
    }
    handle.shutdown();
}

/// A partial frame stalled at the tail of an over-cap burst is still
/// slow loris: after the complete frames are answered, the dangling
/// fragment must hit the frame deadline, not sit disarmed behind the
/// pending cap.
#[test]
fn partial_tail_behind_pending_cap_hits_frame_deadline() {
    let handle = serve(ServerConfig {
        frame_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();

    let ping = encode_frame(&Frame::Ping);
    let mut burst = Vec::new();
    for _ in 0..70 {
        burst.extend_from_slice(&ping);
    }
    // Three bytes of a 71st header, then silence.
    burst.extend_from_slice(&ping[..3]);
    stream.write_all(&burst).unwrap();
    stream.flush().unwrap();

    for i in 0..70 {
        assert_eq!(read_frame(&mut stream).unwrap(), Frame::Pong, "reply {i}");
    }
    match read_frame(&mut stream).unwrap() {
        Frame::Error { code, message } => {
            assert_eq!(code, ErrorCode::BadFrame);
            assert!(message.contains("frame deadline"), "got {message:?}");
        }
        other => panic!("expected Error frame, got {other:?}"),
    }
    handle.shutdown();
}

/// The idle timeout reaps a connection that simply goes quiet, and the
/// client observes a clean close (EOF), not a hang.
#[test]
fn idle_timeout_reaps_quiet_connection() {
    let handle = serve(ServerConfig {
        idle_timeout: Some(Duration::from_millis(300)),
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(&encode_frame(&Frame::Ping)).unwrap();
    assert_eq!(read_frame(&mut stream).unwrap(), Frame::Pong);

    // Go quiet past the timeout: the server closes the socket.
    let mut byte = [0u8; 1];
    match stream.read(&mut byte) {
        Ok(0) => {}
        Ok(n) => panic!("unexpected {n} bytes after idle timeout"),
        Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
        Err(e) => panic!("expected EOF after idle timeout, got {e}"),
    }
    assert!(wait_for(&handle, |s| s.idle_reaped >= 1));
    handle.shutdown();
}

/// Regression: a query that panics inside the answer path (here via the
/// tamper hook, standing in for any publisher bug) must not wedge the
/// connection. The worker's completion must still fire, the client gets
/// a typed Internal error, and the same connection keeps answering.
#[test]
fn panicking_query_answers_error_and_connection_survives() {
    let mut server = Server::new(ServerConfig::default());
    server.add_table(0, signed_table(10, 8));
    // Panic on the marker range; answer honestly otherwise.
    server.set_tamper(|plan, _table, answer| {
        let marker = KeyRange::closed(666, 777);
        if matches!(plan, WirePlan::Select { query, .. } if query.range == marker) {
            panic!("synthetic publisher bug");
        }
        answer
    });
    let handle = server.serve("127.0.0.1:0").unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();

    stream
        .write_all(&encode_frame(&Frame::QueryRequest {
            table_id: 0,
            query: SelectQuery::range(KeyRange::closed(666, 777)),
        }))
        .unwrap();
    match read_frame(&mut stream).unwrap() {
        Frame::Error { code, message } => {
            assert_eq!(code, ErrorCode::Internal);
            assert!(message.contains("panic"), "got {message:?}");
        }
        other => panic!("expected Error frame, got {other:?}"),
    }

    // The connection is not wedged: the very next query on the same
    // socket answers, and so does a ping.
    stream
        .write_all(&encode_frame(&Frame::QueryRequest {
            table_id: 0,
            query: SelectQuery::range(KeyRange::all()),
        }))
        .unwrap();
    match read_frame(&mut stream).unwrap() {
        Frame::QueryResponse { result, .. } => assert!(!result.is_empty()),
        other => panic!("expected QueryResponse, got {other:?}"),
    }
    stream.write_all(&encode_frame(&Frame::Ping)).unwrap();
    assert_eq!(read_frame(&mut stream).unwrap(), Frame::Pong);
    assert!(wait_for(&handle, |s| s.errors >= 1));
    // Shutdown on the heels of a completion must not wait out the idle
    // timer: the shard once read its shutdown flag before draining the
    // wake socket, so a drain could swallow the shutdown's wake byte.
    let asked = Instant::now();
    handle.shutdown();
    assert!(asked.elapsed() < Duration::from_secs(10));
}

/// The whole point of the reactor: thread count is a function of shards
/// and workers, not of connection count.
#[test]
fn thread_count_independent_of_connection_count() {
    fn threads_now() -> usize {
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        status
            .lines()
            .find_map(|l| l.strip_prefix("Threads:"))
            .unwrap()
            .trim()
            .parse()
            .unwrap()
    }

    let handle = serve(ServerConfig::default());
    let mut warm = RemoteClient::connect(handle.addr()).unwrap();
    warm.ping().unwrap();
    let before = threads_now();

    let mut conns = Vec::new();
    for _ in 0..50 {
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(&encode_frame(&Frame::Ping)).unwrap();
        assert_eq!(read_frame(&mut stream).unwrap(), Frame::Pong);
        conns.push(stream);
    }
    // Other tests in this binary run in parallel and start/stop their own
    // server threads, so the process-wide count can drift by a few either
    // way; thread-per-connection would add all 50.
    let after = threads_now();
    assert!(
        after < before + 25,
        "thread count grew {before} -> {after} across 50 connections — \
         scaling with connection count"
    );
    drop(conns);
    handle.shutdown();
}
