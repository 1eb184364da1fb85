//! The client transport healing a dropped connection: a subscriber that
//! stays quiet past the server's idle timeout is reaped, and its next
//! `poll_delta` sees the close. With a retry policy the subscriber
//! reconnects and re-verifies a fresh baseline on its own; without one
//! the drop surfaces as a retryable error.

use adp_core::prelude::*;
use adp_relation::{Column, KeyRange, Record, Schema, SelectQuery, Table, Value, ValueType};
use adp_server::{
    RemoteSubscriber, RemoteVerifier, RetryPolicy, Server, ServerConfig, ServerHandle,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// 20 rows keyed on salary (1000, 1500, …, 10500), served with a 300 ms
/// idle timeout.
fn reaping_server() -> (Certificate, ServerHandle) {
    let schema = Schema::new(
        vec![
            Column::new("id", ValueType::Int),
            Column::new("salary", ValueType::Int),
        ],
        "salary",
    );
    let mut t = Table::new("emp", schema);
    for i in 0..20i64 {
        t.insert(Record::new(vec![
            Value::Int(i),
            Value::Int(1_000 + i * 500),
        ]))
        .unwrap();
    }
    let mut rng = StdRng::seed_from_u64(0x11CC);
    let owner = Owner::new(512, &mut rng);
    let signed = owner
        .sign_table(t, Domain::new(0, 100_000), SchemeConfig::default())
        .unwrap();
    let cert = owner.certificate(&signed);
    let mut server = Server::new(ServerConfig {
        idle_timeout: Some(Duration::from_millis(300)),
        ..ServerConfig::default()
    });
    server.add_table(0, signed);
    (cert, server.serve("127.0.0.1:0").unwrap())
}

const RANGE: (i64, i64) = (1_000, 5_000);

#[test]
fn reaped_subscriber_resubscribes_and_mirror_matches_fresh_query() {
    let (cert, handle) = reaping_server();
    let retry = RetryPolicy {
        max_retries: 3,
        base: Duration::from_millis(1),
        max_backoff: Duration::from_millis(20),
        seed: 7,
    };
    let mut sub = RemoteSubscriber::subscribe_with_retry(
        handle.addr(),
        cert.clone(),
        0,
        1,
        KeyRange::closed(RANGE.0, RANGE.1),
        retry,
    )
    .unwrap();

    // No delta is coming: the only thing the window can see is the
    // server reaping the quiet connection.
    let polled = sub.poll_delta(Duration::from_secs(10)).unwrap();
    assert_eq!(polled, Some(sub.epoch()));
    assert_eq!(sub.reconnects(), 1);
    assert!(handle.stats().idle_reaped >= 1);

    let mut user = RemoteVerifier::connect(handle.addr(), cert, 0).unwrap();
    let fresh = user
        .select(&SelectQuery::range(KeyRange::closed(RANGE.0, RANGE.1)))
        .unwrap();
    let mirror: Vec<Record> = sub.rows().cloned().collect();
    assert_eq!(mirror, fresh.rows);
    handle.shutdown();
}

#[test]
fn reaped_subscriber_without_policy_gets_retryable_error() {
    let (cert, handle) = reaping_server();
    let mut sub = RemoteSubscriber::subscribe_with_retry(
        handle.addr(),
        cert,
        0,
        1,
        KeyRange::closed(RANGE.0, RANGE.1),
        RetryPolicy::none(),
    )
    .unwrap();
    let err = sub
        .poll_delta(Duration::from_secs(10))
        .expect_err("a reaped connection must surface without a policy");
    assert!(err.is_retryable(), "a dropped link is retryable: {err}");
    assert_eq!(sub.reconnects(), 0);
    handle.shutdown();
}
