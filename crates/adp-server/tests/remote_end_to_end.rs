//! End-to-end over a real socket: a threaded server on an ephemeral port
//! answers single and batched range queries, the remote verifier accepts
//! every honest answer, and the VO cache reports hits for repeated (and
//! semantically-identical) queries — whichever frame carries them.

use adp_core::plan::{verify_plan, WirePlan};
use adp_core::prelude::*;
use adp_core::verifier::verify_select_wire;
use adp_relation::{
    Column, CompareOp, KeyRange, Predicate, Record, Schema, SelectQuery, Table, Value, ValueType,
};
use adp_server::{RemoteClient, RemoteError, RemoteVerifier, Server, ServerConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Bound;
use std::sync::{Arc, OnceLock};

/// 20 staff rows keyed on salary (1000, 1500, …, 10500).
fn staff_table() -> Table {
    let schema = Schema::new(
        vec![
            Column::new("id", ValueType::Int),
            Column::new("name", ValueType::Text),
            Column::new("salary", ValueType::Int),
            Column::new("dept", ValueType::Int),
        ],
        "salary",
    );
    let mut t = Table::new("staff", schema);
    for i in 0..20i64 {
        t.insert(Record::new(vec![
            Value::Int(i),
            Value::from(format!("emp{i}")),
            Value::Int(1_000 + i * 500),
            Value::Int(i % 3),
        ]))
        .unwrap();
    }
    t
}

fn fixture() -> &'static (Arc<SignedTable>, Certificate) {
    static FIX: OnceLock<(Arc<SignedTable>, Certificate)> = OnceLock::new();
    FIX.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0x5E7E);
        let owner = Owner::new(512, &mut rng);
        let st = owner
            .sign_table(
                staff_table(),
                Domain::new(0, 100_000),
                SchemeConfig::default(),
            )
            .unwrap();
        let cert = owner.certificate(&st);
        (Arc::new(st), cert)
    })
}

fn start_server() -> adp_server::ServerHandle {
    let (st, _) = fixture();
    let mut server = Server::new(ServerConfig::default());
    server.add_shared_table(0, Arc::clone(st));
    server.serve("127.0.0.1:0").expect("bind ephemeral port")
}

#[test]
fn remote_select_verifies_honest_answers() {
    let handle = start_server();
    let (_, cert) = fixture();
    let mut user = RemoteVerifier::connect(handle.addr(), cert.clone(), 0).unwrap();

    // Plain range.
    let q = SelectQuery::range(KeyRange::closed(2_000, 9_000));
    let r = user.select(&q).unwrap();
    assert_eq!(r.rows.len(), 15);
    assert_eq!(r.report.matched, 15);

    // Multipoint filter.
    let q = SelectQuery::range(KeyRange::closed(2_000, 9_000)).filter(Predicate::new(
        "dept",
        CompareOp::Eq,
        1i64,
    ));
    let r = user.select(&q).unwrap();
    assert!(r.rows.len() < 15 && !r.rows.is_empty());
    assert!(r.report.filtered > 0);

    // Projected DISTINCT (the key column is always retained, so rows stay
    // distinct and each carries dept + salary).
    let q = SelectQuery::range(KeyRange::closed(2_000, 9_000))
        .project(&["dept"])
        .distinct();
    let r = user.select(&q).unwrap();
    assert_eq!(r.rows.len(), 15);
    assert!(r.rows.iter().all(|row| row.arity() == 2));

    // Provably empty range (between two keys).
    let q = SelectQuery::range(KeyRange::closed(1_100, 1_400));
    let r = user.select(&q).unwrap();
    assert!(r.rows.is_empty() && r.report.empty);

    // Trivially empty range (outside the domain).
    let q = SelectQuery::range(KeyRange::closed(200_000, 300_000));
    let r = user.select(&q).unwrap();
    assert!(r.rows.is_empty() && r.report.empty);

    // Session accounting worked.
    let stats = user.stats();
    assert_eq!(stats.queries, 5);
    assert!(stats.vo_bytes > 0 && stats.hash_ops > 0);

    handle.shutdown();
}

#[test]
fn batched_queries_answer_in_order_over_one_round_trip() {
    let handle = start_server();
    let (_, cert) = fixture();
    let mut user = RemoteVerifier::connect(handle.addr(), cert.clone(), 0).unwrap();

    let queries: Vec<SelectQuery> = (0..8)
        .map(|i| SelectQuery::range(KeyRange::closed(1_000 + i * 500, 6_000 + i * 500)))
        .collect();
    let verified = user.select_batch(&queries).unwrap();
    assert_eq!(verified.len(), queries.len());
    for (q, v) in queries.iter().zip(&verified) {
        // Expected row count straight off the key layout.
        let expect = (0..20i64)
            .filter(|i| q.range.contains(1_000 + i * 500))
            .count();
        assert_eq!(v.rows.len(), expect, "{:?}", q.range);
    }
    let server_stats = user.client_mut().stats().unwrap();
    assert_eq!(server_stats.batches, 1);
    assert_eq!(server_stats.queries, 8);

    handle.shutdown();
}

#[test]
fn batch_isolates_per_item_failures() {
    let handle = start_server();
    let mut client = RemoteClient::connect(handle.addr()).unwrap();

    let ok = SelectQuery::range(KeyRange::closed(1_000, 2_000));
    let items = vec![(0u32, ok.clone()), (9u32, ok.clone()), (0u32, ok)];
    let replies = client.query_batch_raw(&items).unwrap();
    assert_eq!(replies.len(), 3);
    assert!(replies[0].is_ok());
    assert!(matches!(
        &replies[1],
        Err((adp_server::ErrorCode::UnknownTable, _))
    ));
    assert!(replies[2].is_ok());

    handle.shutdown();
}

#[test]
fn vo_cache_hits_on_repeated_and_equivalent_queries() {
    let handle = start_server();
    let (_, cert) = fixture();
    let mut user = RemoteVerifier::connect(handle.addr(), cert.clone(), 0).unwrap();

    let q = SelectQuery::range(KeyRange::closed(2_000, 9_000));
    let first = user.select(&q).unwrap();
    let second = user.select(&q).unwrap();
    assert_eq!(first.rows, second.rows);

    // Semantically identical range spelled differently: the canonical
    // cache key normalizes [2000, 9001) to [2000, 9000].
    let equivalent = SelectQuery::range(KeyRange {
        lo: Bound::Included(2_000),
        hi: Bound::Excluded(9_001),
    });
    let third = user.select(&equivalent).unwrap();
    assert_eq!(first.rows, third.rows);

    let stats = user.client_mut().stats().unwrap();
    assert_eq!(stats.cache_misses, 1, "one publisher run");
    assert!(stats.cache_hits >= 2, "repeat + equivalent both hit");
    assert_eq!(stats.cache_entries, 1);
    assert_eq!(stats.queries, 3);

    handle.shutdown();
}

#[test]
fn ping_unknown_table_and_bad_query_errors() {
    let handle = start_server();
    let (_, cert) = fixture();

    let mut client = RemoteClient::connect(handle.addr()).unwrap();
    client.ping().unwrap();

    // Unknown table id.
    let q = SelectQuery::range(KeyRange::all());
    match client.query_raw(42, &q) {
        Err(RemoteError::Server { code, .. }) => {
            assert_eq!(code, adp_server::ErrorCode::UnknownTable)
        }
        other => panic!("expected UnknownTable, got {other:?}"),
    }

    // Filters on the key column are publisher errors, not crashes.
    let bad = SelectQuery::range(KeyRange::all()).filter(Predicate::new(
        "salary",
        CompareOp::Eq,
        1_000i64,
    ));
    match client.query_raw(0, &bad) {
        Err(RemoteError::Server { code, .. }) => {
            assert_eq!(code, adp_server::ErrorCode::BadQuery)
        }
        other => panic!("expected BadQuery, got {other:?}"),
    }

    // The connection is still usable afterwards.
    let mut user = RemoteVerifier::new(client, cert.clone(), 0);
    let r = user.select(&q).unwrap();
    assert_eq!(r.rows.len(), 20);

    handle.shutdown();
}

#[test]
fn wrong_certificate_rejects_remote_answers() {
    let handle = start_server();
    // A user trusting a different owner must reject everything served.
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    let other_owner = Owner::new(512, &mut rng);
    let other_st = other_owner
        .sign_table(
            staff_table(),
            Domain::new(0, 100_000),
            SchemeConfig::default(),
        )
        .unwrap();
    let wrong_cert = other_owner.certificate(&other_st);

    let mut user = RemoteVerifier::connect(handle.addr(), wrong_cert, 0).unwrap();
    let q = SelectQuery::range(KeyRange::closed(2_000, 9_000));
    assert!(matches!(user.select(&q), Err(RemoteError::Verify(_))));

    handle.shutdown();
}

#[test]
fn concurrent_clients_share_one_server() {
    let handle = start_server();
    let (_, cert) = fixture();
    let addr = handle.addr();

    let threads: Vec<_> = (0..4)
        .map(|t| {
            let cert = cert.clone();
            std::thread::spawn(move || {
                let mut user = RemoteVerifier::connect(addr, cert, 0).unwrap();
                for i in 0..5 {
                    let lo = 1_000 + ((t * 5 + i) % 10) * 500;
                    let q = SelectQuery::range(KeyRange::closed(lo, lo + 3_000));
                    user.select(&q).unwrap();
                }
                user.stats().queries
            })
        })
        .collect();
    let total: usize = threads.into_iter().map(|t| t.join().unwrap()).sum();
    assert_eq!(total, 20);

    let stats = handle.stats();
    assert_eq!(stats.queries, 20);
    assert!(stats.connections >= 4);
    assert!(stats.cache_hits + stats.cache_misses == 20);

    handle.shutdown();
}

/// One of the four select shapes, over a range whose bounds are open or
/// closed at random (so spellings of one canonical range turn up too).
fn arb_query() -> impl Strategy<Value = SelectQuery> {
    (0i64..12_000, 0i64..6_000, any::<u8>()).prop_map(|(lo, width, bits)| {
        let hi = lo + width;
        let range = KeyRange {
            lo: if bits & 1 == 0 {
                Bound::Included(lo)
            } else {
                Bound::Excluded(lo - 1)
            },
            hi: if bits & 2 == 0 {
                Bound::Included(hi)
            } else {
                Bound::Excluded(hi + 1)
            },
        };
        let base = SelectQuery::range(range);
        match (bits >> 2) % 4 {
            0 => base,
            1 => base.filter(Predicate::new("dept", CompareOp::Eq, (bits % 3) as i64)),
            2 => base.project(&["name"]),
            _ => base.project(&["dept"]).distinct(),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One query, one proof: a `QueryRequest`, a `PlannedQuery{Select}` and
    /// a one-item `BatchRequest` for the same select return byte-identical
    /// `(result, vo)` blobs off one cache entry, and the blobs verify both
    /// as a select answer and as a planned answer.
    #[test]
    fn every_framing_of_a_select_returns_the_same_verified_bytes(query in arb_query()) {
        static SRV: OnceLock<adp_server::ServerHandle> = OnceLock::new();
        let handle = SRV.get_or_init(start_server);
        let (_, cert) = fixture();
        let mut client = RemoteClient::connect(handle.addr()).unwrap();
        let before = client.stats().unwrap();

        let plan = WirePlan::Select { table_id: 0, query: query.clone() };
        let plain = client.query_raw(0, &query).unwrap();
        let planned = client.query_planned_raw(&plan).unwrap();
        let mut batch = client.query_batch_raw(&[(0, query.clone())]).unwrap();
        prop_assert_eq!(&plain, &planned);
        prop_assert_eq!(batch.len(), 1);
        prop_assert_eq!(&plain, &batch.remove(0).unwrap());

        let (rows, _) = verify_select_wire(cert, &query, &plain.0, &plain.1).unwrap();
        let as_plan = verify_plan(&plan, |_| Some(cert), &planned.0, &planned.1).unwrap();
        prop_assert_eq!(rows, as_plan.rows);

        // Computed at most once (an earlier case may have cached the same
        // canonical query); every other framing was a hit.
        let after = client.stats().unwrap();
        let misses = after.cache_misses - before.cache_misses;
        prop_assert!(misses <= 1);
        prop_assert_eq!(after.cache_hits - before.cache_hits, 3 - misses);
        prop_assert_eq!(after.cache_entries - before.cache_entries, misses);
    }
}
