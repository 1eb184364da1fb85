//! Sustained-churn stress: interleave owner batches (insert / delete /
//! modify / key-moving updates) with publisher queries and user
//! verification, continuously. Guards the incremental re-signing logic
//! (Section 6.3) against drift: after every batch the chain must equal a
//! fresh signing of the same rows, a publisher replaying the batch must
//! land on the same bytes, and every query must verify and agree with a
//! trusted reference evaluation.

use adp_core::prelude::*;
use adp_relation::{Column, KeyRange, Record, Schema, SelectQuery, Table, Value, ValueType};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::OnceLock;

fn owner() -> &'static Owner {
    static OWNER: OnceLock<Owner> = OnceLock::new();
    OWNER.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xC4C4);
        Owner::new(512, &mut rng)
    })
}

fn schema() -> Schema {
    Schema::new(
        vec![
            Column::new("k", ValueType::Int),
            Column::new("gen", ValueType::Int),
        ],
        "k",
    )
}

/// Everything a signed table holds per chain position — `g` bytes, rep
/// roots, signature bytes — and its whole signature index.
type ChainBytes = (
    Vec<(Vec<u8>, Option<Vec<u8>>, Vec<u8>)>,
    Vec<((i64, u32), Vec<u8>)>,
);

fn chain_bytes(st: &SignedTable) -> ChainBytes {
    let entries = (0..st.chain_len())
        .map(|p| {
            let entry = st.entry(p);
            let roots = entry
                .roots
                .map(|(up, down)| [up.as_bytes(), down.as_bytes()].concat());
            (st.g_bytes(p), roots, entry.signature.to_bytes())
        })
        .collect();
    let mut index = Vec::new();
    st.sig_index().range_for_each(
        std::ops::Bound::Unbounded,
        std::ops::Bound::Unbounded,
        |k, sig| index.push((k, sig.to_bytes())),
    );
    (entries, index)
}

#[test]
fn chain_survives_sustained_churn() {
    let o = owner();
    let mut rng = StdRng::seed_from_u64(0x1234);
    let mut t = Table::new("churn", schema());
    for i in 0..60i64 {
        t.insert(Record::new(vec![Value::Int(i * 16 + 8), Value::Int(0)]))
            .unwrap();
    }
    let domain = Domain::new(0, 2_048);
    let config = SchemeConfig::default();
    let mut st = o.sign_table(t, domain, config).unwrap();
    let mut publisher_st = st.clone();
    let cert = o.certificate(&st);

    for round in 0..12 {
        // A batch of six random mutations, each delete or update on a
        // row no other mutation of the batch touches.
        let mut ops = Vec::new();
        let mut touched = BTreeSet::new();
        let mut target = |rng: &mut StdRng| loop {
            let pos = rng.gen_range(0..st.len());
            if touched.insert(pos) {
                let row = st.table().row(pos);
                break (row.record.key(st.table().schema()), row.replica);
            }
        };
        for _ in 0..6 {
            match rng.gen_range(0..4) {
                0 => {
                    // Insert at a random legal key (duplicates welcome).
                    let k = rng.gen_range(domain.key_min()..=domain.key_max());
                    ops.push(Mutation::Insert(Record::new(vec![
                        Value::Int(k),
                        Value::Int(round),
                    ])));
                }
                1 if st.len() > 10 + ops.len() => {
                    // Delete a random row.
                    let (key, replica) = target(&mut rng);
                    ops.push(Mutation::Delete { key, replica });
                }
                2 => {
                    // In-place attribute update.
                    let (key, replica) = target(&mut rng);
                    ops.push(Mutation::Update {
                        key,
                        replica,
                        record: Record::new(vec![Value::Int(key), Value::Int(round + 100)]),
                    });
                }
                _ => {
                    // Key-moving update (decomposed into delete + insert).
                    let (key, replica) = target(&mut rng);
                    let new_k = rng.gen_range(domain.key_min()..=domain.key_max());
                    ops.push(Mutation::Update {
                        key,
                        replica,
                        record: Record::new(vec![Value::Int(new_k), Value::Int(round + 200)]),
                    });
                }
            }
        }
        let report = o.apply_batch(&mut st, ops).unwrap();
        assert!(st.audit(), "chain must audit after round {round}");

        // The batch lands on exactly the chain a fresh signing of the same
        // rows produces, and a publisher replaying it on the same bytes.
        let fresh = o.sign_table(st.table().clone(), domain, config).unwrap();
        assert!(
            chain_bytes(&st) == chain_bytes(&fresh),
            "round {round}: batch differs from a fresh signing"
        );
        publisher_st
            .replay_batch(&report.ops, &report.resigned)
            .unwrap();
        assert!(
            chain_bytes(&publisher_st) == chain_bytes(&st),
            "round {round}: replay differs from the owner's batch"
        );

        // Random queries verified against a reference evaluation.
        let publisher = Publisher::new(&st);
        for _ in 0..4 {
            let a = rng.gen_range(0..2_048i64);
            let b = a + rng.gen_range(0..512i64);
            let query = SelectQuery::range(KeyRange::closed(a, b));
            let (rows, vo) = publisher.answer_select(&query).unwrap();
            let report = verify_select(&cert, &query, &rows, &vo)
                .unwrap_or_else(|e| panic!("round {round} [{a},{b}]: {e}"));
            let expected = st
                .table()
                .rows()
                .iter()
                .filter(|r| {
                    let k = r.record.key(st.table().schema());
                    k >= a && k <= b
                })
                .count();
            assert_eq!(report.matched, expected, "round {round} [{a},{b}]");
        }
    }
}

#[test]
fn churn_down_to_empty_and_back() {
    let o = owner();
    let mut t = Table::new("drain", schema());
    for i in 0..10i64 {
        t.insert(Record::new(vec![Value::Int(i * 10 + 5), Value::Int(0)]))
            .unwrap();
    }
    let domain = Domain::new(0, 1_000);
    let mut st = o.sign_table(t, domain, SchemeConfig::default()).unwrap();
    let cert = o.certificate(&st);

    // Drain the table completely.
    while !st.is_empty() {
        let (k, r) = {
            let row = st.table().row(0);
            (row.record.key(st.table().schema()), row.replica)
        };
        o.apply_batch(&mut st, vec![Mutation::Delete { key: k, replica: r }])
            .unwrap();
    }
    assert!(st.audit());
    let query = SelectQuery::range(KeyRange::all());
    let (rows, vo) = Publisher::new(&st).answer_select(&query).unwrap();
    let report = verify_select(&cert, &query, &rows, &vo).unwrap();
    assert!(report.empty);

    // Refill.
    for i in 0..10i64 {
        o.apply_batch(
            &mut st,
            vec![Mutation::Insert(Record::new(vec![
                Value::Int(i * 7 + 3),
                Value::Int(1),
            ]))],
        )
        .unwrap();
    }
    assert!(st.audit());
    let (rows, vo) = Publisher::new(&st).answer_select(&query).unwrap();
    let report = verify_select(&cert, &query, &rows, &vo).unwrap();
    assert_eq!(report.matched, 10);
    assert_eq!(rows.len(), 10);
}
