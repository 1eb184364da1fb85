//! The Section 3.2 cheating strategies, replayed **through a live
//! socket**: a tampering server mounts each `publisher::malicious` attack
//! as a response hook, and the remote verifier must reject every forgery
//! that arrives over the wire — same guarantee as the in-process
//! `attack_matrix`, now across the network boundary (which also proves the
//! forged VOs survive encode → TCP → decode and *still* get caught, rather
//! than being saved by a codec error).
//!
//! Cells mirror `adp-core/tests/attack_matrix.rs` for the three
//! select-query shapes a `QueryRequest` frame carries. Applicability is
//! asserted, not assumed: an attack the tamper harness refuses on an
//! expected-applicable shape fails the test. SQL joins and aggregates
//! arriving as `PlannedQuery` frames get their own forgery leg in
//! [`planned_sql_forgeries`] below. Both legs mount the server's one
//! tamper hook, which sees every query as a `WirePlan`.

use adp_core::plan::{PlanAnswer, WirePlan};
use adp_core::prelude::*;
use adp_core::publisher::malicious::{tamper, Attack};
use adp_relation::{
    Column, CompareOp, KeyRange, Predicate, Record, Schema, SelectQuery, Table, Value, ValueType,
};
use adp_server::{RemoteError, RemoteVerifier, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

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
        let mut rng = StdRng::seed_from_u64(0xA77AC);
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

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shape {
    RangeSelect,
    FilteredSelect,
    ProjectDistinct,
}

const SHAPES: [Shape; 3] = [
    Shape::RangeSelect,
    Shape::FilteredSelect,
    Shape::ProjectDistinct,
];

fn select_query(shape: Shape) -> SelectQuery {
    let base = SelectQuery::range(KeyRange::closed(2_000, 9_000));
    match shape {
        Shape::RangeSelect => base,
        Shape::FilteredSelect => base.filter(Predicate::new("dept", CompareOp::Eq, 1i64)),
        Shape::ProjectDistinct => base.project(&["dept"]).distinct(),
    }
}

/// Mirrors `attack_matrix::applicable` for the select shapes.
fn applicable(attack: Attack, shape: Shape) -> bool {
    match attack {
        Attack::MislabelFiltered => shape == Shape::FilteredSelect,
        Attack::FakeDuplicate => shape == Shape::ProjectDistinct,
        Attack::TruncateTail => shape != Shape::FilteredSelect,
        _ => true,
    }
}

/// Runs every shape against a server whose responses are forged with
/// `attack`. The hook counts how often the tamper harness actually forged
/// something, so "attack inapplicable" can be distinguished from "attack
/// silently skipped".
fn run_attack(attack: Attack) {
    let (st, cert) = fixture();
    let forged = Arc::new(AtomicUsize::new(0));
    let forged_in_hook = Arc::clone(&forged);
    let mut server = Server::new(ServerConfig::default());
    server.add_shared_table(0, Arc::clone(st));
    server.set_tamper(move |plan, table, answer| {
        let (WirePlan::Select { table_id, query }, PlanAnswer::Select { rows, vo }) =
            (plan, &answer)
        else {
            panic!("a QueryRequest is a select plan with a select answer");
        };
        let publisher = Publisher::new(table(*table_id).expect("the answered table is served"));
        match tamper(&publisher, query, rows, vo, attack) {
            Some((bad_rows, bad_vo)) => {
                assert!(bad_rows != *rows || bad_vo != *vo, "{attack:?} was a no-op");
                forged_in_hook.fetch_add(1, Ordering::SeqCst);
                PlanAnswer::Select {
                    rows: bad_rows,
                    vo: bad_vo,
                }
            }
            None => answer,
        }
    });
    let handle = server.serve("127.0.0.1:0").unwrap();
    let mut user = RemoteVerifier::connect(handle.addr(), cert.clone(), 0).unwrap();

    for shape in SHAPES {
        let query = select_query(shape);
        let forged_before = forged.load(Ordering::SeqCst);
        let verdict = user.select(&query);
        let was_forged = forged.load(Ordering::SeqCst) > forged_before;
        assert_eq!(
            was_forged,
            applicable(attack, shape),
            "{attack:?} applicability drifted on {shape:?}"
        );
        if was_forged {
            match verdict {
                Err(RemoteError::Verify(_)) => {}
                other => panic!(
                    "{attack:?} on {shape:?} must be rejected by remote \
                     verification, got {other:?}"
                ),
            }
        } else {
            // Inapplicable: the server answered honestly and honesty must
            // verify — the hook may not break the honest path.
            let r = verdict.unwrap_or_else(|e| {
                panic!("honest {shape:?} answer through tampering server must verify: {e}")
            });
            assert!(!r.rows.is_empty());
        }
    }

    handle.shutdown();
}

macro_rules! remote_attacks {
    ($($name:ident => $attack:ident;)+) => {$(
        #[test]
        fn $name() {
            run_attack(Attack::$attack);
        }
    )+};
}

remote_attacks! {
    remote_omit_interior       => OmitInterior;
    remote_truncate_tail       => TruncateTail;
    remote_fake_empty          => FakeEmpty;
    remote_inject_spurious     => InjectSpurious;
    remote_tamper_value        => TamperValue;
    remote_swap_values         => SwapValues;
    remote_shift_left_boundary => ShiftLeftBoundary;
    remote_mislabel_filtered   => MislabelFiltered;
    remote_fake_duplicate      => FakeDuplicate;
}

// --------------------------------------------------------------------------
// Forged replication: the follower as the verifier (protocol v4, §9).
//
// A mirror replays the owner-signed log shipped by an *untrusted*
// upstream. `apply_segment` is fed raw segment bytes exactly as
// `LogFollower::next_segment` returns them off the socket, so forging
// the bytes here is byte-for-byte equivalent to a malicious upstream
// shipping them — and every forgery must be rejected *before* the
// follower's epoch bumps, so its own subscribers never see a bad delta.

mod forged_replication {
    use super::*;
    use adp_core::owner::OwnerError;
    use adp_crypto::Signature;
    use adp_relation::Value;
    use adp_server::follow::{apply_segment, bootstrap_store};
    use adp_server::{FollowError, FollowStart, LogFollower, RemoteSubscriber, UpdateError};
    use adp_store::log::encode_record;
    use adp_store::{LogRecord, Store, StoreError};
    use std::fs;
    use std::time::Duration;

    fn rec(id: i64, salary: i64) -> Record {
        Record::new(vec![
            Value::Int(id),
            Value::from(format!("emp{id}")),
            Value::Int(salary),
            Value::Int(id % 3),
        ])
    }

    fn workdir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("adp-forged-repl-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn flip_signature_byte(resigned: &[(u32, Signature)]) -> Vec<(u32, Signature)> {
        let mut forged = resigned.to_vec();
        let mut bytes = forged[0].1.to_bytes();
        bytes[3] ^= 0x10;
        forged[0].1 = Signature::from_bytes(&bytes);
        forged
    }

    /// Every way an upstream can tamper with the shipped log — flipped
    /// signature byte, reordered records, dropped record, stale-seq
    /// replay, flipped payload bit — is rejected by the follower before
    /// its epoch bumps, and the follower's own subscriber only ever sees
    /// deltas for the honestly-replicated batches.
    #[test]
    fn tampered_segments_rejected_before_epoch_bump() {
        // Owner + upstream publisher, served from a store.
        let mut rng = StdRng::seed_from_u64(0xF06D);
        let owner = Owner::new(512, &mut rng);
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
        for i in 0..12i64 {
            t.insert(rec(i, 1_000 + i * 500)).unwrap();
        }
        let signed = owner
            .sign_table(t, Domain::new(0, 100_000), SchemeConfig::default())
            .unwrap();
        let cert = owner.certificate(&signed);
        let mut owner_st = signed.clone();
        let owner_dir = workdir("owner");
        Store::create(&owner_dir, signed).unwrap();
        let mut upstream = Server::new(ServerConfig::default());
        upstream.open_store(0, &owner_dir).unwrap();
        let up_handle = upstream.serve("127.0.0.1:0").unwrap();

        // Follower: bootstrap over the wire, then serve the mirror.
        let (_conn, start) = LogFollower::connect(up_handle.addr(), 0, None).unwrap();
        let snapshot = match start {
            FollowStart::Snapshot(s) => s,
            FollowStart::Backlog(_) => panic!("fresh bootstrap must get a snapshot"),
        };
        let mirror_dir = workdir("mirror");
        let mirror = bootstrap_store(&mirror_dir, &snapshot, &cert.public_key).unwrap();
        let mut follower = Server::new(ServerConfig::default());
        follower.add_store(0, mirror);
        let f_handle = follower.serve("127.0.0.1:0").unwrap();
        let epoch0 = f_handle.table_epoch(0).unwrap();

        // A live subscriber on the *follower*: it must see exactly the
        // honest deltas and none of the forged attempts.
        let mut sub = RemoteSubscriber::subscribe(
            f_handle.addr(),
            cert.clone(),
            0,
            1,
            KeyRange::closed(1_000, 9_000),
        )
        .unwrap();

        // Two honest sequential batches from the owner.
        let r0 = owner
            .apply_batch(&mut owner_st, vec![Mutation::Insert(rec(100, 2_250))])
            .unwrap();
        let r1 = owner
            .apply_batch(
                &mut owner_st,
                vec![Mutation::Delete {
                    key: 3_000,
                    replica: 0,
                }],
            )
            .unwrap();
        let seg = |seq: u64, ops: &[Mutation], resigned: &[(u32, Signature)]| {
            encode_record(&LogRecord {
                seq,
                ops: ops.to_vec(),
                resigned: resigned.to_vec(),
            })
        };
        let seg0 = seg(0, &r0.ops, &r0.resigned);
        let seg1 = seg(1, &r1.ops, &r1.resigned);

        // Attack: flipped signature byte inside an otherwise well-formed
        // record (CRC recomputed by re-encoding). The chain verification
        // must reject it.
        let forged = seg(0, &r0.ops, &flip_signature_byte(&r0.resigned));
        match apply_segment(&f_handle, 0, &forged) {
            Err(FollowError::Update(UpdateError::Store(StoreError::Owner(
                OwnerError::ResignatureInvalid { .. },
            )))) => {}
            other => panic!("forged signature must be rejected, got {other:?}"),
        }
        assert_eq!(f_handle.table_epoch(0), Some(epoch0), "no epoch bump");

        // Attack: reordered records — the later batch first.
        let mut reordered = seg1.clone();
        reordered.extend_from_slice(&seg0);
        match apply_segment(&f_handle, 0, &reordered) {
            Err(FollowError::Gap {
                expected: 0,
                got: 1,
            }) => {}
            other => panic!("reordered records must be a gap, got {other:?}"),
        }
        assert_eq!(f_handle.table_epoch(0), Some(epoch0), "no epoch bump");

        // Attack: dropped record — ship batch 1 without batch 0.
        match apply_segment(&f_handle, 0, &seg1) {
            Err(FollowError::Gap {
                expected: 0,
                got: 1,
            }) => {}
            other => panic!("dropped record must be a gap, got {other:?}"),
        }
        assert_eq!(f_handle.table_epoch(0), Some(epoch0), "no epoch bump");

        // Attack: flipped payload bit (ops, not signature) — caught by
        // the record CRC before anything is verified or applied.
        let mut bitflip = seg0.clone();
        let mid = bitflip.len() / 2;
        bitflip[mid] ^= 0x04;
        match apply_segment(&f_handle, 0, &bitflip) {
            Err(FollowError::Store(_)) => {}
            other => panic!("bit-flipped segment must fail decode, got {other:?}"),
        }
        assert_eq!(f_handle.table_epoch(0), Some(epoch0), "no epoch bump");

        // No forged attempt leaked a delta to the follower's subscriber.
        assert_eq!(sub.poll_delta(Duration::from_millis(300)).unwrap(), None);

        // The honest segments apply, and the subscriber now sees exactly
        // the two honest deltas — each verified against the owner's key.
        let mut both = seg0.clone();
        both.extend_from_slice(&seg1);
        assert_eq!(apply_segment(&f_handle, 0, &both).unwrap(), 2);
        assert_eq!(f_handle.table_epoch(0), Some(2));
        let mut got = 0;
        while got < 2 {
            match sub.poll_delta(Duration::from_secs(5)).unwrap() {
                Some(_) => got += 1,
                None => panic!("honest deltas must reach the follower's subscriber"),
            }
        }
        assert!(sub.keys().contains(&2_250));
        assert!(!sub.keys().contains(&3_000));

        // Attack: stale-seq replay of batch 0 — skipped idempotently, no
        // epoch bump, no delta.
        assert_eq!(apply_segment(&f_handle, 0, &seg0).unwrap(), 2);
        assert_eq!(f_handle.table_epoch(0), Some(2));
        assert_eq!(sub.poll_delta(Duration::from_millis(300)).unwrap(), None);

        sub.unsubscribe().unwrap();
        f_handle.shutdown();
        up_handle.shutdown();
        let _ = fs::remove_dir_all(&owner_dir);
        let _ = fs::remove_dir_all(&mirror_dir);
    }
}

// --------------------------------------------------------------------------
// Forged planned answers: the Section 3.2 cheating strategies replayed
// against protocol-v6 `PlannedQuery` frames — SQL joins and aggregates
// planned client-side, answered by a server whose `set_tamper` hook
// forges the un-encoded `PlanAnswer` before it hits the wire. Every
// forgery must surface as `RemoteError::Verify` on the `SqlSession`,
// never as wrong rows or a wrong aggregate.

mod planned_sql_forgeries {
    use super::*;
    use adp_core::vo::QueryVO;
    use adp_relation::check_referential_integrity;
    use adp_server::SqlSession;

    /// Employees sorted on their dept fk: 6 rows over depts {10,20,30,40}.
    fn emp_table() -> Table {
        let schema = Schema::new(
            vec![
                Column::new("id", ValueType::Int),
                Column::new("name", ValueType::Text),
                Column::new("dept", ValueType::Int),
            ],
            "dept",
        );
        let mut t = Table::new("emp", schema);
        for (id, name, dept) in [
            (5i64, "A", 10i64),
            (1, "D", 10),
            (2, "C", 20),
            (3, "E", 20),
            (4, "B", 30),
            (6, "F", 40),
        ] {
            t.insert(Record::new(vec![
                Value::Int(id),
                Value::from(name),
                Value::Int(dept),
            ]))
            .unwrap();
        }
        t
    }

    /// Departments keyed on dept id: 5 rows, one never joined.
    fn dept_table() -> Table {
        let schema = Schema::new(
            vec![
                Column::new("dept", ValueType::Int),
                Column::new("dname", ValueType::Text),
                Column::new("budget", ValueType::Int),
            ],
            "dept",
        );
        let mut t = Table::new("dept", schema);
        for (d, n, b) in [
            (10i64, "eng", 500i64),
            (20, "sales", 300),
            (30, "hr", 100),
            (40, "ops", 200),
            (50, "legal", 50),
        ] {
            t.insert(Record::new(vec![
                Value::Int(d),
                Value::from(n),
                Value::Int(b),
            ]))
            .unwrap();
        }
        t
    }

    struct JoinFixture {
        emp: Arc<SignedTable>,
        dept: Arc<SignedTable>,
        emp_cert: Certificate,
        dept_cert: Certificate,
    }

    fn join_fixture() -> &'static JoinFixture {
        static FIX: OnceLock<JoinFixture> = OnceLock::new();
        FIX.get_or_init(|| {
            let mut rng = StdRng::seed_from_u64(0xF0_66E);
            let owner = Owner::new(512, &mut rng);
            let emp_raw = emp_table();
            let dept_raw = dept_table();
            check_referential_integrity(&emp_raw, &dept_raw).unwrap();
            let emp = owner
                .sign_table(emp_raw, Domain::new(0, 1_000), SchemeConfig::default())
                .unwrap();
            let dept = owner
                .sign_table(dept_raw, Domain::new(0, 1_000), SchemeConfig::default())
                .unwrap();
            let emp_cert = owner.certificate(&emp);
            let dept_cert = owner.certificate(&dept);
            JoinFixture {
                emp: Arc::new(emp),
                dept: Arc::new(dept),
                emp_cert,
                dept_cert,
            }
        })
    }

    /// The four Section 3.2 strategies, adapted to planned answers.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Forgery {
        /// Omit one interior result row; leave the VO untouched.
        DropRow,
        /// Replace one returned row's attribute with a forged value.
        SubstituteRow,
        /// Truncate the VO's proof list; leave the result untouched.
        TruncateVo,
        /// Drop the boundary row *and* its proof entry together — the
        /// "consistent subset" a cheating publisher would love to serve.
        BoundaryDrop,
    }

    const FORGERIES: [Forgery; 4] = [
        Forgery::DropRow,
        Forgery::SubstituteRow,
        Forgery::TruncateVo,
        Forgery::BoundaryDrop,
    ];

    fn substitute(rec: &Record, slot: usize) -> Record {
        let mut vals = rec.values().to_vec();
        vals[slot] = Value::from("forged");
        Record::new(vals)
    }

    /// Applies `f` to the un-encoded answer. Returns `None` if the shape
    /// makes the forgery impossible (empty result etc.) so the harness can
    /// assert the attack actually fired.
    fn forge(f: Forgery, answer: &PlanAnswer) -> Option<PlanAnswer> {
        let mut forged = answer.clone();
        match (&mut forged, f) {
            (PlanAnswer::Select { rows, .. }, Forgery::DropRow) => {
                if rows.len() < 2 {
                    return None;
                }
                rows.remove(1);
            }
            (PlanAnswer::Select { rows, .. }, Forgery::SubstituteRow) => {
                let r = rows.first()?;
                rows[0] = substitute(r, 1);
            }
            (PlanAnswer::Select { vo, .. }, Forgery::TruncateVo) => match vo {
                QueryVO::Range(r) => {
                    r.entries.pop()?;
                }
                _ => return None,
            },
            (PlanAnswer::Select { rows, vo }, Forgery::BoundaryDrop) => match vo {
                QueryVO::Range(r) => {
                    rows.pop()?;
                    r.entries.pop()?;
                }
                _ => return None,
            },
            (PlanAnswer::Join { result, .. }, Forgery::DropRow) => {
                if result.outer_rows.len() < 2 {
                    return None;
                }
                result.outer_rows.remove(1);
            }
            (PlanAnswer::Join { result, .. }, Forgery::SubstituteRow) => {
                let r = result.inner_rows.first()?;
                result.inner_rows[0] = substitute(r, 1);
            }
            (PlanAnswer::Join { vo, .. }, Forgery::TruncateVo) => {
                vo.inner.pop()?;
            }
            (PlanAnswer::Join { result, vo }, Forgery::BoundaryDrop) => match &mut vo.outer {
                QueryVO::Range(r) => {
                    result.outer_rows.pop()?;
                    r.entries.pop()?;
                }
                _ => return None,
            },
        }
        Some(forged)
    }

    /// One planned join and one planned aggregate, both through a server
    /// forging `forgery` on every planned answer. Both must be rejected by
    /// client-side verification; the hook proves it really forged.
    fn run_forgery(forgery: Forgery) {
        let fix = join_fixture();
        let forged = Arc::new(AtomicUsize::new(0));
        let forged_in_hook = Arc::clone(&forged);
        let mut server = Server::new(ServerConfig::default());
        server.add_shared_table(0, Arc::clone(&fix.emp));
        server.add_shared_table(1, Arc::clone(&fix.dept));
        server.set_tamper(move |_plan, _table, answer| match forge(forgery, &answer) {
            Some(bad) => {
                forged_in_hook.fetch_add(1, Ordering::SeqCst);
                bad
            }
            None => answer,
        });
        let handle = server.serve("127.0.0.1:0").unwrap();

        let mut s = SqlSession::connect(handle.addr()).unwrap();
        s.add_table(0, fix.emp_cert.clone(), 6);
        s.add_table(1, fix.dept_cert.clone(), 5);
        s.declare_fk("emp", "dept");

        let statements = [
            // Planned pk-fk join: 5 pairs over depts {10, 20, 30}.
            "SELECT emp.name, dept.dname FROM emp \
             INNER JOIN dept ON emp.dept = dept.dept \
             WHERE emp.dept BETWEEN 10 AND 30",
            // Planned aggregate (select wire shape): COUNT over 5 rows.
            "SELECT COUNT(*) FROM emp WHERE dept BETWEEN 10 AND 30",
        ];
        for sql in statements {
            let before = forged.load(Ordering::SeqCst);
            let verdict = s.query_sql(sql);
            assert!(
                forged.load(Ordering::SeqCst) > before,
                "{forgery:?} must apply to {sql:?}"
            );
            match verdict {
                Err(RemoteError::Verify(_)) => {}
                other => panic!(
                    "{forgery:?} on {sql:?} must be rejected by plan \
                     verification, got {other:?}"
                ),
            }
        }

        handle.shutdown();
    }

    #[test]
    fn forged_planned_answers_all_rejected() {
        for forgery in FORGERIES {
            run_forgery(forgery);
        }
    }

    /// The hook itself may not break honesty: with no forgery mounted the
    /// same statements verify (guards against the harness passing because
    /// *everything* fails).
    #[test]
    fn honest_planned_answers_still_verify() {
        let fix = join_fixture();
        let mut server = Server::new(ServerConfig::default());
        server.add_shared_table(0, Arc::clone(&fix.emp));
        server.add_shared_table(1, Arc::clone(&fix.dept));
        server.set_tamper(|_plan, _table, answer| answer);
        let handle = server.serve("127.0.0.1:0").unwrap();

        let mut s = SqlSession::connect(handle.addr()).unwrap();
        s.add_table(0, fix.emp_cert.clone(), 6);
        s.add_table(1, fix.dept_cert.clone(), 5);
        s.declare_fk("emp", "dept");

        let join = s
            .query_sql(
                "SELECT emp.name, dept.dname FROM emp \
                 INNER JOIN dept ON emp.dept = dept.dept \
                 WHERE emp.dept BETWEEN 10 AND 30",
            )
            .unwrap();
        assert_eq!(join.output.rows.len(), 5);
        let agg = s
            .query_sql("SELECT COUNT(*) FROM emp WHERE dept BETWEEN 10 AND 30")
            .unwrap();
        assert!(matches!(
            agg.output.aggregate.as_ref().unwrap().1,
            AggregateValue::Count(5)
        ));

        handle.shutdown();
    }
}
