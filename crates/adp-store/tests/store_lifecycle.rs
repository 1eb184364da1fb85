//! The acceptance path for the store: a signed table persisted to disk,
//! mutated through the update log, and reloaded after a (simulated)
//! process restart must be **byte-identical** to the in-memory table the
//! owner maintained — same signatures, same `g` digests, same VO bytes —
//! and `apply_batch` must re-sign `O(k)` chain neighborhoods, not `O(n)`.

use adp_core::prelude::*;
use adp_core::publisher::Publisher;
use adp_core::wire;
use adp_relation::{Column, KeyRange, Record, Schema, SelectQuery, Table, Value, ValueType};
use adp_store::{Store, StoreError, LOG_FILE};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs;
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread;

fn test_owner() -> &'static Owner {
    static OWNER: OnceLock<Owner> = OnceLock::new();
    OWNER.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0x5709E);
        Owner::new(512, &mut rng)
    })
}

fn workdir(name: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "adp-store-test-{name}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn schema() -> Schema {
    Schema::new(
        vec![
            Column::new("id", ValueType::Int),
            Column::new("name", ValueType::Text),
            Column::new("salary", ValueType::Int),
        ],
        "salary",
    )
}

fn rec(id: i64, salary: i64) -> Record {
    Record::new(vec![
        Value::Int(id),
        Value::from(format!("e{id}")),
        Value::Int(salary),
    ])
}

fn base_table(n: i64) -> Table {
    let mut t = Table::new("emp", schema());
    for i in 0..n {
        t.insert(rec(i, 1_000 + i * 50)).unwrap();
    }
    t
}

fn sign(n: i64) -> SignedTable {
    test_owner()
        .sign_table(
            base_table(n),
            Domain::new(0, 100_000),
            SchemeConfig::default(),
        )
        .unwrap()
}

/// Chain-position-indexed byte material of a signed table.
fn chain_bytes(st: &SignedTable) -> Vec<(Vec<u8>, Vec<u8>)> {
    (0..st.chain_len())
        .map(|p| (st.g_bytes(p), st.entry(p).signature.to_bytes()))
        .collect()
}

fn vo_bytes(st: &SignedTable, query: &SelectQuery) -> (Vec<u8>, Vec<u8>) {
    let (result, vo) = Publisher::new(st).answer_select(query).unwrap();
    (wire::encode_records(&result), wire::encode_vo(&vo))
}

#[test]
fn persist_mutate_reload_is_byte_identical() {
    let owner = test_owner();
    let dir = workdir("roundtrip");

    // The in-memory reference the owner keeps, and the durable store.
    let mut reference = sign(12);
    let mut store = Store::create(&dir, reference.clone()).unwrap();

    let batches: Vec<Vec<Mutation>> = vec![
        vec![
            Mutation::Insert(rec(100, 1_275)),
            Mutation::Insert(rec(101, 99_000)),
        ],
        vec![
            Mutation::Delete {
                key: 1_000,
                replica: 0,
            },
            Mutation::Update {
                key: 1_150,
                replica: 0,
                record: rec(3, 1_150),
            },
        ],
        vec![Mutation::Update {
            key: 1_200,
            replica: 0,
            record: rec(4, 77_777), // key change: decomposed delete+insert
        }],
    ];
    for ops in batches {
        owner.apply_batch(&mut reference, ops.clone()).unwrap();
        store.apply_batch(owner, ops).unwrap();
    }
    assert_eq!(store.log_record_count(), 3);
    drop(store);

    // "Restart": everything reconstructed from disk alone.
    let reloaded = Store::open(&dir).unwrap();
    assert!(reloaded.audit());
    assert_eq!(reloaded.table().len(), reference.len());
    assert_eq!(chain_bytes(reloaded.table()), chain_bytes(&reference));

    // The publisher produces byte-identical answers and VOs from either.
    let cert = owner.certificate(&reference);
    for query in [
        SelectQuery::range(KeyRange::closed(1_000, 1_400)),
        SelectQuery::range(KeyRange::at_least(50_000)),
        SelectQuery::range(KeyRange::all()).project(&["name"]),
    ] {
        let mem = vo_bytes(&reference, &query);
        let disk = vo_bytes(reloaded.table(), &query);
        assert_eq!(mem, disk, "VO bytes must match for {query:?}");
        let report = verify_select_wire(&cert, &query, &disk.0, &disk.1);
        assert!(report.is_ok(), "reloaded answer must verify: {report:?}");
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn compact_folds_log_and_preserves_bytes() {
    let owner = test_owner();
    let dir = workdir("compact");
    let mut store = Store::create(&dir, sign(8)).unwrap();
    store
        .apply_batch(owner, vec![Mutation::Insert(rec(50, 5_000))])
        .unwrap();
    store
        .apply_batch(
            owner,
            vec![Mutation::Delete {
                key: 1_050,
                replica: 0,
            }],
        )
        .unwrap();
    let before = chain_bytes(store.table());

    assert_eq!(store.compact().unwrap(), 2);
    assert_eq!(store.log_record_count(), 0);
    assert_eq!(chain_bytes(store.table()), before);

    // Reload after compaction, then keep mutating: sequences stay
    // contiguous across the snapshot boundary.
    drop(store);
    let mut store = Store::open(&dir).unwrap();
    assert_eq!(chain_bytes(store.table()), before);
    assert_eq!(store.next_seq(), 2);
    store
        .apply_batch(owner, vec![Mutation::Insert(rec(51, 6_000))])
        .unwrap();
    drop(store);
    let store = Store::open(&dir).unwrap();
    assert!(store.audit());
    assert_eq!(store.next_seq(), 3);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn store_apply_batch_resigns_o_k_not_o_n() {
    let owner = test_owner();
    let dir = workdir("locality");
    let n = 300i64;
    let mut store = Store::create(&dir, sign(n)).unwrap();
    let k = 5usize;
    let ops: Vec<Mutation> = (0..k as i64)
        .map(|i| Mutation::Insert(rec(500 + i, 2_000 + i * 3_000)))
        .collect();
    let report = store.apply_batch(owner, ops).unwrap();
    assert!(
        report.signatures_recomputed <= 3 * k,
        "k={k} mutations must re-sign O(k) neighborhoods, got {}",
        report.signatures_recomputed
    );
    assert!(report.signatures_recomputed < (n as usize + 2) / 10);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn tampered_log_bitflip_rejected_at_replay() {
    let owner = test_owner();
    let dir = workdir("tamper");
    let mut store = Store::create(&dir, sign(8)).unwrap();
    store
        .apply_batch(owner, vec![Mutation::Insert(rec(60, 4_000))])
        .unwrap();
    drop(store);

    let log_path = dir.join(LOG_FILE);
    let pristine = fs::read(&log_path).unwrap();
    // Flip one bit somewhere in the record body (past the 10-byte header):
    // the CRC framing must reject it at replay.
    for offset in [10usize, pristine.len() / 2, pristine.len() - 1] {
        let mut bad = pristine.clone();
        bad[offset] ^= 0x04;
        fs::write(&log_path, &bad).unwrap();
        let err = Store::open(&dir).expect_err("bit-flipped log must be rejected");
        assert!(
            matches!(
                err,
                StoreError::CrcMismatch { .. }
                    | StoreError::Truncated { .. }
                    | StoreError::BadSection { .. }
            ),
            "unexpected error for flip at {offset}: {err:?}"
        );
    }
    fs::write(&log_path, &pristine).unwrap();
    assert!(Store::open(&dir).is_ok());
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn forged_record_with_valid_crc_rejected_by_signature_check() {
    // CRC framing catches corruption; the signature check catches *forgery*:
    // a record re-framed with a valid CRC but a doctored signature must
    // still be rejected when the replay verifies it against the owner key.
    let owner = test_owner();
    let dir = workdir("forge");
    let mut store = Store::create(&dir, sign(8)).unwrap();
    let report = store
        .apply_batch(owner, vec![Mutation::Insert(rec(60, 4_000))])
        .unwrap();
    drop(store);

    // Replace the genuine log record with one that is identical — same
    // seq, same ops, same positions, a freshly valid CRC — except one
    // signature byte.
    let mut forged_resigned = report.resigned.clone();
    let mut sig_bytes = forged_resigned[1].1.to_bytes();
    sig_bytes[3] ^= 0x80;
    forged_resigned[1].1 = adp_crypto::Signature::from_bytes(&sig_bytes);
    let forged = adp_store::LogRecord {
        seq: 0,
        ops: report.ops.clone(),
        resigned: forged_resigned,
    };
    let log_path = dir.join(LOG_FILE);
    let mut log: Vec<u8> = adp_store::log::log_header().to_vec();
    log.extend_from_slice(&adp_store::log::encode_record(&forged));
    fs::write(&log_path, log).unwrap();

    let err = Store::open(&dir).expect_err("forged signature must be rejected");
    assert!(
        matches!(
            err,
            StoreError::Owner(adp_core::owner::OwnerError::ResignatureInvalid { .. })
        ),
        "{err:?}"
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn record_with_two_signatures_swapped_is_rejected_live_and_at_open() {
    // Two honest signatures traded between their positions multiply to the
    // same product, so a condensed-RSA aggregate over the record would
    // accept them; replay checks each against its own link digest. Neither
    // a live publisher nor a reopening one may take the record in.
    let owner = test_owner();
    let mut owner_st = sign(8);
    let report = owner
        .apply_batch(&mut owner_st, vec![Mutation::Insert(rec(60, 4_000))])
        .unwrap();
    let mut swapped = report.resigned.clone();
    let (a, b) = (swapped[0].1.clone(), swapped[2].1.clone());
    (swapped[0].1, swapped[2].1) = (b, a);
    let forged_pos = report.resigned[0].0 as usize;
    let is_forgery = |err: &StoreError| {
        matches!(
            err,
            StoreError::Owner(adp_core::owner::OwnerError::ResignatureInvalid { chain_pos })
                if *chain_pos == forged_pos
        )
    };

    let dir = workdir("swap");
    let mut store = Store::create(&dir, sign(8)).unwrap();
    let before = store.snapshot_bytes();
    let err = store
        .apply_replayed(&report.ops, &swapped)
        .expect_err("swapped signatures must be rejected");
    assert!(is_forgery(&err), "{err:?}");
    assert!(
        store.snapshot_bytes() == before,
        "rejected batch moved the table"
    );
    assert_eq!(
        store.log_record_count(),
        0,
        "rejected batch reached the log"
    );
    assert!(store.audit());
    drop(store);

    let forged = adp_store::LogRecord {
        seq: 0,
        ops: report.ops.clone(),
        resigned: swapped,
    };
    let log_path = dir.join(LOG_FILE);
    let mut log: Vec<u8> = adp_store::log::log_header().to_vec();
    log.extend_from_slice(&adp_store::log::encode_record(&forged));
    fs::write(&log_path, log).unwrap();
    let err = Store::open(&dir).expect_err("swapped signatures must be rejected at open");
    assert!(is_forgery(&err), "{err:?}");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn interrupted_compaction_recovers_on_open() {
    // Simulate a crash between compact()'s two steps: the new snapshot
    // (base_seq advanced) landed, but the old log — full of already-folded
    // records — was never truncated. Open must skip the folded prefix and
    // reconstruct the same table, not refuse with a sequence gap.
    let owner = test_owner();
    let dir = workdir("compact-crash");
    let mut store = Store::create(&dir, sign(8)).unwrap();
    store
        .apply_batch(owner, vec![Mutation::Insert(rec(50, 5_000))])
        .unwrap();
    store
        .apply_batch(
            owner,
            vec![Mutation::Delete {
                key: 1_050,
                replica: 0,
            }],
        )
        .unwrap();
    let expected = chain_bytes(store.table());
    let stale_log = fs::read(dir.join(LOG_FILE)).unwrap();
    store.compact().unwrap();
    drop(store);
    // "Crash": restore the pre-compaction log next to the new snapshot.
    fs::write(dir.join(LOG_FILE), &stale_log).unwrap();

    let store = Store::open(&dir).expect("interrupted compaction must recover");
    assert!(store.audit());
    assert_eq!(chain_bytes(store.table()), expected);
    assert_eq!(store.next_seq(), 2);
    assert_eq!(store.log_record_count(), 0, "folded records don't count");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sequence_gap_rejected() {
    let owner = test_owner();
    let dir = workdir("seqgap");
    let mut store = Store::create(&dir, sign(8)).unwrap();
    let report = store
        .apply_batch(owner, vec![Mutation::Insert(rec(60, 4_000))])
        .unwrap();
    drop(store);

    // Re-append the same record with a skipped sequence number.
    let log_path = dir.join(LOG_FILE);
    let mut log = fs::read(&log_path).unwrap();
    log.extend_from_slice(&adp_store::log::encode_record(&adp_store::LogRecord {
        seq: 5,
        ops: report.ops.clone(),
        resigned: report.resigned.clone(),
    }));
    fs::write(&log_path, log).unwrap();
    assert!(matches!(
        Store::open(&dir),
        Err(StoreError::SequenceGap {
            expected: 1,
            got: 5
        })
    ));
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn single_writer_lock_enforced_and_released() {
    let dir = workdir("lock");
    let store = Store::create(&dir, sign(6)).unwrap();
    // A second writer on the same directory is refused while the first
    // lives (this is what keeps log sequence numbers append-once).
    assert!(matches!(Store::open(&dir), Err(StoreError::Locked { .. })));
    drop(store);
    // The OS advisory lock is released with the handle (and would be
    // released by the kernel on any crash); the LOCK file itself stays.
    let store = Store::open(&dir).unwrap();
    drop(store);
    // A leftover LOCK file with arbitrary content holds no lock: nothing
    // to reclaim, acquisition just succeeds.
    fs::write(dir.join("LOCK"), "4294967294").unwrap();
    let store = Store::open(&dir).expect("a dead holder's lock file must not brick the store");
    drop(store);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn dropped_store_unlocks_while_another_thread_spawns_children() {
    // A child forked by another thread holds a duplicate of the LOCK fd
    // until it execs. Dropping the store must release the lock anyway,
    // so an immediate reopen never sees `Locked`.
    let dir = workdir("lock-spawn");
    drop(Store::create(&dir, sign(6)).unwrap());
    let stop = Arc::new(AtomicBool::new(false));
    let spawner = {
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let _ = Command::new("true").status();
            }
        })
    };
    let mut locked = 0;
    for _ in 0..2_000 {
        match Store::open(&dir) {
            Ok(store) => drop(store),
            Err(StoreError::Locked { .. }) => locked += 1,
            Err(e) => panic!("reopen failed: {e:?}"),
        }
    }
    stop.store(true, Ordering::Relaxed);
    spawner.join().unwrap();
    fs::remove_dir_all(&dir).unwrap();
    assert_eq!(
        locked, 0,
        "{locked} of 2000 reopens found the dropped store still locked"
    );
}

#[test]
fn wrong_owner_key_rejected() {
    let dir = workdir("wrongkey");
    let mut store = Store::create(&dir, sign(6)).unwrap();
    let mut rng = StdRng::seed_from_u64(0xBAD);
    let stranger = Owner::new(512, &mut rng);
    assert!(matches!(
        store.apply_batch(&stranger, vec![Mutation::Insert(rec(60, 4_000))]),
        Err(StoreError::OwnerKeyMismatch)
    ));
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn failed_batch_leaves_store_unchanged() {
    let owner = test_owner();
    let dir = workdir("atomic");
    let mut store = Store::create(&dir, sign(6)).unwrap();
    let before = chain_bytes(store.table());
    let err = store.apply_batch(
        owner,
        vec![
            Mutation::Insert(rec(70, 7_000)),
            Mutation::Delete {
                key: 424_242,
                replica: 0,
            },
        ],
    );
    assert!(err.is_err());
    assert_eq!(chain_bytes(store.table()), before);
    assert_eq!(store.log_record_count(), 0);
    drop(store);
    // Disk agrees: nothing was appended.
    let store = Store::open(&dir).unwrap();
    assert_eq!(chain_bytes(store.table()), before);
    fs::remove_dir_all(&dir).unwrap();
}
