//! Consecutive epochs of a served table share what a batch does not touch.
//! Two laws, neither of them a timing:
//!
//! * **Isolation.** Over random batch histories every retained epoch — on
//!   the owner's side and the publisher's — stays byte-identical to what it
//!   was when taken, however many later batches were staged on copies of
//!   it, and every new epoch equals a table rebuilt from scratch out of its
//!   own snapshot. A shared node mutated in place breaks the first; a node
//!   copied but not relinked breaks the second.
//! * **Cost.** What `Store::apply_replayed` allocates for a batch is a
//!   function of the batch: a table ten times the size moves block count
//!   and bytes by less than 15 %, and releasing the previous epoch frees a
//!   couple of hundred blocks at most, whatever the table holds.

use adp_core::prelude::*;
use adp_crypto::Signature;
use adp_relation::{Column, Record, Schema, Table, Value, ValueType};
use adp_store::format::{decode_snapshot, encode_snapshot};
use adp_store::Store;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::Bound;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};

/// Counts the calling thread's allocations, so tests running beside this
/// one on other threads stay out of the numbers.
struct Counting;

thread_local! {
    /// `(blocks allocated, bytes allocated, blocks freed)` on this thread.
    static COUNTS: Cell<(u64, u64, u64)> = const { Cell::new((0, 0, 0)) };
}

fn bump(blocks: u64, bytes: u64, freed: u64) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = COUNTS.try_with(|c| {
        let (a, b, f) = c.get();
        c.set((a + blocks, b + bytes, f + freed));
    });
}

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// beside it touches only a `Cell` in thread-local storage and allocates
// nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(1, layout.size() as u64, 0);
        // SAFETY: the caller's contract for `alloc`, passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(0, 0, 1);
        // SAFETY: the caller's contract for `dealloc`, passed on as is.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(1, new_size as u64, 1);
        // SAFETY: the caller's contract for `realloc`, passed on as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f`, returning what it allocated and freed on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, (u64, u64, u64)) {
    let before = COUNTS.with(Cell::get);
    let out = f();
    let after = COUNTS.with(Cell::get);
    (
        out,
        (after.0 - before.0, after.1 - before.1, after.2 - before.2),
    )
}

fn owner() -> &'static Owner {
    static OWNER: OnceLock<Owner> = OnceLock::new();
    OWNER.get_or_init(|| Owner::new(512, &mut StdRng::seed_from_u64(0xE90C)))
}

fn workdir(name: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "adp-epoch-{name}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn schema() -> Schema {
    Schema::new(
        vec![
            Column::new("k", ValueType::Int),
            Column::new("payload", ValueType::Text),
        ],
        "k",
    )
}

fn rec(key: i64, tag: u64) -> Record {
    Record::new(vec![Value::Int(key), Value::from(format!("p{tag:016x}"))])
}

fn signed(keys: impl Iterator<Item = i64>, domain: Domain) -> SignedTable {
    let records = keys.map(|k| rec(k, k as u64)).collect();
    let table = Table::from_records("t", schema(), records).unwrap();
    owner()
        .sign_table(table, domain, SchemeConfig::default())
        .unwrap()
}

/// Everything an epoch holds: its snapshot bytes (rows and signatures),
/// per chain position the derived `g` digest followed by the rep-roots, and
/// the signature index.
#[derive(PartialEq, Debug)]
struct Fingerprint {
    snapshot: Vec<u8>,
    derived: Vec<Vec<u8>>,
    index: Vec<((i64, u32), Vec<u8>)>,
}

fn fingerprint(st: &SignedTable) -> Fingerprint {
    let mut index = Vec::new();
    st.sig_index()
        .range_for_each(Bound::Unbounded, Bound::Unbounded, |k, sig| {
            index.push((k, sig.to_bytes()))
        });
    Fingerprint {
        snapshot: encode_snapshot(st, 0),
        derived: (0..st.chain_len())
            .map(|p| {
                let mut bytes = st.g_bytes(p);
                if let Some((up, down)) = st.entry(p).roots {
                    bytes.extend_from_slice(up.as_bytes());
                    bytes.extend_from_slice(down.as_bytes());
                }
                bytes
            })
            .collect(),
        index,
    }
}

/// The epoch is what a from-scratch `from_parts` makes of its own rows and
/// signatures, and its index lists exactly its chain.
fn check_against_rebuild(st: &SignedTable) -> Result<(), TestCaseError> {
    let print = fingerprint(st);
    let (rebuilt, _) = decode_snapshot(&print.snapshot).expect("own snapshot decodes");
    let rebuilt_print = fingerprint(&rebuilt);
    prop_assert_eq!(&rebuilt_print.snapshot, &print.snapshot);
    prop_assert_eq!(&rebuilt_print.derived, &print.derived);
    prop_assert!(rebuilt.audit());
    prop_assert_eq!(st.table().rows().len(), st.len());
    prop_assert!(st
        .table()
        .rows()
        .iter()
        .eq((0..st.len()).map(|p| st.table().row(p))));
    let chain: Vec<_> = (0..st.chain_len())
        .map(|p| (st.tree_key_at(p), st.entry(p).signature.to_bytes()))
        .collect();
    prop_assert_eq!(&print.index, &chain);
    Ok(())
}

/// One step of a history, resolved against the table it meets.
#[derive(Clone, Debug)]
enum Step {
    Insert { key: i64 },
    Delete { pick: usize },
    Update { pick: usize },
    Rekey { pick: usize, key: i64 },
}

/// Keys 2..=61 over 25 initial rows: inserts collide with live keys (and
/// get replicas) about as often as not.
const DOMAIN: (i64, i64) = (0, 64);

fn arb_step() -> impl Strategy<Value = Step> {
    let key = (DOMAIN.0 + 2)..(DOMAIN.1 - 2);
    prop_oneof![
        key.clone().prop_map(|key| Step::Insert { key }),
        (0usize..1_000).prop_map(|pick| Step::Delete { pick }),
        (0usize..1_000).prop_map(|pick| Step::Update { pick }),
        (0usize..1_000, key).prop_map(|(pick, key)| Step::Rekey { pick, key }),
    ]
}

/// A batch is a handful of steps, or — one time in eight — "delete every
/// row", so histories pass through the empty table.
fn arb_batch() -> impl Strategy<Value = Option<Vec<Step>>> {
    (0u8..8, prop::collection::vec(arb_step(), 0..7))
        .prop_map(|(roll, steps)| (roll != 0).then_some(steps))
}

/// Turns steps into mutations valid against `st` as one batch: each row is
/// targeted at most once.
fn resolve(st: &SignedTable, batch: &Option<Vec<Step>>, tag: u64) -> Vec<Mutation> {
    let target = |pos: usize| {
        let row = st.table().row(pos);
        (row.record.key(st.table().schema()), row.replica)
    };
    let Some(steps) = batch else {
        return (0..st.len())
            .map(|pos| {
                let (key, replica) = target(pos);
                Mutation::Delete { key, replica }
            })
            .collect();
    };
    let mut taken = std::collections::BTreeSet::new();
    let mut ops = Vec::new();
    for (i, step) in steps.iter().enumerate() {
        let tag = tag * 100 + i as u64;
        let mut pick_row = |pick: usize| {
            (!st.is_empty())
                .then(|| pick % st.len())
                .filter(|pos| taken.insert(*pos))
                .map(target)
        };
        match *step {
            Step::Insert { key } => ops.push(Mutation::Insert(rec(key, tag))),
            Step::Delete { pick } => {
                if let Some((key, replica)) = pick_row(pick) {
                    ops.push(Mutation::Delete { key, replica });
                }
            }
            Step::Update { pick } => {
                if let Some((key, replica)) = pick_row(pick) {
                    ops.push(Mutation::Update {
                        key,
                        replica,
                        record: rec(key, tag),
                    });
                }
            }
            Step::Rekey { pick, key: to } => {
                if let Some((key, replica)) = pick_row(pick) {
                    ops.push(Mutation::Update {
                        key,
                        replica,
                        record: rec(to, tag),
                    });
                }
            }
        }
    }
    ops
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn retained_epochs_never_move_and_new_ones_equal_a_rebuild(
        history in prop::collection::vec(arb_batch(), 1..7),
    ) {
        let domain = Domain::new(DOMAIN.0, DOMAIN.1);
        let mut owner_st = signed((0..25).map(|i| 3 + i * 2), domain);
        let dir = workdir("law");
        let mut store = Store::create(&dir, owner_st.clone()).unwrap();

        // Every epoch either side ever had, with what it looked like then.
        let taken = |st: Arc<SignedTable>| {
            let print = fingerprint(&st);
            (st, print)
        };
        let mut retained = vec![taken(Arc::new(owner_st.clone())), taken(store.table_arc())];

        for (round, batch) in history.iter().enumerate() {
            let ops = resolve(&owner_st, batch, round as u64);
            let report = owner().apply_batch(&mut owner_st, ops).unwrap();
            store.apply_replayed(&report.ops, &report.resigned).unwrap();

            check_against_rebuild(&owner_st)?;
            check_against_rebuild(store.table())?;
            prop_assert_eq!(fingerprint(store.table()), fingerprint(&owner_st));
            for (age, (epoch, then)) in retained.iter().enumerate() {
                prop_assert!(
                    fingerprint(epoch) == *then,
                    "epoch {age} moved under batch {round}"
                );
            }
            retained.push(taken(Arc::new(owner_st.clone())));
            retained.push(taken(store.table_arc()));
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A rejected replay leaves the table's snapshot bytes as they were, for
/// each way a log record can be forged.
#[test]
fn rejected_replay_leaves_the_snapshot_bytes_alone() {
    let mut owner_st = signed((0..40).map(|i| 10 + i * 5), Domain::new(0, 1_000));
    let mut publisher_st = owner_st.clone();
    let report = owner()
        .apply_batch(
            &mut owner_st,
            vec![
                Mutation::Insert(rec(33, 1)),
                Mutation::Delete {
                    key: 100,
                    replica: 0,
                },
            ],
        )
        .unwrap();
    let mut flipped = report.resigned.clone();
    let mut bytes = flipped[2].1.to_bytes();
    bytes[9] ^= 0x40;
    flipped[2].1 = Signature::from_bytes(&bytes);
    let swapped = [
        Mutation::Delete {
            key: 100,
            replica: 0,
        },
        Mutation::Insert(rec(34, 1)),
    ];
    let rekey = [Mutation::Update {
        key: 100,
        replica: 0,
        record: rec(101, 1),
    }];
    let before = encode_snapshot(&publisher_st, 7);
    let mut rejected = |ops: &[Mutation], resigned: &[(u32, Signature)]| {
        publisher_st
            .replay_batch(ops, resigned)
            .expect_err("forged batch must be rejected");
        assert!(encode_snapshot(&publisher_st, 7) == before);
    };
    rejected(&report.ops, &flipped);
    rejected(&report.ops, &report.resigned[1..]);
    rejected(&swapped, &report.resigned);
    rejected(&rekey, &report.resigned);
    publisher_st
        .replay_batch(&report.ops, &report.resigned)
        .unwrap();
    assert_eq!(
        encode_snapshot(&publisher_st, 7),
        encode_snapshot(&owner_st, 7)
    );
}

/// Per-batch averages over `BATCHES` batches of the `update_mix` shape (one
/// delete, two payload updates, one insert, keys uniform) replayed into a
/// store serving `rows` rows: `(blocks allocated, bytes allocated)` by
/// `apply_replayed`, and blocks freed when the last holder of the previous
/// epoch lets go.
fn replay_cost(rows: i64) -> (f64, f64, f64) {
    const BATCHES: u64 = 48;
    const GAP: i64 = 16;
    let mut owner_st = signed(
        (1..=rows).map(|i| i * GAP),
        Domain::new(0, (rows + 2) * GAP),
    );
    let dir = workdir("cost");
    let mut store = Store::create(&dir, owner_st.clone()).unwrap();
    let mut rng = StdRng::seed_from_u64(0xBA7C);
    let mut totals = (0u64, 0u64, 0u64);
    // The first batches run uncounted: they pay for what a clone of the
    // freshly built table shares with its source.
    let mut done = 0;
    while done < BATCHES + 4 {
        let live = |rng: &mut StdRng, st: &SignedTable| {
            let row = st.table().row(rng.gen_range(0..st.len()));
            row.record.key(st.table().schema())
        };
        let deleted = live(&mut rng, &owner_st);
        let mut ops = vec![Mutation::Delete {
            key: deleted,
            replica: 0,
        }];
        while ops.len() < 3 {
            let key = live(&mut rng, &owner_st);
            let fresh = ops.iter().all(|op| match op {
                Mutation::Delete { key: k, .. } | Mutation::Update { key: k, .. } => *k != key,
                Mutation::Insert(_) => true,
            });
            if fresh {
                ops.push(Mutation::Update {
                    key,
                    replica: 0,
                    record: rec(key, rng.gen()),
                });
            }
        }
        // Odd keys are never live: the table starts on multiples of `GAP`.
        let inserted = rng.gen_range(1..rows * GAP) | 1;
        ops.push(Mutation::Insert(rec(inserted, rng.gen())));
        if owner_st.table().position_of(inserted, 0).is_some() {
            continue;
        }
        let report = owner().apply_batch(&mut owner_st, ops).unwrap();

        // What the server's registry does: hold the epoch being replaced.
        let previous = store.table_arc();
        let ((), staged) = counted(|| store.apply_replayed(&report.ops, &report.resigned).unwrap());
        let ((), released) = counted(|| drop(previous));
        if done >= 4 {
            totals.0 += staged.0;
            totals.1 += staged.1;
            totals.2 += released.2;
        }
        done += 1;
    }
    assert!(store.audit());
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    let per_batch = |total: u64| total as f64 / BATCHES as f64;
    (
        per_batch(totals.0),
        per_batch(totals.1),
        per_batch(totals.2),
    )
}

#[test]
fn a_batch_costs_the_batch_not_the_table() {
    let small = replay_cost(4_000);
    let large = replay_cost(40_000);
    println!("per batch (blocks, bytes, blocks freed on release): 4 000 rows {small:?}, 40 000 rows {large:?}");
    let within = |a: f64, b: f64| (a - b).abs() <= 0.15 * a.min(b);
    assert!(
        within(small.0, large.0),
        "blocks allocated per batch: {small:?} vs {large:?}"
    );
    assert!(
        within(small.1, large.1),
        "bytes allocated per batch: {small:?} vs {large:?}"
    );
    // Releasing the previous epoch frees what the batch replaced — a few
    // root paths, which a larger table shares less between the mutations
    // of one batch — not a block per row.
    assert!(
        small.2 < 200.0 && large.2 < 200.0,
        "blocks freed per release: {small:?} vs {large:?}"
    );
}
