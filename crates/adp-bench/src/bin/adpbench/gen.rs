//! Everything `--seed` decides: table payloads and the operation streams.
//! The program under test only ever sees what is generated here.
//!
//! Read streams are pure functions of `(seed, index)`, so two client
//! threads can draw from one stream without sharing a generator, and the
//! open phase (which assigns indices, not time) sends the same operations
//! on every run of a seed.

use adp_core::prelude::{Domain, Mutation};
use adp_relation::{Column, Record, Schema, Table, Value, ValueType};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::HashSet;

/// Base keys of the `bench` table are the multiples of this; every other
/// key in the domain is absent until `update_mix` inserts it.
pub const KEY_GAP: i64 = 10;
pub const PAYLOAD_BYTES: usize = 64;
/// `range_hot` cycles this many distinct ranges (far fewer than the 1024
/// entries of the server's VO cache) ...
pub const HOT_RANGES: u64 = 64;
/// ... of this many rows each.
pub const HOT_ROWS: i64 = 50;
pub const ORDERS_PER_CUSTOMER: i64 = 10;
/// Mutations per `update_mix` batch: one delete, two payload updates, one
/// insert.
pub const UPDATE_BATCH: usize = 4;

/// Sizes of the tables one run serves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sizes {
    /// Rows of `bench` (`range_hot`, `range_cold`, `update_mix`).
    pub bench_rows: i64,
    /// Rows of `customers`; `orders` has ten per customer (`sql_mix`).
    pub customers: i64,
}

impl Sizes {
    /// What the read workloads serve.
    pub const FULL: Sizes = Sizes {
        bench_rows: 10_000,
        customers: 1_000,
    };
    /// What `update_mix` serves. Every batch clones the served table, so
    /// the table's size sets the batch rate the open phase can offer, and
    /// this is the size at which that rate yields a thousand samples.
    pub const FULL_UPDATE: Sizes = Sizes {
        bench_rows: 4_000,
        customers: 0,
    };
    /// `--smoke`: a twentieth of the read workloads' sizes.
    pub const SMOKE: Sizes = Sizes {
        bench_rows: 500,
        customers: 50,
    };
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A 64-bit hash of `(seed, stream, index)`.
fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    splitmix(splitmix(seed ^ stream.rotate_left(32)) ^ index)
}

/// Fisher-Yates over a small fixed pattern, driven by one hash.
fn shuffled<const N: usize>(mut pattern: [u8; N], mut h: u64) -> [u8; N] {
    for i in (1..N).rev() {
        pattern.swap(i, (h % (i as u64 + 1)) as usize);
        h = splitmix(h);
    }
    pattern
}

pub fn bench_schema() -> Schema {
    Schema::new(
        vec![
            Column::new("k", ValueType::Int),
            Column::new("grp", ValueType::Int),
            Column::new("payload", ValueType::Bytes),
        ],
        "k",
    )
}

pub fn bench_domain(sizes: Sizes) -> Domain {
    Domain::new(0, (sizes.bench_rows + 2) * KEY_GAP)
}

fn bench_record(key: i64, grp: i64, rng: &mut StdRng) -> Record {
    let mut payload = vec![0u8; PAYLOAD_BYTES];
    rng.fill_bytes(&mut payload);
    Record::new(vec![
        Value::Int(key),
        Value::Int(grp),
        Value::Bytes(payload),
    ])
}

/// The `bench` table: keys `KEY_GAP, 2*KEY_GAP, ...`, seeded payloads.
pub fn bench_table(seed: u64, sizes: Sizes) -> Table {
    let mut rng = StdRng::seed_from_u64(mix(seed, 1, 0));
    let mut t = Table::new("bench", bench_schema());
    for i in 1..=sizes.bench_rows {
        t.insert(bench_record(i * KEY_GAP, i % 10, &mut rng))
            .expect("generated record fits the schema");
    }
    t
}

/// Customer ids `1..=customers` are the legal keys `key_min..key_max - 1`.
pub fn sql_domain(sizes: Sizes) -> Domain {
    Domain::new(-1, sizes.customers + 4)
}

/// `orders`, sorted on its foreign key `cust`: ten orders per customer id
/// `1..=customers`.
pub fn orders_table(seed: u64, sizes: Sizes) -> Table {
    let schema = Schema::new(
        vec![
            Column::new("oid", ValueType::Int),
            Column::new("cust", ValueType::Int),
            Column::new("amount", ValueType::Int),
        ],
        "cust",
    );
    let mut rng = StdRng::seed_from_u64(mix(seed, 2, 0));
    let mut t = Table::new("orders", schema);
    for cust in 1..=sizes.customers {
        for n in 0..ORDERS_PER_CUSTOMER {
            t.insert(Record::new(vec![
                Value::Int(cust * ORDERS_PER_CUSTOMER + n),
                Value::Int(cust),
                Value::Int(rng.gen_range(1..=10_000)),
            ]))
            .expect("generated record fits the schema");
        }
    }
    t
}

/// `customers`, keyed on `id`, the target of `orders.cust`.
pub fn customers_table(seed: u64, sizes: Sizes) -> Table {
    let schema = Schema::new(
        vec![
            Column::new("id", ValueType::Int),
            Column::new("name", ValueType::Text),
            Column::new("tier", ValueType::Int),
        ],
        "id",
    );
    let mut rng = StdRng::seed_from_u64(mix(seed, 3, 0));
    let mut t = Table::new("customers", schema);
    for id in 1..=sizes.customers {
        t.insert(Record::new(vec![
            Value::Int(id),
            Value::Text(format!("customer-{:016x}", rng.next_u64())),
            Value::Int(rng.gen_range(1..=3)),
        ]))
        .expect("generated record fits the schema");
    }
    t
}

/// The four statement shapes of `sql_mix`, with the share of the stream
/// each takes (two, one, one, one of every five operations).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SqlTemplate {
    /// Projected narrow scan of the fk table.
    OrderAmounts,
    /// Scan with a non-key predicate (client-side residue).
    TierTwo,
    /// pk-fk join.
    Join,
    /// Verified aggregate.
    SumAmounts,
}

impl SqlTemplate {
    /// Key-range width the statement asks for.
    pub fn span(self) -> i64 {
        match self {
            SqlTemplate::OrderAmounts => 10,
            SqlTemplate::TierTwo => 50,
            SqlTemplate::Join => 5,
            SqlTemplate::SumAmounts => 20,
        }
    }

    pub fn text(self, a: i64) -> String {
        let b = a + self.span() - 1;
        match self {
            SqlTemplate::OrderAmounts => {
                format!("SELECT amount FROM orders WHERE cust BETWEEN {a} AND {b}")
            }
            SqlTemplate::TierTwo => {
                format!("SELECT * FROM customers WHERE id BETWEEN {a} AND {b} AND tier = 2")
            }
            SqlTemplate::Join => format!(
                "SELECT * FROM orders JOIN customers ON orders.cust = customers.id \
                 WHERE orders.cust BETWEEN {a} AND {b}"
            ),
            SqlTemplate::SumAmounts => {
                format!("SELECT SUM(amount) FROM orders WHERE cust BETWEEN {a} AND {b}")
            }
        }
    }
}

/// One read operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadOp {
    /// Closed key range on `bench`; `lo == hi` on a non-multiple of
    /// [`KEY_GAP`] is the absent-key point query.
    Range {
        lo: i64,
        hi: i64,
    },
    Sql {
        template: SqlTemplate,
        a: i64,
    },
}

/// The read workloads' streams.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadStream {
    Hot,
    Cold,
    Sql,
}

/// Rows per operation in each block of ten `range_cold` operations: one
/// absent-key point, three 10-row, five 100-row and one 1000-row range.
/// Fixing the mix per block (and shuffling only the order) keeps bytes per
/// operation and the size class of p50/p99 the same for every seed.
const COLD_BLOCK: [u8; 10] = [0, 1, 1, 1, 2, 2, 2, 2, 2, 3];
const COLD_ROWS: [i64; 4] = [0, 10, 100, 1_000];
const SQL_BLOCK: [u8; 5] = [0, 0, 1, 2, 3];
/// A prime that divides none of the start-row counts in use.
const COLD_STEP: u64 = 7_919;

/// Operation `index` of a read stream.
pub fn read_op(stream: ReadStream, seed: u64, sizes: Sizes, index: u64) -> ReadOp {
    match stream {
        ReadStream::Hot => {
            // Slot s owns rows [s*stride, (s+1)*stride); an odd multiplier
            // permutes Z_64, so the cycle visits the 64 slots in a
            // seed-shuffled order.
            let h = mix(seed, 10, 0);
            let slot = (index % HOT_RANGES)
                .wrapping_mul(h | 1)
                .wrapping_add(h >> 32)
                % HOT_RANGES;
            let stride = (sizes.bench_rows - HOT_ROWS) / HOT_RANGES as i64;
            let offset = (mix(seed, 10, 1 + slot) % stride.max(1) as u64) as i64;
            let first_row = 1 + slot as i64 * stride + offset;
            ReadOp::Range {
                lo: first_row * KEY_GAP,
                hi: (first_row + HOT_ROWS - 1) * KEY_GAP,
            }
        }
        ReadStream::Cold => {
            let block = shuffled(COLD_BLOCK, mix(seed, 11, index / 10));
            let rows = COLD_ROWS[block[(index % 10) as usize] as usize];
            // Scale the classes down with the table so smoke runs fit.
            let rows = rows.min(sizes.bench_rows / 10);
            // Start rows step through the table by a stride coprime to its
            // size (uniform coverage from a seeded origin), and sub-gap
            // offsets that follow the index change the range without
            // changing the rows it selects: no range recurs within
            // thousands of consecutive operations, so the VO cache never
            // helps.
            let starts = (sizes.bench_rows - rows.max(1) + 1) as u64;
            let first_row =
                1 + ((mix(seed, 12, 0) % starts + (index % starts) * COLD_STEP) % starts) as i64;
            let (sub_lo, sub_hi) = ((index / 10 % 9) as i64, (index % 10) as i64);
            if rows == 0 {
                let key = first_row * KEY_GAP + 1 + sub_lo;
                ReadOp::Range { lo: key, hi: key }
            } else {
                ReadOp::Range {
                    lo: first_row * KEY_GAP - sub_lo,
                    hi: (first_row + rows - 1) * KEY_GAP + sub_hi,
                }
            }
        }
        ReadStream::Sql => {
            let block = shuffled(SQL_BLOCK, mix(seed, 13, index / 5));
            let template = [
                SqlTemplate::OrderAmounts,
                SqlTemplate::TierTwo,
                SqlTemplate::Join,
                SqlTemplate::SumAmounts,
            ][block[(index % 5) as usize] as usize];
            let top = (sizes.customers - template.span() + 1).max(1) as u64;
            ReadOp::Sql {
                template,
                a: 1 + (mix(seed, 14, index) % top) as i64,
            }
        }
    }
}

/// The `update_mix` batch stream: a deterministic walk that tracks which
/// keys are live so every mutation it emits is valid when applied in order.
pub struct UpdateGen {
    rng: StdRng,
    live: Vec<i64>,
    present: HashSet<i64>,
    key_top: i64,
}

impl UpdateGen {
    pub fn new(seed: u64, sizes: Sizes) -> Self {
        let live: Vec<i64> = (1..=sizes.bench_rows).map(|i| i * KEY_GAP).collect();
        UpdateGen {
            rng: StdRng::seed_from_u64(mix(seed, 20, 0)),
            present: live.iter().copied().collect(),
            live,
            key_top: (sizes.bench_rows + 1) * KEY_GAP,
        }
    }

    /// Next batch: one delete, two payload updates, one insert, keys
    /// uniform over what is live (or absent, for the insert).
    pub fn next_batch(&mut self) -> Vec<Mutation> {
        let mut ops = Vec::with_capacity(UPDATE_BATCH);
        let at = self.rng.gen_range(0..self.live.len());
        let deleted = self.live.swap_remove(at);
        self.present.remove(&deleted);
        ops.push(Mutation::Delete {
            key: deleted,
            replica: 0,
        });
        let mut updated = HashSet::new();
        while updated.len() < 2 {
            let key = self.live[self.rng.gen_range(0..self.live.len())];
            if updated.insert(key) {
                let grp = self.rng.gen_range(0..10);
                ops.push(Mutation::Update {
                    key,
                    replica: 0,
                    record: bench_record(key, grp, &mut self.rng),
                });
            }
        }
        loop {
            let key = self.rng.gen_range(KEY_GAP..self.key_top);
            // Never re-insert the key this batch deleted: canonical order
            // would make it legal, but it muddies the per-batch counts.
            if key != deleted && !self.present.contains(&key) {
                let grp = self.rng.gen_range(0..10);
                ops.push(Mutation::Insert(bench_record(key, grp, &mut self.rng)));
                self.live.push(key);
                self.present.insert(key);
                break;
            }
        }
        ops
    }
}

/// Encoded bytes of the records a batch writes (12 bytes of key and
/// replica for a delete): the denominator of `log_bytes_per_user_byte`.
pub fn user_bytes(ops: &[Mutation]) -> u64 {
    ops.iter()
        .map(|op| match op {
            Mutation::Insert(r) | Mutation::Update { record: r, .. } => r.wire_size() as u64,
            Mutation::Delete { .. } => 12,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_bytes(stream: ReadStream, seed: u64, n: u64) -> String {
        (0..n)
            .map(|i| format!("{:?};", read_op(stream, seed, Sizes::FULL, i)))
            .collect()
    }

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        for stream in [ReadStream::Hot, ReadStream::Cold, ReadStream::Sql] {
            assert_eq!(stream_bytes(stream, 7, 500), stream_bytes(stream, 7, 500));
            assert_ne!(stream_bytes(stream, 7, 500), stream_bytes(stream, 8, 500));
        }
        let batches = |seed| -> String {
            let mut g = UpdateGen::new(seed, Sizes::SMOKE);
            (0..50).map(|_| format!("{:?};", g.next_batch())).collect()
        };
        assert_eq!(batches(7), batches(7));
        assert_ne!(batches(7), batches(8));
        let table = |seed| format!("{:?}", bench_table(seed, Sizes::SMOKE).rows());
        assert_eq!(table(7), table(7));
        assert_ne!(table(7), table(8));
    }

    #[test]
    fn hot_stream_cycles_sixty_four_distinct_fifty_row_ranges() {
        let ops: Vec<ReadOp> = (0..HOT_RANGES * 2)
            .map(|i| read_op(ReadStream::Hot, 3, Sizes::FULL, i))
            .collect();
        let distinct: HashSet<String> = ops.iter().map(|o| format!("{o:?}")).collect();
        assert_eq!(distinct.len() as u64, HOT_RANGES);
        assert_eq!(ops[0], ops[HOT_RANGES as usize]);
        for op in ops {
            let ReadOp::Range { lo, hi } = op else {
                panic!("hot stream is ranges only")
            };
            assert_eq!((hi - lo) / KEY_GAP + 1, HOT_ROWS);
            assert!(lo >= KEY_GAP && hi <= Sizes::FULL.bench_rows * KEY_GAP);
        }
    }

    #[test]
    fn cold_stream_has_the_stated_mix_in_every_block_and_never_repeats() {
        let mut seen = HashSet::new();
        for block in 0..200u64 {
            let mut rows = Vec::new();
            for i in block * 10..block * 10 + 10 {
                let ReadOp::Range { lo, hi } = read_op(ReadStream::Cold, 5, Sizes::FULL, i) else {
                    panic!("cold stream is ranges only")
                };
                assert!(seen.insert((lo, hi)), "range {lo}..{hi} repeated");
                assert!(lo >= 1 && hi < (Sizes::FULL.bench_rows + 1) * KEY_GAP);
                // Rows selected: multiples of KEY_GAP inside [lo, hi].
                rows.push(hi.div_euclid(KEY_GAP) - (lo - 1).div_euclid(KEY_GAP));
            }
            rows.sort_unstable();
            assert_eq!(rows, [0, 10, 10, 10, 100, 100, 100, 100, 100, 1000]);
        }
    }

    #[test]
    fn sql_stream_mix_and_bounds() {
        let mut counts = [0usize; 4];
        for i in 0..1_000u64 {
            let ReadOp::Sql { template, a } = read_op(ReadStream::Sql, 9, Sizes::FULL, i) else {
                panic!("sql stream is statements only")
            };
            counts[template as usize] += 1;
            assert!(a >= 1 && a + template.span() - 1 <= Sizes::FULL.customers);
        }
        assert_eq!(counts, [400, 200, 200, 200]);
    }

    #[test]
    fn update_batches_are_valid_in_order() {
        let sizes = Sizes::SMOKE;
        let mut live: HashSet<i64> = (1..=sizes.bench_rows).map(|i| i * KEY_GAP).collect();
        let mut g = UpdateGen::new(11, sizes);
        for _ in 0..300 {
            let batch = g.next_batch();
            assert_eq!(batch.len(), UPDATE_BATCH);
            assert!(user_bytes(&batch) > 3 * PAYLOAD_BYTES as u64);
            for op in &batch {
                match op {
                    Mutation::Delete { key, .. } => assert!(live.remove(key)),
                    Mutation::Update { key, .. } => assert!(live.contains(key)),
                    Mutation::Insert(r) => assert!(live.insert(r.key(&bench_schema()))),
                }
            }
        }
    }
}
