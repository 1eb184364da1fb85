//! The Devanbu et al. \[10\] Merkle-hash-tree baseline ("Authentic Data
//! Publication over the Internet", IFIP 11.3 2000) — the only prior scheme
//! with completeness verification, and the paper's main comparator.
//!
//! Construction: the owner builds one Merkle tree over the table (sorted on
//! the query attribute; one tree **per sort order**, limitation 1 in the
//! paper's Section 2.3) and signs the root. To answer a range query
//! `[α, β]` the publisher returns the *expanded* result — the qualifying
//! rows **plus the two rows immediately outside the range** (limitation 4:
//! boundary exposure) with **all columns** (limitation 3: no projection) —
//! together with the fringe digests needed to recompute the root and the
//! signed root digest (limitation 2: the VO grows logarithmically with the
//! table).
//!
//! Updates recompute the leaf-to-root digest path and re-sign the root
//! (the Section 6.3 contention hot-spot).
//!
//! The implementation is honest and complete so the comparison benches
//! measure a real system, not a strawman.

use adp_crypto::{
    root_from_range, Digest, HashDomain, Hasher, Keypair, MerkleTree, PublicKey, RangeProofNode,
    Signature,
};
use adp_relation::{KeyRange, Record, Table};

/// Leaf encoding: hash of the full record (all columns — the scheme cannot
/// project).
fn leaf_digest(hasher: &Hasher, record: &Record) -> Digest {
    let bytes = crate::wirecompat::encode_record(record);
    hasher.hash(HashDomain::Leaf, &bytes)
}

/// A table published under the Devanbu scheme.
pub struct MhtTable {
    table: Table,
    tree: MerkleTree,
    root_signature: Signature,
    public_key: PublicKey,
    hasher: Hasher,
    /// Digest-path recomputations performed by updates (for the update
    /// cost experiment).
    pub update_digests_recomputed: std::cell::Cell<u64>,
    /// Root re-signatures performed by updates — every update pays one,
    /// which is the Section 6.3 contention hot-spot.
    pub root_resignatures: std::cell::Cell<u64>,
}

/// What users need to verify results.
#[derive(Clone, Debug)]
pub struct MhtCertificate {
    /// The owner's verification key.
    pub public_key: PublicKey,
    /// The hash configuration the tree was built under.
    pub hasher: Hasher,
    /// Users must know the table cardinality to check range positions.
    pub row_count: usize,
}

/// The VO for a range query.
#[derive(Clone, Debug)]
pub struct MhtRangeVO {
    /// Index of the first returned row in the table's sort order.
    pub lo: u32,
    /// Fringe digests for the contiguous leaf range.
    pub fringe: Vec<RangeProofNode>,
    /// The signed root.
    pub root_signature: Signature,
    /// Encoded bytes of the out-of-range boundary tuples the expansion
    /// ships (accounting only — the tuples themselves travel in the
    /// result vector, but the user never asked for them, so the shared
    /// accounting rule charges them to the VO).
    pub boundary_bytes: u32,
}

impl MhtRangeVO {
    /// Wire size under the shared baseline accounting rule
    /// (`docs/EVALUATION.md` §"VO size accounting"): a 4-byte start
    /// position, a 4-byte fringe count, `4 + 4 + 1 + len` per fringe node
    /// (level, index, length-prefixed digest), `2 + len` for the root
    /// signature, plus the encoded out-of-range boundary tuples.
    pub fn wire_size(&self) -> usize {
        4 + 4
            + self
                .fringe
                .iter()
                .map(|n| 4 + 4 + 1 + n.digest.len())
                .sum::<usize>()
            + 2
            + self.root_signature.byte_len()
            + self.boundary_bytes as usize
    }
}

/// Verification failures for the baseline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MhtError {
    RootMismatch,
    SignatureInvalid,
    BoundaryMissing,
    NotContiguous,
    EmptyExpansion,
}

impl std::fmt::Display for MhtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            MhtError::RootMismatch => "reconstructed root does not match",
            MhtError::SignatureInvalid => "root signature invalid",
            MhtError::BoundaryMissing => "boundary tuples do not straddle the range",
            MhtError::NotContiguous => "returned rows are not a contiguous leaf range",
            MhtError::EmptyExpansion => "expanded result cannot be empty",
        };
        f.write_str(s)
    }
}
impl std::error::Error for MhtError {}

impl MhtTable {
    /// Owner-side: builds the tree and signs the root.
    pub fn publish(keypair: &Keypair, hasher: Hasher, table: Table) -> Self {
        let leaves: Vec<Digest> = table
            .iter()
            .map(|r| leaf_digest(&hasher, &r.record))
            .collect();
        let leaves = if leaves.is_empty() {
            // Commit to an explicit empty-table sentinel.
            vec![hasher.hash(HashDomain::Leaf, b"\x00__empty_table__")]
        } else {
            leaves
        };
        let tree = MerkleTree::build(hasher, leaves);
        let root_signature = keypair.sign(&hasher, &tree.root());
        MhtTable {
            table,
            tree,
            root_signature,
            public_key: keypair.public().clone(),
            hasher,
            update_digests_recomputed: std::cell::Cell::new(0),
            root_resignatures: std::cell::Cell::new(0),
        }
    }

    /// The underlying table.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The user-facing certificate.
    pub fn certificate(&self) -> MhtCertificate {
        MhtCertificate {
            public_key: self.public_key.clone(),
            hasher: self.hasher,
            row_count: self.table.len(),
        }
    }

    /// Bytes the owner ships: one signature (plus the data).
    pub fn dissemination_size(&self) -> usize {
        self.root_signature.byte_len()
    }

    /// Publisher-side: answers a range query with the boundary-expanded
    /// result (full records!) and the Merkle range proof.
    ///
    /// Returns `(expanded rows, VO)`. The first and last returned rows are
    /// the boundary tuples whenever they exist (i.e. unless the range
    /// touches the table's edge).
    pub fn answer_range(&self, range: &KeyRange) -> (Vec<Record>, MhtRangeVO) {
        let n = self.table.len();
        let (start, end) = self.table.key_range_positions(range.lo, range.hi);
        // Expand by one row on each side (Devanbu's completeness device).
        let lo = start.saturating_sub(1);
        let hi = if end < n { end } else { n.saturating_sub(1) };
        // Note: `end` is exclusive; the row at `end` (if any) is the right
        // boundary tuple. hi is inclusive below.
        let hi = hi.min(n.saturating_sub(1));
        if n == 0 {
            return (
                Vec::new(),
                MhtRangeVO {
                    lo: 0,
                    fringe: self.tree.prove_range(0, 0),
                    root_signature: self.root_signature.clone(),
                    boundary_bytes: 0,
                },
            );
        }
        let rows: Vec<Record> = (lo..=hi)
            .map(|i| self.table.row(i).record.clone())
            .collect();
        let key_idx = self.table.schema().key_index();
        let boundary_bytes: usize = rows
            .iter()
            .filter(|r| {
                r.get(key_idx)
                    .as_int()
                    .map(|k| !range.contains(k))
                    .unwrap_or(true)
            })
            .map(|r| crate::wirecompat::encode_record(r).len())
            .sum();
        let fringe = self.tree.prove_range(lo, hi);
        (
            rows,
            MhtRangeVO {
                lo: lo as u32,
                fringe,
                root_signature: self.root_signature.clone(),
                boundary_bytes: boundary_bytes as u32,
            },
        )
    }

    /// Owner-side update: replace the record at `pos`, recomputing the
    /// digest path and re-signing the root.
    pub fn update_record(&mut self, keypair: &Keypair, pos: usize, record: Record) {
        self.table
            .update_in_place(pos, record)
            .expect("schema-valid update");
        // Rebuild (a real system would update the path in place; the cost
        // accounting below charges only the path, which is what matters
        // for the comparison).
        let path_len = (self.table.len().max(2) as f64).log2().ceil() as u64;
        self.update_digests_recomputed
            .set(self.update_digests_recomputed.get() + path_len);
        self.root_resignatures.set(self.root_resignatures.get() + 1);
        let leaves: Vec<Digest> = self
            .table
            .iter()
            .map(|r| leaf_digest(&self.hasher, &r.record))
            .collect();
        self.tree = MerkleTree::build(self.hasher, leaves);
        self.root_signature = keypair.sign(&self.hasher, &self.tree.root());
    }

    /// Quantifies the precision violations of the expanded answer for a
    /// range query: how many rows and how many attribute values the user
    /// receives that the query did not ask for.
    pub fn disclosure_beyond_query(&self, range: &KeyRange, rows: &[Record]) -> Disclosure {
        let key_idx = self.table.schema().key_index();
        let mut extra_rows = 0usize;
        for r in rows {
            let k = r.get(key_idx).as_int().unwrap_or(i64::MIN);
            if !range.contains(k) {
                extra_rows += 1;
            }
        }
        Disclosure {
            boundary_rows_exposed: extra_rows,
            projection_supported: false,
        }
    }
}

/// Precision-violation report (what the scheme leaks beyond the query).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Disclosure {
    /// Out-of-range boundary tuples handed to the user.
    pub boundary_rows_exposed: usize,
    /// Whether projected-out columns can be withheld (Devanbu: no).
    pub projection_supported: bool,
}

/// User-side verification of a Devanbu range answer.
///
/// Checks: (1) the rows hash to a contiguous leaf range reconstructing the
/// signed root; (2) the expansion straddles the query range (first row
/// below α or at position 0; last row above β or at the last position).
pub fn verify_range(
    cert: &MhtCertificate,
    key_index: usize,
    range: &KeyRange,
    rows: &[Record],
    vo: &MhtRangeVO,
) -> Result<(), MhtError> {
    if cert.row_count == 0 {
        // Empty table: verify the sentinel root.
        let sentinel = cert.hasher.hash(HashDomain::Leaf, b"\x00__empty_table__");
        let root = root_from_range(&cert.hasher, 1, 0, &[sentinel], &vo.fringe)
            .ok_or(MhtError::RootMismatch)?;
        if !cert
            .public_key
            .verify(&cert.hasher, &root, &vo.root_signature)
        {
            return Err(MhtError::SignatureInvalid);
        }
        return if rows.is_empty() {
            Ok(())
        } else {
            Err(MhtError::NotContiguous)
        };
    }
    if rows.is_empty() {
        return Err(MhtError::EmptyExpansion);
    }
    let leaves: Vec<Digest> = rows
        .iter()
        .map(|r| {
            cert.hasher
                .hash(HashDomain::Leaf, &crate::wirecompat::encode_record(r))
        })
        .collect();
    let root = root_from_range(
        &cert.hasher,
        cert.row_count,
        vo.lo as usize,
        &leaves,
        &vo.fringe,
    )
    .ok_or(MhtError::NotContiguous)?;
    if !cert
        .public_key
        .verify(&cert.hasher, &root, &vo.root_signature)
    {
        return Err(MhtError::SignatureInvalid);
    }
    // Boundary conditions.
    let first_key = rows[0]
        .get(key_index)
        .as_int()
        .ok_or(MhtError::BoundaryMissing)?;
    let last_key = rows[rows.len() - 1]
        .get(key_index)
        .as_int()
        .ok_or(MhtError::BoundaryMissing)?;
    let lo_ok = vo.lo == 0 || !range.contains(first_key);
    let hi_pos = vo.lo as usize + rows.len() - 1;
    let hi_ok = hi_pos == cert.row_count - 1 || !range.contains(last_key);
    // The *interior* rows must all be in range only when boundaries are
    // exposed; keys must also be sorted (they come from the sorted table).
    let sorted = rows
        .windows(2)
        .all(|w| w[0].get(key_index).as_int() <= w[1].get(key_index).as_int());
    if !sorted {
        return Err(MhtError::NotContiguous);
    }
    if lo_ok && hi_ok {
        Ok(())
    } else {
        Err(MhtError::BoundaryMissing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adp_relation::{Column, Schema, Value, ValueType};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::OnceLock;

    fn keypair() -> &'static Keypair {
        static K: OnceLock<Keypair> = OnceLock::new();
        K.get_or_init(|| {
            let mut rng = StdRng::seed_from_u64(0xDE7A);
            Keypair::generate(512, &mut rng)
        })
    }

    fn table(n: i64) -> Table {
        let schema = Schema::new(
            vec![
                Column::new("k", ValueType::Int),
                Column::new("v", ValueType::Text),
            ],
            "k",
        );
        let mut t = Table::new("t", schema);
        for i in 0..n {
            t.insert(Record::new(vec![
                Value::Int(i * 10),
                Value::from(format!("r{i}")),
            ]))
            .unwrap();
        }
        t
    }

    #[test]
    fn range_query_verifies() {
        let mht = MhtTable::publish(keypair(), Hasher::default(), table(20));
        let cert = mht.certificate();
        let range = KeyRange::closed(50, 120);
        let (rows, vo) = mht.answer_range(&range);
        verify_range(&cert, 0, &range, &rows, &vo).unwrap();
        // Expanded: rows 40..130 (boundary tuples at 40 and 130).
        assert_eq!(rows.first().unwrap().get(0), &Value::Int(40));
        assert_eq!(rows.last().unwrap().get(0), &Value::Int(130));
        assert_eq!(
            mht.disclosure_beyond_query(&range, &rows)
                .boundary_rows_exposed,
            2
        );
    }

    #[test]
    fn edge_ranges_verify() {
        let mht = MhtTable::publish(keypair(), Hasher::default(), table(10));
        let cert = mht.certificate();
        for range in [
            KeyRange::less_than(30),  // touches the left edge
            KeyRange::at_least(60),   // touches the right edge
            KeyRange::all(),          // whole table
            KeyRange::closed(35, 44), // empty (between rows)
        ] {
            let (rows, vo) = mht.answer_range(&range);
            verify_range(&cert, 0, &range, &rows, &vo)
                .unwrap_or_else(|e| panic!("range {range:?}: {e}"));
        }
    }

    #[test]
    fn omission_detected() {
        let mht = MhtTable::publish(keypair(), Hasher::default(), table(20));
        let cert = mht.certificate();
        let range = KeyRange::closed(50, 120);
        let (mut rows, vo) = mht.answer_range(&range);
        rows.remove(3);
        assert!(verify_range(&cert, 0, &range, &rows, &vo).is_err());
    }

    #[test]
    fn truncation_detected() {
        let mht = MhtTable::publish(keypair(), Hasher::default(), table(20));
        let cert = mht.certificate();
        let range = KeyRange::closed(50, 120);
        let (mut rows, mut vo) = mht.answer_range(&range);
        // Drop the tail including the right boundary; adjust nothing else.
        rows.truncate(rows.len() - 2);
        assert!(verify_range(&cert, 0, &range, &rows, &vo).is_err());
        // Even if the publisher recomputes a fringe for the shorter range,
        // the boundary check fails (last row is in range, not beyond).
        let tree_rows = rows.clone();
        let _ = tree_rows;
        vo.fringe.clear();
        assert!(verify_range(&cert, 0, &range, &rows, &vo).is_err());
    }

    #[test]
    fn tamper_detected() {
        let mht = MhtTable::publish(keypair(), Hasher::default(), table(20));
        let cert = mht.certificate();
        let range = KeyRange::closed(50, 120);
        let (mut rows, vo) = mht.answer_range(&range);
        let mut vals = rows[2].values().to_vec();
        vals[1] = Value::from("evil");
        rows[2] = Record::new(vals);
        assert!(verify_range(&cert, 0, &range, &rows, &vo).is_err());
    }

    #[test]
    fn boundary_exposure_is_inherent() {
        // The HR-executive scenario: the scheme must expose an out-of-range
        // tuple to prove completeness — the motivating flaw of the paper.
        let mht = MhtTable::publish(keypair(), Hasher::default(), table(20));
        let range = KeyRange::less_than(100);
        let (rows, _) = mht.answer_range(&range);
        let disclosure = mht.disclosure_beyond_query(&range, &rows);
        assert_eq!(disclosure.boundary_rows_exposed, 1);
        assert!(!disclosure.projection_supported);
    }

    #[test]
    fn update_recomputes_root_path() {
        let mut mht = MhtTable::publish(keypair(), Hasher::default(), table(100));
        let cert = mht.certificate();
        let new_rec = Record::new(vec![Value::Int(500), Value::from("updated")]);
        mht.update_record(keypair(), 50, new_rec);
        assert_eq!(mht.root_resignatures.get(), 1);
        assert!(mht.update_digests_recomputed.get() >= 7); // ⌈log2 100⌉
                                                           // Queries still verify after the update (row count unchanged, so
                                                           // the certificate stays valid; the signed root was refreshed).
        let range = KeyRange::closed(480, 520);
        let (rows, vo) = mht.answer_range(&range);
        verify_range(&cert, 0, &range, &rows, &vo).unwrap();
    }

    #[test]
    fn empty_table_verifies() {
        let mht = MhtTable::publish(keypair(), Hasher::default(), table(0));
        let cert = mht.certificate();
        let (rows, vo) = mht.answer_range(&KeyRange::all());
        assert!(rows.is_empty());
        verify_range(&cert, 0, &KeyRange::all(), &rows, &vo).unwrap();
    }
}
