//! The Ma et al. \[13\] baseline ("Authenticating Query Results From
//! Untrusted Servers", Section 2.3 of the paper): per-tuple Merkle trees
//! over attribute values plus condensed-RSA signature aggregation.
//!
//! Strengths the paper credits it with: projection-friendly VOs (digests
//! replace projected-out attributes) and a single aggregated signature per
//! result. Weakness: **no completeness verification** — an omitted tuple is
//! undetectable, which the comparison bench demonstrates.

use crate::scheme::UpdateCost;
use adp_crypto::{
    root_from_mixed, AggregateSignature, Digest, HashDomain, Hasher, Keypair, MixedLeaf, PublicKey,
    Signature,
};
use adp_relation::{KeyRange, Record, Table};

/// A table published under the Ma et al. scheme.
pub struct MaTable {
    table: Table,
    /// Per-row signature over the row's attribute-tree root.
    signatures: Vec<Signature>,
    public_key: PublicKey,
    hasher: Hasher,
}

/// User-facing certificate.
#[derive(Clone, Debug)]
pub struct MaCertificate {
    /// The owner's verification key.
    pub public_key: PublicKey,
    /// The hash configuration every digest was produced under.
    pub hasher: Hasher,
}

/// Per-row proof: digests for projected-out attributes.
#[derive(Clone, Debug)]
pub struct MaRowProof {
    /// `(column index, leaf digest)` for each attribute the projection
    /// withheld — the verifier re-mixes them with the shipped values.
    pub hidden: Vec<(u32, Digest)>,
}

/// The VO: per-row hidden digests + one aggregated signature.
#[derive(Clone, Debug)]
pub struct MaVO {
    /// One proof per returned row, in result order.
    pub rows: Vec<MaRowProof>,
    /// The condensed-RSA aggregate of the returned rows' signatures
    /// (`None` iff the result is empty).
    pub aggregate: Option<AggregateSignature>,
}

impl MaVO {
    /// Wire size under the shared baseline accounting rule
    /// (`docs/EVALUATION.md` §"VO size accounting"): 4-byte collection
    /// counts, 4-byte column positions, `1 + len` per digest, a 1-byte
    /// presence tag plus `2 + len` for the aggregated signature.
    pub fn wire_size(&self) -> usize {
        4 + self
            .rows
            .iter()
            .map(|r| 4 + r.hidden.iter().map(|(_, d)| 4 + 1 + d.len()).sum::<usize>())
            .sum::<usize>()
            + 1
            + self.aggregate.as_ref().map_or(0, |a| 2 + a.byte_len())
    }
}

fn row_root(hasher: &Hasher, record: &Record) -> Digest {
    let leaves: Vec<Digest> = record
        .values()
        .iter()
        .map(|v| hasher.hash(HashDomain::Leaf, &v.encode()))
        .collect();
    // Hash of all attribute leaf digests (a one-level MHT suffices for the
    // cost profile; Ma et al. use a balanced tree — the constant factors
    // are equivalent for our comparisons).
    hasher.hash_digests(HashDomain::Node, &leaves)
}

impl MaTable {
    /// Owner-side: signs each row's attribute-tree root.
    pub fn publish(keypair: &Keypair, hasher: Hasher, table: Table) -> Self {
        let signatures = table
            .iter()
            .map(|r| keypair.sign(&hasher, &row_root(&hasher, &r.record)))
            .collect();
        MaTable {
            table,
            signatures,
            public_key: keypair.public().clone(),
            hasher,
        }
    }

    /// The underlying table.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// User-facing certificate.
    pub fn certificate(&self) -> MaCertificate {
        MaCertificate {
            public_key: self.public_key.clone(),
            hasher: self.hasher,
        }
    }

    /// Bytes the owner ships: one signature per row.
    pub fn dissemination_size(&self) -> usize {
        self.signatures.iter().map(Signature::byte_len).sum()
    }

    /// Publisher-side: answers a range query with projected rows and the
    /// authenticity VO. **Completeness is not provable** — a malicious
    /// publisher can silently drop rows (see the comparison bench).
    pub fn answer_range(&self, range: &KeyRange, projection: &[usize]) -> (Vec<Record>, MaVO) {
        let (start, end) = self.table.key_range_positions(range.lo, range.hi);
        let mut rows = Vec::with_capacity(end - start);
        let mut proofs = Vec::with_capacity(end - start);
        let mut sigs: Vec<&Signature> = Vec::with_capacity(end - start);
        for pos in start..end {
            let record = &self.table.row(pos).record;
            rows.push(record.project(projection));
            let hidden = (0..record.arity())
                .filter(|i| !projection.contains(i))
                .map(|i| {
                    (
                        i as u32,
                        self.hasher.hash(HashDomain::Leaf, &record.get(i).encode()),
                    )
                })
                .collect();
            proofs.push(MaRowProof { hidden });
            sigs.push(&self.signatures[pos]);
        }
        let aggregate = if sigs.is_empty() {
            None
        } else {
            Some(AggregateSignature::combine(&self.public_key, &sigs))
        };
        (
            rows,
            MaVO {
                rows: proofs,
                aggregate,
            },
        )
    }

    /// Owner-side update: replace the non-key attributes of the row at
    /// `pos` and re-sign that row's attribute-tree root.
    ///
    /// This is the scheme's headline update property (and the reason the
    /// paper's Section 6.3 can't beat it on churn): exactly **one**
    /// signature regardless of table size — but the price is that no
    /// completeness statement ties the rows together.
    pub fn update_record(&mut self, keypair: &Keypair, pos: usize, record: Record) -> UpdateCost {
        let digests = record.arity() as u64 + 1; // attribute leaves + root
        self.table
            .update_in_place(pos, record)
            .expect("schema-valid, key-preserving update");
        self.signatures[pos] = keypair.sign(
            &self.hasher,
            &row_root(&self.hasher, &self.table.row(pos).record),
        );
        UpdateCost {
            signatures: 1,
            digests,
        }
    }
}

/// User-side verification: **authenticity only**.
pub fn verify_range(
    cert: &MaCertificate,
    projection: &[usize],
    arity: usize,
    rows: &[Record],
    vo: &MaVO,
) -> Result<(), &'static str> {
    if rows.len() != vo.rows.len() {
        return Err("row/proof count mismatch");
    }
    let mut roots = Vec::with_capacity(rows.len());
    for (row, proof) in rows.iter().zip(&vo.rows) {
        if row.arity() != projection.len() {
            return Err("projection arity mismatch");
        }
        let mut encodings: Vec<Option<Vec<u8>>> = vec![None; arity];
        for (slot, &col) in projection.iter().enumerate() {
            encodings[col] = Some(row.get(slot).encode());
        }
        let mut hidden: Vec<Option<Digest>> = vec![None; arity];
        for (pos, d) in &proof.hidden {
            let pos = *pos as usize;
            if pos >= arity || hidden[pos].is_some() || encodings[pos].is_some() {
                return Err("attribute coverage invalid");
            }
            hidden[pos] = Some(*d);
        }
        let mut leaves = Vec::with_capacity(arity);
        for i in 0..arity {
            match (&encodings[i], hidden[i]) {
                (Some(e), None) => leaves.push(MixedLeaf::Value(e)),
                (None, Some(d)) => leaves.push(MixedLeaf::Digest(d)),
                _ => return Err("attribute coverage invalid"),
            }
        }
        // Flat root (matches `row_root`).
        let leaf_digests: Vec<Digest> = leaves
            .iter()
            .map(|l| match l {
                MixedLeaf::Value(v) => cert.hasher.hash(HashDomain::Leaf, v),
                MixedLeaf::Digest(d) => *d,
            })
            .collect();
        roots.push(cert.hasher.hash_digests(HashDomain::Node, &leaf_digests));
        let _ = root_from_mixed; // balanced-tree variant available if needed
    }
    match &vo.aggregate {
        None if rows.is_empty() => Ok(()),
        None => Err("missing aggregate"),
        Some(agg) => {
            if agg.verify(&cert.hasher, &cert.public_key, &roots) {
                Ok(())
            } else {
                Err("aggregate signature invalid")
            }
        }
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
            let mut rng = StdRng::seed_from_u64(0x3A3A);
            Keypair::generate(512, &mut rng)
        })
    }

    fn table() -> Table {
        let schema = Schema::new(
            vec![
                Column::new("k", ValueType::Int),
                Column::new("a", ValueType::Text),
                Column::new("b", ValueType::Int),
            ],
            "k",
        );
        let mut t = Table::new("t", schema);
        for i in 0..10i64 {
            t.insert(Record::new(vec![
                Value::Int(i * 5),
                Value::from(format!("v{i}")),
                Value::Int(i),
            ]))
            .unwrap();
        }
        t
    }

    #[test]
    fn authenticity_verifies() {
        let ma = MaTable::publish(keypair(), Hasher::default(), table());
        let cert = ma.certificate();
        let range = KeyRange::closed(10, 30);
        let proj = vec![0usize, 1];
        let (rows, vo) = ma.answer_range(&range, &proj);
        assert_eq!(rows.len(), 5);
        verify_range(&cert, &proj, 3, &rows, &vo).unwrap();
    }

    #[test]
    fn tamper_detected() {
        let ma = MaTable::publish(keypair(), Hasher::default(), table());
        let cert = ma.certificate();
        let proj = vec![0usize, 1, 2];
        let (mut rows, vo) = ma.answer_range(&KeyRange::all(), &proj);
        let mut vals = rows[0].values().to_vec();
        vals[1] = Value::from("evil");
        rows[0] = Record::new(vals);
        assert!(verify_range(&cert, &proj, 3, &rows, &vo).is_err());
    }

    #[test]
    fn omission_not_detected() {
        // The crucial limitation: dropping a row AND its proof AND its
        // signature from the aggregate passes verification.
        let ma = MaTable::publish(keypair(), Hasher::default(), table());
        let cert = ma.certificate();
        let proj = vec![0usize, 1, 2];
        let range = KeyRange::closed(10, 30);
        let (full_rows, _) = ma.answer_range(&range, &proj);
        // Malicious publisher: answer a narrower range and present it as
        // the full answer.
        let (rows, vo) = ma.answer_range(&KeyRange::closed(10, 25), &proj);
        assert!(rows.len() < full_rows.len());
        // Verification succeeds despite the omission — completeness cannot
        // be checked with this scheme.
        verify_range(&cert, &proj, 3, &rows, &vo).unwrap();
    }

    #[test]
    fn empty_result() {
        let ma = MaTable::publish(keypair(), Hasher::default(), table());
        let cert = ma.certificate();
        let proj = vec![0usize, 1, 2];
        let (rows, vo) = ma.answer_range(&KeyRange::closed(11, 14), &proj);
        assert!(rows.is_empty());
        verify_range(&cert, &proj, 3, &rows, &vo).unwrap();
    }
}
