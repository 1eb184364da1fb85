//! The VB-tree baseline (Pang & Tan \[20\], "Authenticating Query Results in
//! Edge Computing", ICDE 2004), as characterized in Section 2.3 of the
//! paper: a B+-tree whose node digests are *each signed* by the owner, so a
//! query answer only needs the signature of the **smallest subtree
//! enveloping the result** plus the complementary digests inside that
//! subtree — the VO does not grow with the full tree height to the root.
//!
//! Like Ma et al., the VB-tree authenticates values but **does not verify
//! completeness** (the comparison bench demonstrates the undetectable
//! omission at range edges). This implementation models the digest/signing
//! structure at record granularity with a configurable fanout; the
//! original's attribute-granularity refinement changes constants only.

use crate::scheme::UpdateCost;
use adp_crypto::{Digest, HashDomain, Hasher, Keypair, PublicKey, Signature};
use adp_relation::{KeyRange, Record, Table};

/// A table published under the VB-tree scheme.
pub struct VbTree {
    table: Table,
    fanout: usize,
    /// `levels\[0\]` = leaf digests (one per record); each higher level hashes
    /// `fanout` children.
    levels: Vec<Vec<Digest>>,
    /// A signature for every node of every level (the scheme's signing
    /// cost: `Σ_l ⌈n/F^l⌉` signatures).
    signatures: Vec<Vec<Signature>>,
    public_key: PublicKey,
    hasher: Hasher,
}

/// User-facing certificate.
#[derive(Clone, Debug)]
pub struct VbCertificate {
    /// The owner's verification key.
    pub public_key: PublicKey,
    /// The hash configuration every node digest was produced under.
    pub hasher: Hasher,
    /// The tree fanout the envelope must be folded with.
    pub fanout: usize,
    /// Table cardinality at publication time.
    pub row_count: usize,
}

/// VO: the enveloping node's coordinates and signature, plus the leaf
/// digests inside the envelope that are not part of the result.
#[derive(Clone, Debug)]
pub struct VbVO {
    /// Level of the enveloping node (0 = leaf level … root).
    pub level: u32,
    /// Index of the node within its level.
    pub node: u32,
    /// Position of the first returned row within the node's span.
    pub offset: u32,
    /// Leaf digests left of the result inside the span.
    pub complement_left: Vec<Digest>,
    /// Leaf digests right of the result inside the span.
    pub complement_right: Vec<Digest>,
    /// The enveloping node's signature.
    pub signature: Signature,
}

impl VbVO {
    /// Wire size under the shared baseline accounting rule
    /// (`docs/EVALUATION.md` §"VO size accounting"): 4-byte scalar
    /// coordinates (`level`, `node`, `offset`), 4-byte counts for the two
    /// complement vectors, `1 + len` per digest, `2 + len` for the
    /// signature.
    pub fn wire_size(&self) -> usize {
        12 + 4
            + 4
            + self
                .complement_left
                .iter()
                .chain(&self.complement_right)
                .map(|d| 1 + d.len())
                .sum::<usize>()
            + 2
            + self.signature.byte_len()
    }
}

fn leaf_digest(hasher: &Hasher, record: &Record) -> Digest {
    hasher.hash(HashDomain::Leaf, &crate::wirecompat::encode_record(record))
}

impl VbTree {
    /// Owner-side: builds and signs every node digest.
    pub fn publish(keypair: &Keypair, hasher: Hasher, fanout: usize, table: Table) -> Self {
        assert!(fanout >= 2);
        let mut leaf_level: Vec<Digest> = table
            .iter()
            .map(|r| leaf_digest(&hasher, &r.record))
            .collect();
        if leaf_level.is_empty() {
            leaf_level.push(hasher.hash(HashDomain::Leaf, b"\x00__empty_table__"));
        }
        let mut levels = vec![leaf_level];
        while levels.last().unwrap().len() > 1 {
            let prev = levels.last().unwrap();
            let next: Vec<Digest> = prev
                .chunks(fanout)
                .map(|chunk| hasher.hash_digests(HashDomain::Node, chunk))
                .collect();
            levels.push(next);
        }
        let signatures: Vec<Vec<Signature>> = levels
            .iter()
            .map(|level| level.iter().map(|d| keypair.sign(&hasher, d)).collect())
            .collect();
        VbTree {
            table,
            fanout,
            levels,
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
    pub fn certificate(&self) -> VbCertificate {
        VbCertificate {
            public_key: self.public_key.clone(),
            hasher: self.hasher,
            fanout: self.fanout,
            row_count: self.table.len(),
        }
    }

    /// Bytes the owner ships: a signature per node across all levels.
    pub fn dissemination_size(&self) -> usize {
        self.signatures
            .iter()
            .flat_map(|l| l.iter())
            .map(Signature::byte_len)
            .sum()
    }

    /// Total node count across all levels — one signature each, which is
    /// the scheme's dissemination and re-signing unit.
    pub fn node_count(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// Span (inclusive leaf positions) of node `idx` at `level`.
    fn span(&self, level: usize, idx: usize) -> (usize, usize) {
        let width = self.fanout.pow(level as u32);
        let lo = idx * width;
        let hi = ((idx + 1) * width - 1).min(self.levels[0].len() - 1);
        (lo, hi)
    }

    /// Publisher-side: answers a range query with the smallest enveloping
    /// node's signature. Authenticity only.
    pub fn answer_range(&self, range: &KeyRange) -> (Vec<Record>, VbVO) {
        let (start, end) = self.table.key_range_positions(range.lo, range.hi);
        if start == end {
            // Empty result: return the whole root as (vacuous) evidence of
            // authenticity; completeness is simply not provable.
            let root_level = self.levels.len() - 1;
            return (
                Vec::new(),
                VbVO {
                    level: root_level as u32,
                    node: 0,
                    offset: 0,
                    complement_left: self.levels[0].clone(),
                    complement_right: Vec::new(),
                    signature: self.signatures[root_level][0].clone(),
                },
            );
        }
        let (lo, hi) = (start, end - 1);
        // Find the lowest level whose node covers [lo, hi].
        let mut level = 0usize;
        while lo / self.fanout.pow(level as u32) != hi / self.fanout.pow(level as u32) {
            level += 1;
        }
        let node = lo / self.fanout.pow(level as u32);
        let (span_lo, span_hi) = self.span(level, node);
        let rows: Vec<Record> = (lo..=hi)
            .map(|i| self.table.row(i).record.clone())
            .collect();
        let vo = VbVO {
            level: level as u32,
            node: node as u32,
            offset: (lo - span_lo) as u32,
            complement_left: self.levels[0][span_lo..lo].to_vec(),
            complement_right: self.levels[0][hi + 1..=span_hi].to_vec(),
            signature: self.signatures[level][node].clone(),
        };
        (rows, vo)
    }

    /// Owner-side update: replace the non-key attributes of the row at
    /// `pos`, recompute the leaf-to-root digest path, and re-sign **every
    /// node on that path** — the scheme's update weakness the paper's
    /// Section 6.3 experiment highlights (a path of signatures per
    /// update, vs one root signature for the MHT and a 3-signature
    /// neighborhood for the chain).
    pub fn update_record(&mut self, keypair: &Keypair, pos: usize, record: Record) -> UpdateCost {
        self.table
            .update_in_place(pos, record)
            .expect("schema-valid, key-preserving update");
        self.levels[0][pos] = leaf_digest(&self.hasher, &self.table.row(pos).record);
        self.signatures[0][pos] = keypair.sign(&self.hasher, &self.levels[0][pos]);
        let mut cost = UpdateCost {
            signatures: 1,
            digests: 1,
        };
        let mut idx = pos;
        for level in 1..self.levels.len() {
            idx /= self.fanout;
            let lo = idx * self.fanout;
            let hi = (lo + self.fanout).min(self.levels[level - 1].len());
            let digest = self
                .hasher
                .hash_digests(HashDomain::Node, &self.levels[level - 1][lo..hi]);
            self.levels[level][idx] = digest;
            self.signatures[level][idx] = keypair.sign(&self.hasher, &digest);
            cost.signatures += 1;
            cost.digests += 1;
        }
        cost
    }
}

/// User-side verification: recomputes the enveloping node's digest from the
/// rows + complement digests and checks its signature. Authenticity only —
/// the query range plays no role, which is exactly the scheme's gap.
pub fn verify_range(cert: &VbCertificate, rows: &[Record], vo: &VbVO) -> Result<(), &'static str> {
    let mut leaves: Vec<Digest> = Vec::new();
    leaves.extend_from_slice(&vo.complement_left);
    leaves.extend(rows.iter().map(|r| leaf_digest(&cert.hasher, r)));
    leaves.extend_from_slice(&vo.complement_right);
    if leaves.is_empty() {
        return Err("empty envelope");
    }
    // Fold `level` times with the certified fanout.
    let mut level_nodes = leaves;
    for _ in 0..vo.level {
        level_nodes = level_nodes
            .chunks(cert.fanout)
            .map(|chunk| cert.hasher.hash_digests(HashDomain::Node, chunk))
            .collect();
    }
    if level_nodes.len() != 1 {
        return Err("envelope does not reduce to one node");
    }
    if cert
        .public_key
        .verify(&cert.hasher, &level_nodes[0], &vo.signature)
    {
        Ok(())
    } else {
        Err("node signature invalid")
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
            let mut rng = StdRng::seed_from_u64(0x7B7B);
            Keypair::generate(512, &mut rng)
        })
    }

    fn table(n: i64) -> Table {
        let schema = Schema::new(vec![Column::new("k", ValueType::Int)], "k");
        let mut t = Table::new("t", schema);
        for i in 0..n {
            t.insert(Record::new(vec![Value::Int(i)])).unwrap();
        }
        t
    }

    #[test]
    fn authenticity_verifies() {
        let vb = VbTree::publish(keypair(), Hasher::default(), 4, table(64));
        let cert = vb.certificate();
        for range in [
            KeyRange::closed(5, 20),
            KeyRange::closed(0, 63),
            KeyRange::point(17),
            KeyRange::closed(16, 19), // exactly one fanout-4 node at level 1
        ] {
            let (rows, vo) = vb.answer_range(&range);
            verify_range(&cert, &rows, &vo).unwrap_or_else(|e| panic!("{range:?}: {e}"));
        }
    }

    #[test]
    fn envelope_is_minimal() {
        let vb = VbTree::publish(keypair(), Hasher::default(), 4, table(64));
        // A result inside one leaf-level node needs level 0..1.
        let (_, vo) = vb.answer_range(&KeyRange::closed(16, 17));
        assert!(vo.level <= 1);
        // A result spanning the whole table needs the root.
        let (_, vo) = vb.answer_range(&KeyRange::closed(0, 63));
        assert_eq!(vo.level as usize, 3);
    }

    #[test]
    fn tamper_detected() {
        let vb = VbTree::publish(keypair(), Hasher::default(), 4, table(64));
        let cert = vb.certificate();
        let (mut rows, vo) = vb.answer_range(&KeyRange::closed(5, 20));
        rows[3] = Record::new(vec![Value::Int(999)]);
        assert!(verify_range(&cert, &rows, &vo).is_err());
    }

    #[test]
    fn interior_omission_detected_but_edge_omission_is_not() {
        let vb = VbTree::publish(keypair(), Hasher::default(), 4, table(64));
        let cert = vb.certificate();
        let range = KeyRange::closed(5, 20);
        // Interior omission breaks the envelope digest.
        let (mut rows, vo) = vb.answer_range(&range);
        rows.remove(6);
        assert!(verify_range(&cert, &rows, &vo).is_err());
        // Edge omission: the publisher answers a narrower range with a
        // fresh, perfectly valid envelope — undetectable (no completeness).
        let (rows2, vo2) = vb.answer_range(&KeyRange::closed(5, 18));
        assert!(verify_range(&cert, &rows2, &vo2).is_ok());
    }

    #[test]
    fn signing_cost_is_per_node() {
        let vb = VbTree::publish(keypair(), Hasher::default(), 4, table(64));
        // 64 leaves + 16 + 4 + 1 = 85 signatures.
        assert_eq!(vb.dissemination_size(), 85 * 64);
    }

    #[test]
    fn empty_table_and_empty_result() {
        let vb = VbTree::publish(keypair(), Hasher::default(), 4, table(0));
        let cert = vb.certificate();
        let (rows, _vo) = vb.answer_range(&KeyRange::all());
        assert!(rows.is_empty());
        let _ = cert;
        let vb = VbTree::publish(keypair(), Hasher::default(), 4, table(10));
        let (rows, _) = vb.answer_range(&KeyRange::closed(100, 200));
        assert!(rows.is_empty());
    }
}
