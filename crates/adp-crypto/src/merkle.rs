//! Merkle hash trees (Section 2.1, Figure 2), with inclusion proofs and
//! root reconstruction from partially disclosed leaves.
//!
//! Used in three places in the scheme:
//!
//! 1. `MHT(r.A)` — per-record tree over attribute values (formula 3). For a
//!    projection query the publisher substitutes *digests* for hidden
//!    attribute values; the user recomputes the root from a mix of plaintext
//!    values and digests ([`root_from_mixed`]).
//! 2. The tree over the `m` preferred non-canonical representations of
//!    `δ_t` (Section 5.1, Figures 7–8), where the publisher reveals the
//!    `⌈log2 m⌉` digests covering the unused representations
//!    ([`MerkleTree::prove`] / [`verify_inclusion`]).
//! 3. The Devanbu et al. baseline, which builds one tree over an entire
//!    table and proves contiguous leaf ranges ([`MerkleTree::prove_range`]).
//!
//! Odd nodes are *promoted* to the next level unchanged (no duplication),
//! so trees of any leaf count are well-defined and second-preimage-safe
//! under the domain-separated node hash.

use crate::digest::Digest;
use crate::hasher::{HashDomain, Hasher};

/// A Merkle tree retained in memory level by level.
///
/// `levels\[0\]` is the leaf level; the last level has exactly one digest,
/// the root.
#[derive(Clone, Debug)]
pub struct MerkleTree {
    levels: Vec<Vec<Digest>>,
    hasher: Hasher,
}

/// One step of an inclusion proof: the sibling digest and whether it sits to
/// the left of the path node. Steps where the path node was promoted (no
/// sibling) are omitted entirely — position binding comes purely from the
/// `sibling_is_left` flags, so the proof carries no dead bytes (every wire
/// byte is load-bearing; see the `wire_robustness` tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProofStep {
    pub sibling: Digest,
    pub sibling_is_left: bool,
}

/// An inclusion proof for a single leaf.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InclusionProof {
    pub leaf_index: u32,
    pub steps: Vec<ProofStep>,
}

impl InclusionProof {
    /// Number of digests carried by the proof.
    pub fn digest_count(&self) -> usize {
        self.steps.len()
    }
}

impl MerkleTree {
    /// Builds a tree over the given leaf digests.
    ///
    /// # Panics
    /// If `leaves` is empty.
    pub fn build(hasher: Hasher, leaves: Vec<Digest>) -> Self {
        assert!(!leaves.is_empty(), "Merkle tree needs at least one leaf");
        let mut levels = vec![leaves];
        while levels.last().unwrap().len() > 1 {
            levels.push(next_level(&hasher, levels.last().unwrap()));
        }
        MerkleTree { levels, hasher }
    }

    /// Convenience: hashes raw byte leaves (domain `Leaf`) then builds.
    pub fn from_values(hasher: Hasher, values: &[&[u8]]) -> Self {
        let leaves = hasher.hash_each(HashDomain::Leaf, values.iter().copied());
        Self::build(hasher, leaves)
    }

    /// The root digest.
    pub fn root(&self) -> Digest {
        self.levels.last().unwrap()[0]
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.levels[0].len()
    }

    /// Leaf digest at `index`.
    pub fn leaf(&self, index: usize) -> Digest {
        self.levels[0][index]
    }

    /// Produces an inclusion proof for the leaf at `index`.
    pub fn prove(&self, index: usize) -> InclusionProof {
        assert!(index < self.leaf_count(), "leaf index out of range");
        let mut steps = Vec::new();
        let mut pos = index;
        for level in self.levels.iter() {
            if level.len() == 1 {
                break;
            }
            let sib = pos ^ 1;
            if sib < level.len() {
                steps.push(ProofStep {
                    sibling: level[sib],
                    sibling_is_left: sib < pos,
                });
            }
            pos /= 2;
        }
        InclusionProof {
            leaf_index: index as u32,
            steps,
        }
    }

    /// Digests required to recompute the root when the verifier already
    /// knows the contiguous leaf range `[lo, hi]` (inclusive). This is the
    /// Devanbu-style range VO: the returned `(level, index, digest)` triples
    /// are exactly the internal/leaf digests outside the known range's
    /// coverage at each level.
    pub fn prove_range(&self, lo: usize, hi: usize) -> Vec<RangeProofNode> {
        assert!(lo <= hi && hi < self.leaf_count(), "bad leaf range");
        let mut out = Vec::new();
        let (mut lo, mut hi) = (lo, hi);
        for (lvl, level) in self.levels.iter().enumerate() {
            if level.len() == 1 {
                break;
            }
            // Left fringe: if lo is a right child, its left sibling is needed.
            if lo % 2 == 1 {
                out.push(RangeProofNode {
                    level: lvl as u32,
                    index: (lo - 1) as u32,
                    digest: level[lo - 1],
                });
            }
            // Right fringe: if hi is a left child with an existing right sibling.
            if hi % 2 == 0 && hi + 1 < level.len() {
                out.push(RangeProofNode {
                    level: lvl as u32,
                    index: (hi + 1) as u32,
                    digest: level[hi + 1],
                });
            }
            lo /= 2;
            hi /= 2;
        }
        out
    }

    /// The hasher this tree was built with.
    pub fn hasher(&self) -> Hasher {
        self.hasher
    }
}

/// The level above `level`: adjacent pairs hashed (two nodes at a time), an
/// odd last node promoted unchanged.
fn next_level(hasher: &Hasher, level: &[Digest]) -> Vec<Digest> {
    let mut next = hasher.hash_pairs(HashDomain::Node, level);
    if level.len() % 2 == 1 {
        next.push(level[level.len() - 1]);
    }
    next
}

/// A node disclosed by [`MerkleTree::prove_range`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RangeProofNode {
    pub level: u32,
    pub index: u32,
    pub digest: Digest,
}

/// Verifies an inclusion proof: recomputes the root from `leaf` and `proof`.
pub fn verify_inclusion(hasher: &Hasher, leaf: Digest, proof: &InclusionProof) -> Digest {
    let mut acc = leaf;
    for step in &proof.steps {
        acc = if step.sibling_is_left {
            hasher.hash_digests(HashDomain::Node, &[step.sibling, acc])
        } else {
            hasher.hash_digests(HashDomain::Node, &[acc, step.sibling])
        };
    }
    acc
}

/// Recomputes a Merkle root from a full leaf layer where each entry is
/// either a plaintext value (hashed here) or an already-known digest.
///
/// This is how a user rebuilds `MHT(r.A)` for a projected record: plaintext
/// for selected columns, digests for projected-out ones (Section 4.2).
pub fn root_from_mixed(hasher: &Hasher, leaves: &[MixedLeaf<'_>]) -> Digest {
    assert!(!leaves.is_empty());
    let mut hashed = hasher
        .hash_each(
            HashDomain::Leaf,
            leaves.iter().filter_map(|l| match l {
                MixedLeaf::Value(v) => Some(*v),
                MixedLeaf::Digest(_) => None,
            }),
        )
        .into_iter();
    let mut level: Vec<Digest> = leaves
        .iter()
        .map(|l| match l {
            MixedLeaf::Value(_) => hashed.next().expect("one digest per value leaf"),
            MixedLeaf::Digest(d) => *d,
        })
        .collect();
    while level.len() > 1 {
        level = next_level(hasher, &level);
    }
    level[0]
}

/// A leaf that is either a disclosed plaintext value or a digest standing in
/// for a hidden value.
#[derive(Clone, Copy, Debug)]
pub enum MixedLeaf<'a> {
    Value(&'a [u8]),
    Digest(Digest),
}

/// Recomputes a root from a contiguous range of known leaves plus the
/// fringe nodes from [`MerkleTree::prove_range`].
///
/// `total_leaves` must be the tree's full leaf count; `lo` is the index of
/// `known\[0\]`.
pub fn root_from_range(
    hasher: &Hasher,
    total_leaves: usize,
    lo: usize,
    known: &[Digest],
    fringe: &[RangeProofNode],
) -> Option<Digest> {
    if known.is_empty() || lo + known.len() > total_leaves {
        return None;
    }
    let hi = lo + known.len() - 1;
    let mut nodes: Vec<Digest> = known.to_vec();
    let (mut lo, mut hi) = (lo, hi);
    let mut level_len = total_leaves;
    let mut fringe_iter = fringe.iter();
    let mut lvl = 0u32;
    let mut next_fringe = fringe_iter.next();
    while level_len > 1 {
        // Attach fringe nodes for this level.
        if lo % 2 == 1 {
            let f = next_fringe?;
            if f.level != lvl || f.index as usize != lo - 1 {
                return None;
            }
            nodes.insert(0, f.digest);
            next_fringe = fringe_iter.next();
            lo -= 1;
        }
        if hi % 2 == 0 && hi + 1 < level_len {
            let f = next_fringe?;
            if f.level != lvl || f.index as usize != hi + 1 {
                return None;
            }
            nodes.push(f.digest);
            next_fringe = fringe_iter.next();
            hi += 1;
        }
        // Pair up this level.
        // An unpaired node is only legal as the promoted odd tail of the
        // level.
        if nodes.len() % 2 == 1 && (hi != level_len - 1 || level_len.is_multiple_of(2)) {
            return None;
        }
        nodes = next_level(hasher, &nodes);
        lo /= 2;
        hi /= 2;
        level_len = level_len.div_ceil(2);
        lvl += 1;
    }
    if next_fringe.is_some() || nodes.len() != 1 {
        return None;
    }
    Some(nodes[0])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hasher() -> Hasher {
        Hasher::default()
    }

    fn leaves(n: usize) -> Vec<Digest> {
        let h = hasher();
        (0..n)
            .map(|i| h.hash(HashDomain::Leaf, &(i as u64).to_le_bytes()))
            .collect()
    }

    #[test]
    fn figure2_example_shape() {
        // The paper's Figure 2: four leaves, root = h(h(N1|N2) | h(N3|N4)).
        let h = hasher();
        let ls = leaves(4);
        let t = MerkleTree::build(h, ls.clone());
        let n12 = h.hash_digests(HashDomain::Node, &[ls[0], ls[1]]);
        let n34 = h.hash_digests(HashDomain::Node, &[ls[2], ls[3]]);
        assert_eq!(t.root(), h.hash_digests(HashDomain::Node, &[n12, n34]));
    }

    #[test]
    fn single_leaf_tree() {
        let ls = leaves(1);
        let t = MerkleTree::build(hasher(), ls.clone());
        assert_eq!(t.root(), ls[0]);
        let p = t.prove(0);
        assert_eq!(verify_inclusion(&hasher(), ls[0], &p), t.root());
    }

    #[test]
    fn inclusion_proofs_all_sizes() {
        let h = hasher();
        for n in 1..=17 {
            let ls = leaves(n);
            let t = MerkleTree::build(h, ls.clone());
            for (i, leaf) in ls.iter().enumerate() {
                let p = t.prove(i);
                assert_eq!(verify_inclusion(&h, *leaf, &p), t.root(), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn wrong_leaf_fails_inclusion() {
        let h = hasher();
        let ls = leaves(8);
        let t = MerkleTree::build(h, ls.clone());
        let p = t.prove(3);
        let wrong = h.hash(HashDomain::Leaf, b"not a leaf");
        assert_ne!(verify_inclusion(&h, wrong, &p), t.root());
    }

    #[test]
    fn proof_size_logarithmic() {
        // The paper states ⌈log2 m⌉ digests for the representation MHT.
        let t = MerkleTree::build(hasher(), leaves(32));
        assert_eq!(t.prove(0).digest_count(), 5);
        let t = MerkleTree::build(hasher(), leaves(33));
        assert!(t.prove(0).digest_count() <= 6);
    }

    #[test]
    fn mixed_root_matches_plain() {
        let h = hasher();
        let values: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 3]).collect();
        let refs: Vec<&[u8]> = values.iter().map(|v| v.as_slice()).collect();
        let t = MerkleTree::from_values(h, &refs);
        // Hide attributes 1 and 3 behind digests.
        let mixed: Vec<MixedLeaf> = refs
            .iter()
            .enumerate()
            .map(|(i, v)| {
                if i % 2 == 1 {
                    MixedLeaf::Digest(h.hash(HashDomain::Leaf, v))
                } else {
                    MixedLeaf::Value(v)
                }
            })
            .collect();
        assert_eq!(root_from_mixed(&h, &mixed), t.root());
    }

    #[test]
    fn range_proofs_roundtrip() {
        let h = hasher();
        for n in [1usize, 2, 3, 7, 8, 9, 16, 21] {
            let ls = leaves(n);
            let t = MerkleTree::build(h, ls.clone());
            for lo in 0..n {
                for hi in lo..n.min(lo + 6) {
                    let fringe = t.prove_range(lo, hi);
                    let got = root_from_range(&h, n, lo, &ls[lo..=hi], &fringe);
                    assert_eq!(got, Some(t.root()), "n={n} lo={lo} hi={hi}");
                }
            }
        }
    }

    #[test]
    fn range_proof_rejects_shifted_range() {
        let h = hasher();
        let ls = leaves(16);
        let t = MerkleTree::build(h, ls.clone());
        let fringe = t.prove_range(4, 7);
        // Claiming the same leaves sit at a different offset must fail.
        let got = root_from_range(&h, 16, 5, &ls[4..=7], &fringe);
        assert_ne!(got, Some(t.root()));
    }

    #[test]
    fn range_proof_rejects_tampered_leaf() {
        let h = hasher();
        let ls = leaves(16);
        let t = MerkleTree::build(h, ls.clone());
        let fringe = t.prove_range(4, 7);
        let mut known = ls[4..=7].to_vec();
        known[1] = h.hash(HashDomain::Leaf, b"evil");
        let got = root_from_range(&h, 16, 4, &known, &fringe);
        assert!(got.is_none() || got != Some(t.root()));
    }

    #[test]
    fn full_range_needs_no_fringe() {
        let h = hasher();
        let ls = leaves(8);
        let t = MerkleTree::build(h, ls.clone());
        let fringe = t.prove_range(0, 7);
        assert!(fringe.is_empty());
        assert_eq!(root_from_range(&h, 8, 0, &ls, &fringe), Some(t.root()));
    }
}
