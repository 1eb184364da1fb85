//! Verification objects (VOs): everything the publisher sends alongside a
//! query result so the user can verify completeness and authenticity.
//!
//! The shapes follow Figures 4/8 of the paper:
//!
//! * a [`BoundaryProof`] per side, carrying the `m+1` intermediate digest
//!   chain points `h^{δ_{e,i}}(r|i)` plus the representation selector
//!   (canonical root, or non-canonical index + canonical digest +
//!   `⌈log₂ m⌉` Merkle path digests),
//! * an [`EntryProof`] per position inside the result range (matched,
//!   multipoint-filtered, or DISTINCT-eliminated),
//! * the signatures — one aggregated condensed-RSA value by default
//!   (Section 5.2) or individual signatures when aggregation is disabled.
//!
//! All sizes reported by [`QueryVO::wire_size`] are the exact encoded byte
//! lengths produced by [`crate::wire`], which is what the Figure 9 traffic
//! experiment measures.

use adp_crypto::{AggregateSignature, Digest, InclusionProof, Signature};
use adp_relation::Value;

/// How the publisher proves which representation of `δ_t` the user's
/// chain extension lands on (Figure 8a).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RepProof {
    /// `δ_{t,i} ≥ δ_{c,i}` everywhere: the canonical representation is the
    /// target; the publisher supplies the non-canonical MHT root.
    Canonical { mht_root: Digest },
    /// The user is steered to the preferred non-canonical representation
    /// `^jδ_t`: the publisher supplies the canonical representation's
    /// digest plus the Merkle path placing `h(^jδ_t)` in the tree.
    NonCanonical {
        /// Which preferred non-canonical representation `^jδ_t`.
        index: u32,
        /// Digest of the canonical representation's chain targets.
        canon_digest: Digest,
        /// Merkle path placing `h(^jδ_t)` in the representation tree.
        path: InclusionProof,
    },
}

/// Proof that a boundary record's key lies strictly outside the query range
/// on one side, without revealing the key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BoundaryProof {
    /// `h^{δ_{e,i}}(k|i)` per digit — a single digest in conceptual mode.
    pub intermediates: Vec<Digest>,
    /// Representation selector (`None` in conceptual mode).
    pub selector: Option<RepProof>,
    /// The opposite direction's finished component, opaque.
    pub other_component: Digest,
    /// The boundary record's attribute-tree root, opaque.
    pub attr_root: Digest,
}

/// Attribute disclosure for one record: values the publisher reveals,
/// leaf digests standing in for hidden ones, and the root (sent per the
/// paper's accounting; the verifier recomputes and cross-checks it).
///
/// Positions index the record's *non-key* columns in schema order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AttrProof {
    /// Attribute values revealed inline (multipoint-filtered rows disclose
    /// the failing attribute(s) this way).
    pub disclosed: Vec<(u32, Value)>,
    /// Leaf digests standing in for attributes the user may not see.
    pub hidden: Vec<(u32, Digest)>,
    /// The `MHT(r.A)` root; the verifier recomputes it from the other two
    /// fields and cross-checks.
    pub root: Digest,
}

/// The chain material a verifier needs for an entry whose key it knows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EntryChains {
    /// Optimized mode: the rep-MHT roots for both directions (Figure 8b).
    Optimized { up_root: Digest, down_root: Digest },
    /// Conceptual mode: the verifier recomputes the full chains itself.
    Conceptual,
}

impl EntryChains {
    /// The chain material for an entry whose table caches `roots` for it
    /// (optimized mode) or not (conceptual mode).
    pub fn from_roots(roots: Option<(Digest, Digest)>) -> Self {
        match roots {
            Some((up_root, down_root)) => EntryChains::Optimized { up_root, down_root },
            None => EntryChains::Conceptual,
        }
    }

    /// The `(up, down)` rep-MHT roots, if this is optimized-mode material.
    pub fn roots(&self) -> Option<(Digest, Digest)> {
        match self {
            EntryChains::Optimized { up_root, down_root } => Some((*up_root, *down_root)),
            EntryChains::Conceptual => None,
        }
    }
}

/// One position inside the contiguous result range on `K`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EntryProof {
    /// A row of the returned result (in order).
    Match {
        /// Chain material for the disclosed key (Figure 8b).
        chains: EntryChains,
        /// Attribute tree proof; disclosure happens through the result row.
        attrs: AttrProof,
    },
    /// A row inside the range that fails the query's non-key filters
    /// (multipoint queries, Section 4.4). `attrs.disclosed` carries the
    /// failing attribute value(s) — for access-control filtering (Case 2)
    /// that is the role's visibility flag. The chain components are opaque
    /// because the key is not revealed.
    Filtered {
        /// Finished up-direction component of `g` (key stays hidden).
        up_component: Digest,
        /// Finished down-direction component of `g`.
        down_component: Digest,
        /// Attribute proof disclosing the failing attribute value(s).
        attrs: AttrProof,
    },
    /// A DISTINCT-eliminated duplicate of result row `of` (Section 4.2).
    /// Chains are reconstructible from the referenced row's key; hidden
    /// digests cover the attributes outside the projection, which may
    /// differ between duplicates.
    Duplicate {
        /// Index of the retained first occurrence in the result.
        of: u32,
        /// Chain material, reconstructible from the referenced row's key.
        chains: EntryChains,
        /// Attribute proof (duplicates may differ outside the projection).
        attrs: AttrProof,
    },
}

/// Signatures covering the result entries (one per entry, chained):
/// condensed into a single aggregate by default.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SignatureProof {
    /// One condensed-RSA aggregate covering every link (Section 5.2).
    Aggregated(AggregateSignature),
    /// One plain signature per link (aggregation disabled).
    Individual(Vec<Signature>),
}

impl SignatureProof {
    /// Number of component signatures.
    pub fn count(&self) -> usize {
        match self {
            SignatureProof::Aggregated(a) => a.count(),
            SignatureProof::Individual(v) => v.len(),
        }
    }
}

/// The previous neighbour's `g` for an empty-result proof: either the left
/// domain edge anchor `h(L)` or the opaque concatenated digests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PrevG {
    /// The left neighbour is the domain's left delimiter: the anchor is
    /// `h(L)`, which the verifier derives from the certificate.
    Edge,
    /// The serialized `g` of the record before the left boundary, opaque.
    Opaque(Vec<u8>),
}

/// Proof that no record falls in `[α, β]`: two *adjacent* records (or
/// delimiters) straddle the range — the left one proves `K < α`, the right
/// one `K > β`, and the left one's signature binds them as neighbours.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EmptyProof {
    /// `g` of the record preceding the left boundary (signature input).
    pub prev: PrevG,
    /// Proof that the left straddling record's key is `< α`.
    pub left: BoundaryProof,
    /// Proof that the right straddling record's key is `> β`.
    pub right: BoundaryProof,
    /// The left record's chain signature, binding the pair as neighbours.
    pub signature: SignatureProof,
}

/// VO for a non-empty result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RangeVO {
    /// Proof that the record before the first result has key `< α`.
    pub left: BoundaryProof,
    /// Proof that the record after the last result has key `> β`.
    pub right: BoundaryProof,
    /// One entry per chain position inside the range, in key order.
    pub entries: Vec<EntryProof>,
    /// The chained signatures covering every in-range position.
    pub signatures: SignatureProof,
}

/// The full verification object accompanying a select result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryVO {
    /// The normalized range is empty by construction; nothing to prove.
    TriviallyEmpty,
    /// The range is non-trivial but holds no records.
    Empty(EmptyProof),
    /// The range holds records.
    Range(RangeVO),
}

impl QueryVO {
    /// Exact encoded size in bytes (drives the Figure 9 measurement).
    pub fn wire_size(&self) -> usize {
        crate::wire::encode_vo(self).len()
    }

    /// Total digests carried (for cost accounting against formula (4)).
    pub fn digest_count(&self) -> usize {
        fn boundary(b: &BoundaryProof) -> usize {
            let sel = match &b.selector {
                None => 0,
                Some(RepProof::Canonical { .. }) => 1,
                Some(RepProof::NonCanonical { path, .. }) => 1 + path.digest_count(),
            };
            b.intermediates.len() + sel + 2
        }
        fn attrs(a: &AttrProof) -> usize {
            a.hidden.len() + 1
        }
        fn entry(e: &EntryProof) -> usize {
            match e {
                EntryProof::Match { chains, attrs: a }
                | EntryProof::Duplicate {
                    chains, attrs: a, ..
                } => {
                    attrs(a)
                        + match chains {
                            EntryChains::Optimized { .. } => 2,
                            EntryChains::Conceptual => 0,
                        }
                }
                EntryProof::Filtered { attrs: a, .. } => attrs(a) + 2,
            }
        }
        match self {
            QueryVO::TriviallyEmpty => 0,
            QueryVO::Empty(e) => boundary(&e.left) + boundary(&e.right),
            QueryVO::Range(r) => {
                boundary(&r.left) + boundary(&r.right) + r.entries.iter().map(entry).sum::<usize>()
            }
        }
    }
}
