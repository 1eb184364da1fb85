//! The data owner (Figure 3): signs tables, maintains them under updates.
//!
//! For a table sorted on `K` the owner inserts the two delimiters
//! (Section 3.1), computes `g(r)` for every entry (formula (3), Figure 7)
//! and signs each chain link `h(g(r_{i-1}) | g(r_i) | g(r_{i+1}))`
//! (formula (1)), with the domain edge anchors `h(L)` / `h(U)` flanking the
//! delimiters.
//!
//! Updates have the locality the paper highlights in Section 6.3: an
//! insert/delete/modify recomputes **three (or two) signatures** — the
//! record's own and its immediate neighbours' — instead of a root path of
//! digests as in Merkle-tree schemes. Every change goes through
//! [`Owner::apply_batch`] (a single change is a one-mutation batch), which
//! re-signs the union of its mutations' neighbourhoods. Signatures are
//! additionally stored in a [`BPlusTree`] keyed by `(K, replica)`, whose
//! node-visit counters show how few leaves a batch touches.
//!
//! A [`SignedTable`] is built by one path and changed by one path. Each
//! forks only at the step where the signatures come from: the owner's key,
//! or signatures that arrive with the data (disseminated with a snapshot,
//! or carried by a logged batch and checked one by one).

use crate::domain::Domain;
use crate::gdigest::{edge_digest, g_of_delimiter, link_digests_run, materialize_record, GDigest};
use crate::repr::Radix;
use crate::scheme::{Mode, SchemeConfig};
use adp_crypto::par::{self, Split};
use adp_crypto::{Digest, Hasher, Keypair, PublicKey, Signature};
use adp_relation::{BPlusTree, CowVec, Record, Schema, SchemaError, Table};
use rand::RngCore;
use std::collections::BTreeSet;
use std::fmt;

/// How the owner's signing and a build's `g` materialisation cut chain
/// positions over the cores. A position costs one RSA signature (≈ 110 µs
/// at 1024 bits) plus ≈ 160 hash operations, so a 16-position chunk
/// (≈ 2 ms) dwarfs the ≈ 30–60 µs a helper thread costs to start, and from
/// two chunks up a split pays.
const SIGN_SPLIT: Split = Split { chunk: 16, at: 32 };

/// Errors raised by owner operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OwnerError {
    /// A key value lies outside the legal key interval `[L+2, U-2]`.
    KeyOutOfDomain { key: i64 },
    /// The record does not match the table schema.
    Schema(SchemaError),
    /// The `(key, replica)` pair does not exist.
    NoSuchRecord { key: i64, replica: u32 },
    /// A dissemination payload carried the wrong number of signatures for
    /// the table (`n + 2` expected).
    SignatureCount { expected: usize, got: usize },
    /// A batch [`Mutation::Update`] changed the key attribute without being
    /// decomposed into delete + insert (only [`Owner::apply_batch`]
    /// canonicalizes; replayed logs must already be canonical).
    UpdateChangesKey { key: i64, new_key: i64 },
    /// A replayed batch's re-signed positions disagree with the chain
    /// positions the mutations actually dirtied.
    ResignSetMismatch { expected: usize, got: usize },
    /// A replayed signature failed verification against the recomputed link
    /// digest — the log record was tampered with or corrupted.
    ResignatureInvalid { chain_pos: usize },
}

impl fmt::Display for OwnerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OwnerError::KeyOutOfDomain { key } => {
                write!(f, "key {key} outside the domain's legal key interval")
            }
            OwnerError::Schema(e) => write!(f, "schema violation: {e}"),
            OwnerError::NoSuchRecord { key, replica } => {
                write!(f, "no record with key {key}, replica {replica}")
            }
            OwnerError::SignatureCount { expected, got } => {
                write!(f, "expected {expected} signatures for the table, got {got}")
            }
            OwnerError::UpdateChangesKey { key, new_key } => {
                write!(
                    f,
                    "batch update changes the key attribute ({key} -> {new_key}); \
                     canonical batches decompose key changes into delete + insert"
                )
            }
            OwnerError::ResignSetMismatch { expected, got } => {
                write!(
                    f,
                    "replayed batch re-signs the wrong positions: \
                     {expected} dirtied, {got} provided"
                )
            }
            OwnerError::ResignatureInvalid { chain_pos } => {
                write!(
                    f,
                    "replayed signature at chain position {chain_pos} does not \
                     verify against the recomputed link digest"
                )
            }
        }
    }
}

impl std::error::Error for OwnerError {}

impl From<SchemaError> for OwnerError {
    fn from(e: SchemaError) -> Self {
        OwnerError::Schema(e)
    }
}

/// What the owner publishes for users (over an authenticated channel, e.g.
/// a public-key certificate): everything needed to verify results.
#[derive(Clone, Debug)]
pub struct Certificate {
    pub table_name: String,
    pub schema: Schema,
    pub domain: Domain,
    pub config: SchemeConfig,
    pub public_key: PublicKey,
}

/// Per-chain-position authentication material.
#[derive(Clone, Debug)]
pub struct SignedEntry {
    /// The `g` triple of this entry.
    pub g: GDigest,
    /// Optimized mode: the rep-MHT roots (up, down) the publisher hands to
    /// users for Figure-8b entry verification.
    pub roots: Option<(Digest, Digest)>,
    /// `sig(r_i)` over the link digest.
    pub signature: Signature,
}

/// One owner-side mutation of a signed table, as carried in an ingest
/// batch and in `adp-store` update-log records.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Insert a new record (replica assigned automatically).
    Insert(Record),
    /// Delete the record identified by `(key, replica)`.
    Delete {
        /// Key attribute value.
        key: i64,
        /// Replica disambiguator.
        replica: u32,
    },
    /// Replace the non-key attributes of `(key, replica)`. A replacement
    /// record with a *different* key is decomposed by
    /// [`Owner::apply_batch`] into delete + insert.
    Update {
        /// Key attribute value of the record being replaced.
        key: i64,
        /// Replica disambiguator.
        replica: u32,
        /// The replacement record.
        record: Record,
    },
}

/// Outcome of [`Owner::apply_batch`]: the canonicalized mutations as
/// applied plus the signatures recomputed for the affected chain
/// neighborhoods — exactly what an update-log record must carry so a
/// publisher can replay the batch without the signing key.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// The mutations in canonical application order (deletes, then
    /// in-place updates, then inserts, each sorted by key). Log these, not
    /// the caller's original vector.
    pub ops: Vec<Mutation>,
    /// `(chain position, new signature)` for every re-signed position, in
    /// chain order. Positions refer to the post-batch chain.
    pub resigned: Vec<(u32, Signature)>,
    /// Signatures recomputed — `O(k)` neighborhoods, never `O(n)`.
    pub signatures_recomputed: usize,
    /// `g` digests recomputed (one per insert/update).
    pub g_recomputed: usize,
}

/// Where the signatures of the chain positions a build or a batch writes
/// come from: the one step at which the paths that build and change a
/// [`SignedTable`] fork.
enum Signatures<'a> {
    /// The owner signs each position's link digest with its key.
    Sign(&'a Keypair),
    /// Disseminated with the data, one per chain position `0..=n+1`, and
    /// taken as they are: serving callers run [`SignedTable::audit`].
    Supplied(Vec<Signature>),
    /// Carried by a logged batch as `(chain position, signature)` in chain
    /// order, for exactly the positions the batch dirties. Each is checked
    /// by itself against its own link digest.
    Checked(&'a [(u32, Signature)]),
}

/// A table signed for publishing: data + signature chain + signature index.
///
/// A clone is an independent copy that costs `O(1)`: rows, chain entries
/// and signature-index nodes are shared with the original until one of the
/// two changes them, and then only the changed root paths are copied
/// ([`CowVec`], [`BPlusTree`]); a signature in a chain entry and in the
/// index is one allocation. Every batch is staged on such a clone and
/// swapped in once it is complete, and `adp-store` and the live-reloading
/// server keep the previous epoch serving meanwhile, so an update costs
/// its batch — and dropping the previous epoch frees only what the batch
/// replaced.
#[derive(Clone, Debug)]
pub struct SignedTable {
    table: Table,
    domain: Domain,
    config: SchemeConfig,
    hasher: Hasher,
    radix: Option<Radix>,
    /// Chain positions `0..=n+1`; position 0 and n+1 are the delimiters.
    entries: CowVec<SignedEntry>,
    /// Signatures keyed by `(K, replica)` in B+-tree leaves (Section 6.3).
    sig_index: BPlusTree<Signature>,
    public_key: PublicKey,
}

impl SignedTable {
    /// The underlying table (real records only).
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The key domain.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// The scheme configuration.
    pub fn config(&self) -> &SchemeConfig {
        &self.config
    }

    /// The hasher.
    pub fn hasher(&self) -> &Hasher {
        &self.hasher
    }

    /// The radix (None in conceptual mode).
    pub fn radix(&self) -> Option<&Radix> {
        self.radix.as_ref()
    }

    /// Number of real records `n`.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the table has no real records.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Chain entry at position `0..=n+1`.
    pub fn entry(&self, chain_pos: usize) -> &SignedEntry {
        &self.entries[chain_pos]
    }

    /// The chain entries at `chain_positions`, in order — what a range
    /// answer walks instead of looking each position up.
    pub fn entries(
        &self,
        chain_positions: std::ops::Range<usize>,
    ) -> impl ExactSizeIterator<Item = &SignedEntry> {
        self.entries.range(chain_positions)
    }

    /// Number of chain positions (`n + 2`).
    pub fn chain_len(&self) -> usize {
        self.entries.len()
    }

    /// Key at a chain position (delimiters included).
    pub fn key_at(&self, chain_pos: usize) -> i64 {
        self.tree_key_at(chain_pos).0
    }

    /// `(key, replica)` at a chain position.
    pub fn tree_key_at(&self, chain_pos: usize) -> (i64, u32) {
        if chain_pos == 0 {
            (self.domain.left_delimiter(), 0)
        } else if chain_pos == self.entries.len() - 1 {
            (self.domain.right_delimiter(), 0)
        } else {
            let row = self.table.row(chain_pos - 1);
            (row.record.key(self.table.schema()), row.replica)
        }
    }

    /// The signature B+-tree (for instrumentation).
    pub fn sig_index(&self) -> &BPlusTree<Signature> {
        &self.sig_index
    }

    /// The owner's public key.
    pub fn public_key(&self) -> &PublicKey {
        &self.public_key
    }

    /// Bytes of authentication material the owner ships to the publisher:
    /// `n + 2` signatures (everything else is recomputable from the data).
    pub fn dissemination_size(&self) -> usize {
        self.entries.iter().map(|e| e.signature.byte_len()).sum()
    }

    /// The raw `g` bytes at a chain position (used by the publisher as
    /// opaque neighbour context).
    pub fn g_bytes(&self, chain_pos: usize) -> Vec<u8> {
        self.entries[chain_pos].g.to_bytes()
    }

    /// Internal consistency check: every stored signature verifies against
    /// the link digest recomputed from the current `g`s. `O(n)` signature
    /// verifications.
    pub fn audit(&self) -> bool {
        let all: Vec<usize> = (0..self.entries.len()).collect();
        self.links_for(&all)
            .iter()
            .zip(self.entries.iter())
            .all(|(link, entry)| self.public_key.verify(&self.hasher, link, &entry.signature))
    }

    /// Publisher-side reconstruction from disseminated parts: the owner
    /// ships only the data and the `n + 2` signatures (Figure 3); the
    /// publisher recomputes every digest itself.
    ///
    /// The signatures are taken as supplied, not verified. A caller that
    /// serves the table must first prove it with [`SignedTable::audit`],
    /// as `Server::open_store`, a follower's bootstrap and `adp serve` do.
    ///
    /// `signatures` must cover chain positions `0..=n+1` in order.
    pub fn from_parts(
        table: Table,
        domain: Domain,
        config: SchemeConfig,
        signatures: Vec<Signature>,
        public_key: PublicKey,
    ) -> Result<Self, OwnerError> {
        SignedTable::build(
            table,
            domain,
            config,
            public_key,
            Signatures::Supplied(signatures),
        )
    }

    /// Publisher-side batch application: replays a logged batch *without
    /// the signing key*, splicing in the owner-provided signatures after
    /// verifying them against the link digests recomputed from local state.
    /// A tampered log record — flipped payload bytes, a forged signature,
    /// a wrong position set — is rejected with a typed error.
    ///
    /// `ops` must be in canonical order (as emitted by
    /// [`Owner::apply_batch`]); `resigned` must list `(chain position,
    /// signature)` in chain order for exactly the dirtied positions.
    ///
    /// Every signature is verified by itself against its own link digest.
    /// A condensed-RSA aggregate (Section 5.2) is deliberately *not* used
    /// here: it only checks the product of the signatures, so it accepts
    /// two signatures swapped between their positions (or `σ_i·r`,
    /// `σ_j·r⁻¹`), and a record accepted here is persisted and fanned out.
    ///
    /// All or nothing, as [`Owner::apply_batch`]: an `Err` leaves the table
    /// exactly as it was.
    pub fn replay_batch(
        &mut self,
        ops: &[Mutation],
        resigned: &[(u32, Signature)],
    ) -> Result<(), OwnerError> {
        self.prevalidate_records(ops)?;
        self.apply(ops, Signatures::Checked(resigned))?;
        Ok(())
    }

    /// The build core behind [`Owner::sign_table`] and
    /// [`SignedTable::from_parts`]: checks every key against the domain,
    /// materialises the `g` of every chain position `0..=n+1` on the
    /// available cores, and installs the `n + 2` signatures `source` gives.
    fn build(
        table: Table,
        domain: Domain,
        config: SchemeConfig,
        public_key: PublicKey,
        source: Signatures<'_>,
    ) -> Result<SignedTable, OwnerError> {
        // Validate all keys before doing any crypto work.
        for row in table.iter() {
            let k = row.record.key(table.schema());
            if !domain.contains_key(k) {
                return Err(OwnerError::KeyOutOfDomain { key: k });
            }
        }
        let hasher = config.hasher();
        let radix = match config.mode {
            Mode::Conceptual => None,
            Mode::Optimized { base } => Some(Radix::for_width(base, domain.width())),
        };
        let n = table.len();
        // Every entry is installed below; until then it holds a placeholder.
        let unsigned = Signature::from_bytes(&[]);
        let delimiter = |key| g_of_delimiter(&hasher, &config, radix.as_ref(), &domain, key);
        let entry = |pos: usize| {
            let (g, roots) = match pos {
                0 => (delimiter(domain.left_delimiter()), None),
                _ if pos == n + 1 => (delimiter(domain.right_delimiter()), None),
                _ => materialize_record(
                    &hasher,
                    &config,
                    radix.as_ref(),
                    &domain,
                    table.schema(),
                    &table.row(pos - 1).record,
                ),
            };
            SignedEntry {
                g,
                roots,
                signature: unsigned.clone(),
            }
        };
        let entries = par::concat(par::map_chunks(n + 2, SIGN_SPLIT, par::workers(), |r| {
            r.map(&entry).collect::<Vec<_>>()
        }));
        let mut st = SignedTable {
            table,
            domain,
            config,
            hasher,
            radix,
            entries: entries.into(),
            sig_index: BPlusTree::new(64),
            public_key,
        };
        let all: Vec<usize> = (0..n + 2).collect();
        let signed = st.signatures(&all, source)?;
        st.install(&signed);
        Ok(st)
    }

    /// The change core behind [`Owner::apply_batch`] and
    /// [`SignedTable::replay_batch`]: stages the canonical-order `ops` on a
    /// copy, takes one signature per dirtied position from `source`,
    /// installs them and swaps the copy in. All or nothing: an `Err` drops
    /// the copy and leaves the table exactly as it was. Returns the
    /// installed `(chain position, signature)` pairs and the number of `g`
    /// digests recomputed.
    fn apply(
        &mut self,
        ops: &[Mutation],
        source: Signatures<'_>,
    ) -> Result<(Vec<(u32, Signature)>, usize), OwnerError> {
        let mut staged = self.clone();
        let (positions, g_recomputed) = staged.stage_batch(ops)?;
        let signed = staged.signatures(&positions, source)?;
        staged.install(&signed);
        *self = staged;
        Ok((signed, g_recomputed))
    }

    /// `g` and rep-roots for one record, from this table's scheme state.
    fn materialize_record(&self, record: &Record) -> (GDigest, Option<(Digest, Digest)>) {
        materialize_record(
            &self.hasher,
            &self.config,
            self.radix.as_ref(),
            &self.domain,
            self.table.schema(),
            record,
        )
    }

    /// Current chain position of a `(key, replica)` tree key (delimiters
    /// included), or `None` if it no longer exists.
    fn chain_pos_of(&self, tree_key: (i64, u32)) -> Option<usize> {
        if tree_key == (self.domain.left_delimiter(), 0) {
            return Some(0);
        }
        if tree_key == (self.domain.right_delimiter(), 0) {
            return Some(self.entries.len() - 1);
        }
        self.table
            .position_of(tree_key.0, tree_key.1)
            .map(|p| p + 1)
    }

    /// Schema-validates every record carried by the batch (must run before
    /// anything extracts a key from a record).
    fn prevalidate_records(&self, ops: &[Mutation]) -> Result<(), OwnerError> {
        let schema = self.table.schema();
        for op in ops {
            match op {
                Mutation::Insert(record) | Mutation::Update { record, .. } => {
                    schema.validate(record.values())?;
                }
                Mutation::Delete { .. } => {}
            }
        }
        Ok(())
    }

    /// Applies the structural half of a canonical-order batch — table rows,
    /// chain entries, fresh `g` digests (signatures untouched except
    /// placeholders for inserts) — and returns `(dirty chain positions, g
    /// recomputed)`. Each mutation is checked as it is staged: an insert's
    /// key lies in the domain, an update keeps its key, a delete or update
    /// finds its target. A failure leaves the table half-staged, which is
    /// why only [`SignedTable::apply`]'s copy is ever staged on.
    ///
    /// Dirty positions are tracked by `(key, replica)` identity so earlier
    /// mutations stay correct as later ones shift positions.
    fn stage_batch(&mut self, ops: &[Mutation]) -> Result<(Vec<usize>, usize), OwnerError> {
        let mut dirty: BTreeSet<(i64, u32)> = BTreeSet::new();
        let mut g_recomputed = 0usize;
        for op in ops {
            match op {
                Mutation::Insert(record) => {
                    let key = record.key(self.table.schema());
                    if !self.domain.contains_key(key) {
                        return Err(OwnerError::KeyOutOfDomain { key });
                    }
                    let (g, roots) = self.materialize_record(record);
                    g_recomputed += 1;
                    let pos = self.table.insert(record.clone())?;
                    let cp = pos + 1;
                    // Placeholder replaced when the position is re-signed.
                    let placeholder = self.entries[0].signature.clone();
                    self.entries.insert(
                        cp,
                        SignedEntry {
                            g,
                            roots,
                            signature: placeholder,
                        },
                    );
                    for p in [cp - 1, cp, cp + 1] {
                        dirty.insert(self.tree_key_at(p));
                    }
                }
                Mutation::Delete { key, replica } => {
                    let Some(pos) = self.table.position_of(*key, *replica) else {
                        return Err(OwnerError::NoSuchRecord {
                            key: *key,
                            replica: *replica,
                        });
                    };
                    self.table.remove_at(pos);
                    let cp = pos + 1;
                    self.entries.remove(cp);
                    self.sig_index.remove((*key, *replica));
                    dirty.remove(&(*key, *replica));
                    dirty.insert(self.tree_key_at(cp - 1));
                    dirty.insert(self.tree_key_at(cp));
                }
                Mutation::Update {
                    key,
                    replica,
                    record,
                } => {
                    let new_key = record.key(self.table.schema());
                    if new_key != *key {
                        return Err(OwnerError::UpdateChangesKey { key: *key, new_key });
                    }
                    let Some(pos) = self.table.position_of(*key, *replica) else {
                        return Err(OwnerError::NoSuchRecord {
                            key: *key,
                            replica: *replica,
                        });
                    };
                    let (g, roots) = self.materialize_record(record);
                    g_recomputed += 1;
                    self.table.update_in_place(pos, record.clone())?;
                    let cp = pos + 1;
                    let entry = &mut self.entries[cp];
                    entry.g = g;
                    entry.roots = roots;
                    for p in [cp - 1, cp, cp + 1] {
                        dirty.insert(self.tree_key_at(p));
                    }
                }
            }
        }
        let mut positions: Vec<usize> = dirty
            .iter()
            .filter_map(|&tk| self.chain_pos_of(tk))
            .collect();
        positions.sort_unstable();
        Ok((positions, g_recomputed))
    }

    /// Link digests for the given (sorted) chain positions, computed with
    /// the bulk [`link_digests_run`] sliding window over each contiguous
    /// run — every `g` in a run is serialized once, and the domain's edge
    /// anchors flank a run that reaches a delimiter.
    fn links_for(&self, positions: &[usize]) -> Vec<Digest> {
        let edge_l = edge_digest(&self.hasher, self.domain.l())
            .as_bytes()
            .to_vec();
        let edge_u = edge_digest(&self.hasher, self.domain.u())
            .as_bytes()
            .to_vec();
        let last = self.entries.len() - 1;
        let mut out = Vec::with_capacity(positions.len());
        let mut i = 0;
        while i < positions.len() {
            let mut j = i;
            while j + 1 < positions.len() && positions[j + 1] == positions[j] + 1 {
                j += 1;
            }
            let (a, b) = (positions[i], positions[j]);
            let prev = if a == 0 {
                edge_l.clone()
            } else {
                self.entries[a - 1].g.to_bytes()
            };
            let next = if b == last {
                edge_u.clone()
            } else {
                self.entries[b + 1].g.to_bytes()
            };
            let encoded: Vec<Vec<u8>> = self
                .entries
                .range(a..b + 1)
                .map(|e| e.g.to_bytes())
                .collect();
            let mut run: Vec<&[u8]> = Vec::with_capacity(encoded.len() + 2);
            run.push(&prev);
            run.extend(encoded.iter().map(Vec::as_slice));
            run.push(&next);
            out.extend(link_digests_run(&self.hasher, &run));
            i = j + 1;
        }
        out
    }

    /// `(chain position, signature)` for each of the sorted `positions`,
    /// from `source`: the one step in which builds and batches differ by
    /// where their signatures come from.
    fn signatures(
        &self,
        positions: &[usize],
        source: Signatures<'_>,
    ) -> Result<Vec<(u32, Signature)>, OwnerError> {
        let signatures = match source {
            Signatures::Sign(keypair) => {
                let links = self.links_for(positions);
                par::concat(par::map_chunks(
                    links.len(),
                    SIGN_SPLIT,
                    par::workers(),
                    |r| {
                        links[r]
                            .iter()
                            .map(|link| keypair.sign(&self.hasher, link))
                            .collect::<Vec<_>>()
                    },
                ))
            }
            Signatures::Supplied(signatures) => {
                if signatures.len() != positions.len() {
                    return Err(OwnerError::SignatureCount {
                        expected: positions.len(),
                        got: signatures.len(),
                    });
                }
                signatures
            }
            Signatures::Checked(resigned) => {
                if resigned.len() != positions.len()
                    || resigned
                        .iter()
                        .zip(positions)
                        .any(|((p, _), &want)| *p as usize != want)
                {
                    return Err(OwnerError::ResignSetMismatch {
                        expected: positions.len(),
                        got: resigned.len(),
                    });
                }
                let links = self.links_for(positions);
                for ((pos, sig), link) in resigned.iter().zip(&links) {
                    if !self.public_key.verify(&self.hasher, link, sig) {
                        return Err(OwnerError::ResignatureInvalid {
                            chain_pos: *pos as usize,
                        });
                    }
                }
                return Ok(resigned.to_vec());
            }
        };
        Ok(positions
            .iter()
            .map(|&p| p as u32)
            .zip(signatures)
            .collect())
    }

    /// Writes `(chain position, signature)` pairs into the chain entries
    /// and the signature index.
    fn install(&mut self, signed: &[(u32, Signature)]) {
        for (pos, sig) in signed {
            let pos = *pos as usize;
            self.entries[pos].signature = sig.clone();
            self.sig_index.insert(self.tree_key_at(pos), sig.clone());
        }
    }
}

/// The data owner: holds the signing keypair.
pub struct Owner {
    keypair: Keypair,
}

impl Owner {
    /// Creates an owner with a fresh RSA keypair of `bits` bits
    /// (1024 matches the paper's `M_sign`; tests use 512 for speed).
    pub fn new(bits: usize, rng: &mut dyn RngCore) -> Self {
        Owner {
            keypair: Keypair::generate(bits, rng),
        }
    }

    /// The owner's public key.
    pub fn public_key(&self) -> &PublicKey {
        self.keypair.public()
    }

    /// Signs a table for publishing. `O(n)` hash chains + `n + 2` RSA
    /// signatures; parallelized across available cores.
    pub fn sign_table(
        &self,
        table: Table,
        domain: Domain,
        config: SchemeConfig,
    ) -> Result<SignedTable, OwnerError> {
        SignedTable::build(
            table,
            domain,
            config,
            self.keypair.public().clone(),
            Signatures::Sign(&self.keypair),
        )
    }

    /// Incremental bulk ingest: applies a batch of `k` mutations to an
    /// `n`-row signed table, re-signing only the `O(k)` affected chain
    /// neighborhoods (each mutation dirties itself and its two neighbors;
    /// adjacent mutations share neighborhoods). A single insert, delete or
    /// modify is a one-mutation batch: it re-signs three positions (two for
    /// a delete).
    ///
    /// The batch is canonicalized first — key-changing updates decompose
    /// into delete + insert, then deletes, in-place updates, and inserts
    /// apply in that order, each sorted by key — and the canonical
    /// [`BatchReport::ops`] plus [`BatchReport::resigned`] are exactly what
    /// an update-log record must carry for [`SignedTable::replay_batch`],
    /// which runs the same staging and link digests with checked signatures
    /// in place of the key.
    ///
    /// This is the owner-side path of the Section 6.3 experiments:
    /// `baseline_compare` drives its one-update cells and its churn batches
    /// (through an `adp-store` log) through here and tabulates the
    /// re-signing and log traffic against the baselines' update costs
    /// (`docs/EVALUATION.md`).
    ///
    /// All or nothing: the batch is staged on a copy that is swapped in
    /// only once every mutation is staged and signed, so an `Err` leaves
    /// the table untouched.
    pub fn apply_batch(
        &self,
        st: &mut SignedTable,
        ops: Vec<Mutation>,
    ) -> Result<BatchReport, OwnerError> {
        st.prevalidate_records(&ops)?;
        let ops = canonicalize_batch(st.table.schema(), ops);
        let (resigned, g_recomputed) = st.apply(&ops, Signatures::Sign(&self.keypair))?;
        Ok(BatchReport {
            ops,
            signatures_recomputed: resigned.len(),
            g_recomputed,
            resigned,
        })
    }

    /// Issues the user-facing certificate for a signed table.
    pub fn certificate(&self, st: &SignedTable) -> Certificate {
        Certificate {
            table_name: st.table.name().to_string(),
            schema: st.table.schema().clone(),
            domain: st.domain,
            config: st.config,
            public_key: self.keypair.public().clone(),
        }
    }

    /// Publishes a logical table under several sort orders: one
    /// [`SignedTable`] per listed key attribute, each with its own domain
    /// (the paper's Section 6.3 notes this is analogous to creating one
    /// B+-tree per indexed attribute; its future work discusses
    /// multi-dimensional schemes to avoid it).
    pub fn sign_sort_orders(
        &self,
        table: &Table,
        orders: &[(&str, Domain)],
        config: SchemeConfig,
    ) -> Result<Vec<SignedTable>, OwnerError> {
        let mut out = Vec::with_capacity(orders.len());
        for (attr, domain) in orders {
            let schema = Schema::new(table.schema().columns().to_vec(), attr);
            let records: Vec<Record> = table.iter().map(|r| r.record.clone()).collect();
            let renamed = format!("{}@{attr}", table.name());
            let sorted = Table::from_records(renamed, schema, records)?;
            out.push(self.sign_table(sorted, *domain, config)?);
        }
        Ok(out)
    }
}

/// Canonicalizes a batch: key-changing updates decompose into
/// delete + insert; then deletes, in-place updates, and inserts apply in
/// that order, each sorted by `(key, replica)` (inserts by key, stable for
/// duplicates). Records must already be schema-validated.
fn canonicalize_batch(schema: &Schema, ops: Vec<Mutation>) -> Vec<Mutation> {
    let mut deletes = Vec::new();
    let mut updates = Vec::new();
    let mut inserts = Vec::new();
    for op in ops {
        match op {
            Mutation::Update {
                key,
                replica,
                record,
            } if record.key(schema) != key => {
                deletes.push(Mutation::Delete { key, replica });
                inserts.push(Mutation::Insert(record));
            }
            Mutation::Delete { .. } => deletes.push(op),
            Mutation::Update { .. } => updates.push(op),
            Mutation::Insert(_) => inserts.push(op),
        }
    }
    let target = |op: &Mutation| match op {
        Mutation::Delete { key, replica } | Mutation::Update { key, replica, .. } => {
            (*key, *replica)
        }
        Mutation::Insert(_) => unreachable!("partitioned above"),
    };
    deletes.sort_by_key(target);
    updates.sort_by_key(target);
    inserts.sort_by_key(|op| match op {
        Mutation::Insert(record) => record.key(schema),
        _ => unreachable!("partitioned above"),
    });
    let mut out = deletes;
    out.extend(updates);
    out.extend(inserts);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use adp_relation::{Column, Value, ValueType};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::OnceLock;

    pub(crate) fn test_owner() -> &'static Owner {
        static OWNER: OnceLock<Owner> = OnceLock::new();
        OWNER.get_or_init(|| {
            let mut rng = StdRng::seed_from_u64(0x0B11);
            Owner::new(512, &mut rng)
        })
    }

    fn emp_schema() -> Schema {
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

    fn figure1_table() -> Table {
        let mut t = Table::new("emp", emp_schema());
        for (id, name, sal, dept) in [
            (5i64, "A", 2000i64, 1i64),
            (2, "C", 3500, 2),
            (1, "D", 8010, 1),
            (4, "B", 12100, 3),
            (3, "E", 25000, 2),
        ] {
            t.insert(Record::new(vec![
                Value::Int(id),
                Value::from(name),
                Value::Int(sal),
                Value::Int(dept),
            ]))
            .unwrap();
        }
        t
    }

    fn rec(id: i64, sal: i64) -> Record {
        Record::new(vec![
            Value::Int(id),
            Value::from("X"),
            Value::Int(sal),
            Value::Int(1),
        ])
    }

    fn signed_figure1() -> SignedTable {
        test_owner()
            .sign_table(
                figure1_table(),
                Domain::new(0, 100_000),
                SchemeConfig::default(),
            )
            .unwrap()
    }

    /// Applies one mutation as a one-mutation batch.
    fn apply_one(st: &mut SignedTable, op: Mutation) -> Result<BatchReport, OwnerError> {
        test_owner().apply_batch(st, vec![op])
    }

    fn delete(key: i64) -> Mutation {
        Mutation::Delete { key, replica: 0 }
    }

    #[test]
    fn sign_and_audit() {
        let owner = test_owner();
        let st = owner
            .sign_table(
                figure1_table(),
                Domain::new(0, 100_000),
                SchemeConfig::default(),
            )
            .unwrap();
        assert_eq!(st.chain_len(), 7);
        assert_eq!(st.key_at(0), 1);
        assert_eq!(st.key_at(6), 99_999);
        assert_eq!(st.key_at(1), 2000);
        assert!(st.audit());
        assert_eq!(st.sig_index().len(), 7);
    }

    #[test]
    fn sign_empty_table() {
        let owner = test_owner();
        let st = owner
            .sign_table(
                Table::new("empty", emp_schema()),
                Domain::new(0, 1_000),
                SchemeConfig::default(),
            )
            .unwrap();
        assert_eq!(st.chain_len(), 2);
        assert!(st.audit());
    }

    #[test]
    fn conceptual_mode_sign() {
        let owner = test_owner();
        let st = owner
            .sign_table(
                figure1_table(),
                Domain::new(0, 100_000),
                SchemeConfig::conceptual(),
            )
            .unwrap();
        assert!(st.audit());
        assert!(st.entry(1).roots.is_none());
    }

    #[test]
    fn out_of_domain_key_rejected() {
        let owner = test_owner();
        let err = owner
            .sign_table(
                figure1_table(),
                Domain::new(0, 10_000),
                SchemeConfig::default(),
            )
            .unwrap_err();
        assert!(matches!(err, OwnerError::KeyOutOfDomain { key: 12_100 }));
    }

    #[test]
    fn from_parts_rebuilds_the_signed_chain() {
        let st = signed_figure1();
        let sigs: Vec<Signature> = (0..st.chain_len())
            .map(|p| st.entry(p).signature.clone())
            .collect();
        let parts = |sigs: Vec<Signature>| {
            SignedTable::from_parts(
                st.table().clone(),
                *st.domain(),
                *st.config(),
                sigs,
                st.public_key().clone(),
            )
        };
        let rebuilt = parts(sigs.clone()).unwrap();
        assert!(rebuilt.audit());
        assert_eq!(sig_bytes_by_key(&rebuilt), sig_bytes_by_key(&st));
        assert!((0..st.chain_len()).all(|p| rebuilt.g_bytes(p) == st.g_bytes(p)));
        assert_eq!(
            parts(sigs[1..].to_vec()).unwrap_err(),
            OwnerError::SignatureCount {
                expected: 7,
                got: 6
            }
        );
        // Taken as supplied: a swapped pair loads, and only the audit sees it.
        let mut swapped = sigs;
        swapped.swap(1, 2);
        assert!(!parts(swapped).unwrap().audit());
    }

    #[test]
    fn insert_resigns_three() {
        let mut st = signed_figure1();
        let report = apply_one(&mut st, Mutation::Insert(rec(9, 5_000))).unwrap();
        assert_eq!(report.signatures_recomputed, 3);
        assert_eq!(report.g_recomputed, 1);
        assert_eq!(st.len(), 6);
        assert!(st.audit(), "chain must remain verifiable after insert");
        // Inserted between 3500 and 8010.
        assert_eq!(st.key_at(3), 5_000);
    }

    #[test]
    fn insert_at_extremes() {
        let mut st = signed_figure1();
        apply_one(&mut st, Mutation::Insert(rec(9, 2))).unwrap(); // smallest legal key
        apply_one(&mut st, Mutation::Insert(rec(10, 99_998))).unwrap(); // largest legal key
        assert!(st.audit());
        assert_eq!(st.key_at(1), 2);
        assert_eq!(st.key_at(st.chain_len() - 2), 99_998);
    }

    #[test]
    fn insert_duplicate_key_gets_replica() {
        let mut st = signed_figure1();
        apply_one(&mut st, Mutation::Insert(rec(9, 3500))).unwrap();
        assert!(st.audit());
        assert_eq!(st.tree_key_at(2), (3500, 0));
        assert_eq!(st.tree_key_at(3), (3500, 1));
    }

    #[test]
    fn delete_resigns_two() {
        let mut st = signed_figure1();
        let report = apply_one(&mut st, delete(8010)).unwrap();
        assert_eq!(report.signatures_recomputed, 2);
        assert_eq!(report.g_recomputed, 0);
        assert_eq!(st.len(), 4);
        assert!(st.audit(), "chain must remain verifiable after delete");
        assert!(matches!(
            apply_one(&mut st, delete(8010)),
            Err(OwnerError::NoSuchRecord { .. })
        ));
    }

    #[test]
    fn delete_first_and_last() {
        let mut st = signed_figure1();
        apply_one(&mut st, delete(2000)).unwrap();
        apply_one(&mut st, delete(25_000)).unwrap();
        assert!(st.audit());
        assert_eq!(st.len(), 3);
    }

    #[test]
    fn update_in_place_resigns_three() {
        let mut st = signed_figure1();
        let new_rec = Record::new(vec![
            Value::Int(1),
            Value::from("D2"),
            Value::Int(8010),
            Value::Int(7),
        ]);
        let report = apply_one(
            &mut st,
            Mutation::Update {
                key: 8010,
                replica: 0,
                record: new_rec,
            },
        )
        .unwrap();
        assert_eq!(report.signatures_recomputed, 3);
        assert_eq!(report.g_recomputed, 1);
        assert!(st.audit());
        assert_eq!(st.table().row(2).record.get(1), &Value::from("D2"));
    }

    #[test]
    fn update_with_key_change_relocates() {
        let mut st = signed_figure1();
        let report = apply_one(
            &mut st,
            Mutation::Update {
                key: 8010,
                replica: 0,
                record: rec(1, 30_000),
            },
        )
        .unwrap();
        assert_eq!(report.signatures_recomputed, 5); // 2 delete + 3 insert
        assert_eq!(
            report.ops,
            vec![delete(8010), Mutation::Insert(rec(1, 30_000))]
        );
        assert!(st.audit());
        assert_eq!(st.key_at(st.chain_len() - 2), 30_000);
    }

    #[test]
    fn update_locality_in_index() {
        // Section 6.3: updates should touch very few B+-tree leaves.
        let owner = test_owner();
        let mut t = Table::new("big", emp_schema());
        for i in 0..500i64 {
            t.insert(rec(i, 10 + i * 3)).unwrap();
        }
        let mut st = owner
            .sign_table(t, Domain::new(0, 100_000), SchemeConfig::default())
            .unwrap();
        st.sig_index().stats().reset();
        apply_one(
            &mut st,
            Mutation::Update {
                key: 10 + 250 * 3,
                replica: 0,
                record: rec(250, 10 + 250 * 3),
            },
        )
        .unwrap();
        // 3 index writes, each descending height-many nodes; leaves should
        // be a small constant, not O(n) or O(log n)·digest-path like MHTs.
        let leaves = st.sig_index().stats().leaves_visited();
        assert!((1..=6).contains(&leaves), "{leaves} leaves");
    }

    #[test]
    fn sort_orders_publish() {
        let owner = test_owner();
        let t = figure1_table();
        let signed = owner
            .sign_sort_orders(
                &t,
                &[
                    ("salary", Domain::new(0, 100_000)),
                    ("dept", Domain::new(-10, 100)),
                ],
                SchemeConfig::default(),
            )
            .unwrap();
        assert_eq!(signed.len(), 2);
        assert!(signed.iter().all(SignedTable::audit));
        assert_eq!(signed[1].table().schema().key_name(), "dept");
        // The dept-sorted chain orders by dept: 1,1,2,2,3.
        assert_eq!(signed[1].key_at(1), 1);
        assert_eq!(signed[1].key_at(5), 3);
    }

    #[test]
    fn certificate_carries_scheme() {
        let owner = test_owner();
        let st = owner
            .sign_table(
                figure1_table(),
                Domain::new(0, 100_000),
                SchemeConfig::default(),
            )
            .unwrap();
        let cert = owner.certificate(&st);
        assert_eq!(cert.table_name, "emp");
        assert_eq!(cert.domain, *st.domain());
        assert_eq!(&cert.public_key, st.public_key());
    }

    #[test]
    fn dissemination_size_is_signatures_only() {
        let owner = test_owner();
        let st = owner
            .sign_table(
                figure1_table(),
                Domain::new(0, 100_000),
                SchemeConfig::default(),
            )
            .unwrap();
        assert_eq!(st.dissemination_size(), 7 * 64);
    }

    fn sig_bytes_by_key(st: &SignedTable) -> Vec<((i64, u32), Vec<u8>)> {
        (0..st.chain_len())
            .map(|p| (st.tree_key_at(p), st.entry(p).signature.to_bytes()))
            .collect()
    }

    #[test]
    fn apply_batch_mixed_mutations_audit() {
        let owner = test_owner();
        let mut st = owner
            .sign_table(
                figure1_table(),
                Domain::new(0, 100_000),
                SchemeConfig::default(),
            )
            .unwrap();
        let report = owner
            .apply_batch(
                &mut st,
                vec![
                    Mutation::Insert(rec(9, 5_000)),
                    Mutation::Delete {
                        key: 2_000,
                        replica: 0,
                    },
                    Mutation::Update {
                        key: 25_000,
                        replica: 0,
                        record: rec(3, 25_000),
                    },
                    // Key change: decomposed into delete + insert.
                    Mutation::Update {
                        key: 12_100,
                        replica: 0,
                        record: rec(4, 60_000),
                    },
                ],
            )
            .unwrap();
        assert!(st.audit(), "chain must verify after a mixed batch");
        assert_eq!(st.len(), 5);
        assert_eq!(report.g_recomputed, 3); // two inserts + one in-place update
        assert_eq!(report.ops.len(), 5); // key change decomposed
                                         // Canonical order: deletes first.
        assert!(matches!(report.ops[0], Mutation::Delete { .. }));
        assert_eq!(st.key_at(st.chain_len() - 2), 60_000);
        assert_eq!(st.sig_index().len(), st.chain_len());
    }

    #[test]
    fn apply_batch_matches_sequential_updates_byte_for_byte() {
        // FDH-RSA signing is deterministic, so one batch, the same changes
        // as one-mutation batches, and a fresh signing of the final table
        // must all land on identical signature bytes.
        let owner = test_owner();
        let mut batch_st = signed_figure1();
        let mut seq_st = signed_figure1();

        let report = owner
            .apply_batch(
                &mut batch_st,
                vec![
                    Mutation::Insert(rec(9, 5_000)),
                    Mutation::Insert(rec(10, 5_500)),
                    delete(8_010),
                ],
            )
            .unwrap();
        // Canonical order is deletes then inserts by key.
        apply_one(&mut seq_st, delete(8_010)).unwrap();
        apply_one(&mut seq_st, Mutation::Insert(rec(9, 5_000))).unwrap();
        apply_one(&mut seq_st, Mutation::Insert(rec(10, 5_500))).unwrap();
        let fresh = owner
            .sign_table(
                batch_st.table().clone(),
                Domain::new(0, 100_000),
                SchemeConfig::default(),
            )
            .unwrap();

        assert_eq!(sig_bytes_by_key(&batch_st), sig_bytes_by_key(&seq_st));
        assert_eq!(sig_bytes_by_key(&batch_st), sig_bytes_by_key(&fresh));
        assert!(report.signatures_recomputed < batch_st.chain_len());
    }

    #[test]
    fn apply_batch_resigns_o_k_not_o_n() {
        let owner = test_owner();
        let mut t = Table::new("big", emp_schema());
        for i in 0..200i64 {
            t.insert(rec(i, 100 + i * 37)).unwrap();
        }
        let mut st = owner
            .sign_table(t, Domain::new(0, 100_000), SchemeConfig::default())
            .unwrap();
        let before = sig_bytes_by_key(&st);
        let k = 6;
        let ops: Vec<Mutation> = (0..k)
            .map(|i| Mutation::Insert(rec(1_000 + i, 150 + i * 1_111)))
            .collect();
        let report = owner.apply_batch(&mut st, ops).unwrap();
        assert!(st.audit());
        // Each of the k inserts dirties at most itself + 2 neighbors.
        assert!(report.signatures_recomputed <= 3 * k as usize, "{report:?}");
        // Probe the chain itself: count signatures that actually changed.
        let after = sig_bytes_by_key(&st);
        let before: std::collections::BTreeMap<_, _> = before.into_iter().collect();
        let changed = after
            .iter()
            .filter(|(tk, sig)| before.get(tk) != Some(sig))
            .count();
        assert_eq!(changed, report.signatures_recomputed);
        assert!(changed <= 3 * k as usize && changed < st.chain_len() / 2);
    }

    #[test]
    fn apply_batch_validates_before_mutating() {
        let owner = test_owner();
        let mut st = owner
            .sign_table(
                figure1_table(),
                Domain::new(0, 100_000),
                SchemeConfig::default(),
            )
            .unwrap();
        let before = sig_bytes_by_key(&st);
        // Second op is invalid: the whole batch must be rejected with no
        // partial application.
        let err = owner
            .apply_batch(
                &mut st,
                vec![
                    Mutation::Insert(rec(9, 5_000)),
                    Mutation::Delete {
                        key: 4_242,
                        replica: 0,
                    },
                ],
            )
            .unwrap_err();
        assert!(matches!(err, OwnerError::NoSuchRecord { key: 4_242, .. }));
        let err = owner
            .apply_batch(&mut st, vec![Mutation::Insert(rec(9, 2_000_000))])
            .unwrap_err();
        assert!(matches!(err, OwnerError::KeyOutOfDomain { key: 2_000_000 }));
        // The second delete of one record fails after the first is staged.
        let err = owner
            .apply_batch(&mut st, vec![delete(3_500), delete(3_500)])
            .unwrap_err();
        assert!(matches!(err, OwnerError::NoSuchRecord { key: 3_500, .. }));
        assert_eq!(
            sig_bytes_by_key(&st),
            before,
            "failed batch must be a no-op"
        );
        assert_eq!(st.len(), 5);
        assert!(st.audit());
    }

    #[test]
    fn replay_batch_reconstructs_byte_identically() {
        let owner = test_owner();
        let signed = |t: Table| {
            owner
                .sign_table(t, Domain::new(0, 100_000), SchemeConfig::default())
                .unwrap()
        };
        let mut owner_st = signed(figure1_table());
        let mut publisher_st = signed(figure1_table());
        let report = owner
            .apply_batch(
                &mut owner_st,
                vec![
                    Mutation::Insert(rec(9, 5_000)),
                    Mutation::Delete {
                        key: 3_500,
                        replica: 0,
                    },
                ],
            )
            .unwrap();
        publisher_st
            .replay_batch(&report.ops, &report.resigned)
            .unwrap();
        assert!(publisher_st.audit());
        assert_eq!(sig_bytes_by_key(&owner_st), sig_bytes_by_key(&publisher_st));
    }

    #[test]
    fn replay_batch_rejects_forgeries() {
        let owner = test_owner();
        let signed = |t: Table| {
            owner
                .sign_table(t, Domain::new(0, 100_000), SchemeConfig::default())
                .unwrap()
        };
        let mut owner_st = signed(figure1_table());
        let report = owner
            .apply_batch(&mut owner_st, vec![Mutation::Insert(rec(9, 5_000))])
            .unwrap();

        // Everything a table holds per position, and its signature index:
        // a rejected replay must leave all of it as it was.
        let state = |st: &SignedTable| {
            let chain: Vec<_> = (0..st.chain_len())
                .map(|p| {
                    let row = (1..st.chain_len() - 1)
                        .contains(&p)
                        .then(|| st.table().row(p - 1).clone());
                    let entry = st.entry(p);
                    (row, st.g_bytes(p), entry.roots, entry.signature.to_bytes())
                })
                .collect();
            let mut index = Vec::new();
            st.sig_index().range_for_each(
                std::ops::Bound::Unbounded,
                std::ops::Bound::Unbounded,
                |k, sig| index.push((k, sig.to_bytes())),
            );
            (chain, index)
        };
        let mut publisher_st = signed(figure1_table());
        let before = state(&publisher_st);
        let mut rejected = |ops: &[Mutation], resigned: &[(u32, Signature)]| {
            let err = publisher_st.replay_batch(ops, resigned).unwrap_err();
            assert!(state(&publisher_st) == before, "{err}: table moved");
            err
        };

        // A tampered signature byte is rejected, and the error names the
        // forged position.
        let mut forged = report.resigned.clone();
        let mut bytes = forged[1].1.to_bytes();
        bytes[0] ^= 0x01;
        forged[1].1 = Signature::from_bytes(&bytes);
        let err = rejected(&report.ops, &forged);
        assert_eq!(
            err,
            OwnerError::ResignatureInvalid {
                chain_pos: report.resigned[1].0 as usize
            }
        );

        // So is `σ + n`: congruent to an honest signature, not one.
        let mut forged = report.resigned.clone();
        let lifted = forged[2].1.value().add(owner.public_key().modulus());
        forged[2].1 = Signature::from_bytes(&lifted.to_bytes_be());
        let err = rejected(&report.ops, &forged);
        assert_eq!(
            err,
            OwnerError::ResignatureInvalid {
                chain_pos: report.resigned[2].0 as usize
            }
        );

        // Two honest signatures swapped between their positions keep their
        // product — a condensed-RSA aggregate would pass them — and are
        // rejected at the first position that no longer verifies.
        let mut forged = report.resigned.clone();
        let (a, b) = (forged[0].1.clone(), forged[2].1.clone());
        (forged[0].1, forged[2].1) = (b, a);
        let err = rejected(&report.ops, &forged);
        assert_eq!(
            err,
            OwnerError::ResignatureInvalid {
                chain_pos: report.resigned[0].0 as usize
            }
        );

        // A wrong position set is rejected.
        let err = rejected(&report.ops, &report.resigned[..1]);
        assert!(matches!(err, OwnerError::ResignSetMismatch { .. }));

        // A swapped record (honest sigs, different data) is rejected.
        let err = rejected(&[Mutation::Insert(rec(9, 5_001))], &report.resigned);
        assert!(matches!(
            err,
            OwnerError::ResignatureInvalid { .. } | OwnerError::ResignSetMismatch { .. }
        ));

        // A non-canonical key-changing update is rejected at replay.
        let err = rejected(
            &[Mutation::Update {
                key: 3_500,
                replica: 0,
                record: rec(2, 4_000),
            }],
            &report.resigned,
        );
        assert!(matches!(err, OwnerError::UpdateChangesKey { .. }));

        // After six rejections the honest batch still applies.
        publisher_st
            .replay_batch(&report.ops, &report.resigned)
            .unwrap();
        assert!(publisher_st.audit());
        assert_eq!(sig_bytes_by_key(&owner_st), sig_bytes_by_key(&publisher_st));
    }
}
