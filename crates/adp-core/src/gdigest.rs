//! Computing the per-record digest `g(r)` (formulas (2)/(3), Figures 6–7).
//!
//! For the relational scheme, formula (3) defines
//!
//! ```text
//! g(r) = h^{U - r.K - 1}(r.K) | h^{r.K - L - 1}(r.K) | MHT(r.A)
//! ```
//!
//! — an *up* chain component binding how far `r.K` sits below `U`, a *down*
//! chain component binding how far it sits above `L`, and the root of a
//! Merkle tree over the non-key attributes. `g(r)` is a **concatenation**
//! (3 digests); the signature chain hashes triples of them (formula (1)).
//!
//! In [`Mode::Optimized`] each chain component is replaced by the Figure 7
//! construction: `comp = h( h(δ_t) | MHT(^0δ_t … ^{m-1}δ_t) )`, where
//! `h(δ_t)` hashes the concatenation of the `m+1` canonical digit-chain
//! digests `h^{δ_{t,i}}(r.K|i)` and the Merkle tree commits to the `m`
//! preferred non-canonical representations.
//!
//! Chains of the two directions are tagged with disjoint position spaces so
//! an up-chain digest can never be replayed as a down-chain digest.

use crate::domain::{key_bytes, Domain};
use crate::repr::{Radix, MAX_DIGITS};
use crate::scheme::{Mode, SchemeConfig};
use adp_crypto::digest::MIN_DIGEST_LEN;
use adp_crypto::{
    chain_extend_many, chain_from_value, chain_run, hasher::HashDomain, Digest, Hasher, MerkleTree,
};
use adp_relation::{Record, Schema, Value};

/// What the stack arrays of digit-chain digests hold before the bulk chain
/// calls overwrite them.
fn unset_digest() -> Digest {
    Digest::from_bytes(&[0; MIN_DIGEST_LEN])
}

/// Chain direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// `δ_t = U - K - 1`; proves origins (`K < α` for boundaries).
    Up,
    /// `δ_t = K - L - 1`; proves terminals (`K > β`).
    Down,
}

impl Direction {
    /// Position tag for digit `i`: the two directions use disjoint spaces.
    #[inline]
    pub fn tag(&self, digit: u32) -> u32 {
        match self {
            Direction::Up => digit,
            Direction::Down => 0x8000_0000 | digit,
        }
    }

    /// `δ_t` of `key` in this direction.
    pub fn delta_t(&self, domain: &Domain, key: i64) -> u64 {
        match self {
            Direction::Up => domain.delta_up(key),
            Direction::Down => domain.delta_down(key),
        }
    }
}

/// The `g(r)` digest triple.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GDigest {
    pub up: Digest,
    pub down: Digest,
    pub attrs: Digest,
}

impl GDigest {
    /// The concatenated byte form entering the signature-chain hash.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.up.len() + self.down.len() + self.attrs.len());
        self.encode_into(&mut v);
        v
    }

    /// Appends [`Self::to_bytes`] to `out`.
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.up.as_bytes());
        out.extend_from_slice(self.down.as_bytes());
        out.extend_from_slice(self.attrs.as_bytes());
    }
}

/// What a verifier may know of a neighbour's `g`: either the full triple
/// (derivable) or opaque bytes handed over by the publisher, or the domain
/// edge anchors `h(L)` / `h(U)` flanking the delimiters (formula (1)).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GBytes {
    Full(GDigest),
    Opaque(Vec<u8>),
    LeftEdge,
    RightEdge,
}

impl GBytes {
    /// Resolves to raw bytes for the link hash.
    pub fn resolve(&self, hasher: &Hasher, domain: &Domain) -> Vec<u8> {
        match self {
            GBytes::Full(g) => g.to_bytes(),
            GBytes::Opaque(b) => b.clone(),
            GBytes::LeftEdge => edge_digest(hasher, domain.l()).as_bytes().to_vec(),
            GBytes::RightEdge => edge_digest(hasher, domain.u()).as_bytes().to_vec(),
        }
    }
}

/// The edge anchor digest `h(L)` / `h(U)` (publicly computable).
pub fn edge_digest(hasher: &Hasher, bound: i64) -> Digest {
    hasher.hash_parts(HashDomain::Value, &[b"__edge__", &key_bytes(bound)])
}

/// The signature-chain link digest
/// `h( g(r_{i-1}) | g(r_i) | g(r_{i+1}) )` (formula (1)).
pub fn link_digest(hasher: &Hasher, prev: &[u8], cur: &[u8], next: &[u8]) -> Digest {
    hasher.hash_parts(HashDomain::Link, &[prev, cur, next])
}

/// Bulk form of [`link_digest`] over a whole chain: `encoded` is the
/// sequence `[h(L), g(r_0), …, g(r_{n+1}), h(U)]` and the result is the
/// `n + 2` link digests, each byte-identical to the single-link form.
/// The owner signs tables through this so every `g` is serialized once.
pub fn link_digests_run(hasher: &Hasher, encoded: &[&[u8]]) -> Vec<Digest> {
    hasher.hash_triple_windows(HashDomain::Link, encoded)
}

/// The link digests of every interior position of a contiguous run of `g`s
/// (`gs.len() - 2` of them): the verifier's form of [`link_digests_run`],
/// which encodes the whole run into one buffer instead of one `Vec` per
/// record.
pub fn link_digests_of(hasher: &Hasher, gs: &[GDigest]) -> Vec<Digest> {
    let mut encoded = Vec::with_capacity(gs.len() * 3 * hasher.digest_len());
    let mut ends = Vec::with_capacity(gs.len());
    for g in gs {
        g.encode_into(&mut encoded);
        ends.push(encoded.len());
    }
    let mut start = 0;
    let parts: Vec<&[u8]> = ends
        .iter()
        .map(|&end| {
            let part = &encoded[start..end];
            start = end;
            part
        })
        .collect();
    link_digests_run(hasher, &parts)
}

/// Owner/publisher-side materials for one chain direction of one record.
#[derive(Clone, Debug)]
pub struct DirectionCommitment {
    /// The finished component entering `g(r)`.
    pub component: Digest,
    /// Optimized mode: digest of the canonical representation `h(δ_t)`.
    pub canon_digest: Option<Digest>,
    /// Optimized mode: Merkle tree over the `m` preferred non-canonical
    /// representation digests.
    pub rep_tree: Option<MerkleTree>,
}

/// Computes the digit-chain digest `h^{steps}(key|tag(digit))`.
pub fn digit_chain(hasher: &Hasher, key: i64, dir: Direction, digit: u32, steps: u64) -> Digest {
    chain_from_value(hasher, &key_bytes(key), dir.tag(digit), steps)
}

/// `h^{steps[i]}(key|tag(i))` for every digit `i` of one direction, in one
/// bulk chain call (the publisher's boundary intermediates, Figure 8a).
pub fn digit_chains(hasher: &Hasher, key: i64, dir: Direction, steps: &[u32]) -> Vec<Digest> {
    let tags: Vec<(u32, u64)> = steps
        .iter()
        .enumerate()
        .map(|(i, &d)| (dir.tag(i as u32), d as u64))
        .collect();
    let mut chains = vec![unset_digest(); tags.len()];
    chain_run(hasher, &key_bytes(key), &tags, &mut chains);
    chains
}

/// Hashes one representation's component digests into `h(δ)`
/// (components whose digit was dropped — invalid representations — are
/// simply absent; positions stay bound through the chain tags).
pub fn rep_digest(hasher: &Hasher, components: &[Digest]) -> Digest {
    hasher.hash_digests(HashDomain::Rep, components)
}

/// Combines `h(δ_t)` with the non-canonical-representation MHT root into
/// the direction component (Figure 7).
pub fn combine_component(hasher: &Hasher, canon: Digest, mht_root: Digest) -> Digest {
    hasher.hash_digests(HashDomain::Comp, &[canon, mht_root])
}

/// Owner/publisher-side computation of one direction's commitment.
pub fn direction_commitment(
    hasher: &Hasher,
    config: &SchemeConfig,
    radix: Option<&Radix>,
    domain: &Domain,
    key: i64,
    dir: Direction,
) -> DirectionCommitment {
    let delta_t = dir.delta_t(domain, key);
    match config.mode {
        Mode::Conceptual => DirectionCommitment {
            component: digit_chain(hasher, key, dir, 0, delta_t),
            canon_digest: None,
            rep_tree: None,
        },
        Mode::Optimized { base } => {
            let radix = radix.expect("optimized mode needs a radix");
            debug_assert_eq!(radix.base(), base);
            let mut digit_buf = [0; MAX_DIGITS];
            let canon = radix.canonical_into(delta_t, &mut digit_buf);
            let (n, m) = (canon.len(), radix.m() as usize);
            // Between them the canonical and the `m` preferred
            // representations touch each digit's chain at no more than three
            // step counts — `d - 1` (the borrowed-from digit of `^{i-1}δ`),
            // `d`, and `d + B - 1` (`d + B` for digit 0) — so every chain is
            // walked once, in three bulk stages, and the representations are
            // read off the stages.
            let mut tags = [(0, 0); MAX_DIGITS];
            let mut rise = [0; MAX_DIGITS];
            let mut inflate = [0; MAX_DIGITS];
            for (i, &d) in canon.iter().enumerate() {
                let low = d.saturating_sub(1);
                tags[i] = (dir.tag(i as u32), low as u64);
                rise[i] = (d - low) as u64;
                inflate[i] = if i == m {
                    0 // the top digit only ever lends
                } else if i == 0 {
                    base as u64
                } else {
                    base as u64 - 1
                };
            }
            let mut below = [unset_digest(); MAX_DIGITS];
            chain_run(hasher, &key_bytes(key), &tags[..n], &mut below[..n]);
            let mut at = below;
            chain_extend_many(hasher, &mut at[..n], &rise[..n]);
            let mut above = at;
            chain_extend_many(hasher, &mut above[..n], &inflate[..n]);

            let canon_digest = rep_digest(hasher, &at[..n]);
            // `^jδ`: digits `0..=j` inflated, digit `j + 1` lends one (or is
            // dropped when it has nothing to lend), the rest canonical.
            let mut leaves = Vec::with_capacity(m);
            let mut comps = [unset_digest(); MAX_DIGITS];
            for j in 0..m {
                let mut len = 0;
                for i in 0..n {
                    comps[len] = if i <= j {
                        above[i]
                    } else if i > j + 1 {
                        at[i]
                    } else if canon[i] > 0 {
                        below[i]
                    } else {
                        continue;
                    };
                    len += 1;
                }
                leaves.push(rep_digest(hasher, &comps[..len]));
            }
            let rep_tree = MerkleTree::build(*hasher, leaves);
            let component = combine_component(hasher, canon_digest, rep_tree.root());
            DirectionCommitment {
                component,
                canon_digest: Some(canon_digest),
                rep_tree: Some(rep_tree),
            }
        }
    }
}

/// Verifier-side recomputation of both direction components of a *result
/// entry*, whose key is disclosed (Figure 8b): the user rebuilds the
/// canonical digit chains from the key — all digits of the up and the down
/// direction in one bulk chain call — and combines each direction with the
/// rep-MHT root supplied by the publisher (`roots` is `(up, down)`; `None`
/// in conceptual mode, where the chain alone is the component).
///
/// Returns `None` when `roots` does not fit the scheme's mode.
pub fn entry_components(
    hasher: &Hasher,
    config: &SchemeConfig,
    radix: Option<&Radix>,
    domain: &Domain,
    key: i64,
    roots: Option<(Digest, Digest)>,
) -> Option<(Digest, Digest)> {
    const DIRECTIONS: [Direction; 2] = [Direction::Up, Direction::Down];
    let mut tags = [(0, 0); 2 * MAX_DIGITS];
    let mut chains = [unset_digest(); 2 * MAX_DIGITS];
    match (config.mode, roots) {
        (Mode::Conceptual, None) => {
            for (tag, dir) in tags.iter_mut().zip(DIRECTIONS) {
                *tag = (dir.tag(0), dir.delta_t(domain, key));
            }
            chain_run(hasher, &key_bytes(key), &tags[..2], &mut chains[..2]);
            Some((chains[0], chains[1]))
        }
        (Mode::Optimized { .. }, Some((up_root, down_root))) => {
            let radix = radix.expect("optimized mode needs a radix");
            let n = radix.digit_count();
            let mut digit_buf = [0; MAX_DIGITS];
            for (tags, dir) in tags.chunks_exact_mut(n).zip(DIRECTIONS) {
                let canon = radix.canonical_into(dir.delta_t(domain, key), &mut digit_buf);
                for (i, (tag, &d)) in tags.iter_mut().zip(canon).enumerate() {
                    *tag = (dir.tag(i as u32), d as u64);
                }
            }
            chain_run(
                hasher,
                &key_bytes(key),
                &tags[..2 * n],
                &mut chains[..2 * n],
            );
            let component =
                |comps, root| combine_component(hasher, rep_digest(hasher, comps), root);
            Some((
                component(&chains[..n], up_root),
                component(&chains[n..2 * n], down_root),
            ))
        }
        _ => None,
    }
}

/// Attribute leaf encoding: the canonical byte form of a value.
fn attr_leaf_bytes(value: &Value) -> Vec<u8> {
    value.encode()
}

/// Builds `MHT(r.A)` over the non-key attributes of a record, returning the
/// tree (owner/publisher side). Records with no non-key attributes commit
/// to a fixed sentinel leaf.
pub fn attr_tree(hasher: &Hasher, schema: &Schema, record: &Record) -> MerkleTree {
    let key_idx = schema.key_index();
    let encoded: Vec<Vec<u8>> = record
        .values()
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != key_idx)
        .map(|(_, v)| attr_leaf_bytes(v))
        .collect();
    if encoded.is_empty() {
        MerkleTree::from_values(*hasher, &[b"\x00__no_attrs__"])
    } else {
        let leaves = hasher.hash_each(HashDomain::Leaf, encoded.iter().map(Vec::as_slice));
        MerkleTree::build(*hasher, leaves)
    }
}

/// The attribute digest of a delimiter pseudo-record.
fn delimiter_attr_digest(hasher: &Hasher) -> Digest {
    hasher.hash(HashDomain::Leaf, b"\x00__delimiter__")
}

/// Owner/publisher-side computation of the full `g(r)` for a real record,
/// with the `(up, down)` rep-MHT roots the publisher later hands to users
/// (`None` in conceptual mode).
pub fn materialize_record(
    hasher: &Hasher,
    config: &SchemeConfig,
    radix: Option<&Radix>,
    domain: &Domain,
    schema: &Schema,
    record: &Record,
) -> (GDigest, Option<(Digest, Digest)>) {
    let key = record.key(schema);
    let up = direction_commitment(hasher, config, radix, domain, key, Direction::Up);
    let down = direction_commitment(hasher, config, radix, domain, key, Direction::Down);
    let roots = match (&up.rep_tree, &down.rep_tree) {
        (Some(u), Some(d)) => Some((u.root(), d.root())),
        _ => None,
    };
    let g = GDigest {
        up: up.component,
        down: down.component,
        attrs: attr_tree(hasher, schema, record).root(),
    };
    (g, roots)
}

/// Owner/publisher-side `g` of a delimiter.
pub fn g_of_delimiter(
    hasher: &Hasher,
    config: &SchemeConfig,
    radix: Option<&Radix>,
    domain: &Domain,
    key: i64,
) -> GDigest {
    GDigest {
        up: direction_commitment(hasher, config, radix, domain, key, Direction::Up).component,
        down: direction_commitment(hasher, config, radix, domain, key, Direction::Down).component,
        attrs: delimiter_attr_digest(hasher),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adp_relation::{Column, ValueType};

    fn setup() -> (Hasher, Domain) {
        (Hasher::default(), Domain::new(0, 100_000))
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

    #[test]
    fn direction_tags_disjoint() {
        assert_ne!(Direction::Up.tag(3), Direction::Down.tag(3));
        assert_eq!(Direction::Up.tag(3), 3);
    }

    #[test]
    fn conceptual_component_is_plain_chain() {
        let (h, d) = setup();
        let cfg = SchemeConfig::conceptual();
        let c = direction_commitment(&h, &cfg, None, &d, 99_000, Direction::Up);
        assert!(c.canon_digest.is_none() && c.rep_tree.is_none());
        assert_eq!(
            c.component,
            digit_chain(&h, 99_000, Direction::Up, 0, d.delta_up(99_000))
        );
    }

    /// The construction `direction_commitment` replaced, kept as the
    /// reference: every representation re-walks every digit chain from
    /// `h(key|tag)`, exactly as Figure 7 is written.
    fn naive_commitment(
        h: &Hasher,
        radix: &Radix,
        d: &Domain,
        key: i64,
        dir: Direction,
    ) -> (Digest, Digest, Vec<Digest>) {
        let canon = radix.canonical(dir.delta_t(d, key));
        let walk = |digits: &[Option<u32>]| -> Digest {
            let comps: Vec<Digest> = digits
                .iter()
                .enumerate()
                .filter_map(|(i, s)| s.map(|s| digit_chain(h, key, dir, i as u32, s as u64)))
                .collect();
            rep_digest(h, &comps)
        };
        let canon_digest = walk(&canon.iter().map(|&c| Some(c)).collect::<Vec<_>>());
        let leaves: Vec<Digest> = (0..radix.m())
            .map(|j| walk(&radix.preferred(&canon, j)))
            .collect();
        let root = MerkleTree::build(*h, leaves.clone()).root();
        (
            combine_component(h, canon_digest, root),
            canon_digest,
            leaves,
        )
    }

    #[test]
    fn commitment_equals_naive_rewalk() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let h = Hasher::default();
        let mut rng = StdRng::seed_from_u64(0x5ca1e);
        let mut invalid_reps = 0;
        for base in 2u32..=10 {
            // A width that is no power of the base, so the top digit is
            // partly used, and wide enough for m >= 2 at base 10.
            let d = Domain::new(-7, 5_000 + 97 * base as i64);
            let radix = Radix::for_width(base, d.width());
            let cfg = SchemeConfig::with_base(base);
            // Both delimiters, keys whose δ has zero digits, random keys.
            let mut keys = vec![d.left_delimiter(), d.right_delimiter()];
            keys.push(d.u() - 1 - (base * base) as i64); // δ_up = B²: digits 0, 0, 1
            keys.push(d.l() + 1 + base as i64); // δ_down = B: digits 0, 1
            keys.extend((0..12).map(|_| rng.gen_range(d.l() + 1..d.u())));
            for key in keys {
                for dir in [Direction::Up, Direction::Down] {
                    let canon = radix.canonical(dir.delta_t(&d, key));
                    invalid_reps += (0..radix.m())
                        .filter(|&j| !radix.preferred_is_valid(&canon, j))
                        .count();
                    let fast = direction_commitment(&h, &cfg, Some(&radix), &d, key, dir);
                    let (component, canon_digest, leaves) =
                        naive_commitment(&h, &radix, &d, key, dir);
                    let ctx = format!("B={base} key={key} {dir:?}");
                    assert_eq!(fast.component, component, "{ctx}");
                    assert_eq!(fast.canon_digest, Some(canon_digest), "{ctx}");
                    let tree = fast.rep_tree.expect("optimized mode builds the tree");
                    assert_eq!(tree.leaf_count(), leaves.len(), "{ctx}");
                    for (j, leaf) in leaves.iter().enumerate() {
                        assert_eq!(tree.leaf(j), *leaf, "{ctx} j={j}");
                    }
                }
            }
        }
        assert!(invalid_reps > 100, "dropped components must be exercised");
    }

    #[test]
    fn owner_hash_ops_per_signed_row_stay_pinned() {
        // The 17-digit domain of the end-to-end benchmark (B = 2): one walk
        // per digit chain keeps a signed row's two commitments under 250
        // hash operations (re-walking every representation took ~1200).
        let h = Hasher::default();
        let d = Domain::new(0, 100_000);
        let radix = Radix::for_width(2, d.width());
        assert_eq!(radix.digit_count(), 17);
        let cfg = SchemeConfig::default();
        let s = schema();
        for key in [1i64, 2_000, 65_535, 65_536, 99_999] {
            let rec = Record::new(vec![Value::Int(1), Value::from("A"), Value::Int(key)]);
            let before = adp_crypto::thread_hash_ops();
            let _ = materialize_record(&h, &cfg, Some(&radix), &d, &s, &rec);
            let ops = adp_crypto::thread_hash_ops() - before;
            assert!(ops <= 250, "key {key}: {ops} hash ops");
        }
    }

    #[test]
    fn entry_components_match_commitment_optimized() {
        // The verifier's Figure-8b reconstruction must agree with the
        // owner's Figure-7 construction for both directions and bases.
        let (h, d) = setup();
        for base in [2u32, 3, 10] {
            let cfg = SchemeConfig::with_base(base);
            let radix = Radix::for_width(base, d.width());
            for key in [2i64, 57, 5_000, 99_998] {
                let [up, down] = [Direction::Up, Direction::Down]
                    .map(|dir| direction_commitment(&h, &cfg, Some(&radix), &d, key, dir));
                let roots = [&up, &down].map(|c| c.rep_tree.as_ref().unwrap().root());
                let rebuilt =
                    entry_components(&h, &cfg, Some(&radix), &d, key, Some((roots[0], roots[1])));
                assert_eq!(
                    rebuilt,
                    Some((up.component, down.component)),
                    "B={base} key={key}"
                );
            }
        }
    }

    #[test]
    fn entry_components_match_commitment_conceptual() {
        let (h, d) = setup();
        let cfg = SchemeConfig::conceptual();
        let [up, down] = [Direction::Up, Direction::Down]
            .map(|dir| direction_commitment(&h, &cfg, None, &d, 98_766, dir).component);
        assert_eq!(
            entry_components(&h, &cfg, None, &d, 98_766, None),
            Some((up, down))
        );
    }

    #[test]
    fn entry_components_refuse_the_wrong_mode() {
        let (h, d) = setup();
        let root = h.hash(HashDomain::Data, b"root");
        let radix = Radix::for_width(2, d.width());
        let conceptual = SchemeConfig::conceptual();
        assert_eq!(
            entry_components(&h, &conceptual, None, &d, 5, Some((root, root))),
            None
        );
        let optimized = SchemeConfig::default();
        assert_eq!(
            entry_components(&h, &optimized, Some(&radix), &d, 5, None),
            None
        );
    }

    #[test]
    fn g_concatenation_layout() {
        let (h, d) = setup();
        let cfg = SchemeConfig::default();
        let radix = Radix::for_width(2, d.width());
        let rec = Record::new(vec![Value::Int(1), Value::from("A"), Value::Int(2000)]);
        let (g, _) = materialize_record(&h, &cfg, Some(&radix), &d, &schema(), &rec);
        let bytes = g.to_bytes();
        assert_eq!(bytes.len(), 3 * h.digest_len());
        assert_eq!(&bytes[..16], g.up.as_bytes());
        assert_eq!(&bytes[32..], g.attrs.as_bytes());
    }

    #[test]
    fn attr_tree_excludes_key() {
        let (h, _) = setup();
        let s = schema();
        let r1 = Record::new(vec![Value::Int(1), Value::from("A"), Value::Int(2000)]);
        let r2 = Record::new(vec![Value::Int(1), Value::from("A"), Value::Int(3000)]);
        // Same non-key attributes, different key → same attribute tree.
        assert_eq!(attr_tree(&h, &s, &r1).root(), attr_tree(&h, &s, &r2).root());
        let r3 = Record::new(vec![Value::Int(2), Value::from("A"), Value::Int(2000)]);
        assert_ne!(attr_tree(&h, &s, &r1).root(), attr_tree(&h, &s, &r3).root());
    }

    #[test]
    fn key_only_schema_has_sentinel_attr_tree() {
        let (h, _) = setup();
        let s = Schema::new(vec![Column::new("k", ValueType::Int)], "k");
        let r = Record::new(vec![Value::Int(5)]);
        let t = attr_tree(&h, &s, &r);
        assert_eq!(t.leaf_count(), 1);
    }

    #[test]
    fn different_keys_different_components() {
        let (h, d) = setup();
        let cfg = SchemeConfig::with_base(2);
        let radix = Radix::for_width(2, d.width());
        let c1 = direction_commitment(&h, &cfg, Some(&radix), &d, 100, Direction::Up);
        let c2 = direction_commitment(&h, &cfg, Some(&radix), &d, 101, Direction::Up);
        assert_ne!(c1.component, c2.component);
    }

    #[test]
    fn up_down_components_differ() {
        // Even for a key at the exact domain midpoint (δ_up == δ_down), the
        // direction tags keep components distinct.
        let (h, _) = setup();
        let d = Domain::new(0, 100);
        let key = 50; // δ_up = 49, δ_down = 49
        assert_eq!(d.delta_up(key), d.delta_down(key));
        let cfg = SchemeConfig::with_base(2);
        let radix = Radix::for_width(2, d.width());
        let up = direction_commitment(&h, &cfg, Some(&radix), &d, key, Direction::Up);
        let down = direction_commitment(&h, &cfg, Some(&radix), &d, key, Direction::Down);
        assert_ne!(up.component, down.component);
    }

    #[test]
    fn edge_digests_distinct() {
        let (h, d) = setup();
        assert_ne!(edge_digest(&h, d.l()), edge_digest(&h, d.u()));
        // Edge anchors must differ from ordinary value chains at the bound.
        assert_ne!(
            edge_digest(&h, d.l()),
            digit_chain(&h, d.l(), Direction::Up, 0, 0)
        );
    }

    #[test]
    fn gbytes_resolution() {
        let (h, d) = setup();
        let g = GDigest {
            up: h.hash(HashDomain::Data, b"u"),
            down: h.hash(HashDomain::Data, b"d"),
            attrs: h.hash(HashDomain::Data, b"a"),
        };
        assert_eq!(GBytes::Full(g).resolve(&h, &d), g.to_bytes());
        assert_eq!(GBytes::Opaque(vec![1, 2, 3]).resolve(&h, &d), vec![1, 2, 3]);
        assert_eq!(
            GBytes::LeftEdge.resolve(&h, &d),
            edge_digest(&h, d.l()).as_bytes().to_vec()
        );
    }
}
