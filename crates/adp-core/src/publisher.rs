//! The publisher (Figure 3): executes queries against a [`SignedTable`] and
//! builds the verification objects of Figures 4/8.
//!
//! The publisher is *untrusted*: everything it emits is either data it
//! hosts, digests derivable from that data, or owner signatures. The
//! [`malicious`] submodule implements the cheating strategies of
//! Section 3.2 (and a few more) so tests can assert each one is caught.

use crate::domain::QueryBounds;
use crate::gdigest::{digit_chain, digit_chains, direction_commitment, Direction};
use crate::owner::{SignedEntry, SignedTable};
use crate::scheme::Mode;
use crate::vo::{
    AttrProof, BoundaryProof, EmptyProof, EntryChains, EntryProof, PrevG, QueryVO, RangeVO,
    RepProof, SignatureProof,
};
use adp_crypto::{AggregateSignature, HashDomain, Signature};
use adp_relation::{passes_filters, Projection, Record, Schema, SelectQuery, Value};
use std::collections::HashMap;
use std::fmt;
use std::ops::Bound;

/// Publisher-side failures (dishonesty aside, a publisher can be handed a
/// query it cannot serve).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PublishError {
    /// A filter references the key column (key conditions belong in the
    /// range) or an unknown column.
    BadFilterColumn { column: String },
    /// The projection references an unknown column.
    BadProjectionColumn,
}

impl fmt::Display for PublishError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PublishError::BadFilterColumn { column } => {
                write!(f, "filter on unsupported column '{column}'")
            }
            PublishError::BadProjectionColumn => write!(f, "projection names unknown column"),
        }
    }
}

impl std::error::Error for PublishError {}

/// The columns actually returned for each result row: the requested
/// projection, plus the key column (the user needs it for completeness —
/// Section 4.2), plus every filter column (the user must be able to check
/// the filters held — the flip side of Section 4.4's failing-attribute
/// disclosure). Order: requested columns first, then any forced additions
/// in schema order.
pub fn effective_projection(
    schema: &Schema,
    projection: &Projection,
    filters: &[adp_relation::Predicate],
) -> Option<Vec<usize>> {
    let mut cols = projection.resolve(schema)?;
    let mut forced: Vec<usize> = vec![schema.key_index()];
    for f in filters {
        forced.push(schema.column_index(&f.column)?);
    }
    forced.sort_unstable();
    for c in forced {
        if !cols.contains(&c) {
            cols.push(c);
        }
    }
    Some(cols)
}

/// Maps a schema column index to its position among the non-key attributes
/// (the leaf index in `MHT(r.A)`).
pub fn attr_position(schema: &Schema, col: usize) -> u32 {
    debug_assert_ne!(col, schema.key_index());
    if col < schema.key_index() {
        col as u32
    } else {
        (col - 1) as u32
    }
}

/// An honest publisher serving one signed table.
pub struct Publisher<'a> {
    st: &'a SignedTable,
}

impl<'a> Publisher<'a> {
    /// Wraps a signed table.
    pub fn new(st: &'a SignedTable) -> Self {
        Publisher { st }
    }

    /// The signed table served.
    pub fn signed_table(&self) -> &SignedTable {
        self.st
    }

    /// Answers a select-project query, returning the projected result rows
    /// and the verification object.
    pub fn answer_select(
        &self,
        query: &SelectQuery,
    ) -> Result<(Vec<Record>, QueryVO), PublishError> {
        let st = self.st;
        let schema = st.table().schema();
        // Validate filters: non-key, known columns.
        for f in &query.filters {
            match schema.column_index(&f.column) {
                None => {
                    return Err(PublishError::BadFilterColumn {
                        column: f.column.clone(),
                    })
                }
                Some(c) if c == schema.key_index() => {
                    return Err(PublishError::BadFilterColumn {
                        column: f.column.clone(),
                    })
                }
                Some(_) => {}
            }
        }
        let proj = effective_projection(schema, &query.projection, &query.filters)
            .ok_or(PublishError::BadProjectionColumn)?;

        let Some(bounds) = st.domain().normalize(&query.range) else {
            return Ok((Vec::new(), QueryVO::TriviallyEmpty));
        };
        let (start, end) = st
            .table()
            .key_range_positions(Bound::Included(bounds.alpha), Bound::Included(bounds.beta));

        if start == end {
            // Empty result: adjacent chain positions (start, start + 1)
            // straddle the range.
            let left_cp = start;
            let right_cp = start + 1;
            let prev = if left_cp == 0 {
                PrevG::Edge
            } else {
                PrevG::Opaque(st.g_bytes(left_cp - 1))
            };
            let vo = QueryVO::Empty(EmptyProof {
                prev,
                left: self.boundary_proof(left_cp, Direction::Up, &bounds),
                right: self.boundary_proof(right_cp, Direction::Down, &bounds),
                signature: self.signatures(st.entries(left_cp..left_cp + 1)),
            });
            return Ok((Vec::new(), vo));
        }

        // Non-empty: rows start..end ↔ chain positions start+1 ..= end.
        let mut result: Vec<Record> = Vec::new();
        let mut entries: Vec<EntryProof> = Vec::new();
        // For DISTINCT: projected encoding → index in `result`.
        let mut seen: HashMap<Vec<u8>, u32> = HashMap::new();

        for (row, entry) in st
            .table()
            .range(start..end)
            .zip(st.entries(start + 1..end + 1))
        {
            let record = &row.record;
            if passes_filters(st.table(), record, &query.filters) {
                let projected = record.project(&proj);
                let key_of = if query.distinct {
                    let enc = crate::wire::encode_records(std::slice::from_ref(&projected));
                    seen.get(&enc).copied().map(|of| (of, enc))
                } else {
                    None
                };
                match key_of {
                    Some((of, _)) => {
                        entries.push(EntryProof::Duplicate {
                            of,
                            chains: EntryChains::from_roots(entry.roots),
                            attrs: self.attr_proof(entry, record, &proj, &[]),
                        });
                    }
                    None => {
                        if query.distinct {
                            let enc = crate::wire::encode_records(std::slice::from_ref(&projected));
                            seen.insert(enc, result.len() as u32);
                        }
                        entries.push(EntryProof::Match {
                            chains: EntryChains::from_roots(entry.roots),
                            attrs: self.attr_proof(entry, record, &proj, &[]),
                        });
                        result.push(projected);
                    }
                }
            } else {
                // Multipoint-filtered row (Section 4.4): disclose the
                // failing attribute value(s), digests for the rest.
                let failing: Vec<usize> = query
                    .filters
                    .iter()
                    .filter(|f| !f.eval(schema, record.values()))
                    .filter_map(|f| schema.column_index(&f.column))
                    .collect();
                entries.push(EntryProof::Filtered {
                    up_component: entry.g.up,
                    down_component: entry.g.down,
                    attrs: self.attr_proof(entry, record, &[], &failing),
                });
            }
        }

        let vo = QueryVO::Range(RangeVO {
            left: self.boundary_proof(start, Direction::Up, &bounds),
            right: self.boundary_proof(end + 1, Direction::Down, &bounds),
            entries,
            signatures: self.signatures(st.entries(start + 1..end + 1)),
        });
        Ok((result, vo))
    }

    /// Builds the attribute proof for a record and its chain entry:
    /// `disclosed_cols` values are revealed inside the proof (filtered
    /// rows); columns in `proj` are assumed revealed through the result
    /// record; everything else is hidden behind leaf digests.
    fn attr_proof(
        &self,
        entry: &SignedEntry,
        record: &Record,
        proj: &[usize],
        disclosed_cols: &[usize],
    ) -> AttrProof {
        let st = self.st;
        let schema = st.table().schema();
        let hasher = st.hasher();
        let mut disclosed = Vec::new();
        let mut hidden = Vec::new();
        for col in 0..schema.arity() {
            if col == schema.key_index() {
                continue;
            }
            let pos = attr_position(schema, col);
            if disclosed_cols.contains(&col) {
                disclosed.push((pos, record.get(col).clone()));
            } else if !proj.contains(&col) {
                hidden.push((
                    pos,
                    hasher.hash(HashDomain::Leaf, &record.get(col).encode()),
                ));
            }
        }
        // The root is recomputable from the record; reading it from the
        // cached g avoids rebuilding the tree.
        AttrProof {
            disclosed,
            hidden,
            root: entry.g.attrs,
        }
    }

    /// Builds the Figure-8a boundary proof for the record at `chain_pos`:
    /// `dir = Up` proves its key `< α`; `dir = Down` proves `> β`.
    fn boundary_proof(
        &self,
        chain_pos: usize,
        dir: Direction,
        bounds: &QueryBounds,
    ) -> BoundaryProof {
        let st = self.st;
        let hasher = st.hasher();
        let domain = st.domain();
        let key = st.key_at(chain_pos);
        let entry = st.entry(chain_pos);
        let (delta_e_total, delta_c) = match dir {
            Direction::Up => (
                domain
                    .delta_up_evidence(key, bounds.alpha)
                    .expect("honest boundary satisfies key < α"),
                domain.delta_up_query(bounds.alpha),
            ),
            Direction::Down => (
                domain
                    .delta_down_evidence(key, bounds.beta)
                    .expect("honest boundary satisfies key > β"),
                domain.delta_down_query(bounds.beta),
            ),
        };
        let (other_component, attr_root) = match dir {
            Direction::Up => (entry.g.down, entry.g.attrs),
            Direction::Down => (entry.g.up, entry.g.attrs),
        };
        match st.config().mode {
            Mode::Conceptual => BoundaryProof {
                intermediates: vec![digit_chain(hasher, key, dir, 0, delta_e_total)],
                selector: None,
                other_component,
                attr_root,
            },
            Mode::Optimized { .. } => {
                let radix = st.radix().expect("optimized mode has a radix");
                let delta_t = dir.delta_t(domain, key);
                let (choice, e_digits) = radix.select_representation(delta_t, delta_c);
                let intermediates = digit_chains(hasher, key, dir, &e_digits);
                // Rebuild the direction commitment to obtain the rep tree
                // (the table caches only the roots).
                let commit =
                    direction_commitment(hasher, st.config(), Some(radix), domain, key, dir);
                let tree = commit.rep_tree.expect("optimized mode builds rep trees");
                let selector = match choice {
                    crate::repr::ReprChoice::Canonical => Some(RepProof::Canonical {
                        mht_root: tree.root(),
                    }),
                    crate::repr::ReprChoice::NonCanonical(j) => Some(RepProof::NonCanonical {
                        index: j,
                        canon_digest: commit.canon_digest.expect("optimized mode"),
                        path: tree.prove(j as usize),
                    }),
                };
                BoundaryProof {
                    intermediates,
                    selector,
                    other_component,
                    attr_root,
                }
            }
        }
    }

    /// Packages the signatures of the given chain entries.
    fn signatures<'e>(&self, entries: impl Iterator<Item = &'e SignedEntry>) -> SignatureProof {
        let st = self.st;
        let sigs: Vec<&Signature> = entries.map(|e| &e.signature).collect();
        if st.config().aggregate_signatures {
            SignatureProof::Aggregated(AggregateSignature::combine(st.public_key(), &sigs))
        } else {
            SignatureProof::Individual(sigs.into_iter().cloned().collect())
        }
    }
}

/// Cheating publishers for the Section 3.2 threat analysis. Each strategy
/// produces the most plausible forgery available to an adversary who holds
/// the published data and signatures but not the owner's private key.
pub mod malicious {
    use super::*;

    /// The attack to simulate.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum Attack {
        /// Case 4: omit an interior result row (and its VO entry), keeping
        /// the remaining signatures.
        OmitInterior,
        /// Case 3: truncate the tail of the result, forging a right
        /// boundary proof from the last kept record.
        TruncateTail,
        /// Case 2: claim the result is empty although records qualify.
        FakeEmpty,
        /// Case 5: inject a spurious record with fabricated chain roots.
        InjectSpurious,
        /// Authenticity: tamper with an attribute value and adjust the VO
        /// to stay internally consistent.
        TamperValue,
        /// Authenticity: swap an attribute between two result rows (the
        /// Introduction's swapped-names example).
        SwapValues,
        /// Case 1: shift the left boundary inward, presenting a qualifying
        /// record as if it were outside the range.
        ShiftLeftBoundary,
        /// Multipoint: hide a matching row by mislabeling it as filtered
        /// with a fabricated failing attribute value.
        MislabelFiltered,
        /// DISTINCT: drop a genuinely distinct row by mislabeling it a
        /// duplicate of another row.
        FakeDuplicate,
    }

    /// Applies `attack` to an honest `(result, vo)` pair. Returns `None`
    /// when the attack is not applicable (e.g. too few rows).
    pub fn tamper(
        publisher: &Publisher<'_>,
        query: &SelectQuery,
        result: &[Record],
        vo: &QueryVO,
        attack: Attack,
    ) -> Option<(Vec<Record>, QueryVO)> {
        let st = publisher.signed_table();
        let hasher = st.hasher();
        match attack {
            Attack::OmitInterior => {
                let QueryVO::Range(rv) = vo else { return None };
                if result.len() < 3 {
                    return None;
                }
                let mut result = result.to_vec();
                let drop_idx = result.len() / 2;
                result.remove(drop_idx);
                let mut rv = rv.clone();
                // Remove the matching entry and its signature.
                let mut match_seen = 0usize;
                let mut entry_idx = None;
                for (i, e) in rv.entries.iter().enumerate() {
                    if matches!(e, EntryProof::Match { .. }) {
                        if match_seen == drop_idx {
                            entry_idx = Some(i);
                            break;
                        }
                        match_seen += 1;
                    }
                }
                let entry_idx = entry_idx?;
                rv.entries.remove(entry_idx);
                rv.signatures = drop_signature(publisher, query, entry_idx)?;
                Some((result, QueryVO::Range(rv)))
            }
            Attack::TruncateTail => {
                let QueryVO::Range(rv) = vo else { return None };
                if result.len() < 2 || rv.entries.len() != result.len() {
                    return None;
                }
                let mut result = result.to_vec();
                result.pop();
                let mut rv = rv.clone();
                rv.entries.pop();
                // Forge a right boundary from the (qualifying) last kept
                // record. Its key is ≤ β so the evidence chain is
                // unconstructible; the best the adversary can do is emit
                // zero-step chains and hope.
                let bounds = st.domain().normalize(&query.range)?;
                let kidx = result_key_index(publisher, query)?;
                let last_key = result.last()?.values()[kidx].as_int()?;
                rv.right = forge_boundary(publisher, last_key, Direction::Down, &bounds);
                rv.signatures = drop_signature(publisher, query, rv.entries.len())?;
                Some((result, QueryVO::Range(rv)))
            }
            Attack::FakeEmpty => {
                let QueryVO::Range(rv) = vo else { return None };
                let bounds = st.domain().normalize(&query.range)?;
                // Present the true left boundary and the first qualifying
                // record as the straddling pair.
                let (start, _) = st.table().key_range_positions(
                    Bound::Included(bounds.alpha),
                    Bound::Included(bounds.beta),
                );
                let left_cp = start;
                let right_key = st.key_at(left_cp + 1);
                let prev = if left_cp == 0 {
                    PrevG::Edge
                } else {
                    PrevG::Opaque(st.g_bytes(left_cp - 1))
                };
                let vo = QueryVO::Empty(EmptyProof {
                    prev,
                    left: rv.left.clone(),
                    right: forge_boundary(publisher, right_key, Direction::Down, &bounds),
                    signature: publisher.signatures(st.entries(left_cp..left_cp + 1)),
                });
                Some((Vec::new(), vo))
            }
            Attack::InjectSpurious => {
                let QueryVO::Range(rv) = vo else { return None };
                if result.is_empty() {
                    return None;
                }
                let mut result = result.to_vec();
                let mut fake = result[0].clone();
                // Nudge the key to a fresh in-range value if possible.
                let schema = st.table().schema();
                let kidx = result_key_index(publisher, query)?;
                let bounds = st.domain().normalize(&query.range)?;
                let fake_key = (fake.values()[kidx].as_int()? + 1).min(bounds.beta);
                let mut vals = fake.values().to_vec();
                vals[kidx] = Value::Int(fake_key);
                fake = Record::new(vals);
                result.insert(1.min(result.len()), fake.clone());
                let mut rv = rv.clone();
                // Fabricate an entry: reuse chain roots from a real record.
                let template = rv
                    .entries
                    .iter()
                    .find(|e| matches!(e, EntryProof::Match { .. }))?
                    .clone();
                rv.entries.insert(1.min(rv.entries.len()), template);
                // Extend the signature multiset by replaying an existing
                // signature (the adversary has no way to mint a new one).
                rv.signatures = replay_signature(publisher, query, &rv.signatures)?;
                let _ = schema;
                Some((result, QueryVO::Range(rv)))
            }
            Attack::TamperValue => {
                if result.is_empty() {
                    return None;
                }
                let mut result = result.to_vec();
                let rec = &result[0];
                let kidx = result_key_index(publisher, query)?;
                // Find a non-key column to tamper with.
                let col = (0..rec.arity()).find(|&c| c != kidx)?;
                let mut vals = rec.values().to_vec();
                vals[col] = tampered_value(&vals[col]);
                result[0] = Record::new(vals);
                // Keep the VO exactly as-is: the recomputed attribute root
                // will disagree with the signed g.
                Some((result, vo.clone()))
            }
            Attack::SwapValues => {
                if result.len() < 2 {
                    return None;
                }
                let kidx = result_key_index(publisher, query)?;
                let col = (0..result[0].arity()).find(|&c| c != kidx)?;
                let mut result = result.to_vec();
                let tmp = result[0].values()[col].clone();
                let mut v0 = result[0].values().to_vec();
                let mut v1 = result[1].values().to_vec();
                v0[col] = v1[col].clone();
                v1[col] = tmp;
                result[0] = Record::new(v0);
                result[1] = Record::new(v1);
                Some((result, vo.clone()))
            }
            Attack::ShiftLeftBoundary => {
                let QueryVO::Range(rv) = vo else { return None };
                if result.len() < 2 {
                    return None;
                }
                // Drop the first result row and pretend the range started
                // after it: forge a left boundary proof from that row.
                let bounds = st.domain().normalize(&query.range)?;
                let kidx = result_key_index(publisher, query)?;
                let mut result = result.to_vec();
                let dropped = result.remove(0);
                let key = dropped.values()[kidx].as_int()?;
                let mut rv = rv.clone();
                rv.entries.remove(0);
                rv.left = forge_boundary(publisher, key, Direction::Up, &bounds);
                rv.signatures = drop_signature(publisher, query, 0)?;
                Some((result, QueryVO::Range(rv)))
            }
            Attack::MislabelFiltered => {
                let QueryVO::Range(rv) = vo else { return None };
                if result.is_empty() || query.filters.is_empty() {
                    return None;
                }
                let schema = st.table().schema();
                let filter = &query.filters[0];
                let fcol = schema.column_index(&filter.column)?;
                let mut result = result.to_vec();
                result.remove(0);
                let mut rv = rv.clone();
                let entry_idx = rv
                    .entries
                    .iter()
                    .position(|e| matches!(e, EntryProof::Match { .. }))?;
                // Fabricate a failing value for the filter column.
                let fake_value = tampered_value(&filter.value);
                let EntryProof::Match { attrs, .. } = rv.entries[entry_idx].clone() else {
                    return None;
                };
                let mut hidden = attrs.hidden.clone();
                // Hide every other non-key column behind its true digest.
                let dropped_cp = publisher.chain_pos_of_key_first(&query.range)?;
                let rec = st.table().row(dropped_cp - 1).record.clone();
                for col in 0..schema.arity() {
                    if col == schema.key_index() || col == fcol {
                        continue;
                    }
                    let pos = attr_position(schema, col);
                    if !hidden.iter().any(|(p, _)| *p == pos) {
                        hidden.push((pos, hasher.hash(HashDomain::Leaf, &rec.get(col).encode())));
                    }
                }
                hidden.sort_by_key(|(p, _)| *p);
                let g = st.entry(dropped_cp).g;
                rv.entries[entry_idx] = EntryProof::Filtered {
                    up_component: g.up,
                    down_component: g.down,
                    attrs: AttrProof {
                        disclosed: vec![(attr_position(schema, fcol), fake_value)],
                        hidden,
                        root: g.attrs,
                    },
                };
                Some((result, QueryVO::Range(rv)))
            }
            Attack::FakeDuplicate => {
                let QueryVO::Range(rv) = vo else { return None };
                if !query.distinct || result.len() < 2 {
                    return None;
                }
                let mut result = result.to_vec();
                result.remove(1);
                let mut rv = rv.clone();
                let mut match_seen = 0usize;
                for e in rv.entries.iter_mut() {
                    if let EntryProof::Match { chains, attrs } = e.clone() {
                        if match_seen == 1 {
                            *e = EntryProof::Duplicate {
                                of: 0,
                                chains,
                                attrs,
                            };
                            break;
                        }
                        match_seen += 1;
                    }
                }
                Some((result, QueryVO::Range(rv)))
            }
        }
    }

    /// Best-effort forged boundary proof for a key that does *not* satisfy
    /// the boundary condition: the adversary emits zero-step chains (the
    /// only digests it can compute) and the canonical selector.
    fn forge_boundary(
        publisher: &Publisher<'_>,
        key: i64,
        dir: Direction,
        _bounds: &QueryBounds,
    ) -> BoundaryProof {
        let st = publisher.signed_table();
        let hasher = st.hasher();
        let cp = publisher.chain_pos_of_key(key).unwrap_or(0);
        let entry = st.entry(cp);
        let (other, attr_root) = match dir {
            Direction::Up => (entry.g.down, entry.g.attrs),
            Direction::Down => (entry.g.up, entry.g.attrs),
        };
        let count = match st.config().mode {
            Mode::Conceptual => 1,
            Mode::Optimized { .. } => st.radix().map_or(1, |r| r.digit_count()),
        };
        let intermediates = digit_chains(hasher, key, dir, &vec![0; count]);
        let selector = match st.config().mode {
            Mode::Conceptual => None,
            Mode::Optimized { .. } => {
                let commit =
                    direction_commitment(hasher, st.config(), st.radix(), st.domain(), key, dir);
                Some(RepProof::Canonical {
                    mht_root: commit.rep_tree.map(|t| t.root()).unwrap_or(entry.g.attrs),
                })
            }
        };
        BoundaryProof {
            intermediates,
            selector,
            other_component: other,
            attr_root,
        }
    }

    /// Rebuilds the signature proof with the signature at entry offset
    /// `skip` removed (the adversary aggregates only what it wants).
    fn drop_signature(
        publisher: &Publisher<'_>,
        query: &SelectQuery,
        skip: usize,
    ) -> Option<SignatureProof> {
        let st = publisher.signed_table();
        let bounds = st.domain().normalize(&query.range)?;
        let (start, end) = st
            .table()
            .key_range_positions(Bound::Included(bounds.alpha), Bound::Included(bounds.beta));
        let positions: Vec<usize> = (start..end)
            .map(|p| p + 1)
            .enumerate()
            .filter(|(i, _)| *i != skip)
            .map(|(_, cp)| cp)
            .collect();
        if positions.is_empty() {
            return None;
        }
        Some(publisher.signatures(positions.iter().map(|&cp| st.entry(cp))))
    }

    /// Extends the aggregate by replaying the first signature once more.
    fn replay_signature(
        publisher: &Publisher<'_>,
        query: &SelectQuery,
        _existing: &SignatureProof,
    ) -> Option<SignatureProof> {
        let st = publisher.signed_table();
        let bounds = st.domain().normalize(&query.range)?;
        let (start, end) = st
            .table()
            .key_range_positions(Bound::Included(bounds.alpha), Bound::Included(bounds.beta));
        let mut positions: Vec<usize> = (start..end).map(|p| p + 1).collect();
        positions.insert(1.min(positions.len()), positions[0]);
        Some(publisher.signatures(positions.iter().map(|&cp| st.entry(cp))))
    }

    /// A plausible-but-different value of the same type.
    fn tampered_value(v: &Value) -> Value {
        match v {
            Value::Int(x) => Value::Int(x.wrapping_add(1)),
            Value::Text(s) => Value::Text(format!("{s}~")),
            Value::Bytes(b) => {
                let mut b = b.clone();
                if let Some(first) = b.first_mut() {
                    *first ^= 0xff;
                } else {
                    b.push(1);
                }
                Value::Bytes(b)
            }
            Value::Bool(b) => Value::Bool(!b),
        }
    }

    impl<'a> Publisher<'a> {
        pub(super) fn chain_pos_of_key(&self, key: i64) -> Option<usize> {
            let st = self.signed_table();
            let (s, e) = st
                .table()
                .key_range_positions(Bound::Included(key), Bound::Included(key));
            if s < e {
                Some(s + 1)
            } else if key == st.domain().left_delimiter() {
                Some(0)
            } else if key == st.domain().right_delimiter() {
                Some(st.chain_len() - 1)
            } else {
                None
            }
        }

        pub(super) fn chain_pos_of_key_first(
            &self,
            range: &adp_relation::KeyRange,
        ) -> Option<usize> {
            let st = self.signed_table();
            let bounds = st.domain().normalize(range)?;
            let (s, e) = st
                .table()
                .key_range_positions(Bound::Included(bounds.alpha), Bound::Included(bounds.beta));
            if s < e {
                Some(s + 1)
            } else {
                None
            }
        }
    }

    /// Index of the key column within a projected result row.
    fn result_key_index(publisher: &Publisher<'_>, query: &SelectQuery) -> Option<usize> {
        let schema = publisher.signed_table().table().schema();
        let proj = effective_projection(schema, &query.projection, &query.filters)?;
        proj.iter().position(|&c| c == schema.key_index())
    }
}
