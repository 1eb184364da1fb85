//! User-side verification (Figures 4 and 8).
//!
//! Given the owner's [`Certificate`], the (rewritten) query, the returned
//! records and the VO, the verifier establishes:
//!
//! * **completeness** — the signature chain walks contiguously from a
//!   record proven `< α` to a record proven `> β`, with every position in
//!   between accounted for (matched, provably-filtered, or
//!   provably-duplicate);
//! * **authenticity** — every returned value participates in `MHT(r.A)` or
//!   the key chains, both bound by the owner's signatures;
//! * **precision** — nothing outside the query's range/filters/projection
//!   was returned.
//!
//! The verifier trusts only the certificate; every byte of the result and
//! VO is treated as adversarial.

use crate::domain::QueryBounds;
use crate::errors::VerifyError;
use crate::gdigest::{
    combine_component, entry_components, link_digest, link_digests_of, rep_digest, Direction,
    GDigest,
};
use crate::owner::Certificate;
use crate::publisher::{attr_position, effective_projection};
use crate::repr::Radix;
use crate::scheme::{Mode, SchemeConfig};
use crate::vo::{
    AttrProof, BoundaryProof, EntryChains, EntryProof, PrevG, QueryVO, RangeVO, RepProof,
    SignatureProof,
};
use adp_crypto::par::{self, Split};
use adp_crypto::{
    chain_extend, chain_extend_many, hasher::HashDomain, root_from_mixed, verify_inclusion, Digest,
    Hasher, MixedLeaf, PublicKey,
};
use adp_relation::{Record, Schema, SelectQuery};

/// Successful-verification statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Result rows verified.
    pub matched: usize,
    /// Multipoint-filtered positions accounted for.
    pub filtered: usize,
    /// DISTINCT-eliminated duplicates accounted for.
    pub duplicates: usize,
    /// Component signatures covered by the signature proof.
    pub signatures_verified: usize,
    /// Whether the result was (provably) empty.
    pub empty: bool,
}

/// Verifies a select-project(-distinct) result against its VO. A long
/// answer is verified on the available cores (see [`Split::VERIFY`]); the
/// outcome is the same as on one.
pub fn verify_select(
    cert: &Certificate,
    query: &SelectQuery,
    result: &[Record],
    vo: &QueryVO,
) -> Result<VerifyReport, VerifyError> {
    verify_select_with(cert, query, result, vo, par::workers())
}

/// [`verify_select`] on at most `workers` threads: the seam tests use to
/// hold the split verifier to the one-worker one.
pub(crate) fn verify_select_with(
    cert: &Certificate,
    query: &SelectQuery,
    result: &[Record],
    vo: &QueryVO,
    workers: usize,
) -> Result<VerifyReport, VerifyError> {
    let ctx = Ctx::new(cert, query, workers)?;
    match (cert.domain.normalize(&query.range), vo) {
        (None, QueryVO::TriviallyEmpty) => {
            if result.is_empty() {
                Ok(VerifyReport {
                    empty: true,
                    ..Default::default()
                })
            } else {
                Err(VerifyError::ExpectedEmptyResult)
            }
        }
        (None, _) => Err(VerifyError::VoShapeMismatch {
            detail: "range is empty by construction; no proof expected",
        }),
        (Some(_), QueryVO::TriviallyEmpty) => Err(VerifyError::VoShapeMismatch {
            detail: "non-trivial range requires a proof",
        }),
        (Some(bounds), QueryVO::Empty(proof)) => {
            if !result.is_empty() {
                return Err(VerifyError::VoShapeMismatch {
                    detail: "empty-result proof alongside returned rows",
                });
            }
            ctx.verify_empty(&bounds, proof)
        }
        (Some(bounds), QueryVO::Range(rv)) => ctx.verify_range(&bounds, result, rv),
    }
}

/// Shared verification context.
struct Ctx<'a> {
    cert: &'a Certificate,
    query: &'a SelectQuery,
    schema: &'a Schema,
    hasher: Hasher,
    radix: Option<Radix>,
    /// Effective projection: schema column index per result slot.
    proj: Vec<usize>,
    /// Result slot holding the key column.
    key_slot: usize,
    /// Threads a long answer's per-entry work may use.
    workers: usize,
}

impl<'a> Ctx<'a> {
    fn new(
        cert: &'a Certificate,
        query: &'a SelectQuery,
        workers: usize,
    ) -> Result<Self, VerifyError> {
        let schema = &cert.schema;
        for f in &query.filters {
            match schema.column_index(&f.column) {
                None => {
                    return Err(VerifyError::Unsupported {
                        detail: "filter on unknown column",
                    })
                }
                Some(c) if c == schema.key_index() => {
                    return Err(VerifyError::Unsupported {
                        detail: "filters may not target the key column (use the range)",
                    })
                }
                Some(_) => {}
            }
        }
        let proj = effective_projection(schema, &query.projection, &query.filters).ok_or(
            VerifyError::Unsupported {
                detail: "projection names unknown column",
            },
        )?;
        let key_slot = proj
            .iter()
            .position(|&c| c == schema.key_index())
            .ok_or(VerifyError::KeyColumnMissing)?;
        let radix = match cert.config.mode {
            Mode::Conceptual => None,
            Mode::Optimized { base } => Some(Radix::for_width(base, cert.domain.width())),
        };
        Ok(Ctx {
            cert,
            query,
            schema,
            hasher: cert.config.hasher(),
            radix,
            proj,
            key_slot,
            workers,
        })
    }

    fn config(&self) -> &SchemeConfig {
        &self.cert.config
    }

    fn public_key(&self) -> &PublicKey {
        &self.cert.public_key
    }

    fn verify_empty(
        &self,
        bounds: &QueryBounds,
        proof: &crate::vo::EmptyProof,
    ) -> Result<VerifyReport, VerifyError> {
        let left_comp = self.boundary_component(&proof.left, Direction::Up, bounds, "left")?;
        let right_comp = self.boundary_component(&proof.right, Direction::Down, bounds, "right")?;
        let g_left = GDigest {
            up: left_comp,
            down: proof.left.other_component,
            attrs: proof.left.attr_root,
        };
        let g_right = GDigest {
            up: proof.right.other_component,
            down: right_comp,
            attrs: proof.right.attr_root,
        };
        let prev_bytes = match &proof.prev {
            PrevG::Edge => crate::gdigest::edge_digest(&self.hasher, self.cert.domain.l())
                .as_bytes()
                .to_vec(),
            PrevG::Opaque(b) => b.clone(),
        };
        let link = link_digest(
            &self.hasher,
            &prev_bytes,
            &g_left.to_bytes(),
            &g_right.to_bytes(),
        );
        self.verify_signatures(&[link], &proof.signature)?;
        Ok(VerifyReport {
            empty: true,
            signatures_verified: 1,
            ..Default::default()
        })
    }

    /// Figure 8 over a range answer, in two steps.
    ///
    /// A sequential structural pre-pass settles which record each entry
    /// stands for (a match takes the next record, a duplicate may only point
    /// back at one already taken) and finds the first entry whose shape
    /// alone is wrong. The per-entry work — precision checks, attribute
    /// root, chain components — then runs over the entries before that one,
    /// in chunks on the available cores above [`Split::VERIFY`]'s split
    /// point; the link windows likewise. The first error in entry order
    /// wins, so the `Result` is the one a single worker returns.
    fn verify_range(
        &self,
        bounds: &QueryBounds,
        result: &[Record],
        rv: &RangeVO,
    ) -> Result<VerifyReport, VerifyError> {
        if rv.entries.is_empty() {
            return Err(VerifyError::VoShapeMismatch {
                detail: "range VO must contain at least one entry",
            });
        }
        let left_comp = self.boundary_component(&rv.left, Direction::Up, bounds, "left")?;

        let mut record_of: Vec<Option<&Record>> = Vec::with_capacity(rv.entries.len());
        let (mut matched, mut filtered, mut duplicates) = (0usize, 0usize, 0usize);
        let mut shape = Ok(());
        for (i, entry) in rv.entries.iter().enumerate() {
            let record = match entry {
                EntryProof::Match { .. } if matched == result.len() => {
                    shape = Err(VerifyError::ResultCountMismatch {
                        records: result.len(),
                        matches: rv
                            .entries
                            .iter()
                            .filter(|e| matches!(e, EntryProof::Match { .. }))
                            .count(),
                    });
                    break;
                }
                EntryProof::Match { .. } => {
                    matched += 1;
                    Some(&result[matched - 1])
                }
                EntryProof::Filtered { .. } if self.query.filters.is_empty() => {
                    shape = Err(VerifyError::UnexpectedFilteredEntry { entry: i });
                    break;
                }
                EntryProof::Filtered { .. } => {
                    filtered += 1;
                    None
                }
                EntryProof::Duplicate { .. } if !self.query.distinct => {
                    shape = Err(VerifyError::DistinctViolation {
                        detail: "duplicate-elimination entry in a non-DISTINCT query",
                    });
                    break;
                }
                // Duplicates must reference an earlier match (the first
                // occurrence is retained).
                EntryProof::Duplicate { of, .. } if *of as usize >= matched => {
                    shape = Err(VerifyError::DuplicateRefInvalid { entry: i });
                    break;
                }
                EntryProof::Duplicate { of, .. } => {
                    duplicates += 1;
                    Some(&result[*of as usize])
                }
            };
            record_of.push(record);
        }

        let entry_gs = par::try_map_chunks(record_of.len(), Split::VERIFY, self.workers, |r| {
            r.map(|i| self.entry_g(i, &rv.entries[i], record_of[i], bounds))
                .collect::<Result<Vec<_>, _>>()
        })?;
        shape?;
        if matched != result.len() {
            return Err(VerifyError::ResultCountMismatch {
                records: result.len(),
                matches: matched,
            });
        }
        if self.query.distinct {
            let mut seen = std::collections::HashSet::new();
            for rec in result {
                if !seen.insert(crate::wire::encode_records(std::slice::from_ref(rec))) {
                    return Err(VerifyError::DistinctViolation {
                        detail: "result contains duplicate rows",
                    });
                }
            }
        }

        let right_comp = self.boundary_component(&rv.right, Direction::Down, bounds, "right")?;
        let mut g_seq: Vec<GDigest> = Vec::with_capacity(rv.entries.len() + 2);
        g_seq.push(GDigest {
            up: left_comp,
            down: rv.left.other_component,
            attrs: rv.left.attr_root,
        });
        g_seq.extend(entry_gs.into_iter().flatten());
        g_seq.push(GDigest {
            up: rv.right.other_component,
            down: right_comp,
            attrs: rv.right.attr_root,
        });

        // Link `j` hashes the window `g_seq[j..j + 3]`.
        let links = par::concat(par::map_chunks(
            rv.entries.len(),
            Split::VERIFY,
            self.workers,
            |r| link_digests_of(&self.hasher, &g_seq[r.start..r.end + 2]),
        ));
        self.verify_signatures(&links, &rv.signatures)?;

        Ok(VerifyReport {
            matched,
            filtered,
            duplicates,
            signatures_verified: links.len(),
            empty: false,
        })
    }

    /// The per-entry work of [`Self::verify_range`]: entry `i`'s `g`, from
    /// the record the structural pre-pass assigned it (`None` for a
    /// filtered entry).
    ///
    /// It may run before the entries ahead of it are checked, so it must
    /// not rely on them: a duplicate's record is re-checked for shape here,
    /// and when that fails, the match that took the record fails too, at
    /// an earlier entry, whose error is the one returned.
    fn entry_g(
        &self,
        i: usize,
        entry: &EntryProof,
        record: Option<&Record>,
        bounds: &QueryBounds,
    ) -> Result<GDigest, VerifyError> {
        let (up, down, attrs) = match (entry, record) {
            (EntryProof::Match { chains, attrs }, Some(rec)) => {
                let key = self.check_record(rec, bounds, i)?;
                let root = self.attr_root_for_record(rec, attrs, i)?;
                let (up, down) = self.entry_chain_components(key, chains)?;
                (up, down, root)
            }
            (
                EntryProof::Filtered {
                    up_component,
                    down_component,
                    attrs,
                },
                None,
            ) => {
                self.check_filtered_proven(attrs, i)?;
                let root = self.attr_root_from_disclosure(attrs, i)?;
                (*up_component, *down_component, root)
            }
            (EntryProof::Duplicate { chains, attrs, .. }, Some(rec)) => {
                let key = Some(rec)
                    .filter(|rec| rec.arity() == self.proj.len())
                    .and_then(|rec| rec.get(self.key_slot).as_int())
                    .ok_or(VerifyError::DuplicateRefInvalid { entry: i })?;
                let root = self.attr_root_for_record(rec, attrs, i)?;
                let (up, down) = self.entry_chain_components(key, chains)?;
                (up, down, root)
            }
            _ => unreachable!("the pre-pass assigns records to matches and duplicates only"),
        };
        Ok(GDigest { up, down, attrs })
    }

    /// Validates a returned record's shape, typing, range membership and
    /// filter satisfaction (precision). Returns its key.
    fn check_record(
        &self,
        rec: &Record,
        bounds: &QueryBounds,
        entry: usize,
    ) -> Result<i64, VerifyError> {
        if rec.arity() != self.proj.len() {
            return Err(VerifyError::ProjectionMismatch { entry });
        }
        for (slot, &col) in self.proj.iter().enumerate() {
            let expected = self.schema.columns()[col].ty;
            let got = rec.get(slot).value_type();
            if got != expected {
                return Err(VerifyError::SchemaViolation {
                    entry,
                    detail: format!("column {col}: expected {expected}, got {got}"),
                });
            }
        }
        let key = rec
            .get(self.key_slot)
            .as_int()
            .expect("key slot type-checked above");
        if !bounds.contains(key) {
            return Err(VerifyError::KeyOutOfRange { key });
        }
        for f in &self.query.filters {
            let col = self.schema.column_index(&f.column).expect("validated");
            let slot = self
                .proj
                .iter()
                .position(|&c| c == col)
                .expect("effective projection includes filter columns");
            if !f.op.eval(rec.get(slot), &f.value).unwrap_or(false) {
                return Err(VerifyError::FilterViolation { entry });
            }
        }
        Ok(key)
    }

    /// Checks that a filtered entry's disclosed attributes prove at least
    /// one filter predicate fails (with correct typing).
    fn check_filtered_proven(&self, attrs: &AttrProof, entry: usize) -> Result<(), VerifyError> {
        for f in &self.query.filters {
            let col = self.schema.column_index(&f.column).expect("validated");
            let pos = attr_position(self.schema, col);
            if let Some((_, v)) = attrs.disclosed.iter().find(|(p, _)| *p == pos) {
                if v.value_type() != self.schema.columns()[col].ty {
                    continue;
                }
                if f.op.eval(v, &f.value) == Some(false) {
                    return Ok(());
                }
            }
        }
        Err(VerifyError::FilteredNotProven { entry })
    }

    /// Rebuilds `MHT(r.A)`'s root for a record returned in the result:
    /// projected non-key columns come from the record, the rest from the
    /// proof's hidden digests. Cross-checks the proof's root field.
    fn attr_root_for_record(
        &self,
        rec: &Record,
        attrs: &AttrProof,
        entry: usize,
    ) -> Result<Digest, VerifyError> {
        if !attrs.disclosed.is_empty() {
            // Result-row proofs disclose through the record, never inline.
            return Err(VerifyError::AttrCoverageInvalid { entry });
        }
        let non_key = self.schema.arity() - 1;
        let mut encodings: Vec<Option<Vec<u8>>> = vec![None; non_key];
        for (slot, &col) in self.proj.iter().enumerate() {
            if col == self.schema.key_index() {
                continue;
            }
            encodings[attr_position(self.schema, col) as usize] = Some(rec.get(slot).encode());
        }
        self.finish_attr_root(encodings, attrs, entry)
    }

    /// Rebuilds the attribute root for a filtered entry from inline
    /// disclosures plus hidden digests.
    fn attr_root_from_disclosure(
        &self,
        attrs: &AttrProof,
        entry: usize,
    ) -> Result<Digest, VerifyError> {
        let non_key = self.schema.arity() - 1;
        let mut encodings: Vec<Option<Vec<u8>>> = vec![None; non_key];
        for (pos, v) in &attrs.disclosed {
            let pos = *pos as usize;
            if pos >= non_key || encodings[pos].is_some() {
                return Err(VerifyError::AttrCoverageInvalid { entry });
            }
            // Type check against the schema column.
            let col = if pos < self.schema.key_index() {
                pos
            } else {
                pos + 1
            };
            if v.value_type() != self.schema.columns()[col].ty {
                return Err(VerifyError::SchemaViolation {
                    entry,
                    detail: format!("disclosed attribute {pos} has wrong type"),
                });
            }
            encodings[pos] = Some(v.encode());
        }
        self.finish_attr_root(encodings, attrs, entry)
    }

    /// Common tail: fill hidden digests, demand full coverage, hash.
    fn finish_attr_root(
        &self,
        encodings: Vec<Option<Vec<u8>>>,
        attrs: &AttrProof,
        entry: usize,
    ) -> Result<Digest, VerifyError> {
        let non_key = encodings.len();
        let mut hidden: Vec<Option<Digest>> = vec![None; non_key];
        for (pos, d) in &attrs.hidden {
            let pos = *pos as usize;
            if pos >= non_key || hidden[pos].is_some() || encodings[pos].is_some() {
                return Err(VerifyError::AttrCoverageInvalid { entry });
            }
            hidden[pos] = Some(*d);
        }
        let root = if non_key == 0 {
            if !attrs.hidden.is_empty() {
                return Err(VerifyError::AttrCoverageInvalid { entry });
            }
            delimiter_sentinel(&self.hasher)
        } else {
            let mut leaves: Vec<MixedLeaf<'_>> = Vec::with_capacity(non_key);
            for (i, enc) in encodings.iter().enumerate() {
                match (enc, hidden[i]) {
                    (Some(e), None) => leaves.push(MixedLeaf::Value(e)),
                    (None, Some(d)) => leaves.push(MixedLeaf::Digest(d)),
                    _ => return Err(VerifyError::AttrCoverageInvalid { entry }),
                }
            }
            root_from_mixed(&self.hasher, &leaves)
        };
        if root != attrs.root {
            return Err(VerifyError::AttrRootMismatch { entry });
        }
        Ok(root)
    }

    /// Figure 8b: recompute both direction components for a disclosed key.
    fn entry_chain_components(
        &self,
        key: i64,
        chains: &EntryChains,
    ) -> Result<(Digest, Digest), VerifyError> {
        entry_components(
            &self.hasher,
            self.config(),
            self.radix.as_ref(),
            &self.cert.domain,
            key,
            chains.roots(),
        )
        .ok_or(VerifyError::VoShapeMismatch {
            detail: "entry chain mode mismatch",
        })
    }

    /// Figure 8a: derive a boundary record's hidden-key component by
    /// extending the intermediate digests `δ_c` more steps.
    fn boundary_component(
        &self,
        proof: &BoundaryProof,
        dir: Direction,
        bounds: &QueryBounds,
        side: &'static str,
    ) -> Result<Digest, VerifyError> {
        let delta_c = match dir {
            Direction::Up => self.cert.domain.delta_up_query(bounds.alpha),
            Direction::Down => self.cert.domain.delta_down_query(bounds.beta),
        };
        match self.config().mode {
            Mode::Conceptual => {
                if proof.intermediates.len() != 1 || proof.selector.is_some() {
                    return Err(VerifyError::BoundaryShapeInvalid { side });
                }
                Ok(chain_extend(&self.hasher, proof.intermediates[0], delta_c))
            }
            Mode::Optimized { .. } => {
                let radix = self.radix.as_ref().expect("optimized mode has a radix");
                if proof.intermediates.len() != radix.digit_count() {
                    return Err(VerifyError::BoundaryShapeInvalid { side });
                }
                // Every digit's chain extended by its digit of δ_c, all
                // digits in one bulk call (twice per answer, so plain
                // vectors do).
                let steps: Vec<u64> = radix.canonical(delta_c).iter().map(|&c| c as u64).collect();
                let mut targets = proof.intermediates.clone();
                chain_extend_many(&self.hasher, &mut targets, &steps);
                let h_dt = rep_digest(&self.hasher, &targets);
                match &proof.selector {
                    None => Err(VerifyError::BoundaryShapeInvalid { side }),
                    Some(RepProof::Canonical { mht_root }) => {
                        Ok(combine_component(&self.hasher, h_dt, *mht_root))
                    }
                    Some(RepProof::NonCanonical {
                        index,
                        canon_digest,
                        path,
                    }) => {
                        if *index >= radix.m() || path.leaf_index != *index {
                            return Err(VerifyError::BoundarySelectorInvalid { side });
                        }
                        let root = verify_inclusion(&self.hasher, h_dt, path);
                        Ok(combine_component(&self.hasher, *canon_digest, root))
                    }
                }
            }
        }
    }

    /// Checks the signature proof over the computed link digests.
    fn verify_signatures(
        &self,
        links: &[Digest],
        sigs: &SignatureProof,
    ) -> Result<(), VerifyError> {
        if sigs.count() != links.len() {
            return Err(VerifyError::SignatureCountMismatch {
                expected: links.len(),
                got: sigs.count(),
            });
        }
        let ok = match sigs {
            SignatureProof::Aggregated(agg) => agg.verify(&self.hasher, self.public_key(), links),
            SignatureProof::Individual(v) => links
                .iter()
                .zip(v)
                .all(|(l, s)| self.public_key().verify(&self.hasher, l, s)),
        };
        if ok {
            Ok(())
        } else {
            Err(VerifyError::SignatureInvalid)
        }
    }
}

/// Sentinel root for schemas with no non-key attributes (must match
/// `gdigest::attr_tree`).
fn delimiter_sentinel(hasher: &Hasher) -> Digest {
    hasher.hash(HashDomain::Leaf, b"\x00__no_attrs__")
}

/// End-to-end wire verification: decode the result and VO from bytes, then
/// verify. This is the path a real client exercises and what benches
/// measure.
pub fn verify_select_wire(
    cert: &Certificate,
    query: &SelectQuery,
    result_bytes: &[u8],
    vo_bytes: &[u8],
) -> Result<(Vec<Record>, VerifyReport), VerifyError> {
    let result =
        crate::wire::decode_records(result_bytes).map_err(|_| VerifyError::VoShapeMismatch {
            detail: "result bytes malformed",
        })?;
    let vo = crate::wire::decode_vo(vo_bytes).map_err(|_| VerifyError::VoShapeMismatch {
        detail: "VO bytes malformed",
    })?;
    let report = verify_select(cert, query, &result, &vo)?;
    Ok((result, report))
}

#[cfg(test)]
mod tests {
    //! The split verifier against the one-worker verifier, on answers well
    //! above the split point.
    use super::*;
    use crate::domain::Domain;
    use crate::owner::{Owner, SignedTable};
    use crate::publisher::Publisher;
    use crate::wire::{decode_records, decode_vo, encode_records, encode_vo};
    use adp_relation::{Column, CompareOp, KeyRange, Predicate, Table, Value, ValueType};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::OnceLock;

    /// Enough workers to split on any host, one-core ones included.
    const SPLIT: usize = 4;

    /// 640 staff rows keyed on salary (1000, 1010, …), `dept` cycling 0–2,
    /// plus a second replica of every 50th row with the same salary and
    /// `dept`, so the DISTINCT answer carries duplicate entries.
    fn fixture() -> &'static (SignedTable, Certificate) {
        static FIXTURE: OnceLock<(SignedTable, Certificate)> = OnceLock::new();
        FIXTURE.get_or_init(|| {
            let owner = Owner::new(512, &mut StdRng::seed_from_u64(0x5B117));
            let schema = Schema::new(
                vec![
                    Column::new("id", ValueType::Int),
                    Column::new("name", ValueType::Text),
                    Column::new("salary", ValueType::Int),
                    Column::new("dept", ValueType::Int),
                ],
                "salary",
            );
            let mut table = Table::new("staff", schema);
            let row = |id: i64, name: String, i: i64| {
                Record::new(vec![
                    Value::Int(id),
                    Value::from(name),
                    Value::Int(1_000 + 10 * i),
                    Value::Int(i % 3),
                ])
            };
            for i in 0..640 {
                table.insert(row(i, format!("emp{i}"), i)).unwrap();
                if i % 50 == 7 {
                    table.insert(row(1_000 + i, format!("dup{i}"), i)).unwrap();
                }
            }
            let st = owner
                .sign_table(table, Domain::new(0, 100_000), SchemeConfig::default())
                .unwrap();
            let cert = owner.certificate(&st);
            (st, cert)
        })
    }

    /// Range, multipoint and projected-DISTINCT selects, each over ≈ 650
    /// VO entries: matches only, matches and filtered entries, matches and
    /// duplicates.
    fn queries() -> [SelectQuery; 3] {
        let range = SelectQuery::range(KeyRange::closed(1_005, 7_385));
        [
            range.clone(),
            range
                .clone()
                .filter(Predicate::new("dept", CompareOp::Eq, 1i64)),
            range.project(&["dept"]).distinct(),
        ]
    }

    fn verify_both(
        query: &SelectQuery,
        result: &[Record],
        vo: &QueryVO,
    ) -> [Result<VerifyReport, VerifyError>; 2] {
        let cert = &fixture().1;
        [1, SPLIT].map(|workers| verify_select_with(cert, query, result, vo, workers))
    }

    #[test]
    fn honest_answers_verify_alike_split_or_not() {
        let publisher = Publisher::new(&fixture().0);
        for query in queries() {
            let (result, vo) = publisher.answer_select(&query).unwrap();
            let QueryVO::Range(rv) = &vo else {
                panic!("a range answer")
            };
            assert!(rv.entries.len() >= 600, "{} entries", rv.entries.len());
            let [one, split] = verify_both(&query, &result, &vo);
            let report = one.unwrap();
            assert_eq!(split, Ok(report));
            assert_eq!(report.matched, result.len());
            assert_eq!(
                report.matched + report.filtered + report.duplicates,
                rv.entries.len()
            );
        }
    }

    /// Replaces an entry's attribute root: the entry's own check fails
    /// with `AttrRootMismatch` naming it.
    fn break_attr_root(entry: &mut EntryProof) {
        let attrs = match entry {
            EntryProof::Match { attrs, .. }
            | EntryProof::Filtered { attrs, .. }
            | EntryProof::Duplicate { attrs, .. } => attrs,
        };
        attrs.root = Hasher::default().hash(HashDomain::Data, b"not the root");
    }

    #[test]
    fn faults_at_chunk_edges_are_named_alike_split_or_not() {
        let chunk = Split::VERIFY.chunk;
        let publisher = Publisher::new(&fixture().0);
        for query in queries() {
            let (result, vo) = publisher.answer_select(&query).unwrap();
            let QueryVO::Range(rv) = &vo else {
                panic!("a range answer")
            };
            let last = rv.entries.len() - 1;
            for first in [0, chunk - 1, chunk, 7 * chunk - 1, 7 * chunk, last] {
                // The fault at `first`, and one right after it: after a
                // chunk's last entry that opens the next chunk, which a
                // helper fails at once while the caller is still working
                // towards `first`.
                let mut bad = rv.clone();
                break_attr_root(&mut bad.entries[first]);
                if first < last {
                    break_attr_root(&mut bad.entries[first + 1]);
                }
                let [one, split] = verify_both(&query, &result, &QueryVO::Range(bad));
                assert_eq!(one, Err(VerifyError::AttrRootMismatch { entry: first }));
                assert_eq!(split, one, "{query:?}, fault at {first}");
            }
        }
    }

    #[test]
    fn a_shape_fault_yields_to_an_earlier_entry_fault_only() {
        // A filtered entry in a query without filters is caught by the
        // structural pre-pass; an entry before it failing its own checks
        // still wins, one after it does not.
        let query = &queries()[0];
        let (result, vo) = Publisher::new(&fixture().0).answer_select(query).unwrap();
        let QueryVO::Range(rv) = &vo else {
            panic!("a range answer")
        };
        let shape_at = 9 * Split::VERIFY.chunk + 5;
        let mut base = rv.clone();
        let EntryProof::Match { attrs, .. } = &base.entries[shape_at] else {
            panic!("a range select has match entries only")
        };
        base.entries[shape_at] = EntryProof::Filtered {
            up_component: attrs.root,
            down_component: attrs.root,
            attrs: attrs.clone(),
        };
        for (fault_at, expected) in [
            (
                shape_at - 40,
                VerifyError::AttrRootMismatch {
                    entry: shape_at - 40,
                },
            ),
            (
                shape_at + 40,
                VerifyError::UnexpectedFilteredEntry { entry: shape_at },
            ),
        ] {
            let mut bad = base.clone();
            break_attr_root(&mut bad.entries[fault_at]);
            let [one, split] = verify_both(query, &result, &QueryVO::Range(bad));
            assert_eq!(one, Err(expected));
            assert_eq!(split, one);
        }
    }

    #[test]
    fn a_duplicate_of_a_malformed_record_is_reported_at_the_match() {
        // Split, a duplicate may be checked before the match that took its
        // record: it must neither panic on the record's shape nor decide
        // the error.
        let (st, cert) = fixture();
        let query = &queries()[2];
        let (mut result, vo) = Publisher::new(st).answer_select(query).unwrap();
        let QueryVO::Range(rv) = &vo else {
            panic!("a range answer")
        };
        let (dup_at, of) = rv
            .entries
            .iter()
            .enumerate()
            .rev()
            .find_map(|(i, e)| match e {
                EntryProof::Duplicate { of, .. } => Some((i, *of as usize)),
                _ => None,
            })
            .expect("the fixture's DISTINCT answer has duplicates");
        let malformed = Record::new(vec![Value::Int(1)]);
        let ctx = Ctx::new(cert, query, 1).unwrap();
        let bounds = cert.domain.normalize(&query.range).unwrap();
        assert_eq!(
            ctx.entry_g(dup_at, &rv.entries[dup_at], Some(&malformed), &bounds),
            Err(VerifyError::DuplicateRefInvalid { entry: dup_at })
        );

        result[of] = malformed;
        let match_at = rv
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e, EntryProof::Match { .. }))
            .nth(of)
            .map(|(i, _)| i)
            .unwrap();
        let [one, split] = verify_both(query, &result, &vo);
        assert_eq!(
            one,
            Err(VerifyError::ProjectionMismatch { entry: match_at })
        );
        assert_eq!(split, one);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any single-byte mutation of an honest answer that still decodes
        /// is rejected, with the same error — variant and entry index —
        /// whether the verifier splits the work or not.
        #[test]
        fn split_verifier_equals_one_worker_under_byte_mutations(
            shape in 0usize..3,
            in_vo: bool,
            at: u64,
            flip in 1u8..=255,
        ) {
            let query = &queries()[shape];
            let (rows, vo) = Publisher::new(&fixture().0).answer_select(query).unwrap();
            let (mut result, mut vo) = (encode_records(&rows), encode_vo(&vo));
            let bytes = if in_vo { &mut vo } else { &mut result };
            let at = (at % bytes.len() as u64) as usize;
            bytes[at] ^= flip;
            let decoded = decode_records(&result).and_then(|r| Ok((r, decode_vo(&vo)?)));
            prop_assume!(decoded.is_ok());
            let (result, vo) = decoded.unwrap();
            let [one, split] = verify_both(query, &result, &vo);
            prop_assert!(one.is_err(), "mutated byte {at} (vo: {in_vo}) verified");
            prop_assert_eq!(split, one);
        }
    }
}
