//! Binary wire format for verification objects and result sets.
//!
//! The Figure 9 experiment measures *user traffic overhead* — the exact
//! number of bytes of authentication information per byte of result data —
//! so the VO needs a real, byte-exact serialization, not an estimate. No
//! serializer crate exists in the offline dependency set, and a hand-rolled
//! format is also the honest way to account: every digest costs
//! `1 + M_digest/8` bytes (1-byte length), every signature
//! `4 + M_sign/8`, and framing is explicit.
//!
//! The format round-trips losslessly; decoding performs bounds checking and
//! rejects malformed input (a malicious publisher controls these bytes).

use crate::vo::{
    AttrProof, BoundaryProof, EmptyProof, EntryChains, EntryProof, PrevG, QueryVO, RangeVO,
    RepProof, SignatureProof,
};
use adp_crypto::{AggregateSignature, Digest, InclusionProof, ProofStep, Signature};
use adp_relation::{CompareOp, KeyRange, Predicate, Projection, Record, SelectQuery, Value};
use std::fmt;
use std::ops::Bound;

/// Decoding failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError(pub &'static str);

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire decoding error: {}", self.0)
    }
}
impl std::error::Error for WireError {}

/// Fewest bytes a length-prefixed byte string takes: its `u32` length.
pub const MIN_BYTES_LEN: usize = 4;
/// Fewest bytes a length-prefixed [`Value`] takes: the length and a type tag.
pub const MIN_VALUE_LEN: usize = MIN_BYTES_LEN + 1;
// The other list elements' fewest bytes, for `Reader::vec_for`.
const MIN_DIGEST_LEN: usize = 1 + 16;
const MIN_ATTRS_LEN: usize = 4 + 4 + MIN_DIGEST_LEN; // two empty lists, the root
const MIN_ENTRY_LEN: usize = 1 + 1 + MIN_ATTRS_LEN; // a match with conceptual chains
const MIN_RECORD_LEN: usize = 4; // arity 0

/// Append-only byte writer.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer appending to `buf`, whose capacity it keeps; hand the
    /// buffer back with [`Writer::into_bytes`].
    pub(crate) fn appending_to(buf: Vec<u8>) -> Self {
        Writer { buf }
    }

    /// Consumes the writer, returning the accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a single byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`, little-endian two's complement.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed byte string (`u32` length, then the
    /// bytes).
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Appends what `body` writes as a length-prefixed byte string, the
    /// same bytes as [`Writer::bytes`] of it, without a buffer of its own.
    pub(crate) fn prefixed(&mut self, body: impl FnOnce(&mut Writer)) {
        let at = self.buf.len();
        self.u32(0);
        body(self);
        let len = (self.buf.len() - at - 4) as u32;
        self.buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Appends a digest (`u8` length, then the digest bytes — digests are
    /// 16–32 bytes, so one length byte suffices and the Figure 9 accounting
    /// of `1 + M_digest/8` bytes per digest holds exactly).
    pub fn digest(&mut self, d: &Digest) {
        self.u8(d.len() as u8);
        self.buf.extend_from_slice(d.as_bytes());
    }

    /// Appends a [`Value`] in its canonical self-describing encoding,
    /// length-prefixed.
    pub fn value(&mut self, v: &Value) {
        self.prefixed(|w| v.encode_into(&mut w.buf));
    }
}

/// Bounds-checked byte reader.
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice for decoding.
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    /// Bytes left to consume.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Whether every byte has been consumed (decoders demand this to
    /// reject trailing garbage).
    pub fn done(&self) -> bool {
        self.remaining() == 0
    }

    /// An empty vector with room for the `n` elements a count prefix
    /// announced, each at least `min_len` encoded bytes — but never for
    /// more than the input still left could hold. A forged count alone can
    /// thus not size an allocation; how many elements a decoder accepts is
    /// still up to its own count limit.
    pub fn vec_for<T>(&self, n: usize, min_len: usize) -> Vec<T> {
        Vec::with_capacity(n.min(self.remaining() / min_len.max(1)))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError("unexpected end of input"));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a length-prefixed byte string; the length is bounds-checked
    /// against the remaining input before any allocation.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Reads a digest, rejecting lengths outside the scheme's 16–32 byte
    /// window.
    pub fn digest(&mut self) -> Result<Digest, WireError> {
        let len = self.u8()? as usize;
        if !(16..=32).contains(&len) {
            return Err(WireError("digest length out of range"));
        }
        Ok(Digest::from_bytes(self.take(len)?))
    }

    /// Reads a length-prefixed [`Value`] in its canonical encoding.
    pub fn value(&mut self) -> Result<Value, WireError> {
        let raw = self.bytes()?;
        decode_value(raw)
    }
}

/// Decodes the canonical [`Value::encode`] form.
fn decode_value(raw: &[u8]) -> Result<Value, WireError> {
    let (&tag, payload) = raw.split_first().ok_or(WireError("empty value"))?;
    match tag {
        0x01 => {
            let arr: [u8; 8] = payload
                .try_into()
                .map_err(|_| WireError("bad int payload"))?;
            Ok(Value::Int(i64::from_le_bytes(arr)))
        }
        0x02 => Ok(Value::Text(
            String::from_utf8(payload.to_vec()).map_err(|_| WireError("bad utf8"))?,
        )),
        0x03 => Ok(Value::Bytes(payload.to_vec())),
        0x04 => match payload {
            [0] => Ok(Value::Bool(false)),
            [1] => Ok(Value::Bool(true)),
            _ => Err(WireError("bad bool payload")),
        },
        _ => Err(WireError("unknown value tag")),
    }
}

fn write_inclusion_proof(w: &mut Writer, p: &InclusionProof) {
    w.u32(p.leaf_index);
    w.u8(p.steps.len() as u8);
    for s in &p.steps {
        w.digest(&s.sibling);
        w.u8(s.sibling_is_left as u8);
    }
}

fn read_inclusion_proof(r: &mut Reader) -> Result<InclusionProof, WireError> {
    let leaf_index = r.u32()?;
    let n = r.u8()? as usize;
    let mut steps = r.vec_for(n, MIN_DIGEST_LEN + 1);
    for _ in 0..n {
        let sibling = r.digest()?;
        let sibling_is_left = match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(WireError("bad bool")),
        };
        steps.push(ProofStep {
            sibling,
            sibling_is_left,
        });
    }
    Ok(InclusionProof { leaf_index, steps })
}

fn write_boundary(w: &mut Writer, b: &BoundaryProof) {
    w.u32(b.intermediates.len() as u32);
    for d in &b.intermediates {
        w.digest(d);
    }
    match &b.selector {
        None => w.u8(0),
        Some(RepProof::Canonical { mht_root }) => {
            w.u8(1);
            w.digest(mht_root);
        }
        Some(RepProof::NonCanonical {
            index,
            canon_digest,
            path,
        }) => {
            w.u8(2);
            w.u32(*index);
            w.digest(canon_digest);
            write_inclusion_proof(w, path);
        }
    }
    w.digest(&b.other_component);
    w.digest(&b.attr_root);
}

fn read_boundary(r: &mut Reader) -> Result<BoundaryProof, WireError> {
    let n = r.u32()? as usize;
    if n > 1 << 16 {
        return Err(WireError("too many intermediates"));
    }
    let mut intermediates = r.vec_for(n, MIN_DIGEST_LEN);
    for _ in 0..n {
        intermediates.push(r.digest()?);
    }
    let selector = match r.u8()? {
        0 => None,
        1 => Some(RepProof::Canonical {
            mht_root: r.digest()?,
        }),
        2 => {
            let index = r.u32()?;
            let canon_digest = r.digest()?;
            let path = read_inclusion_proof(r)?;
            Some(RepProof::NonCanonical {
                index,
                canon_digest,
                path,
            })
        }
        _ => return Err(WireError("bad selector tag")),
    };
    let other_component = r.digest()?;
    let attr_root = r.digest()?;
    Ok(BoundaryProof {
        intermediates,
        selector,
        other_component,
        attr_root,
    })
}

fn write_attrs(w: &mut Writer, a: &AttrProof) {
    w.u32(a.disclosed.len() as u32);
    for (pos, v) in &a.disclosed {
        w.u32(*pos);
        w.value(v);
    }
    w.u32(a.hidden.len() as u32);
    for (pos, d) in &a.hidden {
        w.u32(*pos);
        w.digest(d);
    }
    w.digest(&a.root);
}

fn read_attrs(r: &mut Reader) -> Result<AttrProof, WireError> {
    let nd = r.u32()? as usize;
    if nd > 1 << 20 {
        return Err(WireError("too many disclosed attrs"));
    }
    let mut disclosed = r.vec_for(nd, 4 + MIN_VALUE_LEN);
    for _ in 0..nd {
        let pos = r.u32()?;
        disclosed.push((pos, r.value()?));
    }
    let nh = r.u32()? as usize;
    if nh > 1 << 20 {
        return Err(WireError("too many hidden attrs"));
    }
    let mut hidden = r.vec_for(nh, 4 + MIN_DIGEST_LEN);
    for _ in 0..nh {
        let pos = r.u32()?;
        hidden.push((pos, r.digest()?));
    }
    let root = r.digest()?;
    Ok(AttrProof {
        disclosed,
        hidden,
        root,
    })
}

fn write_chains(w: &mut Writer, c: &EntryChains) {
    match c {
        EntryChains::Conceptual => w.u8(0),
        EntryChains::Optimized { up_root, down_root } => {
            w.u8(1);
            w.digest(up_root);
            w.digest(down_root);
        }
    }
}

fn read_chains(r: &mut Reader) -> Result<EntryChains, WireError> {
    match r.u8()? {
        0 => Ok(EntryChains::Conceptual),
        1 => Ok(EntryChains::Optimized {
            up_root: r.digest()?,
            down_root: r.digest()?,
        }),
        _ => Err(WireError("bad chains tag")),
    }
}

fn write_entry(w: &mut Writer, e: &EntryProof) {
    match e {
        EntryProof::Match { chains, attrs } => {
            w.u8(0);
            write_chains(w, chains);
            write_attrs(w, attrs);
        }
        EntryProof::Filtered {
            up_component,
            down_component,
            attrs,
        } => {
            w.u8(1);
            w.digest(up_component);
            w.digest(down_component);
            write_attrs(w, attrs);
        }
        EntryProof::Duplicate { of, chains, attrs } => {
            w.u8(2);
            w.u32(*of);
            write_chains(w, chains);
            write_attrs(w, attrs);
        }
    }
}

fn read_entry(r: &mut Reader) -> Result<EntryProof, WireError> {
    match r.u8()? {
        0 => Ok(EntryProof::Match {
            chains: read_chains(r)?,
            attrs: read_attrs(r)?,
        }),
        1 => Ok(EntryProof::Filtered {
            up_component: r.digest()?,
            down_component: r.digest()?,
            attrs: read_attrs(r)?,
        }),
        2 => Ok(EntryProof::Duplicate {
            of: r.u32()?,
            chains: read_chains(r)?,
            attrs: read_attrs(r)?,
        }),
        _ => Err(WireError("bad entry tag")),
    }
}

fn write_signatures(w: &mut Writer, s: &SignatureProof) {
    match s {
        SignatureProof::Aggregated(a) => {
            w.u8(0);
            w.u32(a.count() as u32);
            w.bytes(&a.to_bytes());
        }
        SignatureProof::Individual(v) => {
            w.u8(1);
            w.u32(v.len() as u32);
            for sig in v {
                w.bytes(&sig.to_bytes());
            }
        }
    }
}

fn read_signatures(r: &mut Reader) -> Result<SignatureProof, WireError> {
    match r.u8()? {
        0 => {
            let count = r.u32()? as usize;
            let bytes = r.bytes()?;
            Ok(SignatureProof::Aggregated(AggregateSignature::from_bytes(
                bytes, count,
            )))
        }
        1 => {
            let n = r.u32()? as usize;
            if n > 1 << 24 {
                return Err(WireError("too many signatures"));
            }
            let mut v = r.vec_for(n, MIN_BYTES_LEN);
            for _ in 0..n {
                v.push(Signature::from_bytes(r.bytes()?));
            }
            Ok(SignatureProof::Individual(v))
        }
        _ => Err(WireError("bad signature tag")),
    }
}

/// Encodes a [`QueryVO`] to bytes.
pub fn encode_vo(vo: &QueryVO) -> Vec<u8> {
    let mut w = Writer::new();
    match vo {
        QueryVO::TriviallyEmpty => w.u8(0),
        QueryVO::Empty(e) => {
            w.u8(1);
            match &e.prev {
                PrevG::Edge => w.u8(0),
                PrevG::Opaque(b) => {
                    w.u8(1);
                    w.bytes(b);
                }
            }
            write_boundary(&mut w, &e.left);
            write_boundary(&mut w, &e.right);
            write_signatures(&mut w, &e.signature);
        }
        QueryVO::Range(rv) => {
            w.u8(2);
            write_boundary(&mut w, &rv.left);
            write_boundary(&mut w, &rv.right);
            w.u32(rv.entries.len() as u32);
            for e in &rv.entries {
                write_entry(&mut w, e);
            }
            write_signatures(&mut w, &rv.signatures);
        }
    }
    w.into_bytes()
}

/// Decodes a [`QueryVO`] from bytes, validating framing.
pub fn decode_vo(data: &[u8]) -> Result<QueryVO, WireError> {
    let mut r = Reader::new(data);
    let vo = match r.u8()? {
        0 => QueryVO::TriviallyEmpty,
        1 => {
            let prev = match r.u8()? {
                0 => PrevG::Edge,
                1 => PrevG::Opaque(r.bytes()?.to_vec()),
                _ => return Err(WireError("bad prev tag")),
            };
            let left = read_boundary(&mut r)?;
            let right = read_boundary(&mut r)?;
            let signature = read_signatures(&mut r)?;
            QueryVO::Empty(EmptyProof {
                prev,
                left,
                right,
                signature,
            })
        }
        2 => {
            let left = read_boundary(&mut r)?;
            let right = read_boundary(&mut r)?;
            let n = r.u32()? as usize;
            if n > 1 << 24 {
                return Err(WireError("too many entries"));
            }
            let mut entries = r.vec_for(n, MIN_ENTRY_LEN);
            for _ in 0..n {
                entries.push(read_entry(&mut r)?);
            }
            let signatures = read_signatures(&mut r)?;
            QueryVO::Range(RangeVO {
                left,
                right,
                entries,
                signatures,
            })
        }
        _ => return Err(WireError("bad VO tag")),
    };
    if !r.done() {
        return Err(WireError("trailing bytes"));
    }
    Ok(vo)
}

/// Encodes a certificate (everything a user needs to verify): table name,
/// schema, domain, scheme config, owner public key. Shipped over an
/// authenticated channel in a real deployment.
pub fn encode_certificate(cert: &crate::owner::Certificate) -> Vec<u8> {
    let mut w = Writer::new();
    w.bytes(cert.table_name.as_bytes());
    write_schema(&mut w, &cert.schema);
    w.i64(cert.domain.l());
    w.i64(cert.domain.u());
    match cert.config.mode {
        crate::scheme::Mode::Conceptual => w.u8(0),
        crate::scheme::Mode::Optimized { base } => {
            w.u8(1);
            w.u32(base);
        }
    }
    w.u8(cert.config.digest_len as u8);
    w.u8(cert.config.aggregate_signatures as u8);
    w.bytes(&cert.public_key.modulus().to_bytes_be());
    w.bytes(&cert.public_key.exponent().to_bytes_be());
    w.into_bytes()
}

/// Decodes a certificate.
pub fn decode_certificate(data: &[u8]) -> Result<crate::owner::Certificate, WireError> {
    let mut r = Reader::new(data);
    let table_name =
        String::from_utf8(r.bytes()?.to_vec()).map_err(|_| WireError("bad table name"))?;
    let schema = read_schema(&mut r)?;
    let l = r.i64()?;
    let u = r.i64()?;
    if u <= l || (u as i128 - l as i128) < 4 {
        return Err(WireError("bad domain bounds"));
    }
    let mode = match r.u8()? {
        0 => crate::scheme::Mode::Conceptual,
        1 => {
            let base = r.u32()?;
            if base < 2 {
                return Err(WireError("bad base"));
            }
            crate::scheme::Mode::Optimized { base }
        }
        _ => return Err(WireError("bad mode tag")),
    };
    let digest_len = r.u8()? as usize;
    if !(16..=32).contains(&digest_len) {
        return Err(WireError("bad digest length"));
    }
    let aggregate_signatures = match r.u8()? {
        0 => false,
        1 => true,
        _ => return Err(WireError("bad bool")),
    };
    let n = adp_crypto::BigUint::from_bytes_be(r.bytes()?);
    let e = adp_crypto::BigUint::from_bytes_be(r.bytes()?);
    if n.is_zero() || e.is_zero() {
        return Err(WireError("bad public key"));
    }
    if !r.done() {
        return Err(WireError("trailing bytes"));
    }
    Ok(crate::owner::Certificate {
        table_name,
        schema,
        domain: crate::domain::Domain::new(l, u),
        config: crate::scheme::SchemeConfig {
            mode,
            digest_len,
            aggregate_signatures,
        },
        public_key: adp_crypto::PublicKey::from_parts(n, e),
    })
}

fn write_schema(w: &mut Writer, schema: &adp_relation::Schema) {
    w.u32(schema.arity() as u32);
    for col in schema.columns() {
        w.bytes(col.name.as_bytes());
        w.u8(match col.ty {
            adp_relation::ValueType::Int => 0,
            adp_relation::ValueType::Text => 1,
            adp_relation::ValueType::Bytes => 2,
            adp_relation::ValueType::Bool => 3,
        });
    }
    w.u32(schema.key_index() as u32);
}

fn read_schema(r: &mut Reader) -> Result<adp_relation::Schema, WireError> {
    let arity = r.u32()? as usize;
    if arity == 0 || arity > 1 << 12 {
        return Err(WireError("bad schema arity"));
    }
    let mut cols = r.vec_for(arity, MIN_BYTES_LEN + 1);
    for _ in 0..arity {
        let name =
            String::from_utf8(r.bytes()?.to_vec()).map_err(|_| WireError("bad column name"))?;
        let ty = match r.u8()? {
            0 => adp_relation::ValueType::Int,
            1 => adp_relation::ValueType::Text,
            2 => adp_relation::ValueType::Bytes,
            3 => adp_relation::ValueType::Bool,
            _ => return Err(WireError("bad column type")),
        };
        cols.push(adp_relation::Column::new(name, ty));
    }
    let key_idx = r.u32()? as usize;
    if key_idx >= arity {
        return Err(WireError("bad key index"));
    }
    let key_name = cols[key_idx].name.clone();
    // Schema::new panics on inconsistencies; validate first.
    if cols[key_idx].ty != adp_relation::ValueType::Int {
        return Err(WireError("key column must be INT"));
    }
    let mut names: Vec<&str> = cols.iter().map(|c| c.name.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    if names.len() != cols.len() {
        return Err(WireError("duplicate column names"));
    }
    Ok(adp_relation::Schema::new(cols, &key_name))
}

/// Encodes the owner → publisher dissemination payload: the signature list
/// for chain positions `0..=n+1`.
pub fn encode_signatures(sigs: &[Signature]) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(sigs.len() as u32);
    for s in sigs {
        w.bytes(&s.to_bytes());
    }
    w.into_bytes()
}

/// Decodes a signature list.
pub fn decode_signatures(data: &[u8]) -> Result<Vec<Signature>, WireError> {
    let mut r = Reader::new(data);
    let n = r.u32()? as usize;
    if n > 1 << 24 {
        return Err(WireError("too many signatures"));
    }
    let mut out = r.vec_for(n, MIN_BYTES_LEN);
    for _ in 0..n {
        out.push(Signature::from_bytes(r.bytes()?));
    }
    if !r.done() {
        return Err(WireError("trailing bytes"));
    }
    Ok(out)
}

/// Encodes a result set (records of self-describing values).
pub fn encode_records(records: &[Record]) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(records.len() as u32);
    for rec in records {
        w.u32(rec.arity() as u32);
        for v in rec.values() {
            w.value(v);
        }
    }
    w.into_bytes()
}

/// Decodes a result set.
pub fn decode_records(data: &[u8]) -> Result<Vec<Record>, WireError> {
    let mut r = Reader::new(data);
    let n = r.u32()? as usize;
    if n > 1 << 24 {
        return Err(WireError("too many records"));
    }
    let mut out = r.vec_for(n, MIN_RECORD_LEN);
    for _ in 0..n {
        let arity = r.u32()? as usize;
        if arity > 1 << 16 {
            return Err(WireError("record arity too large"));
        }
        let mut values = r.vec_for(arity, MIN_VALUE_LEN);
        for _ in 0..arity {
            values.push(r.value()?);
        }
        out.push(Record::new(values));
    }
    if !r.done() {
        return Err(WireError("trailing bytes"));
    }
    Ok(out)
}

// ---------------------------------------------------------------- queries

pub(crate) fn write_key_bound(w: &mut Writer, b: &Bound<i64>) {
    match b {
        Bound::Unbounded => w.u8(0),
        Bound::Included(v) => {
            w.u8(1);
            w.i64(*v);
        }
        Bound::Excluded(v) => {
            w.u8(2);
            w.i64(*v);
        }
    }
}

pub(crate) fn read_key_bound(r: &mut Reader) -> Result<Bound<i64>, WireError> {
    Ok(match r.u8()? {
        0 => Bound::Unbounded,
        1 => Bound::Included(r.i64()?),
        2 => Bound::Excluded(r.i64()?),
        _ => return Err(WireError("bad bound tag")),
    })
}

fn compare_op_tag(op: CompareOp) -> u8 {
    match op {
        CompareOp::Eq => 0,
        CompareOp::Ne => 1,
        CompareOp::Lt => 2,
        CompareOp::Le => 3,
        CompareOp::Gt => 4,
        CompareOp::Ge => 5,
    }
}

fn compare_op_from_tag(tag: u8) -> Result<CompareOp, WireError> {
    Ok(match tag {
        0 => CompareOp::Eq,
        1 => CompareOp::Ne,
        2 => CompareOp::Lt,
        3 => CompareOp::Le,
        4 => CompareOp::Gt,
        5 => CompareOp::Ge,
        _ => return Err(WireError("bad compare op tag")),
    })
}

/// Encodes a [`SelectQuery`] — the request half of the publisher protocol
/// (`adp-server` carries these inside `QueryRequest` frames; see
/// `docs/PROTOCOL.md`).
///
/// Layout: key-range bounds (tagged), filter list, projection, DISTINCT
/// flag. The encoding round-trips exactly:
///
/// ```
/// use adp_core::wire::{decode_query, encode_query};
/// use adp_relation::{KeyRange, SelectQuery};
///
/// let q = SelectQuery::range(KeyRange::closed(2_000, 9_000)).distinct();
/// assert_eq!(decode_query(&encode_query(&q)).unwrap(), q);
/// ```
pub fn encode_query(query: &SelectQuery) -> Vec<u8> {
    let mut w = Writer::new();
    write_query(&mut w, &query.range, query);
    w.into_bytes()
}

/// Writes `query` as [`encode_query`] does, with `range` in place of its
/// own key range.
pub(crate) fn write_query(w: &mut Writer, range: &KeyRange, query: &SelectQuery) {
    write_key_bound(w, &range.lo);
    write_key_bound(w, &range.hi);
    w.u32(query.filters.len() as u32);
    for f in &query.filters {
        w.bytes(f.column.as_bytes());
        w.u8(compare_op_tag(f.op));
        w.value(&f.value);
    }
    write_projection(w, &query.projection);
    w.u8(query.distinct as u8);
}

pub(crate) fn write_projection(w: &mut Writer, projection: &Projection) {
    match projection {
        Projection::All => w.u8(0),
        Projection::Columns(cols) => {
            w.u8(1);
            w.u32(cols.len() as u32);
            for c in cols {
                w.bytes(c.as_bytes());
            }
        }
    }
}

pub(crate) fn read_projection(r: &mut Reader) -> Result<Projection, WireError> {
    Ok(match r.u8()? {
        0 => Projection::All,
        1 => {
            let nc = r.u32()? as usize;
            if nc > 1 << 12 {
                return Err(WireError("too many projected columns"));
            }
            let mut cols = r.vec_for(nc, MIN_BYTES_LEN);
            for _ in 0..nc {
                cols.push(
                    String::from_utf8(r.bytes()?.to_vec())
                        .map_err(|_| WireError("bad column name"))?,
                );
            }
            Projection::Columns(cols)
        }
        _ => return Err(WireError("bad projection tag")),
    })
}

/// Decodes a [`SelectQuery`], validating framing (a malicious client
/// controls these bytes just as a malicious publisher controls VO bytes).
pub fn decode_query(data: &[u8]) -> Result<SelectQuery, WireError> {
    let mut r = Reader::new(data);
    let query = read_query(&mut r)?;
    if !r.done() {
        return Err(WireError("trailing bytes"));
    }
    Ok(query)
}

fn read_query(r: &mut Reader) -> Result<SelectQuery, WireError> {
    let lo = read_key_bound(r)?;
    let hi = read_key_bound(r)?;
    let nf = r.u32()? as usize;
    if nf > 1 << 10 {
        return Err(WireError("too many filters"));
    }
    let mut filters = r.vec_for(nf, MIN_BYTES_LEN + 1 + MIN_VALUE_LEN);
    for _ in 0..nf {
        let column =
            String::from_utf8(r.bytes()?.to_vec()).map_err(|_| WireError("bad column name"))?;
        let op = compare_op_from_tag(r.u8()?)?;
        let value = r.value()?;
        filters.push(Predicate { column, op, value });
    }
    let projection = read_projection(r)?;
    let distinct = match r.u8()? {
        0 => false,
        1 => true,
        _ => return Err(WireError("bad bool")),
    };
    Ok(SelectQuery {
        range: KeyRange { lo, hi },
        filters,
        projection,
        distinct,
    })
}

fn write_record(w: &mut Writer, rec: &Record) {
    w.u32(rec.arity() as u32);
    for v in rec.values() {
        w.value(v);
    }
}

fn read_record(r: &mut Reader) -> Result<Record, WireError> {
    let arity = r.u32()? as usize;
    if arity > 1 << 16 {
        return Err(WireError("record arity too large"));
    }
    let mut values = r.vec_for(arity, MIN_VALUE_LEN);
    for _ in 0..arity {
        values.push(r.value()?);
    }
    Ok(Record::new(values))
}

/// Encodes a pk-fk join result (Section 4.3): the outer rows followed by
/// the distinct matched inner rows.
pub fn encode_join_result(result: &crate::join::PkFkJoinResult) -> Vec<u8> {
    let mut w = Writer::new();
    w.bytes(&encode_records(&result.outer_rows));
    w.bytes(&encode_records(&result.inner_rows));
    w.into_bytes()
}

/// Decodes a pk-fk join result; rejects trailing bytes.
pub fn decode_join_result(data: &[u8]) -> Result<crate::join::PkFkJoinResult, WireError> {
    let mut r = Reader::new(data);
    let outer_rows = decode_records(r.bytes()?)?;
    let inner_rows = decode_records(r.bytes()?)?;
    if !r.done() {
        return Err(WireError("trailing bytes"));
    }
    Ok(crate::join::PkFkJoinResult {
        outer_rows,
        inner_rows,
    })
}

/// Encodes a pk-fk join VO: the outer-side [`QueryVO`] plus one inner
/// record proof per distinct foreign key.
pub fn encode_join_vo(vo: &crate::join::PkFkJoinVO) -> Vec<u8> {
    let mut w = Writer::new();
    w.bytes(&encode_vo(&vo.outer));
    w.u32(vo.inner.len() as u32);
    for p in &vo.inner {
        write_record(&mut w, &p.record);
        write_chains(&mut w, &p.chains);
        write_attrs(&mut w, &p.attrs);
        w.bytes(&p.prev_g);
        w.bytes(&p.next_g);
    }
    match &vo.inner_signatures {
        None => w.u8(0),
        Some(s) => {
            w.u8(1);
            write_signatures(&mut w, s);
        }
    }
    w.into_bytes()
}

/// Decodes a pk-fk join VO; rejects trailing bytes.
pub fn decode_join_vo(data: &[u8]) -> Result<crate::join::PkFkJoinVO, WireError> {
    let mut r = Reader::new(data);
    let outer = decode_vo(r.bytes()?)?;
    let n = r.u32()? as usize;
    if n > 1 << 24 {
        return Err(WireError("too many inner proofs"));
    }
    let mut inner = r.vec_for(n, MIN_RECORD_LEN + 1 + MIN_ATTRS_LEN + 2 * MIN_BYTES_LEN);
    for _ in 0..n {
        let record = read_record(&mut r)?;
        let chains = read_chains(&mut r)?;
        let attrs = read_attrs(&mut r)?;
        let prev_g = r.bytes()?.to_vec();
        let next_g = r.bytes()?.to_vec();
        inner.push(crate::join::InnerRecordProof {
            record,
            chains,
            attrs,
            prev_g,
            next_g,
        });
    }
    let inner_signatures = match r.u8()? {
        0 => None,
        1 => Some(read_signatures(&mut r)?),
        _ => return Err(WireError("bad option tag")),
    };
    if !r.done() {
        return Err(WireError("trailing bytes"));
    }
    Ok(crate::join::PkFkJoinVO {
        outer,
        inner,
        inner_signatures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adp_crypto::{hasher::HashDomain, Hasher};

    fn d(s: &[u8]) -> Digest {
        Hasher::default().hash(HashDomain::Data, s)
    }

    fn sample_boundary() -> BoundaryProof {
        BoundaryProof {
            intermediates: vec![d(b"i0"), d(b"i1"), d(b"i2")],
            selector: Some(RepProof::NonCanonical {
                index: 1,
                canon_digest: d(b"canon"),
                path: InclusionProof {
                    leaf_index: 1,
                    steps: vec![ProofStep {
                        sibling: d(b"sib"),
                        sibling_is_left: true,
                    }],
                },
            }),
            other_component: d(b"other"),
            attr_root: d(b"attr"),
        }
    }

    fn sample_attrs() -> AttrProof {
        AttrProof {
            disclosed: vec![(1, Value::Int(7)), (2, Value::from("x"))],
            hidden: vec![(0, d(b"h0"))],
            root: d(b"root"),
        }
    }

    #[test]
    fn vo_roundtrip_trivially_empty() {
        let vo = QueryVO::TriviallyEmpty;
        assert_eq!(decode_vo(&encode_vo(&vo)).unwrap(), vo);
    }

    #[test]
    fn vo_roundtrip_empty() {
        let vo = QueryVO::Empty(EmptyProof {
            prev: PrevG::Opaque(vec![1, 2, 3]),
            left: sample_boundary(),
            right: BoundaryProof {
                intermediates: vec![d(b"x")],
                selector: Some(RepProof::Canonical { mht_root: d(b"r") }),
                other_component: d(b"o"),
                attr_root: d(b"a"),
            },
            signature: SignatureProof::Individual(vec![Signature::from_bytes(&[9u8; 64])]),
        });
        assert_eq!(decode_vo(&encode_vo(&vo)).unwrap(), vo);
    }

    #[test]
    fn vo_roundtrip_range() {
        let vo = QueryVO::Range(RangeVO {
            left: sample_boundary(),
            right: sample_boundary(),
            entries: vec![
                EntryProof::Match {
                    chains: EntryChains::Optimized {
                        up_root: d(b"u"),
                        down_root: d(b"dn"),
                    },
                    attrs: sample_attrs(),
                },
                EntryProof::Filtered {
                    up_component: d(b"uc"),
                    down_component: d(b"dc"),
                    attrs: sample_attrs(),
                },
                EntryProof::Duplicate {
                    of: 0,
                    chains: EntryChains::Conceptual,
                    attrs: sample_attrs(),
                },
            ],
            signatures: SignatureProof::Aggregated(AggregateSignature::from_bytes(&[5u8; 64], 3)),
        });
        assert_eq!(decode_vo(&encode_vo(&vo)).unwrap(), vo);
    }

    #[test]
    fn records_roundtrip() {
        let records = vec![
            Record::new(vec![
                Value::Int(-5),
                Value::from("héllo"),
                Value::Bool(true),
            ]),
            Record::new(vec![Value::from(vec![0u8, 255, 3])]),
            Record::new(vec![]),
        ];
        assert_eq!(decode_records(&encode_records(&records)).unwrap(), records);
    }

    #[test]
    fn truncated_input_rejected() {
        let vo = QueryVO::Range(RangeVO {
            left: sample_boundary(),
            right: sample_boundary(),
            entries: vec![],
            signatures: SignatureProof::Individual(vec![]),
        });
        let bytes = encode_vo(&vo);
        for cut in [1usize, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_vo(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_vo(&QueryVO::TriviallyEmpty);
        bytes.push(0);
        assert!(decode_vo(&bytes).is_err());
    }

    #[test]
    fn bad_tags_rejected() {
        assert!(decode_vo(&[9]).is_err());
        assert!(decode_value(&[0x07, 1, 2]).is_err());
        assert!(decode_value(&[]).is_err());
        assert!(decode_value(&[0x04, 2]).is_err());
        assert!(decode_value(&[0x01, 1, 2]).is_err());
    }

    #[test]
    fn value_kinds_roundtrip() {
        for v in [
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::from(""),
            Value::from("日本語"),
            Value::from(Vec::<u8>::new()),
            Value::Bool(false),
        ] {
            assert_eq!(decode_value(&v.encode()).unwrap(), v, "{v:?}");
        }
    }

    #[test]
    fn query_roundtrip() {
        use adp_relation::{CompareOp, Predicate};
        let queries = [
            SelectQuery::range(KeyRange::all()),
            SelectQuery::range(KeyRange::closed(2_000, 9_000)),
            SelectQuery::range(KeyRange {
                lo: Bound::Excluded(-5),
                hi: Bound::Unbounded,
            }),
            SelectQuery::range(KeyRange::less_than(100))
                .filter(Predicate::new("dept", CompareOp::Eq, 1i64))
                .filter(Predicate::new("tag", CompareOp::Ne, "x"))
                .project(&["dept", "tag"])
                .distinct(),
        ];
        for q in queries {
            assert_eq!(decode_query(&encode_query(&q)).unwrap(), q, "{q:?}");
        }
    }

    /// Fixed vector quoted byte-for-byte in `docs/PROTOCOL.md` — keep the
    /// two in sync.
    #[test]
    fn query_fixed_vector_matches_protocol_doc() {
        let q = SelectQuery::range(KeyRange::closed(2_000, 9_000));
        assert_eq!(
            encode_query(&q),
            vec![
                0x01, 0xD0, 0x07, 0, 0, 0, 0, 0, 0, // lo: Included(2000)
                0x01, 0x28, 0x23, 0, 0, 0, 0, 0, 0, // hi: Included(9000)
                0, 0, 0, 0,    // no filters
                0x00, // projection: All
                0x00, // distinct: false
            ]
        );
    }

    /// Fixed vectors for the value encodings quoted in `docs/PROTOCOL.md`.
    #[test]
    fn value_fixed_vectors_match_protocol_doc() {
        assert_eq!(Value::Int(7).encode(), vec![0x01, 7, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(Value::from("hi").encode(), vec![0x02, b'h', b'i']);
        assert_eq!(Value::Bool(true).encode(), vec![0x04, 1]);
    }

    #[test]
    fn query_bad_bytes_rejected() {
        // Bad bound tag.
        assert!(decode_query(&[3]).is_err());
        // Truncations never panic and always error.
        let bytes = encode_query(
            &SelectQuery::range(KeyRange::closed(0, 10))
                .filter(adp_relation::Predicate::new(
                    "c",
                    adp_relation::CompareOp::Lt,
                    5i64,
                ))
                .project(&["c"]),
        );
        for cut in 0..bytes.len() {
            assert!(decode_query(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing bytes rejected.
        let mut bytes = encode_query(&SelectQuery::range(KeyRange::all()));
        bytes.push(0);
        assert!(decode_query(&bytes).is_err());
    }

    #[test]
    fn digest_length_validation() {
        let mut w = Writer::new();
        w.u8(5); // invalid digest length
        w.bytes(b"xxxxx");
        let mut r = Reader::new(&[5, 1, 2, 3, 4, 5]);
        assert!(r.digest().is_err());
    }
}
