//! The append-only update log: length-prefixed, CRC-framed batch records.
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "ADPL" (0x41 0x44 0x50 0x4C)
//! 4       2     format version, u16 LE (currently 1)
//! 6       4     CRC-32 of bytes 0..6
//! ```
//!
//! followed by zero or more records, each framed as
//!
//! ```text
//! u32 LE  payload length
//! ...     payload
//! u32 LE  CRC-32(length ‖ payload)
//! ```
//!
//! A record payload (encoded with the `adp_core::wire` primitives) is:
//!
//! ```text
//! u64   seq              must be contiguous from the snapshot's base_seq
//! u32   op_count         (≤ 2^20)
//!   per op:
//!     u8  tag: 0 = insert · 1 = delete · 2 = update
//!     insert:  u32 arity (≤ 2^16), then arity length-prefixed values
//!     delete:  i64 key, u32 replica
//!     update:  i64 key, u32 replica, u32 arity, then the values
//! u32   resigned_count   (≤ 2^20)
//!   per entry:
//!     u32    chain position (post-batch)
//!     bytes  signature
//! ```
//!
//! Decoding is strict: a torn tail, a flipped bit, or trailing garbage is
//! a typed [`StoreError`]. Integrity of the *content* is separately
//! enforced at replay time: [`SignedTable::replay_batch`] verifies every
//! replayed signature against the recomputed link digest, so even a
//! record forged with a valid CRC cannot smuggle unauthenticated data
//! into the table.
//!
//! [`SignedTable::replay_batch`]: adp_core::prelude::SignedTable::replay_batch

use crate::crc32::crc32_multi;
use crate::StoreError;
use adp_core::prelude::Mutation;
use adp_core::wire::{Reader, Writer, MIN_BYTES_LEN, MIN_VALUE_LEN};
use adp_crypto::Signature;
use adp_relation::Record;

/// Log file magic.
pub const LOG_MAGIC: [u8; 4] = *b"ADPL";

/// Log format version written (and the only one read) by this build.
pub const LOG_VERSION: u16 = 1;

/// Fixed log header length (magic + version + header CRC).
pub const LOG_HEADER_LEN: usize = 10;

/// Hard cap on a single record payload, checked before allocation.
pub const MAX_RECORD_LEN: u32 = 1 << 28; // 256 MiB

const MAX_OPS: usize = 1 << 20;
const MAX_ARITY: usize = 1 << 16;

/// One logged batch: the canonical mutations of an `Owner::apply_batch`
/// call plus the re-signed chain positions, exactly as
/// [`adp_core::owner::BatchReport`] reports them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogRecord {
    /// Sequence number; contiguous from the snapshot's `base_seq`.
    pub seq: u64,
    /// Mutations in canonical application order.
    pub ops: Vec<Mutation>,
    /// `(chain position, signature)` for every re-signed position.
    pub resigned: Vec<(u32, Signature)>,
}

/// The 10-byte log file header.
pub fn log_header() -> [u8; LOG_HEADER_LEN] {
    let mut h = [0u8; LOG_HEADER_LEN];
    h[0..4].copy_from_slice(&LOG_MAGIC);
    h[4..6].copy_from_slice(&LOG_VERSION.to_le_bytes());
    let crc = crc32_multi(&[&h[0..6]]);
    h[6..10].copy_from_slice(&crc.to_le_bytes());
    h
}

/// Validates a log file's header, returning the body (the bytes after it).
pub fn check_log_header(bytes: &[u8]) -> Result<&[u8], StoreError> {
    const HDR: &str = "log header";
    if bytes.len() < LOG_HEADER_LEN {
        return Err(StoreError::Truncated { context: HDR });
    }
    if bytes[0..4] != LOG_MAGIC {
        return Err(StoreError::BadMagic { context: HDR });
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().unwrap());
    if version != LOG_VERSION {
        return Err(StoreError::BadVersion {
            context: HDR,
            got: version,
        });
    }
    let stored = u32::from_le_bytes(bytes[6..10].try_into().unwrap());
    if crc32_multi(&[&bytes[0..6]]) != stored {
        return Err(StoreError::CrcMismatch { context: HDR });
    }
    Ok(&bytes[LOG_HEADER_LEN..])
}

fn write_record_values(w: &mut Writer, record: &Record) {
    w.u32(record.arity() as u32);
    for v in record.values() {
        w.value(v);
    }
}

fn read_record_values(r: &mut Reader) -> Result<Record, StoreError> {
    let arity = r.u32()? as usize;
    if arity > MAX_ARITY {
        return Err(StoreError::BadSection {
            context: "log record arity too large",
        });
    }
    let mut values = r.vec_for(arity, MIN_VALUE_LEN);
    for _ in 0..arity {
        values.push(r.value()?);
    }
    Ok(Record::new(values))
}

fn encode_payload(rec: &LogRecord) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(rec.seq);
    w.u32(rec.ops.len() as u32);
    for op in &rec.ops {
        match op {
            Mutation::Insert(record) => {
                w.u8(0);
                write_record_values(&mut w, record);
            }
            Mutation::Delete { key, replica } => {
                w.u8(1);
                w.i64(*key);
                w.u32(*replica);
            }
            Mutation::Update {
                key,
                replica,
                record,
            } => {
                w.u8(2);
                w.i64(*key);
                w.u32(*replica);
                write_record_values(&mut w, record);
            }
        }
    }
    w.u32(rec.resigned.len() as u32);
    for (pos, sig) in &rec.resigned {
        w.u32(*pos);
        w.bytes(&sig.to_bytes());
    }
    w.into_bytes()
}

fn decode_payload(payload: &[u8]) -> Result<LogRecord, StoreError> {
    let mut r = Reader::new(payload);
    let seq = r.u64()?;
    let n_ops = r.u32()? as usize;
    if n_ops > MAX_OPS {
        return Err(StoreError::BadSection {
            context: "log record has too many ops",
        });
    }
    // A tag and, at the least, an insert's empty record.
    let mut ops = r.vec_for(n_ops, 1 + 4);
    for _ in 0..n_ops {
        ops.push(match r.u8()? {
            0 => Mutation::Insert(read_record_values(&mut r)?),
            1 => Mutation::Delete {
                key: r.i64()?,
                replica: r.u32()?,
            },
            2 => Mutation::Update {
                key: r.i64()?,
                replica: r.u32()?,
                record: read_record_values(&mut r)?,
            },
            _ => {
                return Err(StoreError::BadSection {
                    context: "unknown mutation tag",
                })
            }
        });
    }
    let n_sigs = r.u32()? as usize;
    if n_sigs > MAX_OPS {
        return Err(StoreError::BadSection {
            context: "log record has too many signatures",
        });
    }
    // A chain position and a signature blob.
    let mut resigned = r.vec_for(n_sigs, 4 + MIN_BYTES_LEN);
    for _ in 0..n_sigs {
        let pos = r.u32()?;
        resigned.push((pos, Signature::from_bytes(r.bytes()?)));
    }
    if !r.done() {
        return Err(StoreError::TrailingBytes {
            context: "log record payload",
        });
    }
    Ok(LogRecord { seq, ops, resigned })
}

/// Encodes one framed record: `u32 length ‖ payload ‖ u32 CRC`.
pub fn encode_record(rec: &LogRecord) -> Vec<u8> {
    let payload = encode_payload(rec);
    let len = (payload.len() as u32).to_le_bytes();
    let crc = crc32_multi(&[&len, &payload]);
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&len);
    out.extend_from_slice(&payload);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Decodes every record in a log body (the bytes after the header).
/// Strict: a torn or corrupt tail is an error, not an ignorable remainder
/// — recovery is an explicit operator decision (see `docs/STORAGE.md`).
pub fn decode_records(mut body: &[u8]) -> Result<Vec<LogRecord>, StoreError> {
    const REC: &str = "log record frame";
    let mut out = Vec::new();
    while !body.is_empty() {
        if body.len() < 4 {
            return Err(StoreError::Truncated { context: REC });
        }
        let len = u32::from_le_bytes(body[0..4].try_into().unwrap());
        if len > MAX_RECORD_LEN {
            return Err(StoreError::BadSection {
                context: "log record length exceeds cap",
            });
        }
        let len = len as usize;
        if body.len() < 4 + len + 4 {
            return Err(StoreError::Truncated { context: REC });
        }
        let payload = &body[4..4 + len];
        let stored = u32::from_le_bytes(body[4 + len..4 + len + 4].try_into().unwrap());
        if crc32_multi(&[&body[0..4], payload]) != stored {
            return Err(StoreError::CrcMismatch { context: REC });
        }
        out.push(decode_payload(payload)?);
        body = &body[4 + len + 4..];
    }
    Ok(out)
}

/// Like [`decode_records`], but treats an **incomplete final frame** as a
/// torn append — the state a crash (or `kill -9`) mid-`append_record`
/// leaves behind — rather than an error. Returns the records before the
/// tear plus `Some(offset)` of where the torn tail starts in `body`, so
/// the caller can truncate it away before appending again.
///
/// Only *incompleteness* is forgiven: the append discipline writes a
/// record's bytes sequentially, so a crash leaves a strict byte prefix.
/// A *complete* frame that fails its CRC or payload decode cannot be
/// produced by a torn append and is still a typed error — corruption and
/// tampering stay loud. An absurd length prefix (beyond
/// [`MAX_RECORD_LEN`]) is unparseable-past and can only arise from a torn
/// prefix under that discipline, so it is treated as the tear.
pub fn decode_records_recovering(
    body: &[u8],
) -> Result<(Vec<LogRecord>, Option<usize>), StoreError> {
    const REC: &str = "log record frame";
    let mut out = Vec::new();
    let mut off = 0usize;
    while off < body.len() {
        let rest = &body[off..];
        if rest.len() < 4 {
            return Ok((out, Some(off)));
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().unwrap());
        if len > MAX_RECORD_LEN {
            return Ok((out, Some(off)));
        }
        let len = len as usize;
        if rest.len() < 4 + len + 4 {
            return Ok((out, Some(off)));
        }
        let payload = &rest[4..4 + len];
        let stored = u32::from_le_bytes(rest[4 + len..4 + len + 4].try_into().unwrap());
        if crc32_multi(&[&rest[0..4], payload]) != stored {
            return Err(StoreError::CrcMismatch { context: REC });
        }
        out.push(decode_payload(payload)?);
        off += 4 + len + 4;
    }
    Ok((out, None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adp_relation::Value;

    fn sample_record(seq: u64) -> LogRecord {
        LogRecord {
            seq,
            ops: vec![
                Mutation::Delete {
                    key: -3,
                    replica: 1,
                },
                Mutation::Update {
                    key: 9,
                    replica: 0,
                    record: Record::new(vec![Value::Int(9), Value::from("x")]),
                },
                Mutation::Insert(Record::new(vec![Value::Int(7), Value::Bool(true)])),
            ],
            resigned: vec![
                (2, Signature::from_bytes(&[0xAB; 64])),
                (3, Signature::from_bytes(&[0xCD; 64])),
            ],
        }
    }

    #[test]
    fn records_roundtrip() {
        let recs = vec![sample_record(0), sample_record(1)];
        let mut body = Vec::new();
        for r in &recs {
            body.extend_from_slice(&encode_record(r));
        }
        assert_eq!(decode_records(&body).unwrap(), recs);
        assert!(decode_records(&[]).unwrap().is_empty());
    }

    #[test]
    fn header_roundtrip_and_rejections() {
        let h = log_header();
        assert!(check_log_header(&h).unwrap().is_empty());

        let mut bad = h;
        bad[0] = b'Z';
        assert!(matches!(
            check_log_header(&bad),
            Err(StoreError::BadMagic { .. })
        ));

        let mut bad = h;
        bad[4] = 9;
        assert!(matches!(
            check_log_header(&bad),
            Err(StoreError::BadVersion { got: 9, .. })
        ));

        let mut bad = h;
        bad[7] ^= 0x10;
        assert!(matches!(
            check_log_header(&bad),
            Err(StoreError::CrcMismatch { .. })
        ));

        assert!(matches!(
            check_log_header(&h[..5]),
            Err(StoreError::Truncated { .. })
        ));
    }

    #[test]
    fn corrupt_frames_are_typed_errors() {
        let body = encode_record(&sample_record(5));

        // Every truncation errors.
        for cut in 0..body.len() {
            if cut == 0 {
                continue; // empty body is a valid (empty) log
            }
            assert!(decode_records(&body[..cut]).is_err(), "cut at {cut}");
        }

        // Every single-byte flip errors (everything is CRC-covered).
        for i in 0..body.len() {
            let mut bad = body.clone();
            bad[i] ^= 0x01;
            assert!(decode_records(&bad).is_err(), "flip at {i}");
        }

        // Trailing garbage after a valid record errors.
        let mut bad = body.clone();
        bad.push(0xEE);
        assert!(decode_records(&bad).is_err());
    }

    #[test]
    fn recovering_decode_drops_exactly_the_torn_tail() {
        let full = encode_record(&sample_record(0));
        let mut body = full.clone();
        body.extend_from_slice(&encode_record(&sample_record(1)));

        // No tear: identical to the strict decoder.
        let (recs, torn) = decode_records_recovering(&body).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(torn, None);

        // Every possible crash prefix of the second record recovers the
        // first and reports the tear at the boundary.
        for cut in 1..body.len() - full.len() {
            let torn_body = &body[..full.len() + cut];
            let (recs, torn) = decode_records_recovering(torn_body).unwrap();
            assert_eq!(recs.len(), 1, "cut at +{cut}");
            assert_eq!(recs[0], sample_record(0));
            assert_eq!(torn, Some(full.len()), "cut at +{cut}");
        }
    }

    #[test]
    fn recovering_decode_still_rejects_corruption() {
        let body = encode_record(&sample_record(3));
        // A complete frame with a flipped payload byte is corruption,
        // not a tear.
        let mut bad = body.clone();
        bad[6] ^= 0x01;
        assert!(decode_records_recovering(&bad).is_err());
        // A flipped CRC likewise.
        let mut bad = body.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(decode_records_recovering(&bad).is_err());
    }

    #[test]
    fn recovering_decode_treats_absurd_length_as_tear() {
        let mut body = encode_record(&sample_record(0));
        let at = body.len();
        body.extend_from_slice(&(MAX_RECORD_LEN + 1).to_le_bytes());
        body.extend_from_slice(&[0u8; 32]);
        let (recs, torn) = decode_records_recovering(&body).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(torn, Some(at));
    }
}
