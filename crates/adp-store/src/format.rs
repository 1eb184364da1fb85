//! The snapshot format: a versioned, CRC-framed image of a [`SignedTable`].
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "ADPS" (0x41 0x44 0x50 0x53)
//! 4       2     format version, u16 LE (currently 1)
//! 6       8     base_seq, u64 LE — sequence number of the first update-log
//!               record that applies on top of this snapshot
//! 14      4     CRC-32 of bytes 0..14
//! ```
//!
//! followed by exactly three sections, in this order:
//!
//! ```text
//! tag 0x01  CERT  adp_core::wire::encode_certificate bytes
//!                 (table name, schema, domain, scheme config, public key)
//! tag 0x02  ROWS  adp_core::wire::encode_records bytes (table rows in
//!                 (key, replica) order)
//! tag 0x03  SIGS  adp_core::wire::encode_signatures bytes (chain
//!                 positions 0..=n+1)
//! ```
//!
//! each framed as `u8 tag · u32 LE length · payload · u32 LE CRC-32(tag ‖
//! length ‖ payload)`. Every byte of the file is covered by a checksum, so
//! any single-bit corruption is a guaranteed typed error. Decoding rejects
//! trailing bytes. `docs/STORAGE.md` carries the same specification with a
//! worked example.
//!
//! The snapshot deliberately stores no digests: `g(r)`, the rep-MHT roots
//! and the link digests are all recomputed by
//! [`SignedTable::from_parts`] at load time, which is what makes a
//! reloaded table *byte-identical* to the in-memory original — the only
//! owner-private material, the signatures, is stored verbatim.

use crate::crc32::crc32_multi;
use crate::StoreError;
use adp_core::owner::Certificate;
use adp_core::prelude::SignedTable;
use adp_core::wire;
use adp_crypto::Signature;
use adp_relation::{Record, Table};

/// Snapshot file magic.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"ADPS";

/// Snapshot format version written (and the only one read) by this build.
pub const SNAPSHOT_VERSION: u16 = 1;

/// Fixed header length (magic + version + base_seq + header CRC).
pub const SNAPSHOT_HEADER_LEN: usize = 18;

const SEC_CERT: u8 = 0x01;
const SEC_ROWS: u8 = 0x02;
const SEC_SIGS: u8 = 0x03;

/// Hard cap on a single section payload (a snapshot section holding more
/// than this is refused before allocation).
pub const MAX_SECTION_LEN: u32 = 1 << 30; // 1 GiB

fn push_section(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    let len = (payload.len() as u32).to_le_bytes();
    out.push(tag);
    out.extend_from_slice(&len);
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32_multi(&[&[tag], &len, payload]).to_le_bytes());
}

/// Encodes a snapshot of `st` with the given `base_seq`.
pub fn encode_snapshot(st: &SignedTable, base_seq: u64) -> Vec<u8> {
    let cert = Certificate {
        table_name: st.table().name().to_string(),
        schema: st.table().schema().clone(),
        domain: *st.domain(),
        config: *st.config(),
        public_key: st.public_key().clone(),
    };
    let rows: Vec<Record> = st.table().iter().map(|r| r.record.clone()).collect();
    let sigs: Vec<Signature> = (0..st.chain_len())
        .map(|i| st.entry(i).signature.clone())
        .collect();

    let mut out = Vec::new();
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&base_seq.to_le_bytes());
    let header_crc = crc32_multi(&[&out]);
    out.extend_from_slice(&header_crc.to_le_bytes());

    push_section(&mut out, SEC_CERT, &wire::encode_certificate(&cert));
    push_section(&mut out, SEC_ROWS, &wire::encode_records(&rows));
    push_section(&mut out, SEC_SIGS, &wire::encode_signatures(&sigs));
    out
}

/// Reads one section, returning `(payload, rest)`.
fn read_section<'a>(
    bytes: &'a [u8],
    want_tag: u8,
    context: &'static str,
) -> Result<(&'a [u8], &'a [u8]), StoreError> {
    if bytes.len() < 5 {
        return Err(StoreError::Truncated { context });
    }
    let tag = bytes[0];
    if tag != want_tag {
        return Err(StoreError::BadSection { context });
    }
    let len = u32::from_le_bytes(bytes[1..5].try_into().unwrap());
    if len > MAX_SECTION_LEN {
        return Err(StoreError::BadSection { context });
    }
    let len = len as usize;
    if bytes.len() < 5 + len + 4 {
        return Err(StoreError::Truncated { context });
    }
    let payload = &bytes[5..5 + len];
    let stored = u32::from_le_bytes(bytes[5 + len..5 + len + 4].try_into().unwrap());
    if crc32_multi(&[&bytes[..5], payload]) != stored {
        return Err(StoreError::CrcMismatch { context });
    }
    Ok((payload, &bytes[5 + len + 4..]))
}

/// Decodes a snapshot, reconstructing the [`SignedTable`] (all digests
/// recomputed) and returning it with the snapshot's `base_seq`.
pub fn decode_snapshot(bytes: &[u8]) -> Result<(SignedTable, u64), StoreError> {
    const HDR: &str = "snapshot header";
    if bytes.len() < SNAPSHOT_HEADER_LEN {
        return Err(StoreError::Truncated { context: HDR });
    }
    if bytes[0..4] != SNAPSHOT_MAGIC {
        return Err(StoreError::BadMagic { context: HDR });
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().unwrap());
    if version != SNAPSHOT_VERSION {
        return Err(StoreError::BadVersion {
            context: HDR,
            got: version,
        });
    }
    let base_seq = u64::from_le_bytes(bytes[6..14].try_into().unwrap());
    let stored = u32::from_le_bytes(bytes[14..18].try_into().unwrap());
    if crc32_multi(&[&bytes[..14]]) != stored {
        return Err(StoreError::CrcMismatch { context: HDR });
    }

    let rest = &bytes[SNAPSHOT_HEADER_LEN..];
    let (cert_bytes, rest) = read_section(rest, SEC_CERT, "snapshot CERT section")?;
    let (rows_bytes, rest) = read_section(rest, SEC_ROWS, "snapshot ROWS section")?;
    let (sigs_bytes, rest) = read_section(rest, SEC_SIGS, "snapshot SIGS section")?;
    if !rest.is_empty() {
        return Err(StoreError::TrailingBytes {
            context: "snapshot",
        });
    }

    let cert = wire::decode_certificate(cert_bytes)?;
    let rows = wire::decode_records(rows_bytes)?;
    let sigs = wire::decode_signatures(sigs_bytes)?;
    let table = Table::from_records(cert.table_name.clone(), cert.schema.clone(), rows)
        .map_err(adp_core::owner::OwnerError::from)?;
    let st = SignedTable::from_parts(table, cert.domain, cert.config, sigs, cert.public_key)?;
    Ok((st, base_seq))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adp_core::prelude::*;
    use adp_relation::{Column, Schema, Value, ValueType};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample() -> SignedTable {
        let mut rng = StdRng::seed_from_u64(0x5704);
        let owner = Owner::new(512, &mut rng);
        let schema = Schema::new(
            vec![
                Column::new("k", ValueType::Int),
                Column::new("v", ValueType::Text),
            ],
            "k",
        );
        let mut t = Table::new("snap", schema);
        for i in 0..8i64 {
            t.insert(Record::new(vec![
                Value::Int(10 + i * 7),
                Value::from(format!("r{i}")),
            ]))
            .unwrap();
        }
        owner
            .sign_table(t, Domain::new(0, 1_000), SchemeConfig::default())
            .unwrap()
    }

    #[test]
    fn roundtrip_reconstructs_byte_identically() {
        let st = sample();
        let bytes = encode_snapshot(&st, 42);
        let (loaded, base_seq) = decode_snapshot(&bytes).unwrap();
        assert_eq!(base_seq, 42);
        assert!(loaded.audit());
        assert_eq!(loaded.chain_len(), st.chain_len());
        for p in 0..st.chain_len() {
            assert_eq!(loaded.g_bytes(p), st.g_bytes(p), "g at {p}");
            assert_eq!(
                loaded.entry(p).signature.to_bytes(),
                st.entry(p).signature.to_bytes(),
                "signature at {p}"
            );
        }
        // Deterministic encoding: re-encoding the reload is bit-identical.
        assert_eq!(encode_snapshot(&loaded, 42), bytes);
    }

    #[test]
    fn header_corruptions_are_typed_errors() {
        let st = sample();
        let bytes = encode_snapshot(&st, 0);

        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            decode_snapshot(&bad),
            Err(StoreError::BadMagic { .. })
        ));

        let mut bad = bytes.clone();
        bad[4] = 0xEE;
        assert!(matches!(
            decode_snapshot(&bad),
            Err(StoreError::BadVersion { got: 0xEE, .. })
        ));

        let mut bad = bytes.clone();
        bad[8] ^= 0x01; // base_seq byte — caught by the header CRC
        assert!(matches!(
            decode_snapshot(&bad),
            Err(StoreError::CrcMismatch { .. })
        ));

        assert!(matches!(
            decode_snapshot(&bytes[..SNAPSHOT_HEADER_LEN - 1]),
            Err(StoreError::Truncated { .. })
        ));
    }

    #[test]
    fn section_corruptions_are_typed_errors() {
        let st = sample();
        let bytes = encode_snapshot(&st, 0);

        // Flip a byte inside the first section's payload.
        let mut bad = bytes.clone();
        bad[SNAPSHOT_HEADER_LEN + 10] ^= 0x40;
        assert!(matches!(
            decode_snapshot(&bad),
            Err(StoreError::CrcMismatch { .. })
        ));

        // Wrong section tag.
        let mut bad = bytes.clone();
        bad[SNAPSHOT_HEADER_LEN] = 0x07;
        assert!(matches!(
            decode_snapshot(&bad),
            Err(StoreError::BadSection { .. })
        ));

        // Truncation anywhere in the body errors.
        for cut in [SNAPSHOT_HEADER_LEN + 3, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_snapshot(&bytes[..cut]).is_err(), "cut at {cut}");
        }

        // Trailing garbage is rejected.
        let mut bad = bytes.clone();
        bad.push(0);
        assert!(matches!(
            decode_snapshot(&bad),
            Err(StoreError::TrailingBytes { .. })
        ));
    }
}
