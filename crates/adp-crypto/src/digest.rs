//! Digest values of configurable length.
//!
//! The paper's cost analysis (Table 1) assumes `M_digest = 128` bits, an
//! MD5-era digest size. Rather than implementing a broken hash, we compute
//! SHA-256 and truncate to a configurable length between 16 and 32 bytes
//! (truncated SHA-256 is a standard construction, cf. SHA-224/SHA-512/256).
//! All digests produced by one [`crate::Hasher`] share the same length, so
//! verification-object sizes can be measured with either the paper's 128-bit
//! parameter or the modern 256-bit default.

use std::fmt;

/// Maximum digest length in bytes (full SHA-256 output).
pub const MAX_DIGEST_LEN: usize = 32;

/// Minimum digest length in bytes we allow truncation to.
pub const MIN_DIGEST_LEN: usize = 16;

/// A hash digest of between 16 and 32 bytes.
///
/// Stored inline (no heap allocation); equality and ordering consider only
/// the active `len` prefix.
#[derive(Clone, Copy)]
pub struct Digest {
    bytes: [u8; MAX_DIGEST_LEN],
    len: u8,
}

impl Digest {
    /// Wraps raw digest bytes. Panics if `bytes.len()` is out of range.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        assert!(
            (MIN_DIGEST_LEN..=MAX_DIGEST_LEN).contains(&bytes.len()),
            "digest length {} out of range",
            bytes.len()
        );
        let mut buf = [0u8; MAX_DIGEST_LEN];
        buf[..bytes.len()].copy_from_slice(bytes);
        Digest {
            bytes: buf,
            len: bytes.len() as u8,
        }
    }

    /// The first `len` bytes of a full hash output; `len` is a
    /// [`crate::Hasher`]'s validated digest length.
    #[inline]
    pub(crate) fn truncated(mut full: [u8; MAX_DIGEST_LEN], len: usize) -> Self {
        debug_assert!((MIN_DIGEST_LEN..=MAX_DIGEST_LEN).contains(&len));
        // The first 16 bytes always stay; mask the upper half down to its
        // first `len - 16`. Branch-free on purpose: this sits behind every
        // hash, and a variable-length `fill` would be a `memset` call.
        let keep_bits = 8 * (len as u32 - 16);
        let mask = u128::MAX.checked_shr(128 - keep_bits).unwrap_or(0);
        let upper = u128::from_le_bytes(full[16..].try_into().expect("16 bytes")) & mask;
        full[16..].copy_from_slice(&upper.to_le_bytes());
        Digest {
            bytes: full,
            len: len as u8,
        }
    }

    /// The active digest bytes.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }

    /// Digest length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Always false; digests are never empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Lowercase hex rendering.
    pub fn to_hex(&self) -> String {
        self.as_bytes().iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl PartialEq for Digest {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}
impl Eq for Digest {}

impl PartialOrd for Digest {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Digest {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl std::hash::Hash for Digest {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}…)", &self.to_hex()[..12.min(2 * self.len())])
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_len() {
        let d = Digest::from_bytes(&[7u8; 16]);
        assert_eq!(d.len(), 16);
        assert_eq!(d.as_bytes(), &[7u8; 16]);
        let d32 = Digest::from_bytes(&[9u8; 32]);
        assert_eq!(d32.len(), 32);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn too_short_panics() {
        let _ = Digest::from_bytes(&[1u8; 8]);
    }

    #[test]
    fn equality_ignores_padding() {
        let a = Digest::from_bytes(&[1u8; 16]);
        let mut raw = [0u8; 32];
        raw[..16].copy_from_slice(&[1u8; 16]);
        let b = Digest::from_bytes(&raw[..16]);
        assert_eq!(a, b);
    }

    #[test]
    fn hex_rendering() {
        let d = Digest::from_bytes(&[0xab; 16]);
        assert_eq!(d.to_hex(), "ab".repeat(16));
    }
}
