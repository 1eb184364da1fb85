//! Condensed-RSA signature aggregation (Section 5.2 of the paper).
//!
//! The publisher combines the per-record signatures of a query result into a
//! single modulus-sized value, cutting both transmission overhead (one
//! `M_sign` instead of `|Q|` of them) and user-side computation (one
//! signature verification instead of `|Q|`, as verification is ~100x costlier
//! than hashing — Section 5.2).
//!
//! Because the data owner is a *single signer*, the appropriate scheme is
//! condensed RSA (Mykletun, Narasimha, Tsudik — "Signature Bouquets" \[18\]),
//! not multi-signer BLS aggregation \[8\]:
//!
//! * aggregate: `σ = Π σ_i mod n`
//! * verify:    `σ^e ≡ Π FDH(d_i) mod n`
//!
//! ## Immutability caveat
//!
//! As \[18\] discusses, naive condensed signatures are *mutable*: given two
//! valid aggregates an adversary can multiply them into a third valid
//! aggregate for the union of the message sets. \[18\] proposes practical
//! hardening (e.g. zero-knowledge proof of possession protocols). Mutability
//! does not affect the completeness guarantee studied here (an aggregate for
//! a *superset* still requires every component signature to exist, and the
//! verifier derives the expected digest set itself from the query), but the
//! caveat is retained in documentation for downstream users.

use crate::bigint::BigUint;
use crate::digest::Digest;
use crate::hasher::Hasher;
use crate::par::{self, Split};
use crate::rsa::{PublicKey, Signature};

/// An aggregated (condensed) signature.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AggregateSignature {
    value: BigUint,
    len: usize,
    count: usize,
}

impl AggregateSignature {
    /// Condenses `sigs` (all by the same signer) into one value.
    ///
    /// # Panics
    /// If `sigs` is empty.
    pub fn combine(public: &PublicKey, sigs: &[&Signature]) -> Self {
        assert!(!sigs.is_empty(), "cannot aggregate zero signatures");
        let n = public.modulus();
        let acc = match public.mont_ctx() {
            // Montgomery product: two multiplications per signature, no
            // divisions — the publisher-side hot path when answering.
            Some(ctx) => ctx.product_mod(sigs.iter().map(|s| s.value())),
            None => sigs
                .iter()
                .fold(BigUint::one(), |acc, s| acc.mul_mod(s.value(), n)),
        };
        AggregateSignature {
            value: acc,
            len: public.signature_len(),
            count: sigs.len(),
        }
    }

    /// Verifies the aggregate against the multiset of signed digests.
    ///
    /// A long digest list is cut into chunks ([`Split::VERIFY`]) whose FDH
    /// values and partial products are computed on the available cores; the
    /// partials are multiplied together and compared with one `σ^e`.
    /// Multiplication mod `n` commutes, so the compared value is the same
    /// however the list was cut.
    pub fn verify(&self, hasher: &Hasher, public: &PublicKey, digests: &[Digest]) -> bool {
        if digests.len() != self.count {
            return false;
        }
        let n = public.modulus();
        let product = |factors: &[BigUint]| match public.mont_ctx() {
            Some(ctx) => ctx.product_mod(factors),
            None => factors
                .iter()
                .fold(BigUint::one(), |acc, f| acc.mul_mod(f, n)),
        };
        let mut partials = par::map_chunks(digests.len(), Split::VERIFY, par::workers(), |r| {
            let fdhs: Vec<BigUint> = digests[r].iter().map(|d| public.fdh(hasher, d)).collect();
            product(&fdhs)
        });
        let rhs = if partials.len() == 1 {
            partials.pop().unwrap_or_else(BigUint::one)
        } else {
            product(&partials)
        };
        public.pow_mod_n(&self.value, public.exponent()) == rhs
    }

    /// Number of component signatures.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Serialized length in bytes (same as a single signature).
    pub fn byte_len(&self) -> usize {
        self.len
    }

    /// Fixed-width big-endian encoding (count is carried separately by the
    /// enclosing VO, which already knows the result cardinality).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.value.to_bytes_be_padded(self.len)
    }

    /// Decodes an aggregate previously encoded with [`Self::to_bytes`].
    pub fn from_bytes(bytes: &[u8], count: usize) -> Self {
        AggregateSignature {
            value: BigUint::from_bytes_be(bytes),
            len: bytes.len(),
            count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hasher::HashDomain;
    use crate::rsa::Keypair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::OnceLock;

    fn key() -> &'static Keypair {
        static KEY: OnceLock<Keypair> = OnceLock::new();
        KEY.get_or_init(|| {
            let mut rng = StdRng::seed_from_u64(0xA66);
            Keypair::generate(512, &mut rng)
        })
    }

    fn digests_and_sigs(h: &Hasher, msgs: &[&[u8]]) -> (Vec<Digest>, Vec<Signature>) {
        let kp = key();
        let ds: Vec<Digest> = msgs.iter().map(|m| h.hash(HashDomain::Data, m)).collect();
        let sigs = ds.iter().map(|d| kp.sign(h, d)).collect();
        (ds, sigs)
    }

    #[test]
    fn aggregate_roundtrip() {
        let h = Hasher::default();
        let (ds, sigs) = digests_and_sigs(&h, &[b"a", b"b", b"c", b"d"]);
        let refs: Vec<&Signature> = sigs.iter().collect();
        let agg = AggregateSignature::combine(key().public(), &refs);
        assert!(agg.verify(&h, key().public(), &ds));
        assert_eq!(agg.count(), 4);
    }

    #[test]
    fn single_signature_aggregate() {
        let h = Hasher::default();
        let (ds, sigs) = digests_and_sigs(&h, &[b"solo"]);
        let agg = AggregateSignature::combine(key().public(), &[&sigs[0]]);
        assert!(agg.verify(&h, key().public(), &ds));
    }

    #[test]
    fn missing_component_rejected() {
        let h = Hasher::default();
        let (ds, sigs) = digests_and_sigs(&h, &[b"a", b"b", b"c"]);
        // Aggregate only two signatures but claim all three digests.
        let agg = AggregateSignature::combine(key().public(), &[&sigs[0], &sigs[1]]);
        assert!(!agg.verify(&h, key().public(), &ds));
        // Matching count but mismatched digest set also fails.
        assert!(!agg.verify(
            &h,
            key().public(),
            &ds[..2].iter().map(|_| ds[2]).collect::<Vec<_>>()
        ));
    }

    #[test]
    fn reordered_digests_still_verify() {
        // Multiplication commutes, so digest order must not matter.
        let h = Hasher::default();
        let (mut ds, sigs) = digests_and_sigs(&h, &[b"a", b"b", b"c"]);
        let refs: Vec<&Signature> = sigs.iter().collect();
        let agg = AggregateSignature::combine(key().public(), &refs);
        ds.reverse();
        assert!(agg.verify(&h, key().public(), &ds));
    }

    #[test]
    fn tampered_aggregate_rejected() {
        let h = Hasher::default();
        let (ds, sigs) = digests_and_sigs(&h, &[b"a", b"b"]);
        let refs: Vec<&Signature> = sigs.iter().collect();
        let agg = AggregateSignature::combine(key().public(), &refs);
        let mut bytes = agg.to_bytes();
        bytes[7] ^= 1;
        let forged = AggregateSignature::from_bytes(&bytes, 2);
        assert!(!forged.verify(&h, key().public(), &ds));
    }

    #[test]
    fn serialization_roundtrip() {
        let h = Hasher::default();
        let (ds, sigs) = digests_and_sigs(&h, &[b"x", b"y"]);
        let refs: Vec<&Signature> = sigs.iter().collect();
        let agg = AggregateSignature::combine(key().public(), &refs);
        let bytes = agg.to_bytes();
        assert_eq!(bytes.len(), key().public().signature_len());
        let back = AggregateSignature::from_bytes(&bytes, 2);
        assert!(back.verify(&h, key().public(), &ds));
    }

    #[test]
    fn long_aggregate_is_checked_across_chunks() {
        // Above the split point the FDH product is computed chunk by chunk:
        // the whole multiset still has to match, wherever the change sits.
        let h = Hasher::default();
        let msgs: Vec<Vec<u8>> = (0..Split::VERIFY.at as u32 + 40)
            .map(|i| i.to_le_bytes().to_vec())
            .collect();
        let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
        let (mut ds, sigs) = digests_and_sigs(&h, &refs);
        let agg = AggregateSignature::combine(key().public(), &sigs.iter().collect::<Vec<_>>());
        assert!(agg.verify(&h, key().public(), &ds));
        for at in [
            0,
            Split::VERIFY.chunk - 1,
            Split::VERIFY.chunk,
            ds.len() - 1,
        ] {
            let honest = ds[at];
            ds[at] = h.hash(HashDomain::Data, b"forged");
            assert!(!agg.verify(&h, key().public(), &ds), "digest {at} replaced");
            ds[at] = honest;
        }
    }

    #[test]
    fn duplicate_digests_supported() {
        // DISTINCT handling in the scheme can aggregate the signature of an
        // eliminated duplicate alongside the retained copy.
        let h = Hasher::default();
        let d = h.hash(HashDomain::Data, b"dup");
        let kp = key();
        let s = kp.sign(&h, &d);
        let agg = AggregateSignature::combine(kp.public(), &[&s, &s]);
        assert!(agg.verify(&h, kp.public(), &[d, d]));
        assert!(!agg.verify(&h, kp.public(), &[d]));
    }
}
