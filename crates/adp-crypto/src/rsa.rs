//! RSA signatures over message digests (the paper's `s(.)` / `s^{-1}(.)`).
//!
//! Full-domain-hash (FDH) RSA: the digest to be signed is expanded to the
//! modulus size with a counter-mode hash (see [`crate::Hasher::expand`]) and
//! exponentiated with the private key. Verification recomputes the expansion
//! and checks `sig^e mod n`. FDH-RSA is the classic provably-secure RSA
//! signature in the random-oracle model, and — crucially for Section 5.2 of
//! the paper — it is *compatible with condensed aggregation*: signatures by
//! the same signer can be multiplied modulo `n` and verified in a single
//! exponentiation (Mykletun et al., "Signature Bouquets").
//!
//! Signing uses the standard CRT speed-up (~4x). Key generation is
//! deterministic given a seeded RNG so tests and benches are reproducible.

use crate::bigint::{gen_prime, BigUint};
use crate::digest::Digest;
use crate::hasher::Hasher;
use crate::montgomery::MontgomeryCtx;
use rand::RngCore;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Public verification key `(n, e)`.
///
/// Carries a lazily built, shared [`MontgomeryCtx`] for `n`: every
/// `verify` (and every condensed-aggregate verification) runs on the same
/// precomputed `R² mod n` instead of re-deriving it per call. Clones share
/// the cache, so a key threaded through certificates, verifiers, and
/// servers warms it exactly once per process.
#[derive(Clone)]
pub struct PublicKey {
    n: BigUint,
    e: BigUint,
    bits: usize,
    mont: Arc<OnceLock<Option<MontgomeryCtx>>>,
}

impl PartialEq for PublicKey {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.e == other.e && self.bits == other.bits
    }
}

impl Eq for PublicKey {}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PublicKey({} bits)", self.bits)
    }
}

impl PublicKey {
    /// Reassembles a public key from its components (e.g. decoded from a
    /// certificate file). The modulus size is derived from `n`.
    pub fn from_parts(n: BigUint, e: BigUint) -> Self {
        let bits = n.bit_len();
        PublicKey {
            n,
            e,
            bits,
            mont: Arc::new(OnceLock::new()),
        }
    }

    /// The cached Montgomery context for `n` (built on first use; `None`
    /// only for degenerate even moduli, which real keys never have).
    pub(crate) fn mont_ctx(&self) -> Option<&MontgomeryCtx> {
        self.mont
            .get_or_init(|| MontgomeryCtx::new(&self.n))
            .as_ref()
    }

    /// Eagerly builds the Montgomery context so the first verification on a
    /// latency-sensitive path (e.g. a server answering its first query)
    /// doesn't pay the one-time `R² mod n` setup.
    pub fn precompute(&self) {
        let _ = self.mont_ctx();
    }

    /// `base^exp mod n` through the cached Montgomery context.
    pub fn pow_mod_n(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        match self.mont_ctx() {
            Some(ctx) => ctx.mod_pow(base, exp),
            None => base.mod_pow(exp, &self.n),
        }
    }

    /// The modulus.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// The public exponent.
    pub fn exponent(&self) -> &BigUint {
        &self.e
    }

    /// Modulus size in bits (the paper's `M_sign`).
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Signature size in bytes.
    pub fn signature_len(&self) -> usize {
        self.bits.div_ceil(8)
    }

    /// Expands a digest to the full-domain representative in `[0, n)`.
    pub(crate) fn fdh(&self, hasher: &Hasher, digest: &Digest) -> BigUint {
        let len = self.signature_len();
        let mut bytes = hasher.expand(digest.as_bytes(), len);
        // Clear the top byte so the representative is < n (n's top bit is
        // set for keys produced by `Keypair::generate`).
        bytes[0] = 0;
        BigUint::from_bytes_be(&bytes)
    }

    /// Verifies `sig` over `digest`. Returns true iff valid.
    pub fn verify(&self, hasher: &Hasher, digest: &Digest, sig: &Signature) -> bool {
        if sig.value().cmp(&self.n) != std::cmp::Ordering::Less {
            return false;
        }
        let expected = self.fdh(hasher, digest);
        self.pow_mod_n(sig.value(), &self.e) == expected
    }
}

/// Private signing key (CRT form), with cached per-prime Montgomery
/// contexts so each CRT half-exponentiation skips the `R² mod p` setup.
#[derive(Clone)]
pub struct PrivateKey {
    public: PublicKey,
    p: BigUint,
    q: BigUint,
    dp: BigUint,
    dq: BigUint,
    q_inv: BigUint,
    mont_p: OnceLock<Option<MontgomeryCtx>>,
    mont_q: OnceLock<Option<MontgomeryCtx>>,
}

impl PrivateKey {
    fn mont_p(&self) -> Option<&MontgomeryCtx> {
        self.mont_p
            .get_or_init(|| MontgomeryCtx::new(&self.p))
            .as_ref()
    }

    fn mont_q(&self) -> Option<&MontgomeryCtx> {
        self.mont_q
            .get_or_init(|| MontgomeryCtx::new(&self.q))
            .as_ref()
    }
}

impl fmt::Debug for PrivateKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PrivateKey({} bits)", self.public.bits)
    }
}

/// An RSA signature (one modulus-sized value).
///
/// The value sits behind a reference count, so a clone is a pointer copy:
/// the chain entry, the signature index and every table epoch that did not
/// re-sign a position hold the same allocation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Signature {
    value: Arc<BigUint>,
    len: usize,
}

impl Signature {
    /// Serialized length in bytes (the paper's `M_sign / 8`).
    pub fn byte_len(&self) -> usize {
        self.len
    }

    /// Fixed-width big-endian encoding.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.value.to_bytes_be_padded(self.len)
    }

    /// Decodes a fixed-width big-endian signature.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        Signature {
            value: Arc::new(BigUint::from_bytes_be(bytes)),
            len: bytes.len(),
        }
    }

    /// Raw integer value (used by aggregation).
    pub fn value(&self) -> &BigUint {
        &self.value
    }
}

/// An RSA keypair. Cheap to clone (`Arc` inside).
#[derive(Clone, Debug)]
pub struct Keypair {
    inner: Arc<PrivateKey>,
}

impl Keypair {
    /// Generates a fresh keypair with a modulus of `bits` bits
    /// (e.g. 1024 to match the paper's `M_sign`, 512 for fast tests).
    ///
    /// Deterministic for a given RNG state.
    pub fn generate(bits: usize, rng: &mut dyn RngCore) -> Self {
        assert!(bits >= 128, "modulus too small ({bits} bits)");
        assert!(bits.is_multiple_of(2), "modulus bits must be even");
        let e = BigUint::from_u64(65537);
        loop {
            let p = gen_prime(bits / 2, rng);
            let q = gen_prime(bits / 2, rng);
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            if n.bit_len() != bits {
                continue;
            }
            let one = BigUint::one();
            let phi = p.sub(&one).mul(&q.sub(&one));
            let Some(d) = e.mod_inverse(&phi) else {
                continue;
            };
            let dp = d.rem(&p.sub(&one));
            let dq = d.rem(&q.sub(&one));
            let Some(q_inv) = q.mod_inverse(&p) else {
                continue;
            };
            let public = PublicKey::from_parts(n, e);
            return Keypair {
                inner: Arc::new(PrivateKey {
                    public,
                    p,
                    q,
                    dp,
                    dq,
                    q_inv,
                    mont_p: OnceLock::new(),
                    mont_q: OnceLock::new(),
                }),
            };
        }
    }

    /// The public half.
    pub fn public(&self) -> &PublicKey {
        &self.inner.public
    }

    /// Signs a digest (FDH + CRT exponentiation).
    pub fn sign(&self, hasher: &Hasher, digest: &Digest) -> Signature {
        let k = &self.inner;
        let m = k.public.fdh(hasher, digest);
        // CRT: s_p = m^dp mod p, s_q = m^dq mod q,
        //      s  = s_q + q * ((s_p - s_q) * q_inv mod p)
        let sp = match k.mont_p() {
            Some(ctx) => ctx.mod_pow(&m, &k.dp),
            None => m.mod_pow(&k.dp, &k.p),
        };
        let sq = match k.mont_q() {
            Some(ctx) => ctx.mod_pow(&m, &k.dq),
            None => m.mod_pow(&k.dq, &k.q),
        };
        let sq_mod_p = sq.rem(&k.p);
        let diff = if sp.cmp(&sq_mod_p) != std::cmp::Ordering::Less {
            sp.sub(&sq_mod_p)
        } else {
            sp.add(&k.p).sub(&sq_mod_p)
        };
        let h = match k.mont_p() {
            Some(ctx) => ctx.mul_mod(&diff, &k.q_inv),
            None => diff.mul_mod(&k.q_inv, &k.p),
        };
        let s = sq.add(&k.q.mul(&h));
        debug_assert_eq!(
            s.mod_pow(&k.public.e, &k.public.n),
            m,
            "CRT signature self-check"
        );
        Signature {
            value: Arc::new(s),
            len: k.public.signature_len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hasher::HashDomain;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::OnceLock;

    /// Shared small test key so the (slow in debug builds) keygen runs once.
    pub(crate) fn test_keypair() -> &'static Keypair {
        static KEY: OnceLock<Keypair> = OnceLock::new();
        KEY.get_or_init(|| {
            let mut rng = StdRng::seed_from_u64(0x0ADB_5EED);
            Keypair::generate(512, &mut rng)
        })
    }

    #[test]
    fn sign_verify_roundtrip() {
        let h = Hasher::default();
        let kp = test_keypair();
        let d = h.hash(HashDomain::Data, b"message");
        let sig = kp.sign(&h, &d);
        assert!(kp.public().verify(&h, &d, &sig));
    }

    #[test]
    fn wrong_digest_rejected() {
        let h = Hasher::default();
        let kp = test_keypair();
        let d1 = h.hash(HashDomain::Data, b"message");
        let d2 = h.hash(HashDomain::Data, b"other");
        let sig = kp.sign(&h, &d1);
        assert!(!kp.public().verify(&h, &d2, &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let h = Hasher::default();
        let kp = test_keypair();
        let d = h.hash(HashDomain::Data, b"message");
        let sig = kp.sign(&h, &d);
        let mut bytes = sig.to_bytes();
        bytes[5] ^= 0x40;
        let forged = Signature::from_bytes(&bytes);
        assert!(!kp.public().verify(&h, &d, &forged));
    }

    #[test]
    fn signature_serialization_roundtrip() {
        let h = Hasher::default();
        let kp = test_keypair();
        let d = h.hash(HashDomain::Data, b"serialize me");
        let sig = kp.sign(&h, &d);
        let bytes = sig.to_bytes();
        assert_eq!(bytes.len(), kp.public().signature_len());
        let back = Signature::from_bytes(&bytes);
        assert_eq!(back, sig);
        assert!(kp.public().verify(&h, &d, &back));
    }

    #[test]
    fn deterministic_keygen() {
        let mut r1 = StdRng::seed_from_u64(99);
        let mut r2 = StdRng::seed_from_u64(99);
        let k1 = Keypair::generate(256, &mut r1);
        let k2 = Keypair::generate(256, &mut r2);
        assert_eq!(k1.public().modulus(), k2.public().modulus());
    }

    #[test]
    fn signature_len_matches_key() {
        let kp = test_keypair();
        assert_eq!(kp.public().signature_len(), 64);
        assert_eq!(kp.public().bits(), 512);
    }

    #[test]
    fn cross_key_verification_fails() {
        let h = Hasher::default();
        let kp1 = test_keypair();
        let mut rng = StdRng::seed_from_u64(1234);
        let kp2 = Keypair::generate(256, &mut rng);
        let d = h.hash(HashDomain::Data, b"msg");
        let sig = kp1.sign(&h, &d);
        assert!(!kp2.public().verify(&h, &d, &sig));
    }
}
