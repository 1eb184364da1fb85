//! Arbitrary-precision unsigned integer arithmetic.
//!
//! Substrate for the RSA signature scheme (the paper's `s(.)`): the offline
//! dependency set contains no bignum crate, so a compact, well-tested
//! implementation lives here. Little-endian `u64` limbs, normalized so the
//! most significant limb is nonzero (zero is the empty limb vector).
//!
//! Provided operations: comparison, add/sub/mul, Knuth Algorithm-D division,
//! shifts, modular exponentiation (4-bit window), gcd, modular inverse
//! (extended Euclid), random generation, and Miller–Rabin primality testing.

use rand::RngCore;
use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer.
#[derive(Clone, PartialEq, Eq, Default, Hash)]
pub struct BigUint {
    /// Little-endian limbs; no trailing (most-significant) zero limbs.
    limbs: Vec<u64>,
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl BigUint {
    /// Zero.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// One.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// From a machine word.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Interprets big-endian bytes.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut chunk_iter = bytes.rchunks(8);
        for chunk in &mut chunk_iter {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | b as u64;
            }
            limbs.push(limb);
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Big-endian bytes without leading zeros (empty for zero).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                // Skip leading zeros of the most significant limb.
                let skip = (limb.leading_zeros() / 8) as usize;
                out.extend_from_slice(&bytes[skip.min(7)..]);
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// Big-endian bytes left-padded with zeros to exactly `len` bytes.
    ///
    /// # Panics
    /// If the value does not fit in `len` bytes.
    pub fn to_bytes_be_padded(&self, len: usize) -> Vec<u8> {
        let raw = self.to_bytes_be();
        assert!(raw.len() <= len, "value does not fit in {len} bytes");
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        out
    }

    /// Parses a hexadecimal string (no prefix).
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.is_empty() || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let mut bytes = Vec::with_capacity(s.len() / 2 + 1);
        let s = s.as_bytes();
        let mut i = 0;
        if s.len() % 2 == 1 {
            bytes.push(u8::from_str_radix(std::str::from_utf8(&s[..1]).ok()?, 16).ok()?);
            i = 1;
        }
        while i < s.len() {
            bytes.push(u8::from_str_radix(std::str::from_utf8(&s[i..i + 2]).ok()?, 16).ok()?);
            i += 2;
        }
        Some(Self::from_bytes_be(&bytes))
    }

    /// Lowercase hex rendering without leading zeros ("0" for zero).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut s = String::new();
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            if i == self.limbs.len() - 1 {
                s.push_str(&format!("{limb:x}"));
            } else {
                s.push_str(&format!("{limb:016x}"));
            }
        }
        s
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// True iff the value is zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True iff the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// True iff even (zero is even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits (0 for zero).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// Value of bit `i` (LSB = 0).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        if limb >= self.limbs.len() {
            return false;
        }
        (self.limbs[limb] >> (i % 64)) & 1 == 1
    }

    /// `self + other`.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &a) in long.iter().enumerate() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry > 0 {
            out.push(carry);
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self - other`, panicking on underflow.
    pub fn sub(&self, other: &BigUint) -> BigUint {
        self.checked_sub(other)
            .expect("BigUint subtraction underflow")
    }

    /// `self - other`, or `None` if `other > self`.
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        if self.cmp(other) == Ordering::Less {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        let mut n = BigUint { limbs: out };
        n.normalize();
        Some(n)
    }

    /// `self * other` (schoolbook; operand sizes here are ≤ 32 limbs, where
    /// schoolbook beats Karatsuba's constant factors).
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            if a == 0 {
                continue;
            }
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u128 + a as u128 * b as u128 + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry > 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self << bits`.
    pub fn shl(&self, bits: usize) -> BigUint {
        if self.is_zero() || bits == 0 {
            return self.clone();
        }
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry > 0 {
                out.push(carry);
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self >> bits`.
    pub fn shr(&self, bits: usize) -> BigUint {
        let limb_shift = bits / 64;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = bits % 64;
        let mut out: Vec<u64> = self.limbs[limb_shift..].to_vec();
        if bit_shift > 0 {
            let mut carry = 0u64;
            for l in out.iter_mut().rev() {
                let new_carry = *l << (64 - bit_shift);
                *l = (*l >> bit_shift) | carry;
                carry = new_carry;
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `(self / divisor, self % divisor)`.
    ///
    /// # Panics
    /// If `divisor` is zero.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        match self.cmp(divisor) {
            Ordering::Less => return (BigUint::zero(), self.clone()),
            Ordering::Equal => return (BigUint::one(), BigUint::zero()),
            Ordering::Greater => {}
        }
        if divisor.limbs.len() == 1 {
            let (q, r) = self.div_rem_limb(divisor.limbs[0]);
            return (q, BigUint::from_u64(r));
        }
        self.div_rem_knuth(divisor)
    }

    /// Division by a single limb.
    fn div_rem_limb(&self, d: u64) -> (BigUint, u64) {
        let mut q = vec![0u64; self.limbs.len()];
        let mut rem = 0u128;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | self.limbs[i] as u128;
            q[i] = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        let mut n = BigUint { limbs: q };
        n.normalize();
        (n, rem as u64)
    }

    /// Knuth TAOCP vol. 2 Algorithm D (multi-limb division).
    fn div_rem_knuth(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        let n = divisor.limbs.len();
        // D1: normalize so the divisor's top limb has its high bit set.
        let shift = divisor.limbs[n - 1].leading_zeros() as usize;
        let v = divisor.shl(shift);
        let u_big = self.shl(shift);
        let mut u = u_big.limbs.clone();
        let m = u.len() - n; // quotient has at most m+1 limbs
        u.push(0); // u has m+n+1 limbs
        let v = &v.limbs;
        let mut q = vec![0u64; m + 1];

        let b = 1u128 << 64;
        for j in (0..=m).rev() {
            // D3: estimate q̂.
            let top = ((u[j + n] as u128) << 64) | u[j + n - 1] as u128;
            let mut qhat = top / v[n - 1] as u128;
            let mut rhat = top % v[n - 1] as u128;
            while qhat >= b || qhat * v[n - 2] as u128 > ((rhat << 64) | u[j + n - 2] as u128) {
                qhat -= 1;
                rhat += v[n - 1] as u128;
                if rhat >= b {
                    break;
                }
            }
            // D4: multiply and subtract u[j..j+n+1] -= q̂ * v.
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = qhat * v[i] as u128 + carry;
                carry = p >> 64;
                let sub = (u[j + i] as i128) - (p as u64 as i128) + borrow;
                u[j + i] = sub as u64;
                borrow = sub >> 64; // arithmetic shift: 0 or -1
            }
            let sub = (u[j + n] as i128) - (carry as i128) + borrow;
            u[j + n] = sub as u64;
            let went_negative = sub < 0;

            q[j] = qhat as u64;
            if went_negative {
                // D6: add back.
                q[j] -= 1;
                let mut carry = 0u128;
                for i in 0..n {
                    let s = u[j + i] as u128 + v[i] as u128 + carry;
                    u[j + i] = s as u64;
                    carry = s >> 64;
                }
                u[j + n] = u[j + n].wrapping_add(carry as u64);
            }
        }

        let mut quotient = BigUint { limbs: q };
        quotient.normalize();
        let mut rem = BigUint {
            limbs: u[..n].to_vec(),
        };
        rem.normalize();
        (quotient, rem.shr(shift))
    }

    /// `self % modulus`.
    pub fn rem(&self, modulus: &BigUint) -> BigUint {
        self.div_rem(modulus).1
    }

    /// `(self * other) % modulus`.
    pub fn mul_mod(&self, other: &BigUint, modulus: &BigUint) -> BigUint {
        self.mul(other).rem(modulus)
    }

    /// Raw little-endian limbs (normalized; empty for zero).
    pub fn to_limbs(&self) -> Vec<u64> {
        self.limbs.clone()
    }

    /// Builds from little-endian limbs (normalizing).
    pub fn from_limbs(limbs: Vec<u64>) -> BigUint {
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// `self^exp mod modulus`. Odd moduli (every RSA modulus, every
    /// Miller–Rabin candidate) take the Montgomery fast path; even moduli
    /// fall back to [`Self::mod_pow_plain`].
    ///
    /// # Panics
    /// If `modulus` is zero.
    pub fn mod_pow(&self, exp: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(!modulus.is_zero(), "mod_pow with zero modulus");
        if let Some(ctx) = crate::montgomery::MontgomeryCtx::new(modulus) {
            return ctx.mod_pow(self, exp);
        }
        self.mod_pow_plain(exp, modulus)
    }

    /// Division-based 4-bit-window square-and-multiply (any modulus).
    ///
    /// # Panics
    /// If `modulus` is zero.
    pub fn mod_pow_plain(&self, exp: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(!modulus.is_zero(), "mod_pow with zero modulus");
        if modulus.is_one() {
            return BigUint::zero();
        }
        if exp.is_zero() {
            return BigUint::one();
        }
        let base = self.rem(modulus);
        // Precompute base^0..base^15.
        let mut table = Vec::with_capacity(16);
        table.push(BigUint::one());
        table.push(base.clone());
        for i in 2..16 {
            let prev: &BigUint = &table[i - 1];
            table.push(prev.mul_mod(&base, modulus));
        }
        let bits = exp.bit_len();
        let mut result = BigUint::one();
        // Process the exponent in 4-bit windows, MSB first.
        let windows = bits.div_ceil(4);
        for w in (0..windows).rev() {
            if !result.is_one() || w != windows - 1 {
                for _ in 0..4 {
                    result = result.mul_mod(&result, modulus);
                }
            }
            let mut nib = 0usize;
            for b in (0..4).rev() {
                nib <<= 1;
                if exp.bit(w * 4 + b) {
                    nib |= 1;
                }
            }
            if nib != 0 {
                result = result.mul_mod(&table[nib], modulus);
            }
        }
        result
    }

    /// Greatest common divisor (binary GCD).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        let mut shift = 0usize;
        while a.is_even() && b.is_even() {
            a = a.shr(1);
            b = b.shr(1);
            shift += 1;
        }
        while a.is_even() {
            a = a.shr(1);
        }
        loop {
            while b.is_even() {
                b = b.shr(1);
            }
            if a.cmp(&b) == Ordering::Greater {
                std::mem::swap(&mut a, &mut b);
            }
            b = b.sub(&a);
            if b.is_zero() {
                return a.shl(shift);
            }
        }
    }

    /// Modular inverse: `self^{-1} mod modulus`, or `None` if not coprime.
    ///
    /// Extended Euclid with sign tracking.
    pub fn mod_inverse(&self, modulus: &BigUint) -> Option<BigUint> {
        if modulus.is_zero() || modulus.is_one() {
            return None;
        }
        let a = self.rem(modulus);
        if a.is_zero() {
            return None;
        }
        // Invariants: old_r = old_s*a - old_t*m (signs tracked separately).
        let (mut old_r, mut r) = (a, modulus.clone());
        let (mut old_s, mut s) = (BigUint::one(), BigUint::zero());
        let (mut old_neg, mut neg) = (false, false);
        while !r.is_zero() {
            let (q, rem) = old_r.div_rem(&r);
            // new_s = old_s - q*s, with sign handling.
            let qs = q.mul(&s);
            let (new_s, new_neg) = if old_neg == neg {
                // Same signs: old_s - qs may flip sign.
                if old_s.cmp(&qs) != Ordering::Less {
                    (old_s.sub(&qs), old_neg)
                } else {
                    (qs.sub(&old_s), !old_neg)
                }
            } else {
                // Opposite signs: magnitudes add, sign follows old_s.
                (old_s.add(&qs), old_neg)
            };
            old_r = std::mem::replace(&mut r, rem);
            old_s = std::mem::replace(&mut s, new_s);
            old_neg = std::mem::replace(&mut neg, new_neg);
        }
        if !old_r.is_one() {
            return None; // not coprime
        }
        let inv = old_s.rem(modulus);
        Some(if old_neg && !inv.is_zero() {
            modulus.sub(&inv)
        } else {
            inv
        })
    }

    /// Uniformly random value with exactly `bits` significant bits
    /// (top bit set).
    pub fn random_bits(rng: &mut dyn RngCore, bits: usize) -> BigUint {
        assert!(bits > 0);
        let bytes = bits.div_ceil(8);
        let mut buf = vec![0u8; bytes];
        rng.fill_bytes(&mut buf);
        // Mask excess top bits, then force the top bit on.
        let excess = bytes * 8 - bits;
        buf[0] &= 0xffu8 >> excess;
        buf[0] |= 0x80u8 >> excess;
        Self::from_bytes_be(&buf)
    }

    /// Uniformly random value in `[0, bound)` by rejection sampling.
    pub fn random_below(rng: &mut dyn RngCore, bound: &BigUint) -> BigUint {
        assert!(!bound.is_zero());
        let bits = bound.bit_len();
        let bytes = bits.div_ceil(8);
        let excess = bytes * 8 - bits;
        loop {
            let mut buf = vec![0u8; bytes];
            rng.fill_bytes(&mut buf);
            buf[0] &= 0xffu8 >> excess;
            let candidate = Self::from_bytes_be(&buf);
            if candidate.cmp(bound) == Ordering::Less {
                return candidate;
            }
        }
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for i in (0..self.limbs.len()).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Small primes for trial division before Miller–Rabin.
const SMALL_PRIMES: [u64; 60] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281,
];

/// Miller–Rabin probabilistic primality test with `rounds` random witnesses
/// (after small-prime trial division).
pub fn is_probable_prime(n: &BigUint, rounds: usize, rng: &mut dyn RngCore) -> bool {
    if n.is_zero() || n.is_one() {
        return false;
    }
    for &p in &SMALL_PRIMES {
        let bp = BigUint::from_u64(p);
        match n.cmp(&bp) {
            Ordering::Equal => return true,
            Ordering::Less => return false,
            Ordering::Greater => {
                if n.rem(&bp).is_zero() {
                    return false;
                }
            }
        }
    }
    // Write n-1 = d * 2^s with d odd.
    let one = BigUint::one();
    let n_minus_1 = n.sub(&one);
    let mut d = n_minus_1.clone();
    let mut s = 0usize;
    while d.is_even() {
        d = d.shr(1);
        s += 1;
    }
    let two = BigUint::from_u64(2);
    let n_minus_3 = n.sub(&BigUint::from_u64(3));
    'witness: for _ in 0..rounds {
        // a in [2, n-2]
        let a = BigUint::random_below(rng, &n_minus_3).add(&two);
        let mut x = a.mod_pow(&d, n);
        if x.is_one() || x == n_minus_1 {
            continue;
        }
        for _ in 0..s - 1 {
            x = x.mul_mod(&x, n);
            if x == n_minus_1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Generates a random probable prime with exactly `bits` bits.
pub fn gen_prime(bits: usize, rng: &mut dyn RngCore) -> BigUint {
    assert!(bits >= 16, "prime size too small");
    loop {
        let mut candidate = BigUint::random_bits(rng, bits);
        // Force odd.
        if candidate.is_even() {
            candidate = candidate.add(&BigUint::one());
        }
        if is_probable_prime(&candidate, 24, rng) {
            return candidate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn b(v: u128) -> BigUint {
        BigUint::from_limbs(vec![v as u64, (v >> 64) as u64])
    }

    #[test]
    fn basic_construction() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert_eq!(BigUint::from_u64(42).to_limbs(), vec![42]);
        assert_eq!(b(u128::MAX).bit_len(), 128);
    }

    #[test]
    fn bytes_roundtrip() {
        for v in [0u128, 1, 255, 256, u64::MAX as u128, u128::MAX, 1 << 100] {
            let n = b(v);
            assert_eq!(BigUint::from_bytes_be(&n.to_bytes_be()), n, "value {v}");
        }
    }

    #[test]
    fn padded_bytes() {
        let n = BigUint::from_u64(0x1234);
        assert_eq!(n.to_bytes_be_padded(4), vec![0, 0, 0x12, 0x34]);
    }

    #[test]
    fn hex_roundtrip() {
        for s in [
            "1",
            "ff",
            "deadbeefcafebabe0123456789abcdef55",
            "8000000000000000",
        ] {
            let n = BigUint::from_hex(s).unwrap();
            assert_eq!(n.to_hex(), s, "hex {s}");
        }
        assert_eq!(BigUint::from_hex("0").unwrap(), BigUint::zero());
        assert_eq!(BigUint::from_hex("00ff").unwrap().to_hex(), "ff");
        assert!(BigUint::from_hex("xyz").is_none());
        assert!(BigUint::from_hex("").is_none());
    }

    #[test]
    fn add_sub_against_u128() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..500 {
            let x = rng.next_u64() as u128;
            let y = rng.next_u64() as u128;
            assert_eq!(b(x).add(&b(y)), b(x + y));
            let (hi, lo) = if x > y { (x, y) } else { (y, x) };
            assert_eq!(b(hi).sub(&b(lo)), b(hi - lo));
        }
        assert!(b(3).checked_sub(&b(5)).is_none());
    }

    #[test]
    fn mul_against_u128() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..500 {
            let x = (rng.next_u64() >> 1) as u128;
            let y = (rng.next_u64() >> 1) as u128;
            assert_eq!(b(x).mul(&b(y)), b(x * y));
        }
    }

    #[test]
    fn div_rem_against_u128() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..500 {
            let x = ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128;
            let y = (rng.next_u64() as u128).max(1);
            let (q, r) = b(x).div_rem(&b(y));
            assert_eq!(q, b(x / y), "x={x} y={y}");
            assert_eq!(r, b(x % y));
        }
    }

    #[test]
    fn div_rem_multi_limb() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..200 {
            let a = BigUint::random_bits(&mut rng, 512);
            let d = BigUint::random_bits(&mut rng, 200);
            let (q, r) = a.div_rem(&d);
            assert!(r.cmp(&d) == Ordering::Less);
            assert_eq!(q.mul(&d).add(&r), a);
        }
    }

    #[test]
    fn div_rem_edge_cases() {
        assert_eq!(b(10).div_rem(&b(10)), (BigUint::one(), BigUint::zero()));
        assert_eq!(b(3).div_rem(&b(10)), (BigUint::zero(), b(3)));
        // Case that exercises the Knuth D add-back path with high probability:
        let a = BigUint::from_hex("7fffffffffffffff8000000000000000").unwrap();
        let d = BigUint::from_hex("80000000000000008000000000000001").unwrap();
        let (q, r) = a.div_rem(&d);
        assert_eq!(q.mul(&d).add(&r), a);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = b(1).div_rem(&BigUint::zero());
    }

    #[test]
    fn shifts() {
        let n = b(0b1011);
        assert_eq!(n.shl(3), b(0b1011000));
        assert_eq!(n.shl(64).shr(64), n);
        assert_eq!(n.shr(2), b(0b10));
        assert_eq!(n.shr(200), BigUint::zero());
        assert_eq!(b(1).shl(127), b(1u128 << 127));
    }

    #[test]
    fn mod_pow_small() {
        assert_eq!(b(3).mod_pow(&b(4), &b(100)), b(81));
        assert_eq!(b(2).mod_pow(&b(10), &b(1000)), b(24));
        assert_eq!(b(7).mod_pow(&BigUint::zero(), &b(13)), BigUint::one());
        assert_eq!(b(5).mod_pow(&b(3), &BigUint::one()), BigUint::zero());
    }

    #[test]
    fn mod_pow_fermat() {
        // Fermat's little theorem for a handful of primes.
        let mut rng = StdRng::seed_from_u64(5);
        for &p in &[65537u64, 1_000_000_007, 4_294_967_311] {
            let p = BigUint::from_u64(p);
            let pm1 = p.sub(&BigUint::one());
            for _ in 0..10 {
                let a = BigUint::random_below(&mut rng, &p);
                if a.is_zero() {
                    continue;
                }
                assert_eq!(a.mod_pow(&pm1, &p), BigUint::one());
            }
        }
    }

    #[test]
    fn gcd_cases() {
        assert_eq!(b(12).gcd(&b(18)), b(6));
        assert_eq!(b(17).gcd(&b(31)), b(1));
        assert_eq!(b(0).gcd(&b(5)), b(5));
        assert_eq!(b(5).gcd(&b(0)), b(5));
        assert_eq!(b(48).gcd(&b(64)), b(16));
    }

    #[test]
    fn mod_inverse_cases() {
        let m = b(1_000_000_007);
        for v in [2u128, 3, 999, 123456789] {
            let inv = b(v).mod_inverse(&m).unwrap();
            assert_eq!(b(v).mul_mod(&inv, &m), BigUint::one(), "v={v}");
        }
        // Non-coprime has no inverse.
        assert!(b(6).mod_inverse(&b(12)).is_none());
        assert!(BigUint::zero().mod_inverse(&m).is_none());
    }

    #[test]
    fn mod_inverse_large() {
        let mut rng = StdRng::seed_from_u64(6);
        let m = gen_prime(128, &mut rng);
        for _ in 0..20 {
            let a = BigUint::random_below(&mut rng, &m);
            if a.is_zero() {
                continue;
            }
            let inv = a.mod_inverse(&m).unwrap();
            assert_eq!(a.mul_mod(&inv, &m), BigUint::one());
        }
    }

    #[test]
    fn primality_known_values() {
        let mut rng = StdRng::seed_from_u64(7);
        for &p in &[2u64, 3, 5, 65537, 1_000_000_007, 67_280_421_310_721] {
            assert!(
                is_probable_prime(&BigUint::from_u64(p), 16, &mut rng),
                "{p} is prime"
            );
        }
        for &c in &[1u64, 4, 100, 65536, 1_000_000_011, 561, 41041, 825_265] {
            // 561, 41041, 825265 are Carmichael numbers.
            assert!(
                !is_probable_prime(&BigUint::from_u64(c), 16, &mut rng),
                "{c} is composite"
            );
        }
    }

    #[test]
    fn gen_prime_has_requested_size() {
        let mut rng = StdRng::seed_from_u64(8);
        let p = gen_prime(96, &mut rng);
        assert_eq!(p.bit_len(), 96);
        assert!(!p.is_even());
    }

    #[test]
    fn random_below_in_range() {
        let mut rng = StdRng::seed_from_u64(9);
        let bound = b(1000);
        for _ in 0..200 {
            let v = BigUint::random_below(&mut rng, &bound);
            assert!(v.cmp(&bound) == Ordering::Less);
        }
    }

    #[test]
    fn ordering() {
        assert!(b(5) < b(6));
        assert!(b(1 << 100) > b(u64::MAX as u128));
        assert_eq!(b(7).cmp(&b(7)), Ordering::Equal);
    }
}
