//! Base-`B` digit representations of chain exponents (Section 5.1).
//!
//! Any `δ ∈ [0, U-L)` is written `δ = δ_0 + δ_1·B + … + δ_m·B^m`. The
//! *canonical* representation has `0 ≤ δ_i < B`. The owner additionally
//! commits to `m` *preferred non-canonical* representations `^jδ_t`
//! (0 ≤ j < m), which "borrow" from digit `j+1` to inflate digits `0..=j`:
//!
//! ```text
//! ^jδ:  δ_0 + B,  δ_1 + B-1, …, δ_j + B-1,  δ_{j+1} - 1,  δ_{j+2}, …, δ_m
//! ```
//!
//! (for `j = 0` only `δ_0 + B` and `δ_1 - 1` change). A representation is
//! *valid* iff no digit is negative, i.e. iff `δ_{j+1} ≥ 1`.
//!
//! Why this matters: the publisher must hand the user digit-wise
//! intermediate digests `h^{δ_{e,i}}(r|i)` such that extending digit `i` by
//! the canonical digit `δ_{c,i}` of `δ_c = U - α` lands exactly on a
//! representation of `δ_t = U - r - 1` that the owner committed to. When
//! some canonical digit of `δ_t` is smaller than the corresponding digit of
//! `δ_c`, the canonical target is unreachable (chains cannot be walked
//! backwards), so the publisher steers the user toward a preferred
//! non-canonical representation. The paper's Lemma guarantees a suitable
//! one exists whenever `δ_c ≤ δ_t`; [`Radix::select_representation`]
//! implements the constructive choice.

/// The most digits any [`Radix`] has: base 2 over a full 64-bit width.
pub const MAX_DIGITS: usize = 64;

/// A base-`B`, `m+1`-digit positional system covering a domain width.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Radix {
    base: u32,
    /// Highest digit index `m`; digits are `0..=m`.
    m: u32,
}

impl Radix {
    /// Builds the radix for domain width `width` (all `δ < width` must be
    /// representable): the smallest `m` with `B^{m+1} ≥ width`.
    ///
    /// # Panics
    /// If `base < 2`.
    pub fn for_width(base: u32, width: u64) -> Self {
        assert!(base >= 2, "base B must be > 1");
        let mut m = 0u32;
        let mut cap = base as u128;
        while cap < width as u128 {
            cap *= base as u128;
            m += 1;
        }
        Radix { base, m }
    }

    /// The base `B`.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// The highest digit index `m` (`m + 1` digits total).
    pub fn m(&self) -> u32 {
        self.m
    }

    /// Number of digits (`m + 1`).
    pub fn digit_count(&self) -> usize {
        self.m as usize + 1
    }

    /// Canonical digits of `δ`, least significant first, exactly
    /// `m + 1` entries.
    ///
    /// # Panics
    /// If `δ` does not fit in `m + 1` digits.
    pub fn canonical(&self, delta: u64) -> Vec<u32> {
        self.canonical_into(delta, &mut [0; MAX_DIGITS]).to_vec()
    }

    /// [`Self::canonical`] into a caller's stack buffer, for the per-row
    /// paths: returns the `m + 1` digits written at the front of `buf`.
    pub fn canonical_into<'a>(&self, delta: u64, buf: &'a mut [u32; MAX_DIGITS]) -> &'a [u32] {
        let digits = &mut buf[..self.digit_count()];
        let mut rest = delta as u128;
        let b = self.base as u128;
        for d in digits.iter_mut() {
            *d = (rest % b) as u32;
            rest /= b;
        }
        assert_eq!(
            rest,
            0,
            "delta {delta} does not fit in {} base-{} digits",
            self.digit_count(),
            self.base
        );
        digits
    }

    /// Reassembles a digit vector into its value (digits may exceed `B`;
    /// that is the point of non-canonical representations).
    fn value_of(&self, digits: &[u32]) -> u64 {
        let b = self.base as u128;
        let mut acc: u128 = 0;
        let mut pow: u128 = 1;
        for &d in digits {
            acc += d as u128 * pow;
            pow *= b;
        }
        acc as u64
    }

    /// The `j`-th preferred non-canonical representation of the value with
    /// the given canonical digits, as *owner-side* digits: entry `j+1` is
    /// `None` when the representation is invalid (`δ_{j+1} = 0`), meaning
    /// that component is dropped from the digest (Figure 7's handling).
    ///
    /// # Panics
    /// If `j >= m`.
    pub fn preferred(&self, canonical: &[u32], j: u32) -> Vec<Option<u32>> {
        assert!(j < self.m, "preferred representations are indexed 0..m");
        let b = self.base;
        let mut out: Vec<Option<u32>> = canonical.iter().map(|&d| Some(d)).collect();
        out[0] = Some(canonical[0] + b);
        for i in 1..=j as usize {
            out[i] = Some(canonical[i] + b - 1);
        }
        let borrow_idx = j as usize + 1;
        out[borrow_idx] = canonical[borrow_idx].checked_sub(1);
        out
    }

    /// Whether the `j`-th preferred representation is valid for these
    /// canonical digits.
    pub fn preferred_is_valid(&self, canonical: &[u32], j: u32) -> bool {
        canonical[j as usize + 1] >= 1
    }

    /// Publisher-side choice of the representation `Δ_t` of `δ_t` that the
    /// user can reach by extending digit-wise from `δ_e = Δ_t - δ_c`
    /// (Figure 8a). Requires `δ_c ≤ δ_t`.
    ///
    /// Returns the choice and the per-digit evidence exponents `δ_{e,i}`.
    pub fn select_representation(&self, delta_t: u64, delta_c: u64) -> (ReprChoice, Vec<u32>) {
        assert!(delta_c <= delta_t, "selection requires δ_c ≤ δ_t");
        let t = self.canonical(delta_t);
        let c = self.canonical(delta_c);
        // Fast path: canonical digits dominate.
        if t.iter().zip(&c).all(|(a, b)| a >= b) {
            let e: Vec<u32> = t.iter().zip(&c).map(|(a, b)| a - b).collect();
            return (ReprChoice::Canonical, e);
        }
        // The Lemma's i_max: the largest i where the length-(i+1) prefix of
        // δ_t is numerically smaller than that of δ_c. Starting there,
        // advance until the representation is valid and all evidence digits
        // are non-negative (the analysis shows the first i_max already
        // works; the loop mirrors the paper's "increment i_max until
        // valid" wording defensively).
        let mut imax = None;
        let mut pt: u128 = 0;
        let mut pc: u128 = 0;
        let mut pow: u128 = 1;
        for i in 0..self.digit_count() - 1 {
            pt += t[i] as u128 * pow;
            pc += c[i] as u128 * pow;
            pow *= self.base as u128;
            if pt < pc {
                imax = Some(i as u32);
            }
        }
        let start = imax.expect("some prefix must be smaller when canonical does not dominate");
        for j in start..self.m {
            if !self.preferred_is_valid(&t, j) {
                continue;
            }
            let rep = self.preferred(&t, j);
            let evidence: Option<Vec<u32>> = rep
                .iter()
                .zip(&c)
                .map(|(r, cd)| r.and_then(|r| r.checked_sub(*cd)))
                .collect();
            if let Some(e) = evidence {
                debug_assert_eq!(self.value_of(&e) + delta_c, delta_t);
                return (ReprChoice::NonCanonical(j), e);
            }
        }
        unreachable!("the Lemma guarantees a valid representation exists for δ_c ≤ δ_t")
    }
}

/// Which representation of `δ_t` the publisher steered the user toward.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReprChoice {
    Canonical,
    /// `^jδ_t` for this `j`.
    NonCanonical(u32),
}

#[cfg(test)]
mod tests {
    use super::*;

    /// User-side reconstruction of the digits of `Δ_t` from the canonical
    /// digits of `δ_c` and the evidence digits `δ_e` (user computes
    /// `Δ_{t,i} = δ_{e,i} + δ_{c,i}` by extending each chain).
    fn target_digits(r: &Radix, evidence: &[u32], delta_c: u64) -> Vec<u32> {
        let c = r.canonical(delta_c);
        evidence.iter().zip(&c).map(|(e, c)| e + c).collect()
    }

    #[test]
    fn radix_sizing() {
        // 2^{m+1} >= 2^32 → m = 31 for width exactly 2^32.
        assert_eq!(Radix::for_width(2, 1u64 << 32).m(), 31);
        // The paper speaks of m = log_B 2^32 = 32 for B = 2; width 2^32 + ε
        // indeed needs m = 32.
        assert_eq!(Radix::for_width(2, (1u64 << 32) + 5).m(), 32);
        assert_eq!(Radix::for_width(10, 100_000).m(), 4);
        assert_eq!(Radix::for_width(10, 10).m(), 0);
        assert_eq!(Radix::for_width(2, u64::MAX).m(), 63);
    }

    #[test]
    fn canonical_roundtrip() {
        let r = Radix::for_width(10, 100_000);
        assert_eq!(r.canonical(5555), vec![5, 5, 5, 5, 0]);
        assert_eq!(r.value_of(&r.canonical(98_765)), 98_765);
        assert_eq!(r.canonical(0), vec![0; 5]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn overflow_rejected() {
        let r = Radix::for_width(10, 100);
        let _ = r.canonical(100);
    }

    #[test]
    fn paper_preferred_example() {
        // Section 5.1 running example: δ_t = 5555, B = 10.
        // δ_c = 2828 forces a non-canonical representation; the paper picks
        // δ_e = 7 + 12·10 + 6·10² + 2·10³ so the user derives
        // 5555 = 15 + 14·10 + 14·10² + 4·10³.
        let r = Radix::for_width(10, 10_000);
        assert_eq!(r.m(), 3);
        let (choice, e) = r.select_representation(5555, 2828);
        assert_eq!(choice, ReprChoice::NonCanonical(2));
        assert_eq!(e, vec![7, 12, 6, 2]);
        let target = target_digits(&r, &e, 2828);
        assert_eq!(target, vec![15, 14, 14, 4]);
        assert_eq!(r.value_of(&target), 5555);
    }

    #[test]
    fn paper_canonical_example() {
        // δ_c = 1 + 2·10 + 3·10² + 4·10³ = 4321 dominates digit-wise:
        // δ_e = 4 + 3·10 + 2·10² + 1·10³.
        let r = Radix::for_width(10, 10_000);
        let (choice, e) = r.select_representation(5555, 4321);
        assert_eq!(choice, ReprChoice::Canonical);
        assert_eq!(e, vec![4, 3, 2, 1]);
        assert_eq!(target_digits(&r, &e, 4321), vec![5, 5, 5, 5]);
    }

    #[test]
    fn preferred_digit_shapes() {
        // Canonical 3 + 2·B + 0·B² + 3·B³ (B=10): the paper's invalidity
        // example — ^1δ is invalid because δ_2 - 1 < 0.
        let r = Radix::for_width(10, 10_000);
        let canon = r.canonical(3 + 2 * 10 + 3 * 1000);
        assert!(r.preferred_is_valid(&canon, 0));
        assert!(!r.preferred_is_valid(&canon, 1));
        assert!(r.preferred_is_valid(&canon, 2));
        // ^0δ: [3+10, 2-1, 0, 3]
        assert_eq!(
            r.preferred(&canon, 0),
            vec![Some(13), Some(1), Some(0), Some(3)]
        );
        // ^1δ: [3+10, 2+9, None, 3] (dropped component).
        assert_eq!(
            r.preferred(&canon, 1),
            vec![Some(13), Some(11), None, Some(3)]
        );
        // ^2δ: [3+10, 2+9, 0+9, 3-1]
        assert_eq!(
            r.preferred(&canon, 2),
            vec![Some(13), Some(11), Some(9), Some(2)]
        );
    }

    #[test]
    fn preferred_preserves_value() {
        let r = Radix::for_width(7, 100_000);
        for delta in [0u64, 1, 6, 7, 48, 343, 99_999, 12_345] {
            let canon = r.canonical(delta);
            for j in 0..r.m() {
                if !r.preferred_is_valid(&canon, j) {
                    continue;
                }
                let rep: Vec<u32> = r
                    .preferred(&canon, j)
                    .into_iter()
                    .map(Option::unwrap)
                    .collect();
                assert_eq!(r.value_of(&rep), delta, "delta={delta} j={j}");
            }
        }
    }

    #[test]
    fn selection_exhaustive_small() {
        // For every δ_c ≤ δ_t in a small space, the selected representation
        // must (a) have non-negative evidence digits, (b) reconstruct δ_t,
        // and (c) for non-canonical choices, be a valid preferred rep.
        for base in [2u32, 3, 10] {
            let width = 200u64;
            let r = Radix::for_width(base, width);
            for dt in 0..width {
                let canon_t = r.canonical(dt);
                for dc in 0..=dt {
                    let (choice, e) = r.select_representation(dt, dc);
                    assert_eq!(
                        r.value_of(&e) + dc,
                        dt,
                        "B={base} δt={dt} δc={dc} choice={choice:?}"
                    );
                    let target = target_digits(&r, &e, dc);
                    match choice {
                        ReprChoice::Canonical => {
                            assert_eq!(target, canon_t);
                        }
                        ReprChoice::NonCanonical(j) => {
                            assert!(r.preferred_is_valid(&canon_t, j));
                            let rep: Vec<u32> = r
                                .preferred(&canon_t, j)
                                .into_iter()
                                .map(Option::unwrap)
                                .collect();
                            assert_eq!(target, rep, "B={base} δt={dt} δc={dc} j={j}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn evidence_digit_bounds() {
        // The Lemma's bound: 0 ≤ δ_{e,i} < 2B.
        for base in [2u32, 5] {
            let r = Radix::for_width(base, 500);
            for dt in 0..500u64 {
                for dc in (0..=dt).step_by(7) {
                    let (_, e) = r.select_representation(dt, dc);
                    for (i, &d) in e.iter().enumerate() {
                        assert!(d < 2 * base, "B={base} δt={dt} δc={dc} digit {i} = {d}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "δ_c ≤ δ_t")]
    fn selection_requires_order() {
        let r = Radix::for_width(2, 100);
        let _ = r.select_representation(5, 6);
    }
}
