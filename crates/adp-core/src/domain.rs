//! The ordered key domain `(L, U)` and query-range normalization.
//!
//! Section 3.1: the owner publishes a domain `(L, U)` known to everyone and
//! inserts two fictitious *delimiter* entries `r_0` and `r_{n+1}` into the
//! sorted list. In this implementation the delimiters sit at the fixed
//! values `L+1` and `U-1`, and real keys are confined to `[L+2, U-2]`, so
//! the delimiters are always strict extremes regardless of later updates.
//!
//! Query bounds are normalized to a closed interval `[α, β]` with
//! `L+2 ≤ α` and `β ≤ U-2`: a query's half-open or unbounded sides are
//! clamped — this never changes the answer (no real key lies outside) and
//! guarantees the chain exponents `δ_e = α - r_{a-1}.K - 1` and
//! `r_{b+1}.K - β - 1` are non-negative for honest boundaries, including
//! delimiter boundaries.

use adp_relation::KeyRange;
use std::ops::Bound;

/// The public key domain `(L, U)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Domain {
    l: i64,
    u: i64,
}

impl Domain {
    /// Creates a domain. Requires room for the two delimiters plus at least
    /// one real key: `u - l >= 4`.
    pub fn new(l: i64, u: i64) -> Self {
        assert!(u > l, "domain upper bound must exceed lower bound");
        assert!(
            (u as i128 - l as i128) >= 4,
            "domain must have width >= 4 to hold delimiters and keys"
        );
        Domain { l, u }
    }

    /// Lower bound `L` (exclusive for keys).
    pub fn l(&self) -> i64 {
        self.l
    }

    /// Upper bound `U` (exclusive for keys).
    pub fn u(&self) -> i64 {
        self.u
    }

    /// The left delimiter's key value (`L + 1`).
    pub fn left_delimiter(&self) -> i64 {
        self.l + 1
    }

    /// The right delimiter's key value (`U - 1`).
    pub fn right_delimiter(&self) -> i64 {
        self.u - 1
    }

    /// Smallest legal real key (`L + 2`).
    pub fn key_min(&self) -> i64 {
        self.l + 2
    }

    /// Largest legal real key (`U - 2`).
    pub fn key_max(&self) -> i64 {
        self.u - 2
    }

    /// Whether `k` is a legal real key.
    pub fn contains_key(&self, k: i64) -> bool {
        k >= self.key_min() && k <= self.key_max()
    }

    /// Domain width `U - L` (fits u64 for any i64 pair).
    pub fn width(&self) -> u64 {
        (self.u as i128 - self.l as i128) as u64
    }

    /// `δ_t` for the *up* chain of key `k`: `U - k - 1`.
    pub fn delta_up(&self, k: i64) -> u64 {
        debug_assert!(k > self.l && k < self.u);
        (self.u as i128 - k as i128 - 1) as u64
    }

    /// `δ_t` for the *down* chain of key `k`: `k - L - 1`.
    pub fn delta_down(&self, k: i64) -> u64 {
        debug_assert!(k > self.l && k < self.u);
        (k as i128 - self.l as i128 - 1) as u64
    }

    /// `δ_c` for an origin check against `α`: `U - α` (the number of extra
    /// hash steps the *user* applies to the up-chain intermediate digests).
    pub fn delta_up_query(&self, alpha: i64) -> u64 {
        (self.u as i128 - alpha as i128) as u64
    }

    /// `δ_c` for a terminal check against `β`: `β - L`.
    pub fn delta_down_query(&self, beta: i64) -> u64 {
        (beta as i128 - self.l as i128) as u64
    }

    /// `δ_e` for the up direction: `α - k - 1`; `None` if `k >= α`
    /// (undefined — exactly the unforgeability property of Case 1).
    pub fn delta_up_evidence(&self, k: i64, alpha: i64) -> Option<u64> {
        let d = alpha as i128 - k as i128 - 1;
        if d < 0 {
            None
        } else {
            Some(d as u64)
        }
    }

    /// `δ_e` for the down direction: `k - β - 1`; `None` if `k <= β`.
    pub fn delta_down_evidence(&self, k: i64, beta: i64) -> Option<u64> {
        let d = k as i128 - beta as i128 - 1;
        if d < 0 {
            None
        } else {
            Some(d as u64)
        }
    }

    /// Normalizes a [`KeyRange`] into closed bounds `[α, β]` clamped to the
    /// legal key interval. Returns `None` if the normalized range is empty
    /// *by construction* (e.g. `K > 5 AND K < 6` over integers), in which
    /// case an empty result needs no cryptographic proof.
    pub fn normalize(&self, range: &KeyRange) -> Option<QueryBounds> {
        let alpha = match range.lo {
            Bound::Unbounded => self.key_min(),
            Bound::Included(a) => a.max(self.key_min()),
            Bound::Excluded(a) => {
                if a >= self.key_max() {
                    return None;
                }
                (a.saturating_add(1)).max(self.key_min())
            }
        };
        let beta = match range.hi {
            Bound::Unbounded => self.key_max(),
            Bound::Included(b) => b.min(self.key_max()),
            Bound::Excluded(b) => {
                if b <= self.key_min() {
                    return None;
                }
                (b.saturating_sub(1)).min(self.key_max())
            }
        };
        if alpha > beta {
            return None;
        }
        Some(QueryBounds { alpha, beta })
    }
}

/// Normalized closed query bounds `α ≤ K ≤ β` within the legal key range.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryBounds {
    pub alpha: i64,
    pub beta: i64,
}

impl QueryBounds {
    /// Whether a key falls inside the bounds.
    pub fn contains(&self, k: i64) -> bool {
        k >= self.alpha && k <= self.beta
    }
}

/// Canonical byte encoding of a key for hashing into chains.
pub fn key_bytes(k: i64) -> [u8; 8] {
    k.to_le_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delimiters_and_key_bounds() {
        let d = Domain::new(0, 100_000);
        assert_eq!(d.left_delimiter(), 1);
        assert_eq!(d.right_delimiter(), 99_999);
        assert_eq!(d.key_min(), 2);
        assert_eq!(d.key_max(), 99_998);
        assert!(d.contains_key(2) && d.contains_key(99_998));
        assert!(!d.contains_key(1) && !d.contains_key(99_999));
        assert_eq!(d.width(), 100_000);
    }

    #[test]
    fn paper_example_deltas() {
        // Section 3.1 example: range (0, 100000), g(r) = h^{U-r-1}(r).
        let d = Domain::new(0, 100_000);
        assert_eq!(d.delta_up(7), 99_992);
        assert_eq!(d.delta_up(2000), 97_999);
        assert_eq!(d.delta_up(3500), 96_499);
        // Publisher returns h^{α - 8010 - 1} = h^{1989} for α = 10000.
        assert_eq!(d.delta_up_evidence(8010, 10_000), Some(1989));
        // User hashes (U - α) = 90000 more times.
        assert_eq!(d.delta_up_query(10_000), 90_000);
        assert_eq!(1989 + 90_000, d.delta_up(8010));
        // Right delimiter 88888: g = h^{11111}.
        assert_eq!(d.delta_up(88_888), 11_111);
    }

    #[test]
    fn down_direction_mirror() {
        let d = Domain::new(0, 100_000);
        // δ't = k - L - 1.
        assert_eq!(d.delta_down(8010), 8009);
        // Publisher proves r_{b+1} > β via h^{k - β - 1}.
        assert_eq!(d.delta_down_evidence(12_100, 10_000), Some(2099));
        // User hashes (β - L) more times, landing on δ't.
        assert_eq!(d.delta_down_query(10_000), 10_000);
        assert_eq!(2099 + 10_000, d.delta_down(12_100));
    }

    #[test]
    fn down_evidence_algebra() {
        let d = Domain::new(0, 100_000);
        // (k - β - 1) + (β - L) must equal k - L - 1 for all honest pairs.
        for (k, beta) in [(12_100i64, 10_000i64), (50, 2), (99_998, 99_997)] {
            let e = d.delta_down_evidence(k, beta).unwrap();
            assert_eq!(
                e + d.delta_down_query(beta),
                d.delta_down(k),
                "k={k} β={beta}"
            );
        }
    }

    #[test]
    fn evidence_undefined_for_violations() {
        let d = Domain::new(0, 100_000);
        // Case 1: r_{a-1} >= α ⇒ undefined.
        assert_eq!(d.delta_up_evidence(10_000, 10_000), None);
        assert_eq!(d.delta_up_evidence(10_001, 10_000), None);
        // Boundary exactly one below is fine (δ_e = 0 is allowed).
        assert_eq!(d.delta_up_evidence(9_999, 10_000), Some(0));
        assert_eq!(d.delta_down_evidence(10_000, 10_000), None);
        assert_eq!(d.delta_down_evidence(10_001, 10_000), Some(0));
    }

    #[test]
    fn normalization() {
        let d = Domain::new(0, 100_000);
        // K < 10000 → [2, 9999].
        let b = d.normalize(&KeyRange::less_than(10_000)).unwrap();
        assert_eq!((b.alpha, b.beta), (2, 9_999));
        // K >= 10000 → [10000, 99998].
        let b = d.normalize(&KeyRange::at_least(10_000)).unwrap();
        assert_eq!((b.alpha, b.beta), (10_000, 99_998));
        // Full scan.
        let b = d.normalize(&KeyRange::all()).unwrap();
        assert_eq!((b.alpha, b.beta), (2, 99_998));
        // Point query.
        let b = d.normalize(&KeyRange::point(42)).unwrap();
        assert_eq!((b.alpha, b.beta), (42, 42));
        // Empty by construction.
        assert!(d
            .normalize(&KeyRange {
                lo: Bound::Excluded(5),
                hi: Bound::Excluded(6)
            })
            .is_none());
        assert!(d.normalize(&KeyRange::closed(10, 5)).is_none());
        // Clamping out-of-domain bounds.
        let b = d.normalize(&KeyRange::closed(-500, 500_000)).unwrap();
        assert_eq!((b.alpha, b.beta), (2, 99_998));
    }

    #[test]
    fn delimiter_boundary_evidence_always_defined() {
        // For any normalized [α, β] the delimiters can serve as boundaries:
        // left delimiter key < α and right delimiter key > β must have
        // non-negative evidence exponents.
        let d = Domain::new(0, 1_000);
        for alpha in [d.key_min(), 57, d.key_max()] {
            assert!(
                d.delta_up_evidence(d.left_delimiter(), alpha).is_some(),
                "α={alpha}"
            );
        }
        for beta in [d.key_min(), 57, d.key_max()] {
            assert!(
                d.delta_down_evidence(d.right_delimiter(), beta).is_some(),
                "β={beta}"
            );
        }
    }

    #[test]
    fn negative_domain_bounds() {
        let d = Domain::new(-1_000, 1_000);
        assert_eq!(d.width(), 2_000);
        assert_eq!(d.delta_up(-500), 1_499);
        assert_eq!(d.delta_down(-500), 499);
        assert!(d.contains_key(-998));
    }

    #[test]
    #[should_panic(expected = "width >= 4")]
    fn tiny_domain_rejected() {
        let _ = Domain::new(0, 3);
    }
}
