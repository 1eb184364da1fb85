//! The paper's analytic cost model (Section 6, Table 1, formulas (4), (5)).
//!
//! These functions are the formulas behind **Figure 9** (user traffic
//! overhead) and **Figure 10** (user computation overhead), with the
//! paper's constants as defaults. `adp-bench`'s evaluation harness
//! evaluates them at the figures' points ([`FIG9_RESULT_SIZES`],
//! [`FIG10_RESULT_SIZES`]) and sets them beside values *measured* from this
//! implementation.
//!
//! Formula (4) — authentication traffic to the user:
//!
//! ```text
//! M_user = [m + 4 + 3(n-a+1) + ⌈log₂ m⌉] · M_digest + M_sign
//! ```
//!
//! Formula (5) — user verification cost:
//!
//! ```text
//! C_user = [2(n-a+1)(B(m+1)+2) + B(m+1) + ⌈log₂ m⌉ + 3] · C_hash + C_sign
//! ```
//!
//! With the defaults (`B = 2`, `m = 32`, `C_hash = 50 µs`,
//! `C_sign = 5 ms`) formula (5) reduces to the paper's
//! `C_user = 6.8·(n-a+1) + 8.7 ms` (Section 6.2).

/// Table 1 cost parameters (paper defaults).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostParams {
    /// Cost of one hash operation, µs (Table 1: 50).
    pub c_hash_us: f64,
    /// Cost of one signature verification, ms (Table 1: 5).
    pub c_sign_ms: f64,
    /// Digest size in bits (Table 1: 128).
    pub m_digest_bits: u32,
    /// Signature size in bits (Table 1: 1024).
    pub m_sign_bits: u32,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            c_hash_us: 50.0,
            c_sign_ms: 5.0,
            m_digest_bits: 128,
            m_sign_bits: 1024,
        }
    }
}

/// `⌈log₂ m⌉` as used by the paper's formulas.
pub fn ceil_log2(m: u32) -> u32 {
    assert!(m > 0);
    32 - (m - 1).leading_zeros()
}

/// The paper's `m = ⌈log_B (U - L)⌉` for a domain width.
pub fn paper_m(base: u32, width: u64) -> u32 {
    assert!(base >= 2);
    let mut m = 0u32;
    let mut cap: u128 = 1;
    while cap < width as u128 {
        cap *= base as u128;
        m += 1;
    }
    m
}

/// Formula (4): total authentication bytes sent to the user for a result
/// of `q` entries.
pub fn muser_bytes(params: &CostParams, m: u32, q: u64) -> f64 {
    let digests = m as u64 + 4 + 3 * q + ceil_log2(m) as u64;
    digests as f64 * (params.m_digest_bits as f64 / 8.0) + params.m_sign_bits as f64 / 8.0
}

/// Figure 9's y-axis: traffic overhead (%) = `M_user / (q · M_r) · 100`.
pub fn traffic_overhead_pct(params: &CostParams, m: u32, q: u64, record_bytes: u64) -> f64 {
    100.0 * muser_bytes(params, m, q) / (q * record_bytes) as f64
}

/// Formula (5)'s bracketed term: the number of hash operations the user
/// performs for a result of `q` entries.
pub fn cuser_hashes(base: u32, m: u32, q: u64) -> u64 {
    let bm1 = (base as u64) * (m as u64 + 1);
    2 * q * (bm1 + 2) + bm1 + ceil_log2(m) as u64 + 3
}

/// Formula (5): user verification cost in milliseconds.
pub fn cuser_ms(params: &CostParams, base: u32, m: u32, q: u64) -> f64 {
    cuser_hashes(base, m, q) as f64 * params.c_hash_us / 1_000.0 + params.c_sign_ms
}

/// The |Q| series of Figure 9.
pub const FIG9_RESULT_SIZES: [u64; 5] = [1, 2, 5, 10, 100];

/// The result-size series of Figure 10.
pub const FIG10_RESULT_SIZES: [u64; 3] = [1, 5, 10];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(32), 5);
        assert_eq!(ceil_log2(33), 6);
    }

    #[test]
    fn paper_m_values() {
        // "With B = 2, m = log_B 2^32 = 32 if the key is an integer."
        assert_eq!(paper_m(2, 1u64 << 32), 32);
        assert_eq!(paper_m(10, 100_000), 5);
        assert_eq!(paper_m(3, 1u64 << 32), 21);
    }

    #[test]
    fn sec62_closed_form_matches_paper() {
        // "formula (5) reduces to C_user = 6.8(n-a+1) + 8.7 msec"
        let p = CostParams::default();
        let intercept = cuser_ms(&p, 2, 32, 0);
        let slope = cuser_ms(&p, 2, 32, 1) - intercept;
        assert!((slope - 6.8).abs() < 0.05, "slope {slope}");
        assert!((intercept - 8.7).abs() < 0.05, "intercept {intercept}");
    }

    #[test]
    fn sec62_absolute_numbers() {
        // "C_user is roughly 15.5 msec, 689 msec and 6.81 sec for result
        // size of 1, 100 and 1000 records."
        let p = CostParams::default();
        let m = 32;
        assert!((cuser_ms(&p, 2, m, 1) - 15.5).abs() < 0.1);
        assert!((cuser_ms(&p, 2, m, 100) - 689.0).abs() < 1.0);
        assert!((cuser_ms(&p, 2, m, 1000) - 6_810.0).abs() < 10.0);
    }

    #[test]
    fn figure10_minimum_between_2_and_3() {
        // "It can be shown that this occurs at 2 < B < 3": among integer
        // bases, B = 2 and B = 3 must beat B ≥ 4 and B = 10 must be worst.
        // Figure 10's 32-bit key domain, m adapting to B, q = 10.
        let at = |b: u32| cuser_ms(&CostParams::default(), b, paper_m(b, 1u64 << 32), 10);
        let best = (2..=10).map(at).fold(f64::INFINITY, f64::min);
        assert!(at(2) <= best + 0.2, "B=2 near-optimal");
        assert!(at(10) > at(2), "large B is worse");
        assert!(at(10) > at(3), "large B is worse than 3");
    }

    #[test]
    fn figure9_overhead_decreases_with_q_and_mr() {
        // Figure 9's m = 32; `qi` indexes its |Q| series.
        let col = |mr: u64, qi: usize| {
            traffic_overhead_pct(&CostParams::default(), 32, FIG9_RESULT_SIZES[qi], mr)
        };
        // Larger records → lower overhead.
        assert!(col(64, 0) > col(2048, 0));
        // Larger result → lower overhead (aggregation amortized).
        assert!(col(512, 0) > col(512, 2));
        assert!(col(512, 2) > col(512, 4));
        // The reduction stabilizes: going 10 → 100 changes little.
        let delta_small = col(512, 1) - col(512, 2); // 2 → 5
        let delta_large = col(512, 3) - col(512, 4); // 10 → 100
        assert!(delta_small > delta_large);
    }

    #[test]
    fn muser_matches_formula_by_hand() {
        // m=32: digests = 32 + 4 + 3q + 5 = 41 + 3q; bytes = ·16 + 128.
        let p = CostParams::default();
        assert_eq!(muser_bytes(&p, 32, 1), (44.0 * 16.0) + 128.0);
        assert_eq!(muser_bytes(&p, 32, 10), (71.0 * 16.0) + 128.0);
    }

    #[test]
    fn cuser_hashes_by_hand() {
        // B=2, m=32, q=1: 2(66+2) + 66 + 5 + 3 = 210.
        assert_eq!(cuser_hashes(2, 32, 1), 210);
        // q=10: 20·68 + 74 = 1434.
        assert_eq!(cuser_hashes(2, 32, 10), 1434);
    }
}
