//! Cross-validation of the implementation against the paper's cost model:
//! the *structure* of real VOs must match formula (4)'s accounting, and
//! the verifier's hash-op counts must scale as formula (5) predicts.

use adp_core::costmodel;
use adp_core::prelude::*;
use adp_core::vo::QueryVO;
use adp_relation::{Column, KeyRange, Record, Schema, SelectQuery, Table, Value, ValueType};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

fn owner() -> &'static Owner {
    static OWNER: OnceLock<Owner> = OnceLock::new();
    OWNER.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xC057);
        Owner::new(512, &mut rng)
    })
}

/// A table over a 2^16 domain, keys spaced 16 apart.
fn setup() -> (SignedTable, Certificate) {
    let schema = Schema::new(
        vec![
            Column::new("k", ValueType::Int),
            Column::new("v", ValueType::Int),
        ],
        "k",
    );
    let domain = Domain::new(0, (1 << 16) + 4);
    let mut t = Table::new("cm", schema);
    for i in 0..300i64 {
        t.insert(Record::new(vec![
            Value::Int(domain.key_min() + i * 16),
            Value::Int(i),
        ]))
        .unwrap();
    }
    let st = owner()
        .sign_table(t, domain, SchemeConfig::default())
        .unwrap();
    let cert = owner().certificate(&st);
    (st, cert)
}

#[test]
fn vo_digest_count_matches_formula4_structure() {
    // Formula (4): digests = [m + 4 + ⌈log2 m⌉] (boundary, worst case)
    //                        + 3(n-a+1) (per entry) + 1 (right delimiter g)
    // Our VO carries per boundary: (m+1) intermediates + selector(1 or
    // 1+⌈log2 m⌉) + other-component + attr-root, and per entry: 2 rep
    // roots + 1 attr root. The per-entry coefficient 3 must match exactly;
    // the boundary terms must lie within the formula's worst case + O(1).
    let (st, cert) = setup();
    let publisher = Publisher::new(&st);
    let radix = st.radix().unwrap();
    let m = radix.m() as usize;
    let key_min = st.domain().key_min();

    let mut prev = None;
    for q in [1usize, 2, 5, 10, 50] {
        let beta = key_min + (q as i64 - 1) * 16;
        let query = SelectQuery::range(KeyRange::closed(key_min, beta));
        let (rows, vo) = publisher.answer_select(&query).unwrap();
        assert_eq!(rows.len(), q);
        verify_select(&cert, &query, &rows, &vo).unwrap();
        let count = vo.digest_count();
        if let Some((prev_q, prev_count)) = prev {
            // Per-entry increment is exactly 3 digests (formula (4)).
            assert_eq!(
                count - prev_count,
                3 * (q - prev_q),
                "per-entry digest coefficient"
            );
        }
        // Boundary digests = total - 3q; formula's worst case per side is
        // about m + 4 + ⌈log2 m⌉.
        let boundary = count - 3 * q;
        let worst_case_two_sides =
            2 * (m + 1 + 1 + costmodel::ceil_log2(m as u32) as usize + 2) + 4;
        assert!(
            boundary <= worst_case_two_sides,
            "boundary digests {boundary} exceed worst case {worst_case_two_sides}"
        );
        assert!(
            boundary >= 2 * (m + 1),
            "boundary must carry m+1 intermediates per side"
        );
        prev = Some((q, count));
    }
    let _ = QueryVO::TriviallyEmpty; // type anchor
}

#[test]
fn verify_hash_ops_scale_linearly_like_formula5() {
    let (st, cert) = setup();
    let publisher = Publisher::new(&st);
    let key_min = st.domain().key_min();
    let mut samples = Vec::new();
    for q in [10usize, 20, 40, 80] {
        let beta = key_min + (q as i64 - 1) * 16;
        let query = SelectQuery::range(KeyRange::closed(key_min, beta));
        let (rows, vo) = publisher.answer_select(&query).unwrap();
        // Per-thread count: the other tests in this binary hash meanwhile.
        let before = adp_crypto::thread_hash_ops();
        verify_select(&cert, &query, &rows, &vo).unwrap();
        samples.push((q as f64, (adp_crypto::thread_hash_ops() - before) as f64));
    }
    // Fit a line through first/last; middle points must sit on it (±10%):
    // C_user is affine in q (formula (5)).
    let (q0, c0) = samples[0];
    let (q3, c3) = samples[3];
    let slope = (c3 - c0) / (q3 - q0);
    let intercept = c0 - slope * q0;
    for &(q, c) in &samples[1..3] {
        let predicted = slope * q + intercept;
        let err = (c - predicted).abs() / predicted;
        assert!(
            err < 0.10,
            "q={q}: measured {c}, affine prediction {predicted}"
        );
    }
    // The slope should be within the formula's worst-case per-entry cost
    // 2(B(m+1)+2) for B=2, m=16 (domain 2^16): 2(34+2) = 72.
    let worst = 2.0 * (2.0 * 17.0 + 2.0);
    assert!(slope <= worst * 1.15, "slope {slope} vs worst case {worst}");
    assert!(slope >= worst * 0.3, "slope {slope} implausibly small");
}

#[test]
fn vo_bytes_independent_of_table_size() {
    // Formula (4) has no `n` term — the paper's key advantage over [10].
    // Measure the same |Q|=5 query on tables of 100 vs 2000 rows.
    let schema = Schema::new(vec![Column::new("k", ValueType::Int)], "k");
    let domain = Domain::new(0, 1 << 16);
    let mut sizes = Vec::new();
    for n in [100i64, 2000] {
        let mut t = Table::new("sz", schema.clone());
        for i in 0..n {
            t.insert(Record::new(vec![Value::Int(domain.key_min() + i * 16)]))
                .unwrap();
        }
        let st = owner()
            .sign_table(t, domain, SchemeConfig::default())
            .unwrap();
        let query = SelectQuery::range(KeyRange::closed(
            domain.key_min() + 160,
            domain.key_min() + 160 + 4 * 16,
        ));
        let (rows, vo) = Publisher::new(&st).answer_select(&query).unwrap();
        assert_eq!(rows.len(), 5);
        sizes.push(vo.wire_size());
    }
    // Identical up to boundary-representation variation (a few digests).
    let diff = sizes[0].abs_diff(sizes[1]);
    assert!(
        diff <= 20 * 17,
        "VO size must not grow with n: {sizes:?} (diff {diff})"
    );
}
