//! The Section 3.2 cheating strategies against answers above the verifier's
//! split point, where the per-entry work, the link windows and the
//! aggregate check are spread over several threads.
//!
//! `attack_matrix.rs` runs every strategy on a 20-row table, whose answers
//! are always verified on one thread; here the same nine strategies meet
//! the three select shapes over a 640-row table, so every forgery is
//! verified split. Each applicable forgery must be rejected, and an attack
//! the tamper harness declares inapplicable where it should apply fails
//! the test, as there.

mod common;

use adp_core::prelude::*;
use adp_core::publisher::malicious::{tamper, Attack};
use adp_crypto::par::Split;
use adp_relation::{CompareOp, KeyRange, Predicate, SelectQuery};
use common::large_staff_table;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

/// Rows in the table; the queries below select all but the first and the
/// last, so both boundary proofs are real records.
const ROWS: i64 = 640;

fn signed() -> &'static (SignedTable, Certificate) {
    static SIGNED: OnceLock<(SignedTable, Certificate)> = OnceLock::new();
    SIGNED.get_or_init(|| {
        let owner = Owner::new(512, &mut StdRng::seed_from_u64(0x5B11));
        let st = owner
            .sign_table(
                large_staff_table(ROWS),
                Domain::new(0, 100_000),
                SchemeConfig::default(),
            )
            .unwrap();
        let cert = owner.certificate(&st);
        (st, cert)
    })
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shape {
    RangeSelect,
    FilteredSelect,
    ProjectDistinct,
}

fn select_query(shape: Shape) -> SelectQuery {
    let base = SelectQuery::range(KeyRange::closed(1_005, 1_000 + 10 * (ROWS - 1) - 5));
    match shape {
        Shape::RangeSelect => base,
        Shape::FilteredSelect => base.filter(Predicate::new("dept", CompareOp::Eq, 1i64)),
        Shape::ProjectDistinct => base.project(&["dept"]).distinct(),
    }
}

/// `attack_matrix.rs`'s applicability rule for the select shapes.
fn applicable(attack: Attack, shape: Shape) -> bool {
    match attack {
        Attack::MislabelFiltered => shape == Shape::FilteredSelect,
        Attack::FakeDuplicate => shape == Shape::ProjectDistinct,
        Attack::TruncateTail => shape != Shape::FilteredSelect,
        _ => true,
    }
}

fn run_cell(attack: Attack, shape: Shape) {
    let (st, cert) = signed();
    let publisher = Publisher::new(st);
    let query = select_query(shape);
    let (result, vo) = publisher.answer_select(&query).unwrap();
    let QueryVO::Range(rv) = &vo else {
        panic!("{shape:?}: a non-empty range answer")
    };
    assert!(
        rv.entries.len() >= 2 * Split::VERIFY.at,
        "{shape:?}: {} entries do not reach the split path",
        rv.entries.len()
    );
    verify_select(cert, &query, &result, &vo)
        .unwrap_or_else(|e| panic!("honest {shape:?} answer must verify: {e}"));

    match (
        tamper(&publisher, &query, &result, &vo, attack),
        applicable(attack, shape),
    ) {
        (None, false) => {}
        (None, true) => panic!("{attack:?} should be applicable to {shape:?}"),
        (Some(_), false) => panic!("{attack:?} unexpectedly applicable to {shape:?}"),
        (Some((bad_result, bad_vo)), true) => {
            assert!(
                bad_result != result || bad_vo != vo,
                "{attack:?} on {shape:?} was a no-op"
            );
            let verdict = verify_select(cert, &query, &bad_result, &bad_vo);
            assert!(
                verdict.is_err(),
                "{attack:?} on {shape:?} must be detected, got {verdict:?}"
            );
        }
    }
}

macro_rules! split_attack_matrix {
    ($($name:ident => $attack:ident / $shape:ident;)+) => {$(
        #[test]
        fn $name() {
            run_cell(Attack::$attack, Shape::$shape);
        }
    )+};
}

split_attack_matrix! {
    omit_interior_on_range_select         => OmitInterior / RangeSelect;
    omit_interior_on_filtered_select      => OmitInterior / FilteredSelect;
    omit_interior_on_project_distinct     => OmitInterior / ProjectDistinct;

    truncate_tail_on_range_select         => TruncateTail / RangeSelect;
    truncate_tail_on_filtered_select      => TruncateTail / FilteredSelect;
    truncate_tail_on_project_distinct     => TruncateTail / ProjectDistinct;

    fake_empty_on_range_select            => FakeEmpty / RangeSelect;
    fake_empty_on_filtered_select         => FakeEmpty / FilteredSelect;
    fake_empty_on_project_distinct        => FakeEmpty / ProjectDistinct;

    inject_spurious_on_range_select       => InjectSpurious / RangeSelect;
    inject_spurious_on_filtered_select    => InjectSpurious / FilteredSelect;
    inject_spurious_on_project_distinct   => InjectSpurious / ProjectDistinct;

    tamper_value_on_range_select          => TamperValue / RangeSelect;
    tamper_value_on_filtered_select       => TamperValue / FilteredSelect;
    tamper_value_on_project_distinct      => TamperValue / ProjectDistinct;

    swap_values_on_range_select           => SwapValues / RangeSelect;
    swap_values_on_filtered_select        => SwapValues / FilteredSelect;
    swap_values_on_project_distinct       => SwapValues / ProjectDistinct;

    shift_left_boundary_on_range_select   => ShiftLeftBoundary / RangeSelect;
    shift_left_boundary_on_filtered_select => ShiftLeftBoundary / FilteredSelect;
    shift_left_boundary_on_project_distinct => ShiftLeftBoundary / ProjectDistinct;

    mislabel_filtered_on_range_select     => MislabelFiltered / RangeSelect;
    mislabel_filtered_on_filtered_select  => MislabelFiltered / FilteredSelect;
    mislabel_filtered_on_project_distinct => MislabelFiltered / ProjectDistinct;

    fake_duplicate_on_range_select        => FakeDuplicate / RangeSelect;
    fake_duplicate_on_filtered_select     => FakeDuplicate / FilteredSelect;
    fake_duplicate_on_project_distinct    => FakeDuplicate / ProjectDistinct;
}
