//! Every count prefix the wire decoders read, set to the largest value its
//! decoder accepts, in an otherwise minimal buffer: the decoder must reject
//! the buffer with a `WireError`, and must not have reserved memory for
//! the elements the count announced — the heap the call holds at its peak
//! stays under 1 MiB. Before reservations were bounded by the bytes left,
//! a few dozen bytes could ask for gigabytes (2^24 VO entries).

#[path = "common/heap_peak.rs"]
mod heap_peak;

use adp_core::plan::decode_wire_plan;
use adp_core::wire::{
    decode_certificate, decode_join_vo, decode_query, decode_records, decode_signatures, decode_vo,
    WireError, Writer,
};
use heap_peak::{peak_during, HeapPeak};

#[global_allocator]
static ALLOCATOR: HeapPeak = HeapPeak;

const PEAK_LIMIT: usize = 1 << 20;

/// One minimal (16-byte) digest.
fn digest(w: &mut Writer) {
    w.u8(16);
    for _ in 0..16 {
        w.u8(0);
    }
}

/// A boundary proof with no intermediates and no selector.
fn boundary(w: &mut Writer) {
    w.u32(0);
    w.u8(0);
    digest(w);
    digest(w);
}

/// A range VO's opening: tag and both boundaries.
fn range_vo_head(w: &mut Writer) {
    w.u8(2);
    boundary(w);
    boundary(w);
}

fn build(write: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer::new();
    write(&mut w);
    w.into_bytes()
}

fn check<T: std::fmt::Debug>(
    field: &str,
    bytes: &[u8],
    decode: impl FnOnce(&[u8]) -> Result<T, WireError>,
) {
    let (verdict, peak) = peak_during(|| decode(bytes));
    assert!(
        verdict.is_err(),
        "{field}: a {}-byte buffer decoded: {verdict:?}",
        bytes.len()
    );
    assert!(
        peak < PEAK_LIMIT,
        "{field}: decoding {} bytes held {peak} bytes of heap",
        bytes.len()
    );
}

#[test]
fn vo_counts_reserve_no_more_than_the_input_holds() {
    check(
        "range VO entries",
        &build(|w| {
            range_vo_head(w);
            w.u32(1 << 24);
        }),
        decode_vo,
    );
    check(
        "boundary intermediates",
        &build(|w| {
            w.u8(2);
            w.u32(1 << 16);
        }),
        decode_vo,
    );
    check(
        "inclusion proof steps",
        &build(|w| {
            w.u8(2);
            w.u32(0);
            w.u8(2); // a non-canonical selector
            w.u32(0);
            digest(w);
            w.u32(0);
            w.u8(u8::MAX);
        }),
        decode_vo,
    );
    check(
        "disclosed attributes",
        &build(|w| {
            range_vo_head(w);
            w.u32(1);
            w.u8(0); // a match entry
            w.u8(0); // conceptual chains
            w.u32(1 << 20);
        }),
        decode_vo,
    );
    check(
        "hidden attributes",
        &build(|w| {
            range_vo_head(w);
            w.u32(1);
            w.u8(0);
            w.u8(0);
            w.u32(0);
            w.u32(1 << 20);
        }),
        decode_vo,
    );
    check(
        "individual signatures",
        &build(|w| {
            range_vo_head(w);
            w.u32(0);
            w.u8(1);
            w.u32(1 << 24);
        }),
        decode_vo,
    );
}

#[test]
fn result_and_dissemination_counts_reserve_no_more_than_the_input_holds() {
    check("records", &build(|w| w.u32(1 << 24)), decode_records);
    check(
        "record arity",
        &build(|w| {
            w.u32(1);
            w.u32(1 << 16);
        }),
        decode_records,
    );
    check("signatures", &build(|w| w.u32(1 << 24)), decode_signatures);
    check(
        "schema arity",
        &build(|w| {
            w.bytes(b"t");
            w.u32(1 << 12);
        }),
        decode_certificate,
    );
}

#[test]
fn join_vo_counts_reserve_no_more_than_the_input_holds() {
    check(
        "join inner proofs",
        &build(|w| {
            w.bytes(&[0]); // a trivially empty outer VO
            w.u32(1 << 24);
        }),
        decode_join_vo,
    );
    check(
        "join inner record arity",
        &build(|w| {
            w.bytes(&[0]);
            w.u32(1);
            w.u32(1 << 16);
        }),
        decode_join_vo,
    );
}

#[test]
fn query_and_plan_counts_reserve_no_more_than_the_input_holds() {
    let unbounded_range = |w: &mut Writer| {
        w.u8(0);
        w.u8(0);
    };
    check(
        "query filters",
        &build(|w| {
            unbounded_range(w);
            w.u32(1 << 10);
        }),
        decode_query,
    );
    check(
        "query projection",
        &build(|w| {
            unbounded_range(w);
            w.u32(0);
            w.u8(1);
            w.u32(1 << 12);
        }),
        decode_query,
    );
    check(
        "join plan projection",
        &build(|w| {
            w.u8(2);
            w.u32(0);
            w.u32(1);
            unbounded_range(w);
            w.u8(1);
            w.u32(u32::MAX);
        }),
        decode_wire_plan,
    );
}
