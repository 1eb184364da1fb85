//! The frame layer's count prefixes, each set to the largest value its
//! decoder accepts in an otherwise minimal payload: the payload must be
//! rejected as malformed without reserving memory for the announced
//! elements (the companion of `adp-core/tests/wire_bounds.rs`, whose heap
//! meter this shares).

#[path = "../../adp-core/tests/common/heap_peak.rs"]
mod heap_peak;

use adp_core::wire::Writer;
use adp_server::protocol::{decode_payload, frame_type};
use adp_server::ProtoError;
use heap_peak::{peak_during, HeapPeak};

#[global_allocator]
static ALLOCATOR: HeapPeak = HeapPeak;

/// A count field: its name, the frame type, and a payload writer.
type Case = (&'static str, u8, fn(&mut Writer));

#[test]
fn frame_counts_reserve_no_more_than_the_payload_holds() {
    let cases: [Case; 3] = [
        ("batch request items", frame_type::BATCH_REQUEST, |w| {
            w.u32(1 << 16)
        }),
        ("batch response items", frame_type::BATCH_RESPONSE, |w| {
            w.u32(1 << 16)
        }),
        ("delta pieces", frame_type::DELTA_VO, |w| {
            w.u32(1); // subscription
            w.u64(1); // epoch
            w.u32(1 << 16);
        }),
    ];
    for (field, type_byte, write) in cases {
        let mut w = Writer::new();
        write(&mut w);
        let payload = w.into_bytes();
        let (verdict, peak) = peak_during(|| decode_payload(type_byte, &payload));
        assert!(
            matches!(verdict, Err(ProtoError::Malformed(_))),
            "{field}: {verdict:?}"
        );
        assert!(
            peak < 1 << 20,
            "{field}: decoding {} bytes held {peak} bytes of heap",
            payload.len()
        );
    }
}
