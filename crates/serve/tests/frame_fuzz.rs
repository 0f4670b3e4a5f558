//! Property coverage for the frame decoder: arbitrary, truncated and
//! oversized byte streams must never panic the server — every failure
//! surfaces as a typed [`ServeError`] (I/O, wire or protocol), and only a
//! clean EOF at a frame boundary reads as `Ok(None)`. Arbitrary bytes in a
//! `Write`'s packed records block parse or fail typed, never panic.

use proptest::prelude::*;
use serde::Value;
use wlcrc_serve::protocol::{read_frame, write_frame, PACKED_RECORD_BYTES};
use wlcrc_serve::{Request, ServeError, MAX_FRAME_BYTES, PROTOCOL_VERSION};

/// The decoder's only allowed failure modes.
fn is_typed_failure(err: &ServeError) -> bool {
    matches!(err, ServeError::Io(_) | ServeError::Wire(_) | ServeError::Protocol(_))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_bytes_never_panic_the_decoder(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        match read_frame(&mut &bytes[..]) {
            Ok(_) => {}
            Err(err) => prop_assert!(is_typed_failure(&err), "untyped failure: {err}"),
        }
    }

    #[test]
    fn truncated_frames_fail_typed(session in any::<u64>(), cut in 0usize..64) {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &Request::Flush { session }.to_value()).unwrap();
        let cut = cut.min(bytes.len());
        match read_frame(&mut &bytes[..cut]) {
            // Fewer than 4 header bytes is indistinguishable from a peer
            // hanging up between frames: a clean EOF.
            Ok(None) => prop_assert!(cut < 4, "EOF from a complete header at cut {cut}"),
            Ok(Some(_)) => prop_assert_eq!(cut, bytes.len()),
            Err(err) => prop_assert!(is_typed_failure(&err), "untyped failure: {err}"),
        }
    }

    #[test]
    fn oversized_announcements_are_rejected_before_allocation(
        extra in 1u32..1024,
        junk in any::<u8>(),
    ) {
        let length = (MAX_FRAME_BYTES as u32).saturating_add(extra);
        let mut bytes = length.to_le_bytes().to_vec();
        bytes.push(junk);
        prop_assert!(matches!(read_frame(&mut &bytes[..]), Err(ServeError::Protocol(_))));
    }

    #[test]
    fn garbled_payloads_fail_typed_and_request_parsing_never_panics(
        payload in prop::collection::vec(any::<u8>(), 1..256),
    ) {
        let length = (payload.len() + 1) as u32;
        let mut bytes = length.to_le_bytes().to_vec();
        bytes.push(PROTOCOL_VERSION);
        bytes.extend_from_slice(&payload);
        match read_frame(&mut &bytes[..]) {
            // A random payload that decodes as a value must still go
            // through request dispatch without panicking.
            Ok(Some(value)) => drop(Request::from_value(&value)),
            Ok(None) => prop_assert!(false, "a complete frame is not an EOF"),
            Err(err) => prop_assert!(is_typed_failure(&err), "untyped failure: {err}"),
        }
    }

    #[test]
    fn arbitrary_write_blocks_never_panic_request_parsing(
        session in any::<u64>(),
        block in prop::collection::vec(any::<u8>(), 0..1024),
    ) {
        let write = Value::record(
            "Write",
            vec![("session", Value::U64(session)), ("records", Value::Bytes(block.clone()))],
        );
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &write).unwrap();
        let value = read_frame(&mut &bytes[..]).unwrap().expect("one frame");
        let whole = block.len().is_multiple_of(PACKED_RECORD_BYTES);
        match Request::from_value(&value) {
            Ok(Request::Write { session: parsed, records }) => {
                prop_assert!(whole, "a {}-byte block parsed", block.len());
                prop_assert_eq!(parsed, session);
                prop_assert_eq!(records.len() * PACKED_RECORD_BYTES, block.len());
            }
            Ok(other) => prop_assert!(false, "a Write parsed as {other:?}"),
            Err(err) => {
                prop_assert!(matches!(err, ServeError::Protocol(_)), "untyped failure: {err}");
                prop_assert!(!whole, "a whole {}-byte block was refused", block.len());
            }
        }
    }
}
