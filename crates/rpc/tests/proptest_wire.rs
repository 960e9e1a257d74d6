//! Property tests for the RPC wire formats: values, requests, responses,
//! and frames all round-trip, and decoders reject garbage without
//! panicking.

use dcperf_rpc::wire::WireError;
use dcperf_rpc::{frame, Request, Response, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Whether a decode failure is one of the typed [`WireError`]s.
fn is_typed(e: &WireError) -> bool {
    matches!(
        e,
        WireError::UnexpectedEof
            | WireError::VarintOverflow
            | WireError::InvalidLength(_)
            | WireError::UnknownTag(_)
            | WireError::InvalidUtf8
    )
}

/// Strategy for arbitrary (bounded-depth) RPC values.
fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::I64),
        (-1e300f64..1e300).prop_map(Value::F64),
        ".{0,24}".prop_map(Value::Str),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(Value::Bin),
    ];
    leaf.prop_recursive(3, 64, 8, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..6).prop_map(Value::List),
            proptest::collection::vec((".{0,12}", inner.clone()), 0..6).prop_map(|pairs| {
                let map: BTreeMap<String, Value> = pairs.into_iter().collect();
                Value::Map(map)
            }),
            proptest::collection::vec((any::<u32>(), inner), 0..6).prop_map(Value::Struct),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn values_round_trip(value in value_strategy()) {
        let bytes = value.encode();
        let back = Value::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(back, value);
    }

    #[test]
    fn value_decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Value::decode(&data);
    }

    #[test]
    fn requests_round_trip(
        seq in any::<u64>(),
        method in "[a-z_]{1,24}",
        body in proptest::collection::vec(any::<u8>(), 0..256),
        deadline_us in any::<u64>(),
        corr in any::<u64>(),
    ) {
        let req = Request { seq, method, body, deadline_us, corr };
        prop_assert_eq!(Request::decode(&req.encode()).expect("decodes"), req);
    }

    #[test]
    fn responses_round_trip(
        seq in any::<u64>(),
        body in proptest::collection::vec(any::<u8>(), 0..256),
        kind in 0u8..4,
        corr in any::<u64>(),
    ) {
        let mut resp = match kind {
            0 => Response::ok(body),
            1 => Response::error(&String::from_utf8_lossy(&body)),
            2 => Response::deadline_exceeded(),
            _ => Response::overloaded(),
        };
        resp.seq = seq;
        resp.corr = corr;
        prop_assert_eq!(Response::decode(&resp.encode()).expect("decodes"), resp);
    }

    /// Correlation ids survive the round trip independently of seq: the
    /// multiplexing layer relies on the two fields never aliasing.
    #[test]
    fn corr_and_seq_are_independent(
        seq in any::<u64>(),
        corr in any::<u64>(),
        method in "[a-z_]{1,12}",
    ) {
        let req = Request { seq, method, body: vec![], deadline_us: 7, corr };
        let back = Request::decode(&req.encode()).expect("decodes");
        prop_assert_eq!(back.seq, seq);
        prop_assert_eq!(back.corr, corr);
        prop_assert_eq!(back.deadline_us, 7);
    }

    #[test]
    fn frames_round_trip_over_streams(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..512), 0..8),
    ) {
        let mut stream = Vec::new();
        for p in &payloads {
            frame::write_frame(&mut stream, p).expect("in-memory write succeeds");
        }
        let mut cursor = std::io::Cursor::new(stream);
        for p in &payloads {
            let got = frame::read_frame(&mut cursor).expect("reads").expect("present");
            prop_assert_eq!(&got, p);
        }
        prop_assert!(frame::read_frame(&mut cursor).expect("clean EOF").is_none());
    }

    #[test]
    fn request_decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Request::decode(&data);
        let _ = Response::decode(&data);
    }

    /// Byte-mutation fuzz: flipping any byte of a valid encoding must
    /// either still decode or fail with a *typed* [`WireError`] — never a
    /// panic, never a mystery error. Every field is required, so every
    /// strict prefix of a valid encoding must fail typed.
    #[test]
    fn mutated_requests_fail_typed(
        seq in any::<u64>(),
        method in "[a-z_]{1,16}",
        body in proptest::collection::vec(any::<u8>(), 0..64),
        deadline_us in any::<u64>(),
        corr in any::<u64>(),
        flip_at in any::<usize>(),
        flip_bits in 1u8..255,
    ) {
        let req = Request { seq, method, body, deadline_us, corr };
        let mut bytes = req.encode();

        // Single-byte mutation.
        let idx = flip_at % bytes.len();
        bytes[idx] ^= flip_bits;
        match Request::decode(&bytes) {
            Ok(_) => {} // mutation landed in a don't-care position
            Err(e) => prop_assert!(is_typed(&e)),
        }

        // Truncation of the *unmutated* encoding.
        let intact = req.encode();
        for cut in 0..intact.len() {
            match Request::decode(&intact[..cut]) {
                Ok(back) => prop_assert!(false, "{cut}-byte prefix decoded: {back:?}"),
                Err(e) => prop_assert!(is_typed(&e)),
            }
        }
    }

    #[test]
    fn mutated_responses_fail_typed(
        seq in any::<u64>(),
        body in proptest::collection::vec(any::<u8>(), 0..64),
        corr in any::<u64>(),
        flip_at in any::<usize>(),
        flip_bits in 1u8..255,
    ) {
        let mut resp = Response::ok(body);
        resp.seq = seq;
        resp.corr = corr;
        let mut bytes = resp.encode();
        let idx = flip_at % bytes.len();
        bytes[idx] ^= flip_bits;
        match Response::decode(&bytes) {
            Ok(_) => {}
            Err(e) => prop_assert!(is_typed(&e)),
        }

        // Truncation of the *unmutated* encoding.
        let intact = resp.encode();
        for cut in 0..intact.len() {
            match Response::decode(&intact[..cut]) {
                Ok(back) => prop_assert!(false, "{cut}-byte prefix decoded: {back:?}"),
                Err(e) => prop_assert!(is_typed(&e)),
            }
        }
    }
}
