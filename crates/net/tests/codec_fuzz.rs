//! Malformed-input fuzzing for the wire codec: on truncated frames,
//! wrong version bytes, absurd length prefixes, bit flips and plain
//! random byte soup, the decoder must return `Err` — it must never
//! panic and never allocate more than the (bounded) input it was given.
//!
//! Framed input goes through [`FrameBuf`], the decoder the reactor and
//! `ClientCore` run. All inputs derive from a fixed-seed RNG, so a
//! failure reproduces
//! exactly. Panics would propagate and fail the test harness, so simply
//! *calling* the decoder on hostile bytes is the assertion that none
//! exist; allocation is bounded structurally (every length prefix is
//! checked against both its cap and the remaining input before any
//! buffer is reserved), which the absurd-length cases exercise.

use insq_net::wire::{Encode, Message, MAX_PAYLOAD_LEN, WIRE_VERSION};
use insq_net::{DecodeError, ErrorCode, FrameBuf, SpaceKind, WireOutcome, WirePos};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A corpus of one valid message per type (and per position variant).
fn corpus() -> Vec<Message> {
    vec![
        Message::Register {
            space: SpaceKind::Euclidean,
            k: 5,
            rho: 1.6,
            pos: WirePos::Point { x: 12.5, y: -3.25 },
        },
        Message::Register {
            space: SpaceKind::Network,
            k: 3,
            rho: 2.0,
            pos: WirePos::OnEdge {
                edge: 17,
                offset: 4.5,
            },
        },
        Message::PositionUpdate {
            pos: WirePos::Vertex(123_456),
        },
        Message::Deregister,
        Message::KnnResult {
            epoch: 42,
            ids: vec![9, 1, 7, 0, u32::MAX],
            outcome: WireOutcome::LocalRerank,
            flags: insq_net::wire::FLAG_UNCERTIFIED,
        },
        Message::EpochNotify { epoch: u64::MAX },
        Message::Error {
            code: ErrorCode::Overloaded,
            detail: "write queue full".to_string(),
        },
        Message::Drained,
        envelope(7, &Message::Deregister),
        envelope(u32::MAX, &Message::Drained),
    ]
}

/// The envelope of `inner` for `session`.
fn envelope(session: u32, inner: &Message) -> Message {
    let mut payload = Vec::new();
    inner.encode_payload(&mut payload);
    Message::Mux { session, payload }
}

#[test]
fn every_strict_prefix_of_a_valid_payload_is_an_error() {
    for msg in corpus() {
        let frame = msg.encode_frame();
        let payload = &frame[4..];
        for cut in 0..payload.len() {
            let res = Message::decode_payload(&payload[..cut]);
            assert!(
                res.is_err(),
                "prefix {cut}/{} of {msg:?} decoded to {res:?}",
                payload.len()
            );
        }
    }
}

#[test]
fn appended_garbage_is_trailing_bytes() {
    for msg in corpus() {
        let frame = msg.encode_frame();
        let mut payload = frame[4..].to_vec();
        payload.push(0xAA);
        assert_eq!(
            Message::decode_payload(&payload),
            Err(DecodeError::TrailingBytes { extra: 1 }),
            "message {msg:?}"
        );
    }
}

#[test]
fn wrong_version_bytes_are_rejected() {
    for msg in corpus() {
        let frame = msg.encode_frame();
        let mut payload = frame[4..].to_vec();
        for bad in [0u8, WIRE_VERSION + 1, 0x7F, 0xFF] {
            payload[0] = bad;
            assert_eq!(
                Message::decode_payload(&payload),
                Err(DecodeError::BadVersion(bad))
            );
        }
    }
}

#[test]
fn unknown_tags_are_rejected() {
    for bad in 8u8..=255 {
        let payload = [WIRE_VERSION, bad];
        assert_eq!(
            Message::decode_payload(&payload),
            Err(DecodeError::BadTag(bad))
        );
    }
}

/// An envelope's body is opaque to the frame decoder, so a body that
/// does not decode — a bad tag, a truncation, an envelope inside the
/// envelope — still frames cleanly and fails only when opened; the
/// nested envelope is never decoded.
#[test]
fn envelope_bodies_fail_only_when_opened() {
    let nested = envelope(1, &envelope(2, &Message::Deregister));
    let mut truncated = Vec::new();
    Message::Drained.encode_payload(&mut truncated);
    truncated.pop();
    let cases = [
        (nested, DecodeError::BadTag(6)),
        (
            Message::Mux {
                session: 3,
                payload: vec![WIRE_VERSION, 0xEE],
            },
            DecodeError::BadTag(0xEE),
        ),
        (
            Message::Mux {
                session: 4,
                payload: truncated,
            },
            DecodeError::Truncated,
        ),
    ];
    for (mux, err) in cases {
        let mut fb = FrameBuf::new();
        fb.extend(&mux.encode_frame());
        let (back, _) = fb.next_message().expect("frames cleanly").expect("one");
        assert_eq!(back, mux);
        let Message::Mux { payload, .. } = back else {
            unreachable!()
        };
        assert_eq!(Message::decode_inner(&payload), Err(err));
    }
}

#[test]
fn absurd_frame_length_prefixes_are_rejected_without_allocating() {
    // Length prefixes far beyond MAX_PAYLOAD_LEN (up to u32::MAX ≈ 4 GiB),
    // and below the version+tag minimum, must be refused from the prefix
    // alone — before a single payload byte is buffered or awaited.
    for len in [
        0u32,
        1,
        MAX_PAYLOAD_LEN as u32 + 1,
        1 << 20,
        1 << 24,
        1 << 30,
        u32::MAX,
    ] {
        let mut fb = FrameBuf::new();
        let mut prefix = Vec::new();
        len.encode(&mut prefix);
        fb.extend(&prefix);
        assert!(
            matches!(
                fb.next_message(),
                Err(DecodeError::LengthOutOfBounds { claimed, limit: MAX_PAYLOAD_LEN })
                    if claimed == len as u64
            ),
            "len {len}"
        );
    }
}

#[test]
fn in_bounds_length_prefix_with_missing_bytes_is_eof_not_hang() {
    // A legal-looking length whose bytes never arrive: the decoder asks
    // for more bytes, and an EOF there is off a frame boundary — the
    // session reports it as an unexpected EOF instead of waiting forever.
    let mut wire = Vec::new();
    1_000u32.encode(&mut wire);
    wire.extend_from_slice(&[1u8; 10]);
    let mut fb = FrameBuf::new();
    fb.extend(&wire);
    assert_eq!(fb.next_message(), Ok(None));
    assert!(!fb.at_frame_boundary());
    // Mid-length-prefix likewise.
    let mut fb = FrameBuf::new();
    fb.extend(&[0x10u8, 0x00]);
    assert_eq!(fb.next_message(), Ok(None));
    assert!(!fb.at_frame_boundary());
}

#[test]
fn absurd_ids_and_detail_counts_are_rejected_against_remaining_input() {
    // KnnResult whose ids count claims far more than the payload holds.
    for claim in [100u32, 10_000, 1 << 16, u32::MAX] {
        let mut payload = Vec::new();
        WIRE_VERSION.encode(&mut payload);
        3u8.encode(&mut payload); // KnnResult
        0u64.encode(&mut payload); // epoch
        claim.encode(&mut payload); // ids count
        payload.extend_from_slice(&[0u8; 12]); // far fewer bytes than claimed
        assert!(
            matches!(
                Message::decode_payload(&payload),
                Err(DecodeError::LengthOutOfBounds { .. })
            ),
            "claim {claim}"
        );
    }
    // Error whose detail length outruns the payload.
    for claim in [64u32, 1 << 10, u32::MAX] {
        let mut payload = Vec::new();
        WIRE_VERSION.encode(&mut payload);
        5u8.encode(&mut payload); // Error
        0u8.encode(&mut payload); // code
        claim.encode(&mut payload); // detail length
        payload.extend_from_slice(&[b'x'; 8]);
        assert!(
            matches!(
                Message::decode_payload(&payload),
                Err(DecodeError::LengthOutOfBounds { .. })
            ),
            "claim {claim}"
        );
    }
}

#[test]
fn invalid_utf8_details_are_rejected() {
    let mut payload = Vec::new();
    WIRE_VERSION.encode(&mut payload);
    5u8.encode(&mut payload); // Error
    0u8.encode(&mut payload); // code
    4u32.encode(&mut payload); // detail length
    payload.extend_from_slice(&[0xFF, 0xFE, 0x80, 0x41]);
    assert_eq!(Message::decode_payload(&payload), Err(DecodeError::BadUtf8));
}

#[test]
fn single_byte_corruptions_never_panic() {
    for msg in corpus() {
        let frame = msg.encode_frame();
        let payload = &frame[4..];
        for at in 0..payload.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut corrupted = payload.to_vec();
                corrupted[at] ^= flip;
                // Ok (the corruption landed in a don't-care bit pattern)
                // or Err are both fine; panicking is the only failure.
                let _ = Message::decode_payload(&corrupted);
            }
        }
    }
}

#[test]
fn random_byte_soup_never_panics() {
    let mut rng = StdRng::seed_from_u64(0x1A5E_2016);
    for case in 0..4_000 {
        let len = rng.random_range(0usize..256);
        let mut soup: Vec<u8> = (0..len)
            .map(|_| rng.random_range(0u32..256) as u8)
            .collect();
        let _ = Message::decode_payload(&soup);

        // Again with a valid version byte up front, to fuzz deeper than
        // the version check.
        if soup.is_empty() {
            soup.push(WIRE_VERSION);
        } else {
            soup[0] = WIRE_VERSION;
        }
        let _ = Message::decode_payload(&soup);

        // And through the frame decoder: arbitrary bytes must produce
        // messages, "need more bytes" or clean errors, never a panic.
        let mut fb = FrameBuf::new();
        fb.extend(&soup);
        for _ in 0..8 {
            match fb.next_message() {
                Ok(Some(_)) => {}
                Ok(None) | Err(_) => break,
            }
        }
        let _ = case;
    }
}
