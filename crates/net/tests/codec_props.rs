//! Codec round-trip properties: for every message type of the wire
//! protocol, arbitrary values satisfy `decode(encode(m)) == m` — through
//! both the payload codec and the frame decoder the reactor runs
//! ([`FrameBuf`]) — including the empty-`ids` and maximum-size edge
//! cases.

use insq_net::wire::{Decode, DecodeError, Encode, Message, Reader, MAX_IDS, MAX_PAYLOAD_LEN};
use insq_net::{ErrorCode, FrameBuf, SpaceKind, WireOutcome, WirePos};
use proptest::prelude::*;

fn arb_pos() -> BoxedStrategy<WirePos> {
    prop_oneof![
        (-1e12f64..1e12, -1e12f64..1e12).prop_map(|(x, y)| WirePos::Point { x, y }),
        (0u32..u32::MAX).prop_map(WirePos::Vertex),
        ((0u32..u32::MAX), (0f64..1e9)).prop_map(|(edge, offset)| WirePos::OnEdge { edge, offset }),
    ]
    .boxed()
}

fn arb_space() -> BoxedStrategy<SpaceKind> {
    prop_oneof![Just(SpaceKind::Euclidean), Just(SpaceKind::Network)].boxed()
}

fn arb_outcome() -> BoxedStrategy<WireOutcome> {
    prop_oneof![
        Just(WireOutcome::Valid),
        Just(WireOutcome::Swap),
        Just(WireOutcome::LocalRerank),
        Just(WireOutcome::Recompute),
    ]
    .boxed()
}

fn arb_code() -> BoxedStrategy<ErrorCode> {
    prop_oneof![
        Just(ErrorCode::SpaceMismatch),
        Just(ErrorCode::NotRegistered),
        Just(ErrorCode::AlreadyRegistered),
        Just(ErrorCode::BadConfig),
        Just(ErrorCode::Malformed),
        Just(ErrorCode::BadPosition),
        Just(ErrorCode::Overloaded),
        Just(ErrorCode::Unavailable),
    ]
    .boxed()
}

fn arb_ids() -> BoxedStrategy<Vec<u32>> {
    prop::collection::vec(0u32..u32::MAX, 0..80).boxed()
}

fn arb_detail() -> BoxedStrategy<String> {
    prop::collection::vec(0u32..0xFFFF, 0..60)
        .prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect())
        .boxed()
}

/// The envelope of `inner` for `session`.
fn envelope(session: u32, inner: &Message) -> Message {
    let mut payload = Vec::new();
    inner.encode_payload(&mut payload);
    Message::Mux { session, payload }
}

fn arb_message() -> BoxedStrategy<Message> {
    prop_oneof![
        arb_inner(),
        (0u32..u32::MAX, arb_inner()).prop_map(|(session, inner)| envelope(session, &inner)),
    ]
    .boxed()
}

/// Every message that may travel inside an envelope.
fn arb_inner() -> BoxedStrategy<Message> {
    prop_oneof![
        Just(Message::Drained),
        (arb_space(), 1u32..1_000, 1f64..8.0, arb_pos())
            .prop_map(|(space, k, rho, pos)| Message::Register { space, k, rho, pos }),
        arb_pos().prop_map(|pos| Message::PositionUpdate { pos }),
        Just(Message::Deregister),
        ((0u64..u64::MAX), arb_ids(), arb_outcome(), 0u32..256).prop_map(
            |(epoch, ids, outcome, flags)| Message::KnnResult {
                epoch,
                ids,
                outcome,
                flags: flags as u8,
            }
        ),
        (0u64..u64::MAX).prop_map(|epoch| Message::EpochNotify { epoch }),
        (arb_code(), arb_detail()).prop_map(|(code, detail)| Message::Error { code, detail }),
    ]
    .boxed()
}

/// Round-trips one message through both layers of the codec.
fn roundtrip(msg: &Message) -> Result<(), TestCaseError> {
    // Payload layer.
    let frame = msg.encode_frame();
    prop_assert!(frame.len() <= 4 + MAX_PAYLOAD_LEN);
    let back = Message::decode_payload(&frame[4..]);
    prop_assert_eq!(back, Ok(msg.clone()));
    // Frame layer: message, byte count, then a clean frame boundary.
    let mut fb = FrameBuf::new();
    fb.extend(&frame);
    let (m, n) = fb.next_message().expect("valid frame").expect("one frame");
    prop_assert_eq!(&m, msg);
    prop_assert_eq!(n, frame.len());
    prop_assert!(fb.next_message().expect("nothing left").is_none());
    prop_assert!(fb.at_frame_boundary());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn register_roundtrips(space in arb_space(), k in 1u32..100_000, rho in 1f64..16.0, pos in arb_pos()) {
        roundtrip(&Message::Register { space, k, rho, pos })?;
    }

    #[test]
    fn position_update_roundtrips(pos in arb_pos()) {
        roundtrip(&Message::PositionUpdate { pos })?;
    }

    #[test]
    fn knn_result_roundtrips(epoch in 0u64..u64::MAX, ids in arb_ids(), outcome in arb_outcome(), flags in 0u32..256) {
        roundtrip(&Message::KnnResult { epoch, ids, outcome, flags: flags as u8 })?;
    }

    #[test]
    fn epoch_notify_roundtrips(epoch in 0u64..u64::MAX) {
        roundtrip(&Message::EpochNotify { epoch })?;
    }

    #[test]
    fn error_roundtrips(code in arb_code(), detail in arb_detail()) {
        roundtrip(&Message::Error { code, detail })?;
    }

    // The envelope round-trips, opens to its inner message, and
    // `mux_frame` builds the same bytes in place.
    #[test]
    fn mux_roundtrips(session in 0u32..u32::MAX, inner in arb_inner()) {
        let mux = envelope(session, &inner);
        roundtrip(&mux)?;
        prop_assert_eq!(Message::mux_frame(session, &inner), mux.encode_frame());
        let Message::Mux { payload, .. } = mux else { unreachable!() };
        prop_assert_eq!(Message::decode_inner(&payload), Ok(inner));
    }

    #[test]
    fn any_message_roundtrips(msg in arb_message()) {
        roundtrip(&msg)?;
    }

    // Concatenated frames stream back out one by one, in order.
    #[test]
    fn frame_streams_roundtrip(msgs in prop::collection::vec(arb_message(), 0..8)) {
        let mut wire = Vec::new();
        for m in &msgs {
            wire.extend_from_slice(&m.encode_frame());
        }
        let mut fb = FrameBuf::new();
        fb.extend(&wire);
        for m in &msgs {
            let (back, _) = fb.next_message().expect("valid").expect("frame");
            prop_assert_eq!(&back, m);
        }
        prop_assert!(fb.next_message().expect("nothing left").is_none());
        prop_assert!(fb.at_frame_boundary());
    }
}

#[test]
fn drained_roundtrips() {
    let frame = Message::Drained.encode_frame();
    assert_eq!(Message::decode_payload(&frame[4..]), Ok(Message::Drained));
}

#[test]
fn deregister_roundtrips() {
    let frame = Message::Deregister.encode_frame();
    assert_eq!(
        Message::decode_payload(&frame[4..]),
        Ok(Message::Deregister)
    );
}

#[test]
fn empty_ids_roundtrip() {
    let msg = Message::KnnResult {
        epoch: 0,
        ids: vec![],
        outcome: WireOutcome::Valid,
        flags: 0,
    };
    let frame = msg.encode_frame();
    assert_eq!(Message::decode_payload(&frame[4..]), Ok(msg));
}

#[test]
fn max_size_ids_roundtrip() {
    // The largest legal result: MAX_IDS ids still fits a frame.
    let msg = Message::KnnResult {
        epoch: u64::MAX,
        ids: (0..MAX_IDS as u32).collect(),
        outcome: WireOutcome::Recompute,
        flags: insq_net::wire::FLAG_UNCERTIFIED,
    };
    let frame = msg.encode_frame();
    assert!(frame.len() - 4 <= MAX_PAYLOAD_LEN);
    assert_eq!(Message::decode_payload(&frame[4..]), Ok(msg));
}

#[test]
fn one_past_max_ids_is_rejected() {
    // Hand-encode a KnnResult claiming MAX_IDS + 1 ids: the decoder must
    // reject the count against its cap, not trust it.
    let mut payload = Vec::new();
    insq_net::wire::WIRE_VERSION.encode(&mut payload); // version
    3u8.encode(&mut payload); // KnnResult tag
    7u64.encode(&mut payload); // epoch
    ((MAX_IDS + 1) as u32).encode(&mut payload); // ids count: over cap
    for i in 0..(MAX_IDS + 1) as u32 {
        i.encode(&mut payload);
    }
    WireOutcome::Valid.encode(&mut payload);
    assert_eq!(
        Message::decode_payload(&payload),
        Err(DecodeError::LengthOutOfBounds {
            claimed: (MAX_IDS + 1) as u64,
            limit: MAX_IDS,
        })
    );
}

#[test]
fn space_kind_bytes_are_pinned() {
    for (space, byte) in [(SpaceKind::Euclidean, 0u8), (SpaceKind::Network, 1)] {
        let mut buf = Vec::new();
        space.encode(&mut buf);
        assert_eq!(buf, [byte], "{space:?}");
        assert_eq!(SpaceKind::decode(&mut Reader::new(&buf)), Ok(space));
    }
}

#[test]
fn register_with_space_byte_2_is_a_bad_discriminant() {
    let mut payload = Vec::new();
    Message::Register {
        space: SpaceKind::Euclidean,
        k: 3,
        rho: 1.6,
        pos: WirePos::Point { x: 1.0, y: 2.0 },
    }
    .encode_payload(&mut payload);
    // Version, tag, then the space byte.
    assert_eq!(payload[2], 0);
    payload[2] = 2;
    assert_eq!(
        Message::decode_payload(&payload),
        Err(DecodeError::BadDiscriminant {
            what: "space kind",
            value: 2,
        })
    );
}

#[test]
fn primitive_codecs_roundtrip_at_extremes() {
    fn rt<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        let mut r = Reader::new(&buf);
        assert_eq!(T::decode(&mut r).unwrap(), v);
        assert_eq!(r.remaining(), 0);
    }
    rt(0u8);
    rt(u8::MAX);
    rt(0u32);
    rt(u32::MAX);
    rt(0u64);
    rt(u64::MAX);
    rt(0.0f64);
    rt(-0.0f64);
    rt(f64::MAX);
    rt(f64::MIN_POSITIVE);
    rt(f64::INFINITY);
    rt(f64::NEG_INFINITY);
    rt(String::new());
    rt("κNN ✓".to_string());
    rt(Vec::<u32>::new());
}
