//! Wire-codec round-trip properties: `decode(encode(m)) == m` for every
//! message variant of every protocol family, plus strict rejection of
//! truncated, padded and foreign-version frames.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rumor::baselines::{DemersMsg, FloodMsg, KIND_DEMERS_DIGEST};
use rumor::core::{Lineage, Message, PartialList, PushMessage, StoreDigest, Update, Value};
use rumor::types::{DataKey, PeerId, UpdateId, VersionId};
use rumor::wire::{
    decode_frame, decode_frame_v2, encode_frame, frame_len, Bytes, Frame, WireError,
    FRAME_HEADER_BYTES, WIRE_VERSION,
};

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// An update with `depth + 1` lineage entries; tombstone when asked.
fn update(seed: u64, depth: usize, tombstone: bool, payload_len: usize) -> Update {
    let mut r = rng(seed);
    let key = DataKey::new(seed.wrapping_mul(31));
    let mut lineage = Lineage::root(&mut r);
    for _ in 0..depth {
        lineage = lineage.child(&mut r);
    }
    let origin = PeerId::new((seed % 1024) as u32);
    if tombstone {
        Update::tombstone(key, lineage, origin)
    } else {
        Update::write(key, lineage, Value::from(vec![0xAB; payload_len]), origin)
    }
}

/// The frame kind of `Message::PullRequest`.
const KIND_PULL_REQUEST: u8 = 2;

/// What the `PullRequest` body decoder did before digests were flat: one
/// `StoreDigest::insert` per head as it is read. `None` = the body is
/// truncated or over-long, which the real decoder must reject too.
fn reference_pull_request_digest(mut body: &[u8]) -> Option<StoreDigest> {
    fn take<const N: usize>(body: &mut &[u8]) -> Option<[u8; N]> {
        let (head, rest) = body.split_first_chunk::<N>()?;
        *body = rest;
        Some(*head)
    }
    let mut digest = StoreDigest::new();
    for _ in 0..u32::from_be_bytes(take(&mut body)?) {
        let key = DataKey::new(u64::from_be_bytes(take(&mut body)?));
        for _ in 0..u16::from_be_bytes(take(&mut body)?) {
            digest.insert(
                key,
                VersionId::from_bits(u128::from_be_bytes(take(&mut body)?)),
            );
        }
    }
    body.is_empty().then_some(digest)
}

/// A well-formed v1 header in front of `body`, whatever the body holds.
fn frame_with_body(kind: u8, body: &[u8]) -> Vec<u8> {
    let header = Frame::new(kind, body.len());
    let mut frame = vec![header.version, header.kind];
    frame.extend_from_slice(&header.payload_len.to_be_bytes());
    frame.extend_from_slice(body);
    frame
}

fn roundtrip(msg: &Message) {
    let frame = encode_frame(msg);
    assert_eq!(frame.len(), frame_len(msg), "sizer must be exact");
    let decoded: Message = decode_frame(&frame).expect("round-trip decode");
    assert_eq!(&decoded, msg);
}

proptest! {
    #[test]
    fn pull_request_decode_is_total_over_arbitrary_bodies(
        // Groups drawn from a tiny key/head space, so unsorted heads,
        // duplicate heads, repeated keys and zero-head keys are the norm.
        cells in proptest::collection::vec(0u32..4_096, 0..12),
        // The stated group count: honest, off by one, or absurd.
        count_skew in proptest::sample::select(vec![0i64, 0, 0, 1, -1, 70_000, i64::from(u32::MAX)]),
        // Arbitrary bytes spliced over the body, and a cut somewhere in it.
        noise in proptest::collection::vec(any::<u8>(), 0..24),
        noise_at in 0usize..800,
        keep in 0usize..512,
    ) {
        let mut body = Vec::new();
        let stated = (cells.len() as i64 + count_skew).clamp(0, i64::from(u32::MAX)) as u32;
        body.extend_from_slice(&stated.to_be_bytes());
        for cell in &cells {
            let heads = cell % 4;
            body.extend_from_slice(&u64::from(cell / 4 % 4).to_be_bytes());
            body.extend_from_slice(&(heads as u16).to_be_bytes());
            for h in 0..heads {
                body.extend_from_slice(&u128::from((cell / 16 + h * 7) % 5).to_be_bytes());
            }
        }
        for (i, byte) in noise.iter().enumerate() {
            if let Some(slot) = body.get_mut(noise_at + i) {
                *slot = *byte;
            }
        }
        if count_skew == 1 {
            body.truncate(keep.min(body.len()));
        }
        let frame = frame_with_body(KIND_PULL_REQUEST, &body);

        // Never a panic; a typed error exactly where the insert loop
        // failed, the insert loop's digest otherwise.
        let decoded = decode_frame::<Message>(&frame);
        match reference_pull_request_digest(&body) {
            None => prop_assert!(decoded.is_err()),
            Some(digest) => {
                prop_assert!(digest.pairs().windows(2).all(|w| w[0] < w[1]));
                let msg = Message::PullRequest { digest };
                prop_assert_eq!(decoded.as_ref(), Ok(&msg));
                // Canonical re-encoding: exact size, a fixed point.
                let again = encode_frame(&msg);
                prop_assert_eq!(again.len(), frame_len(&msg));
                prop_assert_eq!(decode_frame::<Message>(&again).as_ref(), Ok(&msg));
            }
        }
    }

    #[test]
    fn push_roundtrips_any_list_and_lineage(
        seed in 0u64..10_000,
        depth in 0usize..6,
        tombstone in any::<bool>(),
        payload_len in 0usize..64,
        push_round in 0u32..512,
        list_len in 0usize..300,
    ) {
        let msg = Message::Push(PushMessage {
            update: update(seed, depth, tombstone, payload_len),
            push_round,
            flood_list: PartialList::from_peers((0..list_len as u32).map(PeerId::new)),
        });
        roundtrip(&msg);
    }

    #[test]
    fn pull_request_roundtrips_any_digest(
        seed in 0u64..10_000,
        keys in 0usize..12,
        heads_per_key in 1usize..5,
    ) {
        let mut digest = StoreDigest::new();
        for k in 0..keys {
            for h in 0..heads_per_key {
                digest.insert(
                    DataKey::new(seed.wrapping_add(k as u64)),
                    VersionId::from_bits((seed as u128) << 32 | (k * 7 + h) as u128),
                );
            }
        }
        roundtrip(&Message::PullRequest { digest });
    }

    #[test]
    fn pull_response_roundtrips_mixed_updates(
        seed in 0u64..10_000,
        count in 0usize..8,
    ) {
        let updates: Vec<Update> = (0..count)
            .map(|i| update(seed.wrapping_add(i as u64), i % 4, i % 3 == 0, i * 5))
            .collect();
        roundtrip(&Message::PullResponse { updates });
    }

    #[test]
    fn ack_roundtrips(bits in any::<u128>()) {
        roundtrip(&Message::Ack { update_id: UpdateId::from_bits(bits) });
    }

    #[test]
    fn flood_msg_roundtrips(bits in any::<u128>(), ttl in 0u32..64, hops in 0u32..64) {
        let msg = FloodMsg { rumor: UpdateId::from_bits(bits), ttl, hops };
        let frame = encode_frame(&msg);
        prop_assert_eq!(frame.len(), frame_len(&msg));
        prop_assert_eq!(decode_frame::<FloodMsg>(&frame).unwrap(), msg);
    }

    #[test]
    fn demers_msgs_roundtrip(
        seed in 0u64..10_000,
        known_len in 0usize..40,
        variant in proptest::sample::select(vec![0usize, 1, 2]),
        flag in any::<bool>(),
    ) {
        let msg = match variant {
            0 => DemersMsg::Digest {
                known: (0..known_len)
                    .map(|i| UpdateId::from_bits(seed as u128 * 131 + i as u128))
                    .collect(),
                reply: flag,
            },
            1 => DemersMsg::Rumor { rumor: UpdateId::from_bits(seed as u128) },
            _ => DemersMsg::Feedback {
                rumor: UpdateId::from_bits(seed as u128),
                already_knew: flag,
            },
        };
        let frame = encode_frame(&msg);
        prop_assert_eq!(frame.len(), frame_len(&msg));
        prop_assert_eq!(decode_frame::<DemersMsg>(&frame).unwrap(), msg);
    }

    #[test]
    fn demers_and_flood_decode_is_total_over_arbitrary_bodies(
        // The body's layout: digest, rumor, feedback or flood.
        layout in 0u8..4,
        // A valid flag byte, or a bad one.
        flag in 0u8..3,
        ids in proptest::collection::vec(any::<u128>(), 0..6),
        // The digest's stated id count: honest, off by one, or absurd.
        count_skew in proptest::sample::select(vec![0i64, 0, 0, 1, -1, 70_000, i64::from(u32::MAX)]),
        hops in any::<u64>(),
        // Arbitrary bytes spliced over the body, and a cut somewhere in
        // it; both miss a short body often enough that it stays intact.
        noise in proptest::collection::vec(any::<u8>(), 0..24),
        noise_at in 0usize..400,
        keep in 0usize..400,
    ) {
        let first = ids.first().copied().unwrap_or_default().to_be_bytes();
        let mut body = Vec::new();
        match layout {
            0 => {
                let stated = (ids.len() as i64 + count_skew).clamp(0, i64::from(u32::MAX)) as u32;
                body.push(flag);
                body.extend_from_slice(&stated.to_be_bytes());
                for id in &ids {
                    body.extend_from_slice(&id.to_be_bytes());
                }
            }
            1 => body.extend_from_slice(&first),
            2 => {
                body.extend_from_slice(&first);
                body.push(flag);
            }
            // Rumor, ttl, hops.
            _ => {
                body.extend_from_slice(&first);
                body.extend_from_slice(&hops.to_be_bytes());
            }
        }
        for (i, byte) in noise.iter().enumerate() {
            if let Some(slot) = body.get_mut(noise_at + i) {
                *slot = *byte;
            }
        }
        body.truncate(keep);

        // Under every Demers kind (digest = flood rumor, rumor, feedback)
        // and two unknown ones, read as both families: never a panic, and
        // whatever decodes is the canonical encoding of what it decoded to.
        for kind in 0..5 {
            let frame = frame_with_body(kind, &body);
            if let Ok(msg) = decode_frame::<DemersMsg>(&frame) {
                prop_assert_eq!(&encode_frame(&msg)[..], &frame[..]);
            }
            if let Ok(msg) = decode_frame::<FloodMsg>(&frame) {
                prop_assert_eq!(&encode_frame(&msg)[..], &frame[..]);
            }
        }
    }

    #[test]
    fn every_truncation_of_a_push_frame_is_rejected(
        seed in 0u64..2_000,
        list_len in 0usize..40,
        cut_frac in 0u32..1000,
    ) {
        let msg = Message::Push(PushMessage {
            update: update(seed, 2, false, 16),
            push_round: 1,
            flood_list: PartialList::from_peers((0..list_len as u32).map(PeerId::new)),
        });
        let frame = encode_frame(&msg);
        let cut = (frame.len() as u64 * u64::from(cut_frac) / 1000) as usize;
        prop_assert!(cut < frame.len());
        prop_assert!(decode_frame::<Message>(&frame[..cut]).is_err());
    }
}

#[test]
fn empty_and_max_length_partial_lists_roundtrip() {
    // Empty list and a paper-scale "everyone already has it" list.
    for list_len in [0usize, 1, 10_000] {
        let msg = Message::Push(PushMessage {
            update: update(9, 3, false, 32),
            push_round: 7,
            flood_list: PartialList::from_peers((0..list_len as u32).map(PeerId::new)),
        });
        roundtrip(&msg);
    }
}

#[test]
fn tombstone_and_empty_pull_response_roundtrip() {
    roundtrip(&Message::Push(PushMessage {
        update: update(4, 0, true, 0),
        push_round: 0,
        flood_list: PartialList::new(),
    }));
    roundtrip(&Message::PullResponse {
        updates: Vec::new(),
    });
    roundtrip(&Message::PullRequest {
        digest: StoreDigest::new(),
    });
}

/// Both pull answers — `PullResponse` (count at the body's start) and the
/// wire-v2 `DeltaResponse` (count after the 8-byte `upto`) — with the
/// stated update count overwritten, decoded.
fn pull_answers_stating(updates: &[Update], stated: u32) -> [Result<Vec<Message>, WireError>; 2] {
    let answers = [
        (
            0,
            Message::PullResponse {
                updates: updates.to_vec(),
            },
        ),
        (
            8,
            Message::DeltaResponse {
                upto: 3,
                updates: updates.to_vec(),
            },
        ),
    ];
    answers.map(|(count_at, msg)| {
        let mut frame = encode_frame(&msg).to_vec();
        let count_at = FRAME_HEADER_BYTES + count_at;
        frame[count_at..count_at + 4].copy_from_slice(&stated.to_be_bytes());
        let mut out = Vec::new();
        decode_frame_v2(&Bytes::from(frame), &mut out).map(|()| out)
    })
}

#[test]
fn pull_answers_never_trust_the_stated_update_count() {
    let malformed = |result: &Result<Vec<Message>, WireError>, why: &str| {
        let Err(WireError::Malformed { reason }) = result else {
            panic!("expected a malformed body, got {result:?}");
        };
        assert!(reason.contains(why), "{reason}");
    };
    // A count with no update behind it — the 18-byte `DeltaResponse` that
    // used to reserve 4 096 updates — is refused before anything is
    // reserved for it, whatever it claims.
    for stated in [1, 4_096, u32::MAX] {
        for result in pull_answers_stating(&[], stated) {
            malformed(&result, "truncated update list");
        }
    }
    // So is a count the bytes behind it cannot hold even at the smallest
    // encoding (31 bytes an update); one they could hold but do not is the
    // ordinary truncation; an under-stated one leaves bytes behind.
    let honest = [update(1, 0, true, 0), update(2, 1, false, 40)];
    let listed = Message::PullResponse {
        updates: honest.to_vec(),
    };
    let body_len = frame_len(&listed) - FRAME_HEADER_BYTES - 4;
    assert_eq!(body_len / 31, 3);
    for result in pull_answers_stating(&honest, (body_len / 31 + 1) as u32) {
        malformed(&result, "truncated update list");
    }
    for result in pull_answers_stating(&honest, 3) {
        malformed(&result, "truncated u64");
    }
    for result in pull_answers_stating(&honest, 1) {
        assert!(matches!(result, Err(WireError::TrailingBytes { .. })));
    }
    // The bound is tight: a list of nothing but smallest updates decodes.
    let smallest: Vec<Update> = (0..50).map(|seed| update(seed, 0, true, 0)).collect();
    let [Ok(pull), Ok(delta)] = pull_answers_stating(&smallest, 50) else {
        panic!("an honest list must decode");
    };
    assert_eq!(
        pull,
        [Message::PullResponse {
            updates: smallest.clone()
        }]
    );
    assert_eq!(
        delta,
        [Message::DeltaResponse {
            upto: 3,
            updates: smallest
        }]
    );
}

#[test]
fn bad_version_frames_are_rejected_with_the_found_version() {
    let msg = Message::Ack {
        update_id: UpdateId::from_bits(1),
    };
    let mut bytes = encode_frame(&msg).to_vec();
    for foreign in [0u8, WIRE_VERSION + 1, 0xFF] {
        bytes[0] = foreign;
        assert_eq!(
            decode_frame::<Message>(&bytes),
            Err(WireError::BadVersion { found: foreign })
        );
    }
}

#[test]
fn truncated_headers_and_padded_frames_are_rejected() {
    let msg = Message::Ack {
        update_id: UpdateId::from_bits(7),
    };
    let frame = encode_frame(&msg);
    for cut in 0..FRAME_HEADER_BYTES {
        assert!(matches!(
            decode_frame::<Message>(&frame[..cut]),
            Err(WireError::Truncated { .. })
        ));
    }
    let mut padded = frame.to_vec();
    padded.push(0);
    assert!(matches!(
        decode_frame::<Message>(&padded),
        Err(WireError::LengthMismatch { .. })
    ));
}

#[test]
fn digest_stating_more_ids_than_it_holds_is_rejected() {
    let ids = [UpdateId::from_bits(3), UpdateId::from_bits(8)];
    for stated in [3, 70_000, u32::MAX] {
        let mut body = vec![1];
        body.extend_from_slice(&stated.to_be_bytes());
        for id in ids {
            body.extend_from_slice(&id.to_bits().to_be_bytes());
        }
        assert!(
            matches!(
                decode_frame::<DemersMsg>(&frame_with_body(KIND_DEMERS_DIGEST, &body)),
                Err(WireError::Truncated { .. })
            ),
            "stated {stated}"
        );
    }
}

#[test]
fn unknown_kind_is_rejected_for_every_family() {
    let mut core = encode_frame(&Message::Ack {
        update_id: UpdateId::from_bits(1),
    })
    .to_vec();
    core[1] = 250;
    assert_eq!(
        decode_frame::<Message>(&core),
        Err(WireError::UnknownKind { kind: 250 })
    );
    let mut flood = encode_frame(&FloodMsg {
        rumor: UpdateId::from_bits(1),
        ttl: 1,
        hops: 0,
    })
    .to_vec();
    flood[1] = 99;
    assert!(matches!(
        decode_frame::<FloodMsg>(&flood),
        Err(WireError::UnknownKind { kind: 99 })
    ));
    let mut demers = encode_frame(&DemersMsg::Rumor {
        rumor: UpdateId::from_bits(1),
    })
    .to_vec();
    demers[1] = 77;
    assert!(matches!(
        decode_frame::<DemersMsg>(&demers),
        Err(WireError::UnknownKind { kind: 77 })
    ));
}
