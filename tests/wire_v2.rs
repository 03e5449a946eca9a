//! Wire-v2 integration properties over the real protocol message set:
//! `decode ∘ encode = id` for every v2 construct (batch frames, delta
//! pulls, the empty batch, a 10k-entry delta), strict rejection at
//! every sub-frame boundary, and behavioural equivalence — digest-delta
//! pulls converge in exactly the same round as full-digest pulls on
//! identical scenario seeds, for fewer bytes, answered from the bounded
//! apply history rather than with the whole frontier.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rumor::churn::MarkovChurn;
use rumor::cluster::{ClusterBuilder, ClusterReport, VirtualCluster, WireVersion};
use rumor::core::{
    Lineage, Message, PartialList, PeerStats, ProtocolConfig, PullStrategy, PushMessage,
    StoreDigest, Update, Value,
};
use rumor::sim::{PaperProtocol, Scenario, TopologySpec, UpdateEvent};
use rumor::types::{DataKey, PeerId, UpdateId, VersionId};
use rumor::wire::{
    batch_frame_len, decode_frame, decode_frame_v2, encode_frame, BatchEncoder, WireError,
    BATCH_SUBHEADER_BYTES, FRAME_HEADER_BYTES,
};

fn update(seed: u64, depth: usize, tombstone: bool, payload_len: usize) -> Update {
    let mut r = ChaCha8Rng::seed_from_u64(seed);
    let key = DataKey::new(seed.wrapping_mul(31));
    let mut lineage = Lineage::root(&mut r);
    for _ in 0..depth {
        lineage = lineage.child(&mut r);
    }
    let origin = PeerId::new((seed % 1024) as u32);
    if tombstone {
        Update::tombstone(key, lineage, origin)
    } else {
        Update::write(key, lineage, Value::from(vec![0xCD; payload_len]), origin)
    }
}

/// One protocol message of the chosen variant, covering both v1 and
/// v2-only kinds.
fn message(variant: usize, seed: u64) -> Message {
    match variant % 6 {
        0 => Message::Push(PushMessage {
            update: update(
                seed,
                (seed % 4) as usize,
                seed.is_multiple_of(5),
                (seed % 48) as usize,
            ),
            push_round: (seed % 300) as u32,
            flood_list: PartialList::from_peers((0..(seed % 20) as u32).map(PeerId::new)),
        }),
        1 => {
            let mut digest = StoreDigest::new();
            for k in 0..(seed % 6) {
                digest.insert(
                    DataKey::new(seed.wrapping_add(k)),
                    VersionId::from_bits((seed as u128) << 32 | k as u128),
                );
            }
            Message::PullRequest { digest }
        }
        2 => Message::PullResponse {
            updates: (0..(seed % 4))
                .map(|i| update(seed.wrapping_add(i), 1, false, 8))
                .collect(),
        },
        3 => Message::Ack {
            update_id: UpdateId::from_bits(seed as u128 * 97),
        },
        4 => Message::PullSince { since: seed * 13 },
        _ => Message::DeltaResponse {
            upto: seed * 7,
            updates: (0..(seed % 3))
                .map(|i| update(seed.wrapping_add(i * 11), 2, i == 1, 12))
                .collect(),
        },
    }
}

fn decode_v2(frame: &rumor::wire::Bytes) -> Result<Vec<Message>, WireError> {
    let mut out = Vec::new();
    decode_frame_v2(frame, &mut out)?;
    Ok(out)
}

proptest! {
    #[test]
    fn any_batch_of_protocol_messages_roundtrips(
        seed in 0u64..5_000,
        picks in proptest::collection::vec(0usize..6, 1..12),
    ) {
        let msgs: Vec<Message> = picks
            .iter()
            .enumerate()
            .map(|(i, &v)| message(v, seed.wrapping_add(i as u64 * 17)))
            .collect();
        let mut enc = BatchEncoder::new();
        for m in &msgs {
            enc.push(m);
        }
        let frame = enc.finish();
        prop_assert_eq!(frame.len(), batch_frame_len(msgs.iter()));
        prop_assert_eq!(decode_v2(&frame).unwrap(), msgs);
        // The strict v1 decoder refuses the whole batch by version.
        prop_assert_eq!(
            decode_frame::<Message>(&frame),
            Err(WireError::BadVersion { found: 2 })
        );
    }

    #[test]
    fn v2_kinds_roundtrip_as_single_frames_and_v1_rejects_them(
        since in any::<u64>(),
        upto in any::<u64>(),
        count in 0u64..6,
    ) {
        for msg in [
            Message::PullSince { since },
            Message::DeltaResponse {
                upto,
                updates: (0..count).map(|i| update(i + 3, 1, false, 10)).collect(),
            },
        ] {
            let frame = encode_frame(&msg);
            prop_assert_eq!(decode_v2(&frame).unwrap(), vec![msg]);
            prop_assert_eq!(
                decode_frame::<Message>(&frame),
                Err(WireError::BadVersion { found: 2 })
            );
        }
    }

    #[test]
    fn v1_kinds_still_roundtrip_through_the_v2_decoder(
        seed in 0u64..5_000,
        variant in 0usize..4,
    ) {
        let msg = message(variant, seed);
        let frame = encode_frame(&msg);
        prop_assert_eq!(decode_v2(&frame).unwrap(), vec![msg.clone()]);
        // And the v1 decoder agrees on its own kinds.
        prop_assert_eq!(decode_frame::<Message>(&frame).unwrap(), msg);
    }
}

#[test]
fn empty_batch_decodes_to_no_messages() {
    let frame = BatchEncoder::new().finish();
    assert_eq!(frame.len(), FRAME_HEADER_BYTES + 4);
    assert_eq!(decode_v2(&frame).unwrap(), Vec::<Message>::new());
}

#[test]
fn a_ten_thousand_entry_delta_roundtrips_inside_a_batch() {
    let updates: Vec<Update> = (0..10_000)
        .map(|i| update(i, (i % 3) as usize, i.is_multiple_of(7), (i % 24) as usize))
        .collect();
    let delta = Message::DeltaResponse {
        upto: 10_000,
        updates,
    };
    let mut enc = BatchEncoder::new();
    enc.push(&Message::PullSince { since: 4 });
    enc.push(&delta);
    let frame = enc.finish();
    let decoded = decode_v2(&frame).unwrap();
    assert_eq!(decoded.len(), 2);
    assert_eq!(decoded[0], Message::PullSince { since: 4 });
    assert_eq!(decoded[1], delta);
}

#[test]
fn truncation_at_each_sub_frame_boundary_is_rejected() {
    let msgs = [
        message(0, 11),
        Message::PullSince { since: 9 },
        message(5, 23),
    ];
    let mut enc = BatchEncoder::new();
    let mut boundaries = vec![FRAME_HEADER_BYTES + 4];
    for m in &msgs {
        enc.push(m);
        let last = *boundaries.last().unwrap();
        boundaries.push(last + BATCH_SUBHEADER_BYTES + encode_frame(m).len() - FRAME_HEADER_BYTES);
    }
    let full = enc.finish().to_vec();
    assert_eq!(*boundaries.last().unwrap(), full.len());
    // Cutting exactly at a sub-frame boundary (with the outer length
    // fixed up so the cut reaches the batch parser) starves the declared
    // count — every prefix must fail, and the full frame must not.
    for &boundary in &boundaries[..boundaries.len() - 1] {
        let mut bytes = full[..boundary].to_vec();
        let declared = (boundary - FRAME_HEADER_BYTES) as u32;
        bytes[2..6].copy_from_slice(&declared.to_be_bytes());
        assert!(
            decode_v2(&rumor::wire::Bytes::from(bytes)).is_err(),
            "cut at sub-frame boundary {boundary} must fail"
        );
    }
    assert_eq!(
        decode_v2(&rumor::wire::Bytes::from(full)).unwrap().len(),
        msgs.len()
    );
}

fn equivalence_scenario(seed: u64) -> Scenario {
    Scenario::builder(32, seed)
        .online_fraction(0.8)
        .topology(TopologySpec::RandomSubset { k: 8 })
        .churn(MarkovChurn::new(0.95, 0.3).expect("valid churn"))
        .loss(0.02)
        .build()
        .expect("valid scenario")
}

fn equivalence_config(delta: bool) -> ProtocolConfig {
    ProtocolConfig::builder(32)
        .fanout_absolute(4)
        .pull_strategy(PullStrategy::Eager)
        .pull_retry(2, 3)
        .staleness_rounds(5)
        .delta_pulls(delta)
        .build()
        .expect("valid config")
}

fn equivalence_cluster(seed: u64, wire: WireVersion) -> VirtualCluster<PaperProtocol> {
    let delta = wire == WireVersion::V2;
    ClusterBuilder::new(&equivalence_scenario(seed))
        .wire(wire)
        .virtual_time(PaperProtocol::new(equivalence_config(delta)))
}

fn run_equivalence(seed: u64, wire: WireVersion) -> (Option<u32>, ClusterReport) {
    let mut cluster = equivalence_cluster(seed, wire);
    let event = UpdateEvent {
        round: 0,
        key: DataKey::from_name("wire-v2-equivalence"),
        delete: false,
        sequence: 0,
    };
    let update = cluster.initiate(&event).expect("someone online");
    let converged = cluster.run_until_all_online_aware(update, 200);
    (converged, cluster.report(update))
}

#[test]
fn delta_pulls_converge_in_the_same_round_as_full_digest_pulls() {
    for seed in [7u64, 21, 99, 3, 11, 42, 77, 1234] {
        let (v1_round, v1_report) = run_equivalence(seed, WireVersion::V1);
        let (v2_round, v2_report) = run_equivalence(seed, WireVersion::V2);
        assert_eq!(
            v1_round, v2_round,
            "seed {seed}: delta pulls must not change the convergence round"
        );
        assert!(v1_round.is_some(), "seed {seed}: scenario must converge");
        assert_eq!(
            v1_report.aware_set, v2_report.aware_set,
            "seed {seed}: the aware replica sets must match exactly"
        );
        // Same logical trajectory: one message per v1 frame, the same
        // messages regrouped into fewer frames under v2 — and, the point
        // of the format, in fewer bytes.
        assert_eq!(v1_report.messages_sent, v2_report.messages_sent);
        assert!(v2_report.frames_sent <= v1_report.frames_sent);
        assert!(
            v2_report.bytes_sent < v1_report.bytes_sent,
            "seed {seed}: v2 sent {} bytes, v1 {}",
            v2_report.bytes_sent,
            v1_report.bytes_sent
        );
        for report in [&v1_report, &v2_report] {
            assert_eq!(report.decode_errors, 0);
            assert_eq!(report.version_mismatches, 0);
        }
    }
}

#[test]
fn delta_pulls_are_answered_from_the_history_not_with_the_whole_frontier() {
    // The equivalence scenario under a write-heavy closed loop: 24 updates
    // over 4 keys, every fifth a delete, each issued once the last reached
    // every online replica — churn and loss keep replicas falling behind.
    let mut served = PeerStats::default();
    for seed in [7u64, 21, 99] {
        let mut cluster = equivalence_cluster(seed, WireVersion::V2);
        for sequence in 0..24u32 {
            let event = UpdateEvent {
                round: cluster.rounds_run(),
                key: DataKey::from_name(&format!("wire-v2-history-{}", sequence % 4)),
                delete: sequence % 5 == 4,
                sequence,
            };
            let update = cluster.initiate(&event).expect("someone online");
            cluster.run_until_all_online_aware(update, 200);
        }
        for peer in 0..cluster.population() {
            let stats = cluster.node(PeerId::new(peer as u32)).stats();
            served.pull_requests_received += stats.pull_requests_received;
            served.delta_in_sync += stats.delta_in_sync;
            served.delta_suffix += stats.delta_suffix;
            served.delta_full += stats.delta_full;
            served.delta_max_depth = served.delta_max_depth.max(stats.delta_max_depth);
        }
    }
    let pulls = served.pull_requests_received;
    assert!(
        pulls > 1_000,
        "the loop must exercise the pull phase: {served:?}"
    );
    assert_eq!(
        served.delta_in_sync + served.delta_suffix + served.delta_full,
        pulls,
        "every pull is a delta pull with exactly one outcome"
    );
    assert!(served.delta_suffix > 0 && served.delta_in_sync > served.delta_suffix);
    // The ring length (8) is checked by traffic: the whole frontier goes
    // out for under 5 % of pulls (2.3 % here, all of them requesters that
    // diverged — a ring of 64 answers not one more from the history), and
    // the deepest hit (6) stops short of the ring's edge.
    assert!(served.delta_full * 20 < pulls, "{served:?}");
    assert!((1..8).contains(&served.delta_max_depth), "{served:?}");
}
