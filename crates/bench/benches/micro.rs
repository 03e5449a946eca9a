//! Criterion micro-benchmarks of the core data structures and engines.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rumor_core::{
    Lineage, Message, PartialList, ProtocolConfig, PushMessage, ReplicaPeer, ReplicaStore, Update,
    Value,
};
use rumor_net::{EffectSink, Node};
use rumor_types::{DataKey, PeerId, Round};
use rumor_wire::{decode_frame, encode_frame};

fn rng() -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(1)
}

fn bench_lineage(c: &mut Criterion) {
    let mut r = rng();
    let mut deep = Lineage::root(&mut r);
    for _ in 0..31 {
        deep = deep.child(&mut r);
    }
    let shallow = Lineage::from_ids(deep.ids()[..16].to_vec());
    c.bench_function("lineage/relation_depth32", |b| {
        b.iter(|| std::hint::black_box(deep.relation(&shallow)))
    });
    c.bench_function("lineage/child", |b| {
        let mut local = rng();
        b.iter(|| std::hint::black_box(deep.child(&mut local)))
    });
}

/// The benchmark's wide-list shape (`engine-paper-offline`: ~230 of 1200
/// ids per list, here 256), ids scattered over the population.
fn wide_list_peers() -> Vec<PeerId> {
    (0..256u32).map(|i| PeerId::new(i * 757 % 1_200)).collect()
}

fn bench_partial_list(c: &mut Criterion) {
    let big = PartialList::from_peers((0..1_000).map(PeerId::new));
    let small = PartialList::from_peers((500..600).map(PeerId::new));
    c.bench_function("partial_list/union_1000_100", |b| {
        b.iter_batched(
            || big.clone(),
            |mut l| {
                l.union_with(&small);
                l
            },
            BatchSize::SmallInput,
        )
    });
    c.bench_function("partial_list/contains_1000", |b| {
        b.iter(|| std::hint::black_box(big.contains(PeerId::new(999))))
    });

    // A union that adds nothing, as a duplicate copy's list mostly does,
    // and a build from scattered ids.
    let scattered = wide_list_peers();
    let wide = PartialList::from_peers(scattered.iter().copied());
    let covered = PartialList::from_peers(scattered.iter().rev().step_by(2).copied());
    c.bench_function("partial_list/union_covered_256", |b| {
        b.iter_batched(
            || wide.clone(),
            |mut l| {
                l.union_with(&covered);
                l
            },
            BatchSize::SmallInput,
        )
    });
    c.bench_function("partial_list/from_peers_256", |b| {
        b.iter(|| std::hint::black_box(PartialList::from_peers(scattered.iter().copied())))
    });
}

fn bench_store(c: &mut Criterion) {
    let mut r = rng();
    let updates: Vec<Update> = (0..100)
        .map(|i| {
            Update::write(
                DataKey::new(i % 10),
                Lineage::root(&mut r),
                Value::from("payload"),
                PeerId::new(0),
            )
        })
        .collect();
    c.bench_function("store/apply_100_concurrent", |b| {
        b.iter_batched(
            ReplicaStore::new,
            |mut s| {
                for u in &updates {
                    std::hint::black_box(s.apply(u));
                }
                s
            },
            BatchSize::SmallInput,
        )
    });
    let mut filled = ReplicaStore::new();
    for u in &updates {
        filled.apply(u);
    }
    c.bench_function("store/digest_10_keys", |b| {
        b.iter(|| std::hint::black_box(filled.digest()))
    });

    // The pull responder's diff at the benchmark's store shape (16 keys,
    // one version each): against an in-sync requester — nearly every
    // request — and against one that is a single update behind.
    let (behind, current) = sixteen_key_stores(&mut r);
    let in_sync = current.digest();
    let one_behind = behind.digest();
    c.bench_function("store/missing_updates_in_sync_16_keys", |b| {
        b.iter(|| std::hint::black_box(current.missing_updates_for(&in_sync)))
    });
    c.bench_function("store/missing_updates_one_behind_16_keys", |b| {
        b.iter(|| std::hint::black_box(current.missing_updates_for(&one_behind)))
    });
    // The same two questions asked the wire-v2 way: by state fingerprint,
    // answered from the apply history.
    let (in_sync, one_behind) = (current.fingerprint(), behind.fingerprint());
    c.bench_function("store/delta_in_sync", |b| {
        b.iter(|| std::hint::black_box(current.delta_for(in_sync)))
    });
    c.bench_function("store/delta_one_behind", |b| {
        b.iter(|| std::hint::black_box(current.delta_for(one_behind)))
    });
}

/// Two 16-key stores, one version per key: the second has applied one
/// superseding update the first has not.
fn sixteen_key_stores(r: &mut ChaCha8Rng) -> (ReplicaStore, ReplicaStore) {
    let updates: Vec<Update> = (0..16)
        .map(|key| {
            Update::write(
                DataKey::new(key),
                Lineage::root(r).child(r),
                Value::from("payload"),
                PeerId::new(0),
            )
        })
        .collect();
    let mut behind = ReplicaStore::new();
    for u in &updates {
        behind.apply(u);
    }
    let mut current = behind.clone();
    current.apply(&Update::write(
        updates[15].key(),
        updates[15].lineage().child(r),
        Value::from("newer"),
        PeerId::new(0),
    ));
    (behind, current)
}

fn bench_message_codec(c: &mut Criterion) {
    let mut r = rng();
    let msg = Message::Push(PushMessage {
        update: Update::write(
            DataKey::new(1),
            Lineage::root(&mut r).child(&mut r),
            Value::from("some update payload bytes"),
            PeerId::new(1),
        ),
        push_round: 3,
        flood_list: PartialList::from_peers((0..100).map(PeerId::new)),
    });
    let encoded = encode_frame(&msg);
    c.bench_function("message/encode_push_list100", |b| {
        b.iter(|| std::hint::black_box(encode_frame(&msg)))
    });
    c.bench_function("message/decode_push_list100", |b| {
        b.iter(|| std::hint::black_box(decode_frame::<Message>(&encoded).expect("valid")))
    });

    let wide = Message::Push(PushMessage {
        update: Update::write(
            DataKey::new(1),
            Lineage::root(&mut r).child(&mut r),
            Value::from("some update payload bytes"),
            PeerId::new(1),
        ),
        push_round: 3,
        flood_list: PartialList::from_peers(wide_list_peers()),
    });
    let encoded_wide = encode_frame(&wide);
    c.bench_function("message/decode_push_list256", |b| {
        b.iter(|| std::hint::black_box(decode_frame::<Message>(&encoded_wide).expect("valid")))
    });

    let pull = Message::PullRequest {
        digest: sixteen_key_stores(&mut r).1.digest(),
    };
    let encoded_pull = encode_frame(&pull);
    c.bench_function("message/encode_pull_request_16_keys", |b| {
        b.iter(|| std::hint::black_box(encode_frame(&pull)))
    });
    c.bench_function("message/decode_pull_request_16_keys", |b| {
        b.iter(|| std::hint::black_box(decode_frame::<Message>(&encoded_pull).expect("valid")))
    });
}

fn bench_peer_handle(c: &mut Criterion) {
    let config = ProtocolConfig::builder(1_000)
        .fanout_fraction(0.01)
        .build()
        .expect("valid");
    let mut r = rng();
    let update = Update::write(
        DataKey::new(1),
        Lineage::root(&mut r),
        Value::from("v"),
        PeerId::new(1),
    );
    let msg = Message::Push(PushMessage {
        update: update.clone(),
        push_round: 1,
        flood_list: PartialList::from_peers((0..20).map(PeerId::new)),
    });
    c.bench_function("peer/handle_first_push_r1000", |b| {
        b.iter_batched(
            || {
                let mut p = ReplicaPeer::new(PeerId::new(0), config.clone());
                p.learn_replicas((1..1_000).map(PeerId::new));
                (p, rng(), EffectSink::new())
            },
            |(mut p, mut local, mut out)| {
                p.on_message(
                    PeerId::new(1),
                    msg.clone(),
                    Round::new(1),
                    &mut local,
                    &mut out,
                );
                std::hint::black_box(out)
            },
            BatchSize::SmallInput,
        )
    });

    // A duplicate copy in the offline regime: the update is processed,
    // every id of the 256-entry list is known — learn, count, return.
    let duplicate = Message::Push(PushMessage {
        update,
        push_round: 2,
        flood_list: PartialList::from_peers(wide_list_peers()),
    });
    let wide_config = ProtocolConfig::builder(1_200)
        .fanout_absolute(4)
        .build()
        .expect("valid");
    c.bench_function("peer/handle_duplicate_push_list256", |b| {
        let mut p = ReplicaPeer::new(PeerId::new(0), wide_config.clone());
        p.learn_replicas((1..1_200).map(PeerId::new));
        let (mut local, mut out) = (rng(), EffectSink::new());
        p.on_message(
            PeerId::new(1),
            msg.clone(),
            Round::new(1),
            &mut local,
            &mut out,
        );
        b.iter_batched(
            || duplicate.clone(),
            |copy| {
                out.clear();
                p.on_message(PeerId::new(2), copy, Round::new(2), &mut local, &mut out);
            },
            BatchSize::SmallInput,
        )
    });
}

/// Membership upkeep and the selection that reads it, at the sizes the
/// benchmark workloads (N = 1 200) and `BENCH_cluster.json` (N = 10 000)
/// run.
fn bench_peer_membership(c: &mut Criterion) {
    let big = ProtocolConfig::builder(10_000).build().expect("valid");
    // Every tenth id is new and lands between ids already known.
    let fresh: Vec<PeerId> = (0..10_000).step_by(10).map(PeerId::new).collect();
    c.bench_function("peer/learn_1000_new_replicas_r10000", |b| {
        b.iter_batched(
            || {
                let mut p = ReplicaPeer::new(PeerId::new(1), big.clone());
                p.learn_replicas((0..10_000).filter(|id| id % 10 != 0).map(PeerId::new));
                p
            },
            |mut p| {
                assert_eq!(p.learn_replicas(fresh.iter().copied()), 1_000);
                p
            },
            BatchSize::SmallInput,
        )
    });

    let steady = ProtocolConfig::builder(1_200)
        .fanout_absolute(4)
        .build()
        .expect("valid");
    c.bench_function("peer/trigger_pull_r1200", |b| {
        let mut p = ReplicaPeer::new(PeerId::new(0), steady.clone());
        p.learn_replicas((1..1_200).map(PeerId::new));
        let (mut local, mut out) = (rng(), EffectSink::new());
        b.iter(|| {
            out.clear();
            p.trigger_pull(Round::new(1), &mut local, &mut out);
            std::hint::black_box(out.len())
        })
    });

    let sum_known = |p: &ReplicaPeer| {
        p.known_replicas()
            .map(|k| u64::from(k.as_u32()))
            .sum::<u64>()
    };
    for (name, stride) in [
        ("peer_set/iter_1200_dense", 1),
        ("peer_set/iter_1200_sparse", 4_099),
    ] {
        let mut p = ReplicaPeer::new(PeerId::new(0), steady.clone());
        p.learn_replicas((1..=1_200).map(|i| PeerId::new(i * stride)));
        c.bench_function(name, |b| b.iter(|| std::hint::black_box(sum_known(&p))));
    }
}

criterion_group!(
    micro,
    bench_lineage,
    bench_partial_list,
    bench_store,
    bench_message_codec,
    bench_peer_handle,
    bench_peer_membership
);
criterion_main!(micro);
