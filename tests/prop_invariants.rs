//! Property-based invariants across the workspace (proptest).

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rumor::analysis::{PfSchedule, PushModel, PushParams};
use rumor::core::{
    DeltaAnswer, DiscardStrategy, Lineage, Message, PartialList, PushMessage, ReplicaStore,
    StoreDigest, TruncationPolicy, Update, Value, VersionRelation,
};
use rumor::obs::{EventKind, MsgKind, TraceDoc, TraceEvent, CONDUCTOR};
use rumor::pgrid::Path;
use rumor::types::json::{self, Json};
use rumor::types::{DataKey, PeerId, VersionId};
use rumor::wire::encode_frame;

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// An arbitrary lineage built by extending a root `depth` times.
fn lineage_from(seed: u64, depth: usize) -> Lineage {
    let mut r = rng(seed);
    let mut l = Lineage::root(&mut r);
    for _ in 0..depth {
        l = l.child(&mut r);
    }
    l
}

/// Replays a generated op sequence into a store: fresh roots over three
/// keys, children of any earlier update (so concurrent branches and
/// supersedes both occur), superseding tombstones, and re-applies of
/// earlier updates (stale or duplicate). `after_each` sees the store
/// after every apply.
fn replay_applies(
    seed: u64,
    ops: &[u32],
    mut after_each: impl FnMut(&ReplicaStore),
) -> ReplicaStore {
    let mut r = rng(seed);
    let mut store = ReplicaStore::new();
    let mut issued: Vec<Update> = Vec::new();
    for &op in ops {
        let arg = (op / 4) as usize;
        let update = match (op % 4, issued.len()) {
            (0, _) | (_, 0) => Update::write(
                DataKey::new(arg as u64 % 3),
                Lineage::root(&mut r),
                Value::from("root"),
                PeerId::new(0),
            ),
            (1, n) => {
                let parent = &issued[arg % n];
                let lineage = parent.lineage().child(&mut r);
                Update::write(parent.key(), lineage, Value::from("child"), PeerId::new(1))
            }
            (2, n) => issued[arg % n].superseding_delete(&mut r),
            (_, n) => issued[arg % n].clone(),
        };
        store.apply(&update);
        issued.push(update);
        after_each(&store);
    }
    store
}

/// The digest as `ReplicaStore::digest` used to build it: from the stored
/// versions, one `insert` at a time.
fn rebuilt_digest(store: &ReplicaStore) -> StoreDigest {
    let mut digest = StoreDigest::new();
    for key in store.keys() {
        for v in store.versions(key) {
            digest.insert(key, v.lineage().head());
        }
    }
    digest
}

/// A digest's fingerprint computed the other way: one fold over the
/// finished pair array instead of one adjustment per `insert`/`remove`.
fn recomputed_fingerprint(digest: &StoreDigest) -> u64 {
    let rebuilt: StoreDigest = digest.pairs().iter().copied().collect();
    rebuilt.fingerprint()
}

/// A peer id decoded from op bits: half from three small, colliding
/// pools (low ids, ids around `u32::MAX`, ids one index word apart), half
/// from anywhere in `u32`.
fn peer_from(bits: u64) -> PeerId {
    let small = (bits >> 8) as u32 % 40;
    PeerId::new(match bits % 8 {
        0 | 1 => small,
        2 => u32::MAX - small,
        3 => small << 6,
        _ => (bits >> 32) as u32,
    })
}

/// `count` peers derived from `bits`.
fn peers_from(bits: u64, count: usize) -> Vec<PeerId> {
    (0..count as u64)
        .map(|i| peer_from(bits.rotate_left(7 * i as u32).wrapping_mul(2 * i + 1)))
        .collect()
}

/// The flood-list tail of an encoded push: count, then the ids in order.
fn list_wire_bytes(peers: &[PeerId]) -> Vec<u8> {
    let mut bytes = (peers.len() as u32).to_be_bytes().to_vec();
    for p in peers {
        bytes.extend(p.as_u32().to_be_bytes());
    }
    bytes
}

/// Keys and string values for generated documents: every escape the
/// printer knows, raw non-ASCII, and an update id as the fuzz records
/// carry it (39 digits, a string because no JSON number holds a `u128`).
const JSON_TEXTS: [&str; 6] = [
    "",
    "plain",
    "q\"uote \\ back/slash",
    "ctl \u{1}\n\r\t\u{1f}",
    "caf\u{e9} \u{4e16}\u{754c} \u{1f600}",
    "166104863007733312778659178587220685885",
];

/// A document nested at most `depth` containers deep, drawing its numbers
/// from the constructors the artefact writers use.
fn json_doc(r: &mut ChaCha8Rng, depth: usize) -> Json {
    let kind = if depth > 0 && r.gen_bool(0.8) {
        r.gen_range(7..9)
    } else {
        r.gen_range(0..7)
    };
    match kind {
        0 => Json::Null,
        1 => Json::Bool(r.gen()),
        2 => Json::from_u64(u64::MAX - r.gen_range(0u64..3)),
        3 => Json::from_usize(r.gen_range(0..100_000)),
        4 => Json::from_f64(r.gen_range(-1e6..1e6)),
        5 => Json::from_f64(f64::from(r.gen_range(-5i32..5))),
        6 => Json::from_text(JSON_TEXTS[r.gen_range(0..JSON_TEXTS.len())]),
        7 => {
            let len = r.gen_range(0..5);
            Json::Arr((0..len).map(|_| json_doc(r, depth - 1)).collect())
        }
        _ => {
            let len = r.gen_range(0..5);
            Json::Obj(
                (0..len)
                    .map(|_| {
                        let key = JSON_TEXTS[r.gen_range(0..JSON_TEXTS.len())];
                        (key.to_owned(), json_doc(r, depth - 1))
                    })
                    .collect(),
            )
        }
    }
}

proptest! {
    #[test]
    fn partial_list_agrees_with_a_linear_scan_model(
        ops in proptest::collection::vec(any::<u64>(), 0..120),
        seed in 0u64..1_000,
    ) {
        // The reference: a plain vector, `contains` a linear scan.
        fn model_add(model: &mut Vec<PeerId>, peers: &[PeerId]) {
            for &p in peers {
                if !model.contains(&p) {
                    model.push(p);
                }
            }
        }
        let update = Update::tombstone(DataKey::new(1), lineage_from(seed, 0), PeerId::new(0));
        let mut list = PartialList::new();
        let mut model: Vec<PeerId> = Vec::new();
        let mut clones: Vec<(PartialList, Vec<PeerId>)> = Vec::new();
        for (step, &op) in ops.iter().enumerate() {
            let arg = op >> 3;
            match op % 8 {
                0 | 1 => {
                    let p = peer_from(arg);
                    prop_assert_eq!(list.insert(p), !model.contains(&p));
                    model_add(&mut model, &[p]);
                }
                2 => {
                    let peers = peers_from(arg, (arg % 24) as usize);
                    list.extend(peers.iter().copied());
                    model_add(&mut model, &peers);
                }
                3 => {
                    let peers = peers_from(arg, (arg % 24) as usize);
                    list.union_with(&PartialList::from_peers(peers.iter().copied()));
                    model_add(&mut model, &peers);
                }
                4 => {
                    // A covered list: every other entry, newest first.
                    let covered: Vec<PeerId> = model.iter().rev().step_by(2).copied().collect();
                    list.union_with(&covered.into_iter().collect());
                }
                5 => {
                    let cap = (arg as usize >> 2) % (model.len() + 2);
                    let discard = [
                        DiscardStrategy::Head,
                        DiscardStrategy::Tail,
                        DiscardStrategy::Random,
                    ][(arg % 3) as usize];
                    let policy = TruncationPolicy::MaxEntries { cap, discard };
                    let excess = model.len().saturating_sub(cap);
                    prop_assert_eq!(list.truncate(&policy, 1_000, &mut rng(seed + op)), excess);
                    match discard {
                        DiscardStrategy::Head => drop(model.drain(..excess)),
                        DiscardStrategy::Tail => model.truncate(model.len() - excess),
                        DiscardStrategy::Random => {
                            // The survivors are the list's choice; they must
                            // be a subsequence of what was there.
                            let mut before = model.iter();
                            prop_assert!(list.iter().all(|p| before.any(|&m| m == p)));
                            prop_assert_eq!(list.len(), model.len() - excess);
                            model = list.iter().collect();
                        }
                    }
                }
                _ => clones.push((list.clone(), model.clone())),
            }

            prop_assert_eq!(list.iter().collect::<Vec<_>>(), model.clone(), "step {}", step);
            prop_assert_eq!(list.len(), model.len());
            prop_assert_eq!(list.is_empty(), model.is_empty());
            for p in model.iter().copied().chain(peers_from(op, 8)) {
                prop_assert_eq!(list.contains(p), model.contains(&p), "{:?}", p);
            }
            let rebuilt = PartialList::from_peers(model.iter().copied());
            prop_assert_eq!(&list, &rebuilt);
            prop_assert_eq!(list.index_words(), rebuilt.index_words());
            prop_assert!(list.index_words() <= list.len(), "index bounded by entries");
            if let Some(&last) = model.last() {
                let shorter = PartialList::from_peers(model[..model.len() - 1].iter().copied());
                prop_assert!(list != shorter);
                let mut reordered = PartialList::from_peers([last]);
                reordered.extend(model.iter().copied());
                prop_assert_eq!(list == reordered, model.len() == 1);
            }
            let frame = encode_frame(&Message::Push(PushMessage {
                update: update.clone(),
                push_round: 1,
                flood_list: list.clone(),
            }));
            prop_assert!(frame.ends_with(&list_wire_bytes(&model)), "wire bytes");
            // Copy-on-write: no earlier clone has moved.
            for (clone, at_clone) in &clones {
                prop_assert_eq!(&clone.iter().collect::<Vec<_>>(), at_clone);
                prop_assert!(at_clone.iter().all(|&p| clone.contains(p)));
                prop_assert!(clone.index_words() <= clone.len());
            }
        }
    }

    #[test]
    fn maintained_digest_is_a_pure_function_of_the_stored_versions(
        seed in 0u64..2_000,
        ops in proptest::collection::vec(0u32..4_000, 0..40),
        snapshot_at in 0usize..40,
    ) {
        // A digest taken mid-sequence — what an in-flight `PullRequest`
        // holds — with the value it had at that moment.
        let mut in_flight: Option<(StoreDigest, StoreDigest)> = None;
        let mut applied = 0usize;
        let mut violation = None;
        let store = replay_applies(seed, &ops, |store| {
            applied += 1;
            if store.digest() != rebuilt_digest(store)
                || store.fingerprint() != recomputed_fingerprint(&store.digest())
            {
                violation.get_or_insert(applied);
            }
            if applied == snapshot_at {
                in_flight = Some((store.digest(), rebuilt_digest(store)));
            }
        });
        prop_assert_eq!(violation, None, "maintained digest diverged from the stored versions");
        prop_assert!(store.digest().pairs().windows(2).all(|w| w[0] < w[1]));
        if let Some((shared, frozen)) = in_flight {
            prop_assert_eq!(shared.fingerprint(), recomputed_fingerprint(&frozen));
            prop_assert_eq!(shared, frozen, "a later apply leaked into a cloned digest");
        }
    }

    #[test]
    fn a_delta_answer_leaves_the_requester_holding_all_a_digest_pull_would_send(
        seed in 0u64..2_000,
        ops in proptest::collection::vec(0u32..4_000, 0..40),
        behind in 0usize..16,
        ops_b in proptest::collection::vec(0u32..4_000, 0..6),
    ) {
        // The responder, and its fingerprint after every op.
        let mut states = vec![0u64];
        let responder = replay_applies(seed, &ops, |store| states.push(store.fingerprint()));
        // A requester in a state the responder passed through `behind` ops
        // ago (in sync, on the history or beyond the ring, by how many of
        // those ops changed the store), and one that then went its own way.
        let cut = ops.len() - behind.min(ops.len());
        let changed = states[cut..].windows(2).filter(|w| w[0] != w[1]).count();
        let trailing = replay_applies(seed, &ops[..cut], |_| {});
        let diverged = replay_applies(seed.wrapping_add(1), &ops_b, |_| {});
        let mut off_history = trailing.clone();
        off_history.merge_updates(&diverged.delta_for(0).1);

        for requester in [&trailing, &off_history, &diverged, &responder] {
            let (answer, delta) = responder.delta_for(requester.fingerprint());
            let mut patched = requester.clone();
            patched.merge_updates(&delta);
            let mut reference = requester.clone();
            reference.merge_updates(&responder.missing_updates_for(&requester.digest()));
            prop_assert!(patched.consistent_with(&reference), "{:?}", answer);
            prop_assert_eq!(
                answer == DeltaAnswer::InSync,
                requester.consistent_with(&responder)
            );
        }
        // On the responder's own history the answer is exact, and the ring
        // reaches at least the deepest hit ever measured (6).
        match responder.delta_for(trailing.fingerprint()).0 {
            DeltaAnswer::InSync => prop_assert_eq!(changed, 0),
            DeltaAnswer::Suffix { depth } => prop_assert_eq!(depth, changed),
            DeltaAnswer::Full => prop_assert!(changed > 6, "forgot a state {} back", changed),
        }
    }

    #[test]
    fn missing_updates_are_exactly_the_unlisted_versions_in_key_order(
        seed in 0u64..2_000,
        ops_a in proptest::collection::vec(0u32..4_000, 0..30),
        ops_b in proptest::collection::vec(0u32..4_000, 0..30),
        shared_prefix in 0usize..30,
    ) {
        // Two stores with a common history prefix, so the digests overlap.
        let prefix = &ops_a[..shared_prefix.min(ops_a.len())];
        let a = replay_applies(seed, &ops_a, |_| {});
        let mut b_ops = prefix.to_vec();
        b_ops.extend_from_slice(&ops_b);
        let b = replay_applies(seed, &b_ops, |_| {});
        for (responder, requester) in [(&a, &b), (&b, &a), (&a, &a)] {
            let digest = requester.digest();
            let mut expected = Vec::new();
            for key in responder.keys() {
                for v in responder.versions(key) {
                    if !digest.contains(key, v.lineage().head()) {
                        expected.push(v.to_update(key));
                    }
                }
            }
            prop_assert_eq!(responder.missing_updates_for(&digest), expected);
        }
    }

    #[test]
    fn digest_identity_depends_only_on_its_set_of_pairs(
        cells in proptest::collection::vec(0u64..24, 0..24),
        rotate in 0usize..24,
    ) {
        // Four keys × six heads, so duplicates and shared keys are common.
        let pairs: Vec<(DataKey, VersionId)> = cells
            .into_iter()
            .map(|c| (DataKey::new(c / 6), VersionId::from_bits(u128::from(c % 6))))
            .collect();
        let collected: StoreDigest = pairs.iter().copied().collect();
        // Same set, another insertion order, built by `insert` on a handle
        // that shares (then un-shares) storage with a clone.
        let mut rotated = pairs.clone();
        rotated.rotate_left(rotate.min(pairs.len()));
        let mut inserted = StoreDigest::new();
        let mut clones = Vec::new();
        for (k, h) in rotated {
            clones.push(inserted.clone());
            inserted.insert(k, h);
        }
        prop_assert_eq!(&collected, &inserted);
        prop_assert_eq!(collected.fingerprint(), inserted.fingerprint());
        prop_assert_eq!(collected.fingerprint(), recomputed_fingerprint(&inserted));
        for shared in &clones {
            prop_assert_eq!(shared.fingerprint(), recomputed_fingerprint(shared));
        }
        prop_assert_eq!(collected.cmp(&inserted), std::cmp::Ordering::Equal);
        prop_assert!(collected.pairs().windows(2).all(|w| w[0] < w[1]));
        let request = |digest: &StoreDigest| {
            rumor::wire::encode_frame(&rumor::core::Message::PullRequest { digest: digest.clone() })
        };
        prop_assert_eq!(request(&collected), request(&inserted));
    }

    #[test]
    fn lineage_relation_is_antisymmetric(seed in 0u64..5_000, a in 0usize..6, b in 0usize..6) {
        let base = lineage_from(seed, a.min(b));
        let mut r = rng(seed.wrapping_add(1));
        let mut deep = base.clone();
        for _ in 0..a.max(b) - a.min(b) {
            deep = deep.child(&mut r);
        }
        match deep.relation(&base) {
            VersionRelation::Equal => prop_assert_eq!(base.relation(&deep), VersionRelation::Equal),
            VersionRelation::Dominates => {
                prop_assert_eq!(base.relation(&deep), VersionRelation::DominatedBy)
            }
            VersionRelation::DominatedBy => {
                prop_assert_eq!(base.relation(&deep), VersionRelation::Dominates)
            }
            VersionRelation::Concurrent => {
                prop_assert_eq!(base.relation(&deep), VersionRelation::Concurrent)
            }
        }
    }

    #[test]
    fn lineage_dominance_is_transitive(seed in 0u64..5_000) {
        let mut r = rng(seed);
        let a = Lineage::root(&mut r);
        let b = a.child(&mut r);
        let c = b.child(&mut r);
        prop_assert!(c.covers(&b) && b.covers(&a));
        prop_assert!(c.covers(&a), "covers must be transitive");
    }

    #[test]
    fn store_apply_is_order_independent(
        seed in 0u64..2_000,
        order in proptest::sample::select(vec![0usize, 1, 2, 3, 4, 5])
    ) {
        // Three versions: root -> child, plus a concurrent fork.
        let mut r = rng(seed);
        let key = DataKey::new(1);
        let root = Lineage::root(&mut r);
        let child = root.child(&mut r);
        let fork = root.child(&mut r);
        let updates = [
            Update::write(key, root, Value::from("root"), PeerId::new(0)),
            Update::write(key, child, Value::from("child"), PeerId::new(1)),
            Update::write(key, fork, Value::from("fork"), PeerId::new(2)),
        ];
        let permutations: [[usize; 3]; 6] =
            [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
        let perm = permutations[order];

        let mut reference = ReplicaStore::new();
        for u in &updates {
            reference.apply(u);
        }
        let mut shuffled = ReplicaStore::new();
        for &i in &perm {
            shuffled.apply(&updates[i]);
        }
        prop_assert_eq!(reference.digest(), shuffled.digest());
    }

    #[test]
    fn reconciliation_converges_both_ways(seed in 0u64..2_000, n_a in 0usize..6, n_b in 0usize..6) {
        let mut r = rng(seed);
        let mut a = ReplicaStore::new();
        let mut b = ReplicaStore::new();
        for i in 0..n_a {
            let u = Update::write(
                DataKey::new(i as u64 % 3),
                Lineage::root(&mut r),
                Value::from("a"),
                PeerId::new(0),
            );
            a.apply(&u);
        }
        for i in 0..n_b {
            let u = Update::write(
                DataKey::new(i as u64 % 3),
                Lineage::root(&mut r),
                Value::from("b"),
                PeerId::new(1),
            );
            b.apply(&u);
        }
        // One anti-entropy exchange in each direction.
        let for_b = a.missing_updates_for(&b.digest());
        b.merge_updates(&for_b);
        let for_a = b.missing_updates_for(&a.digest());
        a.merge_updates(&for_a);
        prop_assert!(a.consistent_with(&b), "two-way exchange must converge");
    }

    #[test]
    fn partial_list_truncation_respects_cap(
        entries in proptest::collection::vec(0u32..500, 0..200),
        cap in 0usize..100,
        strategy in proptest::sample::select(vec![
            DiscardStrategy::Head,
            DiscardStrategy::Tail,
            DiscardStrategy::Random,
        ]),
        seed in 0u64..1000,
    ) {
        let mut list = PartialList::from_peers(entries.iter().copied().map(PeerId::new));
        let before = list.len();
        let policy = TruncationPolicy::MaxEntries { cap, discard: strategy };
        let dropped = list.truncate(&policy, 1_000, &mut rng(seed));
        prop_assert_eq!(list.len(), before.min(cap), "post-truncation size");
        prop_assert_eq!(dropped, before - list.len(), "dropped accounting");
        // No duplicates ever.
        let mut seen: Vec<PeerId> = list.iter().collect();
        seen.sort();
        seen.dedup();
        prop_assert_eq!(seen.len(), list.len());
    }

    #[test]
    fn push_model_outputs_are_physical(
        online_frac in 0.01f64..1.0,
        sigma in 0.5f64..1.0,
        f_r in 0.001f64..0.2,
        pf_base in 0.5f64..1.0,
    ) {
        let total = 5_000.0;
        let params = PushParams::new(total, total * online_frac, sigma, f_r)
            .with_pf(PfSchedule::Exponential { base: pf_base });
        let out = PushModel::new(params).run();
        let mut prev_aware = 0.0;
        let mut prev_cum = 0.0;
        for row in &out.rows {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&row.f_aware));
            prop_assert!(row.f_aware >= prev_aware - 1e-12, "awareness monotone");
            prop_assert!(row.messages >= 0.0);
            prop_assert!(row.cum_messages >= prev_cum - 1e-9);
            prop_assert!((0.0..=1.0).contains(&row.list_len));
            prev_aware = row.f_aware;
            prev_cum = row.cum_messages;
        }
        prop_assert!(out.total_messages >= total * f_r - 1e-9, "at least round 0");
    }

    #[test]
    fn digest_contains_exactly_applied_heads(seed in 0u64..2_000, n in 1usize..10) {
        let mut r = rng(seed);
        let mut store = ReplicaStore::new();
        let mut heads = Vec::new();
        for i in 0..n {
            let u = Update::write(
                DataKey::new(i as u64),
                Lineage::root(&mut r),
                Value::from("x"),
                PeerId::new(0),
            );
            heads.push((u.key(), u.lineage().head()));
            store.apply(&u);
        }
        let digest = store.digest();
        for (k, h) in heads {
            prop_assert!(digest.contains(k, h));
        }
        prop_assert_eq!(digest.version_count(), n);
    }

    #[test]
    fn path_prefix_laws(bits_a in any::<u64>(), len_a in 0u8..32, extra in 0u8..16) {
        let a = Path::from_bits(bits_a, len_a);
        let mut b = a;
        for i in 0..extra {
            b = b.child((bits_a >> i) & 1 == 1);
        }
        prop_assert!(a.is_prefix_of(&b));
        prop_assert_eq!(a.common_prefix_len(&b), len_a);
        prop_assert_eq!(b.truncated(len_a), a);
    }

    #[test]
    fn version_id_digest_roundtrip(bits in any::<u128>()) {
        let v = VersionId::from_bits(bits);
        prop_assert_eq!(v.to_bits(), bits);
    }

    #[test]
    fn json_print_and_parse_are_inverse(seed in any::<u64>()) {
        let doc = json_doc(&mut rng(seed), 6);
        let text = doc.pretty();
        let parsed = json::parse(&text).expect("the printer emits what the parser reads");
        prop_assert_eq!(&parsed, &doc);
        prop_assert_eq!(parsed.pretty(), text);
    }
}

#[test]
fn json_spells_non_finite_floats_as_null() {
    let doc = Json::Arr(
        [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.5]
            .map(Json::from_f64)
            .to_vec(),
    );
    assert_eq!(doc.pretty(), "[\n  null,\n  null,\n  null,\n  -0.5\n]");
    assert_eq!(
        json::parse(&doc.pretty()).map(|d| d.pretty()),
        Ok(doc.pretty())
    );
}

// One case per JSON layer the shared value replaced, each on the number
// convention that layer's callers relied on. The expected bytes were
// produced by the three former printers.

#[test]
fn trace_artefact_bytes_did_not_move() {
    // obs: `UInt` for seeds and counts, `Num` (`1.0`) for series values,
    // one compact event per line.
    let ev = |round, node, seq, kind| TraceEvent {
        round,
        node,
        seq,
        kind,
    };
    let send = EventKind::Send {
        to: 1,
        kind: MsgKind::Push,
        bytes: 80,
    };
    let doc = TraceDoc::new(
        "bytes \"pinned\"",
        u64::MAX,
        2,
        vec![
            ev(0, CONDUCTOR, 0, EventKind::RoundStart),
            ev(0, 0, 0, send),
        ],
    );
    let expected = r#"{
  "schema": "rumor-obs/trace/v1",
  "label": "bytes \"pinned\"",
  "seed": 18446744073709551615,
  "population": 2,
  "rounds": 1,
  "event_count": 2,
  "events": [
    {"round":0,"node":"conductor","seq":0,"ev":"round_start"},
    {"round":0,"node":0,"seq":0,"ev":"send","to":1,"kind":"push","bytes":80}
  ],
  "derived": {
    "sends_per_round": [
      [
        0,
        1.0
      ]
    ],
    "bytes_per_round": [
      [
        0,
        80.0
      ]
    ],
    "updates": []
  }
}
"#;
    assert_eq!(doc.to_json(), expected);
}

#[test]
fn experiment_artefact_bytes_did_not_move() {
    // bench: `Int` for every unsigned field, `Num` for every `f64` (no
    // `.0` from 1e15 up, where `Display` already prints every digit).
    let row = rumor_bench::head_to_head::ContenderRow {
        protocol: "paper".into(),
        protocol_messages: 12,
        total_messages: 1 << 40,
        total_bytes: 7,
        mean_message_bytes: 1.5e16,
        messages_per_initial_online: 1.0 / 3.0,
        coverage: 1.0,
        rounds: 9,
    };
    let expected = r#"[
  {
    "protocol": "paper",
    "protocol_messages": 12,
    "total_messages": 1099511627776,
    "total_bytes": 7,
    "mean_message_bytes": 15000000000000000,
    "messages_per_initial_online": 0.3333333333333333,
    "coverage": 1.0,
    "rounds": 9
  }
]"#;
    assert_eq!(rumor_bench::render::to_json(&vec![row]), expected);
}

#[test]
fn fuzz_record_bytes_did_not_move() {
    // fuzz: numbers are their literal text, so a committed record — a
    // 64-bit seed, 16-digit knobs — re-prints as the bytes on disk.
    let fixture = include_str!("fixtures/fuzz_record_digest_lie.json");
    let doc = json::parse(fixture).expect("committed record parses");
    assert_eq!(doc.pretty() + "\n", fixture);
    let seed = doc.get("case").and_then(|c| c.get("seed"));
    assert_eq!(
        seed.and_then(Json::as_u64),
        Some(15_770_071_848_919_039_649)
    );
}
