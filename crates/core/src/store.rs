//! The replica-local multi-version store.
//!
//! §3: update conflicts are rare and need no resolution — "if data is
//! altered, it may be treated as distinct and coexists as different
//! versions". The store therefore keeps, per key, the *frontier* of
//! maximal lineages: applying an update discards every version it
//! supersedes and otherwise coexists with the rest. Deletions are stored
//! as tombstones so that the death certificate keeps propagating.
//!
//! # The maintained digest
//!
//! The store carries its own [`StoreDigest`] — the `(key, head)` pair of
//! every stored version — and keeps it current inside
//! [`ReplicaStore::apply`], the only place the frontier changes. The
//! digest is a **pure function of `items`**: after any apply sequence it
//! equals the digest rebuilt from scratch. A pull therefore costs no
//! digest construction: [`ReplicaStore::digest`] hands out a shared
//! handle in O(1), and because shared digest storage is immutable once
//! cloned (see [`crate::digest`]), a handle already travelling in a
//! `PullRequest` is unaffected by later applies.
//!
//! # The apply history
//!
//! A wire-v2 pull names the requester's state by its digest's
//! [fingerprint](StoreDigest::fingerprint) instead of shipping the digest.
//! To answer it the store remembers its last [`HISTORY_LEN`] store-changing
//! applies as `(fingerprint before the apply, key)` — a fixed-size ring,
//! so delta bookkeeping per replica is bounded whatever the run length.
//! [`ReplicaStore::delta_for`] then answers
//!
//! * nothing, when the named state is the current one;
//! * the frontier of the keys touched since, when the named state is one
//!   the store passed through within the ring — the requester's digest
//!   *is* this store's digest of that moment, and the two differ from the
//!   current one only on those keys;
//! * the whole frontier otherwise (a requester that diverged, or fell
//!   further behind than the ring remembers).
//!
//! Each answer contains everything [`ReplicaStore::missing_updates_for`]
//! would have sent for the requester's digest; what it sends beyond that
//! the requester already holds, and its `apply` discards. Nothing is kept
//! per requester and nothing a responder says is stored as a cursor, so a
//! lost, repeated, reordered or dishonest answer can withhold updates but
//! never make a later pull skip them. A fingerprint collision (odds in
//! [`crate::digest`]) turns one answer into "nothing" or a too-short
//! suffix; the requester's next pull names a state again and is answered
//! afresh.

use crate::digest::StoreDigest;
use crate::update::Update;
use crate::value::Value;
use crate::version::Lineage;
use rumor_types::{DataKey, PeerId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};

/// Applies the history remembers, sized by measured hit depth
/// (`PeerStats::delta_max_depth`). On the `cluster-v2` benchmark workload
/// (N = 512, 16 keys rewritten continuously, 1.35 M pulls) 84.9 % of pulls
/// were in sync, 14.1 % hit the history — 98.9 % of those one apply back,
/// none more than 3 — and 0.9 % got the whole frontier. The write-heavy
/// loop in `tests/wire_v2.rs` (N = 32) reaches 6 back; there a ring of 16
/// or 64 answers not one more pull from the history than 8 does (what is
/// left has diverged, which no length helps) and a ring of 4 loses a few.
/// 8 entries are 128 bytes per replica.
const HISTORY_LEN: usize = 8;

/// One version held by the store.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoredVersion {
    lineage: Lineage,
    value: Option<Value>,
    origin: PeerId,
}

impl StoredVersion {
    /// The version history.
    pub const fn lineage(&self) -> &Lineage {
        &self.lineage
    }

    /// The stored value (`None` = tombstone).
    pub const fn value(&self) -> Option<&Value> {
        self.value.as_ref()
    }

    /// The replica that initiated this version.
    pub const fn origin(&self) -> PeerId {
        self.origin
    }

    /// Whether this version is a tombstone.
    pub const fn is_tombstone(&self) -> bool {
        self.value.is_none()
    }

    /// Re-materialises the update that produced this version.
    pub fn to_update(&self, key: DataKey) -> Update {
        match &self.value {
            Some(v) => Update::write(key, self.lineage.clone(), v.clone(), self.origin),
            None => Update::tombstone(key, self.lineage.clone(), self.origin),
        }
    }
}

/// Result of applying an update to the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ApplyOutcome {
    /// The update superseded at least one stored version.
    Applied,
    /// The update introduced a new concurrent version (coexists).
    AppliedConcurrent,
    /// The exact version was already stored.
    AlreadyKnown,
    /// A stored version already supersedes the update.
    Stale,
}

impl ApplyOutcome {
    /// Whether the store changed.
    pub const fn changed(self) -> bool {
        matches!(self, Self::Applied | Self::AppliedConcurrent)
    }
}

/// How [`ReplicaStore::delta_for`] answered a named state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeltaAnswer {
    /// The named state is the current one: nothing was sent.
    InSync,
    /// The store passed through the named state `depth` store-changing
    /// applies ago: the frontier of the keys touched since was sent.
    Suffix {
        /// How many applies back the named state was (1 = the last one).
        depth: usize,
    },
    /// The named state is not in the history: the whole frontier was sent.
    Full,
}

/// Multi-version key/value store for one replica.
///
/// # Examples
///
/// ```
/// use rumor_core::{ApplyOutcome, Lineage, ReplicaStore, Update, Value};
/// use rumor_types::{DataKey, PeerId};
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let mut store = ReplicaStore::new();
/// let key = DataKey::from_name("news");
/// let v1 = Update::write(key, Lineage::root(&mut rng), Value::from("a"), PeerId::new(0));
/// assert_eq!(store.apply(&v1), ApplyOutcome::AppliedConcurrent);
/// assert_eq!(store.apply(&v1), ApplyOutcome::AlreadyKnown);
///
/// let v2 = Update::write(key, v1.lineage().child(&mut rng), Value::from("b"), PeerId::new(0));
/// assert_eq!(store.apply(&v2), ApplyOutcome::Applied);
/// assert_eq!(store.apply(&v1), ApplyOutcome::Stale);
/// assert_eq!(store.latest(key).unwrap().value().unwrap().as_bytes(), b"b");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ReplicaStore {
    items: BTreeMap<DataKey, Vec<StoredVersion>>,
    /// The `(key, head)` pair of every version in `items`, maintained by
    /// [`ReplicaStore::apply`].
    digest: StoreDigest,
    /// The last [`HISTORY_LEN`] store-changing applies, oldest first, as
    /// `(fingerprint before the apply, key)`; see the module docs.
    history: VecDeque<(u64, DataKey)>,
}

impl ReplicaStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies an update, enforcing the frontier invariant: after the
    /// call, no stored version of the key covers another.
    pub fn apply(&mut self, update: &Update) -> ApplyOutcome {
        let key = update.key();
        let versions = self.items.entry(key).or_default();
        for v in versions.iter() {
            if v.lineage == *update.lineage() {
                return ApplyOutcome::AlreadyKnown;
            }
            if v.lineage.covers(update.lineage()) {
                return ApplyOutcome::Stale;
            }
        }
        let state_before = self.digest.fingerprint();
        let before = versions.len();
        versions.retain(|v| {
            let superseded = update.lineage().covers(&v.lineage);
            if superseded {
                self.digest.remove(key, v.lineage.head());
            }
            !superseded
        });
        let superseded = before - versions.len();
        versions.push(StoredVersion {
            lineage: update.lineage().clone(),
            value: update.value().cloned(),
            origin: update.origin(),
        });
        // Re-listing the survivors is a no-op unless one of them shares
        // its head id with a version dropped above (distinct lineages
        // ending in one id — only a crafted update does that), in which
        // case the pair must stay listed.
        for v in versions.iter() {
            self.digest.insert(key, v.lineage.head());
        }
        if self.history.len() == HISTORY_LEN {
            self.history.pop_front();
        }
        self.history.push_back((state_before, key));
        if superseded > 0 {
            ApplyOutcome::Applied
        } else {
            ApplyOutcome::AppliedConcurrent
        }
    }

    /// The fingerprint of the maintained digest: the name a wire-v2
    /// `PullSince` gives this store's current state.
    pub const fn fingerprint(&self) -> u64 {
        self.digest.fingerprint()
    }

    /// Answers a wire-v2 pull from a requester whose digest fingerprint is
    /// `since` (see the module docs): nothing, the frontier of the keys
    /// touched since the store was in that state, or the whole frontier.
    /// A key touched repeatedly is sent once; over-sending is an apply
    /// no-op at the requester.
    pub fn delta_for(&self, since: u64) -> (DeltaAnswer, Vec<Update>) {
        if since == self.fingerprint() {
            return (DeltaAnswer::InSync, Vec::new());
        }
        let mut out = Vec::new();
        let mut send = |key: DataKey, versions: &[StoredVersion]| {
            out.extend(versions.iter().map(|v| v.to_update(key)));
        };
        // Newest first: a requester is rarely more than one apply behind.
        let hit = self
            .history
            .iter()
            .rev()
            .position(|&(state, _)| state == since);
        let answer = match hit {
            Some(newest) => {
                let depth = newest + 1;
                let touched = self.history.range(self.history.len() - depth..);
                for (i, &(_, key)) in touched.clone().enumerate() {
                    if touched.clone().take(i).all(|&(_, earlier)| earlier != key) {
                        send(key, self.versions(key));
                    }
                }
                DeltaAnswer::Suffix { depth }
            }
            None => {
                for (&key, versions) in &self.items {
                    send(key, versions);
                }
                DeltaAnswer::Full
            }
        };
        (answer, out)
    }

    /// All current (frontier) versions of a key.
    pub fn versions(&self, key: DataKey) -> &[StoredVersion] {
        self.items.get(&key).map_or(&[], Vec::as_slice)
    }

    /// Deterministically picks the "most recent" version of a key: the
    /// longest lineage, ties broken by the largest head id. This is the
    /// paper's "version scheme for identifying latest updates" (§4.4).
    pub fn latest(&self, key: DataKey) -> Option<&StoredVersion> {
        self.versions(key)
            .iter()
            .max_by_key(|v| (v.lineage.len(), v.lineage.head()))
    }

    /// The visible value of a key: the latest version's value, or `None`
    /// if the key is absent or its latest version is a tombstone.
    pub fn get(&self, key: DataKey) -> Option<&Value> {
        self.latest(key).and_then(StoredVersion::value)
    }

    /// Number of keys with at least one stored version.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates over all keys.
    pub fn keys(&self) -> impl Iterator<Item = DataKey> + '_ {
        self.items.keys().copied()
    }

    /// Number of keys whose latest version is a tombstone.
    pub fn tombstone_count(&self) -> usize {
        self.items
            .keys()
            .filter(|&&k| self.latest(k).is_some_and(StoredVersion::is_tombstone))
            .count()
    }

    /// A compact description of every version held, for anti-entropy:
    /// a shared handle to the maintained digest, O(1).
    pub fn digest(&self) -> StoreDigest {
        self.digest.clone()
    }

    /// Updates held here that the owner of `digest` does not list — the
    /// payload of a pull response.
    ///
    /// A version is sent when its head id is absent from the digest; the
    /// receiver's own `apply` discards anything its frontier already
    /// covers, so over-sending costs only bandwidth, never correctness.
    ///
    /// Computed as a linear merge of this store's own digest against
    /// `digest`; `items` is touched only for keys with a head the
    /// requester lacks, so answering an in-sync requester reads two flat
    /// arrays and allocates nothing.
    pub fn missing_updates_for(&self, digest: &StoreDigest) -> Vec<Update> {
        let mut theirs = digest.pairs();
        let mut out = Vec::new();
        for run in self.digest.pairs().chunk_by(|a, b| a.0 == b.0) {
            let all_listed = run.iter().all(|pair| {
                while theirs.first().is_some_and(|t| t < pair) {
                    theirs = &theirs[1..];
                }
                theirs.first() == Some(pair)
            });
            if !all_listed {
                // The requester lacks a head of this key: send, in stored
                // order, every version of the key it does not list.
                let key = run[0].0;
                for v in self.versions(key) {
                    if !digest.contains(key, v.lineage.head()) {
                        out.push(v.to_update(key));
                    }
                }
            }
        }
        out
    }

    /// Ingests every update from a pull response; returns how many changed
    /// the store.
    pub fn merge_updates<'a>(&mut self, updates: impl IntoIterator<Item = &'a Update>) -> usize {
        updates
            .into_iter()
            .filter(|u| self.apply(u).changed())
            .count()
    }

    /// Two stores are *consistent* when they hold identical version sets
    /// (the paper's quasi-consistency target once gossip quiesces).
    pub fn consistent_with(&self, other: &ReplicaStore) -> bool {
        self.digest == other.digest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(6)
    }

    fn write(key: u64, lineage: Lineage, val: &str) -> Update {
        Update::write(DataKey::new(key), lineage, Value::from(val), PeerId::new(0))
    }

    #[test]
    fn empty_store() {
        let s = ReplicaStore::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(s.get(DataKey::new(1)).is_none());
        assert!(s.versions(DataKey::new(1)).is_empty());
        assert!(s.latest(DataKey::new(1)).is_none());
    }

    #[test]
    fn newer_version_supersedes() {
        let mut r = rng();
        let mut s = ReplicaStore::new();
        let u1 = write(1, Lineage::root(&mut r), "a");
        let u2 = write(1, u1.lineage().child(&mut r), "b");
        s.apply(&u1);
        assert_eq!(s.apply(&u2), ApplyOutcome::Applied);
        assert_eq!(
            s.versions(DataKey::new(1)).len(),
            1,
            "frontier holds only the newest"
        );
        assert_eq!(s.get(DataKey::new(1)).unwrap().as_bytes(), b"b");
    }

    #[test]
    fn out_of_order_arrival_is_stale() {
        let mut r = rng();
        let mut s = ReplicaStore::new();
        let u1 = write(1, Lineage::root(&mut r), "a");
        let u2 = write(1, u1.lineage().child(&mut r), "b");
        s.apply(&u2);
        assert_eq!(s.apply(&u1), ApplyOutcome::Stale);
        assert_eq!(s.get(DataKey::new(1)).unwrap().as_bytes(), b"b");
    }

    #[test]
    fn concurrent_versions_coexist() {
        let mut r = rng();
        let mut s = ReplicaStore::new();
        let base = Lineage::root(&mut r);
        let u1 = write(1, base.child(&mut r), "a");
        let u2 = write(1, base.child(&mut r), "b");
        s.apply(&u1);
        assert_eq!(s.apply(&u2), ApplyOutcome::AppliedConcurrent);
        assert_eq!(
            s.versions(DataKey::new(1)).len(),
            2,
            "conflict co-exists (paper §3)"
        );
    }

    #[test]
    fn supersede_collapses_concurrent_branches() {
        let mut r = rng();
        let mut s = ReplicaStore::new();
        let base = Lineage::root(&mut r);
        let a = write(1, base.child(&mut r), "a");
        let b = write(1, base.child(&mut r), "b");
        s.apply(&a);
        s.apply(&b);
        // A new version extending branch `a` supersedes only branch `a`.
        let a2 = write(1, a.lineage().child(&mut r), "a2");
        assert_eq!(s.apply(&a2), ApplyOutcome::Applied);
        assert_eq!(s.versions(DataKey::new(1)).len(), 2);
    }

    #[test]
    fn tombstone_hides_value_but_remains_stored() {
        let mut r = rng();
        let mut s = ReplicaStore::new();
        let u = write(1, Lineage::root(&mut r), "a");
        s.apply(&u);
        let del = u.superseding_delete(&mut r);
        assert_eq!(s.apply(&del), ApplyOutcome::Applied);
        assert!(
            s.get(DataKey::new(1)).is_none(),
            "deleted key reads as absent"
        );
        assert_eq!(s.tombstone_count(), 1, "death certificate retained");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn latest_prefers_longer_lineage() {
        let mut r = rng();
        let mut s = ReplicaStore::new();
        let base = Lineage::root(&mut r);
        let shallow = write(1, base.child(&mut r), "shallow");
        let deep = write(1, base.child(&mut r).child(&mut r), "deep");
        s.apply(&shallow);
        s.apply(&deep);
        assert_eq!(
            s.latest(DataKey::new(1))
                .unwrap()
                .value()
                .unwrap()
                .as_bytes(),
            b"deep"
        );
    }

    #[test]
    fn digest_and_missing_updates_roundtrip() {
        let mut r = rng();
        let mut a = ReplicaStore::new();
        let mut b = ReplicaStore::new();
        let u1 = write(1, Lineage::root(&mut r), "x");
        let u2 = write(2, Lineage::root(&mut r), "y");
        a.apply(&u1);
        a.apply(&u2);
        b.apply(&u1);
        let missing = a.missing_updates_for(&b.digest());
        assert_eq!(missing.len(), 1);
        assert_eq!(missing[0].key(), DataKey::new(2));
        assert_eq!(b.merge_updates(&missing), 1);
        assert!(a.consistent_with(&b));
    }

    /// The digest as the old `digest()` built it: from `items`, by insert.
    fn rebuilt_digest(s: &ReplicaStore) -> StoreDigest {
        let mut digest = StoreDigest::new();
        for (key, versions) in &s.items {
            for v in versions {
                digest.insert(*key, v.lineage.head());
            }
        }
        digest
    }

    #[test]
    fn maintained_digest_tracks_every_kind_of_apply() {
        let mut r = rng();
        let mut s = ReplicaStore::new();
        assert_eq!(s.digest(), StoreDigest::new());
        let base = Lineage::root(&mut r);
        let a = write(1, base.child(&mut r), "a");
        let b = write(1, base.child(&mut r), "b");
        let a2 = write(1, a.lineage().child(&mut r), "a2");
        let other = write(2, Lineage::root(&mut r), "o");
        let gone = other.superseding_delete(&mut r);
        // Concurrent branches, a supersede, a second key, a tombstone, then
        // stale and duplicate applies that must change nothing.
        for u in [&a, &b, &a2, &other, &gone, &a, &other, &a2, &gone] {
            s.apply(u);
            assert_eq!(s.digest(), rebuilt_digest(&s), "after {u:?}");
        }
        assert_eq!(s.digest().version_count(), 3);
    }

    #[test]
    fn a_head_shared_by_two_lineages_stays_listed_while_one_survives() {
        // Only a crafted update ends two distinct lineages in one id; the
        // digest must still be the pure function of `items`.
        let mut r = rng();
        let shared = Lineage::root(&mut r).head();
        let ending_in =
            |r: &mut ChaCha8Rng| Lineage::from_ids(vec![Lineage::root(r).head(), shared]);
        let x = write(1, ending_in(&mut r), "x");
        let y = write(1, ending_in(&mut r), "y");
        let x2 = write(1, x.lineage().child(&mut r), "x2");
        let mut s = ReplicaStore::new();
        for u in [&x, &y, &x2] {
            s.apply(u);
            assert_eq!(s.digest(), rebuilt_digest(&s));
        }
        assert!(s.digest().contains(DataKey::new(1), shared));
    }

    #[test]
    fn an_in_flight_digest_never_observes_a_later_apply() {
        let mut r = rng();
        let mut s = ReplicaStore::new();
        let u1 = write(1, Lineage::root(&mut r), "a");
        s.apply(&u1);
        // What a `PullRequest` carries: a handle sharing the store's array.
        let in_flight = s.digest();
        let frozen = rebuilt_digest(&s);
        s.apply(&write(1, u1.lineage().child(&mut r), "b"));
        s.apply(&write(2, Lineage::root(&mut r), "c"));
        assert_eq!(in_flight, frozen, "copy-on-write isolates the message");
        assert_ne!(s.digest(), in_flight);
        assert_eq!(s.digest(), rebuilt_digest(&s));
        // A cloned store owns its frontier independently as well.
        let mut fork = s.clone();
        fork.apply(&write(3, Lineage::root(&mut r), "d"));
        assert_eq!(s.digest(), rebuilt_digest(&s));
        assert_eq!(fork.digest(), rebuilt_digest(&fork));
    }

    #[test]
    fn merge_is_idempotent() {
        let mut r = rng();
        let mut a = ReplicaStore::new();
        let u = write(1, Lineage::root(&mut r), "x");
        a.apply(&u);
        let mut b = ReplicaStore::new();
        let missing = a.missing_updates_for(&b.digest());
        assert_eq!(b.merge_updates(&missing), 1);
        assert_eq!(b.merge_updates(&missing), 0, "second merge changes nothing");
    }

    #[test]
    fn stored_version_roundtrips_to_update() {
        let mut r = rng();
        let mut s = ReplicaStore::new();
        let u = write(7, Lineage::root(&mut r), "v");
        s.apply(&u);
        let back = s.versions(DataKey::new(7))[0].to_update(DataKey::new(7));
        assert_eq!(back, u);
    }

    #[test]
    fn delta_for_answers_nothing_the_touched_keys_or_everything() {
        let mut r = rng();
        let mut s = ReplicaStore::new();
        assert_eq!(s.delta_for(0), (DeltaAnswer::InSync, vec![]));
        let u1 = write(1, Lineage::root(&mut r), "a");
        let u2 = write(2, Lineage::root(&mut r), "b");
        s.apply(&u1);
        let after_u1 = s.fingerprint();
        s.apply(&u2);
        let after_u2 = s.fingerprint();
        // The empty state is two applies back: both keys are sent.
        let (answer, all) = s.delta_for(0);
        assert_eq!(answer, DeltaAnswer::Suffix { depth: 2 });
        assert_eq!(all, vec![u1.clone(), u2.clone()]);
        // The current state: nothing to send.
        assert_eq!(s.delta_for(after_u2), (DeltaAnswer::InSync, vec![]));
        // A change after a named state shows up, and only it.
        let u2b = write(2, u2.lineage().child(&mut r), "b2");
        s.apply(&u2b);
        assert_eq!(
            s.delta_for(after_u2),
            (DeltaAnswer::Suffix { depth: 1 }, vec![u2b.clone()])
        );
        assert_eq!(
            s.delta_for(after_u1),
            (DeltaAnswer::Suffix { depth: 2 }, vec![u2b.clone()])
        );
        // Rejected applies (stale, already known) are not states.
        let (state, history) = (s.fingerprint(), s.history.clone());
        s.apply(&u2);
        s.apply(&u2b);
        assert_eq!((s.fingerprint(), &s.history), (state, &history));
        // A state the store never passed through gets the whole frontier.
        assert_eq!(s.delta_for(12345), (DeltaAnswer::Full, vec![u1, u2b]));
    }

    #[test]
    fn delta_for_sends_a_key_once_and_forgets_states_beyond_the_ring() {
        let mut r = rng();
        let mut s = ReplicaStore::new();
        let mut u = write(1, Lineage::root(&mut r), "v0");
        s.apply(&u);
        let mut states = vec![0, s.fingerprint()];
        for _ in 1..HISTORY_LEN + 2 {
            u = write(1, u.lineage().child(&mut r), "v");
            s.apply(&u);
            states.push(s.fingerprint());
        }
        assert_eq!(s.history.len(), HISTORY_LEN, "the ring is the bound");
        // Key 1 was touched by every apply but its frontier is sent once.
        let oldest_kept = states[states.len() - 1 - HISTORY_LEN];
        assert_eq!(
            s.delta_for(oldest_kept),
            (DeltaAnswer::Suffix { depth: HISTORY_LEN }, vec![u.clone()])
        );
        // Older states fell off the ring: the whole frontier, still correct.
        for &forgotten in &states[..states.len() - 1 - HISTORY_LEN] {
            assert_eq!(s.delta_for(forgotten), (DeltaAnswer::Full, vec![u.clone()]));
        }
    }

    #[test]
    fn delta_from_zero_covers_missing_updates_for_any_digest() {
        let mut r = rng();
        let mut a = ReplicaStore::new();
        let u1 = write(1, Lineage::root(&mut r), "x");
        let u2 = write(2, Lineage::root(&mut r), "y");
        let u3 = write(3, Lineage::root(&mut r), "z");
        a.apply(&u1);
        a.apply(&u2);
        // The empty state (fingerprint zero), a state `a` passed through,
        // and one it never did.
        let mut b = ReplicaStore::new();
        for next in [None, Some(&u1), Some(&u3)] {
            b.merge_updates(next);
            let (_, delta) = a.delta_for(b.fingerprint());
            let mut patched = b.clone();
            patched.merge_updates(&delta);
            let mut reference = b.clone();
            reference.merge_updates(&a.missing_updates_for(&b.digest()));
            assert!(patched.consistent_with(&reference), "after {next:?}");
        }
        assert_eq!(a.delta_for(0).1, vec![u1, u2], "from zero: everything");
    }

    #[test]
    fn keys_iterates_every_key() {
        let mut r = rng();
        let mut s = ReplicaStore::new();
        s.apply(&write(1, Lineage::root(&mut r), "a"));
        s.apply(&write(2, Lineage::root(&mut r), "b"));
        let keys: Vec<u64> = s.keys().map(|k| k.as_u64()).collect();
        assert_eq!(keys, vec![1, 2]);
    }
}
