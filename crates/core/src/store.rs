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

use crate::digest::StoreDigest;
use crate::update::Update;
use crate::value::Value;
use crate::version::Lineage;
use rumor_types::{DataKey, PeerId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

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
    /// Keys in the order store-changing applies touched them — the
    /// wire-v2 delta-pull index. `journal.len()` is this replica's sync
    /// frontier; [`ReplicaStore::delta_since`] answers "what changed
    /// since entry `n`" without walking the whole store. Append-only
    /// (a bound is a known residual, see ROADMAP).
    journal: Vec<DataKey>,
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
        self.journal.push(key);
        if superseded > 0 {
            ApplyOutcome::Applied
        } else {
            ApplyOutcome::AppliedConcurrent
        }
    }

    /// Number of store-changing applies so far — the frontier a wire-v2
    /// delta pull quotes back as its `since` mark.
    pub fn journal_len(&self) -> u64 {
        self.journal.len() as u64
    }

    /// The suffix of changes since journal entry `since`: the current
    /// frontier versions of every key touched by apply number `since`
    /// onwards, plus the new frontier mark (`journal_len`).
    ///
    /// Any change a peer misses after syncing to mark `s` is itself a
    /// journaled apply at an entry `>= s`, so repeatedly pulling with the
    /// last returned mark never skips an update. A `since` beyond the
    /// journal (e.g. after the responder restarted with an empty store)
    /// degrades to a full resend. Keys touched repeatedly are sent once;
    /// over-sending is an apply no-op at the requester.
    pub fn delta_since(&self, since: u64) -> (Vec<Update>, u64) {
        let upto = self.journal_len();
        let start = if since > upto { 0 } else { since as usize };
        let mut seen = std::collections::BTreeSet::new();
        let mut out = Vec::new();
        for &key in &self.journal[start..] {
            if seen.insert(key) {
                for v in self.versions(key) {
                    out.push(v.to_update(key));
                }
            }
        }
        (out, upto)
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
    fn delta_since_returns_only_the_changed_suffix() {
        let mut r = rng();
        let mut s = ReplicaStore::new();
        assert_eq!(s.delta_since(0), (vec![], 0));
        let u1 = write(1, Lineage::root(&mut r), "a");
        let u2 = write(2, Lineage::root(&mut r), "b");
        s.apply(&u1);
        s.apply(&u2);
        let (all, mark) = s.delta_since(0);
        assert_eq!(mark, 2);
        assert_eq!(all.len(), 2, "full resend from mark 0");
        // From the frontier mark: nothing to send.
        assert_eq!(s.delta_since(mark), (vec![], mark));
        // A change after the mark shows up, and only it.
        let u2b = write(2, u2.lineage().child(&mut r), "b2");
        s.apply(&u2b);
        let (delta, mark2) = s.delta_since(mark);
        assert_eq!(mark2, 3);
        assert_eq!(delta, vec![u2b.clone()]);
        // Rejected applies (stale, already known) do not advance the journal.
        s.apply(&u2);
        s.apply(&u2b);
        assert_eq!(s.journal_len(), 3);
    }

    #[test]
    fn delta_since_dedupes_and_clamps_foreign_marks() {
        let mut r = rng();
        let mut s = ReplicaStore::new();
        let u1 = write(1, Lineage::root(&mut r), "a");
        let u1b = write(1, u1.lineage().child(&mut r), "a2");
        s.apply(&u1);
        s.apply(&u1b);
        // Key 1 was journaled twice but its frontier is sent once.
        let (delta, mark) = s.delta_since(0);
        assert_eq!(delta, vec![u1b]);
        assert_eq!(mark, 2);
        // A mark beyond the journal degrades to a full resend.
        let (resend, mark2) = s.delta_since(99);
        assert_eq!(resend.len(), 1);
        assert_eq!(mark2, 2);
    }

    #[test]
    fn delta_from_zero_covers_missing_updates_for_any_digest() {
        let mut r = rng();
        let mut a = ReplicaStore::new();
        let mut b = ReplicaStore::new();
        let u1 = write(1, Lineage::root(&mut r), "x");
        let u2 = write(2, Lineage::root(&mut r), "y");
        a.apply(&u1);
        a.apply(&u2);
        b.apply(&u1);
        let (delta, _) = a.delta_since(0);
        let mut patched = b.clone();
        patched.merge_updates(&delta);
        assert!(patched.consistent_with(&a), "delta from 0 is a superset");
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
