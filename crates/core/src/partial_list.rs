//! The partial flooding list `R_f` — the paper's feed-forward mechanism.
//!
//! Every push message carries the set of replicas the update "has already
//! been sent (not necessarily received by all peers in `R_f`)" (§3).
//! Receivers subtract it from their forwarding targets, avoiding duplicate
//! messages *speculatively* rather than reactively; the list also leaks
//! replica addresses ("possibly discovers replicas unknown to her"),
//! gradually propagating global membership knowledge like the name-dropper
//! resource-discovery scheme (§7.2).
//!
//! §4.2 analyses bounding the list with a threshold `L_thr`, discarding
//! "either random entries or the head or tail of the partial list" —
//! [`TruncationPolicy`]/[`DiscardStrategy`] implement exactly those
//! options, at the analysed cost of extra duplicate messages.
//!
//! # Invariants
//!
//! * `entries` is the list: duplicate-free, in **insertion order** (oldest
//!   first). That order is the wire order and the order head/tail
//!   truncation discards by.
//! * The membership index is a **pure function of `entries`** — the same
//!   peers as a sparse bitset — so `contains` and `insert` cost one
//!   lookup whatever the length, and bulk operations (`extend`,
//!   `union_with`, `from_peers`, decoding) are linear in what they read.
//!   Its memory is bounded by the number of entries, never by the value of
//!   an id.
//! * Both sit behind **shared ownership, copy-on-write**: cloning a list —
//!   once per push target — is a reference-count bump, and a mutation
//!   through one handle copies the storage first ([`Arc::make_mut`]), so a
//!   list already moved into a message never observes a later change.
//! * **Equality is by entries** (members *and* order); sharing, capacity
//!   and the index are invisible.

use crate::peer_set::PeerSet;
use rand::seq::SliceRandom;
use rand_chacha::ChaCha8Rng;
use rumor_types::PeerId;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// How entries are discarded when a partial list exceeds its bound (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DiscardStrategy {
    /// Drop the oldest entries (head of the list).
    Head,
    /// Drop the newest entries (tail of the list).
    Tail,
    /// Drop uniformly random entries.
    Random,
}

/// Bound on the partial list size.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TruncationPolicy {
    /// Never truncate (the paper's default analysis).
    None,
    /// Keep at most this many entries.
    MaxEntries {
        /// Entry cap.
        cap: usize,
        /// What to drop when over the cap.
        discard: DiscardStrategy,
    },
    /// Keep at most `fraction · R` entries (`L_thr` normalised, §4.2).
    MaxFraction {
        /// Normalised cap in `(0, 1]`.
        fraction: f64,
        /// What to drop when over the cap.
        discard: DiscardStrategy,
    },
}

impl TruncationPolicy {
    /// Resolves the entry cap for a population of `total_replicas`.
    pub fn cap(&self, total_replicas: usize) -> Option<usize> {
        match *self {
            Self::None => None,
            Self::MaxEntries { cap, .. } => Some(cap),
            Self::MaxFraction { fraction, .. } => {
                Some(((total_replicas as f64) * fraction).floor() as usize)
            }
        }
    }

    fn discard(&self) -> DiscardStrategy {
        match *self {
            Self::None => DiscardStrategy::Tail,
            Self::MaxEntries { discard, .. } | Self::MaxFraction { discard, .. } => discard,
        }
    }
}

/// The flooding list carried in push messages.
///
/// Entries are kept in *insertion order* (oldest first) because the
/// head/tail discard strategies of §4.2 are defined over message age;
/// membership tests use an index beside them. See the module invariants.
///
/// # Examples
///
/// ```
/// use rumor_core::PartialList;
/// use rumor_types::PeerId;
///
/// let mut list = PartialList::new();
/// list.insert(PeerId::new(3));
/// list.extend([PeerId::new(1), PeerId::new(3)]);
/// assert_eq!(list.len(), 2);
/// assert!(list.contains(PeerId::new(1)));
///
/// // A clone shares storage until either side is mutated.
/// let in_flight = list.clone();
/// list.insert(PeerId::new(9));
/// assert_eq!(in_flight.len(), 2);
/// assert_eq!(list.len(), 3);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PartialList {
    shared: Arc<Storage>,
}

#[derive(Debug, Clone, Default)]
struct Storage {
    /// Insertion-ordered, duplicate-free.
    entries: Vec<PeerId>,
    /// Exactly the peers of `entries`.
    members: PeerSet,
}

impl PartialEq for PartialList {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.shared, &other.shared) || self.shared.entries == other.shared.entries
    }
}

impl Eq for PartialList {}

impl PartialList {
    /// Creates an empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a list from peers, dropping duplicates, preserving order.
    pub fn from_peers(peers: impl IntoIterator<Item = PeerId>) -> Self {
        Self::from_vec(peers.into_iter().collect())
    }

    /// Adopts `entries` as the list, dropping every repeat of an earlier
    /// peer in place.
    pub(crate) fn from_vec(mut entries: Vec<PeerId>) -> Self {
        let mut members = PeerSet::default();
        members.absorb(&mut entries, 0);
        Self {
            shared: Arc::new(Storage { entries, members }),
        }
    }

    /// Number of entries (`R · l(t)` in the analysis).
    pub fn len(&self) -> usize {
        self.shared.entries.len()
    }

    /// True when no replica is listed.
    pub fn is_empty(&self) -> bool {
        self.shared.entries.is_empty()
    }

    /// Whether `peer` is already listed.
    pub fn contains(&self, peer: PeerId) -> bool {
        self.shared.members.contains(peer)
    }

    /// The listed peers as a set.
    pub(crate) fn members(&self) -> &PeerSet {
        &self.shared.members
    }

    /// Words the membership index stores: its whole heap footprint, at
    /// most one per entry whatever the ids are.
    pub fn index_words(&self) -> usize {
        self.shared.members.word_count()
    }

    /// Adds one peer; returns `true` if it was new. A listed peer leaves
    /// shared storage alone.
    pub fn insert(&mut self, peer: PeerId) -> bool {
        if self.contains(peer) {
            return false;
        }
        let storage = Arc::make_mut(&mut self.shared);
        storage.members.insert(peer);
        storage.entries.push(peer);
        true
    }

    /// Adds every peer from the iterator (set union, `R_f ∪ R_p`).
    pub fn extend(&mut self, peers: impl IntoIterator<Item = PeerId>) {
        let storage = Arc::make_mut(&mut self.shared);
        let staged_from = storage.entries.len();
        storage.entries.extend(peers);
        storage.members.absorb(&mut storage.entries, staged_from);
    }

    /// Union with another list (accumulating lists from several senders,
    /// the optional optimisation noted in §4.2). A list that adds nothing
    /// leaves shared storage alone.
    pub fn union_with(&mut self, other: &PartialList) {
        if !other.members().is_subset(self.members()) {
            self.extend(other.iter());
        }
    }

    /// Entries in insertion order (oldest first).
    pub fn iter(&self) -> impl Iterator<Item = PeerId> + '_ {
        self.shared.entries.iter().copied()
    }

    /// Normalised length `l(t) = |R_f| / R`.
    pub fn normalized_len(&self, total_replicas: usize) -> f64 {
        if total_replicas == 0 {
            0.0
        } else {
            self.len() as f64 / total_replicas as f64
        }
    }

    /// Applies a truncation policy, returning how many entries were
    /// discarded.
    pub fn truncate(
        &mut self,
        policy: &TruncationPolicy,
        total_replicas: usize,
        rng: &mut ChaCha8Rng,
    ) -> usize {
        let Some(cap) = policy.cap(total_replicas) else {
            return 0;
        };
        if self.len() <= cap {
            return 0;
        }
        let Storage { entries, members } = Arc::make_mut(&mut self.shared);
        let excess = entries.len() - cap;
        match policy.discard() {
            DiscardStrategy::Head => {
                entries.drain(..excess);
            }
            DiscardStrategy::Tail => {
                entries.truncate(cap);
            }
            DiscardStrategy::Random => {
                // Choose survivors, preserve their relative order.
                let mut keep_idx: Vec<usize> = (0..entries.len()).collect();
                keep_idx.shuffle(rng);
                keep_idx.truncate(cap);
                keep_idx.sort_unstable();
                *entries = keep_idx.into_iter().map(|i| entries[i]).collect();
            }
        }
        *members = PeerSet::default();
        members.absorb(entries, 0);
        excess
    }
}

impl FromIterator<PeerId> for PartialList {
    fn from_iter<I: IntoIterator<Item = PeerId>>(iter: I) -> Self {
        Self::from_peers(iter)
    }
}

impl Extend<PeerId> for PartialList {
    fn extend<I: IntoIterator<Item = PeerId>>(&mut self, iter: I) {
        PartialList::extend(self, iter);
    }
}

impl fmt::Display for PartialList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R_f({} replicas)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(5)
    }

    fn peers(ids: impl IntoIterator<Item = u32>) -> Vec<PeerId> {
        ids.into_iter().map(PeerId::new).collect()
    }

    #[test]
    fn insert_deduplicates() {
        let mut l = PartialList::new();
        assert!(l.insert(PeerId::new(1)));
        assert!(!l.insert(PeerId::new(1)));
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn preserves_insertion_order() {
        let l = PartialList::from_peers(peers([5, 1, 9, 1]));
        let order: Vec<u32> = l.iter().map(|p| p.as_u32()).collect();
        assert_eq!(order, vec![5, 1, 9]);
    }

    #[test]
    fn union_is_idempotent() {
        let mut a = PartialList::from_peers(peers([1, 2]));
        let b = PartialList::from_peers(peers([2, 3]));
        a.union_with(&b);
        a.union_with(&b);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn a_clone_shares_storage_and_never_observes_a_later_mutation() {
        let mut l = PartialList::from_peers(peers([1, 2, 3]));
        let in_flight = l.clone();
        assert!(Arc::ptr_eq(&l.shared, &in_flight.shared));
        // Operations that add nothing leave the shared storage alone.
        assert!(!l.insert(PeerId::new(2)));
        l.union_with(&PartialList::from_peers(peers([3, 1])));
        l.truncate(&TruncationPolicy::None, 10, &mut rng());
        assert!(Arc::ptr_eq(&l.shared, &in_flight.shared));
        // One that adds copies first.
        l.union_with(&PartialList::from_peers(peers([3, 4])));
        assert!(l.insert(PeerId::new(5)));
        let order: Vec<u32> = in_flight.iter().map(|p| p.as_u32()).collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert!(!in_flight.contains(PeerId::new(4)));
        assert_eq!(l.len(), 5);
    }

    #[test]
    fn equality_is_by_entries_in_order() {
        let a = PartialList::from_peers(peers([1, 2, 3]));
        let mut b = PartialList::new();
        b.extend(peers([1, 2, 2, 1]));
        b.insert(PeerId::new(3));
        assert_eq!(a, b);
        assert_eq!(a, a.clone());
        assert_ne!(a, PartialList::from_peers(peers([3, 2, 1])));
    }

    #[test]
    fn index_memory_follows_the_entries_not_the_id_values() {
        let mut l = PartialList::new();
        l.insert(PeerId::new(u32::MAX));
        assert_eq!(l.index_words(), 1);
        l.extend(peers([0, u32::MAX - 1, 1 << 31, 5]));
        assert_eq!(l.index_words(), 3);
        assert!(l.contains(PeerId::new(1 << 31)) && !l.contains(PeerId::new(6)));
    }

    #[test]
    fn truncation_rebuilds_the_index() {
        for discard in [
            DiscardStrategy::Head,
            DiscardStrategy::Tail,
            DiscardStrategy::Random,
        ] {
            let mut l = PartialList::from_peers(peers((0..40).map(|i| i * 1_000)));
            let policy = TruncationPolicy::MaxEntries { cap: 7, discard };
            l.truncate(&policy, 100, &mut rng());
            let rebuilt = PartialList::from_peers(l.iter());
            assert_eq!(l.shared.members, rebuilt.shared.members, "{discard:?}");
            assert_eq!(l.index_words(), 7);
            // A discarded peer can be listed again.
            let gone = (0..40)
                .map(|i| PeerId::new(i * 1_000))
                .find(|&p| !l.contains(p))
                .unwrap();
            assert!(l.insert(gone));
        }
    }

    #[test]
    fn normalized_len_matches_paper() {
        let l = PartialList::from_peers(peers(0..50));
        assert!((l.normalized_len(1000) - 0.05).abs() < 1e-12);
        assert_eq!(l.normalized_len(0), 0.0);
    }

    #[test]
    fn truncate_none_is_noop() {
        let mut l = PartialList::from_peers(peers(0..10));
        assert_eq!(l.truncate(&TruncationPolicy::None, 100, &mut rng()), 0);
        assert_eq!(l.len(), 10);
    }

    #[test]
    fn truncate_head_drops_oldest() {
        let mut l = PartialList::from_peers(peers([1, 2, 3, 4]));
        let policy = TruncationPolicy::MaxEntries {
            cap: 2,
            discard: DiscardStrategy::Head,
        };
        assert_eq!(l.truncate(&policy, 100, &mut rng()), 2);
        let order: Vec<u32> = l.iter().map(|p| p.as_u32()).collect();
        assert_eq!(order, vec![3, 4]);
    }

    #[test]
    fn truncate_tail_drops_newest() {
        let mut l = PartialList::from_peers(peers([1, 2, 3, 4]));
        let policy = TruncationPolicy::MaxEntries {
            cap: 2,
            discard: DiscardStrategy::Tail,
        };
        l.truncate(&policy, 100, &mut rng());
        let order: Vec<u32> = l.iter().map(|p| p.as_u32()).collect();
        assert_eq!(order, vec![1, 2]);
    }

    #[test]
    fn truncate_random_keeps_cap_entries() {
        let mut l = PartialList::from_peers(peers(0..100));
        let policy = TruncationPolicy::MaxEntries {
            cap: 10,
            discard: DiscardStrategy::Random,
        };
        assert_eq!(l.truncate(&policy, 1000, &mut rng()), 90);
        assert_eq!(l.len(), 10);
        // Remaining entries are still duplicate-free and ordered by
        // original insertion.
        let order: Vec<u32> = l.iter().map(|p| p.as_u32()).collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(order, sorted, "relative order preserved for 0..100 input");
    }

    #[test]
    fn max_fraction_scales_with_population() {
        let policy = TruncationPolicy::MaxFraction {
            fraction: 0.1,
            discard: DiscardStrategy::Tail,
        };
        assert_eq!(policy.cap(1000), Some(100));
        let mut l = PartialList::from_peers(peers(0..150));
        l.truncate(&policy, 1000, &mut rng());
        assert_eq!(l.len(), 100);
    }

    #[test]
    fn collect_from_iterator() {
        let l: PartialList = peers([4, 4, 2]).into_iter().collect();
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn display_shows_count() {
        let l = PartialList::from_peers(peers([1, 2]));
        assert_eq!(format!("{l}"), "R_f(2 replicas)");
    }
}
