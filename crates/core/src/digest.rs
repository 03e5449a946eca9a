//! Version digests exchanged during the pull phase.
//!
//! A pulling replica summarises what it holds — the head id of every
//! frontier version, per key — and the pulled party answers with every
//! version not listed (paper §3: "Inquire for missed updates based on
//! version vectors").
//!
//! # Invariants
//!
//! * A digest is one flat array of `(key, head)` pairs, **strictly
//!   ascending** (sorted, no duplicates). Equality, ordering and the wire
//!   encoding therefore depend only on the *set* of pairs: insertion
//!   order, sharing and capacity are invisible.
//! * The array sits behind shared ownership. Cloning a digest — once per
//!   pull target — is a reference-count bump, and shared storage is
//!   **immutable once cloned**: a mutation through one handle copies the
//!   array first ([`Arc::make_mut`]), so a digest already moved into a
//!   message never observes a later change to the store it came from.
//! * The **fingerprint** is a pure function of the pair set: the wrapping
//!   sum of a 64-bit mix of every `(key, head)` pair. [`StoreDigest::insert`]
//!   and [`StoreDigest::remove`] are the only mutators and each adjusts it
//!   by the one pair it changes, so it costs O(1) per store apply, is
//!   independent of insertion order, and a cloned digest keeps its own.
//!   Equal sets always have equal fingerprints; two *different* sets share
//!   one with probability 2⁻⁶⁴ each time two are compared — about 10⁻¹²
//!   over the ~10⁷ comparisons of a million-pull run — and such a
//!   collision only makes one wire-v2 pull answer too little, which the
//!   next pull to any other replica, or after any apply on either side,
//!   repairs (see [`crate::store`]).

use rumor_types::{DataKey, VersionId};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The set of known `(key, version head)` pairs.
///
/// # Examples
///
/// ```
/// use rumor_core::StoreDigest;
/// use rumor_types::{DataKey, VersionId};
///
/// let mut d = StoreDigest::new();
/// d.insert(DataKey::new(1), VersionId::from_bits(42));
/// assert!(d.contains(DataKey::new(1), VersionId::from_bits(42)));
/// assert!(!d.contains(DataKey::new(2), VersionId::from_bits(42)));
///
/// // A clone shares storage until either side is mutated.
/// let in_flight = d.clone();
/// d.insert(DataKey::new(2), VersionId::from_bits(7));
/// assert_eq!(in_flight.version_count(), 1);
/// assert_eq!(d.version_count(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct StoreDigest {
    /// Strictly ascending; see the module invariants.
    pairs: Arc<Vec<(DataKey, VersionId)>>,
    /// Wrapping sum of [`mix`] over `pairs`; see the module invariants.
    fingerprint: u64,
}

/// splitmix64's finaliser: a bijection on `u64` in which every input bit
/// reaches every output bit.
const fn avalanche(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One pair's share of the fingerprint: the key folded into the head's
/// high half, then the low half, each through [`avalanche`] — pairs that
/// differ in any one field never share a value, and honest heads (128
/// random bits) make any other coincidence a 2⁻⁶⁴ event. The golden-ratio
/// offset keeps the all-zero pair from contributing 0.
const fn mix(key: DataKey, head: VersionId) -> u64 {
    let head = head.to_bits();
    let keyed = key.as_u64().wrapping_add(0x9E37_79B9_7F4A_7C15);
    avalanche(avalanche(keyed ^ (head >> 64) as u64) ^ head as u64)
}

impl StoreDigest {
    /// Creates an empty digest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a digest from pairs in any order, with or without
    /// duplicates. Input that is already strictly ascending — every
    /// canonically encoded digest — is adopted as is.
    pub(crate) fn from_pairs(mut pairs: Vec<(DataKey, VersionId)>) -> Self {
        if !pairs.windows(2).all(|w| w[0] < w[1]) {
            pairs.sort_unstable();
            pairs.dedup();
        }
        let fingerprint = pairs
            .iter()
            .fold(0u64, |sum, &(key, head)| sum.wrapping_add(mix(key, head)));
        Self {
            pairs: Arc::new(pairs),
            fingerprint,
        }
    }

    /// Records that a version head is known for `key`.
    pub fn insert(&mut self, key: DataKey, head: VersionId) {
        if let Err(pos) = self.pairs.binary_search(&(key, head)) {
            Arc::make_mut(&mut self.pairs).insert(pos, (key, head));
            self.fingerprint = self.fingerprint.wrapping_add(mix(key, head));
        }
    }

    /// Forgets a version head; a pair that is not listed is left alone
    /// (and shared storage is not copied for it).
    pub(crate) fn remove(&mut self, key: DataKey, head: VersionId) {
        if let Ok(pos) = self.pairs.binary_search(&(key, head)) {
            Arc::make_mut(&mut self.pairs).remove(pos);
            self.fingerprint = self.fingerprint.wrapping_sub(mix(key, head));
        }
    }

    /// Whether `head` is listed for `key`.
    pub fn contains(&self, key: DataKey, head: VersionId) -> bool {
        self.pairs.binary_search(&(key, head)).is_ok()
    }

    /// Number of keys described.
    pub fn key_count(&self) -> usize {
        self.pairs.chunk_by(|a, b| a.0 == b.0).count()
    }

    /// Total number of `(key, head)` entries.
    pub fn version_count(&self) -> usize {
        self.pairs.len()
    }

    /// True when the digest describes nothing.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Every `(key, head)` pair, strictly ascending.
    pub fn pairs(&self) -> &[(DataKey, VersionId)] {
        &self.pairs
    }

    /// The 64-bit order-independent fingerprint of the pair set (0 for the
    /// empty digest) — what a wire-v2 `PullSince` names the requester's
    /// state by. See the module invariants for what equality means.
    pub const fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

impl FromIterator<(DataKey, VersionId)> for StoreDigest {
    fn from_iter<I: IntoIterator<Item = (DataKey, VersionId)>>(iter: I) -> Self {
        Self::from_pairs(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(bits: u128) -> VersionId {
        VersionId::from_bits(bits)
    }

    #[test]
    fn empty_digest() {
        let d = StoreDigest::new();
        assert!(d.is_empty());
        assert_eq!(d.key_count(), 0);
        assert_eq!(d.version_count(), 0);
    }

    #[test]
    fn insert_is_idempotent() {
        let mut d = StoreDigest::new();
        d.insert(DataKey::new(1), v(9));
        d.insert(DataKey::new(1), v(9));
        assert_eq!(d.version_count(), 1);
    }

    #[test]
    fn multiple_heads_per_key() {
        let mut d = StoreDigest::new();
        d.insert(DataKey::new(1), v(1));
        d.insert(DataKey::new(1), v(2));
        assert_eq!(d.key_count(), 1);
        assert_eq!(d.version_count(), 2);
        assert!(d.contains(DataKey::new(1), v(1)));
        assert!(d.contains(DataKey::new(1), v(2)));
    }

    #[test]
    fn heads_stay_sorted() {
        let mut d = StoreDigest::new();
        for (key, bits) in [(2u64, 5u128), (1, 3), (2, 1), (1, 3), (1, 4), (3, 0)] {
            d.insert(DataKey::new(key), v(bits));
        }
        assert!(d.pairs().windows(2).all(|w| w[0] < w[1]));
        assert_eq!(d.key_count(), 3);
        assert_eq!(d.version_count(), 5);
    }

    #[test]
    fn from_iterator_collects() {
        let d: StoreDigest = [
            (DataKey::new(2), v(2)),
            (DataKey::new(1), v(1)),
            (DataKey::new(2), v(2)),
        ]
        .into_iter()
        .collect();
        assert_eq!(
            d.pairs(),
            [(DataKey::new(1), v(1)), (DataKey::new(2), v(2))]
        );
    }

    #[test]
    fn equality_ignores_insertion_order() {
        let a: StoreDigest = [(DataKey::new(1), v(1)), (DataKey::new(1), v(2))]
            .into_iter()
            .collect();
        let mut b = StoreDigest::new();
        b.insert(DataKey::new(1), v(2));
        b.insert(DataKey::new(1), v(1));
        let shared = a.clone();
        assert_eq!(a, b);
        assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal);
        assert_eq!(shared, b);
    }

    #[test]
    fn remove_forgets_one_pair() {
        let mut d: StoreDigest = [(DataKey::new(1), v(1)), (DataKey::new(1), v(2))]
            .into_iter()
            .collect();
        d.remove(DataKey::new(1), v(1));
        d.remove(DataKey::new(9), v(9));
        assert_eq!(d.pairs(), [(DataKey::new(1), v(2))]);
    }

    #[test]
    fn a_clone_never_observes_a_later_mutation() {
        let mut d = StoreDigest::new();
        d.insert(DataKey::new(1), v(1));
        let in_flight = d.clone();
        d.insert(DataKey::new(2), v(2));
        d.remove(DataKey::new(1), v(1));
        assert_eq!(in_flight.pairs(), [(DataKey::new(1), v(1))]);
        assert_eq!(d.pairs(), [(DataKey::new(2), v(2))]);
    }

    #[test]
    fn fingerprint_is_a_function_of_the_pair_set() {
        assert_eq!(StoreDigest::new().fingerprint(), 0);
        let pairs = [(0u64, 0u128), (0, 1), (1, 0), (7, u128::MAX), (u64::MAX, 7)];
        // One mutator call at a time, in two different orders, and in bulk.
        let mut forward = StoreDigest::new();
        let mut seen = vec![0];
        for (key, bits) in pairs {
            forward.insert(DataKey::new(key), v(bits));
            forward.insert(DataKey::new(key), v(bits));
            assert!(
                !seen.contains(&forward.fingerprint()),
                "every state differs"
            );
            seen.push(forward.fingerprint());
        }
        let mut backward = StoreDigest::new();
        for (key, bits) in pairs.into_iter().rev() {
            backward.insert(DataKey::new(key), v(bits));
        }
        let bulk: StoreDigest = pairs
            .into_iter()
            .map(|(key, bits)| (DataKey::new(key), v(bits)))
            .collect();
        assert_eq!(forward.fingerprint(), backward.fingerprint());
        assert_eq!(forward.fingerprint(), bulk.fingerprint());
        // Removal walks the same states back; a clone keeps its own.
        let in_flight = forward.clone();
        for ((key, bits), before) in pairs.into_iter().zip(&seen).rev() {
            forward.remove(DataKey::new(key), v(bits));
            forward.remove(DataKey::new(key), v(bits));
            assert_eq!(forward.fingerprint(), *before);
        }
        assert_eq!(in_flight.fingerprint(), bulk.fingerprint());
    }
}
