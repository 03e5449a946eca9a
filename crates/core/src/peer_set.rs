//! Membership over peer ids: a sparse bitset.
//!
//! Ids arrive from the wire, so the set must cost memory in proportion to
//! its *members*, whatever their values: `PeerId::new(u32::MAX)` is one
//! stored word, not a 512 MB dense bitmap. Only the non-empty 64-id words
//! are kept, as `(word number, bits)` pairs in strictly ascending word
//! order — at most one pair per member. Populations number their peers
//! from zero, which fills every word from the front; word `w` then sits at
//! position `w` and a lookup is one probe, with a binary search behind it
//! for everything else.

use rumor_types::PeerId;

/// A set of [`PeerId`]s.
///
/// The stored words are a pure function of the member set (ascending, no
/// empty word), so two sets with the same members have equal storage.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct PeerSet {
    /// `(word number, member bits)`, strictly ascending, no zero bits.
    words: Vec<(u32, u64)>,
}

const fn split(peer: PeerId) -> (u32, u64) {
    let id = peer.as_u32();
    (id >> 6, 1 << (id & 63))
}

impl PeerSet {
    /// Position of word `number`, or where it would be inserted.
    fn slot(&self, number: u32) -> Result<usize, usize> {
        let direct = number as usize;
        match self.words.get(direct) {
            Some(&(found, _)) if found == number => Ok(direct),
            // Word numbers ascend strictly, so position `i` holds a number
            // >= i: `number` can only sit before `direct`.
            _ => {
                let head = &self.words[..direct.min(self.words.len())];
                head.binary_search_by_key(&number, |&(found, _)| found)
            }
        }
    }

    /// Whether `peer` is a member.
    pub(crate) fn contains(&self, peer: PeerId) -> bool {
        let (number, bit) = split(peer);
        self.slot(number)
            .is_ok_and(|at| self.words[at].1 & bit != 0)
    }

    /// Adds `peer`; returns `true` if it was new. A peer that opens a new
    /// word shifts the words behind it — [`PeerSet::reserve`] first when
    /// adding many.
    pub(crate) fn insert(&mut self, peer: PeerId) -> bool {
        let (number, bit) = split(peer);
        match self.slot(number) {
            Ok(at) => {
                let bits = &mut self.words[at].1;
                let new = *bits & bit == 0;
                *bits |= bit;
                new
            }
            Err(at) => {
                self.words.insert(at, (number, bit));
                true
            }
        }
    }

    /// Opens, in one pass, every word that inserting all of `peers` will
    /// need, so the inserts that follow shift nothing: a bulk load costs
    /// one sort of the missing word numbers instead of one shift per new
    /// word. Every `peers` entry must then be inserted (no word may stay
    /// empty).
    fn reserve(&mut self, peers: &[PeerId]) {
        let mut missing: Vec<u32> = peers
            .iter()
            .map(|&peer| split(peer).0)
            .filter(|&number| self.slot(number).is_err())
            .collect();
        if missing.is_empty() {
            return;
        }
        missing.sort_unstable();
        missing.dedup();
        self.words
            .extend(missing.into_iter().map(|number| (number, 0)));
        // Two ascending runs; the stable sort merges them in one pass.
        self.words.sort_by_key(|&(number, _)| number);
    }

    /// Inserts every peer of `staged[from..]` and keeps there only the
    /// ones that were new: first occurrences, order unchanged.
    pub(crate) fn absorb(&mut self, staged: &mut Vec<PeerId>, from: usize) {
        self.reserve(&staged[from..]);
        let mut kept = from;
        for at in from..staged.len() {
            let peer = staged[at];
            if self.insert(peer) {
                staged[kept] = peer;
                kept += 1;
            }
        }
        staged.truncate(kept);
    }

    /// Adds every member of `other`, whatever order its ids arrived in,
    /// with two linear walks of the ascending word arrays; returns how many
    /// members were new (one popcount per word). The first walk merges the
    /// words both sets hold in place; only when `other` holds words we lack
    /// does the second open them, merging from the back so each stored
    /// word moves at most once.
    pub(crate) fn union_with(&mut self, other: &PeerSet) -> usize {
        let (mut new, mut opened) = (0, 0);
        let mut at = 0;
        for &(number, bits) in &other.words {
            while self.words.get(at).is_some_and(|&(found, _)| found < number) {
                at += 1;
            }
            match self.words.get_mut(at) {
                Some((found, ours)) if *found == number => {
                    new += (bits & !*ours).count_ones() as usize;
                    *ours |= bits;
                }
                _ => {
                    new += bits.count_ones() as usize;
                    opened += 1;
                }
            }
        }
        if opened == 0 {
            return new;
        }
        // `read` walks our old words down, `write` the grown array: the gap
        // between them is the number of words still to open.
        let mut read = self.words.len();
        self.words.resize(read + opened, (0, 0));
        let mut write = self.words.len();
        for &(number, bits) in other.words.iter().rev() {
            while read > 0 && self.words[read - 1].0 > number {
                read -= 1;
                write -= 1;
                self.words[write] = self.words[read];
            }
            if read == 0 || self.words[read - 1].0 != number {
                write -= 1;
                self.words[write] = (number, bits);
            }
        }
        new
    }

    /// Whether every member is also a member of `other`: one compare per
    /// stored word.
    pub(crate) fn is_subset(&self, other: &PeerSet) -> bool {
        self.words.iter().all(|&(number, bits)| {
            other
                .slot(number)
                .is_ok_and(|at| bits & !other.words[at].1 == 0)
        })
    }

    /// Stored words — the set's whole heap footprint, at most one per
    /// member.
    pub(crate) fn word_count(&self) -> usize {
        self.words.len()
    }

    /// Number of members: one popcount per stored word.
    pub(crate) fn len(&self) -> usize {
        let ones = self.words.iter().map(|&(_, bits)| bits.count_ones());
        ones.sum::<u32>() as usize
    }

    /// The members in ascending id order.
    pub(crate) fn iter(&self) -> Iter<'_> {
        Iter {
            words: self.words.iter(),
            base: 0,
            bits: 0,
        }
    }
}

/// Ascending iterator over a [`PeerSet`]'s members.
///
/// An id is rebuilt as `word number << 6 | bit position`, which cannot
/// overflow: the top word is `0xFFFF_FFC0..=u32::MAX`.
#[derive(Debug, Clone)]
pub(crate) struct Iter<'a> {
    words: std::slice::Iter<'a, (u32, u64)>,
    /// First id of the word being emitted.
    base: u32,
    /// Its members not yet emitted.
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = PeerId;

    fn next(&mut self) -> Option<PeerId> {
        while self.bits == 0 {
            let &(number, bits) = self.words.next()?;
            (self.base, self.bits) = (number << 6, bits);
        }
        let id = self.base | self.bits.trailing_zeros();
        self.bits &= self.bits - 1;
        Some(PeerId::new(id))
    }

    /// Internal iteration (`for_each`, `extend` through adaptors): a full
    /// word — every word but the last of a population numbered from zero —
    /// is emitted as a run of 64 consecutive ids, no bit scan.
    fn fold<B, F: FnMut(B, PeerId) -> B>(self, init: B, mut f: F) -> B {
        let pending = std::iter::once((self.base >> 6, self.bits));
        pending
            .chain(self.words.copied())
            .fold(init, |mut acc, (number, mut bits)| {
                let base = number << 6;
                if bits == u64::MAX {
                    return (0..64).fold(acc, |acc, bit| f(acc, PeerId::new(base | bit)));
                }
                while bits != 0 {
                    acc = f(acc, PeerId::new(base | bits.trailing_zeros()));
                    bits &= bits - 1;
                }
                acc
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: impl IntoIterator<Item = u32>) -> PeerSet {
        let mut peers: Vec<PeerId> = ids.into_iter().map(PeerId::new).collect();
        let mut s = PeerSet::default();
        s.absorb(&mut peers, 0);
        s
    }

    #[test]
    fn insert_reports_novelty_and_contains_agrees() {
        let mut s = PeerSet::default();
        for id in [0, 63, 64, 1_000_000, u32::MAX, 5] {
            assert!(!s.contains(PeerId::new(id)));
            assert!(s.insert(PeerId::new(id)));
            assert!(!s.insert(PeerId::new(id)));
            assert!(s.contains(PeerId::new(id)));
        }
        assert!(!s.contains(PeerId::new(1)));
        assert!(!s.contains(PeerId::new(u32::MAX - 64)));
    }

    #[test]
    fn storage_is_bounded_by_members_not_by_id_values() {
        let mut s = PeerSet::default();
        s.insert(PeerId::new(u32::MAX));
        assert_eq!(s.word_count(), 1);
        // One id per word, highest first: the worst case is one word each.
        let sparse = set((0..1_000u32).rev().map(|i| i << 12));
        assert_eq!(sparse.word_count(), 1_000);
        let dense = set(0..1_000);
        assert_eq!(dense.word_count(), 1_000usize.div_ceil(64));
    }

    #[test]
    fn storage_is_a_function_of_the_members() {
        let ids = [900, 3, u32::MAX, 64, 65, 7_000_000, 0];
        let mut one_by_one = PeerSet::default();
        for id in ids {
            one_by_one.insert(PeerId::new(id));
        }
        let mut sorted = ids;
        sorted.sort_unstable();
        assert_eq!(one_by_one, set(ids));
        assert_eq!(one_by_one, set(sorted));
        assert!(one_by_one.words.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(one_by_one.words.iter().all(|&(_, bits)| bits != 0));
    }

    #[test]
    fn absorb_keeps_first_occurrences_in_order() {
        let mut s = set([5, 70]);
        let mut staged: Vec<PeerId> = [9, 70, 1, 9, 5, 4_000, 1]
            .into_iter()
            .map(PeerId::new)
            .collect();
        s.absorb(&mut staged, 1);
        let kept: Vec<u32> = staged.iter().map(|p| p.as_u32()).collect();
        assert_eq!(kept, [9, 1, 9, 4_000], "position 0 is not staged");
        assert_eq!(s, set([5, 70, 1, 9, 4_000]));
    }

    #[test]
    fn iter_ascends_over_every_member_by_next_and_by_fold() {
        let top_word = 0xFFFF_FFC0..=u32::MAX;
        let cases: [Vec<u32>; 6] = [
            vec![],
            (0..1_200).collect(),
            (0..64).collect(),
            (0..300).map(|i| i * 4_099 + 17).collect(),
            (5..130).chain(top_word.clone()).collect(),
            vec![63, 64, u32::MAX - 64, u32::MAX],
        ];
        for ids in cases {
            let s = set(ids.iter().rev().copied());
            let expected: Vec<PeerId> = ids.iter().map(|&id| PeerId::new(id)).collect();
            assert_eq!(s.len(), expected.len());
            let mut by_next = Vec::new();
            for peer in s.iter() {
                by_next.push(peer);
            }
            assert_eq!(by_next, expected);
            let mut by_fold = Vec::new();
            s.iter().for_each(|peer| by_fold.push(peer));
            assert_eq!(by_fold, expected);
            // A fold picks up where `next` stopped, mid-word included.
            for taken in [1, 63, 64, 65] {
                let mut it = s.iter();
                let head: Vec<PeerId> = it.by_ref().take(taken).collect();
                let tail: Vec<PeerId> = it.fold(head, |mut all, peer| {
                    all.push(peer);
                    all
                });
                assert_eq!(tail, expected, "resumed after {taken}");
            }
        }
    }

    #[test]
    fn union_equals_per_id_inserts() {
        let top_word = 0xFFFF_FFC0..=u32::MAX;
        let cases: [(Vec<u32>, Vec<u32>); 6] = [
            ((0..300).collect(), (200..700).collect()),
            (vec![], (0..130).chain(top_word.clone()).collect()),
            ((0..64).collect(), vec![]),
            // Sparse, arriving in descending order: one word per id.
            (
                (0..50).map(|i| i * 4_099).collect(),
                (0..1_000).rev().map(|i| i << 12).collect(),
            ),
            (top_word.clone().step_by(3).collect(), top_word.collect()),
            (vec![63, 64, u32::MAX], vec![u32::MAX, 65, 64, 0]),
        ];
        for (base, added) in cases {
            let mut by_insert = set(base.iter().copied());
            let inserted = added
                .iter()
                .filter(|&&id| by_insert.insert(PeerId::new(id)))
                .count();
            let mut by_union = set(base.iter().copied());
            assert_eq!(by_union.union_with(&set(added.iter().copied())), inserted);
            assert_eq!(by_union, by_insert, "{base:?} ∪ {added:?}");
            assert_eq!(by_union.union_with(&set(added)), 0, "idempotent");
        }
    }

    #[test]
    fn subset_is_word_wise() {
        let big = set((0..200).chain([u32::MAX]));
        assert!(set([]).is_subset(&big));
        assert!(set([0, 64, 199, u32::MAX]).is_subset(&big));
        assert!(big.is_subset(&big));
        assert!(!set([0, 200]).is_subset(&big));
        assert!(!set([1 << 20]).is_subset(&big));
        assert!(!big.is_subset(&set(0..200)));
    }
}
