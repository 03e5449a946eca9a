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
