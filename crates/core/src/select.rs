//! Random target selection with soft preferences.
//!
//! §6's acknowledgement optimisation biases target choice: replicas that
//! recently acked "will have better chances to find online replicas in
//! future updates", while replicas that failed to ack are skipped "for
//! short time intervals". [`select_targets`] implements that three-tier
//! preference (preferred / neutral / avoided) over a uniform random base;
//! the replica itself selects through [`select_ascending`], the same
//! function fed from its membership set.

use rand::seq::SliceRandom;
use rand_chacha::ChaCha8Rng;
use rumor_types::PeerId;
use std::cell::RefCell;
use std::iter::Peekable;

/// Candidates split by preference, each tier in candidate order.
#[derive(Debug)]
struct Tiers {
    preferred: Vec<PeerId>,
    neutral: Vec<PeerId>,
    avoided: Vec<PeerId>,
}

impl Tiers {
    const fn new() -> Self {
        Self {
            preferred: Vec::new(),
            neutral: Vec::new(),
            avoided: Vec::new(),
        }
    }

    fn clear(&mut self) {
        self.preferred.clear();
        self.neutral.clear();
        self.avoided.clear();
    }

    /// Shuffles each tier and appends the first `count` candidates in
    /// tier order to `out`: one draw per candidate beyond a tier's first,
    /// whatever `count` is.
    fn draw_into(&mut self, count: usize, rng: &mut ChaCha8Rng, out: &mut Vec<PeerId>) {
        self.preferred.shuffle(rng);
        self.neutral.shuffle(rng);
        self.avoided.shuffle(rng);
        let tiers = self.preferred.iter().chain(&self.neutral);
        out.extend(tiers.chain(&self.avoided).take(count).copied());
    }
}

/// Selects up to `count` distinct targets from `candidates`.
///
/// Candidates in `preferred` are chosen first (shuffled among themselves),
/// then neutral candidates, and candidates in `avoided` only if nothing
/// else remains — the ack heuristic must degrade to plain uniform gossip
/// rather than starve the push. Within each tier the choice is uniformly
/// random.
///
/// # Examples
///
/// ```
/// use rumor_core::select_targets;
/// use rumor_types::PeerId;
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
/// let candidates: Vec<PeerId> = (0..10).map(PeerId::new).collect();
/// let picked = select_targets(&candidates, 3, &[], &[], &mut rng);
/// assert_eq!(picked.len(), 3);
/// ```
pub fn select_targets(
    candidates: &[PeerId],
    count: usize,
    preferred: &[PeerId],
    avoided: &[PeerId],
    rng: &mut ChaCha8Rng,
) -> Vec<PeerId> {
    let mut out = Vec::new();
    if count == 0 {
        return out;
    }
    let mut tiers = Tiers::new();
    for &c in candidates {
        if preferred.contains(&c) {
            tiers.preferred.push(c);
        } else if avoided.contains(&c) {
            tiers.avoided.push(c);
        } else {
            tiers.neutral.push(c);
        }
    }
    tiers.draw_into(count, rng, &mut out);
    out
}

thread_local! {
    /// The tier buffers of [`select_ascending`]. Their length follows the
    /// population, so they live once per executor thread, not once per
    /// replica; nothing is carried between calls (cleared on entry).
    static TIERS: RefCell<Tiers> = const { RefCell::new(Tiers::new()) };
}

/// Skips `sorted` up to `peer`; whether it holds `peer`.
fn reaches(sorted: &mut Peekable<impl Iterator<Item = PeerId>>, peer: PeerId) -> bool {
    while sorted.next_if(|&p| p < peer).is_some() {}
    sorted.peek() == Some(&peer)
}

/// [`select_targets`] over strictly ascending inputs, written into `out`
/// (cleared first): the candidates are classified by one merge-join
/// against `preferred` and `avoided` instead of a scan of both per
/// candidate, and the tiers are built in a per-thread buffer, so a
/// selection allocates nothing in steady state. RNG consumption and the
/// selected sequence are those of [`select_targets`] over the same ids.
pub(crate) fn select_ascending(
    candidates: impl Iterator<Item = PeerId>,
    count: usize,
    preferred: impl Iterator<Item = PeerId>,
    avoided: impl Iterator<Item = PeerId>,
    rng: &mut ChaCha8Rng,
    out: &mut Vec<PeerId>,
) {
    out.clear();
    if count == 0 {
        return;
    }
    let (mut preferred, mut avoided) = (preferred.peekable(), avoided.peekable());
    TIERS.with_borrow_mut(|tiers| {
        tiers.clear();
        let Tiers {
            preferred: first,
            neutral,
            avoided: last,
        } = &mut *tiers;
        candidates.for_each(|c| neutral.push(c));
        // Nobody is preferred or avoided unless the ack heuristic is on
        // and inside a cool-off; only then is there anything to move out.
        if preferred.peek().is_some() || avoided.peek().is_some() {
            neutral.retain(|&c| {
                let tier = if reaches(&mut preferred, c) {
                    &mut *first
                } else if reaches(&mut avoided, c) {
                    &mut *last
                } else {
                    return true;
                };
                tier.push(c);
                false
            });
        }
        tiers.draw_into(count, rng, out);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(13)
    }

    fn ids(v: impl IntoIterator<Item = u32>) -> Vec<PeerId> {
        v.into_iter().map(PeerId::new).collect()
    }

    #[test]
    fn empty_inputs() {
        assert!(select_targets(&[], 3, &[], &[], &mut rng()).is_empty());
        assert!(select_targets(&ids([1]), 0, &[], &[], &mut rng()).is_empty());
    }

    #[test]
    fn selects_exactly_count_when_available() {
        let picked = select_targets(&ids(0..100), 10, &[], &[], &mut rng());
        assert_eq!(picked.len(), 10);
        let mut uniq = picked.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 10, "no duplicates");
    }

    #[test]
    fn returns_fewer_when_candidates_scarce() {
        let picked = select_targets(&ids([1, 2]), 10, &[], &[], &mut rng());
        assert_eq!(picked.len(), 2);
    }

    #[test]
    fn preferred_come_first() {
        let pref = ids([7, 8]);
        let picked = select_targets(&ids(0..10), 2, &pref, &[], &mut rng());
        assert_eq!(picked.len(), 2);
        assert!(picked.iter().all(|p| pref.contains(p)));
    }

    #[test]
    fn avoided_used_only_as_last_resort() {
        let avoid = ids([0, 1]);
        // Plenty of neutral candidates: avoided never picked.
        let picked = select_targets(&ids(0..10), 5, &[], &avoid, &mut rng());
        assert!(picked.iter().all(|p| !avoid.contains(p)));
        // Only avoided candidates exist: they are used.
        let picked = select_targets(&ids([0, 1]), 2, &[], &avoid, &mut rng());
        assert_eq!(picked.len(), 2);
    }

    #[test]
    fn selection_is_roughly_uniform_without_preferences() {
        let candidates = ids(0..10);
        let mut counts = [0u32; 10];
        let mut r = rng();
        for _ in 0..5000 {
            for p in select_targets(&candidates, 3, &[], &[], &mut r) {
                counts[p.index()] += 1;
            }
        }
        // Each peer expected ≈ 1500 hits.
        for (i, &c) in counts.iter().enumerate() {
            assert!((1300..=1700).contains(&c), "peer {i} picked {c} times");
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = select_targets(&ids(0..50), 5, &[], &[], &mut rng());
        let b = select_targets(&ids(0..50), 5, &[], &[], &mut rng());
        assert_eq!(a, b);
    }

    /// Every generated case through both paths: same targets, and the RNG
    /// left at the same position (a follow-up draw agrees).
    fn assert_set_fed_selection_is_select_targets(seed: u64) {
        use crate::peer_set::PeerSet;
        use rand::Rng;

        let top_word = 0xFFFF_FFC0..=u32::MAX;
        let memberships: [Vec<u32>; 5] = [
            (0..200).collect(),
            (0..64).collect(),
            (0..150).map(|i| i * 4_099 + 17).collect(),
            (0..70).chain(top_word.clone()).collect(),
            top_word.collect(),
        ];
        let mut gen = ChaCha8Rng::seed_from_u64(seed);
        let mut out = Vec::new();
        for members in &memberships {
            let mut set = PeerSet::default();
            for &id in members {
                set.insert(PeerId::new(id));
            }
            let (first, last) = (members[0], members[members.len() - 1]);
            let middle = members[members.len() / 2];
            // Own id first, in the middle, last, and absent from the set.
            for own in [first, middle, last, 5_000_000] {
                let own = PeerId::new(own);
                let sorted: Vec<PeerId> = set.iter().filter(|&p| p != own).collect();
                assert!(sorted.windows(2).all(|w| w[0] < w[1]));
                let absent = usize::from(!members.contains(&own.as_u32()));
                assert_eq!(sorted.len(), members.len() - 1 + absent);
                // Overlapping bias lists, some of their ids not candidates
                // at all (own id, strangers).
                let mut bias = |share: u32| -> Vec<PeerId> {
                    let mut picked: Vec<PeerId> = members
                        .iter()
                        .filter(|_| gen.gen_range(0..100u32) < share)
                        .map(|&id| PeerId::new(id))
                        .chain([own, PeerId::new(6_000_000)])
                        .collect();
                    picked.sort();
                    picked
                };
                for (preferred, avoided) in [
                    (vec![], vec![]),
                    (bias(10), vec![]),
                    (vec![], bias(30)),
                    (bias(20), bias(20)),
                    (bias(100), bias(100)),
                ] {
                    for count in [0, 1, 3, 64, sorted.len(), sorted.len() + 5] {
                        let case_seed = gen.gen::<u64>();
                        let mut reference_rng = ChaCha8Rng::seed_from_u64(case_seed);
                        let reference = select_targets(
                            &sorted,
                            count,
                            &preferred,
                            &avoided,
                            &mut reference_rng,
                        );
                        let mut rng = ChaCha8Rng::seed_from_u64(case_seed);
                        select_ascending(
                            set.iter().filter(|&p| p != own),
                            count,
                            preferred.iter().copied(),
                            avoided.iter().copied(),
                            &mut rng,
                            &mut out,
                        );
                        assert_eq!(out, reference, "own {own:?} count {count}");
                        assert_eq!(
                            rng.gen::<u64>(),
                            reference_rng.gen::<u64>(),
                            "RNG streams must stay aligned"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn into_variant_matches_allocating_variant_bit_for_bit() {
        // One thread, one scratch, 1 200 selections of every shape in
        // turn: whatever a call leaves in the buffer, the next ignores.
        assert_set_fed_selection_is_select_targets(1);
        assert_set_fed_selection_is_select_targets(2);
    }

    #[test]
    fn into_variant_matches_allocating_variant_on_two_threads_at_once() {
        // Each thread selects through a buffer of its own; the barrier
        // makes the two runs overlap.
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for seed in [3, 4] {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    assert_set_fed_selection_is_select_targets(seed);
                });
            }
        });
    }
}
