//! The one timer queue both execution paths arm and pop.
//!
//! [`SyncEngine`](crate::SyncEngine) keeps one queue for the whole
//! population and `rumor-cluster`'s cells one each, but the rules are
//! the same and live here: a timer of delay `d` armed in round `now`
//! fires at `now + d` (saturating, so a delay beyond the round counter's
//! range never fires instead of wrapping to "now"), never before the
//! floor its caller passes in, and timers due in one round pop in the
//! order they were armed.

use rumor_types::Round;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Armed timers carrying an `item` each (a tag, or a `(peer, tag)`
/// pair), popped in `(fire round, arming order)`.
#[derive(Debug, Clone)]
pub struct TimerQueue<T> {
    /// Min-heap on `(fire, seq)`; `seq` is unique and monotone in arming
    /// order, so the item never takes part in the order.
    heap: BinaryHeap<Reverse<(Round, u64, T)>>,
    seq: u64,
}

impl<T: Ord> Default for TimerQueue<T> {
    fn default() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl<T: Ord> TimerQueue<T> {
    /// Arms `item` to fire `delay` rounds after `now`, but not before
    /// `floor` (the earliest timer scan that may observe it). A delay
    /// beyond the round counter's range saturates: the timer never
    /// fires.
    pub fn arm(&mut self, now: Round, delay: u64, floor: Round, item: T) {
        let delay = u32::try_from(delay).unwrap_or(u32::MAX);
        let fire = Round::new(now.as_u32().saturating_add(delay)).max(floor);
        self.seq += 1;
        self.heap.push(Reverse((fire, self.seq, item)));
    }

    /// Pops the next timer due by `round` with its fire round, so a
    /// caller can tell a timer due now from one that came due while
    /// nobody scanned. `None` once no timer is due.
    pub fn pop_due(&mut self, round: Round) -> Option<(Round, T)> {
        match self.heap.peek()? {
            Reverse((fire, ..)) if *fire > round => None,
            _ => self.heap.pop().map(|Reverse((fire, _, item))| (fire, item)),
        }
    }

    /// Timers armed and not yet popped.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no timer is armed.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(timers: &mut TimerQueue<u32>, round: u32) -> Vec<(u32, u32)> {
        std::iter::from_fn(|| timers.pop_due(Round::new(round)))
            .map(|(fire, item)| (fire.as_u32(), item))
            .collect()
    }

    #[test]
    fn timers_due_in_one_round_pop_in_arming_order() {
        let mut timers = TimerQueue::default();
        // Armed at different rounds with different delays, all due at 5.
        timers.arm(Round::new(4), 1, Round::ZERO, 1);
        timers.arm(Round::new(0), 5, Round::ZERO, 2);
        timers.arm(Round::new(0), 9, Round::ZERO, 9);
        timers.arm(Round::new(3), 2, Round::ZERO, 3);
        timers.arm(Round::new(1), 2, Round::ZERO, 0);
        assert_eq!(drain(&mut timers, 5), vec![(3, 0), (5, 1), (5, 2), (5, 3)]);
        assert_eq!(timers.len(), 1, "the round-9 timer waits");
    }

    #[test]
    fn a_delay_beyond_u32_saturates_instead_of_wrapping() {
        let mut timers = TimerQueue::default();
        timers.arm(Round::new(3), 1u64 << 32, Round::ZERO, 1);
        timers.arm(Round::new(3), u64::MAX, Round::ZERO, 2);
        timers.arm(Round::new(3), u64::from(u32::MAX), Round::ZERO, 3);
        assert!(drain(&mut timers, 1_000_000).is_empty(), "nothing wrapped");
        assert_eq!(
            drain(&mut timers, u32::MAX),
            vec![(u32::MAX, 1), (u32::MAX, 2), (u32::MAX, 3)]
        );
    }

    #[test]
    fn the_floor_is_respected() {
        let mut timers = TimerQueue::default();
        timers.arm(Round::new(2), 0, Round::new(3), 1);
        timers.arm(Round::new(2), 4, Round::new(3), 2);
        assert!(drain(&mut timers, 2).is_empty(), "zero delay floored to 3");
        assert_eq!(drain(&mut timers, 3), vec![(3, 1)]);
        assert_eq!(drain(&mut timers, 6), vec![(6, 2)], "floor below fire");
    }

    #[test]
    fn the_fire_round_tells_a_stale_timer_from_a_due_one() {
        let mut timers = TimerQueue::default();
        timers.arm(Round::ZERO, 1, Round::ZERO, 1);
        timers.arm(Round::ZERO, 4, Round::ZERO, 2);
        // Nobody scanned rounds 1..=3: the round-1 timer pops stale.
        let popped = drain(&mut timers, 4);
        assert_eq!(popped, vec![(1, 1), (4, 2)]);
        let due_now: Vec<u32> = popped
            .iter()
            .filter(|&&(fire, _)| fire == 4)
            .map(|&(_, item)| item)
            .collect();
        assert_eq!(due_now, vec![2]);
        assert!(timers.is_empty());
    }
}
