//! The Demers et al. epidemic repertoire (§7.2): anti-entropy and rumor
//! mongering.
//!
//! "Randomised rumor spreading algorithms may be categorized by the
//! gossip termination decision criteria used by peers": *feedback* vs
//! *blind* loss of interest, and *probabilistic* (coin) vs
//! *deterministic* (counter) stopping. [`RumorMongerNode`] implements all
//! four combinations; [`AntiEntropyNode`] is the pull/push-pull
//! reconciliation baseline the paper's own pull phase descends from.

use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use rumor_net::{EffectSink, Node};
use rumor_types::{PeerId, Round, UpdateId};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

/// Messages of the Demers baselines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DemersMsg {
    /// Anti-entropy request carrying the sender's rumor set.
    Digest {
        /// Rumors the sender knows (a request) or the receiver lacks (a
        /// reply). [`AntiEntropyNode`] sends them strictly ascending and
        /// accepts any order, duplicates included, on receipt.
        known: Vec<UpdateId>,
        /// Whether the receiver should answer (pull) — push-pull sets it.
        reply: bool,
    },
    /// A pushed rumor (rumor mongering).
    Rumor {
        /// The rumor.
        rumor: UpdateId,
    },
    /// Feedback to a pushed rumor: did the receiver already know it?
    Feedback {
        /// The rumor being acknowledged.
        rumor: UpdateId,
        /// `true` when the receiver had already heard it.
        already_knew: bool,
    },
}

/// Anti-entropy (§7.2 / Demers): every round each online node exchanges
/// its rumor set with one random partner; with `push_pull` the partner
/// also learns the initiator's rumors.
///
/// The rumor set is one strictly ascending array. A digest carries a copy
/// of it, so every digest a node sends is strictly ascending; a received
/// digest in any other order (a wire peer, a fuzz case) is sorted and
/// deduplicated first, and then reconciled in one merge pass.
#[derive(Debug, Clone)]
pub struct AntiEntropyNode {
    id: PeerId,
    peers: Vec<PeerId>,
    /// Known rumors, strictly ascending.
    rumors: Vec<UpdateId>,
    push_pull: bool,
}

impl AntiEntropyNode {
    /// Creates a node knowing the given peers.
    pub fn new(id: u32, peers: Vec<PeerId>, push_pull: bool) -> Self {
        Self {
            id: PeerId::new(id),
            peers,
            rumors: Vec::new(),
            push_pull,
        }
    }

    /// Convenience: node `id` of a fully-connected population.
    pub fn fully_connected(id: u32, population: usize, push_pull: bool) -> Self {
        let peers = (0..population as u32)
            .filter(|&j| j != id)
            .map(PeerId::new)
            .collect();
        Self::new(id, peers, push_pull)
    }

    /// Whether the node knows the rumor.
    pub fn knows(&self, rumor: UpdateId) -> bool {
        self.rumors.binary_search(&rumor).is_ok()
    }

    /// Seeds a rumor locally (no immediate sends — anti-entropy spreads
    /// via the per-round exchanges).
    pub fn seed_rumor(&mut self, rumor: UpdateId) {
        if let Err(at) = self.rumors.binary_search(&rumor) {
            self.rumors.insert(at, rumor);
        }
    }

    /// One merge pass over our rumors and `theirs` (strictly ascending):
    /// returns the rumors only we hold, in ascending order, when `collect`
    /// is set, and absorbs the rumors only they hold when `absorb` is set.
    /// The set grows only when `theirs` holds something new.
    fn reconcile(&mut self, theirs: &[UpdateId], collect: bool, absorb: bool) -> Vec<UpdateId> {
        let ours = &self.rumors;
        let mut missing = Vec::new();
        // `ours ∪ theirs`, opened at the first id only they hold.
        let mut union: Option<Vec<UpdateId>> = None;
        let (mut i, mut j) = (0, 0);
        while i < ours.len() || j < theirs.len() {
            let order = match (ours.get(i), theirs.get(j)) {
                (Some(a), Some(b)) => a.cmp(b),
                (Some(_), None) => Ordering::Less,
                (None, _) => Ordering::Greater,
            };
            if order == Ordering::Greater {
                if absorb {
                    let open = || {
                        let mut union = Vec::with_capacity(ours.len() + theirs.len() - j);
                        union.extend_from_slice(&ours[..i]);
                        union
                    };
                    union.get_or_insert_with(open).push(theirs[j]);
                }
                j += 1;
            } else {
                if order == Ordering::Less && collect {
                    missing.push(ours[i]);
                }
                if let Some(union) = &mut union {
                    union.push(ours[i]);
                }
                i += 1;
                j += usize::from(order == Ordering::Equal);
            }
        }
        if let Some(union) = union {
            self.rumors = union;
        }
        missing
    }
}

impl Node for AntiEntropyNode {
    type Msg = DemersMsg;

    fn id(&self) -> PeerId {
        self.id
    }

    fn on_round_start(
        &mut self,
        _round: Round,
        rng: &mut ChaCha8Rng,
        out: &mut EffectSink<DemersMsg>,
    ) {
        let Some(&partner) = self.peers.choose(rng) else {
            return;
        };
        out.send(
            partner,
            DemersMsg::Digest {
                known: self.rumors.clone(),
                reply: true,
            },
        );
    }

    fn on_message(
        &mut self,
        from: PeerId,
        msg: DemersMsg,
        _round: Round,
        _rng: &mut ChaCha8Rng,
        out: &mut EffectSink<DemersMsg>,
    ) {
        match msg {
            DemersMsg::Digest { mut known, reply } => {
                // Our own digests are strictly ascending; anything else is
                // brought to set form before the merge.
                if !known.is_sorted_by(|a, b| a < b) {
                    known.sort_unstable();
                    known.dedup();
                }
                // A response (reply == false) carries the rumors we asked
                // for — always absorb it. A request is absorbed only in
                // push-pull mode.
                let missing = self.reconcile(&known, reply, self.push_pull || !reply);
                if reply && (!missing.is_empty() || self.push_pull) {
                    out.send(
                        from,
                        DemersMsg::Digest {
                            known: missing,
                            reply: false,
                        },
                    );
                }
            }
            DemersMsg::Rumor { .. } | DemersMsg::Feedback { .. } => {}
        }
    }
}

/// When a rumor-mongering node loses interest in a hot rumor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MongerStop {
    /// Coin: lose interest with probability `1/k` per triggering event.
    Coin {
        /// Inverse loss probability.
        k: u32,
    },
    /// Counter: lose interest after `k` triggering events.
    Counter {
        /// Event budget.
        k: u32,
    },
}

use serde::{Deserialize, Serialize};

/// Rumor-mongering configuration: feedback-driven or blind, coin or
/// counter.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MongerConfig {
    /// `true`: the stop rule triggers on "recipient already knew"
    /// feedback; `false` (blind): it triggers on every send.
    pub feedback: bool,
    /// Coin or counter stop rule.
    pub stop: MongerStop,
}

/// Demers-style push rumor mongering: while a rumor is *hot* the node
/// pushes it to one random peer per round; interest is lost per the
/// configured rule.
#[derive(Debug, Clone)]
pub struct RumorMongerNode {
    id: PeerId,
    peers: Vec<PeerId>,
    config: MongerConfig,
    known: BTreeSet<UpdateId>,
    hot: BTreeSet<UpdateId>,
    counters: BTreeMap<UpdateId, u32>,
    /// Reusable snapshot of the hot set (hot path).
    hot_scratch: Vec<UpdateId>,
}

impl RumorMongerNode {
    /// Creates a node knowing the given peers.
    pub fn new(id: u32, peers: Vec<PeerId>, config: MongerConfig) -> Self {
        Self {
            id: PeerId::new(id),
            peers,
            config,
            known: BTreeSet::new(),
            hot: BTreeSet::new(),
            counters: BTreeMap::new(),
            hot_scratch: Vec::new(),
        }
    }

    /// Convenience: node `id` of a fully-connected population.
    pub fn fully_connected(id: u32, population: usize, config: MongerConfig) -> Self {
        let peers = (0..population as u32)
            .filter(|&j| j != id)
            .map(PeerId::new)
            .collect();
        Self::new(id, peers, config)
    }

    /// Whether the node knows the rumor.
    pub fn knows(&self, rumor: UpdateId) -> bool {
        self.known.contains(&rumor)
    }

    /// Whether the node is still actively spreading the rumor.
    pub fn is_hot(&self, rumor: UpdateId) -> bool {
        self.hot.contains(&rumor)
    }

    /// Seeds a rumor at this node, marking it hot.
    pub fn seed_rumor(&mut self, rumor: UpdateId) {
        self.known.insert(rumor);
        self.hot.insert(rumor);
    }

    fn maybe_lose_interest(&mut self, rumor: UpdateId, rng: &mut ChaCha8Rng) {
        match self.config.stop {
            MongerStop::Coin { k } => {
                if k <= 1 || rng.gen_ratio(1, k) {
                    self.hot.remove(&rumor);
                }
            }
            MongerStop::Counter { k } => {
                let c = self.counters.entry(rumor).or_insert(0);
                *c += 1;
                if *c >= k {
                    self.hot.remove(&rumor);
                }
            }
        }
    }
}

impl Node for RumorMongerNode {
    type Msg = DemersMsg;

    fn id(&self) -> PeerId {
        self.id
    }

    fn on_round_start(
        &mut self,
        _round: Round,
        rng: &mut ChaCha8Rng,
        out: &mut EffectSink<DemersMsg>,
    ) {
        let mut hot = std::mem::take(&mut self.hot_scratch);
        hot.clear();
        hot.extend(self.hot.iter().copied());
        for &rumor in &hot {
            if let Some(&partner) = self.peers.choose(rng) {
                out.send(partner, DemersMsg::Rumor { rumor });
                if !self.config.feedback {
                    // Blind: the stop rule ticks on every send.
                    self.maybe_lose_interest(rumor, rng);
                }
            }
        }
        hot.clear();
        self.hot_scratch = hot;
    }

    fn on_message(
        &mut self,
        from: PeerId,
        msg: DemersMsg,
        _round: Round,
        rng: &mut ChaCha8Rng,
        out: &mut EffectSink<DemersMsg>,
    ) {
        match msg {
            DemersMsg::Rumor { rumor } => {
                let already_knew = !self.known.insert(rumor);
                if !already_knew {
                    self.hot.insert(rumor);
                }
                if self.config.feedback {
                    out.send(
                        from,
                        DemersMsg::Feedback {
                            rumor,
                            already_knew,
                        },
                    );
                }
            }
            DemersMsg::Feedback {
                rumor,
                already_knew,
            } => {
                if self.config.feedback && already_knew {
                    self.maybe_lose_interest(rumor, rng);
                }
            }
            DemersMsg::Digest { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::driver;
    use rand::SeedableRng;
    use rumor_net::Effect;

    fn rumor() -> UpdateId {
        UpdateId::from_bits(7)
    }

    #[test]
    fn anti_entropy_pull_converges() {
        let nodes: Vec<AntiEntropyNode> = (0..60)
            .map(|i| AntiEntropyNode::fully_connected(i, 60, false))
            .collect();
        let mut sim = driver(nodes, 60, 3);
        sim.apply(PeerId::new(0), |n, _, _| n.seed_rumor(rumor()));
        sim.run_rounds(40);
        let aware = sim.aware_fraction(|n| n.knows(rumor()));
        assert!(aware > 0.95, "anti-entropy converges, got {aware}");
    }

    #[test]
    fn push_pull_faster_than_pull_only() {
        let run = |push_pull: bool| {
            let nodes: Vec<AntiEntropyNode> = (0..80)
                .map(|i| AntiEntropyNode::fully_connected(i, 80, push_pull))
                .collect();
            let mut sim = driver(nodes, 80, 5);
            sim.apply(PeerId::new(0), |n, _, _| n.seed_rumor(rumor()));
            let mut rounds = 0;
            while sim.aware_fraction(|n| n.knows(rumor())) < 0.9 && rounds < 200 {
                sim.step();
                rounds += 1;
            }
            rounds
        };
        assert!(
            run(true) <= run(false),
            "push-pull cannot be slower than pull-only"
        );
    }

    /// Today's set semantics, kept as the reference for the merge: the
    /// digest rebuilt into a tree, absorbed by per-id inserts, and the
    /// reply filtered out of our own tree.
    struct SetModel {
        rumors: BTreeSet<UpdateId>,
        push_pull: bool,
    }

    impl SetModel {
        fn on_digest(&mut self, known: &[UpdateId], reply: bool) -> Option<Vec<UpdateId>> {
            let their: BTreeSet<UpdateId> = known.iter().copied().collect();
            if self.push_pull || !reply {
                self.rumors.extend(their.iter().copied());
            }
            if !reply {
                return None;
            }
            let missing: Vec<UpdateId> = self.rumors.difference(&their).copied().collect();
            (!missing.is_empty() || self.push_pull).then_some(missing)
        }
    }

    /// The `(recipient, ids, reply)` of every digest sent.
    fn digests(out: &EffectSink<DemersMsg>) -> Vec<(PeerId, Vec<UpdateId>, bool)> {
        out.iter()
            .map(|effect| match effect {
                Effect::Send {
                    to,
                    msg: DemersMsg::Digest { known, reply },
                } => (*to, known.clone(), *reply),
                other => panic!("anti-entropy sent {other:?}"),
            })
            .collect()
    }

    /// A digest's `(known, reply)` over ids below 48 drawn from `seed`:
    /// strictly ascending, unsorted, with duplicates, or empty.
    fn arbitrary_digest(seed: u64) -> (Vec<UpdateId>, bool) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let len = rng.gen_range(0..16);
        let mut known: Vec<UpdateId> = (0..len)
            .map(|_| UpdateId::from_bits(rng.gen_range(0u64..48).into()))
            .collect();
        match rng.gen_range(0..4) {
            0 => {
                known.sort_unstable();
                known.dedup();
            }
            1 => {
                known.sort_unstable();
                known.dedup();
                known.shuffle(&mut rng);
            }
            2 => {
                let again = known.clone();
                known.extend(again);
                known.shuffle(&mut rng);
            }
            _ => known.clear(),
        }
        (known, rng.gen())
    }

    proptest::proptest! {
        #[test]
        fn digest_merge_matches_the_set_model(
            push_pull in proptest::prelude::any::<bool>(),
            seeded in proptest::collection::vec(0u64..48, 0..12),
            steps in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..24),
        ) {
            let mut node = AntiEntropyNode::fully_connected(0, 8, push_pull);
            let mut model = SetModel { rumors: BTreeSet::new(), push_pull };
            for &bits in &seeded {
                node.seed_rumor(UpdateId::from_bits(bits.into()));
                model.rumors.insert(UpdateId::from_bits(bits.into()));
            }
            let from = PeerId::new(3);
            for (step, &seed) in steps.iter().enumerate() {
                let (known, reply) = arbitrary_digest(seed);
                let expected: Vec<(PeerId, Vec<UpdateId>, bool)> = model
                    .on_digest(&known, reply)
                    .map(|missing| (from, missing, false))
                    .into_iter()
                    .collect();
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let mut out = EffectSink::new();
                let msg = DemersMsg::Digest { known, reply };
                node.on_message(from, msg, Round::ZERO, &mut rng, &mut out);
                proptest::prop_assert_eq!(digests(&out), expected, "step {}", step);
                for bits in 0..48 {
                    let id = UpdateId::from_bits(bits);
                    proptest::prop_assert_eq!(node.knows(id), model.rumors.contains(&id));
                }
                // The round's own digest: the whole set, ascending.
                let mut out = EffectSink::new();
                node.on_round_start(Round::ZERO, &mut rng, &mut out);
                let [(_, known, true)] = &digests(&out)[..] else {
                    panic!("one request per round")
                };
                proptest::prop_assert!(known.iter().eq(model.rumors.iter()));
            }
        }
    }

    #[test]
    fn unsorted_duplicated_digest_gets_the_reply_of_its_set_form() {
        let ids = |bits: &[u128]| -> Vec<UpdateId> {
            bits.iter().map(|&b| UpdateId::from_bits(b)).collect()
        };
        let reply_to = |known: Vec<UpdateId>| {
            let mut node = AntiEntropyNode::fully_connected(0, 4, true);
            for rumor in ids(&[2, 5, 9, 40]) {
                node.seed_rumor(rumor);
            }
            let mut rng = ChaCha8Rng::seed_from_u64(1);
            let mut out = EffectSink::new();
            let msg = DemersMsg::Digest { known, reply: true };
            node.on_message(PeerId::new(1), msg, Round::ZERO, &mut rng, &mut out);
            (digests(&out), node.rumors)
        };
        let unsorted = reply_to(ids(&[9, 7, 2, 9, 7, 1, 2]));
        assert_eq!(unsorted, reply_to(ids(&[1, 2, 7, 9])));
        assert_eq!(unsorted.0, [(PeerId::new(1), ids(&[5, 40]), false)]);
        assert_eq!(unsorted.1, ids(&[1, 2, 5, 7, 9, 40]));
    }

    #[test]
    fn monger_feedback_coin_covers_population() {
        let config = MongerConfig {
            feedback: true,
            stop: MongerStop::Coin { k: 4 },
        };
        let nodes: Vec<RumorMongerNode> = (0..100)
            .map(|i| RumorMongerNode::fully_connected(i, 100, config))
            .collect();
        let mut sim = driver(nodes, 100, 9);
        sim.apply(PeerId::new(0), |n, _, _| n.seed_rumor(rumor()));
        sim.run_rounds(100);
        let aware = sim.aware_fraction(|n| n.knows(rumor()));
        assert!(
            aware > 0.9,
            "rumor mongering covers most peers, got {aware}"
        );
    }

    #[test]
    fn monger_counter_eventually_goes_cold() {
        let config = MongerConfig {
            feedback: false,
            stop: MongerStop::Counter { k: 3 },
        };
        let nodes: Vec<RumorMongerNode> = (0..50)
            .map(|i| RumorMongerNode::fully_connected(i, 50, config))
            .collect();
        let mut sim = driver(nodes, 50, 13);
        sim.apply(PeerId::new(0), |n, _, _| n.seed_rumor(rumor()));
        sim.run_rounds(60);
        let hot = sim.aware_fraction(|n| n.is_hot(rumor()));
        assert_eq!(hot, 0.0, "blind counter mongering terminates");
    }

    #[test]
    fn blind_coin_sends_fewer_messages_than_feedback_for_same_k() {
        let run = |feedback: bool| {
            let config = MongerConfig {
                feedback,
                stop: MongerStop::Coin { k: 3 },
            };
            let nodes: Vec<RumorMongerNode> = (0..80)
                .map(|i| RumorMongerNode::fully_connected(i, 80, config))
                .collect();
            let mut sim = driver(nodes, 80, 17);
            sim.apply(PeerId::new(0), |n, _, _| n.seed_rumor(rumor()));
            sim.run_rounds(120);
            sim.messages()
        };
        // Blind loses interest on every send; feedback only on "already
        // knew" replies, so it stays hot longer and sends more.
        assert!(run(false) < run(true));
    }

    #[test]
    fn feedback_messages_include_acks() {
        let config = MongerConfig {
            feedback: true,
            stop: MongerStop::Coin { k: 2 },
        };
        let mut a = RumorMongerNode::fully_connected(0, 2, config);
        let mut rng = rand::SeedableRng::seed_from_u64(1);
        a.seed_rumor(rumor());
        let mut b = RumorMongerNode::fully_connected(1, 2, config);
        let mut fb = EffectSink::new();
        b.on_message(
            PeerId::new(0),
            DemersMsg::Rumor { rumor: rumor() },
            Round::ZERO,
            &mut rng,
            &mut fb,
        );
        assert!(matches!(
            fb[..],
            [Effect::Send {
                msg: DemersMsg::Feedback {
                    already_knew: false,
                    ..
                },
                ..
            }]
        ));
        assert!(b.knows(rumor()));
        assert!(b.is_hot(rumor()));
    }
}
