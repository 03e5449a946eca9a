//! The replica state machine: push phase, pull phase, acks, self-tuning.

use crate::config::{AckPolicy, ProtocolConfig, PullStrategy};
use crate::digest::StoreDigest;
use crate::forward::TuningSignals;
use crate::message::{Message, PushMessage};
use crate::partial_list::PartialList;
use crate::peer_set::PeerSet;
use crate::query::QueryAnswer;
use crate::select::select_ascending;
use crate::store::{DeltaAnswer, ReplicaStore};
use crate::update::Update;
use crate::value::Value;
use crate::version::Lineage;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use rumor_net::{EffectSink, Node};
use rumor_types::{DataKey, PeerId, Round, UpdateId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Timer tag used by the lazy pull strategy.
const TAG_LAZY_PULL: u64 = 1;
/// Timer tag used by pull retries (§4.3's repeated attempts).
const TAG_PULL_RETRY: u64 = 2;

/// Locally collected protocol statistics (all monotone counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeerStats {
    /// First copies of updates received by push.
    pub pushes_received: u64,
    /// Duplicate push copies received (§6's tuning signal).
    pub duplicates_received: u64,
    /// Forwarding decisions in which the `PF(t)` coin fired.
    pub pushes_forwarded: u64,
    /// Forwarding decisions suppressed by the `PF(t)` coin.
    pub forwards_suppressed: u64,
    /// Push messages sent (to targets, `R_p \ R_f`).
    pub push_messages_sent: u64,
    /// Push targets skipped because the partial list covered them.
    pub targets_suppressed_by_list: u64,
    /// Acks sent.
    pub acks_sent: u64,
    /// Acks received.
    pub acks_received: u64,
    /// Pulls initiated.
    pub pulls_initiated: u64,
    /// Pull requests served.
    pub pull_requests_received: u64,
    /// Pull responses received.
    pub pull_responses_received: u64,
    /// Updates that changed the store, arriving via push.
    pub updates_via_push: u64,
    /// Updates that changed the store, arriving via pull.
    pub updates_via_pull: u64,
    /// Previously unknown replicas learned from flood lists/senders.
    pub replicas_discovered: u64,
    /// Wire-v2 pulls served with nothing: the requester named this
    /// replica's current state.
    pub delta_in_sync: u64,
    /// Wire-v2 pulls served from the apply history (the keys touched
    /// since the state the requester named).
    pub delta_suffix: u64,
    /// Wire-v2 pulls served with the whole frontier: the named state was
    /// not in the history.
    pub delta_full: u64,
    /// The deepest history hit so far, in applies (not a counter: a
    /// high-water mark, so folding replicas takes the maximum). What the
    /// store's ring length is checked against.
    pub delta_max_depth: u64,
}

#[derive(Debug, Clone, Default)]
struct ProcessedState {
    duplicates: u32,
    acks_sent: u32,
    acks_received: u32,
}

/// A replica of one logical data partition, running the paper's hybrid
/// push/pull update protocol as a sans-IO state machine.
///
/// Drive it through [`rumor_net::Node`] (engines) or call the inherent
/// methods directly (tests, custom transports). See the crate docs for an
/// end-to-end example.
#[derive(Debug)]
pub struct ReplicaPeer {
    id: PeerId,
    config: ProtocolConfig,
    store: ReplicaStore,
    /// The replica list plus this peer's own id — the one copy of what
    /// the peer knows. Target selection and its random stream run over
    /// the set's ascending order, own id skipped; "nothing to learn from
    /// this peer" is one bit test, from a whole flood list a word-wise
    /// compare.
    familiar: PeerSet,
    processed: BTreeMap<UpdateId, ProcessedState>,
    /// Peers that acked recently: preferred targets (round of last ack).
    acked_by: BTreeMap<PeerId, Round>,
    /// Peers pushed to that have not acked: avoided until cool-off.
    awaiting_ack: BTreeMap<PeerId, Round>,
    last_info_round: Option<Round>,
    confident: bool,
    online: bool,
    pull_retries_left: u32,
    stats: PeerStats,
    /// Reusable selection output (push targets, pull targets).
    targets_scratch: Vec<PeerId>,
    /// Reusable selection output for the pre-filter set `R_p`.
    rp_scratch: Vec<PeerId>,
}

impl ReplicaPeer {
    /// Creates a replica with the given identity and configuration.
    ///
    /// The peer starts online, confident, with an empty store and no
    /// known replicas; populate knowledge with
    /// [`ReplicaPeer::learn_replicas`].
    pub fn new(id: PeerId, config: ProtocolConfig) -> Self {
        let mut familiar = PeerSet::default();
        familiar.insert(id);
        Self {
            id,
            config,
            store: ReplicaStore::new(),
            familiar,
            processed: BTreeMap::new(),
            acked_by: BTreeMap::new(),
            awaiting_ack: BTreeMap::new(),
            last_info_round: None,
            confident: true,
            online: true,
            pull_retries_left: 0,
            stats: PeerStats::default(),
            targets_scratch: Vec::new(),
            rp_scratch: Vec::new(),
        }
    }

    /// Adds replicas to this peer's local knowledge (replica list).
    /// Returns how many were previously unknown.
    pub fn learn_replicas(&mut self, peers: impl IntoIterator<Item = PeerId>) -> usize {
        let familiar = &mut self.familiar;
        let new = peers.into_iter().filter(|&p| familiar.insert(p)).count();
        self.stats.replicas_discovered += new as u64;
        new
    }

    /// [`ReplicaPeer::learn_replicas`] over a flood list, as one word-wise
    /// union with the list's member set: linear in the words of both,
    /// whatever order the list names its peers in. A list naming only
    /// familiar peers — nearly every one once membership has spread — is
    /// dismissed without walking its entries.
    fn learn_flood_list(&mut self, list: &PartialList) {
        if !list.members().is_subset(&self.familiar) {
            let new = self.familiar.union_with(list.members());
            self.stats.replicas_discovered += new as u64;
        }
    }

    /// The replica's identity.
    pub const fn peer_id(&self) -> PeerId {
        self.id
    }

    /// The local data store.
    pub const fn store(&self) -> &ReplicaStore {
        &self.store
    }

    /// The replicas this peer currently knows, in ascending id order.
    pub fn known_replicas(&self) -> impl Iterator<Item = PeerId> + '_ {
        let own = self.id;
        self.familiar.iter().filter(move |&p| p != own)
    }

    /// How many replicas this peer currently knows.
    pub fn known_count(&self) -> usize {
        // The peer's own id is a member from construction.
        self.familiar.len() - 1
    }

    /// Whether this peer has processed (seen) the given update event.
    pub fn has_processed(&self, id: UpdateId) -> bool {
        self.processed.contains_key(&id)
    }

    /// Duplicate copies received for an update.
    pub fn duplicates_of(&self, id: UpdateId) -> u32 {
        self.processed.get(&id).map_or(0, |s| s.duplicates)
    }

    /// Local statistics.
    pub const fn stats(&self) -> &PeerStats {
        &self.stats
    }

    /// Whether the peer believes it is in sync (§3's `not_confident`
    /// gate, inverted).
    pub const fn is_confident(&self) -> bool {
        self.confident
    }

    /// The protocol configuration in force.
    pub const fn config(&self) -> &ProtocolConfig {
        &self.config
    }

    /// Marks the peer's initial availability. Simulators call this once
    /// before the first round for peers that start offline (the engines
    /// only report *transitions*).
    pub fn set_initially_offline(&mut self) {
        self.online = false;
        self.confident = false;
    }

    /// Initiates a new update: stores it locally and writes the round-0
    /// push effects into `out` (§4.2 "Round 0": the initiator sends `U`
    /// to an `f_r` fraction of replicas; no `PF` coin is flipped for the
    /// initiator).
    ///
    /// `value = None` initiates a deletion (tombstone).
    pub fn initiate_update(
        &mut self,
        key: DataKey,
        value: Option<Value>,
        round: Round,
        rng: &mut ChaCha8Rng,
        out: &mut EffectSink<Message>,
    ) -> Update {
        let lineage = match self.store.latest(key) {
            Some(existing) => existing.lineage().child(rng),
            None => Lineage::root(rng),
        };
        let update = match value {
            Some(v) => Update::write(key, lineage, v, self.id),
            None => Update::tombstone(key, lineage, self.id),
        };
        self.store.apply(&update);
        self.processed
            .insert(update.id(), ProcessedState::default());
        self.note_info(round);

        let mut targets = std::mem::take(&mut self.targets_scratch);
        self.select_known(self.config.push_targets(), round, rng, &mut targets);
        let mut flood_list = PartialList::from_peers([self.id]);
        flood_list.extend(targets.iter().copied());
        flood_list.truncate(&self.config.truncation, self.config.total_replicas, rng);

        self.send_pushes(&update, 1, &flood_list, &targets, round, out);
        targets.clear();
        self.targets_scratch = targets;
        update
    }

    /// Explicitly enters the pull phase: sends `PullRequest`s to up to
    /// `pull.fanout` known replicas and, when retries are configured,
    /// arms a retry timer so that attempts repeat until a response
    /// arrives (§4.3's `k` attempts).
    pub fn pull_with_retries(
        &mut self,
        round: Round,
        rng: &mut ChaCha8Rng,
        out: &mut EffectSink<Message>,
    ) {
        self.pull_retries_left = self.config.pull.max_retries;
        let before = out.len();
        self.trigger_pull(round, rng, out);
        if self.config.pull.retry_rounds > 0 && out.len() > before {
            out.timer(u64::from(self.config.pull.retry_rounds), TAG_PULL_RETRY);
        }
    }

    /// Explicitly enters the pull phase: sends `PullRequest`s to up to
    /// `pull.fanout` known replicas.
    pub fn trigger_pull(
        &mut self,
        round: Round,
        rng: &mut ChaCha8Rng,
        out: &mut EffectSink<Message>,
    ) {
        if self.known_count() == 0 {
            return;
        }
        self.stats.pulls_initiated += 1;
        let mut targets = std::mem::take(&mut self.targets_scratch);
        self.select_known(self.config.pull.fanout, round, rng, &mut targets);
        for &to in &targets {
            let request = if self.config.pull.delta {
                // Wire v2 names this replica's state by its digest
                // fingerprint: 8 bytes whatever the store holds, and
                // nothing to remember per responder.
                Message::PullSince {
                    since: self.store.fingerprint(),
                }
            } else {
                // Every target shares the store's one digest allocation.
                Message::PullRequest {
                    digest: self.store.digest(),
                }
            };
            out.send(to, request);
        }
        targets.clear();
        self.targets_scratch = targets;
    }

    /// Answers a query from local state (§4.4). The sim layer combines
    /// answers from several replicas with a
    /// [`QueryPolicy`](crate::QueryPolicy).
    pub fn answer_query(&self, key: DataKey) -> QueryAnswer {
        match self.store.latest(key) {
            Some(v) => QueryAnswer {
                key,
                lineage: Some(v.lineage().clone()),
                value: v.value().cloned(),
                confident: self.confident,
            },
            None => QueryAnswer::unknown(key, self.confident),
        }
    }

    fn note_info(&mut self, round: Round) {
        self.last_info_round = Some(round);
        self.confident = true;
    }

    /// Selects up to `count` of the known replicas into `out` under the
    /// ack heuristic (§6): peers that acked within the cool-off are
    /// preferred, peers pushed to in an earlier round of it that have not
    /// acked are avoided. With acks disabled nobody is either and the
    /// selection is uniform.
    fn select_known(
        &self,
        count: usize,
        round: Round,
        rng: &mut ChaCha8Rng,
        out: &mut Vec<PeerId>,
    ) {
        let biased = !matches!(self.config.ack, AckPolicy::None);
        let cool = self.config.ack_cooloff_rounds;
        let preferred = self
            .acked_by
            .iter()
            .filter(move |&(_, &acked)| biased && round - acked <= cool)
            .map(|(&p, _)| p);
        let avoided = self
            .awaiting_ack
            .iter()
            .filter(move |&(_, &sent)| biased && round - sent <= cool && round > sent)
            .map(|(&p, _)| p);
        select_ascending(self.known_replicas(), count, preferred, avoided, rng, out);
    }

    fn send_pushes(
        &mut self,
        update: &Update,
        push_round: u32,
        flood_list: &PartialList,
        targets: &[PeerId],
        round: Round,
        out: &mut EffectSink<Message>,
    ) {
        for &to in targets {
            if self.config.ack.limit() > 0 {
                self.awaiting_ack.entry(to).or_insert(round);
            }
            out.send(
                to,
                Message::Push(PushMessage {
                    update: update.clone(),
                    push_round,
                    // Every target shares the list's one allocation.
                    flood_list: flood_list.clone(),
                }),
            );
        }
        self.stats.push_messages_sent += targets.len() as u64;
    }

    fn handle_push(
        &mut self,
        from: PeerId,
        push: PushMessage,
        round: Round,
        rng: &mut ChaCha8Rng,
        out: &mut EffectSink<Message>,
    ) {
        let PushMessage {
            update,
            push_round,
            flood_list: mut list,
        } = push;
        // Learn replicas from the sender and the flood list (name-dropper
        // side channel, §1: "possibly discovers replicas unknown to her").
        // This is all a copy's list is used for beyond the first copy's
        // forwarding decision: an update is forwarded once (§3), so
        // nothing is kept per update.
        self.learn_flood_list(&list);
        self.learn_replicas([from]);

        let uid = update.id();
        let limit = self.config.ack.limit();

        if let Some(state) = self.processed.get_mut(&uid) {
            state.duplicates += 1;
            self.stats.duplicates_received += 1;
            // Ack duplicates only while the policy's budget allows; the
            // paper's FirstK policy counts distinct senders.
            if state.acks_sent < limit {
                state.acks_sent += 1;
                self.stats.acks_sent += 1;
                out.send(from, Message::Ack { update_id: uid });
            }
            return;
        }

        // First copy.
        self.stats.pushes_received += 1;
        self.note_info(round);
        if self.store.apply(&update).changed() {
            self.stats.updates_via_push += 1;
        }
        let mut state = ProcessedState::default();
        if limit > 0 {
            state.acks_sent = 1;
            self.stats.acks_sent += 1;
            out.send(from, Message::Ack { update_id: uid });
        }

        // Forwarding decision: one PF(t) coin per update (paper §3
        // pseudocode flips once, then pushes to R_p \ R_f).
        let signals = TuningSignals {
            duplicates: state.duplicates,
            list_coverage: list.normalized_len(self.config.total_replicas),
            acks: state.acks_received,
        };
        self.processed.insert(uid, state);
        let pf = self.config.forward.probability(push_round, &signals);
        let forward = pf > 0.0 && (pf >= 1.0 || rng.gen_bool(pf));
        if forward {
            self.stats.pushes_forwarded += 1;
            let mut r_p = std::mem::take(&mut self.rp_scratch);
            self.select_known(self.config.push_targets(), round, rng, &mut r_p);
            let mut targets = std::mem::take(&mut self.targets_scratch);
            targets.clear();
            targets.extend(
                r_p.iter()
                    .copied()
                    .filter(|&p| p != from && !list.contains(p)),
            );
            self.stats.targets_suppressed_by_list += (r_p.len() - targets.len()) as u64;
            list.extend(r_p.iter().copied());
            list.insert(self.id);
            list.truncate(&self.config.truncation, self.config.total_replicas, rng);
            self.send_pushes(&update, push_round + 1, &list, &targets, round, out);
            targets.clear();
            self.targets_scratch = targets;
            r_p.clear();
            self.rp_scratch = r_p;
        } else {
            self.stats.forwards_suppressed += 1;
        }
    }

    fn handle_pull_request(
        &mut self,
        from: PeerId,
        digest: &StoreDigest,
        round: Round,
        rng: &mut ChaCha8Rng,
        out: &mut EffectSink<Message>,
    ) {
        self.stats.pull_requests_received += 1;
        self.learn_replicas([from]);
        let updates = self.store.missing_updates_for(digest);
        out.send(from, Message::PullResponse { updates });
        // §3: "receives a pull request, but is not sure to have the latest
        // update" — an unconfident pulled party itself enters the pull
        // phase.
        if !self.confident {
            self.trigger_pull(round, rng, out);
        }
    }

    fn handle_pull_response(&mut self, from: PeerId, updates: &[Update], round: Round) {
        self.stats.pull_responses_received += 1;
        self.learn_replicas([from]);
        let changed = self.store.merge_updates(updates);
        self.stats.updates_via_pull += changed as u64;
        // Updates learned by pull are "processed": a later push copy is a
        // duplicate and must not restart the flood.
        for u in updates {
            self.processed.entry(u.id()).or_default();
        }
        // Any response — even an empty one — is evidence of being in sync.
        self.note_info(round);
    }

    /// Serves a wire-v2 delta pull: answers what the store's history
    /// says the named state lacks (see [`ReplicaStore::delta_for`]).
    /// Mirrors [`ReplicaPeer::handle_pull_request`] including the §3
    /// unconfident self-pull — and like it draws no randomness, so delta
    /// and full-digest pulls stay trajectory-equivalent on identical seeds.
    fn handle_pull_since(
        &mut self,
        from: PeerId,
        since: u64,
        round: Round,
        rng: &mut ChaCha8Rng,
        out: &mut EffectSink<Message>,
    ) {
        self.stats.pull_requests_received += 1;
        self.learn_replicas([from]);
        let (answer, updates) = self.store.delta_for(since);
        match answer {
            DeltaAnswer::InSync => self.stats.delta_in_sync += 1,
            DeltaAnswer::Suffix { depth } => {
                self.stats.delta_suffix += 1;
                self.stats.delta_max_depth = self.stats.delta_max_depth.max(depth as u64);
            }
            DeltaAnswer::Full => self.stats.delta_full += 1,
        }
        let upto = self.store.fingerprint();
        out.send(from, Message::DeltaResponse { upto, updates });
        if !self.confident {
            self.trigger_pull(round, rng, out);
        }
    }

    fn handle_ack(&mut self, from: PeerId, update_id: UpdateId, round: Round) {
        self.stats.acks_received += 1;
        self.acked_by.insert(from, round);
        self.awaiting_ack.remove(&from);
        if let Some(state) = self.processed.get_mut(&update_id) {
            state.acks_received += 1;
        }
    }
}

impl Node for ReplicaPeer {
    type Msg = Message;

    fn id(&self) -> PeerId {
        self.id
    }

    fn on_message(
        &mut self,
        from: PeerId,
        msg: Message,
        round: Round,
        rng: &mut ChaCha8Rng,
        out: &mut EffectSink<Message>,
    ) {
        match msg {
            Message::Push(push) => self.handle_push(from, push, round, rng, out),
            Message::PullRequest { digest } => {
                self.handle_pull_request(from, &digest, round, rng, out);
            }
            Message::Ack { update_id } => self.handle_ack(from, update_id, round),
            Message::PullSince { since } => self.handle_pull_since(from, since, round, rng, out),
            // `upto` is not a cursor: the next pull names this replica's
            // own state again, so nothing a responder says is remembered.
            Message::PullResponse { updates } | Message::DeltaResponse { updates, .. } => {
                self.handle_pull_response(from, &updates, round);
            }
        }
    }

    fn on_round_start(
        &mut self,
        round: Round,
        rng: &mut ChaCha8Rng,
        out: &mut EffectSink<Message>,
    ) {
        // `no_updates_since(t)` trigger (§3).
        if let Some(staleness) = self.config.pull.staleness_rounds {
            let stale = match self.last_info_round {
                Some(last) => round - last >= staleness,
                None => round.as_u32() >= staleness,
            };
            if stale {
                // Reset the clock so the pull is not re-fired every round
                // while responses are in flight.
                self.last_info_round = Some(round);
                self.confident = false;
                self.trigger_pull(round, rng, out);
            }
        }
    }

    fn on_status_change(
        &mut self,
        online: bool,
        round: Round,
        rng: &mut ChaCha8Rng,
        out: &mut EffectSink<Message>,
    ) {
        self.online = online;
        if !online {
            return;
        }
        // `online_again` trigger (§3): the peer cannot know what it
        // missed, so it is unconfident until a pull round-trips.
        self.confident = false;
        match self.config.pull.strategy {
            PullStrategy::Eager => self.pull_with_retries(round, rng, out),
            PullStrategy::Lazy { patience } => {
                out.timer(u64::from(patience.max(1)), TAG_LAZY_PULL);
            }
            PullStrategy::OnDemand => {}
        }
    }

    fn on_timer(
        &mut self,
        tag: u64,
        round: Round,
        rng: &mut ChaCha8Rng,
        out: &mut EffectSink<Message>,
    ) {
        match tag {
            TAG_LAZY_PULL if !self.confident => {
                // §6: the lazy peer waited for a push; none arrived, pull.
                self.pull_with_retries(round, rng, out);
            }
            TAG_PULL_RETRY if !self.confident && self.pull_retries_left > 0 => {
                self.pull_retries_left -= 1;
                let before = out.len();
                self.trigger_pull(round, rng, out);
                if self.pull_retries_left > 0 && out.len() > before {
                    out.timer(u64::from(self.config.pull.retry_rounds), TAG_PULL_RETRY);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AckPolicy, ProtocolConfig, PullStrategy};
    use crate::digest::StoreDigest;
    use crate::forward::ForwardPolicy;
    use rand::SeedableRng;
    use rumor_net::Effect;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(9)
    }

    fn sink() -> EffectSink<Message> {
        EffectSink::new()
    }

    fn peer_with(n: usize, f_r: f64) -> ReplicaPeer {
        let config = ProtocolConfig::builder(n)
            .fanout_fraction(f_r)
            .build()
            .unwrap();
        let mut p = ReplicaPeer::new(PeerId::new(0), config);
        p.learn_replicas((1..n as u32).map(PeerId::new));
        p
    }

    fn push_msg(update: &Update, t: u32, list: impl IntoIterator<Item = u32>) -> Message {
        Message::Push(PushMessage {
            update: update.clone(),
            push_round: t,
            flood_list: PartialList::from_peers(list.into_iter().map(PeerId::new)),
        })
    }

    #[test]
    fn initiator_pushes_fanout_targets() {
        let mut p = peer_with(100, 0.05);
        let mut effects = sink();
        let update = p.initiate_update(
            DataKey::new(1),
            Some(Value::from("x")),
            Round::ZERO,
            &mut rng(),
            &mut effects,
        );
        assert_eq!(effects.len(), 5);
        assert!(p.has_processed(update.id()));
        assert_eq!(p.stats().push_messages_sent, 5);
        // All effects are pushes with t = 1 and a flood list containing
        // the initiator and the targets.
        for e in effects.as_slice() {
            let Effect::Send {
                msg: Message::Push(push),
                ..
            } = e
            else {
                panic!("expected a push send, got {e:?}");
            };
            assert_eq!(push.push_round, 1);
            assert_eq!(push.flood_list.len(), 6);
            assert!(push.flood_list.contains(PeerId::new(0)));
        }
    }

    #[test]
    fn initiate_on_existing_key_extends_lineage() {
        let mut p = peer_with(10, 0.2);
        let mut r = rng();
        let mut out = sink();
        let u1 = p.initiate_update(
            DataKey::new(1),
            Some(Value::from("a")),
            Round::ZERO,
            &mut r,
            &mut out,
        );
        let u2 = p.initiate_update(
            DataKey::new(1),
            Some(Value::from("b")),
            Round::ZERO,
            &mut r,
            &mut out,
        );
        assert!(u2.lineage().covers(u1.lineage()));
        assert_eq!(p.store().versions(DataKey::new(1)).len(), 1);
    }

    #[test]
    fn first_push_is_applied_and_forwarded() {
        let mut p = peer_with(100, 0.05);
        let mut r = rng();
        let update = Update::write(
            DataKey::new(9),
            Lineage::root(&mut r),
            Value::from("v"),
            PeerId::new(7),
        );
        let mut effects = sink();
        p.on_message(
            PeerId::new(7),
            push_msg(&update, 1, [7]),
            Round::new(1),
            &mut r,
            &mut effects,
        );
        assert!(p.has_processed(update.id()));
        assert_eq!(p.store().get(DataKey::new(9)).unwrap().as_bytes(), b"v");
        assert!(!effects.is_empty(), "PF=Always must forward");
        for e in effects.as_slice() {
            let Effect::Send {
                to,
                msg: Message::Push(push),
            } = e
            else {
                panic!("unexpected effect {e:?}");
            };
            assert_ne!(*to, PeerId::new(7), "never forward back to the sender");
            assert_eq!(push.push_round, 2, "hop counter incremented");
        }
        assert_eq!(p.stats().pushes_received, 1);
        assert_eq!(p.stats().pushes_forwarded, 1);
    }

    #[test]
    fn duplicate_push_is_not_reforwarded() {
        let mut p = peer_with(100, 0.05);
        let mut r = rng();
        let update = Update::write(
            DataKey::new(9),
            Lineage::root(&mut r),
            Value::from("v"),
            PeerId::new(7),
        );
        let mut out = sink();
        p.on_message(
            PeerId::new(7),
            push_msg(&update, 1, [7]),
            Round::new(1),
            &mut r,
            &mut out,
        );
        let mut effects = sink();
        p.on_message(
            PeerId::new(8),
            push_msg(&update, 1, [8]),
            Round::new(1),
            &mut r,
            &mut effects,
        );
        assert!(
            effects.is_empty(),
            "duplicates produce no forwards without acks"
        );
        assert_eq!(p.stats().duplicates_received, 1);
        assert_eq!(p.duplicates_of(update.id()), 1);
    }

    #[test]
    fn duplicate_push_still_teaches_its_list_and_acks_within_the_first_k_budget() {
        let config = ProtocolConfig::builder(100)
            .ack(AckPolicy::FirstK(2))
            .build()
            .unwrap();
        let mut p = ReplicaPeer::new(PeerId::new(0), config);
        p.learn_replicas((1..10).map(PeerId::new));
        let mut r = rng();
        let update = Update::write(
            DataKey::new(9),
            Lineage::root(&mut r),
            Value::from("v"),
            PeerId::new(7),
        );
        let mut out = sink();
        p.on_message(
            PeerId::new(7),
            push_msg(&update, 1, [7]),
            Round::new(1),
            &mut r,
            &mut out,
        );
        let is_ack = |e: &Effect<Message>| {
            matches!(
                e,
                Effect::Send {
                    msg: Message::Ack { .. },
                    ..
                }
            )
        };
        assert_eq!(out.iter().filter(|e| is_ack(e)).count(), 1, "first copy");

        // Second copy: unseen ids in the list and an unseen sender.
        let mut dup = sink();
        p.on_message(
            PeerId::new(50),
            push_msg(&update, 2, [7, 60, 0, 61]),
            Round::new(2),
            &mut r,
            &mut dup,
        );
        for id in [50, 60, 61] {
            assert!(
                p.known_replicas().any(|k| k == PeerId::new(id)),
                "learned {id}"
            );
        }
        assert_eq!(p.stats().replicas_discovered, 9 + 3);
        assert!(
            matches!(dup[..], [Effect::Send { to, msg: Message::Ack { update_id } }]
                if to == PeerId::new(50) && update_id == update.id()),
            "second sender is acked and nothing is forwarded: {dup:?}"
        );

        // Third copy: the budget of two acks is spent.
        dup.clear();
        p.on_message(
            PeerId::new(51),
            push_msg(&update, 2, [62]),
            Round::new(2),
            &mut r,
            &mut dup,
        );
        assert!(dup.is_empty(), "FirstK(2) budget spent: {dup:?}");
        assert!(p.known_replicas().any(|k| k == PeerId::new(62)));
        assert_eq!(p.stats().acks_sent, 2);
        assert_eq!(p.duplicates_of(update.id()), 2);
    }

    #[test]
    fn two_hundred_duplicates_store_nothing_per_copy() {
        let config = ProtocolConfig::builder(1_000)
            .fanout_absolute(4)
            .ack(AckPolicy::FirstK(3))
            .build()
            .unwrap();
        let mut p = ReplicaPeer::new(PeerId::new(0), config);
        p.learn_replicas((1..50).map(PeerId::new));
        let mut r = rng();
        let update = Update::write(
            DataKey::new(9),
            Lineage::root(&mut r),
            Value::from("v"),
            PeerId::new(7),
        );
        let mut out = sink();
        p.on_message(
            PeerId::new(7),
            push_msg(&update, 1, [7, 3]),
            Round::new(1),
            &mut r,
            &mut out,
        );
        let after_first = *p.stats();

        // The reference: what 200 more copies may change is the duplicate
        // and ack counters and the replicas their lists and senders name.
        let mut expected_known: std::collections::BTreeSet<PeerId> = p.known_replicas().collect();
        let mut acks = 0;
        for i in 0..200u32 {
            let sender = 100 + i;
            let list = [sender, 0, 7, 400 + i % 16, 40 + i % 20];
            expected_known.extend(list.into_iter().map(PeerId::new));
            out.clear();
            p.on_message(
                PeerId::new(sender),
                push_msg(&update, 2 + i % 3, list),
                Round::new(2),
                &mut r,
                &mut out,
            );
            for e in out.as_slice() {
                assert!(
                    matches!(e, Effect::Send { to, msg: Message::Ack { .. } }
                        if *to == PeerId::new(sender)),
                    "a duplicate may only ack its sender: {e:?}"
                );
                acks += 1;
            }
        }
        expected_known.remove(&PeerId::new(0));
        assert_eq!(acks, 2, "FirstK(3): the first copy took one of three");

        let known: Vec<_> = expected_known.into_iter().collect();
        assert_eq!(p.known_replicas().collect::<Vec<_>>(), known);
        assert_eq!(p.processed.len(), 1);
        let state = &p.processed[&update.id()];
        assert_eq!(
            (state.duplicates, state.acks_sent, state.acks_received),
            (200, 3, 0)
        );
        assert_eq!(
            *p.stats(),
            PeerStats {
                duplicates_received: 200,
                acks_sent: 3,
                replicas_discovered: known.len() as u64,
                ..after_first
            }
        );
    }

    #[test]
    fn learning_the_largest_peer_id_costs_one_index_word() {
        let mut p = peer_with(100, 0.05);
        let before = p.familiar.word_count();
        assert_eq!(before, 100usize.div_ceil(64));
        assert_eq!(p.learn_replicas([PeerId::new(u32::MAX)]), 1);
        assert_eq!(p.familiar.word_count(), before + 1);
        // Through a flood list too, and a covered list teaches nothing.
        let mut r = rng();
        let update = Update::write(
            DataKey::new(9),
            Lineage::root(&mut r),
            Value::from("v"),
            PeerId::new(7),
        );
        let mut out = sink();
        p.on_message(
            PeerId::new(7),
            push_msg(&update, 1, [7, u32::MAX - 64, u32::MAX]),
            Round::new(1),
            &mut r,
            &mut out,
        );
        assert_eq!(p.familiar.word_count(), before + 2);
        assert_eq!(p.known_count(), 99 + 2);
        assert_eq!(p.stats().replicas_discovered, 99 + 2);
    }

    #[test]
    fn flood_list_suppresses_targets() {
        // Peer knows only peers 1..10; flood list already covers them all
        // => nothing left to push to.
        let config = ProtocolConfig::builder(10)
            .fanout_fraction(1.0)
            .build()
            .unwrap();
        let mut p = ReplicaPeer::new(PeerId::new(0), config);
        p.learn_replicas((1..10).map(PeerId::new));
        let mut r = rng();
        let update = Update::write(
            DataKey::new(1),
            Lineage::root(&mut r),
            Value::from("v"),
            PeerId::new(1),
        );
        let mut effects = sink();
        p.on_message(
            PeerId::new(1),
            push_msg(&update, 1, 0..10),
            Round::new(1),
            &mut r,
            &mut effects,
        );
        assert!(effects.is_empty());
        assert!(p.stats().targets_suppressed_by_list >= 8);
    }

    #[test]
    fn pf_zero_never_forwards() {
        let config = ProtocolConfig::builder(100)
            .forward(ForwardPolicy::Constant { p: 0.0 })
            .build()
            .unwrap();
        let mut p = ReplicaPeer::new(PeerId::new(0), config);
        p.learn_replicas((1..100).map(PeerId::new));
        let mut r = rng();
        let update = Update::write(
            DataKey::new(1),
            Lineage::root(&mut r),
            Value::from("v"),
            PeerId::new(1),
        );
        let mut effects = sink();
        p.on_message(
            PeerId::new(1),
            push_msg(&update, 1, [1]),
            Round::new(1),
            &mut r,
            &mut effects,
        );
        assert!(effects.is_empty());
        assert_eq!(p.stats().forwards_suppressed, 1);
        assert!(
            p.store().get(DataKey::new(1)).is_some(),
            "update applied even when not forwarded"
        );
    }

    #[test]
    fn ack_policy_first_sender() {
        let config = ProtocolConfig::builder(100)
            .ack(AckPolicy::FirstK(1))
            .build()
            .unwrap();
        let mut p = ReplicaPeer::new(PeerId::new(0), config);
        p.learn_replicas((1..100).map(PeerId::new));
        let mut r = rng();
        let update = Update::write(
            DataKey::new(1),
            Lineage::root(&mut r),
            Value::from("v"),
            PeerId::new(1),
        );
        let mut first = sink();
        p.on_message(
            PeerId::new(1),
            push_msg(&update, 1, [1]),
            Round::new(1),
            &mut r,
            &mut first,
        );
        let acks: Vec<_> = first
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Effect::Send {
                        msg: Message::Ack { .. },
                        ..
                    }
                )
            })
            .collect();
        assert_eq!(acks.len(), 1, "first sender is acked");
        let mut dup = sink();
        p.on_message(
            PeerId::new(2),
            push_msg(&update, 1, [2]),
            Round::new(1),
            &mut r,
            &mut dup,
        );
        assert!(
            dup.iter().all(|e| !matches!(
                e,
                Effect::Send {
                    msg: Message::Ack { .. },
                    ..
                }
            )),
            "second sender is not acked under FirstK(1)"
        );
        assert_eq!(p.stats().acks_sent, 1);
    }

    #[test]
    fn ack_reception_updates_preferences() {
        let config = ProtocolConfig::builder(100)
            .ack(AckPolicy::FirstK(1))
            .build()
            .unwrap();
        let mut p = ReplicaPeer::new(PeerId::new(0), config);
        p.learn_replicas((1..100).map(PeerId::new));
        let mut r = rng();
        let mut out = sink();
        let update = p.initiate_update(
            DataKey::new(1),
            Some(Value::from("x")),
            Round::ZERO,
            &mut r,
            &mut out,
        );
        assert!(!p.awaiting_ack.is_empty(), "targets awaiting ack recorded");
        let some_target = *p.awaiting_ack.keys().next().unwrap();
        out.clear();
        p.on_message(
            some_target,
            Message::Ack {
                update_id: update.id(),
            },
            Round::new(1),
            &mut r,
            &mut out,
        );
        assert_eq!(p.stats().acks_received, 1);
        assert!(p.acked_by.contains_key(&some_target));
        assert!(!p.awaiting_ack.contains_key(&some_target));
    }

    #[test]
    fn pull_roundtrip_reconciles() {
        let mut r = rng();
        let mut source = peer_with(10, 0.2);
        let mut out = sink();
        let update = source.initiate_update(
            DataKey::new(5),
            Some(Value::from("data")),
            Round::ZERO,
            &mut r,
            &mut out,
        );

        let config = ProtocolConfig::builder(10).build().unwrap();
        let mut fresh = ReplicaPeer::new(PeerId::new(9), config);
        fresh.learn_replicas([PeerId::new(0)]);

        // Fresh peer comes online => eager pull (plus a retry timer).
        let mut pulls = sink();
        fresh.on_status_change(true, Round::new(3), &mut r, &mut pulls);
        assert!(!fresh.is_confident());
        let requests: Vec<_> = pulls
            .iter()
            .filter_map(|e| match e {
                Effect::Send {
                    msg: Message::PullRequest { digest },
                    ..
                } => Some(digest),
                _ => None,
            })
            .collect();
        assert_eq!(requests.len(), 1);
        assert!(
            pulls.iter().any(|e| matches!(e, Effect::Timer { .. })),
            "eager pull arms a retry timer"
        );
        let digest = requests[0];

        // Source answers with the missing update.
        let mut responses = sink();
        source.on_message(
            PeerId::new(9),
            Message::PullRequest {
                digest: digest.clone(),
            },
            Round::new(3),
            &mut r,
            &mut responses,
        );
        let Effect::Send {
            msg: Message::PullResponse { updates },
            ..
        } = &responses[0]
        else {
            panic!("expected pull response");
        };
        assert_eq!(updates.len(), 1);

        // Fresh peer ingests it.
        let mut ignored = sink();
        fresh.on_message(
            PeerId::new(0),
            Message::PullResponse {
                updates: updates.clone(),
            },
            Round::new(4),
            &mut r,
            &mut ignored,
        );
        assert!(fresh.is_confident());
        assert_eq!(
            fresh.store().get(DataKey::new(5)).unwrap().as_bytes(),
            b"data"
        );
        assert!(
            fresh.has_processed(update.id()),
            "pulled updates are marked processed"
        );
        assert_eq!(fresh.stats().updates_via_pull, 1);
    }

    fn delta_peer(id: u32, known: impl IntoIterator<Item = u32>) -> ReplicaPeer {
        let config = ProtocolConfig::builder(10)
            .fanout_fraction(0.2)
            .delta_pulls(true)
            .build()
            .unwrap();
        let mut p = ReplicaPeer::new(PeerId::new(id), config);
        p.learn_replicas(known.into_iter().map(PeerId::new));
        p
    }

    fn write_at(p: &mut ReplicaPeer, key: u64, r: &mut ChaCha8Rng) {
        let value = Some(Value::from("data"));
        p.initiate_update(DataKey::new(key), value, Round::ZERO, r, &mut sink());
    }

    /// One wire-v2 pull by `requester`: the request it sends `responder`,
    /// answered, the answer undelivered.
    fn delta_answer(
        requester: &mut ReplicaPeer,
        responder: &mut ReplicaPeer,
        r: &mut ChaCha8Rng,
    ) -> Message {
        let mut out = sink();
        requester.trigger_pull(Round::new(1), r, &mut out);
        let request = out.iter().find_map(|e| match e {
            Effect::Send { to, msg } if *to == responder.peer_id() => Some(msg.clone()),
            _ => None,
        });
        let msg = request.expect("the responder is among the pull targets");
        assert_eq!(
            msg,
            Message::PullSince {
                since: requester.store().fingerprint()
            },
            "a delta pull names the requester's own state, first contact included"
        );
        let mut answer = sink();
        responder.on_message(requester.peer_id(), msg, Round::new(1), r, &mut answer);
        let [Effect::Send { msg, .. }] = &answer[..] else {
            panic!("expected one answer, got {answer:?}");
        };
        assert!(matches!(msg, Message::DeltaResponse { upto, .. }
            if *upto == responder.store().fingerprint()));
        msg.clone()
    }

    fn deliver(to: &mut ReplicaPeer, from: u32, msg: &Message, r: &mut ChaCha8Rng) {
        to.on_message(
            PeerId::new(from),
            msg.clone(),
            Round::new(2),
            r,
            &mut sink(),
        );
    }

    #[test]
    fn a_lost_duplicated_or_reordered_delta_response_leaves_nothing_the_next_pull_does_not_repair()
    {
        let mut r = rng();
        let mut source = delta_peer(0, 1..9);
        let mut fresh = delta_peer(9, [0]);
        write_at(&mut source, 5, &mut r);

        // Lost: the answer never arrives, the source moves on, and the
        // next pull — naming the same state — is answered with both.
        let lost = delta_answer(&mut fresh, &mut source, &mut r);
        write_at(&mut source, 6, &mut r);
        let second = delta_answer(&mut fresh, &mut source, &mut r);
        assert_eq!(source.stats().delta_suffix, 2);
        assert_eq!(source.stats().delta_max_depth, 2);

        // Reordered and duplicated: the newer answer, then the older one
        // that was only delayed, then the newer one again.
        for answer in [&second, &lost, &second] {
            deliver(&mut fresh, 0, answer, &mut r);
            assert!(fresh.store().consistent_with(source.store()));
        }
        assert!(fresh.is_confident());
        assert_eq!(fresh.stats().updates_via_pull, 2);

        // In sync now: an empty answer. A stale answer arriving after a
        // further write changes nothing the next pull does not see.
        let empty = delta_answer(&mut fresh, &mut source, &mut r);
        assert!(matches!(&empty, Message::DeltaResponse { updates, .. } if updates.is_empty()));
        assert_eq!(source.stats().delta_in_sync, 1);
        write_at(&mut source, 5, &mut r);
        for stale in [&empty, &lost] {
            deliver(&mut fresh, 0, stale, &mut r);
        }
        assert!(!fresh.store().consistent_with(source.store()));
        let third = delta_answer(&mut fresh, &mut source, &mut r);
        assert!(matches!(&third, Message::DeltaResponse { updates, .. } if updates.len() == 1));
        deliver(&mut fresh, 0, &third, &mut r);
        assert!(fresh.store().consistent_with(source.store()));
        assert_eq!(source.stats().delta_full, 0);
    }

    #[test]
    fn a_liars_empty_answer_hides_nothing_from_the_next_honest_responder() {
        let mut r = rng();
        let mut liar = delta_peer(1, [2]);
        write_at(&mut liar, 5, &mut r);
        write_at(&mut liar, 6, &mut r);
        let mut honest = delta_peer(2, [1]);
        let replica = delta_answer(&mut honest, &mut liar, &mut r);
        deliver(&mut honest, 1, &replica, &mut r);
        assert!(honest.store().consistent_with(liar.store()));

        // The lie: "you are missing nothing", stamped with the liar's own
        // state. The victim believes it — any answer restores confidence —
        let mut victim = delta_peer(9, [1]);
        let Message::DeltaResponse { upto, updates } = delta_answer(&mut victim, &mut liar, &mut r)
        else {
            unreachable!("delta_answer returns a delta response");
        };
        assert_eq!(updates.len(), 2, "what an honest answer would carry");
        let lie = Message::DeltaResponse {
            upto,
            updates: vec![],
        };
        deliver(&mut victim, 1, &lie, &mut r);
        assert!(victim.is_confident());
        assert!(victim.store().is_empty());

        // — but stores nothing from it: its next pull names its own, still
        // empty, state, and whoever answers honestly sends everything.
        // That includes the liar itself once it stops lying.
        for (id, responder) in [(1, &mut liar), (2, &mut honest)] {
            let mut victim = delta_peer(9, [id]);
            deliver(&mut victim, 1, &lie, &mut r);
            let answer = delta_answer(&mut victim, responder, &mut r);
            deliver(&mut victim, id, &answer, &mut r);
            assert!(victim.store().consistent_with(responder.store()));
            assert_eq!(victim.stats().updates_via_pull, 2);
        }
    }

    #[test]
    fn lazy_pull_waits_for_push() {
        let config = ProtocolConfig::builder(10)
            .pull_strategy(PullStrategy::Lazy { patience: 3 })
            .build()
            .unwrap();
        let mut p = ReplicaPeer::new(PeerId::new(2), config);
        p.learn_replicas([PeerId::new(0), PeerId::new(1)]);
        let mut r = rng();

        let mut effects = sink();
        p.on_status_change(true, Round::new(5), &mut r, &mut effects);
        assert!(
            matches!(
                effects[..],
                [Effect::Timer {
                    delay: 3,
                    tag: TAG_LAZY_PULL
                }]
            ),
            "lazy strategy sets a timer instead of pulling: {effects:?}"
        );

        // A push arrives before the timer => confident, timer is a no-op.
        let update = Update::write(
            DataKey::new(1),
            Lineage::root(&mut r),
            Value::from("v"),
            PeerId::new(0),
        );
        effects.clear();
        p.on_message(
            PeerId::new(0),
            push_msg(&update, 1, [0]),
            Round::new(6),
            &mut r,
            &mut effects,
        );
        effects.clear();
        p.on_timer(TAG_LAZY_PULL, Round::new(8), &mut r, &mut effects);
        assert!(effects.is_empty());

        // Without the push, the timer pulls.
        let mut q = ReplicaPeer::new(
            PeerId::new(3),
            ProtocolConfig::builder(10)
                .pull_strategy(PullStrategy::Lazy { patience: 3 })
                .build()
                .unwrap(),
        );
        q.learn_replicas([PeerId::new(0)]);
        let mut effects = sink();
        q.on_status_change(true, Round::new(5), &mut r, &mut effects);
        effects.clear();
        q.on_timer(TAG_LAZY_PULL, Round::new(8), &mut r, &mut effects);
        assert!(
            matches!(
                effects.first(),
                Some(Effect::Send {
                    msg: Message::PullRequest { .. },
                    ..
                })
            ),
            "lazy timer with no push must pull: {effects:?}"
        );
    }

    #[test]
    fn pull_retries_until_response_or_budget() {
        let config = ProtocolConfig::builder(10)
            .pull_retry(2, 2)
            .build()
            .unwrap();
        let mut p = ReplicaPeer::new(PeerId::new(0), config);
        p.learn_replicas([PeerId::new(1), PeerId::new(2)]);
        let mut r = rng();

        // Coming online fires the first attempt and a retry timer.
        let mut first = sink();
        p.on_status_change(true, Round::new(1), &mut r, &mut first);
        assert!(first
            .iter()
            .any(|e| matches!(e, Effect::Timer { delay: 2, .. })));

        // No response arrives: the retry timer pulls again and re-arms.
        let mut retry1 = sink();
        p.on_timer(TAG_PULL_RETRY, Round::new(3), &mut r, &mut retry1);
        assert!(retry1.iter().any(|e| matches!(
            e,
            Effect::Send {
                msg: Message::PullRequest { .. },
                ..
            }
        )));
        assert!(retry1.iter().any(|e| matches!(e, Effect::Timer { .. })));

        // Second retry exhausts the budget: no further timer.
        let mut retry2 = sink();
        p.on_timer(TAG_PULL_RETRY, Round::new(5), &mut r, &mut retry2);
        assert!(retry2.iter().any(|e| matches!(
            e,
            Effect::Send {
                msg: Message::PullRequest { .. },
                ..
            }
        )));
        assert!(!retry2.iter().any(|e| matches!(e, Effect::Timer { .. })));
        let mut retry3 = sink();
        p.on_timer(TAG_PULL_RETRY, Round::new(7), &mut r, &mut retry3);
        assert!(retry3.is_empty(), "budget exhausted");
    }

    #[test]
    fn pull_retry_stops_after_response() {
        let config = ProtocolConfig::builder(10)
            .pull_retry(2, 5)
            .build()
            .unwrap();
        let mut p = ReplicaPeer::new(PeerId::new(0), config);
        p.learn_replicas([PeerId::new(1)]);
        let mut r = rng();
        let mut out = sink();
        p.on_status_change(true, Round::new(1), &mut r, &mut out);
        // A (possibly empty) pull response restores confidence.
        out.clear();
        p.on_message(
            PeerId::new(1),
            Message::PullResponse { updates: vec![] },
            Round::new(2),
            &mut r,
            &mut out,
        );
        assert!(p.is_confident());
        out.clear();
        p.on_timer(TAG_PULL_RETRY, Round::new(3), &mut r, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn staleness_triggers_periodic_pull() {
        let config = ProtocolConfig::builder(10)
            .staleness_rounds(5)
            .build()
            .unwrap();
        let mut p = ReplicaPeer::new(PeerId::new(0), config);
        p.learn_replicas([PeerId::new(1)]);
        let mut r = rng();
        let mut effects = sink();
        p.on_round_start(Round::new(3), &mut r, &mut effects);
        assert!(effects.is_empty());
        p.on_round_start(Round::new(5), &mut r, &mut effects);
        assert!(!effects.is_empty(), "stale peer pulls");
        effects.clear();
        p.on_round_start(Round::new(6), &mut r, &mut effects);
        assert!(effects.is_empty(), "clock reset");
    }

    #[test]
    fn unconfident_pulled_party_also_pulls() {
        let config = ProtocolConfig::builder(10).build().unwrap();
        let mut p = ReplicaPeer::new(PeerId::new(0), config);
        p.learn_replicas([PeerId::new(1), PeerId::new(2)]);
        let mut r = rng();
        let mut effects = sink();
        p.on_status_change(false, Round::new(1), &mut r, &mut effects);
        p.online = true;
        p.confident = false;
        effects.clear();
        p.on_message(
            PeerId::new(1),
            Message::PullRequest {
                digest: StoreDigest::new(),
            },
            Round::new(2),
            &mut r,
            &mut effects,
        );
        let responses = effects
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Effect::Send {
                        msg: Message::PullResponse { .. },
                        ..
                    }
                )
            })
            .count();
        let pulls = effects
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Effect::Send {
                        msg: Message::PullRequest { .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(responses, 1, "always answer the request");
        assert!(
            pulls >= 1,
            "unconfident pulled party enters pull phase itself"
        );
    }

    #[test]
    fn pull_with_no_known_replicas_is_silent() {
        let config = ProtocolConfig::builder(10).build().unwrap();
        let mut p = ReplicaPeer::new(PeerId::new(0), config);
        let mut out = sink();
        p.trigger_pull(Round::ZERO, &mut rng(), &mut out);
        assert!(out.is_empty());
        assert_eq!(p.stats().pulls_initiated, 0);
    }

    #[test]
    fn query_answers_reflect_store_and_confidence() {
        let mut p = peer_with(10, 0.2);
        let mut r = rng();
        let mut out = sink();
        let a = p.answer_query(DataKey::new(1));
        assert!(a.lineage.is_none());
        assert!(a.confident);
        p.initiate_update(
            DataKey::new(1),
            Some(Value::from("x")),
            Round::ZERO,
            &mut r,
            &mut out,
        );
        let a = p.answer_query(DataKey::new(1));
        assert_eq!(a.value.unwrap().as_bytes(), b"x");
        out.clear();
        p.on_status_change(true, Round::new(1), &mut r, &mut out);
        assert!(!p.answer_query(DataKey::new(1)).confident);
    }

    #[test]
    fn learn_replicas_ignores_self_and_duplicates() {
        let mut p = peer_with(10, 0.2);
        assert_eq!(p.learn_replicas([PeerId::new(0), PeerId::new(1)]), 0);
        assert_eq!(p.learn_replicas([PeerId::new(42)]), 1);
        let known: Vec<_> = p.known_replicas().collect();
        assert!(known.windows(2).all(|w| w[0] < w[1]), "sorted");
    }

    #[test]
    fn selection_is_select_targets_under_the_cool_off_filters() {
        use crate::select::select_targets;
        let cool = 3;
        for (policy, own) in [
            (AckPolicy::FirstK(2), 0),
            (AckPolicy::FirstK(1), 57),
            (AckPolicy::None, 119),
        ] {
            let config = ProtocolConfig::builder(120)
                .ack(policy)
                .ack_cooloff_rounds(cool)
                .build()
                .unwrap();
            let mut p = ReplicaPeer::new(PeerId::new(own), config);
            p.learn_replicas((0..120).map(PeerId::new));
            // Acks and pushes of rounds 0..=9, several per round; peers
            // 30..50 are in both maps, one entry names the peer itself.
            for id in (10..50).chain([own]) {
                p.acked_by.insert(PeerId::new(id), Round::new(id % 10));
            }
            for id in (30..90).chain([own]) {
                p.awaiting_ack
                    .insert(PeerId::new(id), Round::new(id * 7 % 10));
            }
            let known: Vec<_> = p.known_replicas().collect();
            assert_eq!(known.len(), 119);
            let biased = policy != AckPolicy::None;
            let mut out = Vec::new();
            // Before, inside (same-round entries included) and past every
            // entry's cool-off.
            for now in [0, 4, 9, 12, 13, 40] {
                let round = Round::new(now);
                let preferred: Vec<PeerId> = (p.acked_by.iter())
                    .filter(|(_, &r)| biased && round - r <= cool)
                    .map(|(&peer, _)| peer)
                    .collect();
                let avoided: Vec<PeerId> = (p.awaiting_ack.iter())
                    .filter(|(_, &r)| biased && round - r <= cool && round > r)
                    .map(|(&peer, _)| peer)
                    .collect();
                assert_eq!(preferred.is_empty(), !biased || now > 12, "round {now}");
                for count in [0, 1, 3, 64, 119, 500] {
                    let mut reference_rng = ChaCha8Rng::seed_from_u64(u64::from(now));
                    let reference =
                        select_targets(&known, count, &preferred, &avoided, &mut reference_rng);
                    let mut r = ChaCha8Rng::seed_from_u64(u64::from(now));
                    p.select_known(count, round, &mut r, &mut out);
                    assert_eq!(out, reference, "round {now} count {count}");
                    assert_eq!(r.gen::<u64>(), reference_rng.gen::<u64>());
                }
            }
        }
    }

    #[test]
    fn membership_is_one_bitset_and_no_buffer_follows_the_population() {
        let config = ProtocolConfig::builder(10_001)
            .fanout_absolute(8)
            .build()
            .unwrap();
        let bound = config.push_targets().max(config.pull.fanout);
        let mut p = ReplicaPeer::new(PeerId::new(0), config);
        assert_eq!(p.learn_replicas((1..=10_000).map(PeerId::new)), 10_000);
        assert_eq!(p.known_count(), 10_000);
        assert_eq!(p.familiar.word_count(), 10_001usize.div_ceil(64));

        let mut r = rng();
        let mut out = sink();
        for round in 0..100 {
            p.trigger_pull(Round::new(round), &mut r, &mut out);
        }
        let update = Update::write(
            DataKey::new(9),
            Lineage::root(&mut r),
            Value::from("v"),
            PeerId::new(7),
        );
        out.clear();
        p.on_message(
            PeerId::new(7),
            push_msg(&update, 1, [7]),
            Round::new(100),
            &mut r,
            &mut out,
        );
        assert_eq!(p.stats().pulls_initiated, 100);
        assert_eq!(p.stats().push_messages_sent, 8);
        assert!(p.targets_scratch.capacity() <= bound);
        assert!(p.rp_scratch.capacity() <= bound);

        // Learning a familiar id is a bit test: no word is opened.
        assert_eq!(p.learn_replicas([PeerId::new(0), PeerId::new(9_999)]), 0);
        assert_eq!(p.familiar.word_count(), 10_001usize.div_ceil(64));
        assert_eq!(p.stats().replicas_discovered, 10_000);
    }

    #[test]
    fn push_listing_sparse_ids_in_descending_order_discovers_exactly_them() {
        let mut p = peer_with(10, 0.2);
        let mut r = rng();
        let update = Update::write(
            DataKey::new(3),
            Lineage::root(&mut r),
            Value::from("v"),
            PeerId::new(4),
        );
        // One new word per id, highest first, behind two familiar ids.
        let sparse: Vec<u32> = (1..=2_000u32).rev().map(|i| i << 12).collect();
        let list = sparse.iter().copied().chain([5, 0]);
        let mut out = sink();
        p.on_message(
            PeerId::new(4),
            push_msg(&update, 1, list),
            Round::new(1),
            &mut r,
            &mut out,
        );
        assert_eq!(p.stats().replicas_discovered, 9 + 2_000);
        let known: Vec<u32> = p.known_replicas().map(PeerId::as_u32).collect();
        let expected: Vec<u32> = (1..10).chain(sparse.into_iter().rev()).collect();
        assert_eq!(known, expected);
    }

    #[test]
    fn set_initially_offline_clears_confidence() {
        let mut p = peer_with(10, 0.2);
        p.set_initially_offline();
        assert!(!p.is_confident());
    }
}
