//! Flooding baselines: Gnutella, pure flooding, Haas GOSSIP1(p, k).

use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use rumor_net::{EffectSink, Node};
use rumor_types::{PeerId, Round, UpdateId};
use std::collections::BTreeSet;

/// A rumor copy in flight: the rumor id, remaining TTL and hop count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FloodMsg {
    /// The rumor being flooded.
    pub rumor: UpdateId,
    /// Remaining time-to-live (decremented per forward; 0 = do not
    /// forward further). Gnutella's scalability valve.
    pub ttl: u32,
    /// Hops travelled so far (Haas' `k` threshold reads this).
    pub hops: u32,
}

fn neighbors_of(population: usize, me: u32) -> Vec<PeerId> {
    (0..population as u32)
        .filter(|&j| j != me)
        .map(PeerId::new)
        .collect()
}

/// Gnutella-style limited flooding with duplicate avoidance (§5.6): on
/// the *first* copy of a rumor, forward it to `fanout` random neighbours
/// (minus the sender) while TTL remains; duplicates are dropped.
#[derive(Debug, Clone)]
pub struct GnutellaNode {
    id: PeerId,
    neighbors: Vec<PeerId>,
    fanout: usize,
    ttl: u32,
    seen: BTreeSet<UpdateId>,
    /// Duplicate copies received (observability).
    pub duplicates: u64,
    /// Reusable forwarding pool (hot path).
    pool_scratch: Vec<PeerId>,
}

impl GnutellaNode {
    /// Creates a node with an explicit neighbour list.
    pub fn new(id: u32, neighbors: Vec<PeerId>, fanout: usize, ttl: u32) -> Self {
        Self {
            id: PeerId::new(id),
            neighbors,
            fanout,
            ttl,
            seen: BTreeSet::new(),
            duplicates: 0,
            pool_scratch: Vec::new(),
        }
    }

    /// Convenience: node `id` of `population` knowing everyone.
    pub fn fully_connected(id: u32, population: usize, fanout: usize, ttl: u32) -> Self {
        Self::new(id, neighbors_of(population, id), fanout, ttl)
    }

    /// Whether the node has seen the rumor.
    pub fn knows(&self, rumor: UpdateId) -> bool {
        self.seen.contains(&rumor)
    }

    /// Number of neighbours this node can address.
    pub fn neighbor_count(&self) -> usize {
        self.neighbors.len()
    }

    /// Seeds a rumor at this node (the initiator's broadcast), writing
    /// the resulting sends into `out`.
    pub fn seed_rumor(
        &mut self,
        rumor: UpdateId,
        rng: &mut ChaCha8Rng,
        out: &mut EffectSink<FloodMsg>,
    ) {
        self.seen.insert(rumor);
        self.forward(rumor, self.ttl, 0, None, rng, out);
    }

    fn forward(
        &mut self,
        rumor: UpdateId,
        ttl: u32,
        hops: u32,
        exclude: Option<PeerId>,
        rng: &mut ChaCha8Rng,
        out: &mut EffectSink<FloodMsg>,
    ) {
        if ttl == 0 {
            return;
        }
        let mut pool = std::mem::take(&mut self.pool_scratch);
        pool.clear();
        pool.extend(
            self.neighbors
                .iter()
                .copied()
                .filter(|&p| Some(p) != exclude),
        );
        pool.shuffle(rng);
        pool.truncate(self.fanout);
        for &to in &pool {
            out.send(
                to,
                FloodMsg {
                    rumor,
                    ttl: ttl - 1,
                    hops: hops + 1,
                },
            );
        }
        pool.clear();
        self.pool_scratch = pool;
    }
}

impl Node for GnutellaNode {
    type Msg = FloodMsg;

    fn id(&self) -> PeerId {
        self.id
    }

    fn on_message(
        &mut self,
        from: PeerId,
        msg: FloodMsg,
        _round: Round,
        rng: &mut ChaCha8Rng,
        out: &mut EffectSink<FloodMsg>,
    ) {
        if !self.seen.insert(msg.rumor) {
            self.duplicates += 1;
            return;
        }
        self.forward(msg.rumor, msg.ttl, msg.hops, Some(from), rng, out);
    }
}

/// Pure flooding *without* duplicate avoidance: every received copy is
/// re-forwarded while TTL lasts — the §5.6 worst case whose message count
/// is the geometric sum.
#[derive(Debug, Clone)]
pub struct PureFloodNode {
    inner: GnutellaNode,
}

impl PureFloodNode {
    /// Creates a node with an explicit neighbour list.
    pub fn new(id: u32, neighbors: Vec<PeerId>, fanout: usize, ttl: u32) -> Self {
        Self {
            inner: GnutellaNode::new(id, neighbors, fanout, ttl),
        }
    }

    /// Convenience: node `id` of `population` knowing everyone.
    pub fn fully_connected(id: u32, population: usize, fanout: usize, ttl: u32) -> Self {
        Self {
            inner: GnutellaNode::fully_connected(id, population, fanout, ttl),
        }
    }

    /// Whether the node has seen the rumor.
    pub fn knows(&self, rumor: UpdateId) -> bool {
        self.inner.knows(rumor)
    }

    /// Seeds a rumor at this node.
    pub fn seed_rumor(
        &mut self,
        rumor: UpdateId,
        rng: &mut ChaCha8Rng,
        out: &mut EffectSink<FloodMsg>,
    ) {
        self.inner.seed_rumor(rumor, rng, out);
    }
}

impl Node for PureFloodNode {
    type Msg = FloodMsg;

    fn id(&self) -> PeerId {
        self.inner.id
    }

    fn on_message(
        &mut self,
        from: PeerId,
        msg: FloodMsg,
        _round: Round,
        rng: &mut ChaCha8Rng,
        out: &mut EffectSink<FloodMsg>,
    ) {
        if !self.inner.seen.insert(msg.rumor) {
            self.inner.duplicates += 1;
            // No duplicate avoidance: forward anyway.
        }
        self.inner
            .forward(msg.rumor, msg.ttl, msg.hops, Some(from), rng, out);
    }
}

/// Haas, Halpern & Li's GOSSIP1(p, k) (§5.6): flood deterministically for
/// the first `k` hops, then forward each first-seen rumor with
/// probability `p`. Duplicates are dropped as in Gnutella.
#[derive(Debug, Clone)]
pub struct HaasNode {
    inner: GnutellaNode,
    p: f64,
    k: u32,
}

impl HaasNode {
    /// Creates a node with an explicit neighbour list.
    pub fn new(id: u32, neighbors: Vec<PeerId>, fanout: usize, ttl: u32, p: f64, k: u32) -> Self {
        Self {
            inner: GnutellaNode::new(id, neighbors, fanout, ttl),
            p: p.clamp(0.0, 1.0),
            k,
        }
    }

    /// Convenience: node `id` of `population` knowing everyone.
    pub fn fully_connected(
        id: u32,
        population: usize,
        fanout: usize,
        ttl: u32,
        p: f64,
        k: u32,
    ) -> Self {
        Self::new(id, neighbors_of(population, id), fanout, ttl, p, k)
    }

    /// Whether the node has seen the rumor.
    pub fn knows(&self, rumor: UpdateId) -> bool {
        self.inner.knows(rumor)
    }

    /// Seeds a rumor at this node.
    pub fn seed_rumor(
        &mut self,
        rumor: UpdateId,
        rng: &mut ChaCha8Rng,
        out: &mut EffectSink<FloodMsg>,
    ) {
        self.inner.seed_rumor(rumor, rng, out);
    }
}

impl Node for HaasNode {
    type Msg = FloodMsg;

    fn id(&self) -> PeerId {
        self.inner.id
    }

    fn on_message(
        &mut self,
        from: PeerId,
        msg: FloodMsg,
        _round: Round,
        rng: &mut ChaCha8Rng,
        out: &mut EffectSink<FloodMsg>,
    ) {
        if !self.inner.seen.insert(msg.rumor) {
            self.inner.duplicates += 1;
            return;
        }
        let forward = msg.hops < self.k || self.p >= 1.0 || rng.gen_bool(self.p);
        if forward {
            self.inner
                .forward(msg.rumor, msg.ttl, msg.hops, Some(from), rng, out);
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
        UpdateId::from_bits(99)
    }

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(14)
    }

    fn sink() -> EffectSink<FloodMsg> {
        EffectSink::new()
    }

    #[test]
    fn gnutella_seed_respects_fanout_and_ttl() {
        let mut n = GnutellaNode::fully_connected(0, 50, 4, 3);
        let mut effects = sink();
        n.seed_rumor(rumor(), &mut rng(), &mut effects);
        assert_eq!(effects.len(), 4);
        for e in effects.as_slice() {
            let Effect::Send { msg, .. } = e else {
                panic!()
            };
            assert_eq!(msg.ttl, 2);
            assert_eq!(msg.hops, 1);
        }
        assert!(n.knows(rumor()));
    }

    #[test]
    fn gnutella_zero_ttl_does_not_forward() {
        let mut n = GnutellaNode::fully_connected(0, 10, 4, 1);
        let mut r = rng();
        let mut out = sink();
        n.on_message(
            PeerId::new(1),
            FloodMsg {
                rumor: rumor(),
                ttl: 0,
                hops: 1,
            },
            Round::ZERO,
            &mut r,
            &mut out,
        );
        assert!(out.is_empty());
        assert!(n.knows(rumor()));
    }

    #[test]
    fn gnutella_drops_duplicates() {
        let mut n = GnutellaNode::fully_connected(0, 10, 4, 5);
        let mut r = rng();
        let msg = FloodMsg {
            rumor: rumor(),
            ttl: 4,
            hops: 1,
        };
        let mut first = sink();
        n.on_message(PeerId::new(1), msg, Round::ZERO, &mut r, &mut first);
        let mut second = sink();
        n.on_message(PeerId::new(2), msg, Round::ZERO, &mut r, &mut second);
        assert!(!first.is_empty());
        assert!(second.is_empty());
        assert_eq!(n.duplicates, 1);
    }

    #[test]
    fn pure_flood_reforwards_duplicates() {
        let mut n = PureFloodNode::fully_connected(0, 10, 2, 5);
        let mut r = rng();
        let msg = FloodMsg {
            rumor: rumor(),
            ttl: 4,
            hops: 1,
        };
        let mut first = sink();
        n.on_message(PeerId::new(1), msg, Round::ZERO, &mut r, &mut first);
        let mut second = sink();
        n.on_message(PeerId::new(2), msg, Round::ZERO, &mut r, &mut second);
        assert_eq!(first.len(), 2);
        assert_eq!(second.len(), 2, "no duplicate avoidance");
    }

    #[test]
    fn haas_floods_before_k_then_gossips() {
        let mut n = HaasNode::fully_connected(0, 100, 3, 10, 0.0, 2);
        let mut r = rng();
        // hops < k: always forwards even with p = 0.
        let mut early = sink();
        n.on_message(
            PeerId::new(1),
            FloodMsg {
                rumor: UpdateId::from_bits(1),
                ttl: 9,
                hops: 1,
            },
            Round::ZERO,
            &mut r,
            &mut early,
        );
        assert_eq!(early.len(), 3);
        // hops >= k with p = 0: never forwards.
        let mut late = sink();
        n.on_message(
            PeerId::new(1),
            FloodMsg {
                rumor: UpdateId::from_bits(2),
                ttl: 9,
                hops: 5,
            },
            Round::ZERO,
            &mut r,
            &mut late,
        );
        assert!(late.is_empty());
    }

    #[test]
    fn end_to_end_message_ordering_matches_section_5_6() {
        // Same population, fanout and TTL: pure flooding sends the most
        // messages, Gnutella (duplicate avoidance) fewer, Haas fewer yet.
        let population = 200;
        let fanout = 4;
        let ttl = 8;
        let run_pure = {
            let nodes: Vec<PureFloodNode> = (0..population as u32)
                .map(|i| PureFloodNode::fully_connected(i, population, fanout, 5))
                .collect();
            let mut sim = driver(nodes, population, 21);
            sim.apply(PeerId::new(0), |n, rng, out| {
                n.seed_rumor(rumor(), rng, out)
            });
            sim.run_until_quiescent(30);
            sim.messages()
        };
        let run_gnutella = {
            let nodes: Vec<GnutellaNode> = (0..population as u32)
                .map(|i| GnutellaNode::fully_connected(i, population, fanout, ttl))
                .collect();
            let mut sim = driver(nodes, population, 21);
            sim.apply(PeerId::new(0), |n, rng, out| {
                n.seed_rumor(rumor(), rng, out)
            });
            sim.run_until_quiescent(30);
            // Fanout-4 epidemics leave a small tail of unreached peers.
            assert!(sim.aware_fraction(|n| n.knows(rumor())) > 0.9);
            sim.messages()
        };
        let run_haas = {
            let nodes: Vec<HaasNode> = (0..population as u32)
                .map(|i| HaasNode::fully_connected(i, population, fanout, ttl, 0.8, 2))
                .collect();
            let mut sim = driver(nodes, population, 21);
            sim.apply(PeerId::new(0), |n, rng, out| {
                n.seed_rumor(rumor(), rng, out)
            });
            sim.run_until_quiescent(30);
            assert!(sim.aware_fraction(|n| n.knows(rumor())) > 0.8);
            sim.messages()
        };
        assert!(
            run_pure > run_gnutella,
            "pure {run_pure} !> gnutella {run_gnutella}"
        );
        assert!(
            run_gnutella > run_haas,
            "gnutella {run_gnutella} !> haas {run_haas}"
        );
    }
}
