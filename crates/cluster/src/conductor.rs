//! The one cluster conductor: the seeded environment of a live run.
//!
//! Everything that happens *to* the replicas is decided here, once, from
//! the scenario's seed substreams in a fixed order — churn, initiator
//! choice (the control stream), crash/restart faults — together with the
//! convergence-probe state, the conductor-side trace and the final
//! [`ClusterReport`] fold. The front-ends differ only in where the
//! [`Shard`](crate::shard::Shard)s run: [`crate::VirtualCluster`] ticks
//! one inline, [`crate::ShardedCluster`] M of them on worker threads.

use crate::builder::{build_cells, ClusterBuilder};
use crate::cell::NodeCell;
use crate::fault::{FaultEvents, FaultInjector};
use crate::report::ClusterReport;
use crate::shard::ProbeOutcome;
use crate::trace::ConductorTrace;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rumor_churn::{Churn, OnlineSet};
use rumor_net::Node;
use rumor_obs::TraceDoc;
use rumor_sim::Protocol;
use rumor_types::{derive_seed, PeerId, UpdateId};
use rumor_wire::{Decode, Encode};

pub(crate) struct Conductor {
    online: OnlineSet,
    churn: Box<dyn Churn>,
    churn_rng: ChaCha8Rng,
    ctrl_rng: ChaCha8Rng,
    faults: FaultInjector,
    byzantine: Vec<bool>,
    rounds_run: u32,
    /// The update the convergence probe state belongs to; probing a
    /// different update resets `converged_round`.
    probed_update: Option<UpdateId>,
    converged_round: Option<u32>,
    trace: Option<ConductorTrace>,
    seed: u64,
}

impl Conductor {
    /// Builds the environment and the scenario's cell population.
    pub fn mount<P: Protocol>(
        builder: &ClusterBuilder<'_>,
        protocol: &P,
    ) -> (Self, Vec<NodeCell<P::Node>>)
    where
        <P::Node as Node>::Msg: Encode + Decode,
    {
        let scenario = builder.scenario;
        let seed = scenario.seed();
        let online = scenario.initial_online_set();
        let (cells, byzantine) = build_cells(builder, protocol, &online);
        let faults = FaultInjector::new(
            builder.faults,
            derive_seed(seed, "cluster/fault"),
            cells.len(),
        );
        let conductor = Self {
            trace: (builder.trace).then(|| ConductorTrace::new(&online, cells.len())),
            online,
            churn: scenario.make_churn(),
            churn_rng: ChaCha8Rng::seed_from_u64(derive_seed(seed, "churn")),
            ctrl_rng: ChaCha8Rng::seed_from_u64(derive_seed(seed, "cluster/control")),
            faults,
            byzantine,
            rounds_run: 0,
            probed_update: None,
            converged_round: None,
            seed,
        };
        (conductor, cells)
    }

    pub fn population(&self) -> usize {
        self.byzantine.len()
    }

    pub fn rounds_run(&self) -> u32 {
        self.rounds_run
    }

    /// Churn availability of `peer` (what its cell is ticked with).
    pub fn is_online(&self, peer: PeerId) -> bool {
        self.online.is_online(peer)
    }

    /// Churn-online and not crashed.
    fn effective_online(&self, peer: PeerId) -> bool {
        self.online.is_online(peer) && !self.faults.is_down(peer)
    }

    /// The effectively-online peers, ascending.
    pub fn online_peers(&self) -> Vec<PeerId> {
        (0..self.population() as u32)
            .map(PeerId::new)
            .filter(|&p| self.effective_online(p))
            .collect()
    }

    pub fn is_byzantine(&self, peer: PeerId) -> bool {
        self.byzantine.get(peer.index()).copied().unwrap_or(false)
    }

    /// Whether any node is crashed (its parked inbox may hide frames, so
    /// this blocks quiescence).
    pub fn any_down(&self) -> bool {
        self.faults.any_down()
    }

    pub fn converged_round(&self) -> Option<u32> {
        self.converged_round
    }

    /// Draws the initiator of the next update uniformly from the
    /// effectively-online peers. `None` (and no draw) when nobody is up.
    pub fn pick_initiator(&mut self) -> Option<PeerId> {
        let candidates = self.online_peers();
        if candidates.is_empty() {
            return None;
        }
        Some(candidates[self.ctrl_rng.gen_range(0..candidates.len())])
    }

    /// Records that `initiator` injected `update` before the next tick.
    pub fn initiated(&mut self, initiator: PeerId, update: UpdateId) {
        if let Some(ConductorTrace {
            tracer, awareness, ..
        }) = self.trace.as_mut()
        {
            awareness.initiate(tracer, self.rounds_run, initiator.as_u32(), update);
        }
    }

    /// Opens the next round: churn transition (after round 0), fault
    /// draw, probe retargeting. Returns the round number and the fault
    /// events the front-end must apply to its shards *before* ticking.
    pub fn begin_round(&mut self, probe: Option<UpdateId>) -> (u32, FaultEvents) {
        let round = self.rounds_run;
        if round > 0 {
            self.churn
                .step(round - 1, &mut self.online, &mut self.churn_rng);
        }
        let events = self.faults.step(round);
        if let Some(trace) = self.trace.as_mut() {
            trace.round_start(round, &self.online);
            trace.fault_events(round, &events);
        }
        if probe.is_some() && self.probed_update != probe {
            // A fresh update is being probed: the previous probe's
            // convergence verdict must not leak into this one.
            self.probed_update = probe;
            self.converged_round = None;
        }
        (round, events)
    }

    /// Closes the round opened by [`Conductor::begin_round`] with every
    /// shard's probe outcome (ignored on an unprobed round): the probed
    /// update converges the first time every effectively-online cell is
    /// aware and at least one is online.
    pub fn end_round(
        &mut self,
        probe: Option<UpdateId>,
        outcomes: impl IntoIterator<Item = Option<ProbeOutcome>>,
    ) {
        let round = self.rounds_run;
        self.rounds_run += 1;
        if probe.is_none() || self.converged_round.is_some() {
            return;
        }
        let mut any_online = false;
        for outcome in outcomes {
            match outcome {
                Some(o) if o.all_online_aware => any_online |= o.any_online,
                _ => return,
            }
        }
        if any_online {
            self.converged_round = Some(round);
        }
    }

    /// On a traced run, starts tracking `update` from every node's
    /// awareness now, in id order (`aware` is not called untraced).
    pub fn trace_track<I: Iterator<Item = bool>>(
        &mut self,
        update: UpdateId,
        aware: impl FnOnce() -> I,
    ) {
        if let Some(trace) = self.trace.as_mut() {
            trace.awareness.track(update, aware());
        }
    }

    /// On a traced run, emits the awareness observation of the round
    /// just run: `aware` yields every node's awareness of the tracked
    /// update in id order, paired here with its effective availability
    /// (only the inline front-end can see it).
    pub fn trace_probe<I: Iterator<Item = bool>>(&mut self, aware: impl FnOnce() -> I) {
        let Some(mut trace) = self.trace.take() else {
            return;
        };
        let observed = aware()
            .enumerate()
            .map(|(i, aware)| (self.effective_online(PeerId::new(i as u32)), aware));
        let round = self.rounds_run - 1;
        trace.awareness.probe(&mut trace.tracer, round, observed);
        self.trace = Some(trace);
    }

    /// Folds the run so far into a [`ClusterReport`] for `update`. The
    /// convergence round is reported only for the probed update.
    pub fn report<P: Protocol>(
        &self,
        protocol: &P,
        cells: &[NodeCell<P::Node>],
        update: UpdateId,
    ) -> ClusterReport {
        let aware_set: Vec<PeerId> = cells
            .iter()
            .filter(|c| protocol.is_aware(&c.node, update))
            .map(|c| c.id)
            .collect();
        ClusterReport {
            rounds: self.rounds_run,
            crashes: self.faults.crashes,
            restarts: self.faults.restarts,
            online: self.online_peers().len(),
            aware_online: aware_set
                .iter()
                .filter(|&&p| self.effective_online(p))
                .count(),
            converged_round: self
                .converged_round
                .filter(|_| self.probed_update == Some(update)),
            aware_set,
            byzantine: self.byzantine.iter().filter(|&&f| f).count(),
            ..ClusterReport::fold(cells.iter().map(|c| &c.stats))
        }
    }

    /// Drains the conductor's and every cell's capture into one
    /// canonical [`TraceDoc`]; `None` when the run is not traced.
    pub fn merge_trace<N: Node>(
        &mut self,
        label: &str,
        cells: &mut [NodeCell<N>],
    ) -> Option<TraceDoc>
    where
        N::Msg: Encode + Decode,
    {
        let conductor = self.trace.as_mut()?.take();
        let buffers = std::iter::once(conductor)
            .chain(cells.iter_mut().map(NodeCell::take_trace))
            .collect::<Vec<_>>();
        Some(TraceDoc::merge(
            label,
            self.seed,
            self.population() as u32,
            buffers,
        ))
    }
}
