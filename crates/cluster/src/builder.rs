//! Mounting a [`Scenario`] + [`Protocol`] into a live cluster.

use crate::byzantine::{byzantine_seed, select_byzantine, ByzantineState};
use crate::cell::{DelaySpec, NodeCell};
use crate::fault::{FaultError, FaultSpec};
use crate::sharded::ShardedCluster;
use crate::virtual_time::VirtualCluster;
use rumor_churn::OnlineSet;
use rumor_net::Node;
use rumor_sim::{Protocol, Scenario};
use rumor_types::SeedSequence;
use rumor_wire::{Decode, Encode, WireVersion};

/// Builds a live cluster from the same declarative [`Scenario`] the
/// simulation harness uses — identical topology draw, initial
/// availability, churn model and loss/partition parameters — plus the
/// cluster-only knobs: crash/restart faults and extra delivery delay.
///
/// # Examples
///
/// ```
/// use rumor_cluster::ClusterBuilder;
/// use rumor_core::ProtocolConfig;
/// use rumor_sim::{PaperProtocol, Scenario, UpdateEvent};
/// use rumor_types::DataKey;
///
/// let scenario = Scenario::builder(32, 7).build()?;
/// let config = ProtocolConfig::builder(32)
///     .fanout_absolute(4)
///     .staleness_rounds(6) // periodic pulls repair any push miss
///     .build()?;
/// let mut cluster = ClusterBuilder::new(&scenario)
///     .virtual_time(PaperProtocol::new(config));
/// let event = UpdateEvent { round: 0, key: DataKey::from_name("motd"), delete: false, sequence: 0 };
/// let update = cluster.initiate(&event).expect("someone online");
/// cluster.run_until_all_online_aware(update, 40).expect("converges");
/// assert_eq!(cluster.report(update).decode_errors, 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ClusterBuilder<'a> {
    pub(crate) scenario: &'a Scenario,
    pub(crate) faults: FaultSpec,
    delay: DelaySpec,
    wire: WireVersion,
    pub(crate) workers: Option<usize>,
    pub(crate) trace: bool,
}

impl<'a> ClusterBuilder<'a> {
    /// Starts a cluster over `scenario`'s environment with no crash
    /// faults and no extra delay.
    pub fn new(scenario: &'a Scenario) -> Self {
        Self {
            scenario,
            faults: FaultSpec::default(),
            delay: DelaySpec::default(),
            wire: WireVersion::default(),
            workers: None,
            trace: false,
        }
    }

    /// Enables structured trace capture (`rumor-obs`): every cell
    /// buffers its message-level events locally and the conductor
    /// records its environment decisions, assembled into a
    /// [`rumor_obs::TraceDoc`] by [`VirtualCluster::take_trace`] or
    /// [`ShardedCluster::finish_traced`]. Capture consumes no
    /// randomness, so a traced run is bit-identical to an untraced one.
    pub fn traced(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Selects the wire codec version every mounted cell speaks.
    /// [`WireVersion::V1`] — the default — frames one message per frame
    /// and keeps existing seeded runs bit-identical; [`WireVersion::V2`]
    /// coalesces each tick's per-peer traffic into batch frames (one
    /// header amortised over the group) and decodes both versions.
    pub fn wire(mut self, wire: WireVersion) -> Self {
        self.wire = wire;
        self
    }

    /// Installs a crash/restart (and optionally Byzantine) fault plan.
    ///
    /// # Errors
    ///
    /// Returns the [`FaultError`] from [`FaultSpec::validate`] when any
    /// rate or fraction is not a probability or the restart gap is zero
    /// — bad plans are rejected at build time, not silently run.
    pub fn faults(mut self, spec: FaultSpec) -> Result<Self, FaultError> {
        self.faults = spec.validate()?;
        Ok(self)
    }

    /// Installs an extra-delivery-delay plan.
    pub fn delay(mut self, spec: DelaySpec) -> Self {
        self.delay = spec;
        self
    }

    /// Mounts `protocol` into the deterministic virtual-time runtime:
    /// every cell ticked inline on the caller's thread (the
    /// golden-pinnable correctness path).
    pub fn virtual_time<P>(self, protocol: P) -> VirtualCluster<P>
    where
        P: Protocol,
        <P::Node as Node>::Msg: Encode + Decode,
    {
        VirtualCluster::mount(&self, protocol)
    }

    /// Sets the worker-thread count for [`ClusterBuilder::sharded`]
    /// (clamped to at least 1 and at most the population at mount).
    /// Defaults to the machine's available parallelism; `workers(n)`
    /// with `n` ≥ the population is one OS thread per replica, and
    /// `workers(1)` is bit-identical to [`ClusterBuilder::virtual_time`].
    /// Ignored by `virtual_time`, which spawns no threads.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Mounts `protocol` onto a fixed pool of worker threads, each
    /// owning a contiguous shard of replicas (the scale path — 10k+
    /// live replicas on one machine). Worker count via
    /// [`ClusterBuilder::workers`].
    pub fn sharded<P>(self, protocol: P) -> ShardedCluster<P>
    where
        P: Protocol + Send + Sync + 'static,
        P::Node: Send + 'static,
        <P::Node as Node>::Msg: Encode + Decode + Send,
    {
        ShardedCluster::mount(&self, protocol)
    }
}

/// Spawns the scenario's node population into cells through
/// [`Scenario::spawn`](rumor_sim::Scenario::spawn), the mount the
/// driver uses too, with per-node RNG substreams derived under the
/// `"cluster/node"` and `"cluster/link"` namespaces. The fault plan's
/// Byzantine fraction
/// is selected here (its own `"cluster/byzantine"` substream — zero
/// draws when empty) and mounted on the chosen cells; the returned flag
/// vector records who is adversarial.
pub(crate) fn build_cells<P: Protocol>(
    builder: &ClusterBuilder<'_>,
    protocol: &P,
    online: &OnlineSet,
) -> (Vec<NodeCell<P::Node>>, Vec<bool>)
where
    <P::Node as Node>::Msg: Encode + Decode,
{
    let (scenario, faults) = (builder.scenario, &builder.faults);
    let mut node_seeds = SeedSequence::new(scenario.seed(), "cluster/node");
    let mut link_seeds = SeedSequence::new(scenario.seed(), "cluster/link");
    let flags = select_byzantine(scenario.seed(), scenario.population(), &faults.byzantine);
    let cells = scenario
        .spawn(protocol, online)
        .map(|(id, node)| {
            let i = id.index();
            let mut cell = NodeCell::new(
                id,
                node,
                node_seeds.next_seed(),
                link_seeds.next_seed(),
                builder.delay,
            );
            cell.set_wire(builder.wire);
            cell.set_population(scenario.population());
            if builder.trace {
                cell.enable_trace(protocol.trace_msg_kind());
            }
            if flags[i] {
                cell.set_byzantine(ByzantineState::new(
                    faults.byzantine.behaviour,
                    byzantine_seed(scenario.seed(), i as u64),
                    protocol.byzantine_liar(),
                ));
            }
            cell
        })
        .collect();
    (cells, flags)
}
