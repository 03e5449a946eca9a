//! A node that panics fails the run with its own message on every
//! execution path; it never hangs it. `Driver` and `VirtualCluster` run
//! the nodes on the caller's thread, so the panic unwinds straight out of
//! the round. `ShardedCluster` runs them on worker threads, so its
//! conductor re-raises a worker's panic in the barrier of the round the
//! node panicked in.

use rand_chacha::ChaCha8Rng;
use rumor::cluster::ClusterBuilder;
use rumor::core::{Message, ProtocolConfig, ReplicaPeer};
use rumor::net::{EffectSink, Node};
use rumor::sim::{PaperProtocol, Protocol, Scenario, UpdateEvent};
use rumor::types::{DataKey, PeerId, Round, UpdateId};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::thread;
use std::time::Duration;

const POPULATION: usize = 8;
const BOMB: PeerId = PeerId::new(3);

/// The paper peer, except that peer 3 panics on the first message it
/// receives.
struct Bomb(ReplicaPeer);

impl Node for Bomb {
    type Msg = Message;

    fn id(&self) -> PeerId {
        self.0.id()
    }

    fn on_message(
        &mut self,
        from: PeerId,
        msg: Message,
        round: Round,
        rng: &mut ChaCha8Rng,
        out: &mut EffectSink<Message>,
    ) {
        if self.0.id() == BOMB {
            panic!("bomb at node 3");
        }
        self.0.on_message(from, msg, round, rng, out);
    }

    fn on_round_start(
        &mut self,
        round: Round,
        rng: &mut ChaCha8Rng,
        out: &mut EffectSink<Message>,
    ) {
        self.0.on_round_start(round, rng, out);
    }

    fn on_status_change(
        &mut self,
        online: bool,
        round: Round,
        rng: &mut ChaCha8Rng,
        out: &mut EffectSink<Message>,
    ) {
        self.0.on_status_change(online, round, rng, out);
    }

    fn on_timer(
        &mut self,
        tag: u64,
        round: Round,
        rng: &mut ChaCha8Rng,
        out: &mut EffectSink<Message>,
    ) {
        self.0.on_timer(tag, round, rng, out);
    }
}

/// [`PaperProtocol`] spawning [`Bomb`]s.
struct Bombs(PaperProtocol);

impl Protocol for Bombs {
    type Node = Bomb;

    fn name(&self) -> String {
        self.0.name()
    }

    fn spawn(&self, id: PeerId, known: Vec<PeerId>, online_at_start: bool) -> Bomb {
        Bomb(self.0.spawn(id, known, online_at_start))
    }

    fn initiate(
        &self,
        node: &mut Bomb,
        event: &UpdateEvent,
        round: Round,
        rng: &mut ChaCha8Rng,
        out: &mut EffectSink<Message>,
    ) -> UpdateId {
        self.0.initiate(&mut node.0, event, round, rng, out)
    }

    fn is_aware(&self, node: &Bomb, update: UpdateId) -> bool {
        self.0.is_aware(&node.0, update)
    }
}

/// Fanout 7 of 8 with everyone online: every push reaches node 3.
fn bombs() -> Bombs {
    let config = ProtocolConfig::builder(POPULATION)
        .fanout_absolute(7)
        .build()
        .expect("valid config");
    Bombs(PaperProtocol::new(config))
}

fn scenario() -> Scenario {
    Scenario::builder(POPULATION, 7).build().expect("valid")
}

fn event() -> UpdateEvent {
    UpdateEvent {
        round: 0,
        key: DataKey::from_name("motd"),
        delete: false,
        sequence: 0,
    }
}

fn message_of(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
        .expect("a text panic payload")
}

/// Runs `run` on its own thread; `run` reports each round it starts on
/// the sender. Returns the panic message the run failed with and the
/// last round it started. Fails the test, instead of hanging it, when
/// the run makes no progress for a minute, and when it succeeds.
fn failure_of(run: impl FnOnce(&Sender<u32>) + Send + 'static) -> (String, u32) {
    let (progress, started) = mpsc::channel();
    let handle = thread::spawn(move || run(&progress));
    let mut last = None;
    loop {
        match started.recv_timeout(Duration::from_secs(60)) {
            Ok(round) => last = Some(round),
            Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {
                panic!("the run hangs after a node panic; last round started: {last:?}")
            }
        }
    }
    let payload = handle.join().expect_err("a node panic fails the run");
    (message_of(payload.as_ref()), last.expect("a round started"))
}

fn sharded(workers: usize) -> (String, u32) {
    failure_of(move |progress| {
        let mut cluster = ClusterBuilder::new(&scenario())
            .workers(workers)
            .sharded(bombs());
        cluster.initiate(&event()).expect("someone online");
        for _ in 0..5 {
            progress.send(cluster.rounds_run()).expect("test alive");
            cluster.step(None);
        }
    })
}

fn virtual_time() -> (String, u32) {
    failure_of(|progress| {
        let mut cluster = ClusterBuilder::new(&scenario()).virtual_time(bombs());
        cluster.initiate(&event()).expect("someone online");
        for _ in 0..5 {
            progress.send(cluster.rounds_run()).expect("test alive");
            cluster.step();
        }
    })
}

/// Node 3 is reached in round 0, or in round 1 when it initiated.
fn assert_failed_with_the_node_message(path: &str, (message, round): &(String, u32)) {
    assert!(message.contains("bomb at node 3"), "{path}: {message}");
    assert!(*round <= 1, "{path} failed in round {round}");
}

#[test]
fn a_node_panic_fails_two_shards_with_its_message() {
    let failure = sharded(2);
    assert_failed_with_the_node_message("workers(2)", &failure);
    assert_eq!(failure.1, virtual_time().1, "the round node 3 panics in");
}

#[test]
fn a_node_panic_fails_three_shards_with_its_message() {
    let failure = sharded(3);
    assert_failed_with_the_node_message("workers(3)", &failure);
    assert_eq!(failure.1, virtual_time().1, "the round node 3 panics in");
}

#[test]
fn a_node_panic_fails_virtual_time_with_its_message() {
    assert_failed_with_the_node_message("virtual time", &virtual_time());
}

#[test]
fn a_node_panic_fails_the_driver_with_its_message() {
    let failure = failure_of(|progress| {
        let protocol = bombs();
        let mut driver = scenario().drive(&protocol);
        driver
            .initiate(&protocol, None, &event())
            .expect("someone online");
        for _ in 0..5 {
            progress.send(driver.rounds_run()).expect("test alive");
            driver.step();
        }
    });
    assert_failed_with_the_node_message("driver", &failure);
}

#[test]
fn a_sharded_cluster_reused_after_a_node_panic_reports_that_panic() {
    let (message, _) = failure_of(|progress| {
        let mut cluster = ClusterBuilder::new(&scenario()).workers(2).sharded(bombs());
        cluster.initiate(&event()).expect("someone online");
        progress.send(cluster.rounds_run()).expect("test alive");
        let first =
            catch_unwind(AssertUnwindSafe(|| cluster.run_rounds(5))).expect_err("node 3 panics");
        let first = message_of(first.as_ref());
        // The panicked worker has exited: the next round fails, and says
        // why, instead of waiting for a reply that never comes.
        let second = catch_unwind(AssertUnwindSafe(|| cluster.run_rounds(1)))
            .expect_err("the exited worker cannot tick");
        assert_eq!(message_of(second.as_ref()), first);
        std::panic::resume_unwind(second);
    });
    assert!(message.contains("bomb at node 3"), "{message}");
}
