//! Isolated probes: single public functions of `rumor-wire`, `rumor-core`
//! and `rumor-churn` timed on their own, over the messages the traced
//! pass captured from the real run.

use crate::api::{
    decode_frame, decode_frame_v2, encode_frame, frame_len, BatchEncoder, Bytes, Decode, DemersMsg,
    Encode, Message, PartialList, ReplicaStore, Scenario, Update, WireVersion,
};
use crate::stats::median;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median nanoseconds per item over repeated sweeps: `sweep` processes
/// `items` items; it runs once untimed, then for about 40 ms (at least
/// five times), each sweep timed on its own.
fn ns_per_item(items: usize, mut sweep: impl FnMut()) -> f64 {
    if items == 0 {
        return 0.0;
    }
    sweep();
    let budget = Duration::from_millis(40);
    let began = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || began.elapsed() < budget {
        let t = Instant::now();
        sweep();
        samples.push(t.elapsed().as_nanos() as f64 / items as f64);
    }
    median(&samples)
}

/// Codec cost per logical message.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WireProbe {
    /// Encoding one message into its frame (v2: its share of a batch).
    pub encode_ns: f64,
    /// Decoding it back.
    pub decode_ns: f64,
    /// `frame_len`, the only codec call on the engine path.
    pub frame_len_ns: f64,
}

/// Times the codec of `version` over `sample`. Under v2 the messages are
/// grouped into batch frames of `msgs_per_frame`, the mean the run saw.
pub fn wire<M: Encode + Decode>(
    sample: &[M],
    version: WireVersion,
    msgs_per_frame: usize,
) -> WireProbe {
    let frame_len_ns = ns_per_item(sample.len(), || {
        for msg in sample {
            black_box(frame_len(black_box(msg)));
        }
    });
    let (encode_ns, decode_ns) = match version {
        WireVersion::V1 => {
            let frames: Vec<Bytes> = sample.iter().map(encode_frame).collect();
            (
                ns_per_item(sample.len(), || {
                    for msg in sample {
                        black_box(encode_frame(black_box(msg)));
                    }
                }),
                ns_per_item(sample.len(), || {
                    for frame in &frames {
                        black_box(decode_frame::<M>(black_box(frame)).expect("own frame decodes"));
                    }
                }),
            )
        }
        WireVersion::V2 => {
            let batch = |group: &[M]| {
                let mut encoder = BatchEncoder::new();
                for msg in group {
                    encoder.push(msg);
                }
                encoder.finish()
            };
            let groups = || sample.chunks(msgs_per_frame.max(1));
            let frames: Vec<Bytes> = groups().map(batch).collect();
            let mut decoded = Vec::new();
            (
                ns_per_item(sample.len(), || {
                    for group in groups() {
                        black_box(batch(black_box(group)));
                    }
                }),
                ns_per_item(sample.len(), || {
                    for frame in &frames {
                        decoded.clear();
                        decode_frame_v2::<M>(black_box(frame), &mut decoded)
                            .expect("own batch decodes");
                        black_box(&decoded);
                    }
                }),
            )
        }
    };
    WireProbe {
        encode_ns,
        decode_ns,
        frame_len_ns,
    }
}

/// `rumor-core` data-structure costs behind the push and pull handlers.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CoreProbe {
    /// `PartialList::union_with` of one captured flood list into another.
    pub partial_list_union_ns: f64,
    /// `ReplicaStore::apply` of one captured update.
    pub store_apply_ns: f64,
    /// `ReplicaStore::digest` of the store those updates build.
    pub store_digest_ns: f64,
}

/// A message type the traced pass can capture and probe.
pub trait Probed: Encode + Decode + Clone {
    /// Core data-structure probes over the captured messages; protocols
    /// without `rumor-core` state report zeros.
    fn core_probe(_sample: &[Self]) -> CoreProbe {
        CoreProbe::default()
    }
}

impl Probed for DemersMsg {}

impl Probed for Message {
    fn core_probe(sample: &[Self]) -> CoreProbe {
        let lists: Vec<&PartialList> = sample
            .iter()
            .filter_map(|m| match m {
                Message::Push(push) => Some(&push.flood_list),
                _ => None,
            })
            .collect();
        let updates: Vec<&Update> = sample
            .iter()
            .flat_map(|m| match m {
                Message::Push(push) => std::slice::from_ref(&push.update),
                Message::PullResponse { updates } | Message::DeltaResponse { updates, .. } => {
                    updates.as_slice()
                }
                _ => &[],
            })
            .collect();

        // Each list absorbs its neighbour; the clones are made outside
        // the clock.
        let partial_list_union_ns = {
            let mut samples = Vec::new();
            for _ in 0..if lists.len() < 2 { 0 } else { 7 } {
                let mut targets: Vec<PartialList> = lists.iter().map(|&l| l.clone()).collect();
                let t = Instant::now();
                for (i, target) in targets.iter_mut().enumerate() {
                    target.union_with(lists[(i + 1) % lists.len()]);
                }
                samples.push(t.elapsed().as_nanos() as f64 / lists.len() as f64);
                black_box(targets);
            }
            if samples.is_empty() {
                0.0
            } else {
                median(&samples)
            }
        };
        let store_apply_ns = ns_per_item(updates.len(), || {
            let mut store = ReplicaStore::new();
            for &update in &updates {
                black_box(store.apply(update));
            }
        });
        let mut store = ReplicaStore::new();
        for &update in &updates {
            store.apply(update);
        }
        const DIGESTS: usize = 64;
        let store_digest_ns = ns_per_item(DIGESTS, || {
            for _ in 0..DIGESTS {
                black_box(black_box(&store).digest());
            }
        });
        CoreProbe {
            partial_list_union_ns,
            store_apply_ns,
            store_digest_ns,
        }
    }
}

/// Nanoseconds one `Churn::step` over the scenario's population takes.
pub fn churn_step_ns(scenario: &Scenario, seed: u64) -> f64 {
    const ROUNDS: u32 = 50;
    let mut churn = scenario.make_churn();
    let mut online = scenario.initial_online_set();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut round = 0;
    ns_per_item(ROUNDS as usize, || {
        for _ in 0..ROUNDS {
            churn.step(round, &mut online, &mut rng);
            round += 1;
        }
        black_box(&online);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_samples_probe_to_zero() {
        let none: [Message; 0] = [];
        assert_eq!(wire(&none, WireVersion::V1, 1), WireProbe::default());
        assert_eq!(wire(&none, WireVersion::V2, 3), WireProbe::default());
        let core = Message::core_probe(&none);
        assert_eq!(core.partial_list_union_ns, 0.0);
        assert_eq!(core.store_apply_ns, 0.0);
        assert!(core.store_digest_ns > 0.0, "an empty store still digests");
    }

    #[test]
    fn both_codecs_round_trip_a_sample() {
        let sample = vec![
            Message::PullSince { since: 7 },
            Message::PullSince { since: 9 },
        ];
        let v2 = wire(&sample, WireVersion::V2, 2);
        assert!(v2.encode_ns > 0.0 && v2.decode_ns > 0.0 && v2.frame_len_ns > 0.0);
        let demers = vec![DemersMsg::Digest {
            known: Vec::new(),
            reply: true,
        }];
        let v1 = wire(&demers, WireVersion::V1, 1);
        assert!(v1.encode_ns > 0.0 && v1.decode_ns > 0.0);
        assert_eq!(DemersMsg::core_probe(&demers), CoreProbe::default());
    }
}
