//! Population-level consistency measurements.

use rumor_churn::OnlineSet;
use rumor_core::{ReplicaPeer, StoreDigest};
use rumor_types::{DataKey, UpdateId};

/// Fraction of peers aware of `update` — restricted to online peers when
/// `online` is given, otherwise over the whole population.
pub fn awareness(peers: &[ReplicaPeer], online: Option<&OnlineSet>, update: UpdateId) -> f64 {
    let mut total = 0usize;
    let mut aware = 0usize;
    for (i, peer) in peers.iter().enumerate() {
        if let Some(set) = online {
            if !set.is_online(rumor_types::PeerId::new(i as u32)) {
                continue;
            }
        }
        total += 1;
        if peer.has_processed(update) {
            aware += 1;
        }
    }
    if total == 0 {
        0.0
    } else {
        aware as f64 / total as f64
    }
}

/// Fraction of (online) peers whose store digest equals the digest of the
/// majority — the paper's quasi-consistency measure once gossip quiesces.
pub fn consistency_fraction(peers: &[ReplicaPeer], online: Option<&OnlineSet>) -> f64 {
    use std::collections::BTreeMap;
    let mut counts: BTreeMap<StoreDigest, usize> = BTreeMap::new();
    let mut total = 0usize;
    for (i, peer) in peers.iter().enumerate() {
        if online.is_none_or(|set| set.is_online(rumor_types::PeerId::new(i as u32))) {
            *counts.entry(peer.store().digest()).or_default() += 1;
            total += 1;
        }
    }
    let majority = counts.values().copied().max().unwrap_or(0);
    if total == 0 {
        0.0
    } else {
        majority as f64 / total as f64
    }
}

/// For each peer, whether its visible value for `key` equals `expected`
/// (`None` = absent/tombstoned). Returns the per-peer staleness flags —
/// useful for staleness-over-time plots.
pub fn staleness_by_peer(
    peers: &[ReplicaPeer],
    key: DataKey,
    expected: Option<&[u8]>,
) -> Vec<bool> {
    peers
        .iter()
        .map(|p| {
            let actual = p.store().get(key).map(|v| v.as_bytes().to_vec());
            match (actual, expected) {
                (Some(a), Some(e)) => a != e,
                (None, None) => false,
                _ => true,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use rumor_core::{ProtocolConfig, Value};
    use rumor_types::{PeerId, Round};

    fn peers(n: usize) -> Vec<ReplicaPeer> {
        let config = ProtocolConfig::builder(n).build().unwrap();
        (0..n)
            .map(|i| ReplicaPeer::new(PeerId::new(i as u32), config.clone()))
            .collect()
    }

    #[test]
    fn awareness_counts_processed_updates() {
        let mut ps = peers(4);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let update = ps[0].initiate_update(
            DataKey::new(1),
            Some(Value::from("x")),
            Round::ZERO,
            &mut rng,
            &mut rumor_net::EffectSink::new(),
        );
        assert_eq!(awareness(&ps, None, update.id()), 0.25);
    }

    #[test]
    fn awareness_respects_online_filter() {
        let mut ps = peers(4);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let update = ps[0].initiate_update(
            DataKey::new(1),
            Some(Value::from("x")),
            Round::ZERO,
            &mut rng,
            &mut rumor_net::EffectSink::new(),
        );
        let online = rumor_churn::OnlineSet::with_online_count(4, 1); // only peer 0
        assert_eq!(awareness(&ps, Some(&online), update.id()), 1.0);
    }

    #[test]
    fn awareness_of_empty_population_is_zero() {
        assert_eq!(
            awareness(&[], None, rumor_types::UpdateId::from_bits(1)),
            0.0
        );
    }

    #[test]
    fn consistency_detects_divergence() {
        let mut ps = peers(3);
        assert_eq!(consistency_fraction(&ps, None), 1.0, "empty stores agree");
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        ps[0].initiate_update(
            DataKey::new(1),
            Some(Value::from("x")),
            Round::ZERO,
            &mut rng,
            &mut rumor_net::EffectSink::new(),
        );
        let frac = consistency_fraction(&ps, None);
        assert!((frac - 2.0 / 3.0).abs() < 1e-12, "{frac}");
    }

    #[test]
    fn staleness_flags_mismatches() {
        let mut ps = peers(2);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        ps[0].initiate_update(
            DataKey::new(1),
            Some(Value::from("new")),
            Round::ZERO,
            &mut rng,
            &mut rumor_net::EffectSink::new(),
        );
        let flags = staleness_by_peer(&ps, DataKey::new(1), Some(b"new"));
        assert_eq!(flags, vec![false, true]);
        let absent = staleness_by_peer(&ps, DataKey::new(9), None);
        assert_eq!(absent, vec![false, false]);
    }
}
