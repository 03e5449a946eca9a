//! The convergence oracle: what a finished fuzz case must satisfy.
//!
//! After the horizon plus a stable-online probe window, every *witness*
//! — a correct (non-Byzantine) replica that stayed online through the
//! whole window — must (a) be aware of every update that any witness is
//! aware of (no partially-known update), and (b) hold a replica store
//! whose digest equals every other witness's (full anti-entropy
//! convergence, tombstones included). A violation is reported as a
//! [`Divergence`] — plain, ordered data, so records serialize
//! deterministically and replays compare structurally.

use rumor_core::StoreDigest;
use rumor_types::{PeerId, UpdateId};

use rumor_types::json::Json;

/// A convergence violation found by the oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Divergence {
    /// An initiated update is known to some witnesses but not others.
    PartialUpdate {
        /// Workload sequence number of the update.
        sequence: u32,
        /// The update identity, as a decimal `u128` string.
        update: String,
        /// Witnesses aware of the update (ascending peer index).
        aware: Vec<u32>,
        /// Witnesses unaware of it (ascending peer index).
        unaware: Vec<u32>,
    },
    /// Witness stores disagree even though no tracked update is
    /// partially known (e.g. a lied-away version difference).
    StoreMismatch {
        /// The witness whose digest served as the reference.
        representative: u32,
        /// Witnesses whose digests differ from the reference.
        divergent: Vec<u32>,
    },
}

impl Divergence {
    /// Stable artefact name of the violation class.
    pub fn kind(&self) -> &'static str {
        match self {
            Divergence::PartialUpdate { .. } => "partial-update",
            Divergence::StoreMismatch { .. } => "store-mismatch",
        }
    }

    /// Serializes as a JSON object (field order is stable).
    pub fn to_json(&self) -> Json {
        match self {
            Divergence::PartialUpdate {
                sequence,
                update,
                aware,
                unaware,
            } => Json::Obj(vec![
                ("kind".into(), Json::from_text(self.kind())),
                ("sequence".into(), Json::from_u32(*sequence)),
                ("update".into(), Json::from_text(update)),
                ("aware".into(), peer_list(aware)),
                ("unaware".into(), peer_list(unaware)),
            ]),
            Divergence::StoreMismatch {
                representative,
                divergent,
            } => Json::Obj(vec![
                ("kind".into(), Json::from_text(self.kind())),
                ("representative".into(), Json::from_u32(*representative)),
                ("divergent".into(), peer_list(divergent)),
            ]),
        }
    }

    /// Parses a divergence serialized by [`Divergence::to_json`].
    pub fn from_json(doc: &Json) -> Result<Divergence, String> {
        let kind = doc
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("divergence missing `kind`")?;
        match kind {
            "partial-update" => Ok(Divergence::PartialUpdate {
                sequence: doc
                    .get("sequence")
                    .and_then(Json::as_u32)
                    .ok_or("divergence missing `sequence`")?,
                update: doc
                    .get("update")
                    .and_then(Json::as_str)
                    .ok_or("divergence missing `update`")?
                    .to_owned(),
                aware: parse_peer_list(doc, "aware")?,
                unaware: parse_peer_list(doc, "unaware")?,
            }),
            "store-mismatch" => Ok(Divergence::StoreMismatch {
                representative: doc
                    .get("representative")
                    .and_then(Json::as_u32)
                    .ok_or("divergence missing `representative`")?,
                divergent: parse_peer_list(doc, "divergent")?,
            }),
            other => Err(format!("unknown divergence kind `{other}`")),
        }
    }
}

fn peer_list(peers: &[u32]) -> Json {
    Json::Arr(peers.iter().map(|&p| Json::from_u32(p)).collect())
}

fn parse_peer_list(doc: &Json, name: &str) -> Result<Vec<u32>, String> {
    doc.get(name)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("divergence missing `{name}`"))?
        .iter()
        .map(|v| v.as_u32().ok_or_else(|| format!("bad peer in `{name}`")))
        .collect()
}

/// Checks the oracle over the stable-online correct witnesses.
///
/// `witnesses` must be the ascending list of stable peers; `digest_of`
/// and `aware` probe a peer's replica store and update awareness. With
/// fewer than two witnesses the oracle is vacuous and returns `None`.
/// Partial-update violations are reported before store mismatches: they
/// name the exact update, so they make better repro records.
pub fn check<D, A>(
    witnesses: &[PeerId],
    digest_of: D,
    tracked: &[(u32, UpdateId)],
    aware: A,
) -> Option<Divergence>
where
    D: Fn(PeerId) -> StoreDigest,
    A: Fn(PeerId, UpdateId) -> bool,
{
    if witnesses.len() < 2 {
        return None;
    }
    for &(sequence, update) in tracked {
        let mut aware_peers = Vec::new();
        let mut unaware_peers = Vec::new();
        for &peer in witnesses {
            if aware(peer, update) {
                aware_peers.push(peer.index() as u32);
            } else {
                unaware_peers.push(peer.index() as u32);
            }
        }
        if !aware_peers.is_empty() && !unaware_peers.is_empty() {
            return Some(Divergence::PartialUpdate {
                sequence,
                update: update.to_bits().to_string(),
                aware: aware_peers,
                unaware: unaware_peers,
            });
        }
    }
    let representative = witnesses[0];
    let reference = digest_of(representative);
    let divergent: Vec<u32> = witnesses[1..]
        .iter()
        .filter(|&&peer| digest_of(peer) != reference)
        .map(|&peer| peer.index() as u32)
        .collect();
    if divergent.is_empty() {
        None
    } else {
        Some(Divergence::StoreMismatch {
            representative: representative.index() as u32,
            divergent,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumor_types::{DataKey, VersionId};

    fn peers(ids: &[u32]) -> Vec<PeerId> {
        ids.iter().map(|&i| PeerId::new(i)).collect()
    }

    fn digest_with(version: u128) -> StoreDigest {
        let mut digest = StoreDigest::new();
        digest.insert(DataKey::new(1), VersionId::from_bits(version));
        digest
    }

    #[test]
    fn vacuous_with_fewer_than_two_witnesses() {
        let verdict = check(&peers(&[3]), |_| digest_with(1), &[], |_, _| false);
        assert_eq!(verdict, None);
    }

    #[test]
    fn partial_awareness_is_reported_with_both_sides() {
        let update = UpdateId::from_bits(99);
        let verdict = check(
            &peers(&[0, 1, 2]),
            |_| digest_with(1),
            &[(0, update)],
            |p, _| p.index() != 1,
        );
        assert_eq!(
            verdict,
            Some(Divergence::PartialUpdate {
                sequence: 0,
                update: "99".into(),
                aware: vec![0, 2],
                unaware: vec![1],
            })
        );
    }

    #[test]
    fn uniform_awareness_and_equal_digests_pass() {
        let update = UpdateId::from_bits(7);
        let verdict = check(
            &peers(&[0, 1, 2]),
            |_| digest_with(1),
            &[(0, update)],
            |_, _| true,
        );
        assert_eq!(verdict, None);
        // Uniformly unaware (the update never survived) is also fine.
        let verdict = check(
            &peers(&[0, 1]),
            |_| digest_with(1),
            &[(0, update)],
            |_, _| false,
        );
        assert_eq!(verdict, None);
    }

    #[test]
    fn digest_disagreement_is_a_store_mismatch() {
        let verdict = check(
            &peers(&[4, 5, 6]),
            |p| digest_with(if p.index() == 6 { 2 } else { 1 }),
            &[],
            |_, _| true,
        );
        assert_eq!(
            verdict,
            Some(Divergence::StoreMismatch {
                representative: 4,
                divergent: vec![6],
            })
        );
    }

    #[test]
    fn divergence_json_round_trips() {
        let cases = [
            Divergence::PartialUpdate {
                sequence: 2,
                update: "340282366920938463463374607431768211455".into(),
                aware: vec![1, 3],
                unaware: vec![2],
            },
            Divergence::StoreMismatch {
                representative: 0,
                divergent: vec![9, 11],
            },
        ];
        for d in &cases {
            let text = d.to_json().pretty();
            let doc = rumor_types::json::parse(&text).expect("parses");
            assert_eq!(&Divergence::from_json(&doc).expect("decodes"), d);
        }
    }
}
