//! Protocol messages and their wire format.
//!
//! The paper's message-length analysis (§4.2) is exact:
//! `L_M(t) = |U| + R · δ · l(t)` — the update payload plus one entry of
//! `δ` bytes per partial-list member. The wire codec here makes those
//! sizes measurable rather than assumed: [`rumor_wire::frame_len`] of a
//! message is the byte count the length experiments report, and framed
//! encode/decode round-trips are tested for every variant. Our `δ` is
//! [`REPLICA_ENTRY_BYTES`] (4-byte peer ids; the paper's example uses 10
//! bytes per replica — a constant factor that cancels in all normalised
//! plots).

use crate::digest::StoreDigest;
use crate::error::CoreError;
use crate::partial_list::PartialList;
use crate::update::Update;
use crate::value::Value;
use crate::version::Lineage;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use rumor_types::{DataKey, PeerId, UpdateId, VersionId};
use serde::{Deserialize, Serialize};

/// Bytes one replica address occupies on the wire (the paper's `δ`).
pub const REPLICA_ENTRY_BYTES: usize = 4;

const TAG_PUSH: u8 = 1;
const TAG_PULL_REQUEST: u8 = 2;
const TAG_PULL_RESPONSE: u8 = 3;
const TAG_ACK: u8 = 4;
// Wire-v2 kinds: a v1 decoder must never accept them, so the framed
// codec marks them `WireVersion::V2` (see the `Encode`/`Decode` impls).
const TAG_PULL_SINCE: u8 = 5;
const TAG_DELTA_RESPONSE: u8 = 6;

/// The push-phase request `Push(U, V, R_f, t)` (§3).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PushMessage {
    /// The update `(U, V)` being disseminated.
    pub update: Update,
    /// The push-round counter `t` ("counts the number of push rounds that
    /// have already been executed for the update").
    pub push_round: u32,
    /// The partial flooding list `R_f`.
    pub flood_list: PartialList,
}

/// All messages exchanged by [`ReplicaPeer`](crate::ReplicaPeer)s.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Message {
    /// Push-phase update dissemination.
    Push(PushMessage),
    /// Pull-phase inquiry carrying the requester's version digest.
    PullRequest {
        /// What the requester already holds.
        digest: StoreDigest,
    },
    /// Pull-phase reply carrying versions absent from the request digest.
    PullResponse {
        /// Updates the requester was missing.
        updates: Vec<Update>,
    },
    /// §6 optimisation: acknowledge receipt of an update to its sender.
    Ack {
        /// Which update event is acknowledged.
        update_id: UpdateId,
    },
    /// Wire-v2 incremental pull: "this is the state I am in, send me what
    /// it lacks" — a constant 8 bytes replacing the O(store) digest of
    /// [`Message::PullRequest`].
    PullSince {
        /// The [fingerprint](StoreDigest::fingerprint) of the requester's
        /// own digest (0 = an empty store). It names the requester's
        /// state, not a position in anything the responder keeps, so it
        /// means the same to every responder.
        since: u64,
    },
    /// Wire-v2 reply to [`Message::PullSince`]: what the responder's apply
    /// history says the named state lacks (see
    /// [`ReplicaStore::delta_for`](crate::ReplicaStore::delta_for)).
    DeltaResponse {
        /// The fingerprint of the responder's digest when it answered.
        /// Informational: a requester names its own state in its next
        /// pull and stores nothing from an answer, so a false `upto`
        /// misleads nobody.
        upto: u64,
        /// Nothing when the named state is the responder's own; the
        /// frontier versions of every key it changed since it was in that
        /// state; or, for a state it does not remember, its whole
        /// frontier. Always a superset of the digest diff.
        updates: Vec<Update>,
    },
}

impl Message {
    /// The variant tag — also the frame kind byte of the
    /// [`rumor_wire::Encode`] implementation.
    const fn tag(&self) -> u8 {
        match self {
            Self::Push(_) => TAG_PUSH,
            Self::PullRequest { .. } => TAG_PULL_REQUEST,
            Self::PullResponse { .. } => TAG_PULL_RESPONSE,
            Self::Ack { .. } => TAG_ACK,
            Self::PullSince { .. } => TAG_PULL_SINCE,
            Self::DeltaResponse { .. } => TAG_DELTA_RESPONSE,
        }
    }

    /// Exact size of [`Message::put_body`]'s output (the framed payload
    /// size), computed without allocating.
    fn body_len(&self) -> usize {
        match self {
            Self::Push(p) => {
                update_len(&p.update) + 4 + 4 + p.flood_list.len() * REPLICA_ENTRY_BYTES
            }
            Self::PullRequest { digest } => {
                4 + digest_groups(digest).count() * DIGEST_GROUP_HEADER_BYTES
                    + digest.version_count() * 16
            }
            Self::PullResponse { updates } => 4 + updates.iter().map(update_len).sum::<usize>(),
            Self::Ack { .. } => 16,
            Self::PullSince { .. } => 8,
            Self::DeltaResponse { updates, .. } => {
                8 + 4 + updates.iter().map(update_len).sum::<usize>()
            }
        }
    }

    /// Writes the tag-less body: the framed payload (the tag travels in
    /// the frame header's kind byte).
    fn put_body(&self, buf: &mut BytesMut) {
        match self {
            Self::Push(p) => {
                put_update(buf, &p.update);
                buf.put_u32(p.push_round);
                buf.put_u32(p.flood_list.len() as u32);
                for peer in p.flood_list.iter() {
                    buf.put_u32(peer.as_u32());
                }
            }
            Self::PullRequest { digest } => {
                buf.put_u32(digest_groups(digest).count() as u32);
                for group in digest_groups(digest) {
                    buf.put_u64(group[0].0.as_u64());
                    buf.put_u16(group.len() as u16);
                    for (_, head) in group {
                        buf.put_u128(head.to_bits());
                    }
                }
            }
            Self::PullResponse { updates } => {
                buf.put_u32(updates.len() as u32);
                for u in updates {
                    put_update(buf, u);
                }
            }
            Self::Ack { update_id } => {
                buf.put_u128(update_id.to_bits());
            }
            Self::PullSince { since } => {
                buf.put_u64(*since);
            }
            Self::DeltaResponse { upto, updates } => {
                buf.put_u64(*upto);
                buf.put_u32(updates.len() as u32);
                for u in updates {
                    put_update(buf, u);
                }
            }
        }
    }

    /// Reads the tag-less body for the variant named by `tag`. When
    /// `source` is the receive buffer the payload was sliced from,
    /// variable-length fields (update values) become zero-copy views of
    /// it instead of owned copies.
    fn take_body(tag: u8, buf: &mut &[u8], source: Option<&Bytes>) -> Result<Self, CoreError> {
        Ok(match tag {
            TAG_PUSH => {
                let update = take_update(buf, source)?;
                let push_round = take_u32(buf)?;
                let n = take_u32(buf)? as usize;
                // The count is untrusted: it must fit the bytes that are
                // left, and the entries are sized and built from those
                // bytes — linear in the body, repeats dropped.
                if buf.len() / REPLICA_ENTRY_BYTES < n {
                    return Err(CoreError::decode("truncated u32"));
                }
                let (ids, rest) = buf.split_at(n * REPLICA_ENTRY_BYTES);
                *buf = rest;
                let entries = ids
                    .chunks_exact(REPLICA_ENTRY_BYTES)
                    .map(|id| PeerId::new(u32::from_be_bytes([id[0], id[1], id[2], id[3]])))
                    .collect();
                Self::Push(PushMessage {
                    update,
                    push_round,
                    flood_list: PartialList::from_vec(entries),
                })
            }
            TAG_PULL_REQUEST => {
                let groups = take_u32(buf)? as usize;
                // Sized by what the remaining payload can hold — exact for
                // an honest body — never by the untrusted counts.
                let group_bytes = groups.saturating_mul(DIGEST_GROUP_HEADER_BYTES);
                let mut pairs = Vec::with_capacity(buf.len().saturating_sub(group_bytes) / 16);
                for _ in 0..groups {
                    let key = DataKey::new(take_u64(buf)?);
                    let heads = take_u16(buf)? as usize;
                    for _ in 0..heads {
                        pairs.push((key, VersionId::from_bits(take_u128(buf)?)));
                    }
                }
                Self::PullRequest {
                    digest: StoreDigest::from_pairs(pairs),
                }
            }
            TAG_PULL_RESPONSE => Self::PullResponse {
                updates: take_updates(buf, source)?,
            },
            TAG_ACK => Self::Ack {
                update_id: UpdateId::from_bits(take_u128(buf)?),
            },
            TAG_PULL_SINCE => Self::PullSince {
                since: take_u64(buf)?,
            },
            TAG_DELTA_RESPONSE => Self::DeltaResponse {
                upto: take_u64(buf)?,
                updates: take_updates(buf, source)?,
            },
            other => return Err(CoreError::decode(format!("unknown message tag {other}"))),
        })
    }
}

/// Framed codec: the variant tag becomes the frame kind, the tag-less
/// body the payload, so a framed message costs
/// [`FRAME_HEADER_BYTES`](rumor_wire::FRAME_HEADER_BYTES) plus its body
/// on the wire.
impl rumor_wire::Encode for Message {
    fn kind(&self) -> u8 {
        self.tag()
    }

    fn payload_len(&self) -> usize {
        self.body_len()
    }

    fn encode_payload(&self, buf: &mut BytesMut) {
        self.put_body(buf);
    }

    fn wire_version(&self) -> rumor_wire::WireVersion {
        match self {
            Self::PullSince { .. } | Self::DeltaResponse { .. } => rumor_wire::WireVersion::V2,
            _ => rumor_wire::WireVersion::V1,
        }
    }
}

impl rumor_wire::Decode for Message {
    fn decode_payload(kind: u8, payload: &[u8]) -> Result<Self, rumor_wire::WireError> {
        decode_message_payload(kind, payload, None)
    }

    fn kind_version(kind: u8) -> rumor_wire::WireVersion {
        match kind {
            TAG_PULL_SINCE | TAG_DELTA_RESPONSE => rumor_wire::WireVersion::V2,
            _ => rumor_wire::WireVersion::V1,
        }
    }

    fn decode_payload_bytes(kind: u8, payload: &Bytes) -> Result<Self, rumor_wire::WireError> {
        decode_message_payload(kind, payload, Some(payload))
    }
}

fn decode_message_payload(
    kind: u8,
    payload: &[u8],
    source: Option<&Bytes>,
) -> Result<Message, rumor_wire::WireError> {
    if !matches!(
        kind,
        TAG_PUSH
            | TAG_PULL_REQUEST
            | TAG_PULL_RESPONSE
            | TAG_ACK
            | TAG_PULL_SINCE
            | TAG_DELTA_RESPONSE
    ) {
        return Err(rumor_wire::WireError::UnknownKind { kind });
    }
    let mut buf = payload;
    let msg = Message::take_body(kind, &mut buf, source)
        .map_err(|e| rumor_wire::WireError::malformed(e.to_string()))?;
    if !buf.is_empty() {
        return Err(rumor_wire::WireError::TrailingBytes { count: buf.len() });
    }
    Ok(msg)
}

/// Bytes that open one digest group on the wire: key + head count.
const DIGEST_GROUP_HEADER_BYTES: usize = 8 + 2;

/// The wire groups of a digest: each key's run of heads, a run longer
/// than the `u16` head count can state split into several groups of the
/// same key (the decoder accepts a repeated key).
fn digest_groups(digest: &StoreDigest) -> impl Iterator<Item = &[(DataKey, VersionId)]> {
    digest
        .pairs()
        .chunk_by(|a, b| a.0 == b.0)
        .flat_map(|run| run.chunks(usize::from(u16::MAX)))
}

fn update_len(u: &Update) -> usize {
    // key + origin + lineage(count + ids) + value(flag [+ len + bytes]).
    8 + 4 + 2 + u.lineage().len() * 16 + 1 + u.value().map_or(0, |v| 4 + v.len())
}

fn put_update(buf: &mut BytesMut, u: &Update) {
    buf.put_u64(u.key().as_u64());
    buf.put_u32(u.origin().as_u32());
    buf.put_u16(u.lineage().len() as u16);
    for id in u.lineage().ids() {
        buf.put_u128(id.to_bits());
    }
    match u.value() {
        Some(v) => {
            buf.put_u8(1);
            buf.put_u32(v.len() as u32);
            buf.put_slice(v.as_bytes());
        }
        None => buf.put_u8(0),
    }
}

/// The smallest encoded update: a tombstone with a one-id lineage.
const MIN_UPDATE_BYTES: usize = 8 + 4 + 2 + 16 + 1;

/// Reads a counted update list (the body of both pull answers). The count
/// is untrusted: one the remaining bytes cannot hold is rejected before
/// anything is reserved for it, so the reservation is bounded by the
/// payload — exact for an honest list of smallest updates.
fn take_updates(buf: &mut &[u8], source: Option<&Bytes>) -> Result<Vec<Update>, CoreError> {
    let n = take_u32(buf)? as usize;
    if buf.len() / MIN_UPDATE_BYTES < n {
        return Err(CoreError::decode("truncated update list"));
    }
    let mut updates = Vec::with_capacity(n);
    for _ in 0..n {
        updates.push(take_update(buf, source)?);
    }
    Ok(updates)
}

fn take_update(buf: &mut &[u8], source: Option<&Bytes>) -> Result<Update, CoreError> {
    let key = DataKey::new(take_u64(buf)?);
    let origin = PeerId::new(take_u32(buf)?);
    let n = take_u16(buf)? as usize;
    if n == 0 {
        return Err(CoreError::decode("empty lineage"));
    }
    let mut ids = Vec::with_capacity(n);
    for _ in 0..n {
        ids.push(VersionId::from_bits(take_u128(buf)?));
    }
    let lineage = Lineage::from_ids(ids);
    match take_u8(buf)? {
        0 => Ok(Update::tombstone(key, lineage, origin)),
        1 => {
            let len = take_u32(buf)? as usize;
            if buf.len() < len {
                return Err(CoreError::decode("truncated value"));
            }
            // Zero-copy hot path: view the value out of the receive
            // buffer; fall back to an owned copy when no buffer backs
            // the slice (`decode_frame` over a borrowed `&[u8]`).
            let value = match source {
                Some(src) => Value::new(src.slice_ref(&buf[..len])),
                None => Value::from(buf[..len].to_vec()),
            };
            buf.advance(len);
            Ok(Update::write(key, lineage, value, origin))
        }
        other => Err(CoreError::decode(format!("bad value flag {other}"))),
    }
}

macro_rules! take_int {
    ($name:ident, $ty:ty, $get:ident, $size:expr) => {
        fn $name(buf: &mut &[u8]) -> Result<$ty, CoreError> {
            if buf.len() < $size {
                return Err(CoreError::decode(concat!("truncated ", stringify!($ty))));
            }
            Ok(buf.$get())
        }
    };
}

take_int!(take_u8, u8, get_u8, 1);
take_int!(take_u16, u16, get_u16, 2);
take_int!(take_u32, u32, get_u32, 4);
take_int!(take_u64, u64, get_u64, 8);
take_int!(take_u128, u128, get_u128, 16);

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use rumor_wire::{
        decode_frame, decode_frame_v2, encode_frame, frame_len, Frame, WireError,
        FRAME_HEADER_BYTES, WIRE_VERSION_V2,
    };

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(7)
    }

    fn sample_update(r: &mut ChaCha8Rng) -> Update {
        Update::write(
            DataKey::new(11),
            Lineage::root(r).child(r),
            Value::from("payload"),
            PeerId::new(3),
        )
    }

    fn sample_push(r: &mut ChaCha8Rng) -> Message {
        Message::Push(PushMessage {
            update: sample_update(r),
            push_round: 2,
            flood_list: PartialList::from_peers((0..5).map(PeerId::new)),
        })
    }

    /// Frames `m`, checks the sizer against the real frame, and decodes
    /// it back: through the v2 decoder (which reads both versions' kinds,
    /// zero-copy) and, for a v1 kind, through the v1 slice decoder too.
    fn framed_roundtrip(m: &Message) {
        let frame = encode_frame(m);
        assert_eq!(frame.len(), frame_len(m), "{m:?}");
        assert_eq!(frame[1], m.tag(), "kind byte is the variant tag");
        let mut out = Vec::new();
        decode_frame_v2::<Message>(&frame, &mut out).unwrap();
        assert_eq!(out, std::slice::from_ref(m));
        if frame[0] != WIRE_VERSION_V2 {
            assert_eq!(&decode_frame::<Message>(&frame).unwrap(), m);
        }
    }

    /// A hand-built v1 frame around `payload`.
    fn raw_frame(kind: u8, payload: &[u8]) -> BytesMut {
        let mut buf = BytesMut::new();
        Frame::new(kind, payload.len()).put(&mut buf);
        buf.put_slice(payload);
        buf
    }

    #[test]
    fn push_roundtrip() {
        framed_roundtrip(&sample_push(&mut rng()));
    }

    /// A hand-built `Push` body: a tombstone, then the stated list count
    /// and the ids exactly as given — duplicate-free or not.
    fn push_body(stated_count: u32, ids: impl IntoIterator<Item = u32>) -> BytesMut {
        let update = Update::tombstone(DataKey::new(1), Lineage::root(&mut rng()), PeerId::new(0));
        let mut body = BytesMut::new();
        put_update(&mut body, &update);
        body.put_u32(1); // push round
        body.put_u32(stated_count);
        for id in ids {
            body.put_u32(id);
        }
        body
    }

    fn decoded_flood_list(body: &[u8]) -> PartialList {
        match decode_frame::<Message>(&raw_frame(TAG_PUSH, body)) {
            Ok(Message::Push(push)) => push.flood_list,
            other => panic!("expected a push, got {other:?}"),
        }
    }

    #[test]
    fn push_decode_keeps_the_first_occurrence_of_a_repeated_id_in_wire_order() {
        let ids = [7, u32::MAX, 3, 7, 0, u32::MAX, u32::MAX - 1, 3];
        let list = decoded_flood_list(&push_body(ids.len() as u32, ids));
        let order: Vec<u32> = list.iter().map(|p| p.as_u32()).collect();
        assert_eq!(order, [7, u32::MAX, 3, 0, u32::MAX - 1]);
        assert!(list.contains(PeerId::new(u32::MAX)));
        assert!(list.index_words() <= list.len(), "index sized by entries");
        // The canonical re-encoding round-trips unchanged.
        framed_roundtrip(&Message::Push(PushMessage {
            update: sample_update(&mut rng()),
            push_round: 1,
            flood_list: list,
        }));
    }

    #[test]
    fn push_decode_never_trusts_the_stated_count() {
        // A count beyond what the payload holds is the truncation error,
        // raised before any entry is read or any memory reserved for it.
        for stated in [4, u32::MAX] {
            assert_eq!(
                decode_frame::<Message>(&raw_frame(TAG_PUSH, &push_body(stated, [1, 2, 3]))),
                Err(WireError::malformed(
                    CoreError::decode("truncated u32").to_string()
                ))
            );
        }
        // An under-stated count leaves bytes behind.
        assert_eq!(
            decode_frame::<Message>(&raw_frame(TAG_PUSH, &push_body(2, [1, 2, 3]))),
            Err(WireError::TrailingBytes { count: 4 })
        );
    }

    #[test]
    fn push_decode_is_linear_in_a_million_entry_body() {
        // One id per index word, highest first: an index built by one
        // sorted insert per id would shift ~10^12 bytes here.
        const N: u32 = 1_000_000;
        let body = push_body(N, (0..N).rev().map(|i| i << 6));
        let list = decoded_flood_list(&body);
        assert_eq!(list.len(), N as usize);
        assert_eq!(list.iter().next(), Some(PeerId::new((N - 1) << 6)));
        assert!(list.contains(PeerId::new(0)) && !list.contains(PeerId::new(1)));
        // The same ids twice over decode to the same list.
        let doubled = push_body(2 * N, (0..N).rev().chain(0..N).map(|i| i << 6));
        assert_eq!(decoded_flood_list(&doubled), list);
    }

    #[test]
    fn tombstone_roundtrip() {
        let mut r = rng();
        framed_roundtrip(&Message::Push(PushMessage {
            update: Update::tombstone(DataKey::new(1), Lineage::root(&mut r), PeerId::new(0)),
            push_round: 0,
            flood_list: PartialList::new(),
        }));
    }

    #[test]
    fn pull_request_roundtrip() {
        let mut digest = StoreDigest::new();
        digest.insert(DataKey::new(1), VersionId::from_bits(7));
        digest.insert(DataKey::new(1), VersionId::from_bits(9));
        digest.insert(DataKey::new(2), VersionId::from_bits(3));
        framed_roundtrip(&Message::PullRequest { digest });
    }

    /// A hand-built `PullRequest` body: the stated group count, then each
    /// `(key, heads)` group exactly as given — canonical or not.
    fn pull_request_body(stated_groups: u32, groups: &[(u64, &[u128])]) -> BytesMut {
        let mut body = BytesMut::new();
        body.put_u32(stated_groups);
        for (key, heads) in groups {
            body.put_u64(*key);
            body.put_u16(heads.len() as u16);
            for h in *heads {
                body.put_u128(*h);
            }
        }
        body
    }

    #[test]
    fn pull_request_decode_canonicalises_crafted_bodies() {
        // Unsorted heads, duplicate heads, keys out of order, a repeated
        // key and a zero-head key: all legal on the wire, all decode to
        // the digest the one-insert-per-head loop produced.
        let groups: &[(u64, &[u128])] = &[
            (7, &[9, 3, 9, 5]),
            (2, &[]),
            (1, &[4]),
            (7, &[1, 3]),
            (1, &[4, 2]),
        ];
        let mut expected = StoreDigest::new();
        for (key, heads) in groups {
            for h in *heads {
                expected.insert(DataKey::new(*key), VersionId::from_bits(*h));
            }
        }
        let body = pull_request_body(groups.len() as u32, groups);
        let decoded = decode_frame::<Message>(&raw_frame(TAG_PULL_REQUEST, &body)).unwrap();
        assert_eq!(decoded, Message::PullRequest { digest: expected });
        // Re-encoding is canonical: ascending keys, ascending heads, one
        // group per key, no empty group — and round-trips unchanged.
        let canonical = pull_request_body(2, &[(1, &[2, 4]), (7, &[1, 3, 5, 9])]);
        assert_eq!(
            &encode_frame(&decoded)[FRAME_HEADER_BYTES..],
            canonical.as_ref()
        );
        framed_roundtrip(&decoded);
    }

    #[test]
    fn pull_request_decode_never_trusts_the_stated_counts() {
        // An over-stated group count, an over-stated head count and a
        // count far beyond the payload are typed errors — reached without
        // reserving memory for what the counts merely claim.
        let honest: &[(u64, &[u128])] = &[(1, &[4, 2])];
        let mut overstated_heads = pull_request_body(1, honest);
        overstated_heads[4 + 8..4 + 8 + 2].copy_from_slice(&u16::MAX.to_be_bytes());
        for body in [
            pull_request_body(2, honest),
            pull_request_body(u32::MAX, honest),
            pull_request_body(u32::MAX, &[]),
            overstated_heads,
        ] {
            assert!(matches!(
                decode_frame::<Message>(&raw_frame(TAG_PULL_REQUEST, &body)),
                Err(WireError::Malformed { .. })
            ));
        }
        // An under-stated count leaves bytes behind.
        assert!(matches!(
            decode_frame::<Message>(&raw_frame(TAG_PULL_REQUEST, &pull_request_body(0, honest))),
            Err(WireError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn a_run_longer_than_u16_is_emitted_as_several_groups_of_one_key() {
        let heads = usize::from(u16::MAX) + 2;
        let digest: StoreDigest = (0..heads as u128)
            .map(|h| (DataKey::new(3), VersionId::from_bits(h)))
            .chain([(DataKey::new(4), VersionId::from_bits(0))])
            .collect();
        let m = Message::PullRequest { digest };
        let frame = encode_frame(&m);
        let body = &frame[FRAME_HEADER_BYTES..];
        assert_eq!(
            body[..4],
            3u32.to_be_bytes(),
            "two groups of key 3, one of 4"
        );
        assert_eq!(body[4 + 8..4 + 8 + 2], u16::MAX.to_be_bytes());
        framed_roundtrip(&m);
    }

    #[test]
    fn pull_response_roundtrip() {
        let mut r = rng();
        framed_roundtrip(&Message::PullResponse {
            updates: vec![sample_update(&mut r), sample_update(&mut r)],
        });
    }

    #[test]
    fn ack_roundtrip() {
        framed_roundtrip(&Message::Ack {
            update_id: UpdateId::from_bits(123456789),
        });
    }

    #[test]
    fn pull_since_and_delta_roundtrip() {
        let mut r = rng();
        for m in [
            Message::PullSince { since: 0 },
            Message::PullSince { since: u64::MAX },
            Message::DeltaResponse {
                upto: 9,
                updates: vec![sample_update(&mut r), sample_update(&mut r)],
            },
        ] {
            framed_roundtrip(&m);
        }
    }

    #[test]
    fn encoded_len_matches_actual_for_all_variants() {
        let mut r = rng();
        let mut digest = StoreDigest::new();
        digest.insert(DataKey::new(5), VersionId::from_bits(1));
        let messages = vec![
            sample_push(&mut r),
            Message::PullRequest { digest },
            Message::PullResponse {
                updates: vec![sample_update(&mut r)],
            },
            Message::PullResponse { updates: vec![] },
            Message::Ack {
                update_id: UpdateId::from_bits(5),
            },
            Message::PullSince { since: 42 },
            Message::DeltaResponse {
                upto: 7,
                updates: vec![sample_update(&mut r)],
            },
            Message::DeltaResponse {
                upto: 0,
                updates: vec![],
            },
        ];
        for m in messages {
            assert_eq!(frame_len(&m), encode_frame(&m).len(), "{m:?}");
            assert_eq!(frame_len(&m), FRAME_HEADER_BYTES + m.body_len(), "{m:?}");
        }
    }

    #[test]
    fn push_length_grows_delta_per_list_entry() {
        // L_M = |U| + const + δ·|R_f| (§4.2).
        let mut r = rng();
        let update = sample_update(&mut r);
        let len_with = |n: u32| {
            frame_len(&Message::Push(PushMessage {
                update: update.clone(),
                push_round: 1,
                flood_list: PartialList::from_peers((0..n).map(PeerId::new)),
            }))
        };
        assert_eq!(len_with(10) - len_with(0), 10 * REPLICA_ENTRY_BYTES);
    }

    #[test]
    fn decode_rejects_truncation() {
        let bytes = encode_frame(&sample_push(&mut rng()));
        for cut in [0, 1, FRAME_HEADER_BYTES, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_frame::<Message>(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let m = Message::Ack {
            update_id: UpdateId::from_bits(1),
        };
        // Past the frame: the header's declared length no longer matches.
        let mut bytes = encode_frame(&m).to_vec();
        bytes.push(0);
        assert!(matches!(
            decode_frame::<Message>(&bytes),
            Err(WireError::LengthMismatch { .. })
        ));
        // Inside the frame: a consistent header around an over-long body.
        let mut payload = bytes[FRAME_HEADER_BYTES..].to_vec();
        payload.push(0);
        assert_eq!(
            decode_frame::<Message>(&raw_frame(TAG_ACK, &payload)),
            Err(WireError::TrailingBytes { count: 2 })
        );
    }

    #[test]
    fn framed_decode_rejects_unknown_kind_and_malformed_body() {
        let m = sample_push(&mut rng());
        let mut bytes = encode_frame(&m).to_vec();
        bytes[1] = 200; // frame kind byte
        assert_eq!(
            decode_frame::<Message>(&bytes),
            Err(WireError::UnknownKind { kind: 200 })
        );
        // Truncate the payload but fix up the declared length: the body
        // decoder must reject it as malformed rather than panic.
        let full = encode_frame(&m);
        let truncated = raw_frame(TAG_PUSH, &full[FRAME_HEADER_BYTES..full.len() - 3]);
        assert!(matches!(
            decode_frame::<Message>(&truncated),
            Err(WireError::Malformed { .. })
        ));
    }

    #[test]
    fn v2_kinds_are_framed_as_wire_v2_and_rejected_by_the_v1_decoder() {
        let mut r = rng();
        let messages = vec![
            Message::PullSince { since: 3 },
            Message::DeltaResponse {
                upto: 5,
                updates: vec![sample_update(&mut r)],
            },
        ];
        for m in messages {
            let frame = encode_frame(&m);
            assert_eq!(frame[0], WIRE_VERSION_V2, "v2 kinds carry the v2 byte");
            assert_eq!(
                decode_frame::<Message>(&frame),
                Err(WireError::BadVersion {
                    found: WIRE_VERSION_V2
                }),
                "the v1 decoder must reject {m:?}"
            );
            let mut out = Vec::new();
            decode_frame_v2::<Message>(&frame, &mut out).unwrap();
            assert_eq!(out, vec![m]);
        }
    }

    #[test]
    fn framed_zero_copy_decode_views_values_out_of_the_frame() {
        let m = Message::DeltaResponse {
            upto: 1,
            updates: vec![Update::write(
                DataKey::new(4),
                Lineage::root(&mut rng()),
                Value::from("zero-copy payload"),
                PeerId::new(2),
            )],
        };
        let frame = encode_frame(&m);
        let mut out = Vec::new();
        decode_frame_v2::<Message>(&frame, &mut out).unwrap();
        let Message::DeltaResponse { updates, .. } = &out[0] else {
            panic!("wrong variant");
        };
        let value = updates[0].value().unwrap();
        let frame_base = frame.as_ref().as_ptr() as usize;
        let value_base = value.as_bytes().as_ptr() as usize;
        assert!(
            value_base >= frame_base + FRAME_HEADER_BYTES && value_base < frame_base + frame.len(),
            "value bytes must point into the receive buffer"
        );
    }

    #[test]
    fn decode_rejects_empty_lineage() {
        // Hand-craft a push whose update claims zero lineage entries.
        let mut payload = BytesMut::new();
        payload.put_u64(1); // key
        payload.put_u32(0); // origin
        payload.put_u16(0); // empty lineage
        let Err(WireError::Malformed { reason }) =
            decode_frame::<Message>(&raw_frame(TAG_PUSH, &payload))
        else {
            panic!("an empty lineage must be malformed");
        };
        assert!(reason.contains("empty lineage"), "{reason}");
    }
}
