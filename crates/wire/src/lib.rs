//! `rumor-wire` — the versioned, length-prefixed binary wire codec for
//! the update protocol's message sets.
//!
//! The paper's message-length analysis (§4.2) is stated in bytes —
//! `L_M(t) = |U| + R · δ · l(t)` — and systems it compares against (CUP,
//! DHT replication stores) measure propagation cost in bytes on the
//! wire, not abstract message counts. This crate pins down that wire
//! format: every message travels as a [`Frame`] — a 6-byte header
//! carrying the codec [`WIRE_VERSION`], a message-kind discriminant and
//! an explicit payload length — followed by a big-endian payload.
//!
//! The crate deliberately knows nothing about any concrete message set.
//! It defines the [`Encode`]/[`Decode`] trait pair and the framing
//! functions; `rumor-core` implements them for the paper protocol's
//! messages (updates, tombstones, digests, partial replica lists) and
//! `rumor-baselines` for the flooding and Demers message sets. The
//! live runtime in `rumor-cluster` round-trips every message
//! through this codec, and the engines' wire-size accounting uses
//! [`frame_len`] to report bandwidth next to message counts.
//!
//! Two codec versions coexist. Wire v1 frames one message per frame;
//! wire v2 ([`WireVersion::V2`]) adds per-peer batch frames
//! ([`BatchEncoder`], one header amortised over many sub-frames),
//! v2-only message kinds (delta pulls in `rumor-core`) and a zero-copy
//! decode path ([`Decode::decode_payload_bytes`],
//! [`decode_frame_v2`]) that slices payload fields straight out of the
//! receive buffer. The v1 decoder ([`decode_frame`]) rejects every v2
//! frame and kind; the v2 decoder accepts both versions but enforces
//! version↔kind consistency so header forgeries stay undecodable.
//!
//! Decoding is strict — truncated input, foreign versions, unknown
//! kinds, length mismatches and trailing bytes are all distinct
//! [`WireError`]s, never panics (see [`Reader`]). The flip side of that
//! strictness is testable: [`FrameCorruption`] and [`garbage_frame`]
//! construct deliberately malformed frames (header flips, truncations,
//! version and length forgeries) for the Byzantine fault injector and
//! the codec's own rejection suites — frame surgery stays in this crate
//! so nobody else ever touches header bytes.
//!
//! # Examples
//!
//! ```
//! use bytes::{BufMut, BytesMut};
//! use rumor_wire::{decode_frame, encode_frame, Decode, Encode, Reader, WireError};
//!
//! #[derive(Debug, PartialEq)]
//! struct Hello { seq: u32 }
//!
//! impl Encode for Hello {
//!     fn kind(&self) -> u8 { 1 }
//!     fn payload_len(&self) -> usize { 4 }
//!     fn encode_payload(&self, buf: &mut BytesMut) { buf.put_u32(self.seq); }
//! }
//! impl Decode for Hello {
//!     fn decode_payload(kind: u8, payload: &[u8]) -> Result<Self, WireError> {
//!         if kind != 1 { return Err(WireError::UnknownKind { kind }); }
//!         let mut r = Reader::new(payload);
//!         let msg = Hello { seq: r.u32()? };
//!         r.finish()?;
//!         Ok(msg)
//!     }
//! }
//!
//! let frame = encode_frame(&Hello { seq: 9 });
//! assert_eq!(decode_frame::<Hello>(&frame)?, Hello { seq: 9 });
//! # Ok::<(), WireError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod corrupt;
mod error;
mod frame;
mod reader;

pub use batch::{batch_frame_len, decode_frame_v2, BatchEncoder, BATCH_SUBHEADER_BYTES};
pub use corrupt::{garbage_frame, FrameCorruption};
pub use error::WireError;
pub use frame::{
    decode_frame, encode_frame, encode_frame_into, frame_len, Decode, Encode, Frame, WireVersion,
    FRAME_HEADER_BYTES, KIND_BATCH, WIRE_VERSION, WIRE_VERSION_V2,
};
pub use reader::Reader;

// Re-exported because the zero-copy decode surface
// ([`decode_frame_v2`], [`Decode::decode_payload_bytes`]) speaks in
// `Bytes` views; callers should not need a direct `bytes` dependency.
pub use bytes::Bytes;
