//! From-scratch binary wire format for inter-edgelet communication.
//!
//! Every message exchanged between edgelets in the execution protocols is
//! serialized with this crate. The format is deliberately small and fully
//! specified here:
//!
//! * integers use LEB128 **varints** ([`varint`]), signed values are
//!   zigzag-mapped first;
//! * composite values implement [`Encode`]/[`Decode`] ([`codec`]);
//! * on-the-wire messages are wrapped in a **frame** with magic, version,
//!   length and a CRC-32 checksum ([`frame`], [`crc`]), so that the network
//!   simulator can also exercise corruption handling.
//!
//! The format is self-contained (no serde, no external format crate), which
//! keeps message sizes — a first-order cost in opportunistic networks —
//! fully under our control and measurable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod crc;
pub mod frame;
pub mod transport;
pub mod varint;

pub use codec::{Decode, Encode, Reader, Writer};
pub use frame::{encode_framed, FrameView, FRAME_MAGIC, FRAME_VERSION};
pub use transport::{Envelope, Transport, TransportError, ENVELOPE_VERSION};

use edgelet_util::{Payload, Result};

/// Encodes a value into a fresh byte vector.
pub fn to_bytes<T: Encode>(value: &T) -> Vec<u8> {
    let mut w = Writer::new();
    value.encode(&mut w);
    w.into_bytes()
}

/// Encodes a value straight into a shareable [`Payload`] — the encode
/// buffer is handed over, never re-copied, so the result can fan out to
/// any number of recipients for free.
pub fn to_payload<T: Encode>(value: &T) -> Payload {
    let mut w = Writer::new();
    value.encode(&mut w);
    w.into_payload()
}

/// Decodes a value from bytes, requiring full consumption of the input.
pub fn from_bytes<T: Decode>(bytes: &[u8]) -> Result<T> {
    let mut r = Reader::new(bytes);
    let v = T::decode(&mut r)?;
    r.expect_end()?;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgelet_util::Error;

    #[test]
    fn to_from_bytes_roundtrip() {
        let v: Vec<u32> = vec![1, 2, 3, 500_000];
        let bytes = to_bytes(&v);
        let back: Vec<u32> = from_bytes(&bytes).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn to_payload_matches_to_bytes() {
        let v: Vec<u32> = vec![1, 2, 3, 500_000];
        let payload = to_payload(&v);
        assert_eq!(payload.as_slice(), to_bytes(&v).as_slice());
        let back: Vec<u32> = from_bytes(&payload).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn from_bytes_rejects_trailing_garbage() {
        let mut bytes = to_bytes(&42u64);
        bytes.push(0xFF);
        let err = from_bytes::<u64>(&bytes).unwrap_err();
        assert!(matches!(err, Error::Decode(_)));
    }
}
