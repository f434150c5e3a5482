//! `Encode`/`Decode` traits and implementations for the core types.
//!
//! Length-prefixed collections are capped at [`MAX_SEQUENCE_LEN`] elements so
//! a corrupted length byte cannot trigger a multi-gigabyte allocation — the
//! decoder is fed by a simulated lossy network, so hostile-looking input is
//! a normal test case, not an anomaly.

use crate::varint;
use bytes::{BufMut, BytesMut};
use edgelet_util::ids::{DeviceId, MessageId, OperatorId, PartitionId, QueryId};
use edgelet_util::{Error, Payload, Result};
use std::collections::BTreeMap;

/// Upper bound on decoded sequence lengths (elements, not bytes).
pub const MAX_SEQUENCE_LEN: u64 = 16 * 1024 * 1024;

/// Serialization sink.
#[derive(Debug, Default)]
pub struct Writer {
    buf: BytesMut,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self {
            buf: BytesMut::new(),
        }
    }

    /// Creates a writer with a pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: BytesMut::with_capacity(cap),
        }
    }

    /// Appends a varint.
    pub fn put_varint(&mut self, v: u64) {
        let mut tmp = [0u8; varint::MAX_VARINT_LEN];
        let n = varint::write_u64_into(&mut tmp, v);
        self.buf.put_slice(&tmp[..n]);
    }

    /// Appends raw bytes without a length prefix.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.put_slice(bytes);
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_varint(bytes.len() as u64);
        self.buf.put_slice(bytes);
    }

    /// Finishes and returns the encoded bytes, handing over the internal
    /// buffer (no copy).
    pub fn into_bytes(self) -> Vec<u8> {
        Vec::from(self.buf)
    }

    /// Finishes into a shareable [`Payload`], still without copying: the
    /// buffer moves behind the payload's reference count.
    pub fn into_payload(self) -> Payload {
        Payload::from(self.into_bytes())
    }
}

/// Deserialization source with position tracking.
#[derive(Debug)]
pub struct Reader<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps an input buffer.
    pub fn new(input: &'a [u8]) -> Self {
        Self { input, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.input.len() - self.pos
    }

    /// The bytes not yet consumed, for a decoder that walks them in a
    /// loop of its own and then consumes what it read with [`Reader::raw`].
    pub fn unread(&self) -> &'a [u8] {
        &self.input[self.pos..]
    }

    /// Reads a varint.
    #[inline]
    pub fn varint(&mut self) -> Result<u64> {
        let (v, used) = varint::read_u64(&self.input[self.pos..])?;
        self.pos += used;
        Ok(v)
    }

    /// Reads exactly `n` raw bytes.
    #[inline]
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(Error::Decode(format!(
                "need {n} bytes, have {}",
                self.remaining()
            )));
        }
        let out = &self.input[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a length-prefixed byte string.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.varint()?;
        if len > MAX_SEQUENCE_LEN {
            return Err(Error::Decode(format!("byte string length {len} too large")));
        }
        self.raw(len as usize)
    }

    /// Reads a length-prefixed UTF-8 string in place: the one grammar
    /// of every text on the wire, owned ([`String::decode`]) or not.
    #[inline]
    pub fn str(&mut self) -> Result<&'a str> {
        std::str::from_utf8(self.bytes()?).map_err(|_| Error::Decode("invalid utf-8".into()))
    }

    /// Reads a sequence length, enforcing the cap.
    #[inline]
    pub fn seq_len(&mut self) -> Result<usize> {
        let len = self.varint()?;
        if len > MAX_SEQUENCE_LEN {
            return Err(Error::Decode(format!("sequence length {len} too large")));
        }
        Ok(len as usize)
    }

    /// Reads a sequence length and pre-validates it against the input:
    /// every element of a well-formed sequence occupies at least
    /// `min_item_bytes`, so a declared length that cannot possibly fit in
    /// the remaining bytes is rejected here — once, up front — rather
    /// than failing midway through per-item decoding. Because the result
    /// is bounded by the input size, callers can `Vec::with_capacity` it
    /// exactly instead of growing (and re-allocating) per item.
    #[inline]
    pub fn seq_len_for(&mut self, min_item_bytes: usize) -> Result<usize> {
        let len = self.seq_len()?;
        let need = len.saturating_mul(min_item_bytes.max(1));
        if need > self.remaining() {
            return Err(Error::Decode(format!(
                "sequence of {len} items needs >= {need} bytes, have {}",
                self.remaining()
            )));
        }
        Ok(len)
    }

    /// Fails unless the input is fully consumed.
    pub fn expect_end(&self) -> Result<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(Error::Decode(format!(
                "{} trailing bytes after value",
                self.remaining()
            )))
        }
    }
}

/// A value that can be serialized to the Edgelet wire format.
pub trait Encode {
    /// Appends the encoding of `self` to the writer.
    fn encode(&self, w: &mut Writer);
}

/// A value that can be deserialized from the Edgelet wire format.
pub trait Decode: Sized {
    /// Reads one value from the reader.
    fn decode(r: &mut Reader<'_>) -> Result<Self>;
}

// ---- primitive integers ----

macro_rules! impl_uint {
    ($($ty:ty),*) => {$(
        impl Encode for $ty {
            fn encode(&self, w: &mut Writer) {
                w.put_varint(u64::from(*self));
            }
        }
        impl Decode for $ty {
            #[inline]
            fn decode(r: &mut Reader<'_>) -> Result<Self> {
                let v = r.varint()?;
                <$ty>::try_from(v)
                    .map_err(|_| Error::Decode(format!("{v} out of range for {}", stringify!($ty))))
            }
        }
    )*};
}

impl_uint!(u8, u16, u32);

impl Encode for u64 {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(*self);
    }
}

impl Decode for u64 {
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        r.varint()
    }
}

impl Encode for usize {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(*self as u64);
    }
}

impl Decode for usize {
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let v = r.varint()?;
        usize::try_from(v).map_err(|_| Error::Decode(format!("{v} out of range for usize")))
    }
}

macro_rules! impl_sint {
    ($($ty:ty),*) => {$(
        impl Encode for $ty {
            fn encode(&self, w: &mut Writer) {
                w.put_varint(varint::zigzag(i64::from(*self)));
            }
        }
        impl Decode for $ty {
            #[inline]
            fn decode(r: &mut Reader<'_>) -> Result<Self> {
                let v = varint::unzigzag(r.varint()?);
                <$ty>::try_from(v)
                    .map_err(|_| Error::Decode(format!("{v} out of range for {}", stringify!($ty))))
            }
        }
    )*};
}

impl_sint!(i8, i16, i32);

impl Encode for i64 {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(varint::zigzag(*self));
    }
}

impl Decode for i64 {
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(varint::unzigzag(r.varint()?))
    }
}

impl Encode for bool {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(u64::from(*self));
    }
}

impl Decode for bool {
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match r.varint()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(Error::Decode(format!("invalid bool {other}"))),
        }
    }
}

impl Encode for f64 {
    fn encode(&self, w: &mut Writer) {
        w.put_raw(&self.to_le_bytes());
    }
}

impl Decode for f64 {
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let raw = r.raw(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(raw);
        Ok(f64::from_le_bytes(arr))
    }
}

impl Encode for f32 {
    fn encode(&self, w: &mut Writer) {
        w.put_raw(&self.to_le_bytes());
    }
}

impl Decode for f32 {
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let raw = r.raw(4)?;
        let mut arr = [0u8; 4];
        arr.copy_from_slice(raw);
        Ok(f32::from_le_bytes(arr))
    }
}

// ---- strings and containers ----

impl Encode for String {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(self.as_bytes());
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        // Validate in place, then copy once: rejecting bad UTF-8 before
        // the allocation keeps the error path allocation-free and the
        // happy path a plain memcpy.
        r.str().map(str::to_owned)
    }
}

impl Encode for &str {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(self.as_bytes());
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.len() as u64);
        for item in self {
            item.encode(w);
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        self.as_slice().encode(w);
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        // Fast path: the length is pre-validated against the remaining
        // bytes (each element costs at least one), so the buffer can be
        // reserved exactly once — no per-item growth, and a hostile
        // length prefix fails before any allocation proportional to it.
        let len = r.seq_len_for(1)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.put_varint(0),
            Some(v) => {
                w.put_varint(1);
                v.encode(w);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match r.varint()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            other => Err(Error::Decode(format!("invalid option tag {other}"))),
        }
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Encode, B: Encode, C: Encode> Encode for (A, B, C) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
}

impl<A: Decode, B: Decode, C: Decode> Decode for (A, B, C) {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

impl<K: Encode + Ord, V: Encode> Encode for BTreeMap<K, V> {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.len() as u64);
        for (k, v) in self {
            k.encode(w);
            v.encode(w);
        }
    }
}

impl<K: Decode + Ord, V: Decode> Decode for BTreeMap<K, V> {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        // Decode flat, then bulk-build: `BTreeMap::from_iter` sorts
        // stably (linear on the ascending order the encoder emits),
        // keeps the last value of a duplicate key, and fills nodes
        // left to right instead of descending the tree once per entry.
        let entries = Vec::<(K, V)>::decode(r)?;
        Ok(entries.into_iter().collect())
    }
}

impl<const N: usize> Encode for [u8; N] {
    fn encode(&self, w: &mut Writer) {
        w.put_raw(self);
    }
}

impl<const N: usize> Decode for [u8; N] {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let raw = r.raw(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(raw);
        Ok(out)
    }
}

// ---- id newtypes ----

macro_rules! impl_id {
    ($($ty:ty),*) => {$(
        impl Encode for $ty {
            fn encode(&self, w: &mut Writer) {
                w.put_varint(self.raw());
            }
        }
        impl Decode for $ty {
            #[inline]
            fn decode(r: &mut Reader<'_>) -> Result<Self> {
                Ok(<$ty>::new(r.varint()?))
            }
        }
    )*};
}

impl_id!(DeviceId, OperatorId, QueryId, MessageId, PartitionId);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{from_bytes, to_bytes};
    use proptest::prelude::*;

    #[test]
    fn hostile_sequence_length_is_rejected_before_decoding() {
        // A length prefix claiming 1M items over a 3-byte payload must
        // fail at the length check, not midway through item decoding.
        let mut w = Writer::new();
        w.put_varint(1_000_000);
        w.put_raw(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let err = from_bytes::<Vec<u64>>(&bytes).unwrap_err();
        assert!(err.to_string().contains("needs >="), "{err}");
        // Exact pre-reservation still decodes well-formed sequences.
        let v: Vec<u64> = (0..500).collect();
        assert_eq!(from_bytes::<Vec<u64>>(&to_bytes(&v)).unwrap(), v);
    }

    #[test]
    fn primitive_roundtrips() {
        assert_eq!(from_bytes::<u8>(&to_bytes(&200u8)).unwrap(), 200);
        assert_eq!(from_bytes::<u16>(&to_bytes(&60_000u16)).unwrap(), 60_000);
        assert_eq!(
            from_bytes::<u32>(&to_bytes(&4_000_000u32)).unwrap(),
            4_000_000
        );
        assert_eq!(from_bytes::<u64>(&to_bytes(&u64::MAX)).unwrap(), u64::MAX);
        assert_eq!(from_bytes::<i32>(&to_bytes(&-77i32)).unwrap(), -77);
        assert_eq!(from_bytes::<i64>(&to_bytes(&i64::MIN)).unwrap(), i64::MIN);
        assert!(from_bytes::<bool>(&to_bytes(&true)).unwrap());
        assert_eq!(from_bytes::<f64>(&to_bytes(&-1.5f64)).unwrap(), -1.5);
        assert_eq!(from_bytes::<f32>(&to_bytes(&2.25f32)).unwrap(), 2.25);
        assert_eq!(
            from_bytes::<usize>(&to_bytes(&123_456usize)).unwrap(),
            123_456
        );
    }

    #[test]
    fn out_of_range_narrowing_fails() {
        let wide = to_bytes(&300u64);
        assert!(from_bytes::<u8>(&wide).is_err());
        let neg = to_bytes(&(i64::from(i32::MIN) - 1));
        assert!(from_bytes::<i32>(&neg).is_err());
    }

    #[test]
    fn invalid_bool_and_option_tags_fail() {
        let two = to_bytes(&2u64);
        assert!(from_bytes::<bool>(&two).is_err());
        assert!(from_bytes::<Option<u64>>(&two).is_err());
    }

    #[test]
    fn string_roundtrip_and_invalid_utf8() {
        let s = "héllo — edgelet".to_string();
        assert_eq!(from_bytes::<String>(&to_bytes(&s)).unwrap(), s);
        let mut bad = Writer::new();
        bad.put_bytes(&[0xFF, 0xFE]);
        assert!(from_bytes::<String>(&bad.into_bytes()).is_err());
    }

    #[test]
    fn containers_roundtrip() {
        let v = vec![Some(3u32), None, Some(7)];
        assert_eq!(from_bytes::<Vec<Option<u32>>>(&to_bytes(&v)).unwrap(), v);
        let mut m = BTreeMap::new();
        m.insert("a".to_string(), 1u64);
        m.insert("b".to_string(), 2u64);
        assert_eq!(
            from_bytes::<BTreeMap<String, u64>>(&to_bytes(&m)).unwrap(),
            m
        );
        let t = (1u32, "x".to_string(), -9i64);
        assert_eq!(from_bytes::<(u32, String, i64)>(&to_bytes(&t)).unwrap(), t);
        let arr = [7u8; 16];
        assert_eq!(from_bytes::<[u8; 16]>(&to_bytes(&arr)).unwrap(), arr);
    }

    #[test]
    fn hostile_length_is_rejected_without_allocation() {
        // A vec claiming u64::MAX/2 elements must fail fast.
        let mut w = Writer::new();
        w.put_varint(u64::MAX / 2);
        let bytes = w.into_bytes();
        assert!(from_bytes::<Vec<u64>>(&bytes).is_err());
        assert!(from_bytes::<String>(&bytes).is_err());
    }

    #[test]
    fn map_decode_keeps_last_duplicate_and_bounds_its_length() {
        // Non-canonical input: unsorted, key 5 twice. The bulk build
        // must agree with one-by-one insertion — last value wins.
        let mut w = Writer::new();
        w.put_varint(4);
        for (k, v) in [(5u64, 1u64), (2, 7), (5, 9), (1, 3)] {
            w.put_varint(k);
            w.put_varint(v);
        }
        let got = from_bytes::<BTreeMap<u64, u64>>(&w.into_bytes()).unwrap();
        assert_eq!(got, BTreeMap::from([(1, 3), (2, 7), (5, 9)]));
        // A length the input cannot hold fails at the length check,
        // before anything proportional to it is reserved.
        let mut w = Writer::new();
        w.put_varint(MAX_SEQUENCE_LEN);
        w.put_raw(&[1, 2, 3, 4]);
        let err = from_bytes::<BTreeMap<u64, u64>>(&w.into_bytes()).unwrap_err();
        assert!(err.to_string().contains("needs >="), "{err}");
    }

    #[test]
    fn ids_roundtrip() {
        let d = DeviceId::new(17);
        assert_eq!(from_bytes::<DeviceId>(&to_bytes(&d)).unwrap(), d);
        let p = PartitionId::new(3);
        assert_eq!(from_bytes::<PartitionId>(&to_bytes(&p)).unwrap(), p);
    }

    #[test]
    fn truncation_always_errors_never_panics() {
        let v: Vec<String> = vec!["alpha".into(), "beta".into()];
        let bytes = to_bytes(&v);
        for cut in 0..bytes.len() {
            assert!(from_bytes::<Vec<String>>(&bytes[..cut]).is_err());
        }
    }

    proptest! {
        #[test]
        fn prop_u64_roundtrip(v in any::<u64>()) {
            prop_assert_eq!(from_bytes::<u64>(&to_bytes(&v)).unwrap(), v);
        }

        #[test]
        fn prop_i64_roundtrip(v in any::<i64>()) {
            prop_assert_eq!(from_bytes::<i64>(&to_bytes(&v)).unwrap(), v);
        }

        #[test]
        fn prop_string_roundtrip(s in ".*") {
            prop_assert_eq!(from_bytes::<String>(&to_bytes(&s)).unwrap(), s);
        }

        #[test]
        fn prop_vec_f64_roundtrip(v in prop::collection::vec(any::<f64>(), 0..64)) {
            let back = from_bytes::<Vec<f64>>(&to_bytes(&v)).unwrap();
            prop_assert_eq!(v.len(), back.len());
            for (a, b) in v.iter().zip(&back) {
                prop_assert!(a.to_bits() == b.to_bits());
            }
        }

        #[test]
        fn prop_map_decode_matches_one_by_one_insertion(
            pairs in prop::collection::vec((0u64..16, any::<u64>()), 0..48)
        ) {
            // A `Vec<(K, V)>` shares the map's wire form, so this feeds
            // the decoder unsorted keys with duplicates.
            let decoded = from_bytes::<BTreeMap<u64, u64>>(&to_bytes(&pairs)).unwrap();
            let mut expected = BTreeMap::new();
            for (k, v) in pairs {
                expected.insert(k, v);
            }
            prop_assert_eq!(decoded, expected);
        }

        #[test]
        fn prop_random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
            // Decoding arbitrary bytes must return Ok or Err, never panic.
            let _ = from_bytes::<Vec<String>>(&bytes);
            let _ = from_bytes::<BTreeMap<String, u64>>(&bytes);
            let _ = from_bytes::<(u64, Option<String>)>(&bytes);
        }
    }
}
