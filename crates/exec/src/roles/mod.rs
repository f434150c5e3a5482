//! Protocol actors, one per operator role, plus shared plumbing.

pub mod builder;
pub mod combiner;
pub mod computer;
pub mod contributor;
pub mod kmeans;
pub mod querier;

use crate::messages::Msg;
use edgelet_crypto::aead::ChaCha20Poly1305;
use edgelet_crypto::hmac::hkdf;
use edgelet_util::ids::{DeviceId, QueryId};
use edgelet_util::{Error, Payload, Result};
use edgelet_wire::{encode_framed, Encode, FrameView};

/// Wraps/unwraps protocol messages for the network, optionally sealing
/// them with a query-scoped AEAD key.
///
/// On the wire: `0x00 || frame` (plaintext) or `0x01 || nonce(12) ||
/// ciphertext` (sealed). Real deployments derive pairwise channel keys
/// via attested X25519 handshakes (see `edgelet_tee::channel`); sealing
/// under one query key models the byte and CPU cost without simulating a
/// handshake per operator pair.
#[derive(Debug, Clone)]
pub struct Sealer {
    cipher: Option<ChaCha20Poly1305>,
    device: DeviceId,
    counter: u64,
}

impl Sealer {
    /// Derives the query-scoped key from a root secret, or passes through
    /// when `encrypt` is false.
    pub fn new(encrypt: bool, root: &[u8; 32], query: QueryId, device: DeviceId) -> Self {
        let cipher = encrypt.then(|| {
            let info = query.raw().to_le_bytes();
            let key_bytes = hkdf(b"edgelet-query-key", root, &info, 32);
            let mut key = [0u8; 32];
            key.copy_from_slice(&key_bytes);
            ChaCha20Poly1305::new(key)
        });
        Self {
            cipher,
            device,
            counter: 0,
        }
    }

    /// Back to the first nonce, as [`Sealer::new`] leaves it.
    pub fn restart(&mut self) {
        self.counter = 0;
    }

    /// Serializes a message for the network. The result is a shareable
    /// [`Payload`]: sending it to every replica of an operator reuses one
    /// buffer instead of copying the bytes per recipient.
    pub fn wrap(&mut self, msg: &Msg) -> Payload {
        self.wrap_as(msg.kind(), msg)
    }

    /// [`Sealer::wrap`] for a body that was never built as a [`Msg`]:
    /// `body` writes the message tag and fields itself, straight from
    /// where the sender holds them, under frame kind `kind`.
    pub(crate) fn wrap_as(&mut self, kind: u16, body: &impl Encode) -> Payload {
        // Marker, nonce, frame and tag share one buffer: the message is
        // encoded once and never copied again.
        let out = match &self.cipher {
            None => encode_framed(&[0x00], kind, body),
            Some(cipher) => {
                let mut nonce = [0u8; 12];
                nonce[..4].copy_from_slice(&(self.device.raw() as u32).to_le_bytes());
                nonce[4..].copy_from_slice(&self.counter.to_le_bytes());
                self.counter += 1;
                let mut prefix = [0x01; 13];
                prefix[1..].copy_from_slice(&nonce);
                let mut out = encode_framed(&prefix, kind, body);
                cipher.seal_in_place(&nonce, &[], &mut out, prefix.len());
                out
            }
        };
        Payload::new(out)
    }

    /// Parses bytes from the network into a message. Fails on
    /// corruption, tampering, or an encryption-mode mismatch.
    pub fn unwrap(&self, bytes: &[u8]) -> Result<Msg> {
        self.open(bytes, Msg::from_frame)
    }

    /// The one verify/decrypt path: checks the marker, opens a sealed
    /// payload, parses the frame and hands it to `read`, which decodes
    /// the body where it lies (the plaintext payload or the decrypted
    /// buffer) instead of into an owned [`Msg`].
    pub(crate) fn open<T>(
        &self,
        bytes: &[u8],
        read: impl FnOnce(FrameView<'_>) -> Result<T>,
    ) -> Result<T> {
        let (&marker, rest) = bytes
            .split_first()
            .ok_or_else(|| Error::Decode("empty network payload".into()))?;
        match (marker, &self.cipher) {
            (0x00, None) => read(FrameView::parse(rest)?),
            (0x01, Some(cipher)) => {
                if rest.len() < 12 {
                    return Err(Error::Decode("sealed payload shorter than nonce".into()));
                }
                let mut nonce = [0u8; 12];
                nonce.copy_from_slice(&rest[..12]);
                let frame = cipher.open(&nonce, &[], &rest[12..])?;
                read(FrameView::parse(&frame)?)
            }
            (m, _) => Err(Error::Decode(format!(
                "encryption-mode mismatch (marker {m:#04x})"
            ))),
        }
    }
}

/// Rank-based output gating for the Backup strategy.
///
/// Replicas of one operator all receive the inputs and compute; only the
/// *active* replica forwards output. Rank 0 starts active; a higher rank
/// activates once every lower rank has stayed silent past the suspicion
/// timeout (crash presumption).
#[derive(Debug, Clone)]
pub struct RankGate {
    /// This replica's rank (0 = primary).
    pub rank: u32,
    /// Devices hosting lower-ranked replicas, by rank.
    pub lower: Vec<DeviceId>,
    /// Virtual time (seconds) of the last sign of life per lower rank.
    last_seen: Vec<f64>,
    active: bool,
    /// The `now_secs` the gate was created at.
    created_secs: f64,
    forced: bool,
}

impl RankGate {
    /// Creates a gate; `lower[i]` hosts rank `i`.
    pub fn new(rank: u32, lower: Vec<DeviceId>, now_secs: f64) -> Self {
        debug_assert_eq!(rank as usize, lower.len());
        let mut gate = Self {
            rank,
            last_seen: vec![now_secs; lower.len()],
            lower,
            active: false,
            created_secs: now_secs,
            forced: false,
        };
        gate.restart();
        gate
    }

    /// Back to the state [`RankGate::new`] (and a
    /// [`RankGate::force_active`] after it) left: every lower rank last
    /// seen at creation, rank 0 or a forced gate active.
    pub fn restart(&mut self) {
        self.last_seen.fill(self.created_secs);
        self.active = self.rank == 0 || self.forced;
    }

    /// Whether this replica currently forwards output.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Permanently forces activity (used by Overcollection's Active
    /// Backup, which runs in parallel by design).
    pub fn force_active(&mut self) {
        self.forced = true;
        self.active = true;
    }

    /// Records a sign of life from a lower-ranked replica device.
    pub fn saw(&mut self, device: DeviceId, now_secs: f64) {
        for (i, d) in self.lower.iter().enumerate() {
            if *d == device {
                self.last_seen[i] = now_secs;
            }
        }
    }

    /// Re-evaluates activation. Returns `true` if this call activated the
    /// replica (edge trigger, so pending output is flushed exactly once).
    pub fn evaluate(&mut self, now_secs: f64, suspect_timeout_secs: f64) -> bool {
        if self.active {
            return false;
        }
        let all_suspected = self
            .last_seen
            .iter()
            .all(|&t| now_secs - t > suspect_timeout_secs);
        if all_suspected {
            self.active = true;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg() -> Msg {
        Msg::Ping {
            query: QueryId::new(3),
            from_rank: 1,
        }
    }

    #[test]
    fn plaintext_roundtrip() {
        let mut s = Sealer::new(false, &[0u8; 32], QueryId::new(3), DeviceId::new(1));
        let bytes = s.wrap(&msg());
        assert_eq!(bytes[0], 0x00);
        assert_eq!(s.unwrap(&bytes).unwrap(), msg());
    }

    #[test]
    fn sealed_roundtrip_and_tamper() {
        let root = [7u8; 32];
        let mut a = Sealer::new(true, &root, QueryId::new(3), DeviceId::new(1));
        let b = Sealer::new(true, &root, QueryId::new(3), DeviceId::new(2));
        let bytes = a.wrap(&msg());
        assert_eq!(bytes[0], 0x01);
        assert_eq!(b.unwrap(&bytes).unwrap(), msg());
        // Tampering is caught.
        let mut bad = bytes.to_vec();
        let last = bad.len() - 1;
        bad[last] ^= 1;
        assert!(b.unwrap(&bad).is_err());
        // Distinct nonces for repeated sends.
        let bytes2 = a.wrap(&msg());
        assert_ne!(bytes, bytes2);
    }

    #[test]
    fn mode_mismatch_rejected() {
        let mut plain = Sealer::new(false, &[0u8; 32], QueryId::new(3), DeviceId::new(1));
        let sealed = Sealer::new(true, &[0u8; 32], QueryId::new(3), DeviceId::new(2));
        let bytes = plain.wrap(&msg());
        assert!(sealed.unwrap(&bytes).is_err());
        assert!(plain.unwrap(&[]).is_err());
    }

    fn nonce(device: DeviceId, counter: u64) -> [u8; 12] {
        let mut nonce = [0u8; 12];
        nonce[..4].copy_from_slice(&(device.raw() as u32).to_le_bytes());
        nonce[4..].copy_from_slice(&counter.to_le_bytes());
        nonce
    }

    /// `wrap` builds marker, nonce, frame and tag in one buffer; the
    /// bytes must stay those of the layer-by-layer chain it replaced
    /// (encode → frame → `seal` → marker ++ nonce ++ sealed).
    #[test]
    fn wrap_bytes_equal_the_layered_encoding() {
        let mut messages = crate::messages::tests::sample_messages();
        // Bodies whose length prefix takes two and three varint bytes.
        for len in [200, 20_000] {
            messages.push(Msg::FinalResult {
                query: QueryId::new(3),
                payload: vec![0xAB; len],
                partitions_merged: 4,
                partitions_complete: 3,
                replica: 1,
            });
        }
        let root = [7u8; 32];
        let device = DeviceId::new(5);
        let mut plain = Sealer::new(false, &root, QueryId::new(3), device);
        let mut sealed = Sealer::new(true, &root, QueryId::new(3), device);
        let receiver = Sealer::new(true, &root, QueryId::new(3), DeviceId::new(6));
        let cipher = sealed.cipher.clone().expect("sealing sealer has a cipher");
        for (counter, msg) in messages.iter().enumerate() {
            let mut body = edgelet_wire::Writer::new();
            body.put_bytes(&edgelet_wire::to_bytes(msg));
            let frame = forged_frame(b"EL", 1, msg.kind().into(), &body.into_bytes());

            let mut want = vec![0x00];
            want.extend_from_slice(&frame);
            assert_eq!(plain.wrap(msg).as_slice(), want, "plaintext {msg:?}");
            assert_eq!(&plain.unwrap(&want).unwrap(), msg);

            let nonce = nonce(device, counter as u64);
            let mut want = vec![0x01];
            want.extend_from_slice(&nonce);
            want.extend_from_slice(&cipher.seal(&nonce, &[], &frame));
            assert_eq!(sealed.wrap(msg).as_slice(), want, "sealed {msg:?}");
            assert_eq!(&receiver.unwrap(&want).unwrap(), msg);
        }
    }

    /// A frame with a valid CRC around arbitrary header fields.
    fn forged_frame(magic: &[u8; 2], version: u64, kind: u64, body: &[u8]) -> Vec<u8> {
        let mut w = edgelet_wire::Writer::new();
        w.put_raw(magic);
        w.put_varint(version);
        w.put_varint(kind);
        w.put_raw(body);
        let mut bytes = w.into_bytes();
        let crc = edgelet_wire::crc::crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes
    }

    /// Decoding from a borrowed frame keeps every check of the copying
    /// path, with the same typed errors (messages dumped from it).
    #[test]
    fn hostile_inputs_keep_their_typed_errors() {
        let decode = |m: &str| Error::Decode(m.into());
        let root = [7u8; 32];
        let plain = Sealer::new(false, &root, QueryId::new(3), DeviceId::new(1));
        let mut sender = Sealer::new(true, &root, QueryId::new(3), DeviceId::new(1));
        let sealed = Sealer::new(true, &root, QueryId::new(3), DeviceId::new(2));
        let cipher = sealed.cipher.clone().expect("sealing sealer has a cipher");

        let body = edgelet_wire::to_bytes(&msg());
        let mut prefixed = vec![body.len() as u8];
        prefixed.extend_from_slice(&body);
        // What each sealer sees on the network for a given frame.
        let in_clear = |frame: &[u8]| [&[0x00], frame].concat();
        let nonce = nonce(DeviceId::new(1), 9);
        let in_seal =
            |frame: &[u8]| [&[0x01], &nonce[..], &cipher.seal(&nonce, &[], frame)].concat();
        let frame = |magic: &[u8; 2], version, kind, body: &[u8]| {
            in_clear(&forged_frame(magic, version, kind, body))
        };
        let good_frame = forged_frame(b"EL", 1, 8, &prefixed);
        let good = in_clear(&good_frame);
        assert_eq!(plain.unwrap(&good).unwrap(), msg());
        assert_eq!(good, plain.clone().wrap(&msg()).to_vec());

        let mut flipped = good.clone();
        flipped[6] ^= 0x10;
        let mut trailing = prefixed.clone();
        trailing.push(0);
        let mut overlong = prefixed.clone();
        overlong[0] += 1;
        let mut padded_body = vec![body.len() as u8 + 1];
        padded_body.extend_from_slice(&body);
        padded_body.push(0);
        let plaintext_cases: Vec<(&str, Vec<u8>, Error)> = vec![
            ("empty", vec![], decode("empty network payload")),
            (
                "marker only",
                vec![0x00],
                decode("frame shorter than CRC trailer"),
            ),
            (
                "truncated",
                good[..good.len() - 1].to_vec(),
                decode("frame checksum mismatch: expected 0x54098a01, got 0x58872b03"),
            ),
            (
                "flipped bit",
                flipped,
                decode("frame checksum mismatch: expected 0x3c54098a, got 0x2072aafa"),
            ),
            (
                "magic",
                frame(b"XX", 1, 8, &prefixed),
                decode("bad frame magic"),
            ),
            (
                "version",
                frame(b"EL", 2, 8, &prefixed),
                decode("unsupported frame version 2"),
            ),
            (
                "kind range",
                frame(b"EL", 1, 70_000, &prefixed),
                decode("frame kind out of range"),
            ),
            (
                "kind mismatch",
                frame(b"EL", 1, 9, &prefixed),
                decode("frame kind 9 does not match payload kind 8"),
            ),
            (
                "length prefix past the end",
                frame(b"EL", 1, 8, &overlong),
                decode("need 4 bytes, have 3"),
            ),
            (
                "trailing bytes after the payload",
                frame(b"EL", 1, 8, &trailing),
                decode("1 trailing bytes after value"),
            ),
            (
                "trailing bytes inside the payload",
                frame(b"EL", 1, 8, &padded_body),
                decode("1 trailing bytes after value"),
            ),
            (
                "sealed marker",
                sender.wrap(&msg()).to_vec(),
                decode("encryption-mode mismatch (marker 0x01)"),
            ),
        ];
        for (name, bytes, want) in plaintext_cases {
            assert_eq!(plain.unwrap(&bytes).unwrap_err(), want, "{name}");
        }

        let mut tampered = in_seal(&good_frame);
        tampered[20] ^= 1;
        let sealed_cases: Vec<(&str, Vec<u8>, Error)> = vec![
            (
                "plaintext marker",
                good.clone(),
                decode("encryption-mode mismatch (marker 0x00)"),
            ),
            (
                "shorter than the nonce",
                vec![0x01; 12],
                decode("sealed payload shorter than nonce"),
            ),
            (
                "shorter than the tag",
                in_seal(&good_frame)[..20].to_vec(),
                Error::Crypto("sealed message shorter than tag".into()),
            ),
            (
                "tampered",
                tampered,
                Error::Crypto("AEAD tag mismatch".into()),
            ),
            (
                "authentic, bad magic",
                in_seal(&forged_frame(b"XX", 1, 8, &prefixed)),
                decode("bad frame magic"),
            ),
            (
                "authentic, kind mismatch",
                in_seal(&forged_frame(b"EL", 1, 9, &prefixed)),
                decode("frame kind 9 does not match payload kind 8"),
            ),
            (
                "authentic, trailing bytes",
                in_seal(&forged_frame(b"EL", 1, 8, &trailing)),
                decode("1 trailing bytes after value"),
            ),
        ];
        for (name, bytes, want) in sealed_cases {
            assert_eq!(sealed.unwrap(&bytes).unwrap_err(), want, "{name}");
        }
    }

    #[test]
    fn different_query_keys_do_not_interoperate() {
        let root = [9u8; 32];
        let mut a = Sealer::new(true, &root, QueryId::new(1), DeviceId::new(1));
        let b = Sealer::new(true, &root, QueryId::new(2), DeviceId::new(2));
        let bytes = a.wrap(&msg());
        assert!(b.unwrap(&bytes).is_err());
    }

    #[test]
    fn rank_gate_activation() {
        let d0 = DeviceId::new(10);
        let mut gate = RankGate::new(1, vec![d0], 0.0);
        assert!(!gate.is_active());
        // Primary alive at t=5: no activation at t=10 with timeout 8.
        gate.saw(d0, 5.0);
        assert!(!gate.evaluate(10.0, 8.0));
        // Silence past the timeout activates (edge-triggered once).
        assert!(gate.evaluate(14.0, 8.0));
        assert!(gate.is_active());
        assert!(!gate.evaluate(20.0, 8.0), "activation fires once");
    }

    #[test]
    fn rank_zero_starts_active() {
        let mut gate = RankGate::new(0, vec![], 0.0);
        assert!(gate.is_active());
        assert!(!gate.evaluate(100.0, 1.0));
    }

    #[test]
    fn force_active() {
        let mut gate = RankGate::new(1, vec![DeviceId::new(1)], 0.0);
        gate.force_active();
        assert!(gate.is_active());
    }
}
