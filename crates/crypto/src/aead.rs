//! ChaCha20-Poly1305 AEAD (RFC 8439 §2.8).

use crate::chacha20::{chacha20_block, chacha20_xor};
use crate::poly1305::Poly1305;
use edgelet_util::{Error, Result};

/// Authenticated encryption with associated data, as specified in RFC 8439.
#[derive(Debug, Clone)]
pub struct ChaCha20Poly1305 {
    key: [u8; 32],
}

impl ChaCha20Poly1305 {
    /// Creates a cipher for the given 256-bit key.
    pub fn new(key: [u8; 32]) -> Self {
        Self { key }
    }

    /// Encrypts `plaintext`, returning `ciphertext || 16-byte tag`.
    pub fn seal(&self, nonce: &[u8; 12], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut out = plaintext.to_vec();
        self.seal_in_place(nonce, aad, &mut out, 0);
        out
    }

    /// Encrypts `buf[from..]` where it lies and appends the 16-byte tag;
    /// `buf[..from]` (a marker, the nonce) is left as is.
    pub fn seal_in_place(&self, nonce: &[u8; 12], aad: &[u8], buf: &mut Vec<u8>, from: usize) {
        chacha20_xor(&self.key, 1, nonce, &mut buf[from..]);
        let tag = self.compute_tag(nonce, aad, &buf[from..]);
        buf.extend_from_slice(&tag);
    }

    /// Verifies and decrypts `ciphertext || tag`.
    pub fn open(&self, nonce: &[u8; 12], aad: &[u8], sealed: &[u8]) -> Result<Vec<u8>> {
        if sealed.len() < 16 {
            return Err(Error::Crypto("sealed message shorter than tag".into()));
        }
        let (ciphertext, tag) = sealed.split_at(sealed.len() - 16);
        let expected = self.compute_tag(nonce, aad, ciphertext);
        let mut diff = 0u8;
        for (a, b) in expected.iter().zip(tag.iter()) {
            diff |= a ^ b;
        }
        if diff != 0 {
            return Err(Error::Crypto("AEAD tag mismatch".into()));
        }
        let mut out = ciphertext.to_vec();
        chacha20_xor(&self.key, 1, nonce, &mut out);
        Ok(out)
    }

    fn compute_tag(&self, nonce: &[u8; 12], aad: &[u8], ciphertext: &[u8]) -> [u8; 16] {
        // One-time Poly1305 key = first 32 bytes of block 0.
        let block0 = chacha20_block(&self.key, 0, nonce);
        let mut otk = [0u8; 32];
        otk.copy_from_slice(&block0[..32]);

        let mut mac = Poly1305::new(&otk);
        mac.update(aad);
        mac.update(&zero_pad(aad.len()));
        mac.update(ciphertext);
        mac.update(&zero_pad(ciphertext.len()));
        mac.update(&(aad.len() as u64).to_le_bytes());
        mac.update(&(ciphertext.len() as u64).to_le_bytes());
        mac.finish()
    }
}

fn zero_pad(len: usize) -> Vec<u8> {
    vec![0u8; (16 - len % 16) % 16]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn rfc8439_setup() -> (ChaCha20Poly1305, [u8; 12], Vec<u8>, Vec<u8>) {
        let key_bytes = unhex("808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f");
        let mut key = [0u8; 32];
        key.copy_from_slice(&key_bytes);
        let nonce_bytes = unhex("070000004041424344454647");
        let mut nonce = [0u8; 12];
        nonce.copy_from_slice(&nonce_bytes);
        let aad = unhex("50515253c0c1c2c3c4c5c6c7");
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.".to_vec();
        (ChaCha20Poly1305::new(key), nonce, aad, plaintext)
    }

    #[test]
    fn rfc8439_seal_vector() {
        let (aead, nonce, aad, plaintext) = rfc8439_setup();
        let sealed = aead.seal(&nonce, &aad, &plaintext);
        let (ct, tag) = sealed.split_at(sealed.len() - 16);
        assert_eq!(
            hex(ct),
            "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6\
             3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36\
             92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc\
             3ff4def08e4b7a9de576d26586cec64b6116"
        );
        assert_eq!(hex(tag), "1ae10b594f09e26a7e902ecbd0600691");
    }

    #[test]
    fn rfc8439_open_vector() {
        let (aead, nonce, aad, plaintext) = rfc8439_setup();
        let sealed = aead.seal(&nonce, &aad, &plaintext);
        let opened = aead.open(&nonce, &aad, &sealed).unwrap();
        assert_eq!(opened, plaintext);
    }

    #[test]
    fn tampering_is_rejected() {
        let (aead, nonce, aad, plaintext) = rfc8439_setup();
        let sealed = aead.seal(&nonce, &aad, &plaintext);
        for i in [0usize, sealed.len() / 2, sealed.len() - 1] {
            let mut bad = sealed.clone();
            bad[i] ^= 1;
            assert!(aead.open(&nonce, &aad, &bad).is_err(), "flip at {i}");
        }
        // Wrong AAD.
        assert!(aead.open(&nonce, b"different aad", &sealed).is_err());
        // Wrong nonce.
        let mut nonce2 = nonce;
        nonce2[0] ^= 1;
        assert!(aead.open(&nonce2, &aad, &sealed).is_err());
        // Too short.
        assert!(aead.open(&nonce, &aad, &sealed[..8]).is_err());
    }

    #[test]
    fn empty_plaintext_and_aad() {
        let aead = ChaCha20Poly1305::new([9u8; 32]);
        let nonce = [1u8; 12];
        let sealed = aead.seal(&nonce, &[], &[]);
        assert_eq!(sealed.len(), 16);
        assert_eq!(aead.open(&nonce, &[], &sealed).unwrap(), Vec::<u8>::new());
    }

    proptest! {
        #[test]
        fn prop_seal_open_roundtrip(
            key in any::<[u8; 32]>(),
            nonce in any::<[u8; 12]>(),
            aad in prop::collection::vec(any::<u8>(), 0..64),
            plaintext in prop::collection::vec(any::<u8>(), 0..256),
        ) {
            let aead = ChaCha20Poly1305::new(key);
            let sealed = aead.seal(&nonce, &aad, &plaintext);
            prop_assert_eq!(sealed.len(), plaintext.len() + 16);
            let opened = aead.open(&nonce, &aad, &sealed).unwrap();
            prop_assert_eq!(opened, plaintext);
        }
    }
}
