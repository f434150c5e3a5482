//! CRC-32 (IEEE 802.3 polynomial, reflected) implemented from scratch.
//!
//! Used by the frame layer to detect the bit corruption the network
//! simulator can inject, and by the WAL frame layer on the durable
//! submit hot path. Bulk input runs through a slicing-by-16 kernel
//! (sixteen lookup tables folding two `u64`s per step) that produces
//! bit-identical checksums to the byte-at-a-time reference; each whole
//! 1 536-byte block of a longer input runs three such kernels side by
//! side, one per 512-byte third. All tables are computed at first use.

use std::sync::OnceLock;

const POLY: u32 = 0xEDB8_8320;

/// Bytes of one of the three streams of a block.
const STREAM: usize = 512;
/// Bytes the three-stream kernel consumes per step.
const BLOCK: usize = 3 * STREAM;

/// Sixteen derived tables: `TABLES[0]` is the classic byte-at-a-time
/// table; `TABLES[k][b]` advances the CRC of byte `b` through `k`
/// additional zero bytes, which lets the kernel fold 16 input bytes
/// with 16 independent lookups per iteration. Doubling the stride over
/// slicing-by-8 halves the serial table-lookup chains per byte, which
/// is what bounds throughput on the WAL framing hot path.
fn tables() -> &'static [[u32; 256]; 16] {
    static TABLES: OnceLock<[[u32; 256]; 16]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 16];
        for (i, slot) in t[0].iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
            *slot = crc;
        }
        for k in 1..16 {
            for i in 0..256usize {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// "Append `n` zero bytes" as a table per register byte: the register
/// update is linear over GF(2), so `shift(x) = T[0][x₀] ^ … ^ T[3][x₃]`.
type Shift = [[u32; 256]; 4];

/// The operators that append [`STREAM`] and `2 * STREAM` zero bytes,
/// which join a block's three stream registers into one.
fn shifts() -> &'static [Shift; 2] {
    static SHIFTS: OnceLock<[Shift; 2]> = OnceLock::new();
    SHIFTS.get_or_init(|| {
        let zeros = [0u8; STREAM];
        let mut out = [[[0u32; 256]; 4]; 2];
        for (n, shift) in out.iter_mut().enumerate() {
            // Each register bit through `n + 1` streams of zeros; the
            // table entry of a byte is the sum of its bits' images.
            let basis: [u32; 32] = std::array::from_fn(|bit| {
                (0..=n).fold(1u32 << bit, |x, _| advance_sliced(x, &zeros))
            });
            for (k, table) in shift.iter_mut().enumerate() {
                for b in 1..256usize {
                    let low = b.trailing_zeros() as usize;
                    table[b] = table[b & (b - 1)] ^ basis[8 * k + low];
                }
            }
        }
        out
    })
}

fn apply(shift: &Shift, x: u32) -> u32 {
    shift[0][(x & 0xFF) as usize]
        ^ shift[1][((x >> 8) & 0xFF) as usize]
        ^ shift[2][((x >> 16) & 0xFF) as usize]
        ^ shift[3][(x >> 24) as usize]
}

/// One slicing-by-16 step: `state` advanced over the 16 bytes of `chunk`.
#[inline(always)]
fn fold16(t: &[[u32; 256]; 16], state: u32, chunk: &[u8]) -> u32 {
    // Fold the register into the first 4 bytes, then look all 16 bytes
    // up in parallel tables. Safe code only: `from_le_bytes` on
    // fixed-size copies of the chunk halves.
    let mut buf = [0u8; 8];
    buf.copy_from_slice(&chunk[..8]);
    let lo = u64::from_le_bytes(buf) ^ u64::from(state);
    buf.copy_from_slice(&chunk[8..16]);
    let hi = u64::from_le_bytes(buf);
    t[15][(lo & 0xFF) as usize]
        ^ t[14][((lo >> 8) & 0xFF) as usize]
        ^ t[13][((lo >> 16) & 0xFF) as usize]
        ^ t[12][((lo >> 24) & 0xFF) as usize]
        ^ t[11][((lo >> 32) & 0xFF) as usize]
        ^ t[10][((lo >> 40) & 0xFF) as usize]
        ^ t[9][((lo >> 48) & 0xFF) as usize]
        ^ t[8][((lo >> 56) & 0xFF) as usize]
        ^ t[7][(hi & 0xFF) as usize]
        ^ t[6][((hi >> 8) & 0xFF) as usize]
        ^ t[5][((hi >> 16) & 0xFF) as usize]
        ^ t[4][((hi >> 24) & 0xFF) as usize]
        ^ t[3][((hi >> 32) & 0xFF) as usize]
        ^ t[2][((hi >> 40) & 0xFF) as usize]
        ^ t[1][((hi >> 48) & 0xFF) as usize]
        ^ t[0][((hi >> 56) & 0xFF) as usize]
}

/// Advances `state` (the raw, un-inverted CRC register) over `data`,
/// one slicing-by-16 stream. Inlined, so an input shorter than a block
/// runs the very loop it ran before the three-stream kernel existed.
#[inline(always)]
fn advance_sliced(mut state: u32, data: &[u8]) -> u32 {
    let t = tables();
    let mut chunks = data.chunks_exact(16);
    for chunk in &mut chunks {
        state = fold16(t, state, chunk);
    }
    for &b in chunks.remainder() {
        state = (state >> 8) ^ t[0][((state ^ u32::from(b)) & 0xFF) as usize];
    }
    state
}

/// Advances `state` over `data`. Each whole [`BLOCK`] runs as three
/// interleaved streams — the first continues `state`, the other two
/// start from zero — so three independent lookup chains overlap; the
/// register is linear, so `shift₁₀₂₄(a) ^ shift₅₁₂(b) ^ c` is the
/// register one stream would have reached. The rest, and every input
/// shorter than a block, runs the single stream.
fn advance(mut state: u32, data: &[u8]) -> u32 {
    if data.len() < BLOCK {
        return advance_sliced(state, data);
    }
    let (t, [by_one, by_two]) = (tables(), shifts());
    let mut blocks = data.chunks_exact(BLOCK);
    for block in &mut blocks {
        let (a, rest) = block.split_at(STREAM);
        let (b, c) = rest.split_at(STREAM);
        let (mut sa, mut sb, mut sc) = (state, 0u32, 0u32);
        for ((ca, cb), cc) in a
            .chunks_exact(16)
            .zip(b.chunks_exact(16))
            .zip(c.chunks_exact(16))
        {
            sa = fold16(t, sa, ca);
            sb = fold16(t, sb, cb);
            sc = fold16(t, sc, cc);
        }
        state = apply(by_two, sa) ^ apply(by_one, sb) ^ sc;
    }
    advance_sliced(state, blocks.remainder())
}

/// Computes the CRC-32 of `data` (same parameters as zlib's `crc32`).
pub fn crc32(data: &[u8]) -> u32 {
    !advance(0xFFFF_FFFF, data)
}

/// Incremental CRC-32 hasher.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Feeds more bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.state = advance(self.state, data);
    }

    /// Finishes and returns the checksum.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"edgelet computing over opportunistic networks";
        let mut h = Crc32::new();
        h.update(&data[..10]);
        h.update(&data[10..]);
        assert_eq!(h.finish(), crc32(data));
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"resiliency validity crowd liability".to_vec();
        let reference = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), reference);
            }
        }
    }

    /// Byte-at-a-time bitwise reference, independent of the tables.
    fn crc32_reference(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn sliced_kernel_matches_reference_across_lengths() {
        // Cover every remainder length around the 16-byte fold boundary.
        let data: Vec<u8> = (0..96u16)
            .map(|i| (i.wrapping_mul(37) % 251) as u8)
            .collect();
        for len in 0..data.len() {
            assert_eq!(
                crc32(&data[..len]),
                crc32_reference(&data[..len]),
                "len {len}"
            );
        }
    }

    /// Lengths where a block ends and the next begins.
    const BLOCK_SEAMS: [usize; 9] = [1535, 1536, 1537, 3071, 3072, 3073, 4607, 4608, 4609];

    #[test]
    fn a_split_at_every_offset_equals_the_one_shot_checksum() {
        let data: Vec<u8> = (0..5_000u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        let whole = crc32(&data);
        assert_eq!(whole, crc32_reference(&data));
        for cut in 0..=data.len() {
            let mut h = Crc32::new();
            h.update(&data[..cut]);
            h.update(&data[cut..]);
            assert_eq!(h.finish(), whole, "split at {cut}");
        }
    }

    proptest! {
        #[test]
        fn prop_every_block_seam_matches_reference(
            data in prop::collection::vec(any::<u8>(), 4_609..4_610)
        ) {
            for len in BLOCK_SEAMS {
                prop_assert_eq!(crc32(&data[..len]), crc32_reference(&data[..len]), "len {}", len);
            }
        }

        #[test]
        fn prop_sliced_matches_reference(data in prop::collection::vec(any::<u8>(), 0..8_193)) {
            prop_assert_eq!(crc32(&data), crc32_reference(&data));
        }

        #[test]
        fn prop_split_point_invariance(
            data in prop::collection::vec(any::<u8>(), 0..128),
            split in any::<prop::sample::Index>(),
        ) {
            let cut = if data.is_empty() { 0 } else { split.index(data.len()) };
            let mut h = Crc32::new();
            h.update(&data[..cut]);
            h.update(&data[cut..]);
            prop_assert_eq!(h.finish(), crc32(&data));
        }
    }
}
