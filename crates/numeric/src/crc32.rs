//! CRC-32 (IEEE 802.3) checksums for corruption detection.
//!
//! The crash-safe persistence layer (`fleetstate`), the `fleetd` wire
//! protocol and the drive-trace CSV footer (`drivesim::persist`) all need
//! a cheap, dependency-free integrity check. This is the standard
//! reflected CRC-32 with polynomial `0xEDB8_8320` (the bit-reversed
//! `0x04C1_1DB7`), initial value `0xFFFF_FFFF`, and final XOR
//! `0xFFFF_FFFF` — the same variant used by gzip, PNG, and cksum-style
//! tooling, so values are easy to cross-check with external tools.
//!
//! # Slicing-by-16
//!
//! Every daemon round trip checksums each decision byte five times
//! (request encode and decode, journal frame, reply encode and decode),
//! so the CRC is on the bulk-traffic critical path. A byte-at-a-time
//! table loop carries a serial dependency through every byte: about
//! 3.3 ns/byte. [`Hasher::update`] instead folds 16 input bytes per
//! step through sixteen 256-entry tables (`TABLES`, 16 × 256 × 4 B =
//! 16 KiB, built at compile time from the byte table): `TABLES[k][b]` is
//! the CRC contribution of byte `b` followed by `k` zero bytes, so the
//! sixteen lookups of one step are independent and XOR together. The
//! last `len % 16` bytes take the byte loop. On a 128 KiB buffer this
//! reads about 0.64 ns/byte, against 0.83 for slicing-by-8 (8 KiB of
//! tables) and 3.3 for the byte loop; the `crc32` group of the
//! `persist_roundtrip` criterion bench measures it. It is safe Rust with
//! no CPU-specific code, and the digests are bit-identical to the byte
//! loop, which the tests keep as the reference.
//!
//! # Example
//!
//! ```
//! // The canonical CRC-32 check value.
//! assert_eq!(numeric::crc32::crc32(b"123456789"), 0xCBF4_3926);
//! ```

/// Byte-at-a-time lookup table for the reflected polynomial `0xEDB8_8320`,
/// built at compile time.
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// The slicing-by-16 tables: `TABLES[0]` is [`TABLE`] and
/// `TABLES[k][b]` advances `TABLES[k - 1][b]` over one more zero byte.
static TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    tables[0] = TABLE;
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ TABLE[(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Streaming CRC-32 hasher; feed bytes with [`Hasher::update`] and read
/// the digest with [`Hasher::finalize`].
#[derive(Debug, Clone)]
pub struct Hasher {
    state: u32,
}

impl Hasher {
    /// A fresh hasher (initial state `0xFFFF_FFFF`).
    #[must_use]
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Absorbs `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut chunks = bytes.chunks_exact(16);
        for chunk in &mut chunks {
            let c: &[u8; 16] = chunk.try_into().expect("chunks_exact yields 16-byte chunks");
            // The running state folds into the first four bytes; byte
            // `i` of the chunk is followed by `15 - i` more bytes.
            let [s0, s1, s2, s3] =
                (crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]])).to_le_bytes();
            crc = t[15][usize::from(s0)]
                ^ t[14][usize::from(s1)]
                ^ t[13][usize::from(s2)]
                ^ t[12][usize::from(s3)]
                ^ t[11][usize::from(c[4])]
                ^ t[10][usize::from(c[5])]
                ^ t[9][usize::from(c[6])]
                ^ t[8][usize::from(c[7])]
                ^ t[7][usize::from(c[8])]
                ^ t[6][usize::from(c[9])]
                ^ t[5][usize::from(c[10])]
                ^ t[4][usize::from(c[11])]
                ^ t[3][usize::from(c[12])]
                ^ t[2][usize::from(c[13])]
                ^ t[1][usize::from(c[14])]
                ^ t[0][usize::from(c[15])];
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ t[0][usize::from(crc as u8 ^ b)];
        }
        self.state = crc;
    }

    /// The CRC-32 of everything absorbed so far (applies the final XOR;
    /// the hasher itself is unchanged and may keep absorbing).
    #[must_use]
    pub fn finalize(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Hasher {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC-32 of `bytes`.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Hasher::new();
    h.update(bytes);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time loop `Hasher::update` used before
    /// slicing-by-16, kept as the reference the fast path must match.
    fn reference_crc32(bytes: &[u8]) -> u32 {
        let state = bytes.iter().fold(0xFFFF_FFFF, |crc, &b| {
            (crc >> 8) ^ TABLE[((crc ^ u32::from(b)) & 0xFF) as usize]
        });
        state ^ 0xFFFF_FFFF
    }

    #[test]
    fn check_value() {
        // The standard check vector for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// Known answers at least 16 bytes long, so the 16-byte fold runs
    /// (the 9-byte check value above never enters it).
    #[test]
    fn long_known_answers() {
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        assert_eq!(crc32(&[0x00; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFF; 32]), 0xFF6C_AB0B);
    }

    /// Every length residue mod 16 at every start offset, exhaustively
    /// over the first few chunks.
    #[test]
    fn matches_reference_at_every_length_and_offset() {
        let buf: Vec<u8> = (0..96u32).map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8).collect();
        for start in 0..16 {
            for len in 0..=buf.len() - start {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), reference_crc32(data), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut h = Hasher::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), crc32(data));
    }

    #[test]
    fn finalize_is_nondestructive() {
        let mut h = Hasher::new();
        h.update(b"abc");
        let first = h.finalize();
        assert_eq!(h.finalize(), first);
        h.update(b"def");
        assert_eq!(h.finalize(), crc32(b"abcdef"));
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0x5Au8; 64];
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), clean, "flip at {byte}:{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }

    proptest! {
        /// Random bytes at a random start offset, fed through `update`
        /// in random pieces, checksum exactly as the reference byte loop.
        #[test]
        fn matches_reference_byte_loop(
            raw in prop::collection::vec(0u16..256, 0..4113),
            start in 0usize..16,
            cuts in prop::collection::vec(0usize..4097, 0..6),
        ) {
            let buf: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
            let data = &buf[start.min(buf.len())..];
            let data = &data[..data.len().min(4096)];
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.sort_unstable();
            let mut h = Hasher::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([data.len()]) {
                h.update(&data[from..cut]);
                from = cut;
            }
            prop_assert_eq!(h.finalize(), reference_crc32(data));
            prop_assert_eq!(crc32(data), reference_crc32(data));
        }
    }
}
