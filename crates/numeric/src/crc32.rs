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
//! # Slicing-by-16, two streams
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
//! last `len % 16` bytes take the byte loop.
//!
//! One fold still waits on the previous one: the running state feeds
//! the first four lookups of the next step. So an input of at least
//! [`SPLIT_MIN`] bytes is cut into two equal halves, each a whole
//! number of 16-byte steps, and one loop folds a step of each half per
//! iteration: two independent dependency chains the CPU overlaps. The
//! first half starts from the running state and the second from zero;
//! since the CRC register update is linear over GF(2),
//! `crc(s, A ‖ B) = shift(crc(s, A), |B|) ⊕ crc(0, B)`, where
//! `shift(s, n)` advances `s` over `n` zero bytes. `shift` is zlib's
//! `crc32_combine` operator: multiply `s` by `x^(8n) mod P`, with the
//! power assembled from a compile-time table of `x^(2^k) mod P`
//! (`X2N`), so it costs O(log n) carry-less products rather than `n`
//! byte steps. The bytes past the two halves (fewer than 32) continue
//! the single stream. On a 128 KiB buffer one stream reads about
//! 0.66 ns/byte and two read about 0.43 (the `crc32` group of the
//! `persist_roundtrip` criterion bench measures sizes on both sides of
//! the cut). It is safe Rust with no CPU-specific code, and the digests are
//! bit-identical to the byte loop, which the tests keep as the
//! reference.
//!
//! # Example
//!
//! ```
//! // The canonical CRC-32 check value.
//! assert_eq!(numeric::crc32::crc32(b"123456789"), 0xCBF4_3926);
//! ```

/// The reflected polynomial `P`: bit 31 is the coefficient of `x^0`.
const POLY: u32 = 0xEDB8_8320;

/// Byte-at-a-time lookup table for the reflected polynomial `0xEDB8_8320`,
/// built at compile time.
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
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

/// Inputs at least this long are folded as two interleaved streams
/// (see the module docs); shorter ones as one.
pub const SPLIT_MIN: usize = 4096;

/// `a · b mod P` over GF(2), bit-reflected (bit 31 is `x^0`): zlib's
/// `multmodp`.
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut m = 1u32 << 31;
    while m != 0 {
        if a & m != 0 {
            product ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
        m >>= 1;
    }
    product
}

/// `X2N[k]` is `x^(2^k) mod P`, bit-reflected.
const X2N: [u32; 32] = {
    let mut table = [0u32; 32];
    let mut p = 1u32 << 30; // x^1
    let mut k = 0;
    while k < 32 {
        table[k] = p;
        p = multmodp(p, p);
        k += 1;
    }
    table
};

/// Advances a raw (not final-XORed) CRC register over `len` zero bytes:
/// `state · x^(8 len) mod P`. The power is the product of `X2N[k + 3]`
/// over the set bits `k` of `len`. Since `x^(2^32) = x mod P`, the
/// index wraps at 32, as zlib's does.
fn shift(state: u32, mut len: usize) -> u32 {
    let mut power = 1u32 << 31; // x^0
    let mut k = 3;
    while len != 0 {
        if len & 1 != 0 {
            power = multmodp(X2N[k & 31], power);
        }
        len >>= 1;
        k += 1;
    }
    multmodp(power, state)
}

/// One slicing-by-16 step: `crc` advanced over the 16 bytes of `c`.
#[inline(always)]
fn fold16(crc: u32, c: &[u8]) -> u32 {
    let t = &TABLES;
    let c: &[u8; 16] = c.try_into().expect("folds take 16-byte chunks");
    // The running state folds into the first four bytes; byte `i` of
    // the chunk is followed by `15 - i` more bytes.
    let [s0, s1, s2, s3] = (crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]])).to_le_bytes();
    t[15][usize::from(s0)]
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
        ^ t[0][usize::from(c[15])]
}

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
    pub fn update(&mut self, mut bytes: &[u8]) {
        let mut crc = self.state;
        if bytes.len() >= SPLIT_MIN {
            let half = bytes.len() / 32 * 16;
            let (a, rest) = bytes.split_at(half);
            let (b, tail) = rest.split_at(half);
            let mut crc_b = 0;
            for (x, y) in a.chunks_exact(16).zip(b.chunks_exact(16)) {
                crc = fold16(crc, x);
                crc_b = fold16(crc_b, y);
            }
            crc = shift(crc, half) ^ crc_b;
            bytes = tail;
        }
        let mut chunks = bytes.chunks_exact(16);
        for chunk in &mut chunks {
            crc = fold16(crc, chunk);
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ TABLE[usize::from(crc as u8 ^ b)];
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
    /// slicing-by-16, kept as the reference both fast paths must match.
    fn reference_crc32(bytes: &[u8]) -> u32 {
        reference_crc32_from(0, bytes)
    }

    /// The byte loop continuing from the digest `crc` of earlier bytes.
    fn reference_crc32_from(crc: u32, bytes: &[u8]) -> u32 {
        let state = bytes.iter().fold(crc ^ 0xFFFF_FFFF, |crc, &b| {
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

    /// `shift` is the byte loop run over zeros, at lengths that exercise
    /// every table entry a `usize` length can reach below 2^20.
    #[test]
    fn shift_matches_zero_bytes() {
        for state in [0u32, 1, 0xFFFF_FFFF, 0x1234_5678] {
            let mut crc = state;
            for len in 0..=2048 {
                assert_eq!(shift(state, len), crc, "state {state:#x}, len {len}");
                crc = (crc >> 8) ^ TABLE[usize::from(crc as u8)];
            }
        }
        let zeros = vec![0u8; 1 << 20];
        let raw = |s: u32, n: usize| !reference_crc32_from(!s, &zeros[..n]);
        for len in [4096, 65_536, 65_537, 1 << 20] {
            assert_eq!(shift(0xDEAD_BEEF, len), raw(0xDEAD_BEEF, len), "len {len}");
        }
    }

    /// Squaring `x^(2^31)` once more lands back on `x^1`, so the table
    /// index may wrap at 32 as zlib's does.
    #[test]
    fn x2n_table_wraps_at_32() {
        assert_eq!(multmodp(X2N[31], X2N[31]), X2N[0]);
    }

    /// Lengths around the two-stream cut, with the stream split so a
    /// piece crosses from one half into the other.
    #[test]
    fn two_streams_match_reference_around_the_cut() {
        let buf: Vec<u8> =
            (0..3 * SPLIT_MIN as u32).map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8).collect();
        for len in (SPLIT_MIN - 40..SPLIT_MIN + 40).chain([2 * SPLIT_MIN + 17, 3 * SPLIT_MIN - 31])
        {
            for start in [0, 1, 7, 15] {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), reference_crc32(data), "start {start}, len {len}");
                let mut h = Hasher::new();
                let (a, b) = data.split_at(len / 2 - 3);
                h.update(a);
                h.update(b);
                assert_eq!(h.finalize(), reference_crc32(data), "split start {start}, len {len}");
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
        /// Lengths reach twice [`SPLIT_MIN`], so whole inputs and pieces
        /// take both the one-stream and the two-stream path.
        #[test]
        fn matches_reference_byte_loop(
            raw in prop::collection::vec(0u16..256, 0..8209),
            start in 0usize..16,
            cuts in prop::collection::vec(0usize..8193, 0..6),
        ) {
            let buf: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
            let data = &buf[start.min(buf.len())..];
            let data = &data[..data.len().min(2 * SPLIT_MIN)];
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
