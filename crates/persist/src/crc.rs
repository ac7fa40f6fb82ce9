//! CRC-32 (IEEE 802.3 polynomial, the one zlib/ethernet/WAL formats
//! share), hand-rolled so the WAL needs no external dependency.
//!
//! Slice-by-8: eight compile-time tables let the hot loop fold 8 bytes
//! per iteration with independent lookups instead of a byte-long
//! dependency chain — the WAL checksums every record payload on the
//! serving path, so this is sub-nanosecond-per-byte territory that a
//! byte-at-a-time table walk would turn into a measurable share of PUT
//! latency. The output is the standard CRC-32/ISO-HDLC value either
//! way (the tests pin the check vectors).

/// Reflected polynomial of CRC-32/ISO-HDLC.
const POLY: u32 = 0xEDB8_8320;

/// Eight 256-entry lookup tables, computed at compile time.
/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is
/// the CRC of byte `b` followed by `k` zero bytes, which is what lets
/// eight byte-lookups combine into one 8-byte step.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32 of `data` (init `0xFFFF_FFFF`, final xor `0xFFFF_FFFF`).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finish()
}

/// A running CRC-32: feeding bytes in any split gives the [`crc32`] of
/// their concatenation, so a stream can be checksummed as it is written.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Crc32(u32);

impl Crc32 {
    /// A fresh checksum (of zero bytes).
    pub(crate) fn new() -> Self {
        Self(u32::MAX)
    }

    /// Fold `data` into the checksum.
    pub(crate) fn update(&mut self, data: &[u8]) {
        self.0 = update(self.0, data);
    }

    /// The CRC-32 of everything fed so far.
    pub(crate) fn finish(self) -> u32 {
        self.0 ^ u32::MAX
    }
}

/// Fold `data` into the pre-inversion register `crc`.
fn update(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes(chunk[..4].try_into().expect("4")) ^ crc;
        let hi = u32::from_le_bytes(chunk[4..].try_into().expect("4"));
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time reference the sliced loop must agree with.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        crc ^ u32::MAX
    }

    #[test]
    fn known_vectors() {
        // The standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn sliced_agrees_with_bytewise_at_every_length() {
        let data: Vec<u8> = (0..257u32)
            .map(|i| (i.wrapping_mul(37) >> 2) as u8)
            .collect();
        for len in 0..data.len() {
            assert_eq!(
                crc32(&data[..len]),
                crc32_bytewise(&data[..len]),
                "len {len}"
            );
        }
    }

    #[test]
    fn incremental_agrees_with_one_shot_at_every_split() {
        let long: Vec<u8> = (0..257u32)
            .map(|i| (i.wrapping_mul(37) >> 2) as u8)
            .collect();
        let vectors: [&[u8]; 4] = [b"123456789", b"", b"a", &long];
        for data in vectors {
            for cut in 0..=data.len() {
                for cut2 in cut..=data.len().min(cut + 9) {
                    let mut crc = Crc32::new();
                    crc.update(&data[..cut]);
                    crc.update(&data[cut..cut2]);
                    crc.update(&data[cut2..]);
                    assert_eq!(crc.finish(), crc32(data), "splits {cut}/{cut2}");
                }
            }
        }
        // Byte at a time, on the standard check vector.
        let mut crc = Crc32::new();
        for b in b"123456789" {
            crc.update(&[*b]);
        }
        assert_eq!(crc.finish(), 0xCBF4_3926);
    }

    #[test]
    fn sensitive_to_single_bit() {
        let a = crc32(b"write-ahead log");
        let b = crc32(b"write-ahead lof");
        assert_ne!(a, b);
    }
}
