//! Primitive encodings of the `ltc` container: LEB128 varints, zigzag
//! mapping for signed deltas, and the IEEE CRC-32 that guards each block.
//!
//! Every decoder is bounds-checked and total: malformed input yields
//! `None`, never a panic — the container layer turns that into a corrupt
//! block that is counted and skipped. These functions are pure and
//! allocation-free, which also makes them the Miri entry point for the
//! format (`ltc::codec::tests`).

/// Appends the LEB128 encoding of `v` to `out`.
pub(crate) fn write_uvarint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        // lsw::allow(L011): LEB128 keeps the low 7 bits per byte on purpose
        out.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    // lsw::allow(L011): loop guard proves v < 0x80, so the cast is exact
    out.push(v as u8);
}

/// Decodes one LEB128 varint from `buf` starting at `*pos`, advancing
/// `*pos` past it. Returns `None` on truncation, on an encoding longer
/// than the 10 bytes a `u64` needs (10 × 7 bits ≥ 64 bits), or on bits
/// overflowing 64.
#[inline]
pub(crate) fn read_uvarint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    // Single-byte fast path: most column values (deltas, dictionary
    // indices, small ids) fit in 7 bits, and this sits on the block
    // decode hot path once per value.
    let &first = buf.get(*pos)?;
    if first < 0x80 {
        *pos += 1;
        return Some(u64::from(first));
    }
    read_uvarint_multi(buf, pos)
}

/// Multi-byte continuation of [`read_uvarint`].
fn read_uvarint_multi(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        let low = u64::from(byte & 0x7f);
        if shift == 63 && low > 1 {
            return None; // would overflow u64
        }
        v |= low << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift > 63 {
            return None; // more than 10 bytes
        }
    }
}

/// Maps a signed delta onto the unsigned varint domain so small negative
/// and positive deltas both encode in one byte.
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) lookup tables
/// for slicing-by-8, built at compile time. `CRC_TABLES[0]` is the
/// classic byte-at-a-time table; table `k` advances a byte `k` positions.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        // lsw::allow(L011): table index is bounded by the loop guard at 256
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// IEEE CRC-32 of `bytes` (the common `crc32`/zlib checksum), processed
/// eight bytes per step (slicing-by-8) — the checksum runs over every
/// block payload, so the byte-at-a-time version would tax block decode
/// by tens of nanoseconds per record.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in chunks.by_ref() {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uvarint_round_trips_edge_values() {
        let cases = [
            0u64,
            1,
            0x7f,
            0x80,
            0x3fff,
            0x4000,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ];
        for v in cases {
            let mut buf = Vec::new();
            write_uvarint(&mut buf, v);
            assert!(buf.len() <= 10, "a u64 needs at most 10 bytes");
            let mut pos = 0;
            assert_eq!(read_uvarint(&buf, &mut pos), Some(v), "value {v}");
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn uvarint_round_trips_exhaustive_small() {
        let mut buf = Vec::new();
        for v in 0u64..=70_000 {
            buf.clear();
            write_uvarint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_uvarint(&buf, &mut pos), Some(v));
        }
    }

    #[test]
    fn uvarint_rejects_truncation() {
        let mut buf = Vec::new();
        write_uvarint(&mut buf, u64::MAX);
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert_eq!(read_uvarint(&buf[..cut], &mut pos), None, "cut {cut}");
        }
    }

    #[test]
    fn uvarint_rejects_overlong_and_overflow() {
        // Eleven continuation bytes: more bits than u64 holds.
        let overlong = [0x80u8; 10];
        let mut buf = overlong.to_vec();
        buf.push(0x01);
        let mut pos = 0;
        assert_eq!(read_uvarint(&buf, &mut pos), None);
        // Ten bytes whose top byte sets bits beyond 64.
        let mut buf = vec![0xffu8; 9];
        buf.push(0x7f);
        let mut pos = 0;
        assert_eq!(read_uvarint(&buf, &mut pos), None);
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [
            0i64,
            1,
            -1,
            2,
            -2,
            i64::from(i32::MAX),
            i64::from(i32::MIN),
            i64::MAX,
            i64::MIN,
        ] {
            assert_eq!(unzigzag(zigzag(v)), v, "value {v}");
        }
        // Small magnitudes stay small: one-byte varints either sign.
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-64), 127);
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn crc32_sliced_matches_bytewise() {
        fn bytewise(bytes: &[u8]) -> u32 {
            let mut crc = 0xFFFF_FFFFu32;
            for &b in bytes {
                crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
            }
            !crc
        }
        let data: Vec<u8> = (0..1024u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for len in [0usize, 1, 7, 8, 9, 15, 16, 63, 64, 65, 1024] {
            assert_eq!(crc32(&data[..len]), bytewise(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let base = b"the quick brown fox jumps over the lazy dog".to_vec();
        let reference = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), reference, "byte {byte} bit {bit}");
            }
        }
    }
}
