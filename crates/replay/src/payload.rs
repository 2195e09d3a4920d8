//! The shared immutable payload arena and preformatted response lines.
//!
//! Payload content is irrelevant to the characterization — only bytes
//! on the wire matter — so every connection streams slices of one
//! `'static` preformatted pattern block via vectored writes. The arena
//! is borrowed, never copied: a `write_vectored` call covers up to
//! `MAX_SLICES` × `BLOCK`-byte iovecs (2 MiB) in one syscall.
//!
//! **Lifetime argument.** The block is a `static` item: it lives for
//! the program, is never written after initialization (it is a `const`
//! fill), and is shared by plain `&'static [u8]` borrows — no `Arc`,
//! no refcount traffic, no per-connection copy, and nothing to tear
//! down while a connection still holds a slice.

use std::io::IoSlice;

/// Bytes per arena block — one iovec's worth.
pub(crate) const BLOCK: usize = 64 * 1024;

/// Max iovecs per vectored write (Linux caps at `UIO_MAXIOV` = 1024;
/// 32 keeps a single call under 2 MiB, plenty to fill a socket buffer).
pub(crate) const MAX_SLICES: usize = 32;

/// The pattern block all connections stream from.
static PATTERN: [u8; BLOCK] = [0x5A; BLOCK];

/// Rejection line sent when admission turns a request away.
pub(crate) const BUSY_LINE: &[u8] = b"BUSY\n";

/// Fills `out` with arena slices covering `want` bytes (capped at
/// `MAX_SLICES * BLOCK`); returns how many slices and bytes it staged.
pub(crate) fn stage(want: u64, out: &mut [IoSlice<'static>; MAX_SLICES]) -> (usize, u64) {
    let mut staged = 0u64;
    let mut n = 0;
    while n < MAX_SLICES && staged < want {
        let take = (want - staged).min(BLOCK as u64) as usize;
        out[n] = IoSlice::new(&PATTERN[..take]);
        staged += take as u64;
        n += 1;
    }
    (n, staged)
}

/// Renders `OK {budget}\n` into a fixed stack buffer without
/// allocating; returns the filled prefix.
pub(crate) fn ok_line(budget: u64, buf: &mut [u8; 32]) -> &[u8] {
    buf[0] = b'O';
    buf[1] = b'K';
    buf[2] = b' ';
    // Digits emitted least-significant first into the tail, then the
    // filled range is shifted against the "OK " prefix.
    let mut digits = [0u8; 20];
    let mut v = budget;
    let mut nd = 0;
    loop {
        digits[nd] = b'0' + (v % 10) as u8;
        v /= 10;
        nd += 1;
        if v == 0 {
            break;
        }
    }
    for i in 0..nd {
        buf[3 + i] = digits[nd - 1 - i];
    }
    buf[3 + nd] = b'\n';
    &buf[..4 + nd]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_covers_exact_byte_counts() {
        let mut slices = [IoSlice::new(&[]); MAX_SLICES];
        let (n, bytes) = stage(10, &mut slices);
        assert_eq!((n, bytes), (1, 10));
        assert_eq!(slices[0].len(), 10);

        let (n, bytes) = stage(BLOCK as u64 + 1, &mut slices);
        assert_eq!((n, bytes), (2, BLOCK as u64 + 1));
        assert_eq!(slices[0].len(), BLOCK);
        assert_eq!(slices[1].len(), 1);

        // Oversized wants cap at one full vectored call.
        let (n, bytes) = stage(u64::MAX, &mut slices);
        assert_eq!(n, MAX_SLICES);
        assert_eq!(bytes, (MAX_SLICES * BLOCK) as u64);

        let (n, bytes) = stage(0, &mut slices);
        assert_eq!((n, bytes), (0, 0));
    }

    #[test]
    fn ok_line_matches_format() {
        let mut buf = [0u8; 32];
        assert_eq!(ok_line(0, &mut buf), b"OK 0\n");
        assert_eq!(ok_line(42, &mut buf), b"OK 42\n");
        assert_eq!(ok_line(u64::MAX, &mut buf), b"OK 18446744073709551615\n");
        for v in [1u64, 9, 10, 99, 100, 12345, 1 << 40] {
            assert_eq!(ok_line(v, &mut buf), format!("OK {v}\n").as_bytes());
        }
    }

    #[test]
    fn pattern_is_the_documented_fill() {
        let mut slices = [IoSlice::new(&[]); MAX_SLICES];
        stage(16, &mut slices);
        assert!(slices[0].iter().all(|&b| b == 0x5A));
    }
}
