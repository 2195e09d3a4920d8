//! Replay time: nanoseconds since the run's origin.
//!
//! Every wall-time acquisition in this crate happens through
//! [`WallClock`], so the determinism lint surface is one reasoned site —
//! not a file exemption. The virtual-time executor never constructs a
//! `WallClock` at all; it advances a plain integer ([`virt`]).
//!
//! [`virt`]: crate::virt

use std::time::{Duration, Instant};

/// Nanoseconds of replay time (since a clock's origin).
pub type Nanos = u64;

/// One nanosecond-resolution monotonic clock anchored at construction.
///
/// Shared (via `Arc`) by the server's pacing loops and the driver's
/// schedule so both sides agree on what "now" means.
#[derive(Debug, Clone)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// Anchors a clock at the current instant.
    pub fn start() -> Self {
        // The replay harness is the one workspace component whose whole
        // point is real elapsed time; acquisition is confined to this
        // constructor and `now` below.
        #[allow(clippy::disallowed_methods)]
        Self {
            // lsw::allow(L002): replay pacing is anchored to real time by design
            origin: Instant::now(),
        }
    }

    /// Nanoseconds elapsed since the origin.
    pub fn now(&self) -> Nanos {
        #[allow(clippy::disallowed_methods)]
        // lsw::allow(L002): single sanctioned wall-time read for pacing loops
        let elapsed = Instant::now() - self.origin;
        saturating_nanos(elapsed)
    }
}

fn saturating_nanos(d: Duration) -> Nanos {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Converts trace seconds to replay nanoseconds under a compression
/// factor: `t` trace seconds pass in `t / compression` wall seconds.
pub(crate) fn trace_to_nanos(trace_secs: u32, compression: f64) -> Nanos {
    let wall = f64::from(trace_secs) / compression.max(1e-9);
    if wall >= u64::MAX as f64 / 1e9 {
        u64::MAX
    } else {
        (wall * 1e9) as Nanos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotone() {
        let c = WallClock::start();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }

    #[test]
    fn compression_scales_trace_time() {
        assert_eq!(trace_to_nanos(100, 100.0), 1_000_000_000);
        assert_eq!(trace_to_nanos(1, 1.0), 1_000_000_000);
        assert_eq!(trace_to_nanos(0, 50.0), 0);
    }

    #[test]
    fn trace_to_nanos_clamps_compression_and_saturates() {
        assert_eq!(trace_to_nanos(3, 2.0), 1_500_000_000);
        // Zero compression is clamped to 1e-9, not divided by.
        assert_eq!(trace_to_nanos(10, 0.0), 10_000_000_000_000_000_000);
        // Past u64::MAX nanoseconds the result saturates.
        assert_eq!(trace_to_nanos(20, 0.0), u64::MAX);
        assert_eq!(trace_to_nanos(u32::MAX, 1e-6), u64::MAX);
    }
}
