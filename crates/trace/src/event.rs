//! The per-transfer log record, modeled on Windows Media Server logging.
//!
//! §2.3 of the paper lists what each WMS log entry carries: client
//! identification (IP, player ID), requested object URI, transfer
//! statistics (packet loss, average bandwidth), server load (CPU), status,
//! and a timestamp in *seconds* — the coarse resolution responsible for the
//! paper's `⌊t⌋+1` display convention. [`LogEntry`] captures those fields
//! compactly (48 bytes) so the full 5.5M-transfer trace fits in memory.

use crate::ids::{AsId, ClientId, CountryCode, Ipv4Addr, ObjectId};
use serde::{Deserialize, Serialize};

/// One client/server request/response pair: a single unicast transfer.
///
/// Times are seconds since the trace epoch (the start of log collection).
/// Like the real WMS, the entry is *logged when the transfer stops*;
/// [`LogEntry::timestamp`] therefore equals [`LogEntry::stop`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogEntry {
    /// When the entry was written (== transfer stop time), whole seconds.
    pub timestamp: u32,
    /// Transfer start time, whole seconds.
    pub start: u32,
    /// Transfer duration in seconds (`stop - start`).
    pub duration: u32,
    /// The requesting client (player ID).
    pub client: ClientId,
    /// Client IP address at request time.
    pub ip: Ipv4Addr,
    /// Autonomous system the IP maps to.
    pub as_id: AsId,
    /// Country the AS is registered in.
    pub country: CountryCode,
    /// Which live object (feed) was requested.
    pub object: ObjectId,
    /// Camera the feed was showing when the transfer started (0..48).
    pub camera: u8,
    /// Bytes delivered over the transfer.
    pub bytes: u64,
    /// Average bandwidth over the transfer, bits per second.
    pub avg_bandwidth: u32,
    /// Packet loss rate over the transfer, fraction in [0, 1].
    pub packet_loss: f32,
    /// Server CPU utilization when the entry was logged, fraction in [0, 1].
    pub cpu_util: f32,
    /// Protocol status code (200 = OK; the sanitizer keeps only 2xx).
    pub status: u16,
}

impl LogEntry {
    /// Transfer stop time in whole seconds.
    pub fn stop(&self) -> u32 {
        self.start.saturating_add(self.duration)
    }

    /// Transfer duration under the paper's `⌊t⌋+1` log-display convention.
    pub fn display_duration(&self) -> f64 {
        self.duration as f64 + 1.0
    }

    /// True when the transfer succeeded (2xx status).
    pub(crate) fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// Internal consistency check; returns a description of the first
    /// violated invariant, if any.
    pub fn validate(&self) -> Result<(), String> {
        if self.timestamp != self.stop() {
            return Err(format!(
                "timestamp {} != stop {} (WMS logs at transfer stop)",
                self.timestamp,
                self.stop()
            ));
        }
        if !(0.0..=1.0).contains(&self.packet_loss) {
            return Err(format!("packet_loss {} outside [0,1]", self.packet_loss));
        }
        if !(0.0..=1.0).contains(&self.cpu_util) {
            return Err(format!("cpu_util {} outside [0,1]", self.cpu_util));
        }
        Ok(())
    }
}

/// Convenience builder used by the generator, the simulator and tests.
#[derive(Debug, Clone)]
pub struct LogEntryBuilder {
    entry: LogEntry,
}

impl Default for LogEntryBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl LogEntryBuilder {
    /// Starts from an all-defaults entry (zero times, client 0, feed 0).
    pub fn new() -> Self {
        Self {
            entry: LogEntry {
                timestamp: 0,
                start: 0,
                duration: 0,
                client: ClientId(0),
                ip: Ipv4Addr(0),
                as_id: AsId(0),
                country: CountryCode(*b"BR"),
                object: ObjectId(0),
                camera: 0,
                bytes: 0,
                avg_bandwidth: 0,
                packet_loss: 0.0,
                cpu_util: 0.0,
                status: 200,
            },
        }
    }

    /// Sets start time and duration (and the stop-time timestamp).
    pub fn span(mut self, start: u32, duration: u32) -> Self {
        self.entry.start = start;
        self.entry.duration = duration;
        self.entry.timestamp = start.saturating_add(duration);
        self
    }

    /// Sets the client.
    pub fn client(mut self, client: ClientId) -> Self {
        self.entry.client = client;
        self
    }

    /// Sets network origin fields.
    pub fn origin(mut self, ip: Ipv4Addr, as_id: AsId, country: CountryCode) -> Self {
        self.entry.ip = ip;
        self.entry.as_id = as_id;
        self.entry.country = country;
        self
    }

    /// Sets the requested object and camera.
    pub fn object(mut self, object: ObjectId, camera: u8) -> Self {
        self.entry.object = object;
        self.entry.camera = camera;
        self
    }

    /// Sets transfer statistics.
    pub fn transfer_stats(mut self, bytes: u64, avg_bandwidth: u32, packet_loss: f32) -> Self {
        self.entry.bytes = bytes;
        self.entry.avg_bandwidth = avg_bandwidth;
        self.entry.packet_loss = packet_loss;
        self
    }

    /// Sets server-side fields.
    pub fn server(mut self, cpu_util: f32, status: u16) -> Self {
        self.entry.cpu_util = cpu_util;
        self.entry.status = status;
        self
    }

    /// Finishes the entry.
    pub fn build(self) -> LogEntry {
        self.entry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_consistent_entry() {
        let e = LogEntryBuilder::new()
            .span(100, 50)
            .client(ClientId(7))
            .object(ObjectId(1), 12)
            .transfer_stats(500_000, 34_000, 0.01)
            .server(0.05, 200)
            .build();
        assert_eq!(e.stop(), 150);
        assert_eq!(e.timestamp, 150);
        assert!(e.is_success());
        assert!(e.validate().is_ok());
        assert_eq!(e.display_duration(), 51.0);
    }

    #[test]
    fn validate_catches_timestamp_mismatch() {
        let mut e = LogEntryBuilder::new().span(10, 5).build();
        e.timestamp = 99;
        assert!(e.validate().is_err());
    }

    #[test]
    fn validate_catches_bad_fractions() {
        let mut e = LogEntryBuilder::new().span(0, 1).build();
        e.packet_loss = 1.5;
        assert!(e.validate().is_err());
        e.packet_loss = 0.0;
        e.cpu_util = -0.1;
        assert!(e.validate().is_err());
    }

    #[test]
    fn zero_duration_transfers_allowed() {
        // The 1-second log resolution means sub-second transfers appear as
        // duration 0; the paper's ⌊t⌋+1 convention displays them as 1.
        let e = LogEntryBuilder::new().span(42, 0).build();
        assert_eq!(e.stop(), 42);
        assert_eq!(e.display_duration(), 1.0);
        assert!(e.validate().is_ok());
    }

    #[test]
    fn non_success_status() {
        let e = LogEntryBuilder::new().span(0, 1).server(0.0, 404).build();
        assert!(!e.is_success());
    }

    #[test]
    fn entry_is_compact() {
        // Keep the record small: a 5.5M-entry trace must stay in memory.
        assert!(std::mem::size_of::<LogEntry>() <= 56);
    }
}
