//! Topology grammar and client→relay routing.
//!
//! The CLI flag `--topology origin[:relays[:key]]` selects the overlay
//! shape: `origin` alone (or `relays = 0`) is today's single-tier
//! replay; `origin:N` interposes `N` relay nodes; the optional third
//! segment picks the routing key that assigns trace clients to relays.
//!
//! Routing is keyed on the paper's client-layer concentration: live
//! audiences cluster by autonomous system and country, so an edge
//! deployment pins each AS (default) or country to one relay and the
//! relay's single origin subscription serves that whole cluster. The
//! assignment must be a pure function of the trace record — both the
//! threaded harness and the virtual-time executor route with it, and
//! byte-reproducibility requires they agree — so it is the workspace's
//! deterministic `hash64` over the key, mod the relay count.

use lsw_stream::sketch::hash64;
use lsw_trace::schedule::ScheduledTransfer;
use std::fmt;
use std::str::FromStr;

/// Which trace field clusters clients onto relays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RouteBy {
    /// By autonomous system (the paper's strongest concentration axis).
    #[default]
    As,
    /// By country of the AS.
    Country,
    /// By player id — no locality, the adversarial spread case.
    Client,
}

impl RouteBy {
    /// The routing key of one transfer under this policy.
    fn key(self, t: &ScheduledTransfer) -> u64 {
        match self {
            RouteBy::As => u64::from(t.as_id.0),
            RouteBy::Country => u64::from(u16::from_be_bytes(t.country.0)) | (1 << 32),
            RouteBy::Client => u64::from(t.client.0) | (1 << 33),
        }
    }
}

impl fmt::Display for RouteBy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RouteBy::As => "as",
            RouteBy::Country => "country",
            RouteBy::Client => "client",
        })
    }
}

/// A parsed `--topology` value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Relay nodes between the origin and the clients (0 = single tier).
    pub relays: u32,
    /// How trace clients are assigned to relays.
    pub route_by: RouteBy,
}

impl Default for Topology {
    fn default() -> Self {
        Self {
            relays: 0,
            route_by: RouteBy::As,
        }
    }
}

impl Topology {
    /// Whether any relay tier is interposed at all.
    pub fn is_edge(&self) -> bool {
        self.relays > 0
    }

    /// Deterministically routes one transfer to a relay index.
    pub(crate) fn route(&self, t: &ScheduledTransfer) -> u32 {
        if self.relays == 0 {
            return 0;
        }
        // Truncation is exact: the modulus fits u32.
        #[allow(clippy::cast_possible_truncation)]
        {
            (hash64(self.route_by.key(t)) % u64::from(self.relays)) as u32
        }
    }
}

impl FromStr for Topology {
    type Err = String;

    /// Parses `origin[:relays[:key]]`, e.g. `origin`, `origin:2`,
    /// `origin:4:country`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split(':');
        match parts.next() {
            Some("origin") => {}
            _ => return Err(format!("topology must start with `origin`: {s:?}")),
        }
        let mut topo = Topology::default();
        if let Some(relays) = parts.next() {
            topo.relays = relays
                .parse::<u32>()
                .map_err(|_| format!("relay count must be a number: {relays:?}"))?;
            if topo.relays > 256 {
                return Err(format!("relay count {} exceeds the 256 cap", topo.relays));
            }
        }
        if let Some(key) = parts.next() {
            topo.route_by = match key {
                "as" => RouteBy::As,
                "country" => RouteBy::Country,
                "client" => RouteBy::Client,
                other => return Err(format!("routing key must be as|country|client: {other:?}")),
            };
        }
        if parts.next().is_some() {
            return Err(format!("topology has too many segments: {s:?}"));
        }
        Ok(topo)
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.relays == 0 {
            f.write_str("origin")
        } else {
            write!(f, "origin:{}:{}", self.relays, self.route_by)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsw_trace::event::LogEntryBuilder;
    use lsw_trace::ids::{AsId, ClientId, CountryCode, Ipv4Addr, ObjectId};

    fn transfer(client: u32, as_id: u16, country: [u8; 2]) -> ScheduledTransfer {
        ScheduledTransfer::from_entry(
            &LogEntryBuilder::new()
                .span(0, 10)
                .client(ClientId(client))
                .origin(Ipv4Addr(0x0a00_0001), AsId(as_id), CountryCode(country))
                .object(ObjectId(1), 0)
                .transfer_stats(1_000, 64_000, 0.0)
                .build(),
        )
    }

    #[test]
    fn grammar_round_trips() {
        for s in [
            "origin",
            "origin:2:as",
            "origin:4:country",
            "origin:8:client",
        ] {
            let t: Topology = s.parse().unwrap();
            assert_eq!(t.to_string(), s);
        }
        // `origin:0` and bare `origin` normalize to the same shape.
        assert_eq!(
            "origin:0".parse::<Topology>().unwrap().to_string(),
            "origin"
        );
        assert_eq!(
            "origin:3".parse::<Topology>().unwrap().route_by,
            RouteBy::As
        );
    }

    #[test]
    fn bad_grammar_is_rejected() {
        for s in [
            "",
            "edge:2",
            "origin:x",
            "origin:2:zip",
            "origin:2:as:9",
            "origin:999",
        ] {
            assert!(s.parse::<Topology>().is_err(), "{s:?} must not parse");
        }
    }

    #[test]
    fn routing_is_stable_and_key_sensitive() {
        let topo = Topology {
            relays: 4,
            route_by: RouteBy::As,
        };
        let a = transfer(1, 7, *b"BR");
        let b = transfer(2, 7, *b"US");
        // Same AS → same relay regardless of client/country.
        assert_eq!(topo.route(&a), topo.route(&b));
        assert_eq!(topo.route(&a), topo.route(&a));
        assert!(topo.route(&a) < 4);

        let by_client = Topology {
            relays: 4,
            route_by: RouteBy::Client,
        };
        // Client routing spreads distinct clients across relays.
        let hits: std::collections::BTreeSet<u32> = (0..64)
            .map(|c| by_client.route(&transfer(c, 7, *b"BR")))
            .collect();
        assert!(hits.len() > 1);
    }

    #[test]
    fn only_shapes_with_relays_are_edges() {
        for (s, edge) in [("origin", false), ("origin:0", false), ("origin:1", true)] {
            assert_eq!(s.parse::<Topology>().unwrap().is_edge(), edge, "{s}");
        }
    }
}
