//! Compact typed identifiers.
//!
//! The paper identifies a *client* by the player ID recorded in each log
//! entry (§2.2), maps client IPs to autonomous systems and countries
//! (§3.1), and distinguishes two live objects (§2.1). These newtypes keep
//! those spaces from being confused while staying 4 bytes or less, so a
//! 5.5-million-entry trace stays comfortably in memory.

use serde::{Deserialize, Serialize};

/// A client, identified by its media-player ID (one per user install).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ClientId(pub u32);

/// A live streaming object (feed). The paper's trace has exactly two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ObjectId(pub u16);

impl ObjectId {
    /// The URI stem as it would appear in a WMS log.
    pub fn uri(&self) -> String {
        format!("/live/feed{}.asf", self.0)
    }
}

/// An autonomous system (AS) number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AsId(pub u16);

/// An IPv4 address stored as a host-order u32.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Ipv4Addr(pub u32);

impl Ipv4Addr {
    /// Builds from dotted-quad octets.
    pub fn from_octets(a: u8, b: u8, c: u8, d: u8) -> Self {
        Self(u32::from(a) << 24 | u32::from(b) << 16 | u32::from(c) << 8 | u32::from(d))
    }

    /// The four octets, most significant first.
    pub(crate) fn octets(&self) -> [u8; 4] {
        [
            (self.0 >> 24) as u8,
            (self.0 >> 16) as u8,
            (self.0 >> 8) as u8,
            self.0 as u8,
        ]
    }
}

impl std::fmt::Display for Ipv4Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let o = self.octets();
        write!(f, "{}.{}.{}.{}", o[0], o[1], o[2], o[3])
    }
}

impl std::str::FromStr for Ipv4Addr {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split('.');
        let mut octets = [0u8; 4];
        for o in &mut octets {
            *o = parts
                .next()
                .ok_or_else(|| format!("bad IPv4 address: {s}"))?
                .parse::<u8>()
                .map_err(|e| format!("bad IPv4 address {s}: {e}"))?;
        }
        if parts.next().is_some() {
            return Err(format!("bad IPv4 address: {s}"));
        }
        Ok(Self::from_octets(
            octets[0], octets[1], octets[2], octets[3],
        ))
    }
}

/// ISO-3166-ish two-letter country code, stored as two ASCII bytes.
///
/// The paper's client population spans 11 countries (Fig 2 right):
/// BR, US, AR, JP, DE, CH, AU, BE, BO, SG, SV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CountryCode(pub [u8; 2]);

impl CountryCode {
    /// Creates a country code from a 2-letter string.
    pub fn new(code: &str) -> Result<Self, String> {
        let bytes = code.as_bytes();
        if bytes.len() != 2 || !bytes.iter().all(|b| b.is_ascii_uppercase()) {
            return Err(format!(
                "country code must be two uppercase ASCII letters, got {code:?}"
            ));
        }
        Ok(Self([bytes[0], bytes[1]]))
    }

    /// The code as a `&str`.
    pub(crate) fn as_str(&self) -> &str {
        // lsw::allow(L005): new() only accepts two ASCII uppercase bytes
        std::str::from_utf8(&self.0).expect("constructed from ASCII")
    }

    /// The 11 countries observed in the paper's trace (Fig 2 right),
    /// ordered by transfer share (Brazil first, overwhelmingly).
    pub const PAPER_COUNTRIES: [&'static str; 11] = [
        "BR", "US", "AR", "JP", "DE", "CH", "AU", "BE", "BO", "SG", "SV",
    ];
}

impl std::fmt::Display for CountryCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    #[test]
    fn object_uri() {
        assert_eq!(ObjectId(0).uri(), "/live/feed0.asf");
        assert_eq!(ObjectId(1).uri(), "/live/feed1.asf");
    }

    #[test]
    fn ipv4_round_trip() {
        let ip = Ipv4Addr::from_octets(200, 17, 34, 5);
        assert_eq!(ip.to_string(), "200.17.34.5");
        assert_eq!(Ipv4Addr::from_str("200.17.34.5").unwrap(), ip);
        assert_eq!(ip.octets(), [200, 17, 34, 5]);
    }

    #[test]
    fn ipv4_rejects_garbage() {
        assert!(Ipv4Addr::from_str("1.2.3").is_err());
        assert!(Ipv4Addr::from_str("1.2.3.4.5").is_err());
        assert!(Ipv4Addr::from_str("1.2.3.256").is_err());
        assert!(Ipv4Addr::from_str("a.b.c.d").is_err());
    }

    #[test]
    fn country_code_validation() {
        assert_eq!(CountryCode::new("BR").unwrap().as_str(), "BR");
        assert!(CountryCode::new("br").is_err());
        assert!(CountryCode::new("BRA").is_err());
        assert!(CountryCode::new("B").is_err());
        assert_eq!(CountryCode::PAPER_COUNTRIES.len(), 11);
    }

    #[test]
    fn ids_are_ordered() {
        assert!(ClientId(1) < ClientId(2));
        assert!(AsId(5) > AsId(4));
    }
}
