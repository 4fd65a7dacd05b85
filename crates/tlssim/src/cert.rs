//! Certificates, authorities, and chains.
//!
//! Keys are opaque 64-bit identifiers derived deterministically from the
//! authority/subject names, so the same simulated world always produces
//! the same key material — a requirement for reproducible experiments.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// An opaque public-key identifier (stands in for an SPKI hash).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KeyId(pub u64);

impl KeyId {
    /// Derive a key id deterministically from a label (FNV-1a over the
    /// label bytes with an avalanche finish). Not cryptographic; only
    /// uniqueness within the simulation matters.
    pub fn derive(label: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in label.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // SplitMix64-style finalizer for avalanche.
        h ^= h >> 30;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        KeyId(h)
    }
}

impl fmt::Display for KeyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// A simulated X.509 certificate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Certificate {
    /// Subject common name (a DNS name or CA label).
    pub subject: String,
    /// Subject alternative names; name matching checks these plus the CN.
    pub san: Vec<String>,
    /// Issuer common name.
    pub issuer: String,
    /// The subject's public key.
    pub key: KeyId,
    /// The key that signed this certificate.
    pub signed_by: KeyId,
    /// Whether the certificate may sign others (CA bit).
    pub is_ca: bool,
    /// Validity start (simulation seconds).
    pub not_before: u64,
    /// Validity end (simulation seconds).
    pub not_after: u64,
}

impl Certificate {
    /// Whether `host` matches this certificate's CN or any SAN, with
    /// left-most-label wildcard support (`*.example.com`).
    pub fn matches_host(&self, host: &str) -> bool {
        std::iter::once(self.subject.as_str())
            .chain(self.san.iter().map(String::as_str))
            .any(|name| name_matches(name, host))
    }

    /// Whether `now` falls within the validity window.
    pub fn valid_at(&self, now: u64) -> bool {
        (self.not_before..=self.not_after).contains(&now)
    }
}

/// Wildcard name matching per RFC 6125: `*` may replace exactly the
/// left-most label and must not match across dots. Comparison is
/// ASCII-case-insensitive in place, so neither side is re-allocated.
fn name_matches(pattern: &str, host: &str) -> bool {
    if let Some(suffix) = pattern.strip_prefix("*.") {
        match host.split_once('.') {
            Some((first_label, rest)) => {
                !first_label.is_empty() && rest.eq_ignore_ascii_case(suffix)
            }
            None => false,
        }
    } else {
        pattern.eq_ignore_ascii_case(host)
    }
}

/// A certificate chain ordered leaf-first.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CertificateChain(pub Vec<Certificate>);

impl CertificateChain {
    /// The leaf (end-entity) certificate.
    pub fn leaf(&self) -> Option<&Certificate> {
        self.0.first()
    }

    /// Structural validation: every certificate is signed by the next one
    /// in the chain, intermediates have the CA bit, and all are valid at
    /// `now`. Trust anchoring is checked separately by the
    /// [`crate::TrustStore`].
    pub fn structurally_valid(&self, now: u64) -> bool {
        if self.0.is_empty() {
            return false;
        }
        for (i, cert) in self.0.iter().enumerate() {
            if !cert.valid_at(now) {
                return false;
            }
            if i > 0 && !cert.is_ca {
                return false;
            }
            if let Some(parent) = self.0.get(i + 1) {
                if cert.signed_by != parent.key {
                    return false;
                }
            }
        }
        true
    }

    /// The key that signed the last certificate in the chain — where trust
    /// anchoring happens. For a self-signed root this equals the root key.
    pub fn anchor_key(&self) -> Option<KeyId> {
        self.0.last().map(|c| c.signed_by)
    }
}

/// A certificate authority that can issue leaf and intermediate
/// certificates. The MITM proxy owns one of these and forges leaves on
/// the fly, exactly as mitmproxy does with its installed CA.
#[derive(Clone, Debug)]
pub struct CertificateAuthority {
    /// The CA's own (self-signed) certificate.
    pub root: Certificate,
    /// Per-host chain memo. Issuance is a pure function of
    /// `(root, host)` — keys are derived, never drawn — so the chain
    /// for a host is built once and shared on re-issue. Shared across
    /// clones of the authority (same root ⇒ same chains).
    issued: Arc<Mutex<HashMap<String, Arc<CertificateChain>>>>,
}

/// Default validity horizon used for issued certificates, in simulation
/// seconds (10 years — far beyond any experiment).
pub const DEFAULT_VALIDITY: u64 = 10 * 365 * 24 * 3600;

impl CertificateAuthority {
    /// Create a new root CA named `label`.
    pub fn new(label: &str) -> Self {
        let key = KeyId::derive(&format!("ca-key:{label}"));
        CertificateAuthority {
            root: Certificate {
                subject: label.to_string(),
                san: vec![],
                issuer: label.to_string(),
                key,
                signed_by: key,
                is_ca: true,
                not_before: 0,
                not_after: DEFAULT_VALIDITY,
            },
            issued: Default::default(),
        }
    }

    /// Issue a leaf certificate for `host` (plus a wildcard SAN for its
    /// immediate subdomains, as real CDN certs commonly carry).
    pub fn issue_leaf(&self, host: &str) -> Certificate {
        Certificate {
            subject: host.to_string(),
            san: vec![host.to_string(), format!("*.{host}")],
            issuer: self.root.subject.clone(),
            key: KeyId::derive(&format!("leaf-key:{}:{host}", self.root.subject)),
            signed_by: self.root.key,
            is_ca: false,
            not_before: 0,
            not_after: DEFAULT_VALIDITY,
        }
    }

    /// A chain consisting of a freshly issued leaf for `host` plus this
    /// CA's root. Memoized per host and shared: the proxy re-forges the
    /// same handful of hosts once per connection, issuance is pure, and
    /// a chain is only ever read, so every issue after the first is a
    /// reference-count bump.
    pub fn chain_for(&self, host: &str) -> Arc<CertificateChain> {
        // A poisoned memo only means another thread panicked mid-insert;
        // entries are pure values, so the map is still coherent.
        let mut issued = self.issued.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(chain) = issued.get(host) {
            return Arc::clone(chain);
        }
        let chain = Arc::new(CertificateChain(vec![
            self.issue_leaf(host),
            self.root.clone(),
        ]));
        issued.insert(host.to_string(), Arc::clone(&chain));
        chain
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyid_is_deterministic_and_distinct() {
        assert_eq!(KeyId::derive("a"), KeyId::derive("a"));
        assert_ne!(KeyId::derive("a"), KeyId::derive("b"));
        assert_ne!(KeyId::derive("ca-key:x"), KeyId::derive("leaf-key:x"));
    }

    #[test]
    fn wildcard_matching_rules() {
        let ca = CertificateAuthority::new("TestRoot");
        let cert = ca.issue_leaf("example.com");
        assert!(cert.matches_host("example.com"));
        assert!(cert.matches_host("www.example.com")); // via *.example.com SAN
        assert!(!cert.matches_host("a.b.example.com")); // wildcard is single-label
        assert!(!cert.matches_host("badexample.com"));
        assert!(!cert.matches_host("com"));
    }

    #[test]
    fn chain_structure_validates() {
        let ca = CertificateAuthority::new("Root");
        let chain = ca.chain_for("api.example.com");
        assert!(chain.structurally_valid(100));
        assert_eq!(chain.anchor_key(), Some(ca.root.key));
    }

    #[test]
    fn reissued_chains_are_shared() {
        let ca = CertificateAuthority::new("Root");
        let first = ca.chain_for("a.com");
        assert!(Arc::ptr_eq(&first, &ca.clone().chain_for("a.com")));
        assert!(!Arc::ptr_eq(&first, &ca.chain_for("b.com")));
        let fresh = CertificateChain(vec![ca.issue_leaf("a.com"), ca.root.clone()]);
        assert_eq!(*first, fresh);
    }

    #[test]
    fn broken_chain_rejected() {
        let ca = CertificateAuthority::new("Root");
        let other = CertificateAuthority::new("Other");
        // Leaf claims to be signed by Root but we pair it with Other's root.
        let chain = CertificateChain(vec![ca.issue_leaf("x.com"), other.root.clone()]);
        assert!(!chain.structurally_valid(100));
    }

    #[test]
    fn expired_cert_rejected() {
        let ca = CertificateAuthority::new("Root");
        let mut chain = CertificateChain::clone(&ca.chain_for("x.com"));
        chain.0[0].not_after = 10;
        assert!(!chain.structurally_valid(11));
        assert!(chain.structurally_valid(10));
    }

    #[test]
    fn non_ca_intermediate_rejected() {
        let ca = CertificateAuthority::new("Root");
        let leaf1 = ca.issue_leaf("a.com");
        let mut fake_intermediate = ca.issue_leaf("b.com");
        fake_intermediate.is_ca = false;
        // a.com "signed by" b.com's key to test the CA-bit check.
        let mut leaf = leaf1;
        leaf.signed_by = fake_intermediate.key;
        let chain = CertificateChain(vec![leaf, fake_intermediate, ca.root.clone()]);
        assert!(!chain.structurally_valid(100));
    }

    #[test]
    fn empty_chain_invalid() {
        assert!(!CertificateChain(vec![]).structurally_valid(0));
    }
}

appvsweb_json::impl_json!(newtype KeyId(u64));
appvsweb_json::impl_json!(struct Certificate { subject, san, issuer, key, signed_by, is_ca, not_before, not_after });
appvsweb_json::impl_json!(newtype CertificateChain(Vec<Certificate>));

// Hand-rolled (not `impl_json!`): only the root is state — the issued
// memo is a derived cache and must not round-trip. The shape matches
// what `impl_json!(struct CertificateAuthority { root })` emitted.
// lint:allow(R2) impl_json! cannot skip the derived `issued` field
impl appvsweb_json::ToJson for CertificateAuthority {
    fn to_json(&self) -> appvsweb_json::Json {
        appvsweb_json::Json::Obj(vec![(
            "root".to_string(),
            appvsweb_json::ToJson::to_json(&self.root),
        )])
    }
}

// lint:allow(R2) impl_json! cannot skip the derived `issued` field
impl appvsweb_json::FromJson for CertificateAuthority {
    fn from_json(v: &appvsweb_json::Json) -> Result<Self, appvsweb_json::JsonError> {
        Ok(CertificateAuthority {
            root: v.field("root")?,
            issued: Default::default(),
        })
    }
}
