//! Certificate pinning.
//!
//! Apps that pin (Facebook, Twitter in the original study) reject any
//! chain whose keys are not in their pin set — including the MITM proxy's
//! forged chains, which is why pinned services could not be measured and
//! were excluded by selection criterion (4) in §3.1 of the paper.

use crate::cert::{CertificateChain, KeyId};
use std::collections::BTreeSet;

/// A set of pinned public keys for a specific service.
///
/// Matching follows HPKP-style semantics: the chain is accepted if *any*
/// certificate in it carries a pinned key. An empty pin set means "no
/// pinning" and accepts everything.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PinSet {
    pins: BTreeSet<KeyId>,
}

impl PinSet {
    /// No pinning: every chain acceptable.
    pub fn none() -> Self {
        Self::default()
    }

    /// Pin the given keys.
    pub fn of(keys: impl IntoIterator<Item = KeyId>) -> Self {
        PinSet {
            pins: keys.into_iter().collect(),
        }
    }

    /// Whether `chain` satisfies the pins.
    pub fn accepts(&self, chain: &CertificateChain) -> bool {
        if self.pins.is_empty() {
            return true;
        }
        chain.0.iter().any(|c| self.pins.contains(&c.key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::CertificateAuthority;

    #[test]
    fn empty_pinset_accepts_all() {
        let ca = CertificateAuthority::new("Root");
        assert!(PinSet::none().accepts(&ca.chain_for("x.com")));
    }

    #[test]
    fn pinned_leaf_accepts_only_matching_key() {
        let ca = CertificateAuthority::new("Root");
        let chain = ca.chain_for("facebook.com");
        let pins = PinSet::of([chain.leaf().unwrap().key]);
        assert!(pins.accepts(&chain));
        // A forged chain for the same host under a proxy CA has different keys.
        let proxy = CertificateAuthority::new("MeddleProxyCA");
        assert!(!pins.accepts(&proxy.chain_for("facebook.com")));
    }

    #[test]
    fn pinning_the_ca_key_accepts_reissued_leaves() {
        let ca = CertificateAuthority::new("Root");
        let pins = PinSet::of([ca.root.key]);
        assert!(pins.accepts(&ca.chain_for("a.twitter.com")));
        assert!(pins.accepts(&ca.chain_for("b.twitter.com")));
    }
}

appvsweb_json::impl_json!(struct PinSet { pins });
