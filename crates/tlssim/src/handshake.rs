//! TLS handshake simulation.
//!
//! A handshake takes a client configuration (trust store, pin set, SNI)
//! and a server configuration (certificate chain, resumption support) and
//! produces either an established [`TlsSession`] or a
//! [`HandshakeError`]. The MITM proxy calls this twice per intercepted
//! connection: once as a *server* facing the device (with a forged chain)
//! and once as a *client* facing the real origin.

use crate::cert::CertificateChain;
use crate::pinning::PinSet;
use crate::record::{self, FULL_HANDSHAKE_BYTES, RESUMED_HANDSHAKE_BYTES};
use crate::trust::TrustStore;
use std::sync::Arc;

/// Client-side handshake parameters.
#[derive(Clone, Debug)]
pub struct ClientConfig<'a> {
    /// Roots the client trusts.
    pub trust: &'a TrustStore,
    /// Pins the client enforces for this host (empty = none).
    pub pins: &'a PinSet,
    /// Server name sent in the ClientHello SNI extension. The MITM proxy
    /// reads this to know which leaf to forge.
    pub server_name: &'a str,
    /// Current simulation time (for validity checks).
    pub now: u64,
}

/// Server-side handshake parameters.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Chain the server presents (shared with the issuing authority's
    /// memo; see [`crate::CertificateAuthority::chain_for`]).
    pub chain: Arc<CertificateChain>,
    /// Whether the server offers session resumption.
    pub supports_resumption: bool,
}

/// Why a handshake failed. Mirrors the TLS alerts relevant to the study.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HandshakeError {
    /// Chain failed structural/validity/name/anchor verification
    /// (alert: `bad_certificate` / `unknown_ca`).
    UntrustedCertificate,
    /// Chain verified but violated the client's pin set. This is the
    /// failure that forced Facebook/Twitter out of the original study.
    PinViolation,
    /// The handshake aborted for a network-level reason unrelated to
    /// certificates or pins (lost flight, mid-handshake reset, peer
    /// `internal_error` alert). This is the fault-injection hook: live
    /// 2016 captures were full of handshakes that simply died, and the
    /// chaos layer reproduces them through this variant.
    Aborted,
}

impl HandshakeError {
    /// Whether a client may reasonably retry the connection (certificate
    /// and pin failures are deterministic; aborts are weather).
    pub fn is_transient(&self) -> bool {
        matches!(self, HandshakeError::Aborted)
    }
}

impl std::fmt::Display for HandshakeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HandshakeError::UntrustedCertificate => f.write_str("untrusted certificate chain"),
            HandshakeError::PinViolation => f.write_str("certificate pin violation"),
            HandshakeError::Aborted => f.write_str("handshake aborted (network fault)"),
        }
    }
}

impl std::error::Error for HandshakeError {}

/// An established TLS session.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TlsSession {
    /// Bytes consumed by the handshake itself.
    pub handshake_bytes: usize,
    /// Whether this was an abbreviated (resumed) handshake.
    pub resumed: bool,
}

impl TlsSession {
    /// Wire bytes for sending `plaintext_len` application bytes over this
    /// session (record framing only; the handshake is counted once in
    /// [`TlsSession::handshake_bytes`]).
    pub fn wire_bytes(&self, plaintext_len: usize) -> usize {
        let wire = record::wire_bytes(plaintext_len);
        appvsweb_obs::counter!("tlssim.record_overhead_bytes", wire - plaintext_len);
        wire
    }
}

/// Outcome of [`handshake`].
pub type HandshakeOutcome = Result<TlsSession, HandshakeError>;

/// Run a TLS handshake between `client` and `server`.
///
/// `resume` requests an abbreviated handshake; it is honoured only when
/// the server supports resumption (certificate checks still apply —
/// clients re-validate on resumption in this model, which is the
/// conservative behaviour).
pub fn handshake(
    client: &ClientConfig<'_>,
    server: &ServerConfig,
    resume: bool,
) -> HandshakeOutcome {
    handshake_with_fault(client, server, resume, false)
}

/// [`handshake`] with a fault-injection input: when `abort` is true the
/// handshake dies with [`HandshakeError::Aborted`] *after* certificate
/// and pin evaluation, so an injected abort can never mask — or be
/// masked by — a deterministic trust failure. The proxy rolls `abort`
/// from its fault injector; a plan of zero never reaches here with
/// `true`.
pub fn handshake_with_fault(
    client: &ClientConfig<'_>,
    server: &ServerConfig,
    resume: bool,
    abort: bool,
) -> HandshakeOutcome {
    if !client
        .trust
        .verify(&server.chain, client.server_name, client.now)
    {
        appvsweb_obs::counter!("tlssim.handshake_failures");
        appvsweb_obs::event!("tls.untrusted", "{}", client.server_name);
        return Err(HandshakeError::UntrustedCertificate);
    }
    if !client.pins.accepts(&server.chain) {
        appvsweb_obs::counter!("tlssim.handshake_failures");
        appvsweb_obs::event!("tls.pin_violation", "{}", client.server_name);
        return Err(HandshakeError::PinViolation);
    }
    if abort {
        appvsweb_obs::counter!("tlssim.aborts");
        appvsweb_obs::event!("tls.abort", "{}", client.server_name);
        return Err(HandshakeError::Aborted);
    }
    let resumed = resume && server.supports_resumption;
    appvsweb_obs::counter!("tlssim.handshakes");
    appvsweb_obs::event!("tls.handshake", "{} resumed={resumed}", client.server_name);
    Ok(TlsSession {
        handshake_bytes: if resumed {
            RESUMED_HANDSHAKE_BYTES
        } else {
            FULL_HANDSHAKE_BYTES
        },
        resumed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::CertificateAuthority;

    fn world() -> (CertificateAuthority, TrustStore) {
        let ca = CertificateAuthority::new("PublicRoot");
        let mut trust = TrustStore::new();
        trust.add_root(&ca.root);
        (ca, trust)
    }

    #[test]
    fn successful_full_and_resumed_handshake() {
        let (ca, trust) = world();
        let pins = PinSet::none();
        let server = ServerConfig {
            chain: ca.chain_for("api.bbc.co.uk"),
            supports_resumption: true,
        };
        let client = ClientConfig {
            trust: &trust,
            pins: &pins,
            server_name: "api.bbc.co.uk",
            now: 0,
        };
        let full = handshake(&client, &server, false).unwrap();
        assert!(!full.resumed);
        assert_eq!(full.handshake_bytes, FULL_HANDSHAKE_BYTES);
        let res = handshake(&client, &server, true).unwrap();
        assert!(res.resumed);
        assert!(res.handshake_bytes < full.handshake_bytes);
    }

    #[test]
    fn resumption_requires_server_support() {
        let (ca, trust) = world();
        let pins = PinSet::none();
        let server = ServerConfig {
            chain: ca.chain_for("x.com"),
            supports_resumption: false,
        };
        let client = ClientConfig {
            trust: &trust,
            pins: &pins,
            server_name: "x.com",
            now: 0,
        };
        assert!(!handshake(&client, &server, true).unwrap().resumed);
    }

    #[test]
    fn untrusted_chain_fails() {
        let (_ca, trust) = world();
        let rogue = CertificateAuthority::new("Rogue");
        let pins = PinSet::none();
        let server = ServerConfig {
            chain: rogue.chain_for("x.com"),
            supports_resumption: false,
        };
        let client = ClientConfig {
            trust: &trust,
            pins: &pins,
            server_name: "x.com",
            now: 0,
        };
        assert_eq!(
            handshake(&client, &server, false),
            Err(HandshakeError::UntrustedCertificate)
        );
    }

    #[test]
    fn pin_violation_beats_valid_chain() {
        // The MITM scenario: proxy CA is *trusted* (installed on device)
        // but the app pins the origin's real key.
        let (real_ca, mut trust) = world();
        let proxy = CertificateAuthority::new("MeddleProxyCA");
        trust.add_root(&proxy.root);
        let real_chain = real_ca.chain_for("facebook.com");
        let pins = PinSet::of([real_chain.leaf().unwrap().key]);
        let forged = ServerConfig {
            chain: proxy.chain_for("facebook.com"),
            supports_resumption: true,
        };
        let client = ClientConfig {
            trust: &trust,
            pins: &pins,
            server_name: "facebook.com",
            now: 0,
        };
        assert_eq!(
            handshake(&client, &forged, false),
            Err(HandshakeError::PinViolation)
        );
        // Direct connection to the real origin still succeeds.
        let direct = ServerConfig {
            chain: real_chain,
            supports_resumption: true,
        };
        assert!(handshake(&client, &direct, false).is_ok());
    }

    #[test]
    fn injected_abort_fires_only_after_trust_checks() {
        let (ca, trust) = world();
        let pins = PinSet::none();
        let server = ServerConfig {
            chain: ca.chain_for("api.x.com"),
            supports_resumption: true,
        };
        let client = ClientConfig {
            trust: &trust,
            pins: &pins,
            server_name: "api.x.com",
            now: 0,
        };
        let err = handshake_with_fault(&client, &server, false, true).unwrap_err();
        assert_eq!(err, HandshakeError::Aborted);
        assert!(err.is_transient());
        assert!(!HandshakeError::PinViolation.is_transient());

        // A trust failure wins over an injected abort: the abort must
        // never hide the deterministic outcome.
        let rogue = CertificateAuthority::new("Rogue");
        let bad = ServerConfig {
            chain: rogue.chain_for("api.x.com"),
            supports_resumption: true,
        };
        assert_eq!(
            handshake_with_fault(&client, &bad, false, true),
            Err(HandshakeError::UntrustedCertificate)
        );
        // And without the fault the handshake still succeeds.
        assert!(handshake_with_fault(&client, &server, false, false).is_ok());
    }

    #[test]
    fn sni_mismatch_fails() {
        let (ca, trust) = world();
        let pins = PinSet::none();
        let server = ServerConfig {
            chain: ca.chain_for("a.com"),
            supports_resumption: false,
        };
        let client = ClientConfig {
            trust: &trust,
            pins: &pins,
            server_name: "b.com",
            now: 0,
        };
        assert_eq!(
            handshake(&client, &server, false),
            Err(HandshakeError::UntrustedCertificate)
        );
    }
}

appvsweb_json::impl_json!(
    enum HandshakeError {
        UntrustedCertificate,
        PinViolation,
        Aborted,
    }
);
appvsweb_json::impl_json!(struct TlsSession { handshake_bytes, resumed });
