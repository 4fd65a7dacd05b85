//! Captured traffic records.
//!
//! A [`Trace`] is what one test session leaves behind: the set of TCP
//! connections that crossed the tunnel, and the HTTP transactions the
//! proxy could decrypt. Both layers are kept because the paper's metrics
//! need both: flow/byte counts come from connections, PII detection from
//! transactions.

use appvsweb_httpsim::{Request, Response};
use appvsweb_netsim::{ConnectionStats, FaultCounts, SimTime};

/// Why a connection's payload was not readable, when it wasn't.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpaqueReason {
    /// The client aborted the device-side handshake because the forged
    /// chain violated its pin set.
    PinViolation,
    /// The proxy could not verify the upstream origin.
    UpstreamUntrusted,
    /// The handshake died for a network-level reason (fault injection),
    /// not a trust decision.
    HandshakeAborted,
}

/// How an aborted flow died. Live captures are full of connections that
/// carried no completed exchange; recording the cause (instead of
/// dropping the flow) keeps every connection the tunnel saw in the
/// trace, together with why it died.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowError {
    /// Packets lost until the client gave up.
    Timeout,
    /// TCP reset mid-exchange.
    Reset,
    /// TLS handshake aborted (beyond certificate/pin failures).
    TlsAborted,
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::Timeout => f.write_str("connection timed out"),
            FlowError::Reset => f.write_str("connection reset"),
            FlowError::TlsAborted => f.write_str("tls handshake aborted"),
        }
    }
}

/// One TCP connection as seen by the tunnel.
#[derive(Clone, Debug, PartialEq)]
pub struct ConnectionRecord {
    /// Tunnel-assigned connection id.
    pub id: u64,
    /// Destination host name (from SNI or the Host header).
    pub host: String,
    /// Destination port.
    pub port: u16,
    /// Whether the connection carried TLS.
    pub tls: bool,
    /// Whether the proxy could read the payload (always true for
    /// plaintext HTTP; true for HTTPS only when interception succeeded).
    pub decrypted: bool,
    /// Why payload was unreadable, if it was.
    pub opaque_reason: Option<OpaqueReason>,
    /// When the connection opened.
    pub opened_at: SimTime,
    /// When it closed (a session close sweep stamps this).
    pub closed_at: Option<SimTime>,
    /// Payload byte counters in each direction, TLS handshake and
    /// record overhead included (the Figure 1c byte count).
    pub stats: ConnectionStats,
    /// Number of HTTP transactions carried (0 for opaque connections).
    pub transactions: u32,
    /// How the flow died, when a fault killed it (`None` = clean close).
    pub error: Option<FlowError>,
}

/// One decrypted HTTP request/response exchange.
#[derive(Clone, Debug, PartialEq)]
pub struct HttpTransaction {
    /// The connection that carried this exchange.
    pub connection_id: u64,
    /// Destination host (kept denormalized for convenient scanning).
    pub host: String,
    /// Whether the exchange travelled in plaintext (HTTP, not HTTPS).
    pub plaintext: bool,
    /// When the request entered the tunnel.
    pub at: SimTime,
    /// The request as the origin received it.
    pub request: Request,
    /// The origin's response.
    pub response: Response,
    /// Whether the response arrived damaged (body short of its declared
    /// `Content-Length`, or broken chunked framing). Partial exchanges
    /// are kept — a truncated capture still carries leaks — but flagged
    /// so analysis can weigh them.
    pub partial: bool,
}

impl HttpTransaction {
    /// Raw wire bytes of the request — what the PII detectors scan.
    /// The flow record is the materialization boundary: bytes become
    /// owned here, sized exactly via the arithmetic wire length.
    pub fn request_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.request.wire_len());
        appvsweb_httpsim::wire::serialize_request_into(&self.request, &mut buf);
        buf
    }
}

/// Everything captured during one test session.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    /// All connections, in open order.
    pub connections: Vec<ConnectionRecord>,
    /// All decrypted transactions, in time order.
    pub transactions: Vec<HttpTransaction>,
    /// Ledger of injected faults observed during the session (tunnel
    /// and origin side combined).
    pub faults: FaultCounts,
    /// Client retries spent recovering from transient failures.
    pub retries: u64,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Unique destination hosts across all connections.
    pub fn hosts(&self) -> Vec<String> {
        let mut hosts: Vec<String> = self.connections.iter().map(|c| c.host.clone()).collect();
        hosts.sort();
        hosts.dedup();
        hosts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use appvsweb_netsim::SimTime;

    fn conn(id: u64, host: &str, opened: u64) -> ConnectionRecord {
        ConnectionRecord {
            id,
            host: host.into(),
            port: 443,
            tls: true,
            decrypted: true,
            opaque_reason: None,
            opened_at: SimTime(opened),
            closed_at: None,
            stats: ConnectionStats::default(),
            transactions: 0,
            error: None,
        }
    }

    #[test]
    fn hosts_dedup_sorted() {
        let mut t = Trace::new();
        t.connections.push(conn(1, "b.com", 0));
        t.connections.push(conn(2, "a.com", 1));
        t.connections.push(conn(3, "b.com", 2));
        assert_eq!(t.hosts(), vec!["a.com".to_string(), "b.com".to_string()]);
    }
}

appvsweb_json::impl_json!(
    enum OpaqueReason {
        PinViolation,
        UpstreamUntrusted,
        HandshakeAborted,
    }
);
appvsweb_json::impl_json!(
    enum FlowError {
        Timeout,
        Reset,
        TlsAborted,
    }
);
appvsweb_json::impl_json!(struct ConnectionRecord {
    id, host, port, tls, decrypted, opaque_reason, opened_at, closed_at, stats, transactions,
    error
});
appvsweb_json::impl_json!(struct HttpTransaction { connection_id, host, plaintext, at, request, response, partial });
appvsweb_json::impl_json!(struct Trace { connections, transactions, faults, retries });
