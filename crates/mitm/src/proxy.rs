//! The Meddle tunnel + interception proxy.
//!
//! One [`Meddle`] instance plays the role of the study's VPN server and
//! mitmproxy combined. Every HTTP(S) exchange a device makes during a
//! session goes through [`Meddle::exchange`]; at the end of the session
//! [`Meddle::finish_session`] closes any live connections and yields the
//! captured [`Trace`].

use crate::flow::{ConnectionRecord, FlowError, HttpTransaction, OpaqueReason, Trace};
use appvsweb_httpsim::{degrade, wire, Request, Response};
use appvsweb_netsim::dns::{CacheState, DnsError, DnsErrorKind};
use appvsweb_netsim::faults::{ConnFault, DnsFault};
use appvsweb_netsim::{
    rng_labels, ConnectionStats, DnsResolver, FaultCounts, FaultInjector, FaultPlan, SimRng,
    SimTime,
};
use appvsweb_tlssim::{
    handshake::{handshake, handshake_with_fault},
    CertificateAuthority, ClientConfig, HandshakeError, PinSet, ServerConfig, TlsSession,
    TrustStore,
};

/// An origin server the proxy can connect to. The `services` crate
/// implements this for every first- and third-party host in the simulated
/// world.
pub trait OriginServer {
    /// TLS configuration the origin at `host` presents for HTTPS
    /// connections.
    fn tls_config(&self, host: &str) -> ServerConfig;
    /// Handle a request, producing a response.
    fn handle(&mut self, req: &Request, now: SimTime) -> Response;
}

/// Connection reuse policy for a client.
///
/// 2016-era apps hold a persistent connection per API host; browsers open
/// parallel connections and recycle them far more aggressively — one of
/// the mechanical reasons Web sessions produce so many more flows
/// (paper Fig. 1b).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReusePolicy {
    /// Whether to reuse an open connection to the same host at all.
    pub reuse: bool,
    /// Maximum exchanges per connection before it is retired.
    pub max_per_conn: u32,
}

impl ReusePolicy {
    /// App-style: persistent connections, generous reuse.
    pub fn app() -> Self {
        ReusePolicy {
            reuse: true,
            max_per_conn: 100,
        }
    }

    /// Browser-style: limited reuse per connection (headers, parallel
    /// sockets, and server `Connection: close` all cap real-world reuse).
    pub fn browser() -> Self {
        ReusePolicy {
            reuse: true,
            max_per_conn: 6,
        }
    }

    /// No reuse: every exchange opens a fresh connection (beacons,
    /// redirect chains across distinct hosts behave this way).
    pub fn one_shot() -> Self {
        ReusePolicy {
            reuse: false,
            max_per_conn: 1,
        }
    }
}

/// Why an exchange failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExchangeError {
    /// Client aborted: forged chain violated its pins (interception
    /// defeated — the Facebook/Twitter case).
    PinViolation,
    /// Proxy could not verify the origin's chain.
    UpstreamUntrusted,
    /// DNS failure (NXDOMAIN, or injected SERVFAIL/timeout).
    Dns(DnsError),
    /// The access link was down (flap window): nothing left the device.
    LinkDown,
    /// The exchange's packets were lost until the client timed out.
    Timeout,
    /// The connection was reset mid-exchange.
    Reset,
    /// The TLS handshake aborted for a network-level reason (beyond
    /// certificate and pin failures).
    TlsAbort,
    /// Internal proxy bookkeeping failure. Never expected; surfaced as
    /// an error so a capture degrades instead of panicking.
    Internal(&'static str),
}

impl ExchangeError {
    /// Whether a client retry can plausibly succeed. Trust decisions
    /// (pins, untrusted chains) and NXDOMAIN are deterministic — they
    /// fail identically on every attempt — while network weather is
    /// transient.
    pub fn retriable(&self) -> bool {
        match self {
            ExchangeError::PinViolation
            | ExchangeError::UpstreamUntrusted
            | ExchangeError::Internal(_) => false,
            ExchangeError::Dns(e) => e.kind.is_transient(),
            ExchangeError::LinkDown
            | ExchangeError::Timeout
            | ExchangeError::Reset
            | ExchangeError::TlsAbort => true,
        }
    }
}

impl std::fmt::Display for ExchangeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExchangeError::PinViolation => f.write_str("client pin violation"),
            ExchangeError::UpstreamUntrusted => f.write_str("upstream certificate untrusted"),
            ExchangeError::Dns(e) => write!(f, "dns: {e}"),
            ExchangeError::LinkDown => f.write_str("access link down"),
            ExchangeError::Timeout => f.write_str("exchange timed out"),
            ExchangeError::Reset => f.write_str("connection reset"),
            ExchangeError::TlsAbort => f.write_str("tls handshake aborted"),
            ExchangeError::Internal(what) => write!(f, "internal proxy error: {what}"),
        }
    }
}

impl std::error::Error for ExchangeError {}

/// A failed exchange: why it failed, and the request handed back to the
/// client. The proxy takes the request by value and never copies it; a
/// client that retries sends this same request again, so an exchange
/// that succeeds first time costs no copy at all.
#[derive(Debug)]
pub struct ExchangeFailed {
    /// Why the exchange failed.
    pub error: ExchangeError,
    /// The request, as the client passed it in (boxed: failures are the
    /// rare path, and this keeps `Result`s of exchanges small).
    pub request: Box<Request>,
}

impl ExchangeFailed {
    fn new(error: ExchangeError, request: Request) -> Self {
        ExchangeFailed {
            error,
            request: Box::new(request),
        }
    }
}

/// Label of the proxy's CA (appears in forged chains).
const CA_LABEL: &str = "MeddleProxyCA";

/// A pooled connection. Its traffic accumulates in its record's
/// `stats`. Closing consumes the entry ([`Meddle::retire`]), so a pooled
/// connection is always open and nothing is sent on a closed one.
struct PoolEntry {
    /// Index of the connection's record in the trace under construction;
    /// the record holds the connection's host.
    record: usize,
    port: u16,
    uses: u32,
    tls_session: Option<TlsSession>,
}

/// The VPN tunnel + TLS interception proxy.
pub struct Meddle {
    /// The proxy's certificate authority. Install `ca().root` in a device
    /// trust store to enable interception, exactly as the study installed
    /// the mitmproxy CA on its test phones.
    ca: CertificateAuthority,
    upstream_trust: TrustStore,
    dns: DnsResolver,
    // Live session state:
    records: Vec<ConnectionRecord>,
    transactions: Vec<HttpTransaction>,
    /// Whether the latest exchange succeeded, so that its response is
    /// the last captured transaction's.
    latest_ok: bool,
    /// Open connections, at most one per `(host, port)`, in no order.
    pool: Vec<PoolEntry>,
    /// Hosts a TLS session was already established with this session —
    /// later connections resume (abbreviated handshake), which is what
    /// keeps repeat-connection byte counts realistic.
    tls_session_cache: std::collections::BTreeSet<String>,
    next_conn_id: u64,
    /// Tunnel-side chaos dice (disabled by default: never draws).
    faults: FaultInjector,
}

impl Meddle {
    /// Create a tunnel. `upstream_trust` is the root set the proxy uses to
    /// verify real origins.
    pub fn new(upstream_trust: TrustStore) -> Self {
        Meddle {
            ca: CertificateAuthority::new(CA_LABEL),
            upstream_trust,
            dns: DnsResolver::default(),
            records: Vec::new(),
            transactions: Vec::new(),
            latest_ok: false,
            pool: Vec::new(),
            tls_session_cache: std::collections::BTreeSet::new(),
            next_conn_id: 1,
            faults: FaultInjector::disabled(),
        }
    }

    /// Arm the tunnel-side fault injector. The injector draws from its
    /// own labelled fork of `rng`, so arming it with [`FaultPlan::none`]
    /// (or never calling this) leaves every other stream untouched.
    pub fn set_faults(&mut self, plan: FaultPlan, rng: &SimRng) {
        self.faults = FaultInjector::new(plan, rng.fork(rng_labels::MEDDLE_CHAOS));
    }

    /// Ledger of tunnel-side faults injected so far this session.
    pub fn fault_counts(&self) -> &FaultCounts {
        self.faults.counts()
    }

    /// The proxy CA — its root must be installed on the device for
    /// interception to succeed.
    pub fn ca(&self) -> &CertificateAuthority {
        &self.ca
    }

    /// Perform one HTTP(S) exchange through the tunnel.
    ///
    /// * `client_trust`/`client_pins` — the device/app TLS view.
    /// * `origin` — the server behind `req.url.host`.
    /// * `reuse` — the client's connection reuse policy.
    ///
    /// The request is taken by value. On success it moves into the
    /// captured transaction together with the response, and the caller
    /// reads the response from there with [`Meddle::last_response`];
    /// nothing is copied. On failure the request comes back inside
    /// [`ExchangeFailed`] for the client to retry. A TLS failure still
    /// captures the connection attempt (opaque), matching what a packet
    /// capture would show.
    pub fn exchange(
        &mut self,
        client_trust: &TrustStore,
        client_pins: &PinSet,
        origin: &mut dyn OriginServer,
        req: Request,
        now: SimTime,
        reuse: ReusePolicy,
    ) -> Result<(), ExchangeFailed> {
        self.latest_ok = false;
        let host = req.url.host.as_str();
        let port = req.url.effective_port();
        let tls = !req.url.is_plaintext();
        appvsweb_obs::stamp(now.as_millis());
        let _span = appvsweb_obs::span!("mitm.exchange", "{} {host}", req.method.as_str());

        // Link flap: the access link is down, nothing leaves the device
        // (so there is no connection record — the radio never keyed up).
        if self.faults.link_down(now.as_millis()) {
            appvsweb_obs::counter!("mitm.link_down");
            appvsweb_obs::event!("link.down", "{host}");
            return Err(ExchangeFailed::new(ExchangeError::LinkDown, req));
        }

        // DNS through the tunnel. Unknown hosts are registered on first
        // use: the simulated world's zone is defined by who gets talked to.
        self.dns.register(host);
        // Injected DNS faults hit only queries that would reach the
        // network; answers from either cache (positive or negative)
        // resolve locally and roll nothing.
        if self.dns.cache_state(host, now) == CacheState::Miss {
            if let Some(fault) = self.faults.dns_fault() {
                let kind = match fault {
                    DnsFault::ServFail => DnsErrorKind::ServFail,
                    DnsFault::Timeout => DnsErrorKind::Timeout,
                };
                let err = ExchangeError::Dns(self.dns.fail(host, kind, now));
                return Err(ExchangeFailed::new(err, req));
            }
        }
        if let Err(e) = self.dns.resolve(host, now) {
            return Err(ExchangeFailed::new(ExchangeError::Dns(e), req));
        }

        // Find or open a connection.
        let slot = match self.pooled(host, port) {
            Some(slot) if reuse.reuse && self.pool[slot].uses < reuse.max_per_conn => slot,
            stale => {
                // Retire any stale pool entry and open a new connection.
                if let Some(slot) = stale {
                    self.retire(slot, now);
                }
                match self.connect(client_trust, client_pins, origin, host, port, tls, now) {
                    Ok(slot) => slot,
                    Err(err) => return Err(ExchangeFailed::new(err, req)),
                }
            }
        };
        let entry = &mut self.pool[slot];
        entry.uses += 1;
        let uses = entry.uses;
        let record = entry.record;
        let tls_session = entry.tls_session.as_ref();

        // Exact arithmetic length — no serialization on the hot path;
        // equality with serialize_request().len() is a differential law.
        let req_bytes = wire::request_wire_len(&req);
        appvsweb_obs::counter!("httpsim.codec_bytes", req_bytes);
        appvsweb_obs::event!("http.request", "{host} bytes={req_bytes}");

        // Connection-level fault: the request dies before a response. A
        // timeout means the full request went up and nothing came back; a
        // reset kills the connection almost immediately.
        if let Some(fault) = self.faults.conn_fault() {
            let up_full = match tls_session {
                Some(sess) => sess.wire_bytes(req_bytes),
                None => req_bytes,
            };
            let (err, flow_err, up_sent) = match fault {
                ConnFault::Timeout => (ExchangeError::Timeout, FlowError::Timeout, up_full),
                ConnFault::Reset => (ExchangeError::Reset, FlowError::Reset, up_full.min(256)),
            };
            appvsweb_obs::counter!("mitm.bytes_lost", up_full - up_sent);
            appvsweb_obs::event!("conn.fault", "{host} {flow_err:?}");
            let rec = &mut self.records[record];
            rec.stats.send(up_sent);
            rec.error = Some(flow_err);
            self.retire(slot, now);
            return Err(ExchangeFailed::new(err, req));
        }

        // Latency spike: the exchange completes, but the link stalled.
        // The stall is ledgered and journaled; no measured quantity
        // depends on link timing.
        if let Some(extra) = self.faults.latency_spike() {
            appvsweb_obs::event!("link.latency_spike", "{}ms", extra.as_millis());
        }

        // Move the request to the origin and the response back.
        let response = origin.handle(&req, now);
        let resp_bytes = wire::response_wire_len(&response);
        appvsweb_obs::counter!("httpsim.codec_bytes", resp_bytes);
        appvsweb_obs::event!(
            "http.response",
            "{host} status={} bytes={resp_bytes}",
            response.status.0
        );
        let (up, down) = match tls_session {
            Some(sess) => (sess.wire_bytes(req_bytes), sess.wire_bytes(resp_bytes)),
            None => (req_bytes, resp_bytes),
        };
        appvsweb_obs::histogram!("mitm.exchange_wire_bytes", up + down);
        let rec = &mut self.records[record];
        rec.stats.send(up);
        rec.stats.receive(down);

        // Every pooled connection is readable: plaintext trivially, TLS
        // through the forged chain.
        appvsweb_obs::counter!("mitm.transactions");
        appvsweb_obs::event!("har.entry", "{host}");
        rec.transactions += 1;

        if !reuse.reuse || uses >= reuse.max_per_conn {
            self.retire(slot, now);
        }

        // Request and response move into the trace; the caller reads
        // the response back.
        self.transactions.push(HttpTransaction {
            connection_id: self.records[record].id,
            host: host.to_owned(),
            plaintext: !tls,
            at: now,
            request: req,
            partial: degrade::is_partial(&response),
            response,
        });
        self.latest_ok = true;
        Ok(())
    }

    /// The response of the latest exchange, lent from the trace under
    /// construction, or `None` if it failed.
    pub fn last_response(&self) -> Option<&Response> {
        if self.latest_ok {
            self.transactions.last().map(|t| &t.response)
        } else {
            None
        }
    }

    /// Open a connection to `host:port` and pool it, returning its pool
    /// slot. TLS setup happens here, once per connection; a failed
    /// handshake leaves its record closed and opaque, and pools nothing.
    #[allow(clippy::too_many_arguments)]
    fn connect(
        &mut self,
        client_trust: &TrustStore,
        client_pins: &PinSet,
        origin: &dyn OriginServer,
        host: &str,
        port: u16,
        tls: bool,
        now: SimTime,
    ) -> Result<usize, ExchangeError> {
        let record = self.open_conn(host, port, tls, now);
        let tls_session = if tls {
            let abort = self.faults.tls_abort();
            match self.establish_tls(client_trust, client_pins, origin, host, now, abort) {
                Ok(sess) => {
                    // Handshake bytes: client sends ~1/4, server ~3/4
                    // (certificates dominate the server flight).
                    let hs = sess.handshake_bytes;
                    appvsweb_obs::counter!("mitm.handshake_bytes", hs);
                    let rec = &mut self.records[record];
                    rec.stats.send(hs / 4);
                    rec.stats.receive(hs - hs / 4);
                    rec.decrypted = true;
                    Some(sess)
                }
                Err(err) => {
                    // The aborted handshake still moved packets.
                    appvsweb_obs::counter!("mitm.tls_failed_bytes", 512 + 2048);
                    let stats = &mut self.records[record].stats;
                    stats.send(512);
                    stats.receive(2048);
                    let reason = match &err {
                        ExchangeError::PinViolation => OpaqueReason::PinViolation,
                        ExchangeError::TlsAbort => OpaqueReason::HandshakeAborted,
                        _ => OpaqueReason::UpstreamUntrusted,
                    };
                    appvsweb_obs::event!("flow.opaque", "{host} {reason:?}");
                    let rec = &mut self.records[record];
                    rec.decrypted = false;
                    rec.opaque_reason = Some(reason);
                    if err == ExchangeError::TlsAbort {
                        rec.error = Some(FlowError::TlsAborted);
                    }
                    self.close_conn(record, now);
                    return Err(err);
                }
            }
        } else {
            None
        };
        self.pool.push(PoolEntry {
            record,
            port,
            uses: 0,
            tls_session,
        });
        Ok(self.pool.len() - 1)
    }

    /// Open a connection: append its record and return the record's
    /// index.
    fn open_conn(&mut self, host: &str, port: u16, tls: bool, now: SimTime) -> usize {
        let id = self.next_conn_id;
        self.next_conn_id += 1;
        appvsweb_obs::counter!("mitm.flows_opened");
        appvsweb_obs::event!("flow.open", "{host}:{port} tls={tls}");
        self.records.push(ConnectionRecord {
            id,
            host: host.to_string(),
            port,
            tls,
            decrypted: !tls, // plaintext is trivially readable
            opaque_reason: None,
            opened_at: now,
            closed_at: None,
            stats: ConnectionStats::default(),
            transactions: 0,
            error: None,
        });
        self.records.len() - 1
    }

    /// The pool slot of the open connection to `host:port`, if any.
    fn pooled(&self, host: &str, port: u16) -> Option<usize> {
        self.pool
            .iter()
            .position(|e| e.port == port && self.records[e.record].host == host)
    }

    /// Take the pooled connection in `slot` out of the pool and close it.
    fn retire(&mut self, slot: usize, now: SimTime) {
        let entry = self.pool.swap_remove(slot);
        self.close_conn(entry.record, now);
    }

    /// Close the connection behind `record`: stamp the close time.
    /// Called once per connection, after its last send.
    fn close_conn(&mut self, record: usize, now: SimTime) {
        let rec = &mut self.records[record];
        appvsweb_obs::counter!("mitm.flows_closed");
        appvsweb_obs::event!("flow.close", "{}", rec.host);
        rec.closed_at = Some(now);
    }

    /// Upstream and device-side (forged-chain) handshakes.
    /// `abort` is the fault-injection input: the device-side handshake
    /// dies with [`HandshakeError::Aborted`] after trust and pin checks,
    /// so an injected abort can never mask a deterministic failure.
    fn establish_tls(
        &mut self,
        client_trust: &TrustStore,
        client_pins: &PinSet,
        origin: &dyn OriginServer,
        host: &str,
        now: SimTime,
        abort: bool,
    ) -> Result<TlsSession, ExchangeError> {
        let origin_config = origin.tls_config(host);
        let resume = self.tls_session_cache.contains(host);
        // Proxy first verifies the real origin…
        let proxy_client = ClientConfig {
            trust: &self.upstream_trust,
            pins: &PinSet::none(),
            server_name: host,
            now: now.as_secs(),
        };
        handshake(&proxy_client, &origin_config, resume)
            .map_err(|_| ExchangeError::UpstreamUntrusted)?;

        // …then presents a forged chain to the device.
        let forged = ServerConfig {
            chain: self.ca.chain_for(host),
            supports_resumption: true,
        };
        let device_client = ClientConfig {
            trust: client_trust,
            pins: client_pins,
            server_name: host,
            now: now.as_secs(),
        };
        let result =
            handshake_with_fault(&device_client, &forged, resume, abort).map_err(|e| match e {
                HandshakeError::PinViolation => ExchangeError::PinViolation,
                HandshakeError::UntrustedCertificate => ExchangeError::UpstreamUntrusted,
                HandshakeError::Aborted => ExchangeError::TlsAbort,
            });
        if result.is_ok() && !resume {
            self.tls_session_cache.insert(host.to_string());
        }
        result
    }

    /// End the session: close everything and take the trace. The tunnel
    /// is left ready for a fresh session.
    pub fn finish_session(&mut self, now: SimTime) -> Trace {
        appvsweb_obs::stamp(now.as_millis());
        // Close what is still open in (host, port) order.
        let mut open = std::mem::take(&mut self.pool);
        open.sort_by(|a, b| {
            let key = |e: &PoolEntry| (&self.records[e.record].host, e.port);
            key(a).cmp(&key(b))
        });
        for entry in open {
            self.close_conn(entry.record, now);
        }
        self.latest_ok = false;
        self.tls_session_cache.clear();
        self.next_conn_id = 1;
        self.dns.flush_cache();
        Trace {
            connections: std::mem::take(&mut self.records),
            transactions: std::mem::take(&mut self.transactions),
            faults: self.faults.take_counts(),
            retries: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use appvsweb_httpsim::{Body, StatusCode, Url};
    use appvsweb_tlssim::cert::CertificateAuthority;

    /// A trivial origin: 200 OK echo server under a given CA.
    struct TestOrigin {
        chain_ca: CertificateAuthority,
        host: String,
    }

    impl TestOrigin {
        fn new(host: &str) -> Self {
            TestOrigin {
                chain_ca: CertificateAuthority::new("PublicRoot"),
                host: host.into(),
            }
        }
    }

    impl OriginServer for TestOrigin {
        fn tls_config(&self, host: &str) -> ServerConfig {
            assert_eq!(host, self.host, "test origin serves a single host");
            ServerConfig {
                chain: self.chain_ca.chain_for(&self.host),
                supports_resumption: true,
            }
        }
        fn handle(&mut self, req: &Request, _now: SimTime) -> Response {
            Response::ok(Body::text(format!("echo {}", req.url.path)))
        }
    }

    fn world() -> (Meddle, TrustStore, TestOrigin) {
        let public = CertificateAuthority::new("PublicRoot");
        let mut upstream = TrustStore::new();
        upstream.add_root(&public.root);
        let meddle = Meddle::new(upstream);
        // Device trusts public roots AND the proxy CA (methodology step).
        let mut device_trust = TrustStore::new();
        device_trust.add_root(&public.root);
        device_trust.add_root(&meddle.ca().root);
        let origin = TestOrigin::new("api.example.com");
        (meddle, device_trust, origin)
    }

    fn get(url: &str) -> Request {
        Request::get(Url::parse(url).unwrap())
    }

    #[test]
    fn https_interception_captures_plaintext() {
        let (mut meddle, trust, mut origin) = world();
        meddle
            .exchange(
                &trust,
                &PinSet::none(),
                &mut origin,
                get("https://api.example.com/v1/data?uid=42"),
                SimTime(100),
                ReusePolicy::app(),
            )
            .unwrap();
        assert_eq!(meddle.last_response().unwrap().status, StatusCode::OK);
        let trace = meddle.finish_session(SimTime(200));
        assert_eq!(trace.connections.len(), 1);
        assert!(trace.connections[0].decrypted);
        assert!(trace.connections[0].tls);
        assert_eq!(trace.transactions.len(), 1);
        assert_eq!(
            trace.transactions[0].request.url.query.as_deref(),
            Some("uid=42")
        );
        // TLS handshake + record overhead is visible in the byte counts.
        assert!(trace.connections[0].stats.total_bytes() > 1000);
    }

    #[test]
    fn pinned_client_defeats_interception() {
        let (mut meddle, trust, mut origin) = world();
        // Pin the origin's *real* leaf key.
        let real_key = origin
            .tls_config("api.example.com")
            .chain
            .leaf()
            .unwrap()
            .key;
        let pins = PinSet::of([real_key]);
        let err = meddle.exchange(
            &trust,
            &pins,
            &mut origin,
            get("https://api.example.com/"),
            SimTime(0),
            ReusePolicy::app(),
        );
        assert_eq!(err.map_err(|f| f.error), Err(ExchangeError::PinViolation));
        let trace = meddle.finish_session(SimTime(1));
        assert_eq!(trace.connections.len(), 1);
        assert!(!trace.connections[0].decrypted);
        assert_eq!(
            trace.connections[0].opaque_reason,
            Some(OpaqueReason::PinViolation)
        );
        assert!(
            trace.transactions.is_empty(),
            "no plaintext visibility for pinned traffic"
        );
    }

    #[test]
    fn plaintext_http_needs_no_tls() {
        let (mut meddle, trust, mut origin) = world();
        meddle
            .exchange(
                &trust,
                &PinSet::none(),
                &mut origin,
                get("http://tracker.example.net/pixel?loc=42.36,-71.05"),
                SimTime(0),
                ReusePolicy::one_shot(),
            )
            .unwrap();
        let trace = meddle.finish_session(SimTime(1));
        assert!(!trace.connections[0].tls);
        assert!(trace.connections[0].decrypted);
        assert!(trace.transactions[0].plaintext);
        assert!(trace.connections[0].closed_at.is_some());
    }

    #[test]
    fn reuse_policy_controls_flow_count() {
        let (mut meddle, trust, mut origin) = world();
        for _ in 0..10 {
            meddle
                .exchange(
                    &trust,
                    &PinSet::none(),
                    &mut origin,
                    get("https://api.example.com/item"),
                    SimTime(0),
                    ReusePolicy::app(),
                )
                .unwrap();
        }
        let reused = meddle.finish_session(SimTime(1));
        assert_eq!(
            reused.connections.len(),
            1,
            "app policy reuses one connection"
        );
        assert_eq!(reused.connections[0].transactions, 10);

        for _ in 0..10 {
            meddle
                .exchange(
                    &trust,
                    &PinSet::none(),
                    &mut origin,
                    get("https://api.example.com/item"),
                    SimTime(0),
                    ReusePolicy::one_shot(),
                )
                .unwrap();
        }
        let one_shot = meddle.finish_session(SimTime(1));
        assert_eq!(
            one_shot.connections.len(),
            10,
            "one-shot opens a flow per exchange"
        );
    }

    #[test]
    fn browser_policy_caps_exchanges_per_connection() {
        let (mut meddle, trust, mut origin) = world();
        for _ in 0..13 {
            meddle
                .exchange(
                    &trust,
                    &PinSet::none(),
                    &mut origin,
                    get("https://api.example.com/obj"),
                    SimTime(0),
                    ReusePolicy::browser(),
                )
                .unwrap();
        }
        let trace = meddle.finish_session(SimTime(1));
        // 13 exchanges at max 6 per connection = 3 connections.
        assert_eq!(trace.connections.len(), 3);
    }

    #[test]
    fn armed_none_plan_is_byte_identical_to_unarmed() {
        let run = |arm: bool| {
            let (mut meddle, trust, mut origin) = world();
            if arm {
                meddle.set_faults(FaultPlan::none(), &SimRng::new(99));
            }
            for i in 0..5 {
                meddle
                    .exchange(
                        &trust,
                        &PinSet::none(),
                        &mut origin,
                        get(&format!("https://api.example.com/item/{i}")),
                        SimTime(i * 100),
                        ReusePolicy::browser(),
                    )
                    .unwrap();
            }
            meddle.finish_session(SimTime(1_000))
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn injected_tls_abort_is_recorded_and_retriable() {
        let (mut meddle, trust, mut origin) = world();
        let mut plan = FaultPlan::none();
        plan.tls_abort = 1.0;
        meddle.set_faults(plan, &SimRng::new(5));
        let err = meddle
            .exchange(
                &trust,
                &PinSet::none(),
                &mut origin,
                get("https://api.example.com/"),
                SimTime(0),
                ReusePolicy::app(),
            )
            .unwrap_err()
            .error;
        assert_eq!(err, ExchangeError::TlsAbort);
        assert!(err.retriable());
        let trace = meddle.finish_session(SimTime(1));
        assert_eq!(trace.connections.len(), 1, "the dead flow is kept");
        assert_eq!(trace.connections[0].error, Some(FlowError::TlsAborted));
        assert_eq!(
            trace.connections[0].opaque_reason,
            Some(OpaqueReason::HandshakeAborted)
        );
        assert_eq!(trace.faults.tls_aborts, 1);
    }

    #[test]
    fn injected_reset_kills_the_exchange_but_not_the_capture() {
        let (mut meddle, trust, mut origin) = world();
        let mut plan = FaultPlan::none();
        plan.connection_reset = 1.0;
        meddle.set_faults(plan, &SimRng::new(5));
        let err = meddle
            .exchange(
                &trust,
                &PinSet::none(),
                &mut origin,
                get("https://api.example.com/"),
                SimTime(0),
                ReusePolicy::app(),
            )
            .unwrap_err()
            .error;
        assert_eq!(err, ExchangeError::Reset);
        let trace = meddle.finish_session(SimTime(1));
        assert_eq!(trace.connections[0].error, Some(FlowError::Reset));
        assert!(trace.transactions.is_empty());
        assert_eq!(trace.faults.connection_resets, 1);
    }

    #[test]
    fn injected_dns_failure_is_negatively_cached() {
        let (mut meddle, trust, mut origin) = world();
        let mut plan = FaultPlan::none();
        plan.dns_servfail = 1.0;
        meddle.set_faults(plan, &SimRng::new(5));
        for _ in 0..3 {
            let err = meddle
                .exchange(
                    &trust,
                    &PinSet::none(),
                    &mut origin,
                    get("https://api.example.com/"),
                    SimTime(0),
                    ReusePolicy::app(),
                )
                .unwrap_err()
                .error;
            assert!(matches!(&err, ExchangeError::Dns(e) if e.kind == DnsErrorKind::ServFail));
            assert!(err.retriable());
        }
        let trace = meddle.finish_session(SimTime(1));
        assert_eq!(
            trace.faults.dns_servfail, 1,
            "retries re-fail from the negative cache, not fresh faults"
        );
        assert!(trace.connections.is_empty(), "nothing ever connected");
    }

    #[test]
    fn link_flap_window_blocks_exchanges() {
        let (mut meddle, trust, mut origin) = world();
        let mut plan = FaultPlan::none();
        plan.link_flap = 1.0;
        plan.link_flap_ms = 2_000;
        meddle.set_faults(plan, &SimRng::new(5));
        for t in [0u64, 500, 1_999] {
            assert_eq!(
                meddle
                    .exchange(
                        &trust,
                        &PinSet::none(),
                        &mut origin,
                        get("https://api.example.com/"),
                        SimTime(t),
                        ReusePolicy::app(),
                    )
                    .unwrap_err()
                    .error,
                ExchangeError::LinkDown
            );
        }
        let trace = meddle.finish_session(SimTime(3_000));
        assert_eq!(trace.faults.link_flaps, 1, "one window swallowed all three");
    }

    #[test]
    fn device_without_proxy_ca_rejects_interception() {
        let public = CertificateAuthority::new("PublicRoot");
        let mut upstream = TrustStore::new();
        upstream.add_root(&public.root);
        let mut meddle = Meddle::new(upstream);
        // Device trusts only public roots — proxy CA NOT installed.
        let mut device_trust = TrustStore::new();
        device_trust.add_root(&public.root);
        let mut origin = TestOrigin::new("api.example.com");
        let err = meddle.exchange(
            &device_trust,
            &PinSet::none(),
            &mut origin,
            get("https://api.example.com/"),
            SimTime(0),
            ReusePolicy::app(),
        );
        assert_eq!(
            err.map_err(|f| f.error),
            Err(ExchangeError::UpstreamUntrusted)
        );
    }
}
