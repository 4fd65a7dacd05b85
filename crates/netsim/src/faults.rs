//! Deterministic fault injection.
//!
//! The original campaign ran against live 2016 networks where flows
//! stalled, DNS servers returned `SERVFAIL`, TLS handshakes aborted
//! mid-flight, and access links flapped — and the testers simply
//! retried. This module gives the simulation the same weather, as a
//! *pure function of the experiment seed*: a [`FaultPlan`] holds the
//! per-event probabilities, a [`FaultInjector`] rolls them from its own
//! labelled [`SimRng`] fork, and a [`FaultCounts`] ledger records every
//! fault that fired so downstream analysis can annotate completeness
//! instead of silently assuming a perfect network.
//!
//! Determinism contract: an injector built from the same `(plan, rng)`
//! pair always fires the same faults in the same order, and a plan of
//! [`FaultPlan::none`] never draws from its stream at all — so a
//! fault-free run is byte-identical to a build without this module.

use crate::clock::SimDuration;
use crate::rng::SimRng;

/// Every fault class the chaos layer can inject, for ledger keying.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// An exchange's packets were lost until the client timed out.
    PacketLoss,
    /// The exchange completed but the link stalled for extra time.
    LatencySpike,
    /// The TCP connection was reset mid-exchange.
    ConnectionReset,
    /// The access link dropped for a window of simulated time.
    LinkFlap,
    /// The resolver answered `SERVFAIL`.
    DnsServfail,
    /// The DNS query timed out.
    DnsTimeout,
    /// The TLS handshake aborted for a reason other than pinning.
    TlsAbort,
    /// The response body was truncated mid-transfer.
    TruncatedBody,
    /// The response's chunked framing was malformed.
    MalformedChunked,
    /// The origin answered with a 5xx.
    ServerError,
    /// Test-only: the whole cell runner panics (exercises the study
    /// runner's isolation, never enabled by any shipping preset).
    CellPanic,
}

/// Per-event fault probabilities. All rates are in `[0, 1]` per
/// opportunity (per exchange, per DNS network query, per response, …).
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// P(exchange times out to packet loss).
    pub packet_loss: f64,
    /// P(exchange suffers a latency spike).
    pub latency_spike: f64,
    /// Stall length a latency spike journals (no measured quantity
    /// depends on it).
    pub latency_spike_ms: u64,
    /// P(connection reset before the request is serviced).
    pub connection_reset: f64,
    /// P(link flap starts at this exchange).
    pub link_flap: f64,
    /// How long a link flap keeps the access link down.
    pub link_flap_ms: u64,
    /// P(uncached DNS query answers SERVFAIL).
    pub dns_servfail: f64,
    /// P(uncached DNS query times out).
    pub dns_timeout: f64,
    /// P(TLS handshake aborts, beyond pin/trust failures).
    pub tls_abort: f64,
    /// P(response body truncated).
    pub truncated_body: f64,
    /// P(response chunked framing malformed).
    pub malformed_chunked: f64,
    /// P(origin answers 5xx).
    pub server_error: f64,
    /// P(cell runner panics). Test-only; every preset keeps this 0.
    pub cell_panic: f64,
}

impl FaultPlan {
    /// The perfect network: no fault ever fires and the injector never
    /// draws randomness, so output is identical to a chaos-free build.
    pub fn none() -> Self {
        FaultPlan {
            packet_loss: 0.0,
            latency_spike: 0.0,
            latency_spike_ms: 0,
            connection_reset: 0.0,
            link_flap: 0.0,
            link_flap_ms: 0,
            dns_servfail: 0.0,
            dns_timeout: 0.0,
            tls_abort: 0.0,
            truncated_body: 0.0,
            malformed_chunked: 0.0,
            server_error: 0.0,
            cell_panic: 0.0,
        }
    }

    /// A uniform plan: every network/HTTP fault class at rate `p`, with
    /// default spike/flap windows. `cell_panic` stays 0.
    pub fn uniform(p: f64) -> Self {
        let p = p.clamp(0.0, 1.0);
        FaultPlan {
            packet_loss: p,
            latency_spike: p,
            latency_spike_ms: 1_500,
            connection_reset: p,
            link_flap: p / 4.0, // flaps hit every in-window exchange
            link_flap_ms: 3_000,
            dns_servfail: p,
            dns_timeout: p,
            tls_abort: p,
            truncated_body: p,
            malformed_chunked: p / 2.0,
            server_error: p,
            cell_panic: 0.0,
        }
    }

    /// ~1% fault rate: a good consumer network on a bad day.
    pub fn light() -> Self {
        Self::uniform(0.01)
    }

    /// ~5% fault rate: congested café Wi-Fi behind a flaky resolver.
    pub fn moderate() -> Self {
        Self::uniform(0.05)
    }

    /// ~15% fault rate: the stress preset.
    pub fn heavy() -> Self {
        Self::uniform(0.15)
    }

    /// Parse a named preset (`none`, `light`, `moderate`, `heavy`).
    pub fn preset(name: &str) -> Option<Self> {
        match name {
            "none" => Some(Self::none()),
            "light" => Some(Self::light()),
            "moderate" => Some(Self::moderate()),
            "heavy" => Some(Self::heavy()),
            _ => None,
        }
    }

    /// Whether no fault can ever fire under this plan.
    pub fn is_none(&self) -> bool {
        self.packet_loss == 0.0
            && self.latency_spike == 0.0
            && self.connection_reset == 0.0
            && self.link_flap == 0.0
            && self.dns_servfail == 0.0
            && self.dns_timeout == 0.0
            && self.tls_abort == 0.0
            && self.truncated_body == 0.0
            && self.malformed_chunked == 0.0
            && self.server_error == 0.0
            && self.cell_panic == 0.0
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// Count of injected faults by kind; the raw material of the study's
/// health ledger. Sums are order-independent, so merged worker-thread
/// ledgers are deterministic regardless of scheduling.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Exchanges lost to packet loss.
    pub packet_loss: u64,
    /// Latency spikes applied.
    pub latency_spikes: u64,
    /// Connections reset.
    pub connection_resets: u64,
    /// Link flap windows started.
    pub link_flaps: u64,
    /// DNS SERVFAIL answers injected.
    pub dns_servfail: u64,
    /// DNS timeouts injected.
    pub dns_timeouts: u64,
    /// TLS handshakes aborted.
    pub tls_aborts: u64,
    /// Response bodies truncated.
    pub truncated_bodies: u64,
    /// Responses with malformed chunked framing.
    pub malformed_chunked: u64,
    /// 5xx responses injected.
    pub server_errors: u64,
    /// Cells deliberately panicked (test-only fault kind).
    pub cell_panics: u64,
}

impl FaultCounts {
    /// Record one fault of `kind`.
    pub fn record(&mut self, kind: FaultKind) {
        appvsweb_obs::counter!("netsim.faults.injected");
        appvsweb_obs::event!("fault.injected", "{kind:?}");
        match kind {
            FaultKind::PacketLoss => self.packet_loss += 1,
            FaultKind::LatencySpike => self.latency_spikes += 1,
            FaultKind::ConnectionReset => self.connection_resets += 1,
            FaultKind::LinkFlap => self.link_flaps += 1,
            FaultKind::DnsServfail => self.dns_servfail += 1,
            FaultKind::DnsTimeout => self.dns_timeouts += 1,
            FaultKind::TlsAbort => self.tls_aborts += 1,
            FaultKind::TruncatedBody => self.truncated_bodies += 1,
            FaultKind::MalformedChunked => self.malformed_chunked += 1,
            FaultKind::ServerError => self.server_errors += 1,
            FaultKind::CellPanic => self.cell_panics += 1,
        }
    }

    /// Fold another ledger into this one.
    pub fn merge(&mut self, other: &FaultCounts) {
        self.packet_loss += other.packet_loss;
        self.latency_spikes += other.latency_spikes;
        self.connection_resets += other.connection_resets;
        self.link_flaps += other.link_flaps;
        self.dns_servfail += other.dns_servfail;
        self.dns_timeouts += other.dns_timeouts;
        self.tls_aborts += other.tls_aborts;
        self.truncated_bodies += other.truncated_bodies;
        self.malformed_chunked += other.malformed_chunked;
        self.server_errors += other.server_errors;
        self.cell_panics += other.cell_panics;
    }

    /// Total faults of every kind.
    pub fn total(&self) -> u64 {
        self.packet_loss
            + self.latency_spikes
            + self.connection_resets
            + self.link_flaps
            + self.dns_servfail
            + self.dns_timeouts
            + self.tls_aborts
            + self.truncated_bodies
            + self.malformed_chunked
            + self.server_errors
            + self.cell_panics
    }
}

/// DNS fault classes the injector can ask the resolver to emulate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DnsFault {
    /// The upstream answered SERVFAIL.
    ServFail,
    /// The query timed out.
    Timeout,
}

/// Connection-level fault decided for one exchange.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnFault {
    /// The exchange's packets were lost; the client times out.
    Timeout,
    /// The peer (or a middlebox) reset the connection.
    Reset,
}

/// Response-level fault decided for one origin response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResponseFault {
    /// Replace the response with a 5xx.
    ServerError,
    /// Cut the body short of its declared length.
    Truncated,
    /// Break the chunked transfer framing.
    MalformedChunked,
}

/// The chaos dice: rolls a [`FaultPlan`]'s probabilities from a labelled
/// [`SimRng`] fork and keeps the [`FaultCounts`] ledger.
///
/// Each subsystem (the Meddle tunnel, the origin world) owns its own
/// injector with its own stream, so faults in one never perturb the
/// draw sequence of another — the same forking discipline the rest of
/// the simulator uses.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: SimRng,
    counts: FaultCounts,
    /// Simulated instant until which the access link is down.
    link_down_until_ms: u64,
}

impl FaultInjector {
    /// Build an injector for `plan`, drawing from `rng` (pass a fork
    /// labelled for the owning subsystem).
    pub fn new(plan: FaultPlan, rng: SimRng) -> Self {
        FaultInjector {
            plan,
            rng,
            counts: FaultCounts::default(),
            link_down_until_ms: 0,
        }
    }

    /// An injector that never fires (and never draws randomness).
    pub fn disabled() -> Self {
        Self::new(FaultPlan::none(), SimRng::new(0))
    }

    /// Roll probability `p` without touching the stream when `p == 0`
    /// (keeps [`FaultPlan::none`] runs byte-identical to no-chaos runs).
    fn roll(&mut self, p: f64) -> bool {
        p > 0.0 && self.rng.chance(p)
    }

    /// Decide a DNS fault for one *uncached* query.
    pub fn dns_fault(&mut self) -> Option<DnsFault> {
        if self.roll(self.plan.dns_servfail) {
            self.counts.record(FaultKind::DnsServfail);
            return Some(DnsFault::ServFail);
        }
        if self.roll(self.plan.dns_timeout) {
            self.counts.record(FaultKind::DnsTimeout);
            return Some(DnsFault::Timeout);
        }
        None
    }

    /// Whether the access link is down at `now_ms`; may start a new flap
    /// window. A window swallows every exchange inside it.
    pub fn link_down(&mut self, now_ms: u64) -> bool {
        if now_ms < self.link_down_until_ms {
            return true;
        }
        if self.roll(self.plan.link_flap) {
            self.counts.record(FaultKind::LinkFlap);
            self.link_down_until_ms = now_ms + self.plan.link_flap_ms.max(1);
            return true;
        }
        false
    }

    /// Decide whether the TLS handshake aborts (beyond pin/trust).
    pub fn tls_abort(&mut self) -> bool {
        if self.roll(self.plan.tls_abort) {
            self.counts.record(FaultKind::TlsAbort);
            true
        } else {
            false
        }
    }

    /// Decide a connection-level fault for one exchange.
    pub fn conn_fault(&mut self) -> Option<ConnFault> {
        if self.roll(self.plan.packet_loss) {
            self.counts.record(FaultKind::PacketLoss);
            return Some(ConnFault::Timeout);
        }
        if self.roll(self.plan.connection_reset) {
            self.counts.record(FaultKind::ConnectionReset);
            return Some(ConnFault::Reset);
        }
        None
    }

    /// The stall length, if a latency spike fires for this exchange.
    pub fn latency_spike(&mut self) -> Option<SimDuration> {
        if self.roll(self.plan.latency_spike) {
            self.counts.record(FaultKind::LatencySpike);
            Some(SimDuration(self.plan.latency_spike_ms.max(1)))
        } else {
            None
        }
    }

    /// Decide a response-level fault for one origin response.
    pub fn response_fault(&mut self) -> Option<ResponseFault> {
        if self.roll(self.plan.server_error) {
            self.counts.record(FaultKind::ServerError);
            return Some(ResponseFault::ServerError);
        }
        if self.roll(self.plan.truncated_body) {
            self.counts.record(FaultKind::TruncatedBody);
            return Some(ResponseFault::Truncated);
        }
        if self.roll(self.plan.malformed_chunked) {
            self.counts.record(FaultKind::MalformedChunked);
            return Some(ResponseFault::MalformedChunked);
        }
        None
    }

    /// The ledger so far.
    pub fn counts(&self) -> &FaultCounts {
        &self.counts
    }

    /// Take the ledger, resetting it to zero (called at session end).
    pub fn take_counts(&mut self) -> FaultCounts {
        std::mem::take(&mut self.counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_never_fires_and_never_draws() {
        let mut inj = FaultInjector::new(FaultPlan::none(), SimRng::new(42));
        let before = inj.rng.clone();
        for t in 0..1_000u64 {
            assert!(inj.dns_fault().is_none());
            assert!(!inj.link_down(t));
            assert!(!inj.tls_abort());
            assert!(inj.conn_fault().is_none());
            assert!(inj.latency_spike().is_none());
            assert!(inj.response_fault().is_none());
        }
        assert_eq!(inj.rng, before, "a none-plan must not consume the stream");
        assert_eq!(inj.counts().total(), 0);
    }

    #[test]
    fn injector_is_deterministic() {
        let run = || {
            let mut inj = FaultInjector::new(FaultPlan::moderate(), SimRng::new(7).fork("chaos"));
            let fired: Vec<bool> = (0..500)
                .map(|t| inj.conn_fault().is_some() | inj.link_down(t))
                .collect();
            (fired, inj.take_counts())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn moderate_plan_fires_at_roughly_the_configured_rate() {
        let mut inj = FaultInjector::new(FaultPlan::moderate(), SimRng::new(1).fork("rate"));
        let n = 20_000;
        let mut fired = 0u64;
        for _ in 0..n {
            if matches!(inj.conn_fault(), Some(ConnFault::Timeout)) {
                fired += 1;
            }
        }
        let rate = fired as f64 / n as f64;
        assert!(
            (0.03..=0.07).contains(&rate),
            "packet loss rate drifted: {rate}"
        );
    }

    #[test]
    fn link_flap_window_swallows_followup_exchanges() {
        let mut plan = FaultPlan::none();
        plan.link_flap = 1.0;
        plan.link_flap_ms = 1_000;
        let mut inj = FaultInjector::new(plan, SimRng::new(3).fork("flap"));
        assert!(inj.link_down(0));
        assert!(inj.link_down(500), "still inside the window");
        assert_eq!(
            inj.counts().link_flaps,
            1,
            "in-window exchanges reuse the same flap"
        );
        assert!(inj.link_down(1_000), "a new flap starts (p=1)");
        assert_eq!(inj.counts().link_flaps, 2);
    }

    #[test]
    fn counts_merge_and_total() {
        let mut a = FaultCounts::default();
        a.record(FaultKind::PacketLoss);
        a.record(FaultKind::DnsServfail);
        let mut b = FaultCounts::default();
        b.record(FaultKind::PacketLoss);
        b.record(FaultKind::CellPanic);
        a.merge(&b);
        assert_eq!(a.packet_loss, 2);
        assert_eq!(a.dns_servfail, 1);
        assert_eq!(a.cell_panics, 1);
        assert_eq!(a.total(), 4);
    }

    #[test]
    fn presets_parse_and_scale() {
        assert!(FaultPlan::preset("none").unwrap().is_none());
        assert!(!FaultPlan::preset("light").unwrap().is_none());
        assert!(FaultPlan::preset("bogus").is_none());
        assert!(FaultPlan::heavy().packet_loss > FaultPlan::light().packet_loss);
        assert_eq!(FaultPlan::light().cell_panic, 0.0);
        assert_eq!(FaultPlan::heavy().cell_panic, 0.0);
    }
}

appvsweb_json::impl_json!(struct FaultPlan {
    packet_loss, latency_spike, latency_spike_ms, connection_reset, link_flap, link_flap_ms,
    dns_servfail, dns_timeout, tls_abort, truncated_body, malformed_chunked, server_error,
    cell_panic
});
appvsweb_json::impl_json!(struct FaultCounts {
    packet_loss, latency_spikes, connection_resets, link_flaps, dns_servfail, dns_timeouts,
    tls_aborts, truncated_bodies, malformed_chunked, server_errors, cell_panics
});
