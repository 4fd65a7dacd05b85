//! DNS resolution model.
//!
//! The simulated world's zone is the set of hostnames that resolve. The
//! resolver caches answers with a TTL and counts queries; DNS traffic is
//! part of the flow accounting in the study (every new third-party domain
//! a Web page pulls in costs a lookup — one reason Web sessions produce so
//! many more flows, cf. paper Figure 1b).

use crate::clock::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Default TTL applied to zone answers (5 minutes — longer than a study
/// session, so each domain is resolved once per session).
pub const DEFAULT_TTL: SimDuration = SimDuration(300_000);

/// TTL for *negative* answers (NXDOMAIN/SERVFAIL/timeout). Real stub
/// resolvers cache failures briefly (RFC 2308); without this, a client
/// retry policy turns every injected DNS fault into a retry storm of
/// identical network queries.
pub const NEGATIVE_TTL: SimDuration = SimDuration(30_000);

/// Resolution statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DnsStats {
    /// Queries that went to the network.
    pub network_queries: u64,
    /// Queries served from cache.
    pub cache_hits: u64,
    /// Names with no zone entry, plus injected SERVFAIL/timeouts.
    pub failures: u64,
    /// Failures served from the negative cache (no network round trip).
    pub negative_hits: u64,
}

#[derive(Clone, Debug)]
struct NegativeEntry {
    kind: DnsErrorKind,
    expires: SimTime,
}

/// What went wrong with a lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DnsErrorKind {
    /// The name has no zone entry.
    NxDomain,
    /// The upstream resolver answered SERVFAIL.
    ServFail,
    /// The query timed out.
    Timeout,
}

impl DnsErrorKind {
    /// Whether a client may reasonably retry this failure soon.
    pub fn is_transient(self) -> bool {
        !matches!(self, DnsErrorKind::NxDomain)
    }
}

/// A failed lookup: the kind of failure plus the queried name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DnsError {
    /// Failure class.
    pub kind: DnsErrorKind,
    /// The name that failed to resolve.
    pub host: String,
}

impl DnsError {
    /// Build an error for `host`.
    pub fn new(kind: DnsErrorKind, host: impl Into<String>) -> Self {
        DnsError {
            kind,
            host: host.into(),
        }
    }
}

impl fmt::Display for DnsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            DnsErrorKind::NxDomain => write!(f, "NXDOMAIN: {}", self.host),
            DnsErrorKind::ServFail => write!(f, "SERVFAIL: {}", self.host),
            DnsErrorKind::Timeout => write!(f, "DNS timeout: {}", self.host),
        }
    }
}

impl std::error::Error for DnsError {}

/// State of the resolver's caches for one name at one instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheState {
    /// A positive answer is fresh; resolution is local.
    Fresh,
    /// A negative answer is fresh; resolution fails locally.
    Negative,
    /// Nothing cached (or everything expired): a network query happens.
    Miss,
}

/// A caching stub resolver over a zone of names; the default one has an
/// empty zone and empty caches.
#[derive(Debug, Default)]
pub struct DnsResolver {
    /// Names that resolve (lowercase).
    zones: BTreeSet<String>,
    /// When each positive answer expires.
    cache: BTreeMap<String, SimTime>,
    negative: BTreeMap<String, NegativeEntry>,
    stats: DnsStats,
}

impl DnsResolver {
    /// Add `host` to the zone (case-insensitively; a name already there
    /// is left as it is and costs no allocation).
    pub fn register(&mut self, host: &str) {
        if !self.knows(host) {
            self.zones.insert(host.to_ascii_lowercase());
        }
    }

    /// Resolve `host` at time `now`: `Ok` when it has an address, from
    /// the cache or from the zone map.
    ///
    /// Failures (NXDOMAIN, or injected SERVFAIL/timeouts via
    /// [`DnsResolver::fail`]) are negatively cached for [`NEGATIVE_TTL`],
    /// so a retrying client re-fails locally instead of re-querying the
    /// network — the behaviour that keeps injected DNS faults from
    /// turning into retry storms.
    pub fn resolve(&mut self, host: &str, now: SimTime) -> Result<(), DnsError> {
        let host = fold_host(host);
        if let Some(&expires) = self.cache.get(host.as_ref()) {
            if expires > now {
                appvsweb_cover::cover!();
                appvsweb_obs::counter!("netsim.dns.cache_hits");
                appvsweb_obs::event!("dns.cache_hit", "{host}");
                self.stats.cache_hits += 1;
                return Ok(());
            }
        }
        if let Some(entry) = self.negative.get(host.as_ref()) {
            if entry.expires > now {
                appvsweb_cover::cover!();
                appvsweb_obs::counter!("netsim.dns.negative_hits");
                appvsweb_obs::event!("dns.negative_hit", "{host} {:?}", entry.kind);
                self.stats.negative_hits += 1;
                return Err(DnsError::new(entry.kind, host.into_owned()));
            }
        }
        if !self.zones.contains(host.as_ref()) {
            appvsweb_cover::cover!();
            appvsweb_obs::counter!("netsim.dns.nxdomain");
            appvsweb_obs::event!("dns.nxdomain", "{host}");
            self.stats.failures += 1;
            let host = host.into_owned();
            self.negative.insert(
                host.clone(),
                NegativeEntry {
                    kind: DnsErrorKind::NxDomain,
                    expires: now + NEGATIVE_TTL,
                },
            );
            return Err(DnsError::new(DnsErrorKind::NxDomain, host));
        }
        appvsweb_cover::cover!();
        appvsweb_obs::counter!("netsim.dns.queries");
        appvsweb_obs::event!("dns.query", "{host}");
        self.stats.network_queries += 1;
        self.negative.remove(host.as_ref());
        self.cache.insert(host.into_owned(), now + DEFAULT_TTL);
        Ok(())
    }

    /// Record a failed network query for `host` (the fault-injection
    /// hook): counts it, caches the failure for [`NEGATIVE_TTL`], and
    /// returns the error a client would see.
    pub fn fail(&mut self, host: &str, kind: DnsErrorKind, now: SimTime) -> DnsError {
        let host = host.to_ascii_lowercase();
        appvsweb_obs::counter!("netsim.dns.injected_failures");
        appvsweb_obs::event!("dns.fault", "{host} {kind:?}");
        self.stats.network_queries += 1;
        self.stats.failures += 1;
        self.negative.insert(
            host.clone(),
            NegativeEntry {
                kind,
                expires: now + NEGATIVE_TTL,
            },
        );
        DnsError::new(kind, host)
    }

    /// What the caches say about `host` at `now` (drives whether a fault
    /// injector even gets the chance to break a lookup: cached answers —
    /// positive or negative — never touch the network).
    pub fn cache_state(&self, host: &str, now: SimTime) -> CacheState {
        let host = fold_host(host);
        if self
            .cache
            .get(host.as_ref())
            .is_some_and(|&expires| expires > now)
        {
            return CacheState::Fresh;
        }
        if self
            .negative
            .get(host.as_ref())
            .is_some_and(|entry| entry.expires > now)
        {
            return CacheState::Negative;
        }
        CacheState::Miss
    }

    /// Drop all cached entries (a new private-mode session).
    pub fn flush_cache(&mut self) {
        self.cache.clear();
        self.negative.clear();
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> DnsStats {
        self.stats
    }

    /// Whether `host` is in the zone.
    pub fn knows(&self, host: &str) -> bool {
        self.zones.contains(fold_host(host).as_ref())
    }
}

/// Lowercase `host` only when it isn't already: simulated hosts almost
/// always are, and borrowing skips a per-lookup allocation.
fn fold_host(host: &str) -> std::borrow::Cow<'_, str> {
    if host.bytes().any(|b| b.is_ascii_uppercase()) {
        std::borrow::Cow::Owned(host.to_ascii_lowercase())
    } else {
        std::borrow::Cow::Borrowed(host)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resolver() -> DnsResolver {
        DnsResolver::default()
    }

    #[test]
    fn resolves_registered_names() {
        let mut r = resolver();
        r.register("api.weather.com");
        r.resolve("API.WEATHER.COM", SimTime(0)).unwrap();
        assert_eq!(r.stats().network_queries, 1, "a cold lookup queries");
        assert_eq!(
            r.cache_state("api.weather.com", SimTime(1)),
            CacheState::Fresh
        );
    }

    #[test]
    fn nxdomain_for_unknown() {
        let mut r = resolver();
        let err = r.resolve("nope.example", SimTime(0)).unwrap_err();
        assert_eq!(err.kind, DnsErrorKind::NxDomain);
        assert_eq!(r.stats().failures, 1);
    }

    #[test]
    fn failures_are_negatively_cached_with_their_own_ttl() {
        let mut r = resolver();
        // First miss hits the (absent) network; repeats are local.
        assert!(r.resolve("nope.example", SimTime(0)).is_err());
        for t in 1..10 {
            assert!(r.resolve("nope.example", SimTime(t)).is_err());
        }
        assert_eq!(r.stats().failures, 1, "one authoritative failure");
        assert_eq!(r.stats().negative_hits, 9, "repeats served locally");

        // The negative TTL is its own knob: shorter than the positive TTL.
        let after_neg = SimTime(NEGATIVE_TTL.as_millis() + 1);
        assert!(after_neg.0 < DEFAULT_TTL.as_millis());
        assert!(r.resolve("nope.example", after_neg).is_err());
        assert_eq!(r.stats().failures, 2, "negative entry expired, re-query");
    }

    #[test]
    fn injected_servfail_is_negatively_cached_and_recovers() {
        let mut r = resolver();
        r.register("api.example.com");
        let err = r.fail("api.example.com", DnsErrorKind::ServFail, SimTime(0));
        assert_eq!(err.kind, DnsErrorKind::ServFail);
        assert!(err.kind.is_transient());
        assert_eq!(
            r.cache_state("api.example.com", SimTime(1)),
            CacheState::Negative
        );

        // A retry inside the negative TTL fails locally — no retry storm.
        let queries_before = r.stats().network_queries;
        let again = r.resolve("api.example.com", SimTime(5_000)).unwrap_err();
        assert_eq!(again.kind, DnsErrorKind::ServFail);
        assert_eq!(r.stats().network_queries, queries_before);
        assert_eq!(r.stats().negative_hits, 1);

        // After the negative TTL the zone answers again, and success
        // clears the negative entry.
        let later = SimTime(NEGATIVE_TTL.as_millis() + 1);
        r.resolve("api.example.com", later).unwrap();
        assert_eq!(r.stats().network_queries, queries_before + 1);
        assert_eq!(r.cache_state("api.example.com", later), CacheState::Fresh);
    }

    #[test]
    fn cache_state_tracks_both_caches() {
        let mut r = resolver();
        r.register("x.com");
        assert_eq!(r.cache_state("x.com", SimTime(0)), CacheState::Miss);
        r.resolve("x.com", SimTime(0)).unwrap();
        assert_eq!(r.cache_state("X.COM", SimTime(1)), CacheState::Fresh);
        let expired = SimTime(DEFAULT_TTL.as_millis() + 1);
        assert_eq!(r.cache_state("x.com", expired), CacheState::Miss);
        r.flush_cache();
        r.fail("x.com", DnsErrorKind::Timeout, SimTime(0));
        assert_eq!(r.cache_state("x.com", SimTime(1)), CacheState::Negative);
        r.flush_cache();
        assert_eq!(r.cache_state("x.com", SimTime(1)), CacheState::Miss);
    }

    #[test]
    fn cache_hits_within_ttl() {
        let mut r = resolver();
        r.register("cdn.example.com");
        r.resolve("cdn.example.com", SimTime(0)).unwrap();
        r.resolve("cdn.example.com", SimTime(1000)).unwrap();
        assert_eq!(r.stats().network_queries, 1);
        assert_eq!(r.stats().cache_hits, 1);
    }

    #[test]
    fn cache_expires_after_ttl() {
        let mut r = resolver();
        r.register("x.com");
        r.resolve("x.com", SimTime(0)).unwrap();
        let later = SimTime(DEFAULT_TTL.as_millis() + 1);
        r.resolve("x.com", later).unwrap();
        assert_eq!(r.stats().network_queries, 2);
        assert_eq!(r.stats().cache_hits, 0);
    }

    #[test]
    fn flush_cache_forces_requery() {
        let mut r = resolver();
        r.register("x.com");
        r.resolve("x.com", SimTime(0)).unwrap();
        r.flush_cache();
        r.resolve("x.com", SimTime(1)).unwrap();
        assert_eq!(r.stats().network_queries, 2);
        assert_eq!(r.stats().cache_hits, 0);
    }

    #[test]
    fn register_folds_case_and_is_idempotent() {
        let mut r = resolver();
        assert!(!r.knows("a.com"));
        r.register("A.Com");
        r.register("a.com");
        assert!(r.knows("a.com") && r.knows("A.COM"));
        assert_eq!(r.zones.len(), 1);
    }
}

appvsweb_json::impl_json!(struct DnsStats { network_queries, cache_hits, failures, negative_hits });
appvsweb_json::impl_json!(
    enum DnsErrorKind {
        NxDomain,
        ServFail,
        Timeout,
    }
);
