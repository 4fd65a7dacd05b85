//! Fuzz entry point for the caching DNS resolver.
//!
//! A structured target: the fuzz bytes are decoded as an operation
//! stream (resolve / inject-failure / flush / advance-clock) over a
//! small fixed host universe, and the resolver is model-checked after
//! every step. This is the fuzzing form of the PR 2 negative-cache
//! fix: a fresh negative entry must fail *locally* — repeat failures
//! inside [`NEGATIVE_TTL`] must never touch the network, or injected
//! DNS faults turn into retry storms.
//!
//! [`NEGATIVE_TTL`]: crate::dns::NEGATIVE_TTL

use crate::clock::SimTime;
use crate::dns::{CacheState, DnsErrorKind, DnsResolver, DnsStats};

/// Host universe: two registered names, two that only NXDOMAIN.
const HOSTS: [&str; 4] = [
    "api.example.com",
    "cdn.example.com",
    "nope.example",
    "void.example",
];

fn total(stats: DnsStats) -> u64 {
    stats.network_queries + stats.cache_hits + stats.failures + stats.negative_hits
}

/// Run the DNS target on raw fuzz bytes (decoded as an op stream).
pub fn run(data: &[u8]) {
    let mut resolver = DnsResolver::default();
    for host in HOSTS.iter().take(2) {
        resolver.register(host);
    }

    let mut now = SimTime(0);
    let mut prev_stats = resolver.stats();
    for chunk in data.chunks(2) {
        let &[op, arg] = chunk else { break };
        let host = HOSTS[(arg & 0x03) as usize];
        match op % 6 {
            0 | 1 => {
                let state = resolver.cache_state(host, now);
                let before = resolver.stats();
                let outcome = resolver.resolve(host, now);
                let after = resolver.stats();
                match state {
                    CacheState::Fresh => {
                        // Fresh positive entries answer locally.
                        assert!(outcome.is_ok(), "fresh cache produced {outcome:?}");
                        assert_eq!(
                            after.cache_hits,
                            before.cache_hits + 1,
                            "fresh lookup was not a cache hit"
                        );
                        assert_eq!(
                            after.network_queries, before.network_queries,
                            "fresh cache hit touched the network"
                        );
                    }
                    CacheState::Negative => {
                        // The PR 2 regression: a fresh negative entry must
                        // fail locally, not re-query the network.
                        assert!(outcome.is_err(), "negative cache produced {outcome:?}");
                        assert_eq!(
                            after.network_queries, before.network_queries,
                            "negative-cache hit touched the network (retry storm)"
                        );
                        assert_eq!(after.negative_hits, before.negative_hits + 1);
                    }
                    CacheState::Miss => {
                        assert_eq!(
                            outcome.is_ok(),
                            resolver.knows(host),
                            "zone map decides a cold lookup"
                        );
                        // A cold lookup leaves a cache entry behind, one
                        // way or the other.
                        assert_ne!(
                            resolver.cache_state(host, now),
                            CacheState::Miss,
                            "cold lookup cached nothing"
                        );
                    }
                }
            }
            2 => {
                let kind = match arg >> 6 {
                    0 => DnsErrorKind::ServFail,
                    1 => DnsErrorKind::Timeout,
                    _ => DnsErrorKind::NxDomain,
                };
                let shadowed = resolver.cache_state(host, now) == CacheState::Fresh;
                let err = resolver.fail(host, kind, now);
                assert_eq!(err.kind, kind);
                let state = resolver.cache_state(host, now);
                if shadowed {
                    // A fresh positive entry keeps serving: the failure is
                    // recorded behind it. (The study runner only calls
                    // `fail` on a miss, but the model must stay total.)
                    assert_eq!(state, CacheState::Fresh, "failure evicted a fresh answer");
                } else {
                    assert_eq!(
                        state,
                        CacheState::Negative,
                        "an injected failure must be negatively cached"
                    );
                }
            }
            3 => {
                resolver.flush_cache();
                for h in HOSTS {
                    assert_eq!(
                        resolver.cache_state(h, now),
                        CacheState::Miss,
                        "flush must empty both caches"
                    );
                }
            }
            4 => {
                // Advance the clock (never backwards; ms granularity up
                // to just past the positive TTL so both expiries occur).
                now = SimTime(now.0 + (arg as u64) * 2_048);
            }
            _ => {
                resolver.register(host);
                assert!(
                    resolver.knows(host),
                    "a registered host must be in the zone"
                );
            }
        }
        let stats = resolver.stats();
        assert!(
            total(stats) >= total(prev_stats),
            "stats went backwards: {prev_stats:?} -> {stats:?}"
        );
        prev_stats = stats;
    }
}

/// Dictionary: op/arg pairs for the decoded stream — resolve each host,
/// inject each failure kind, flush, and a TTL-sized clock jump.
pub const DICT: &[&[u8]] = &[
    &[0, 0],
    &[0, 1],
    &[0, 2],
    &[2, 0x00],
    &[2, 0x40],
    &[2, 0x80],
    &[3, 0],
    &[4, 15],
    &[4, 255],
    &[5, 3],
];

/// Seeds: the negative-cache regression scenario (inject, retry inside
/// the TTL, expire, recover) and a cache-hit/expiry sweep.
pub const SEEDS: &[&[u8]] = &[
    &[2, 0x40, 0, 0, 0, 0, 4, 15, 0, 0, 4, 255, 0, 0],
    &[0, 0, 0, 0, 4, 255, 4, 255, 0, 0, 3, 0, 0, 1, 0, 2],
];
