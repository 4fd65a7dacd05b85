//! Browser HTTP cache (freshness + ETag revalidation).
//!
//! Web sessions fetch each ad tag's JavaScript once, not once per page —
//! because browsers cache. The study's flow counts depend on that
//! behaviour, so the browser model carries a real cache: `Cache-Control:
//! max-age` freshness, `ETag`/`If-None-Match` revalidation, and `304 Not
//! Modified` handling. Like the cookie jar, the cache is per-session
//! (private-mode browsing starts cold and is discarded afterwards).

use crate::message::{Request, Response};
use std::collections::BTreeMap;

/// What the cache says about a pending request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CacheAdvice {
    /// Entry is fresh: serve locally, no network traffic at all.
    Fresh,
    /// Entry is stale but has a validator: send a conditional request
    /// with this `If-None-Match` value.
    Revalidate(String),
    /// Nothing usable: fetch normally.
    Miss,
}

#[derive(Clone, Debug)]
struct CacheEntry {
    etag: Option<String>,
    stored_at_ms: u64,
    max_age_ms: Option<u64>,
}

/// A per-session browser cache keyed by absolute URL.
#[derive(Clone, Debug, Default)]
pub struct BrowserCache {
    entries: BTreeMap<String, CacheEntry>,
    /// Requests served without any network use.
    pub fresh_hits: u64,
    /// Conditional requests answered 304.
    pub revalidations: u64,
}

/// Parse `max-age` out of a `Cache-Control` header value.
fn parse_max_age(value: &str) -> Option<u64> {
    for directive in value.split(',') {
        let directive = directive.trim().to_ascii_lowercase();
        if let Some(seconds) = directive.strip_prefix("max-age=") {
            return seconds.parse::<u64>().ok();
        }
        if directive == "no-store" || directive == "no-cache" {
            return None;
        }
    }
    None
}

impl BrowserCache {
    /// An empty (cold, private-mode) cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ask the cache about `url` at time `now_ms`.
    pub fn advise(&mut self, url: &str, now_ms: u64) -> CacheAdvice {
        let Some(entry) = self.entries.get(url) else {
            return CacheAdvice::Miss;
        };
        if let Some(max_age) = entry.max_age_ms {
            if now_ms.saturating_sub(entry.stored_at_ms) <= max_age {
                self.fresh_hits += 1;
                return CacheAdvice::Fresh;
            }
        }
        match &entry.etag {
            Some(etag) => CacheAdvice::Revalidate(etag.clone()),
            None => CacheAdvice::Miss,
        }
    }

    /// Decorate an outgoing request according to prior advice (adds
    /// `If-None-Match` for revalidations).
    pub fn apply(&self, req: &mut Request, advice: &CacheAdvice) {
        if let CacheAdvice::Revalidate(etag) = advice {
            req.headers.set("If-None-Match", etag.clone());
        }
    }

    /// Record a response for `url` received at `now_ms`. A `304` renews
    /// the existing entry's freshness; a `200` with cache headers stores
    /// a new entry; `no-store` responses evict.
    pub fn store(&mut self, url: &str, resp: &Response, now_ms: u64) {
        if resp.status.0 == 304 {
            if let Some(entry) = self.entries.get_mut(url) {
                entry.stored_at_ms = now_ms;
                self.revalidations += 1;
            }
            return;
        }
        let cache_control = resp.headers.get("Cache-Control").unwrap_or("");
        if cache_control.to_ascii_lowercase().contains("no-store") {
            self.entries.remove(url);
            return;
        }
        let max_age_ms = parse_max_age(cache_control).map(|s| s * 1000);
        let etag = resp.headers.get("ETag").map(|s| s.to_string());
        if max_age_ms.is_none() && etag.is_none() {
            return; // uncacheable
        }
        self.entries.insert(
            url.to_string(),
            CacheEntry {
                etag,
                stored_at_ms: now_ms,
                max_age_ms,
            },
        );
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Body, StatusCode};
    use crate::url::Url;

    fn cacheable(max_age: u64, etag: &str) -> Response {
        let mut r = Response::ok(Body::binary(vec![b'x'; 100], "application/javascript"));
        r.headers
            .set("Cache-Control", format!("public, max-age={max_age}"));
        r.headers.set("ETag", etag.to_string());
        r
    }

    #[test]
    fn miss_then_fresh_then_revalidate() {
        let mut cache = BrowserCache::new();
        let url = "https://t.example/adjs/ga.js";
        assert_eq!(cache.advise(url, 0), CacheAdvice::Miss);
        cache.store(url, &cacheable(60, "\"v1\""), 0);
        // Within max-age: fresh, no network.
        assert_eq!(cache.advise(url, 59_000), CacheAdvice::Fresh);
        assert_eq!(cache.fresh_hits, 1);
        // Past max-age: revalidate with the ETag.
        assert_eq!(
            cache.advise(url, 61_000),
            CacheAdvice::Revalidate("\"v1\"".into())
        );
    }

    #[test]
    fn not_modified_renews_freshness() {
        let mut cache = BrowserCache::new();
        let url = "https://t.example/x.js";
        cache.store(url, &cacheable(10, "\"e\""), 0);
        assert!(matches!(
            cache.advise(url, 20_000),
            CacheAdvice::Revalidate(_)
        ));
        cache.store(url, &Response::new(StatusCode(304)), 20_000);
        assert_eq!(cache.revalidations, 1);
        assert_eq!(cache.advise(url, 25_000), CacheAdvice::Fresh);
    }

    #[test]
    fn conditional_request_carries_etag() {
        let cache = BrowserCache::new();
        let mut req = Request::get(Url::parse("https://t.example/x.js").unwrap());
        cache.apply(&mut req, &CacheAdvice::Revalidate("\"abc\"".into()));
        assert_eq!(req.headers.get("If-None-Match"), Some("\"abc\""));
    }

    #[test]
    fn no_store_is_never_cached() {
        let mut cache = BrowserCache::new();
        let url = "https://t.example/private";
        let mut r = Response::ok(Body::text("secret"));
        r.headers.set("Cache-Control", "no-store");
        cache.store(url, &r, 0);
        assert!(cache.is_empty());
        assert_eq!(cache.advise(url, 1), CacheAdvice::Miss);
    }

    #[test]
    fn uncacheable_responses_are_ignored() {
        let mut cache = BrowserCache::new();
        cache.store("https://a/b", &Response::ok(Body::text("x")), 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn etag_only_entries_always_revalidate() {
        let mut cache = BrowserCache::new();
        let url = "https://t.example/e";
        let mut r = Response::ok(Body::text("x"));
        r.headers.set("ETag", "\"only\"");
        cache.store(url, &r, 0);
        assert!(matches!(cache.advise(url, 1), CacheAdvice::Revalidate(_)));
    }

    #[test]
    fn diagnostics() {
        let mut cache = BrowserCache::new();
        cache.store("https://a/1", &cacheable(60, "\"1\""), 0);
        cache.store("https://a/2", &cacheable(60, "\"2\""), 0);
        assert_eq!(cache.len(), 2);
    }
}

// CacheAdvice carries a payload variant, so its JSON impls are written by
// hand in serde's externally-tagged shape: `"Fresh"`, `{"Revalidate": e}`.
// lint:allow(R2) impl_json! has no payload-enum form; shape reviewed against convert.rs
impl appvsweb_json::ToJson for CacheAdvice {
    fn to_json(&self) -> appvsweb_json::Json {
        use appvsweb_json::Json;
        match self {
            CacheAdvice::Fresh => Json::Str("Fresh".to_string()),
            CacheAdvice::Miss => Json::Str("Miss".to_string()),
            CacheAdvice::Revalidate(etag) => {
                Json::Obj(vec![("Revalidate".to_string(), Json::Str(etag.clone()))])
            }
        }
    }
}

// lint:allow(R2) impl_json! has no payload-enum form; shape reviewed against convert.rs
impl appvsweb_json::FromJson for CacheAdvice {
    fn from_json(v: &appvsweb_json::Json) -> Result<Self, appvsweb_json::JsonError> {
        use appvsweb_json::{Json, JsonError};
        if let Json::Obj(entries) = v {
            if let [(key, payload)] = entries.as_slice() {
                if key == "Revalidate" {
                    return Ok(CacheAdvice::Revalidate(appvsweb_json::FromJson::from_json(
                        payload,
                    )?));
                }
            }
        }
        match v {
            Json::Str(s) if s == "Fresh" => Ok(CacheAdvice::Fresh),
            Json::Str(s) if s == "Miss" => Ok(CacheAdvice::Miss),
            other => Err(JsonError::schema(format!(
                "expected CacheAdvice, got {}",
                other.kind()
            ))),
        }
    }
}

appvsweb_json::impl_json!(struct CacheEntry { etag, stored_at_ms, max_age_ms });
appvsweb_json::impl_json!(struct BrowserCache { entries, fresh_hits, revalidations });
