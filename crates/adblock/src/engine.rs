//! The filter engine: list loading and request classification.
//!
//! Classification is pre-filtered: each loaded list compiles a
//! [`Prefilter`] dispatch index, so a request tests only the rules
//! whose indexed 4-gram occurs in the URL (plus the short-pattern
//! `always` set) instead of walking the whole list. The pre-filter is
//! a strict superset filter — zero false negatives by construction
//! (see [`crate::prefilter`]) — and candidates are verified in load
//! order, so decisions are bit-identical to the retained linear
//! reference walk ([`FilterEngine::check_reference`]).

use crate::filter::{parse_line, Filter, ParsedLine, ResourceType};
use crate::is_third_party;
use crate::prefilter::Prefilter;
use appvsweb_httpsim::Host;

/// The request context a classification decision needs.
#[derive(Clone, Debug)]
pub struct RequestInfo<'a> {
    /// Full request URL.
    pub url: &'a str,
    /// The page/app origin host that initiated the request.
    pub origin_host: &'a str,
    /// Resource type, when known.
    pub resource_type: Option<ResourceType>,
}

/// Engine verdict for a request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Decision {
    /// A blocking rule matched (the rule text is included for reporting).
    Blocked(String),
    /// An exception rule overrode a blocking rule.
    Allowed(String),
    /// No rule matched.
    NoMatch,
}

impl Decision {
    /// Whether the engine classified the request as ad/tracking content.
    pub fn is_blocked(&self) -> bool {
        matches!(self, Decision::Blocked(_))
    }
}

/// Statistics from loading a list.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoadStats {
    /// Usable network rules.
    pub network_rules: usize,
    /// Exception rules (subset of `network_rules`).
    pub exceptions: usize,
    /// Comment/metadata lines.
    pub comments: usize,
    /// Element-hiding rules (skipped).
    pub element_hiding: usize,
    /// Unsupported lines (skipped).
    pub unsupported: usize,
}

/// An EasyList-style filter engine.
#[derive(Clone, Debug, Default)]
pub struct FilterEngine {
    blocking: Vec<Filter>,
    exceptions: Vec<Filter>,
    blocking_pre: Prefilter,
    exceptions_pre: Prefilter,
}

impl FilterEngine {
    /// An empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// An engine loaded with the bundled A&A snapshot
    /// ([`crate::lists::BUNDLED_AA_LIST`]).
    pub fn with_bundled_list() -> Self {
        let mut e = FilterEngine::new();
        e.load_list(crate::lists::BUNDLED_AA_LIST);
        e
    }

    /// Load a filter list, returning what was parsed. Recompiles the
    /// pre-filter dispatch indexes over the accumulated rules.
    pub fn load_list(&mut self, text: &str) -> LoadStats {
        let mut stats = LoadStats::default();
        for line in text.lines() {
            match parse_line(line) {
                ParsedLine::Network(f) => {
                    stats.network_rules += 1;
                    if f.exception {
                        stats.exceptions += 1;
                        self.exceptions.push(f);
                    } else {
                        self.blocking.push(f);
                    }
                }
                ParsedLine::Comment => stats.comments += 1,
                ParsedLine::ElementHiding => stats.element_hiding += 1,
                ParsedLine::Unsupported(_) => stats.unsupported += 1,
            }
        }
        self.blocking_pre = Prefilter::build(&self.blocking);
        self.exceptions_pre = Prefilter::build(&self.exceptions);
        stats
    }

    /// Does `f`'s full rule (options + pattern) match the request?
    /// `url` must already be lowercase.
    fn filter_applies(
        &self,
        f: &Filter,
        url: &str,
        third_party: bool,
        req: &RequestInfo<'_>,
    ) -> bool {
        if let Some(wants_tp) = f.third_party {
            if wants_tp != third_party {
                return false;
            }
        }
        if !f.include_domains.is_empty()
            && !f
                .include_domains
                .iter()
                .any(|d| domain_covers(d, req.origin_host))
        {
            return false;
        }
        if f.exclude_domains
            .iter()
            .any(|d| domain_covers(d, req.origin_host))
        {
            return false;
        }
        if !f.resource_types.is_empty() {
            match req.resource_type {
                Some(rt) if f.resource_types.contains(&rt) => {}
                _ => return false,
            }
        }
        f.pattern_matches(url)
    }

    /// Classify a request. Pre-filtered: only candidate rules whose
    /// indexed gram occurs in the URL are verified, in load order.
    pub fn check(&self, req: &RequestInfo<'_>) -> Decision {
        let url = req.url.to_ascii_lowercase();
        let request_host = host_of(&url);
        let third_party = is_third_party(&request_host, req.origin_host);

        let blocked = self
            .blocking_pre
            .candidates(&url)
            .into_iter()
            .map(|i| &self.blocking[i as usize])
            .find(|f| self.filter_applies(f, &url, third_party, req));
        if let Some(rule) = blocked {
            let exception = self
                .exceptions_pre
                .candidates(&url)
                .into_iter()
                .map(|i| &self.exceptions[i as usize])
                .find(|f| self.filter_applies(f, &url, third_party, req));
            if let Some(exc) = exception {
                return Decision::Allowed(exc.raw.clone());
            }
            return Decision::Blocked(rule.raw.clone());
        }
        Decision::NoMatch
    }

    /// Reference classification: the naive full walk over every rule,
    /// kept alive as the differential oracle for [`FilterEngine::check`].
    pub fn check_reference(&self, req: &RequestInfo<'_>) -> Decision {
        let url = req.url.to_ascii_lowercase();
        let request_host = host_of(&url);
        let third_party = is_third_party(&request_host, req.origin_host);

        let blocked = self
            .blocking
            .iter()
            .find(|f| self.filter_applies(f, &url, third_party, req));
        if let Some(rule) = blocked {
            if let Some(exc) = self
                .exceptions
                .iter()
                .find(|f| self.filter_applies(f, &url, third_party, req))
            {
                return Decision::Allowed(exc.raw.clone());
            }
            return Decision::Blocked(rule.raw.clone());
        }
        Decision::NoMatch
    }

    /// Convenience: does any blocking rule hit this URL for this origin?
    pub fn is_ad_or_tracking(&self, url: &str, origin_host: &str) -> bool {
        self.check(&RequestInfo {
            url,
            origin_host,
            resource_type: None,
        })
        .is_blocked()
    }
}

/// The bundled-list engine, compiled once per process and shared. The
/// list is a static snapshot and the compiled engine is immutable, so
/// per-cell categorizers clone an `Arc` instead of reparsing ~100 rules
/// and rebuilding the dispatch index.
pub fn bundled_shared() -> std::sync::Arc<FilterEngine> {
    use std::sync::{Arc, OnceLock};
    static SHARED: OnceLock<Arc<FilterEngine>> = OnceLock::new();
    Arc::clone(SHARED.get_or_init(|| Arc::new(FilterEngine::with_bundled_list())))
}

/// Extract the hostname from a lowercase URL string.
fn host_of(url: &str) -> String {
    let after = url.split("://").nth(1).unwrap_or(url);
    let end = after.find(['/', '?', ':']).unwrap_or(after.len());
    after[..end].to_string()
}

/// Whether `origin` equals `domain` or is a subdomain of it, using
/// registrable-domain comparison for bare domains.
fn domain_covers(domain: &str, origin: &str) -> bool {
    let origin = origin.to_ascii_lowercase();
    origin == domain
        || origin.ends_with(&format!(".{domain}"))
        || Host::new(&origin).registrable_domain() == domain
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(rules: &str) -> FilterEngine {
        let mut e = FilterEngine::new();
        e.load_list(rules);
        e
    }

    #[test]
    fn load_stats_counting() {
        let mut e = FilterEngine::new();
        let stats = e.load_list(
            "! title\n[Adblock]\n||a.com^\n@@||b.com^\nexample.com##.ad\n||c.com^$bogus-opt\n",
        );
        assert_eq!(stats.network_rules, 2);
        assert_eq!(stats.exceptions, 1);
        assert_eq!(stats.comments, 2);
        assert_eq!(stats.element_hiding, 1);
        assert_eq!(stats.unsupported, 1);
        assert_eq!((e.blocking.len(), e.exceptions.len()), (1, 1));
    }

    #[test]
    fn block_and_exception_precedence() {
        let e = engine("||cdn.com^\n@@||cdn.com/whitelisted/*\n");
        assert!(e.is_ad_or_tracking("https://cdn.com/ad.js", "site.com"));
        let d = e.check(&RequestInfo {
            url: "https://cdn.com/whitelisted/lib.js",
            origin_host: "site.com",
            resource_type: None,
        });
        assert!(matches!(d, Decision::Allowed(_)));
    }

    #[test]
    fn third_party_option_enforced() {
        let e = engine("||stats.com^$third-party\n");
        assert!(e.is_ad_or_tracking("https://stats.com/t.gif", "news.com"));
        // Same registrable domain = first party: rule must not fire.
        assert!(!e.is_ad_or_tracking("https://stats.com/t.gif", "www.stats.com"));
    }

    #[test]
    fn domain_option_scopes_rule() {
        let e = engine("||widget.com^$domain=news.com|~tech.news.com\n");
        assert!(e.is_ad_or_tracking("https://widget.com/w.js", "news.com"));
        assert!(e.is_ad_or_tracking("https://widget.com/w.js", "m.news.com"));
        assert!(!e.is_ad_or_tracking("https://widget.com/w.js", "tech.news.com"));
        assert!(!e.is_ad_or_tracking("https://widget.com/w.js", "other.com"));
    }

    #[test]
    fn resource_type_option() {
        let e = engine("||pix.com^$image\n");
        let img = RequestInfo {
            url: "https://pix.com/1.gif",
            origin_host: "a.com",
            resource_type: Some(ResourceType::Image),
        };
        let script = RequestInfo {
            url: "https://pix.com/1.js",
            origin_host: "a.com",
            resource_type: Some(ResourceType::Script),
        };
        let unknown = RequestInfo {
            url: "https://pix.com/1.gif",
            origin_host: "a.com",
            resource_type: None,
        };
        assert!(e.check(&img).is_blocked());
        assert!(!e.check(&script).is_blocked());
        assert!(
            !e.check(&unknown).is_blocked(),
            "typed rules need a typed request"
        );
    }

    #[test]
    fn bundled_list_loads_and_fires() {
        let e = FilterEngine::with_bundled_list();
        assert!(e.blocking.len() > 50);
        assert!(e.is_ad_or_tracking(
            "https://www.google-analytics.com/collect?v=1",
            "www.weather.com"
        ));
        assert!(e.is_ad_or_tracking("https://ads.amobee.com/bid", "jetblue.com"));
        assert!(!e.is_ad_or_tracking("https://www.weather.com/today", "www.weather.com"));
    }

    #[test]
    fn prefiltered_check_equals_reference_on_bundled_list() {
        let e = FilterEngine::with_bundled_list();
        let urls = [
            "https://www.google-analytics.com/collect?v=1",
            "https://ads.amobee.com/bid",
            "https://www.weather.com/today",
            "https://securepubads.googlesyndication.com/tag/js/gpt.js",
            "https://cdn.taplytics.com/sdk.min.js",
            "https://api.payments.example/charge",
            "https://x.com/loads/banner.png",
            "https://tracker.example",
        ];
        for url in urls {
            for origin in ["www.weather.com", "jetblue.com", "stats.com"] {
                for rt in [None, Some(ResourceType::Script), Some(ResourceType::Image)] {
                    let req = RequestInfo {
                        url,
                        origin_host: origin,
                        resource_type: rt,
                    };
                    assert_eq!(
                        e.check(&req),
                        e.check_reference(&req),
                        "fast/reference divergence for {url} from {origin}"
                    );
                }
            }
        }
    }

    #[test]
    fn bundled_shared_is_one_engine() {
        let a = bundled_shared();
        let b = bundled_shared();
        assert!(std::sync::Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn no_match_for_clean_requests() {
        let e = engine("||bad.com^\n");
        assert_eq!(
            e.check(&RequestInfo {
                url: "https://good.com/page",
                origin_host: "good.com",
                resource_type: None
            }),
            Decision::NoMatch
        );
    }
}
