//! URL parsing and formatting.
//!
//! A deliberately small URL model covering what mobile apps and Web sites
//! actually emit in the study's traffic: `http`/`https` scheme, host,
//! optional port, path, and query string. Fragments are parsed but never
//! transmitted (they stay client-side, as in real browsers).

use crate::codec::{form_encode_pair_into, form_urldecode, form_urlencode};
use std::fmt;

/// A hostname (always lowercase) — the simulation does not use IP literals
/// at the HTTP layer, mirroring the paper's domain-level analysis.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Host(String);

impl Host {
    /// Create a host, lowercasing it.
    pub fn new(name: impl AsRef<str>) -> Self {
        Host(name.as_ref().to_ascii_lowercase())
    }

    /// The host name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The registrable domain (approximate eTLD+1): the last two labels,
    /// or three for well-known second-level public suffixes such as
    /// `co.uk`. Good enough for the paper's first-party association.
    ///
    /// ```
    /// use appvsweb_httpsim::Host;
    /// assert_eq!(Host::new("ads.g.doubleclick.net").registrable_domain(), "doubleclick.net");
    /// assert_eq!(Host::new("news.bbc.co.uk").registrable_domain(), "bbc.co.uk");
    /// ```
    pub fn registrable_domain(&self) -> String {
        self.registrable_suffix().to_string()
    }

    /// [`Host::registrable_domain`] as the suffix of the host name it
    /// always is, borrowed instead of allocated.
    pub fn registrable_suffix(&self) -> &str {
        const SECOND_LEVEL_SUFFIXES: &[&str] = &[
            "co.uk", "org.uk", "ac.uk", "gov.uk", "com.au", "net.au", "org.au", "co.jp", "ne.jp",
            "or.jp", "com.br", "com.cn", "com.mx", "co.in", "co.nz", "co.kr",
        ];
        let host = self.0.as_str();
        let mut dots = host.rmatch_indices('.').map(|(i, _)| i);
        let (Some(_), Some(second)) = (dots.next(), dots.next()) else {
            return host;
        };
        let last_two = &host[second + 1..];
        if !SECOND_LEVEL_SUFFIXES.contains(&last_two) {
            return last_two;
        }
        match dots.next() {
            Some(third) => &host[third + 1..],
            None => host,
        }
    }

    /// The second-level label of the registrable domain — e.g.
    /// `"google-analytics"` for `www.google-analytics.com`. The paper's
    /// Table 2 lists A&A domains "absent their top-level domain" in this
    /// form.
    pub fn organization_label(&self) -> String {
        let reg = self.registrable_suffix();
        reg.split('.').next().unwrap_or(reg).to_string()
    }
}

impl fmt::Display for Host {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Host {
    fn from(s: &str) -> Self {
        Host::new(s)
    }
}

/// URL scheme; the study only observes web traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Plaintext HTTP — anything PII-bearing here is a leak by rule (1).
    Http,
    /// TLS-protected HTTP.
    Https,
}

impl Scheme {
    /// Default TCP port for the scheme.
    pub fn default_port(self) -> u16 {
        match self {
            Scheme::Http => 80,
            Scheme::Https => 443,
        }
    }

    /// Scheme text as it appears before `://`.
    pub fn as_str(self) -> &'static str {
        match self {
            Scheme::Http => "http",
            Scheme::Https => "https",
        }
    }
}

/// A parsed URL.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Url {
    /// `http` or `https`.
    pub scheme: Scheme,
    /// Hostname (lowercased).
    pub host: Host,
    /// Explicit port, if any.
    pub port: Option<u16>,
    /// Path starting with `/` (normalized to `/` when absent).
    pub path: String,
    /// Raw query string without the leading `?`, if present.
    pub query: Option<String>,
}

/// Error from [`Url::parse`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UrlError {
    /// The scheme was missing or not http/https.
    BadScheme,
    /// No host present.
    MissingHost,
    /// Port did not parse as u16.
    BadPort,
}

impl fmt::Display for UrlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UrlError::BadScheme => f.write_str("missing or unsupported scheme"),
            UrlError::MissingHost => f.write_str("missing host"),
            UrlError::BadPort => f.write_str("invalid port"),
        }
    }
}

impl std::error::Error for UrlError {}

impl Url {
    /// Parse an absolute http(s) URL.
    ///
    /// ```
    /// use appvsweb_httpsim::Url;
    /// let u = Url::parse("https://api.weather.com:8443/v2/geo?lat=42.36&lon=-71.05#top").unwrap();
    /// assert_eq!(u.host.as_str(), "api.weather.com");
    /// assert_eq!(u.port, Some(8443));
    /// assert_eq!(u.path, "/v2/geo");
    /// assert_eq!(u.query.as_deref(), Some("lat=42.36&lon=-71.05"));
    /// ```
    pub fn parse(input: &str) -> Result<Self, UrlError> {
        let (scheme, rest) = if let Some(rest) = input.strip_prefix("https://") {
            (Scheme::Https, rest)
        } else if let Some(rest) = input.strip_prefix("http://") {
            (Scheme::Http, rest)
        } else {
            return Err(UrlError::BadScheme);
        };

        // Strip the fragment first: it is never sent on the wire.
        let rest = rest.split('#').next().unwrap_or(rest);

        let (authority, path_query) = match rest.find('/') {
            Some(idx) => (&rest[..idx], &rest[idx..]),
            None => match rest.find('?') {
                Some(idx) => (&rest[..idx], &rest[idx..]),
                None => (rest, ""),
            },
        };
        if authority.is_empty() {
            return Err(UrlError::MissingHost);
        }
        // Ignore userinfo if present (rare, but keeps parsing total).
        let authority = authority.rsplit('@').next().unwrap_or(authority);
        let (host, port) = match authority.split_once(':') {
            Some((h, p)) => {
                let port = p.parse::<u16>().map_err(|_| UrlError::BadPort)?;
                (h, Some(port))
            }
            None => (authority, None),
        };
        if host.is_empty() {
            return Err(UrlError::MissingHost);
        }

        let (path, query) = match path_query.split_once('?') {
            Some((p, q)) => (p, Some(q.to_string())),
            None => (path_query, None),
        };
        let path = if path.is_empty() {
            "/".to_string()
        } else {
            path.to_string()
        };

        Ok(Url {
            scheme,
            host: Host::new(host),
            port,
            path,
            query,
        })
    }

    /// Build a URL from parts with no query.
    pub fn new(scheme: Scheme, host: impl AsRef<str>, path: impl Into<String>) -> Self {
        let mut path = path.into();
        if !path.starts_with('/') {
            path.insert(0, '/');
        }
        Url {
            scheme,
            host: Host::new(host),
            port: None,
            path,
            query: None,
        }
    }

    /// Replace the query with encoded key/value pairs.
    pub fn with_query(mut self, pairs: &[(&str, &str)]) -> Self {
        self.query = if pairs.is_empty() {
            None
        } else {
            Some(form_urlencode(pairs))
        };
        self
    }

    /// Append one encoded key/value pair to the query.
    pub fn push_query(&mut self, key: &str, value: &str) {
        let query = self.query.get_or_insert_with(String::new);
        if !query.is_empty() {
            query.push('&');
        }
        form_encode_pair_into(key, value, query);
    }

    /// Decode the query into key/value pairs (empty if no query).
    pub fn query_pairs(&self) -> Vec<(String, String)> {
        self.query
            .as_deref()
            .map(form_urldecode)
            .unwrap_or_default()
    }

    /// The decoded value of the first query pair whose decoded key is
    /// `key`: what `query_pairs()` would find first, without decoding
    /// the rest of the query (keys with no `%` or `+` compare as-is).
    pub fn query_value(&self, key: &str) -> Option<String> {
        self.query
            .as_deref()?
            .split('&')
            .filter(|pair| !pair.is_empty())
            .find_map(|pair| {
                let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
                let matches = if k.contains(['%', '+']) {
                    crate::codec::percent_decode(k) == key
                } else {
                    k == key
                };
                matches.then(|| crate::codec::percent_decode(v))
            })
    }

    /// The effective TCP port (explicit, or the scheme default).
    pub fn effective_port(&self) -> u16 {
        self.port.unwrap_or_else(|| self.scheme.default_port())
    }

    /// Path plus query, as sent in the HTTP request line.
    pub fn request_target(&self) -> String {
        match &self.query {
            Some(q) => format!("{}?{}", self.path, q),
            None => self.path.clone(),
        }
    }

    /// `true` if this URL uses plaintext HTTP.
    pub fn is_plaintext(&self) -> bool {
        self.scheme == Scheme::Http
    }
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}://{}", self.scheme.as_str(), self.host)?;
        if let Some(p) = self.port {
            write!(f, ":{p}")?;
        }
        f.write_str(&self.path)?;
        if let Some(q) = &self.query {
            write!(f, "?{q}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_minimal() {
        let u = Url::parse("http://example.com").unwrap();
        assert_eq!(u.scheme, Scheme::Http);
        assert_eq!(u.path, "/");
        assert_eq!(u.query, None);
        assert_eq!(u.effective_port(), 80);
    }

    #[test]
    fn parse_rejects_bad_inputs() {
        assert_eq!(Url::parse("ftp://x.com"), Err(UrlError::BadScheme));
        assert_eq!(Url::parse("https://"), Err(UrlError::MissingHost));
        assert_eq!(
            Url::parse("https://x.com:notaport/"),
            Err(UrlError::BadPort)
        );
    }

    #[test]
    fn parse_query_without_path() {
        let u = Url::parse("https://t.co?x=1").unwrap();
        assert_eq!(u.path, "/");
        assert_eq!(u.query.as_deref(), Some("x=1"));
    }

    #[test]
    fn fragment_is_dropped() {
        let u = Url::parse("https://a.com/p?q=1#frag").unwrap();
        assert_eq!(u.query.as_deref(), Some("q=1"));
        assert!(!u.to_string().contains('#'));
    }

    #[test]
    fn display_roundtrip() {
        for s in [
            "https://api.example.com/v1/users?id=42&x=a+b",
            "http://cdn.example.org:8080/asset.js",
            "https://example.com/",
        ] {
            let u = Url::parse(s).unwrap();
            assert_eq!(u.to_string(), *s);
            assert_eq!(Url::parse(&u.to_string()).unwrap(), u);
        }
    }

    #[test]
    fn push_query_appends() {
        let mut u = Url::new(Scheme::Https, "Example.COM", "track");
        assert_eq!(u.host.as_str(), "example.com");
        assert_eq!(u.path, "/track");
        u.push_query("idfa", "AAAA-BBBB");
        u.push_query("loc", "42.3601,-71.0589");
        let pairs = u.query_pairs();
        assert_eq!(pairs[0].0, "idfa");
        assert_eq!(pairs[1].1, "42.3601,-71.0589");
    }

    #[test]
    fn registrable_domain_cases() {
        assert_eq!(Host::new("weather.com").registrable_domain(), "weather.com");
        assert_eq!(
            Host::new("a.b.c.weather.com").registrable_domain(),
            "weather.com"
        );
        assert_eq!(Host::new("localhost").registrable_domain(), "localhost");
        assert_eq!(Host::new("bbc.co.uk").registrable_domain(), "bbc.co.uk");
        assert_eq!(Host::new("x.com.").registrable_domain(), "com.");
        assert_eq!(Host::new("a..b").registrable_domain(), ".b");
        assert_eq!(Host::new("..").registrable_domain(), ".");
        assert_eq!(Host::new("news.bbc.co.uk").organization_label(), "bbc");
        assert_eq!(
            Host::new("ssl.google-analytics.com").organization_label(),
            "google-analytics"
        );
    }
}

appvsweb_json::impl_json!(newtype Host(String));
appvsweb_json::impl_json!(
    enum Scheme {
        Http,
        Https,
    }
);
appvsweb_json::impl_json!(struct Url { scheme, host, port, path, query });
